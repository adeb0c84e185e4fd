"""The benchmark's four workloads.

Each workload writes its instance file from the workload seed, lists the
gswalk CLI commands that one repeat runs, checks what those commands wrote,
and, for the traced pass, makes the same library calls under timing spans
followed by a replay sub-pass that times single steps and single leaves.

Layer metrics a workload does not exercise stay at 0.
"""
from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gswalk import enumeration, harness, inequalities, instances, ortho, smoothed, walk

INSTANCE = "instance.txt"
CSV_HEADER = "run_index,discrepancy,hatT,maxZ,final_X"
RESIDUAL_LIMIT = 1e-8
LEAF_SAMPLE = 256           # leaves whose steps and proxies the replay times


@dataclass
class Command:
    label: str
    args: list[str]                 # argv after ``python -m gswalk.cli``
    out: str | None = None          # file the command writes, if any
    expect: list[str] = field(default_factory=list)  # regexes stdout must match


@dataclass
class Context:
    workdir: Path
    seed: int                       # workload seed; also the program's --seed
    nproc: int                      # worker count passed to ``mc --threads``


def unit_sphere_matrix(d: int, n: int, seed: int, stream: int) -> np.ndarray:
    """d x n Gaussian matrix with columns scaled to unit norm."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(stream,)))
    m = rng.standard_normal((d, n))
    return m / np.linalg.norm(m, axis=0)


def write_instance(m: np.ndarray, path: Path) -> None:
    """Instance text format: header ``d n``, then d rows written with %.17g."""
    rows = [" ".join(format(x, ".17g") for x in row) for row in m]
    path.write_text("\n".join([f"{m.shape[0]} {m.shape[1]}", *rows]) + "\n",
                    encoding="utf-8")


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """The generator ``gswalk mc`` derives for run ``run_index``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(run_index,)))


def repeat_step_share(choice_paths) -> float:
    """Share of steps taken at a choice prefix that an earlier path reached."""
    node_of: dict[tuple[int, bool], int] = {}
    reached: set[int] = set()
    repeated = total = 0
    for path in choice_paths:
        node, visited = 0, [0]
        for choice in path:
            repeated += node in reached
            total += 1
            node = node_of.setdefault((node, choice), len(node_of) + 1)
            visited.append(node)
        reached.update(visited)
    return repeated / total


def replay_steps(inst, traces) -> dict[str, float]:
    """Re-run every recorded step call by call; microseconds per step."""
    clock = time.perf_counter
    spent = {"min_norm_direction": 0.0, "feasible_interval": 0.0,
             "apply_step": 0.0}
    steps = 0
    for trace in traces:
        state = walk.WalkState.initial(inst.n)
        for rec in trace.steps:
            t0 = clock()
            u = walk.min_norm_direction(inst, state.active, state.pivot)
            t1 = clock()
            dm, dp = walk.feasible_interval(state.x, u)
            t2 = clock()
            state, _ = walk.apply_step(state, u, rec.chosen_delta, dm, dp,
                                       rec.choice_probability)
            t3 = clock()
            spent["min_norm_direction"] += t1 - t0
            spent["feasible_interval"] += t2 - t1
            spent["apply_step"] += t3 - t2
            steps += 1
    return {f"walk.{name}.us_per_step": 1e6 * s / steps
            for name, s in spent.items()}


def path_metrics(traces, decs, weights=None) -> dict[str, float]:
    """Step and block statistics over traces, weighted by ``weights``."""
    steps = [len(t.steps) for t in traces]
    hat_t = [dec.total_nontrivial for dec in decs]
    return {"walk.steps_per_run": float(np.average(steps, weights=weights)),
            "walk.multi_freeze_steps": float(sum(len(rec.frozen) > 1
                                                 for t in traces
                                                 for rec in t.steps)),
            "ortho.mean_hatT": float(np.average(hat_t, weights=weights))}


def max_residual(inst, traces, decs) -> float:
    return max(ortho.direction_expansion_residual(inst, t, dec)
               for t, dec in zip(traces, decs))


class Workload:
    name = ""
    stream = 0                      # instance stream, distinct per workload
    d = n = 0
    unpinned_probe = False          # traced pass also times BLAS unpinned

    def __init__(self, **sizes):
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)

    def prepare(self, ctx: Context) -> None:
        write_instance(unit_sphere_matrix(self.d, self.n, ctx.seed, self.stream),
                       ctx.workdir / INSTANCE)

    def load(self, ctx: Context):
        return instances.load_instance(ctx.workdir / INSTANCE)

    def commands(self, ctx: Context) -> list[Command]:
        raise NotImplementedError

    def check(self, ctx: Context, stdouts: dict[str, str],
              files: dict[str, bytes]) -> list[tuple[str, bool]]:
        """Content checks on one repeat's outputs: (name, passed) pairs."""
        raise NotImplementedError

    def traced(self, ctx: Context, tr, layer: dict) -> None:
        """Mirror the commands' library calls under spans; fill ``layer``."""
        raise NotImplementedError


class MonteCarlo(Workload):
    fmt = "csv"
    runs = 0
    sample = 0                      # runs recomputed by the reference path
    replay_runs = 0                 # runs whose steps are replayed call by call

    @property
    def out(self) -> str:
        return "runs.csv" if self.fmt == "csv" else "report.json"

    def commands(self, ctx):
        return [Command("mc", ["mc", "--instance", INSTANCE,
                               "--runs", str(self.runs), "--seed", str(ctx.seed),
                               "--out", self.out, "--format", self.fmt,
                               "--threads", str(ctx.nproc)],
                        out=self.out,
                        expect=[r"runs=\d+ mean_hatT=\S+ bound=\S+ min_disc=\S+"])]

    def sampled_runs(self) -> list[int]:
        count = min(self.sample, self.runs)
        return sorted(set(np.linspace(0, self.runs - 1, count).astype(int).tolist()))

    def reference(self, inst, seed: int, r: int):
        """The uncached path: run_walk -> decompose -> basis proxies."""
        trace = walk.run_walk(inst, run_rng(seed, r))
        dec = ortho.decompose(inst, trace)
        return trace, dec, ortho.basis_variance_proxies(inst, dec)

    def check(self, ctx, stdouts, files):
        inst = self.load(ctx)
        text = files[self.out].decode("utf-8")
        if self.fmt == "csv":
            return self.check_csv(ctx, inst, text)
        return self.check_report(ctx, inst, json.loads(text))

    def check_csv(self, ctx, inst, text):
        lines = text.splitlines()
        checks = [("csv.header", lines[:1] == [CSV_HEADER]),
                  ("csv.row_count", len(lines) - 1 == self.runs)]
        for r in self.sampled_runs():
            trace, dec, z = self.reference(inst, ctx.seed, r)
            disc = float(np.abs(inst.matrix @ trace.final_x).max())
            signs = "".join("+1" if v > 0 else "-1" for v in trace.final_x)
            want = f"{r},{disc!r},{dec.total_nontrivial},{float(z.max())!r},{signs}"
            got = lines[r + 1] if r + 1 < len(lines) else None
            checks.append((f"csv.row_{r}", got == want))
        return checks

    def check_report(self, ctx, inst, report):
        bound = report["theorem1_bound"]
        checks = [("json.runs", report["runs"] == self.runs),
                  ("json.min_disc_within_bound", report["min_disc"] <= bound),
                  ("json.frac_within_bound", 0.0 <= report["frac_within_bound"] <= 1.0)]
        for r in self.sampled_runs():
            trace, dec, _ = self.reference(inst, ctx.seed, r)
            disc = float(np.abs(inst.matrix @ trace.final_x).max())
            residual = ortho.direction_expansion_residual(inst, trace, dec)
            checks.append((f"run_{r}.residual", residual <= RESIDUAL_LIMIT))
            checks.append((f"run_{r}.disc_in_range",
                           report["min_disc"] <= disc <= report["max_disc"]))
        return checks

    def traced(self, ctx, tr, layer):
        with tr.span("cli.mc"):
            with tr.span("instances.load_instance"):
                inst = self.load(ctx)
            with tr.span("harness.run_experiment"):
                stats = harness.run_experiment(inst, self.runs, ctx.seed,
                                               workers=ctx.nproc)
            desc = {"d": inst.d, "n": inst.n, "kind": "file", "seed": ctx.seed,
                    "path": INSTANCE}
            with tr.span("harness.build_report"):
                report = harness.build_report(inst, desc, stats, ctx.seed)
            with tr.span("harness.write_report"):
                harness.write_report(report, ctx.workdir / f"traced-{self.out}",
                                     fmt=self.fmt, stats=stats)
        for name in ("harness.run_experiment", "harness.build_report",
                     "harness.write_report"):
            layer[f"{name}.s"] = tr.seconds(name)

        with tr.span("replay"):
            with tr.span("walk.run_walk"):
                traces = [walk.run_walk(inst, run_rng(ctx.seed, r))
                          for r in range(self.runs)]
            with tr.span("ortho.decompose"):
                decs = [ortho.decompose(inst, t) for t in traces]
            with tr.span("ortho.basis_variance_proxies"):
                for dec in decs:
                    ortho.basis_variance_proxies(inst, dec)
            with tr.span("walk.step_replay"):
                layer.update(replay_steps(inst, traces[:self.replay_runs]))
            with tr.span("ortho.direction_expansion_residual"):
                layer["ortho.direction_expansion_residual.max"] = max_residual(
                    inst, traces[:self.replay_runs], decs[:self.replay_runs])
            if inst.n <= 20:        # build_report adds the brute-force optimum
                with tr.span("enumeration.brute_force_min_discrepancy"):
                    enumeration.brute_force_min_discrepancy(inst)
        layer["walk.run_walk.ms_per_run"] = 1e3 * tr.seconds("walk.run_walk") / self.runs
        layer["ortho.decompose.ms_per_call"] = 1e3 * tr.seconds("ortho.decompose") / self.runs
        layer["ortho.basis_variance_proxies.ms_per_call"] = (
            1e3 * tr.seconds("ortho.basis_variance_proxies") / self.runs)
        layer["enumeration.brute_force_min_discrepancy.s"] = tr.seconds(
            "enumeration.brute_force_min_discrepancy")
        layer["harness.repeat_step_share"] = repeat_step_share(
            tuple(rec.chosen_delta > 0 for rec in t.steps) for t in traces)
        layer.update(path_metrics(traces, decs))


class McSmall(MonteCarlo):
    name = "mc-small"
    stream, d, n = 1, 8, 8
    fmt, runs, sample, replay_runs = "csv", 3000, 16, 200


class McWide(MonteCarlo):
    name = "mc-wide"
    stream, d, n = 2, 8, 532
    fmt, runs, sample, replay_runs = "json", 24, 2, 2
    unpinned_probe = True


def leaf_metrics(tr, inst, dist, layer) -> None:
    """Replay sub-pass over an enumerated tree: leaf decompositions, a sample
    of leaf paths step by step, and block statistics under the leaf law."""
    leaves = dist.leaves
    with tr.span("ortho.decompose"):
        for lf in leaves:
            ortho.decompose(inst, lf.trace)
    sample = leaves[::max(1, len(leaves) // LEAF_SAMPLE)]
    with tr.span("ortho.basis_variance_proxies"):
        for lf in sample:
            ortho.basis_variance_proxies(inst, lf.ortho)
    traces = [lf.trace for lf in sample]
    with tr.span("walk.step_replay"):
        layer.update(replay_steps(inst, traces))
    with tr.span("ortho.direction_expansion_residual"):
        layer["ortho.direction_expansion_residual.max"] = max_residual(
            inst, traces, [lf.ortho for lf in sample])
    decompose_s = tr.seconds("ortho.decompose")
    layer["ortho.decompose.ms_per_call"] = 1e3 * decompose_s / len(leaves)
    layer["ortho.basis_variance_proxies.ms_per_call"] = (
        1e3 * tr.seconds("ortho.basis_variance_proxies") / len(sample))
    layer["enumeration.leaf_decompose_share"] = (
        decompose_s / tr.seconds("enumeration.enumerate_walk"))
    layer["enumeration.leaves"] = float(len(leaves))
    layer["enumeration.pruned_mass"] = dist.pruned_mass
    layer.update(path_metrics([lf.trace for lf in leaves],
                              [lf.ortho for lf in leaves],
                              [lf.probability for lf in leaves]))


def comparison_trials(trials: int, seed: int) -> float:
    """The random cases of ``check-ineq --which comparison``, evaluated through
    the public comparison functions; returns the minimum relative slack."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(11,)))
    worst = math.inf
    count = 0
    while count < trials:
        d = int(rng.integers(2, 6))
        n = int(rng.integers(4, 10))
        x = rng.choice([-1.0, 1.0], size=n)
        y = rng.choice([-1.0, 1.0], size=n)
        if abs(x @ y) > n / 2 or abs(x @ y) == n:
            continue
        row = rng.normal(0, 1 / math.sqrt(n), size=n)
        sigma = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.05, 1.0))
        ci = smoothed.comparison_constant(row, x, y, sigma, d, n, eps)
        prod = smoothed.product_rect_probability(row, x, y, sigma, d, n, eps)
        joint = smoothed.joint_rect_probability(row, x, y, sigma, d, n, eps)
        worst = min(worst, (ci * prod - joint) / (ci * prod))
        count += 1
    return worst


def grid_points(step: float) -> int:
    """Points the three scalar grids evaluate at their default domains."""
    def axis(lim):
        return int(round(2 * lim / step)) + 1
    cosh = (len(np.arange(2.0, 10.0 + step / 2, step))
            * len(np.arange(step, 5.0 + step / 2, step)))
    return axis(0.99) * axis(3.0) ** 2 + axis(1.0) * axis(3.0) + cosh


class Certify(Workload):
    name = "certify"
    stream, d, n = 3, 4, 13
    grid_step = 0.01
    trials = 100

    def commands(self, ctx):
        oracle = Command("oracle", ["oracle", "--instance", INSTANCE,
                                    "--check", "all", "--seed", str(ctx.seed)],
                         expect=[r"martingale .*\(ok\)", r"subgaussian .*\(ok\)",
                                 r"conditional increment .*\(ok\)",
                                 r"brute force min discrepancy = \S+ at"])
        step = ["--grid-step", repr(self.grid_step)]
        return [oracle,
                Command("lemma1", ["check-ineq", "--which", "lemma1", *step],
                        expect=[r"lemma1 min gap over grid: "]),
                Command("hoeffding", ["check-ineq", "--which", "hoeffding", *step],
                        expect=[r"hoeffding two-point min gap over grid: "]),
                Command("cosh", ["check-ineq", "--which", "cosh", *step],
                        expect=[r"cosh chain min gaps over grid: "]),
                Command("comparison", ["check-ineq", "--which", "comparison",
                                       "--trials", str(self.trials),
                                       "--seed", str(ctx.seed)],
                        expect=[r"comparison min relative slack over \d+ trials: "])]

    def check(self, ctx, stdouts, files):
        """The printed brute-force optimum against an independent search."""
        m = self.load(ctx).matrix
        n = m.shape[1]
        codes = np.arange(1 << n)[:, None] >> np.arange(n)[None, :]
        signs = (codes & 1) * 2.0 - 1.0
        best = float(np.abs(signs @ m.T).max(axis=1).min())
        found = re.search(r"^brute force min discrepancy = (\S+) at",
                          stdouts["oracle"], re.M)
        ok = found is not None and abs(float(found.group(1)) - best) <= 1e-9 * max(1.0, best)
        return [("bruteforce.value", ok)]

    def traced(self, ctx, tr, layer):
        with tr.span("cli.oracle"):
            with tr.span("instances.load_instance"):
                inst = self.load(ctx)
            with tr.span("enumeration.enumerate_walk"):
                dist = enumeration.enumerate_walk(inst)
            v = np.zeros(inst.d)
            v[0] = 1.0                  # --v e1, the CLI default
            with tr.span("enumeration.verify_martingale"):
                enumeration.verify_martingale(dist, inst, v)
            with tr.span("enumeration.verify_subgaussian"):
                enumeration.verify_subgaussian(dist, inst, v, 1.0)
            with tr.span("enumeration.conditional_increment_check"):
                enumeration.conditional_increment_check(dist)
            with tr.span("enumeration.brute_force_min_discrepancy"):
                enumeration.brute_force_min_discrepancy(inst)
        grids = (("lemma1", inequalities.lemma1_grid_min),
                 ("hoeffding", inequalities.two_point_grid_min),
                 ("cosh", inequalities.cosh_chain_grid_min))
        for label, fn in grids:
            with tr.span(f"cli.check-ineq.{label}"):
                with tr.span(f"inequalities.{fn.__name__}"):
                    fn(step=self.grid_step)
        with tr.span("cli.check-ineq.comparison"):
            with tr.span("smoothed.comparison"):
                comparison_trials(self.trials, ctx.seed)
        for name in ("enumeration.enumerate_walk", "enumeration.verify_martingale",
                     "enumeration.verify_subgaussian",
                     "enumeration.conditional_increment_check",
                     "enumeration.brute_force_min_discrepancy",
                     *(f"inequalities.{fn.__name__}" for _, fn in grids)):
            layer[f"{name}.s"] = tr.seconds(name)
        layer["inequalities.grid_points"] = float(grid_points(self.grid_step))
        layer["smoothed.comparison.ms_per_trial"] = (
            1e3 * tr.seconds("smoothed.comparison") / self.trials)
        with tr.span("replay"):
            leaf_metrics(tr, inst, dist, layer)


class Smoothed(Workload):
    name = "smoothed"
    stream, d, n = 4, 4, 12
    r_trials = 300
    sigma, kappa = 1.0, 32.0        # the CLI defaults

    def commands(self, ctx):
        return [Command("smoothed", ["smoothed", "--instance", INSTANCE,
                                     "--epsilon-auto",
                                     "--r-trials", str(self.r_trials),
                                     "--seed", str(ctx.seed), "--out", "smoothed.json"],
                        out="smoothed.json",
                        expect=[r"outer success fraction \S+ \(95% Wilson "])]

    def check(self, ctx, stdouts, files):
        report = json.loads(files["smoothed.json"].decode("utf-8"))
        outer = report["outer_success"]
        mass = report["tilted"]["cutoff_mass"]
        return [("json.r_trials", report["config"]["r_trials"] == self.r_trials),
                ("json.wilson_brackets_fraction",
                 outer["wilson_low"] <= outer["fraction"] <= outer["wilson_high"]),
                ("json.cutoff_mass", 0.0 < mass <= 1.0),
                ("json.support_size", report["tilted"]["support_size"] >= 1)]

    def traced(self, ctx, tr, layer):
        with tr.span("cli.smoothed"):
            with tr.span("instances.load_instance"):
                inst = self.load(ctx)
            eps = smoothed.epsilon_of(self.sigma, max(inst.d, 2), self.kappa)
            cutoff = max(2.0, math.log(max(inst.d, 2)) ** 2)
            config = smoothed.SmoothedConfig(
                sigma=self.sigma, kappa=self.kappa, cutoff_c=cutoff, epsilon=eps,
                r_trials=self.r_trials, master_seed=ctx.seed,
                delta=smoothed.DEFAULT_DELTA)
            with tr.span("smoothed.build_augmented"):
                aug = smoothed.build_augmented(inst)
            with tr.span("enumeration.enumerate_walk"):
                dist = enumeration.enumerate_walk(aug)
            with tr.span("smoothed.tilt_distribution"):
                tilted = smoothed.tilt_distribution(dist, inst, self.sigma, cutoff)
            with tr.span("smoothed.outer_success_estimate"):
                smoothed.outer_success_estimate(inst, tilted, config)
            with tr.span("smoothed.admissibility_report"):
                smoothed.admissibility_report(config, inst, tilted)
        for name in ("enumeration.enumerate_walk", "smoothed.tilt_distribution",
                     "smoothed.outer_success_estimate"):
            layer[f"{name}.s"] = tr.seconds(name)
        layer["smoothed.support_size"] = float(len(tilted.support))
        with tr.span("replay"):
            with tr.span("smoothed.inner_hit_probability"):
                spent = 0.0
                for i in range(self.r_trials):
                    pert = smoothed.sample_perturbation(inst.d, inst.n, self.sigma,
                                                        run_rng(ctx.seed, i))
                    t0 = time.perf_counter()
                    smoothed.inner_hit_probability(inst, pert, tilted, eps)
                    spent += time.perf_counter() - t0
            layer["smoothed.inner_hit_probability.us_per_trial"] = 1e6 * spent / self.r_trials
            leaf_metrics(tr, aug, dist, layer)


WORKLOADS = {w.name: w for w in (McSmall, McWide, Certify, Smoothed)}
