"""Command-line surface.

Every invocation is fully determined by argv plus, when --seed is omitted,
the GSWALK_SEED environment variable (echoed into reports via the seed it
supplies).  Exit codes: 0 success, 1 domain error, 2 usage error.  Each
command imports the modules it runs when it runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import instances
from .exceptions import GswError, ParameterError, ReportFormatError

DEFAULT_SEED = 0
SEED_ENV = "GSWALK_SEED"
REPORT_KEYS = ("runs", "mean_hatT", "mean_maxZ", "theorem1_bound", "min_disc", "tail")


def _resolve_seed(value):
    """The --seed value, else GSWALK_SEED, else the default; a non-negative int."""
    source = "--seed"
    if value is None:
        source = SEED_ENV
        value = os.environ.get(SEED_ENV, DEFAULT_SEED)
    try:
        seed = int(value)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ParameterError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gswalk",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", required=True, choices=instances.KINDS)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="one walk run; prints the outcome")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--dump-trace", help="write the step records as JSON")

    p = sub.add_parser("trace", help="run once and print the decomposition")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("mc", help="Monte Carlo experiment over many runs")
    p.add_argument("--instance", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=instances.usable_cores())

    p = sub.add_parser("oracle", help="exact enumeration checks")
    p.add_argument("--instance", required=True)
    p.add_argument("--check", required=True,
                   choices=("martingale", "subgaussian", "increments",
                            "bruteforce", "all"))
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--v", default="e1",
                   help="direction: e<i> (1-based) or 'random'")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("check-ineq", help="grid certification of the scalar inequalities")
    p.add_argument("--which", required=True,
                   choices=("lemma1", "cosh", "hoeffding", "comparison"))
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("smoothed", help="smoothed-analysis pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=32.0)
    p.add_argument("--cutoff-c", type=float)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--epsilon", type=float)
    group.add_argument("--epsilon-auto", action="store_true",
                       help="use sigma*sqrt(ln d)*d^(-kappa/32) (the default)")
    p.add_argument("--r-trials", type=int, default=50)
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("report", help="summarize a JSON or CSV report file")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--summary", action="store_true", help="JSON reports: also print each tail row")
    return top


def _direction(spec: str, d: int, seed: int) -> np.ndarray:
    if spec == "random":
        v = instances.stream_rng(seed, 97).standard_normal(d)
        return v / np.linalg.norm(v)
    if spec.startswith("e"):
        try:
            i = int(spec[1:])
        except ValueError:
            raise ParameterError(f"unknown direction spec {spec!r}") from None
        if not 1 <= i <= d:
            raise GswError(f"basis index {i} out of range 1..{d}")
        v = np.zeros(d)
        v[i - 1] = 1.0
        return v
    raise GswError(f"unknown direction spec {spec!r}")


def _cmd_gen(args) -> int:
    inst = instances.generate_instance(args.kind, args.d, args.n,
                                       _resolve_seed(args.seed))
    instances.save_instance(inst, args.out)
    print(f"wrote {args.kind} instance d={args.d} n={args.n} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    from . import walk
    inst = instances.load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    trace = walk.run_walk(inst, instances.stream_rng(seed, 0))
    disc = float(np.abs(inst.images(trace.final_x[None])).max())
    signs = " ".join(f"{int(s):+d}" for s in trace.final_x)
    print(f"seed {seed}: T={trace.total_steps} discrepancy={disc:.12g} X=[{signs}]")
    if args.dump_trace:
        payload = [{**dataclasses.asdict(rec), "u": list(rec.u)} for rec in trace.steps]
        instances.write_text(args.dump_trace, instances.json_text(payload))
    return 0


def _cmd_trace(args) -> int:
    from . import ortho, walk
    inst = instances.load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    trace = walk.run_walk(inst, instances.stream_rng(seed, 0))
    dec = ortho.decompose(inst, trace)
    proxies = ortho.basis_variance_proxies(inst, dec)
    print(f"seed {seed}: T={trace.total_steps}")
    print("freeze order (position -> column):", " ".join(map(str, dec.order)))
    for r in np.flatnonzero(dec.order == dec.pivot)[::-1]:     # pivots, top down
        live = set(dec.run[(dec.pivot == dec.pivot[r]) & dec.nonzero].tolist())
        print(f"pivot {dec.pivot[r]}: phase starts step {dec.block[r] + 1}, "
              f"nontrivial blocks {len(live)}")
    print(f"total nontrivial blocks: {dec.total_nontrivial}")
    print("basis proxies:", " ".join(f"{z:.12g}" for z in proxies))
    return 0


def _cmd_mc(args) -> int:
    from . import harness
    inst = instances.load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    stats = harness.run_experiment(inst, args.runs, seed, workers=args.threads)
    desc = {"d": inst.d, "n": inst.n, "kind": "file", "seed": seed,
            "path": args.instance}
    report = harness.build_report(inst, desc, stats, seed)
    harness.write_report(report, args.out, fmt=args.format, stats=stats)
    print(f"runs={args.runs} mean_hatT={report.mean_hatT:.6g} "
          f"bound={report.theorem1_bound:.6g} min_disc={report.min_disc:.6g}")
    return 0


def _cmd_oracle(args) -> int:
    from . import enumeration
    inst = instances.load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    checks = ([args.check] if args.check != "all"
              else ["martingale", "subgaussian", "increments", "bruteforce"])
    if "subgaussian" in checks and not math.isfinite(args.lam):
        raise ParameterError(f"--lambda must be finite, got {args.lam}")
    v = _direction(args.v, inst.d, seed) if {"martingale", "subgaussian"} & set(checks) else None
    dist = None
    if set(checks) & {"martingale", "subgaussian", "increments"}:
        dist = enumeration.enumerate_walk(inst)
    failures = 0
    for check in checks:
        if check == "bruteforce":
            val, signs = enumeration.brute_force_min_discrepancy(inst)
            txt = " ".join(f"{int(s):+d}" for s in signs)
            print(f"brute force min discrepancy = {val:.12g} at [{txt}]")
            continue
        if check == "martingale":
            dev = enumeration.verify_martingale(dist, inst, v)
            ok, line = dev <= 1e-10, f"martingale |E<MX,v>| = {dev:.3e}"
        elif check == "subgaussian":
            m = enumeration.verify_subgaussian(dist, inst, v, args.lam)
            ok = m <= 1.0 + 1e-10
            line = f"subgaussian moment (lambda={args.lam}) = {m:.12g}"
        else:
            dev = enumeration.conditional_increment_check(dist)
            ok, line = dev <= 1e-10, f"conditional increment max deviation = {dev:.3e}"
        print(f"{line} ({'ok' if ok else 'FAIL'})")
        failures += not ok
    if failures:
        raise GswError(f"{failures} oracle check(s) failed")
    return 0


def _cmd_check_ineq(args) -> int:
    if args.which == "comparison":
        from . import smoothed
        worst = smoothed.comparison_trials(args.trials, _resolve_seed(args.seed))
        print(f"comparison min relative slack over {args.trials} trials: {worst:.3e}")
        ok = worst >= -1e-6
    else:
        from . import inequalities
        if args.which == "lemma1":
            gap = inequalities.lemma1_grid_min(step=args.grid_step)
            print(f"lemma1 min gap over grid: {gap:.3e}")
            ok = gap >= -1e-12
        elif args.which == "hoeffding":
            gap = inequalities.two_point_grid_min(step=args.grid_step)
            print(f"hoeffding two-point min gap over grid: {gap:.3e}")
            ok = gap >= -1e-12
        else:
            g1, g2 = inequalities.cosh_chain_grid_min(step=args.grid_step)
            print(f"cosh chain min gaps over grid: {g1:.3e}, {g2:.3e}")
            ok = g1 > 0 and g2 >= 0
    if not ok:
        raise GswError("inequality certification failed")
    return 0


def _cmd_smoothed(args) -> int:
    from . import enumeration, smoothed
    inst = instances.load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    sigma = args.sigma
    eps = (smoothed.epsilon_of(sigma, max(inst.d, 2), args.kappa) if args.epsilon is None
           else args.epsilon)
    cutoff = smoothed.default_cutoff(inst.d) if args.cutoff_c is None else args.cutoff_c
    config = smoothed.SmoothedConfig(
        sigma=sigma, kappa=args.kappa, cutoff_c=cutoff, epsilon=eps, r_trials=args.r_trials,
        master_seed=seed, delta=smoothed.DEFAULT_DELTA if args.delta is None else args.delta)
    leaves = enumeration.enumerate_walk(smoothed.build_augmented(inst))
    tilted = smoothed.tilt_distribution(leaves, inst, sigma, cutoff)
    fraction, (lo, hi) = smoothed.outer_success_estimate(inst, tilted, config)
    report = smoothed.admissibility_report(config, inst, tilted)
    payload = {
        "instance": {"d": inst.d, "n": inst.n, "path": args.instance},
        "config": dataclasses.asdict(config),
        "tilted": {"support_size": len(tilted.support),
                   "normalizer": tilted.normalizer,
                   "half_variance": tilted.half_variance,
                   "cutoff_mass": tilted.cutoff_mass},
        "outer_success": {"fraction": fraction, "wilson_low": lo,
                          "wilson_high": hi},
        "admissibility": report,
    }
    if args.out:
        instances.write_text(args.out, instances.json_text(payload))
    print(f"outer success fraction {fraction:.4g} "
          f"(95% Wilson [{lo:.4g}, {hi:.4g}]), epsilon={eps:.6g}")
    return 0


def _cmd_report(args) -> int:
    text = instances.read_text(args.path, ReportFormatError)
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:       # a JSONDecodeError, or an int of too many digits
            raise ReportFormatError(f"invalid JSON report: {exc}") from None
        missing = [key for key in REPORT_KEYS if key not in payload]
        if missing:
            raise ReportFormatError(f"JSON report lacks {', '.join(missing)}")
        try:
            # JSON reads NaN, Infinity and 1e999 as floats; a bool is no run count
            tail = payload["tail"] if args.summary else []
            numbers = [payload[key] for key in REPORT_KEYS[1:-1]] + [
                row[key] for row in tail for key in ("c", "empirical", "bound")]
            if type(payload["runs"]) is not int or payload["runs"] < 1:
                raise ValueError(f"runs must be a positive integer, got {payload['runs']!r}")
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"the numbers to print must be finite: {numbers}")
            lines = [f"runs={payload['runs']} mean_hatT={payload['mean_hatT']:.6g} "
                     f"mean_maxZ={payload['mean_maxZ']:.6g} "
                     f"bound={payload['theorem1_bound']:.6g} "
                     f"min_disc={payload['min_disc']:.6g}"]
            lines += [f"  tail c={row['c']}: empirical {row['empirical']:.4g} "
                      f"<= bound {row['bound']:.4g}" for row in tail]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ReportFormatError(
                f"malformed JSON report ({type(exc).__name__}: {exc})") from None
        print("\n".join(lines))
    else:
        from . import harness
        stats = harness.parse_csv(text)
        if args.summary:
            raise ParameterError("--summary needs a JSON report; a per-run CSV has no tail rows")
        disc = stats.discrepancy
        print(f"runs={stats.run_index.size} mean_hatT={stats.block_count.mean():.6g} "
              f"mean_maxZ={stats.max_proxy.mean():.6g} min_disc={disc.min():.6g} "
              f"mean_disc={disc.mean():.6g}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen, "run": _cmd_run, "trace": _cmd_trace, "mc": _cmd_mc,
    "oracle": _cmd_oracle, "check-ineq": _cmd_check_ineq,
    "smoothed": _cmd_smoothed, "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (GswError, OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
