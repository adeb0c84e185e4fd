"""Seeded Monte Carlo experiments over walk runs.

Each run draws its generator from (master_seed, run_index), so results are
identical regardless of execution order or worker count.  The per-run CSV is
the canonical record; the JSON report aggregates it.

Runs of one call share a prefix tree of the walk: a run re-enters the nodes
and leaf statistics that earlier runs with the same choice prefix built,
drawing the same random numbers as a plain ``run_walk``, so every value is
unchanged.
"""
from __future__ import annotations

import io
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .enumeration import brute_force_min_discrepancy
from .exceptions import ParameterError, ReportFormatError
from .inequalities import BoundInputs, theorem1_bound
from .instances import Instance, json_text, stream_rng, write_text
from .ortho import basis_variance_proxies, decompose
from .walk import Node, WalkState, WalkTrace, expand_node

# The report's empirical tail: coordinate and thresholds c.
TAIL_COORD = 0
TAIL_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# Floats (and indices) the prefix tree of one run_experiment call may keep
# per process; runs past it expand nodes without keeping them.  Without a
# cap the tree grows by ~3n floats per step at large n.
CACHE_BUDGET_FLOATS = 1 << 17
CSV_HEADER = "run_index,discrepancy,hatT,maxZ,final_X"


@dataclass
class RunStats:
    run_index: int
    discrepancy: float
    block_count: int                 # nontrivial orthogonal blocks of the run
    max_proxy: float                 # max over basis directions
    proxies: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)


@dataclass
class ExperimentReport:
    instance: dict
    runs: int
    master_seed: int
    mean_hatT: float
    se_hatT: float
    mean_maxZ: float
    se_maxZ: float
    theorem1_bound: float
    min_disc: float
    mean_disc: float
    max_disc: float
    frac_within_bound: float
    brute_force_opt: float | None
    tail: list[dict]


def _trace_stats(inst: Instance, run_index: int, trace: WalkTrace) -> RunStats:
    ortho = decompose(inst, trace)
    proxies = basis_variance_proxies(inst, ortho)
    disc = float(np.abs(inst.matrix @ trace.final_x).max())
    return RunStats(run_index=run_index, discrepancy=disc,
                    block_count=ortho.total_nontrivial,
                    max_proxy=float(proxies.max()), proxies=proxies,
                    signs=trace.final_x.copy())


class _PrefixTree:
    """Walk nodes and leaf statistics of one call, keyed by choice prefix.

    Stops growing once ``CACHE_BUDGET_FLOATS`` is spent; a run that needs a
    node past that point goes on over nodes the tree does not keep.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.root = expand_node(inst, WalkState.initial(inst.n))
        self.leaf_stats: dict[Node, RunStats] = {}
        self.spent = _floats(self.root)

    def run(self, master_seed: int, run_index: int) -> RunStats:
        rng = stream_rng(master_seed, run_index)
        node, steps = self.root, []
        while node.u is not None:
            take_plus = rng.random() < node.p_plus
            nxt = node.children[take_plus]
            if nxt is None:
                if self.spent < CACHE_BUDGET_FLOATS:
                    nxt = node.child(self.inst, take_plus)
                    self.spent += _floats(nxt)
                else:
                    nxt = expand_node(self.inst, *node.step(take_plus))
            node = nxt
            steps.append(node.record)
        stats = self.leaf_stats.get(node)
        if stats is None:
            stats = _trace_stats(self.inst, run_index, WalkTrace(steps, node.state.x))
            if self.spent < CACHE_BUDGET_FLOATS:
                self.leaf_stats[node] = stats
                self.spent += stats.proxies.size + stats.signs.size
        return replace(stats, run_index=run_index, proxies=stats.proxies.copy(),
                       signs=stats.signs.copy())


def _floats(node: Node) -> int:
    """Array entries a cached node holds; its record shares the parent's u."""
    state = node.state
    return state.x.size + state.active.size + (0 if node.u is None else node.u.size)


def _run_range(args):
    inst, master_seed, start, stop = args
    tree = _PrefixTree(inst)
    return [tree.run(master_seed, r) for r in range(start, stop)]


def run_experiment(inst: Instance, runs: int, master_seed: int,
                   workers: int = 1) -> list[RunStats]:
    """Independent seeded walk runs, sorted by index, on <= os.cpu_count() processes."""
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or runs < 4 * workers:
        return _run_range((inst, master_seed, 0, runs))
    bounds = np.linspace(0, runs, workers + 1).astype(int)
    chunks = [(inst, master_seed, int(a), int(b))
              for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_range, chunks))
    out = [s for part in parts for s in part]
    out.sort(key=lambda s: s.run_index)
    return out


def estimate_bound(stats: list[RunStats]) -> tuple[float, bool]:
    """Plug sample means into the existence bound; existence holds when the
    minimum observed discrepancy does not exceed it."""
    if not stats:
        raise ValueError("no run statistics")
    mean_max = float(np.mean([s.max_proxy for s in stats]))
    mean_blocks = float(np.mean([s.block_count for s in stats]))
    bound = theorem1_bound(BoundInputs(mean_max_proxy=min(mean_max, 1.0),
                                       mean_block_count=max(mean_blocks, 1.0)))
    return bound, min(s.discrepancy for s in stats) <= bound


def empirical_tail(inst: Instance, stats: list[RunStats], coord: int,
                   c_grid) -> list[dict]:
    """Exceedance fractions of |<M X, e_coord>| against the 2 exp(-c^2/2) bound."""
    margins = np.abs(np.array([float(inst.matrix[coord] @ s.signs) for s in stats]))
    return [{"c": float(c),
             "empirical": float(np.mean(margins > c)),
             "bound": 2.0 * math.exp(-c * c / 2.0)} for c in c_grid]


def write_report(report: ExperimentReport, path, fmt: str = "json",
                 stats: list[RunStats] | None = None) -> None:
    """Write the aggregate JSON report or the per-run CSV (requires stats)."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        if stats is None:
            raise ValueError("csv format needs the per-run statistics")
        text = stats_to_csv(stats)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    write_text(path, text)


def report_to_json(report: ExperimentReport) -> str:
    """The report as JSON; field order is the dataclass's, as in FORMATS.md."""
    return json_text(asdict(report))


def stats_to_csv(stats: list[RunStats]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for s in stats:
        signs = "".join("+1" if v > 0 else "-1" for v in s.signs)
        buf.write(f"{s.run_index},{s.discrepancy!r},{s.block_count},"
                  f"{s.max_proxy!r},{signs}\n")
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    """The rows of a per-run CSV; it needs the header and at least one row."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ReportFormatError("neither a JSON report nor a per-run CSV with header "
                                f"{CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        try:
            idx, disc, blocks, maxz, signs = line.split(",")
            rows.append({"run_index": int(idx), "discrepancy": float(disc),
                         "hatT": int(blocks), "maxZ": float(maxz),
                         "final_X": signs})
        except ValueError:
            raise ReportFormatError(f"malformed CSV row {line!r}") from None
    if not rows:
        raise ReportFormatError("CSV report has no run rows")
    return rows


def build_report(inst: Instance, instance_desc: dict, stats: list[RunStats],
                 master_seed: int) -> ExperimentReport:
    """Aggregate per-run statistics into the report structure."""
    blocks = np.array([s.block_count for s in stats], dtype=float)
    maxz = np.array([s.max_proxy for s in stats])
    disc = np.array([s.discrepancy for s in stats])
    runs = len(stats)
    bound, _ = estimate_bound(stats)
    tail = empirical_tail(inst, stats, TAIL_COORD, TAIL_GRID)
    opt = None
    if inst.n <= 20:
        opt = brute_force_min_discrepancy(inst)[0]
    return ExperimentReport(
        instance=instance_desc, runs=runs, master_seed=master_seed,
        mean_hatT=float(blocks.mean()),
        se_hatT=float(blocks.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
        mean_maxZ=float(maxz.mean()),
        se_maxZ=float(maxz.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
        theorem1_bound=bound,
        min_disc=float(disc.min()), mean_disc=float(disc.mean()),
        max_disc=float(disc.max()),
        frac_within_bound=float(np.mean(disc <= bound)),
        brute_force_opt=opt, tail=tail)
