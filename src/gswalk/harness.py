"""Seeded Monte Carlo experiments over walk runs.

Each run draws its generator from (master_seed, run_index), so results are
identical regardless of execution order or worker count.  ``mc``'s run draws
are the values ``stream_rng(seed, r).random(n)`` gives, computed in bulk by
``_stream_uniforms`` and pinned bitwise by a test.  The per-run CSV is
the canonical record; ``RunStats`` holds its columns from the sampler through
the process pool to ``parse_csv``, and the JSON report aggregates it.

Runs advance together as rows, a chunk at a time, with the arithmetic of a
plain ``run_walk``, so every value is unchanged, and fill their range's
preallocated columns.  At each depth the active rows go to one
``walk.stacked_directions`` call, which solves each distinct set once.  A run
keeps only the step at which each coordinate froze; a chunk's distinct freeze
sequences (``distinct_rows``) are decomposed in one ``ortho.decompose_stack``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import accumulate, permutations

import numpy as np

from . import walk
from .enumeration import brute_force_min_discrepancy
from .exceptions import ContractViolationError, ParameterError, ReportFormatError
from .inequalities import PROXY_SLACK, BoundInputs, theorem1_bound
from .instances import Instance, distinct_rows, json_text, usable_cores, write_text
from .ortho import basis_variance_proxies, decompose_stack

# The report's empirical tail: coordinate and thresholds c.
TAIL_COORD = 0
TAIL_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# A chunk holds max(1, CHUNK_FLOATS // (n d)) runs, so that its gather of
# other active columns, (rows, k - 1, d) floats, stays under 1 MiB.
CHUNK_FLOATS = 1 << 17
CSV_HEADER = "run_index,discrepancy,hatT,maxZ,final_X"
SIGN_TOKENS = {"+1": 1.0, "-1": -1.0}
# numpy's SeedSequence hash constants and multipliers, and PCG64's multiplier
SEED_INIT_A, SEED_MULT_A, SEED_INIT_B, SEED_MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
PCG_MULT = 0x2360ed051fc65da44385df649fccf645
MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


@dataclass
class RunStats:
    """The columns of the per-run CSV for R runs, in run-index order."""
    run_index: np.ndarray            # (R,) int
    discrepancy: np.ndarray          # (R,)
    block_count: np.ndarray          # (R,) int, nontrivial orthogonal blocks (hatT)
    max_proxy: np.ndarray            # (R,) max proxy over basis directions (maxZ)
    signs: np.ndarray = field(repr=False)    # (R, n) final colorings (final_X)


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


def _walk_rows(inst: Instance, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk each row to completion, step t of row i taking ``draws[i, t - 1]``.

    Returns the final colorings (g, n) and, per coordinate, the step that
    froze it (g, n).  At each depth the active sets of the rows still
    walking get their directions from one ``walk.stacked_directions`` call,
    and every row then steps in one pass along its own.
    """
    g, n = draws.shape
    x = np.zeros((g, n))
    active = np.ones((g, n), dtype=bool)
    when = np.zeros((g, n), dtype=np.int32)
    live = np.arange(g)
    t = 0
    while live.size:
        act = active[live]
        u = walk.stacked_directions(inst, act)
        moved, froze, *_ = walk.step_rows(x[live], u, draws[live, t], act)
        t += 1
        x[live] = moved
        active[live] = act ^ froze      # froze lies within act
        when[live] += t * froze
        live = live[active[live].any(axis=1)]
    return x, when


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hash of a uint32 word (an int or a uint32 array), and
    the next hash constant."""
    following = const * mult & MASK32
    value = (value ^ const) * following & MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    """SeedSequence's mix of two uint32 words; ``x`` may be an int where
    ``y`` is an array, since the int term is reduced first."""
    value = ((0xca01f9dd * x & MASK32) - 0x4973f715 * y) & MASK32
    return value ^ value >> 16


def _mul128(xh, xl, ch, cl):
    """The uint64 limbs (high, low) of (xh, xl) * (ch, cl) mod 2**128."""
    x1, x0, c1, c0 = xl >> 32, xl & MASK32, cl >> 32, cl & MASK32
    carry = ((x0 * c0 >> 32) + (x1 * c0 & MASK32) + (x0 * c1 & MASK32)) >> 32
    return x1 * c1 + (x1 * c0 >> 32) + (x0 * c1 >> 32) + carry + xh * cl + xl * ch, xl * cl


def _stream_uniforms(seed: int, keys: np.ndarray, n: int) -> np.ndarray:
    """Row i is ``stream_rng(seed, keys[i]).random(n)`` bit for bit, for
    keys below 2**32: numpy's SeedSequence and PCG64, vectorized over keys.

    The seed's words, padded to the pool's four, mix into a pool that every
    key shares; each key then mixes in as the last entropy word, and the
    pool gives each key's PCG64 state s and increment inc.  After seeding
    (two steps from s + inc) and t draws the state is
    M^(t+1) s + (1 + M + ... + M^(t+1)) inc mod 2**128, which the draw turns
    into 64 bits by XSL-RR and a double by its top 53.
    """
    words = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    const, pool = SEED_INIT_A, [0] * 4
    for i in range(4):
        pool[i], const = _hashmix(words[i], const, SEED_MULT_A)
    for src, dst in permutations(range(4), 2):
        value, const = _hashmix(pool[src], const, SEED_MULT_A)
        pool[dst] = _mix(pool[dst], value)
    for word in words[4:] + [np.asarray(keys, dtype=np.uint32)]:
        for dst in range(4):
            value, const = _hashmix(word, const, SEED_MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const, state = SEED_INIT_B, []
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, SEED_MULT_B)
        state.append(value.astype(np.uint64))
    s_hi, s_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    powers = [1]
    for _ in range(n + 1):
        powers.append(powers[-1] * PCG_MULT & MASK128)
    jumps = powers[2:] + [total & MASK128 for total in accumulate(powers)][2:]
    (a_hi, c_hi), (a_lo, c_lo) = np.array(
        [[v >> 64 for v in jumps], [v & MASK64 for v in jumps]], dtype=np.uint64).reshape(2, 2, n)
    p_hi, p_lo = _mul128(s_hi[:, None], s_lo[:, None], a_hi, a_lo)
    q_hi, q_lo = _mul128(inc_hi[:, None], inc_lo[:, None], c_hi, c_lo)
    lo = p_lo + q_lo
    hi = p_hi + q_hi + (lo < p_lo)
    rot, x = hi >> 58, hi ^ lo
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0 ** -53


def _run_range(args):
    inst, master_seed, start, stop = args
    chunk = max(1, CHUNK_FLOATS // (inst.n * inst.d))
    runs = stop - start
    out = RunStats(np.arange(start, stop), np.empty(runs), np.empty(runs, dtype=int),
                   np.empty(runs), np.empty((runs, inst.n)))
    for lo in range(0, runs, chunk):
        rows = slice(lo, lo + chunk)
        signs, when = _walk_rows(inst, _stream_uniforms(master_seed, out.run_index[rows], inst.n))
        out.signs[rows] = signs
        # the stacked product makes each run's own matrix-vector call (as in
        # ``enumeration.leaf_margins``), so every discrepancy keeps its bits
        out.discrepancy[rows] = np.abs(np.matmul(inst.matrix, signs[:, :, None])).max(axis=(1, 2))
        first, seq = distinct_rows(when)
        dec = decompose_stack(inst, when[first])
        out.max_proxy[rows] = basis_variance_proxies(inst, dec).max(axis=1)[seq]
        out.block_count[rows] = dec.total_nontrivial[seq]
    return out


def run_experiment(inst: Instance, runs: int, master_seed: int,
                   workers: int = 1) -> RunStats:
    """Independent seeded walk runs, sorted by index, on <= usable_cores() processes;
    at most 2**32 runs, so that every run index is one 32-bit stream key."""
    if not 1 <= runs <= 2**32:
        raise ParameterError(f"runs must be in [1, 2**32], got {runs}")
    if master_seed < 0:
        raise ParameterError(f"master seed must be >= 0, got {master_seed}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, usable_cores())
    if workers <= 1 or runs < 4 * workers:
        return _run_range((inst, master_seed, 0, runs))
    bounds = np.linspace(0, runs, workers + 1).astype(int)
    chunks = [(inst, master_seed, int(a), int(b))
              for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map keeps the order of the chunks, which are in index order
        parts = [vars(p).values() for p in pool.map(_run_range, chunks)]
    return RunStats(*map(np.concatenate, zip(*parts)))


def estimate_bound(stats: RunStats) -> tuple[float, bool]:
    """Plug sample means into the existence bound; existence holds when the
    minimum observed discrepancy does not exceed it.

    Each run's proxies satisfy Z_{e_i} <= ||e_i||^2 = 1, so a mean max proxy
    above 1 is roundoff while within ``PROXY_SLACK`` and is taken as 1;
    beyond the slack the runs violate the bound and a
    ``ContractViolationError`` is raised.  A mean block count below 1 is
    taken as 1, which is exact: with ln E T <= 0 the max(1, .) in the bound
    is 1 either way.
    """
    if not stats.run_index.size:
        raise ParameterError("no run statistics")
    mean_max = float(np.mean(stats.max_proxy))
    if mean_max > 1.0 + PROXY_SLACK:
        raise ContractViolationError(
            f"mean max variance proxy {mean_max!r} exceeds ||e_i||^2 = 1")
    mean_blocks = float(np.mean(stats.block_count))
    bound = theorem1_bound(BoundInputs(mean_max_proxy=min(mean_max, 1.0),
                                       mean_block_count=max(mean_blocks, 1.0)))
    return bound, bool(stats.discrepancy.min() <= bound)


def empirical_tail(inst: Instance, stats: RunStats, coord: int,
                   c_grid) -> list[dict]:
    """Exceedance fractions of |<M X, e_coord>| against the 2 exp(-c^2/2) bound;
    stacked (1, n) by (n, 1) products keep each run's own dot product bits."""
    margins = np.abs(np.matmul(stats.signs[:, None, :], inst.matrix[coord][:, None]))[:, 0, 0]
    return [{"c": float(c),
             "empirical": float(np.mean(margins > c)),
             "bound": 2.0 * math.exp(-c * c / 2.0)} for c in c_grid]


def write_report(report: ExperimentReport, path, fmt: str = "json",
                 stats: RunStats | None = None) -> None:
    """Write the aggregate JSON report or the per-run CSV (requires stats)."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        if stats is None:
            raise ParameterError("csv format needs the per-run statistics")
        text = stats_to_csv(stats)
    else:
        raise ParameterError(f"unknown report format {fmt!r}")
    write_text(path, text)


def report_to_json(report: ExperimentReport) -> str:
    """The report as JSON; field order is the dataclass's, as in FORMATS.md."""
    return json_text(asdict(report))


def stats_to_csv(stats: RunStats) -> str:
    tokens = np.where(stats.signs > 0, "+1", "-1")      # (R, n), viewed as R strings
    rows = zip(stats.run_index.tolist(), stats.discrepancy.tolist(), stats.block_count.tolist(),
               stats.max_proxy.tolist(), tokens.view(f"<U{2 * tokens.shape[1]}")[:, 0].tolist())
    return "".join([CSV_HEADER + "\n"] + [f"{i},{disc!r},{b},{z!r},{x}\n"
                                          for i, disc, b, z, x in rows])


def parse_csv(text: str) -> RunStats:
    """The columns of a per-run CSV of one or more rows, each with a run index
    above the last row's (or >= 0), a finite discrepancy >= 0, hatT >= 0, maxZ
    in [0, 1 + PROXY_SLACK] and the first row's count of +1/-1 tokens."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ReportFormatError("neither a JSON report nor a per-run CSV with header "
                                f"{CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        try:
            idx, disc, blocks, maxz, x = line.split(",")
            signs = [SIGN_TOKENS[x[i:i + 2]] for i in range(0, len(x), 2)]
            row = int(idx), float(disc), int(blocks), float(maxz), signs
            last, n = (rows[-1][0], len(rows[0][4])) if rows else (-1, len(signs))
            if not (last < row[0] and 0 <= row[1] < math.inf and row[2] >= 0
                    and 0 <= row[3] <= 1.0 + PROXY_SLACK and 0 < len(signs) == n):
                raise ValueError
        except (ValueError, KeyError):
            raise ReportFormatError(f"malformed CSV row {line!r}") from None
        rows.append(row)
    if not rows:
        raise ReportFormatError("CSV report has no run rows")
    return RunStats(*map(np.array, zip(*rows)))


def build_report(inst: Instance, instance_desc: dict, stats: RunStats,
                 master_seed: int) -> ExperimentReport:
    """Aggregate per-run statistics into the report structure."""
    blocks, maxz, disc = stats.block_count, stats.max_proxy, stats.discrepancy
    runs = stats.run_index.size
    bound, _ = estimate_bound(stats)
    tail = empirical_tail(inst, stats, TAIL_COORD, TAIL_GRID)
    opt = brute_force_min_discrepancy(inst)[0] if inst.n <= 20 else None
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
