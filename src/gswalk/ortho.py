"""Post-hoc orthogonal decomposition of a walk.

From the step at which each coordinate froze we rebuild the freeze ordering
of the coordinates, the Gram-Schmidt directions of the columns taken in that
order, the per-pivot partition of positions into freeze blocks, the count of
nontrivial blocks, and the per-direction variance proxy that drives the
concentration bound.

Positions and column indices are 0-based throughout; step numbers are 1-based
as recorded in the trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .exceptions import ContractViolationError
from .instances import Instance
from .walk import WalkTrace

ZERO_RESIDUAL_RTOL = 1e-10


@dataclass
class OrthoDecomposition:
    order: np.ndarray                   # order[r] = column index at position r
    position: np.ndarray                # inverse of order
    directions: np.ndarray = field(repr=False)  # (n, d); row r unit vector or 0
    pivot_phases: list[tuple[int, int]]  # (pivot, start step), in pivot order
    blocks: dict[tuple[int, int], tuple[int, ...]]  # (pivot, step) -> positions
    block_counts: dict[int, int]        # pivot -> nontrivial block count
    total_nontrivial: int               # sum of block_counts


def gram_schmidt_sequence(inst: Instance, order: np.ndarray) -> np.ndarray:
    """Orthonormal residual directions of the columns taken in position order.

    Row r is the normalized residual of column order[r] against the span of the
    earlier columns, or exactly zero when the residual norm falls below
    ``ZERO_RESIDUAL_RTOL`` relative to the column norm.  Once d rows are
    nonzero they span R^d, every later residual is roundoff that this rule
    zeroes, and the loop stops.
    """
    n = inst.n
    w = np.zeros((n, inst.d))
    rank = 0
    for r in range(n):
        if rank == inst.d:
            break
        v = inst.matrix[:, order[r]].copy()
        scale = np.linalg.norm(v)
        if r:
            v -= w[:r].T @ (w[:r] @ v)
            # second pass for numerical orthogonality
            v -= w[:r].T @ (w[:r] @ v)
        nrm = np.linalg.norm(v)
        if scale > 0 and nrm > ZERO_RESIDUAL_RTOL * scale:
            w[r] = v / nrm
            rank += 1
    return w


def _nonzero_rows(directions: np.ndarray) -> list[bool]:
    """Which rows of ``directions`` are unit vectors (the rest are exactly 0)."""
    return (np.linalg.norm(directions, axis=1) > 0.5).tolist()


def decompose(inst: Instance, trace: WalkTrace) -> OrthoDecomposition:
    """Full decomposition of a trace: ``decompose_freezes`` of the step at
    which each coordinate froze.  Raises ``ContractViolationError`` unless
    the steps are numbered 1, 2, ..., their frozen sets partition [n] and
    each step's pivot is the largest coordinate still active."""
    steps = [rec.t for rec in trace.steps]
    if steps != list(range(1, len(steps) + 1)):
        raise ContractViolationError("steps of the trace are not numbered 1, 2, ...")
    froze = sorted((j, rec.t) for rec in trace.steps for j in rec.frozen)
    if [j for j, _ in froze] != list(range(inst.n)):
        raise ContractViolationError("frozen sets of the trace do not partition [n]")
    dec = decompose_freezes(inst, np.array([t for _, t in froze]))
    pivots, starts = zip(*dec.pivot_phases)
    derived = np.array(pivots)[np.searchsorted(starts, steps, side="right") - 1]
    if derived.tolist() != [rec.pivot for rec in trace.steps]:
        raise ContractViolationError("a step's pivot is not its largest active coordinate")
    return dec


def decompose_freezes(inst: Instance, when: np.ndarray) -> OrthoDecomposition:
    """Full decomposition of a walk from ``when[i]``, the step at which
    coordinate i froze, and nothing else; the pivot of step t, the largest
    coordinate still active, is the largest one frozen at t or later.

    Positions are handed out from the top down.  Each pivot takes the next
    free position when its phase starts, keyed as its own singleton block
    ``(pivot, start step - 1)``; the other coordinates a step freezes take the
    next positions, largest index first, as block ``(pivot, step)``.  So every
    block, and every pivot's phase, is a contiguous run of positions, and the
    blocks of one pivot are adjacent in ``blocks``.  Blocks whose positions
    all carry a zero residual direction add no orthogonal vector and are not
    counted as nontrivial.
    """
    n = inst.n
    w = when.tolist()
    placed: list[int] = []          # columns in decreasing position order
    blocks: dict[tuple[int, int], tuple[int, ...]] = {}
    phases: list[tuple[int, int]] = []
    pivot = n - 1
    # the coordinates step by step, largest index first
    for t, frozen in groupby(sorted(range(n), key=lambda i: (w[i], -i)), key=w.__getitem__):
        while w[pivot] < t:         # down to the largest coordinate still active
            pivot -= 1
        if not phases or phases[-1][0] != pivot:
            phases.append((pivot, t))
            blocks[(pivot, t - 1)] = (n - 1 - len(placed),)
            placed.append(pivot)
        others = [j for j in frozen if j != pivot]
        if others:
            top = n - 1 - len(placed)
            blocks[(pivot, t)] = tuple(range(top, top - len(others), -1))
            placed += others
    order = np.array(placed[::-1], dtype=int)
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    directions = gram_schmidt_sequence(inst, order)
    nonzero = _nonzero_rows(directions)
    counts = {p: 0 for p, _ in phases}
    for (p, _), q in blocks.items():
        counts[p] += any(nonzero[q[-1]:q[0] + 1])
    return OrthoDecomposition(order=order, position=position,
                              directions=directions, pivot_phases=phases,
                              blocks=blocks, block_counts=counts,
                              total_nontrivial=sum(counts.values()))


def variance_proxy(inst: Instance, ortho: OrthoDecomposition, v) -> float:
    """The path-dependent proxy controlling the subgaussian bound along v.

    Per pivot, sums over its freeze blocks the absolute block inner products
    of the pivot column and v against the orthogonal directions, then squares
    and adds up.  Always in [0, ||v||^2].
    """
    return float(variance_proxy_batch(inst, ortho, np.asarray(v, float)[:, None])[0])


def variance_proxy_batch(inst: Instance, ortho: OrthoDecomposition,
                         vs: np.ndarray) -> np.ndarray:
    """Vectorized proxy for the columns of ``vs`` (shape (d, m))."""
    beta = ortho.directions @ vs          # (n, m)
    nonzero = _nonzero_rows(ortho.directions)
    out = np.zeros(vs.shape[1])
    # each pivot's blocks are adjacent in ``blocks``, in phase order
    for p, group in groupby(ortho.blocks.items(), key=lambda item: item[0][0]):
        # a block of zero directions adds an exact 0, and so does a pivot
        # left without blocks; skipping them changes no bit
        live = [q for _, q in group if any(nonzero[q[-1]:q[0] + 1])]
        if not live:
            continue
        alpha = ortho.directions @ inst.matrix[:, p]
        acc = np.zeros_like(out)
        for q in live:
            # stored (decreasing) position order: a forward slice would sum
            # the block in another order and change the last bit of Z
            idx = list(q)
            acc += np.abs(alpha[idx] @ beta[idx])
        out += acc ** 2
    return out


def basis_variance_proxies(inst: Instance, ortho: OrthoDecomposition) -> np.ndarray:
    """Proxies along all standard basis directions e_1..e_d at once."""
    return variance_proxy_batch(inst, ortho, np.eye(inst.d))


def direction_expansion_residual(inst: Instance, trace: WalkTrace,
                                 ortho: OrthoDecomposition) -> float:
    """Max over steps of ||M u_t - (its expansion in the orthogonal directions)||.

    At step t with a active coordinates and pivot at position g, the step
    direction image expands over positions a-1..g.  A small residual ties the
    executed walk to the reconstructed decomposition.
    """
    worst = 0.0
    remaining = inst.n
    for rec in trace.steps:
        w = ortho.directions[remaining - 1:ortho.position[rec.pivot] + 1]
        approx = (w @ inst.matrix[:, rec.pivot]) @ w
        worst = max(worst, float(np.linalg.norm(inst.matrix @ rec.u - approx)))
        remaining -= len(rec.frozen)
    return worst

