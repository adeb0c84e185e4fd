"""Functions that only the tests read, kept out of the package's source."""
import os
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from gswalk.enumeration import Leaf
from gswalk.exceptions import ContractViolationError
from gswalk.inequalities import _check_exponent, two_point_moment
from gswalk.instances import Instance
from gswalk.ortho import ZERO_RESIDUAL_RTOL, OrthoDecomposition
from gswalk.walk import WalkTrace


def counting_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to record, in the calling process, each child's pid."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def replay(trace: WalkTrace) -> np.ndarray:
    """The coloring the trace's steps reach from zero."""
    x = np.zeros(len(trace.final_x))
    for rec in trace.steps:
        x = x + rec.chosen_delta * rec.u
    return x


def choices(leaf: Leaf) -> tuple[bool, ...]:
    """True where the leaf's path took the + endpoint."""
    return tuple(rec.chosen_delta > 0 for rec in leaf.trace.steps)


def freeze_row(trace: WalkTrace) -> np.ndarray:
    """The step at which each coordinate froze."""
    when = np.zeros(len(trace.final_x), dtype=int)
    for rec in trace.steps:
        when[rec.frozen] = rec.t
    return when


def project_pivot(ortho: OrthoDecomposition, pivot: int, v) -> np.ndarray:
    """Orthogonal projection of v onto the subspace of the pivot's blocks,
    the positions of its phase."""
    w = ortho.directions[ortho.pivot == pivot]
    if not len(w):
        raise ContractViolationError(f"index {pivot} never became pivot")
    return (w @ np.asarray(v, float)) @ w


def lemma1_gap(x, a, b):
    """Gap of the two-point moment-ratio bound, for x in [-1,1].

    With A(s) the mean-zero two-point moment at s (``two_point_moment``),
    returns exp(|a||b| + b^2/2) - A(a+b)/A(a).
    The ratio form is the inductive step the bound rests on; at b = 0 both
    sides are 1, and at x = a = 0 the ratio is cosh(b).  Nonnegative up to
    roundoff.  Accepts scalars or broadcasting arrays.
    """
    x = np.asarray(x, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    _check_exponent(a, b)
    lhs = np.exp(np.abs(a) * np.abs(b) + 0.5 * b * b)
    out = lhs - two_point_moment(x, a + b) / two_point_moment(x, a)
    return float(out) if out.ndim == 0 else out


@dataclass
class ReferenceDecomposition:
    """One freeze sequence's decomposition as the per-sequence builder held it."""
    order: np.ndarray                   # order[r] = column index at position r
    position: np.ndarray                # inverse of order
    directions: np.ndarray = field(repr=False)  # (n, d); row r unit vector or 0
    pivot_phases: list[tuple[int, int]]  # (pivot, start step), in pivot order
    blocks: dict[tuple[int, int], tuple[int, ...]]  # (pivot, step) -> positions
    block_counts: dict[int, int]        # pivot -> nontrivial block count
    total_nontrivial: int               # sum of block_counts


def reference_gram_schmidt(inst: Instance, order: np.ndarray) -> np.ndarray:
    """Orthonormal residual directions of the columns taken in position order,
    one column at a time; zero where the residual falls below
    ``ZERO_RESIDUAL_RTOL`` relative to the column norm, and zero once d rows
    are nonzero."""
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
    return (np.linalg.norm(directions, axis=1) > 0.5).tolist()


def reference_decomposition(inst: Instance, when: np.ndarray) -> ReferenceDecomposition:
    """Per-sequence reference for ``ortho.decompose_stack``: a groupby over the
    steps hands out positions from the top down, each pivot's singleton block
    ``(pivot, start step - 1)`` first, then the rest of each step, largest
    index first, as block ``(pivot, step)``."""
    n = inst.n
    w = when.tolist()
    placed: list[int] = []          # columns in decreasing position order
    blocks: dict[tuple[int, int], tuple[int, ...]] = {}
    phases: list[tuple[int, int]] = []
    pivot = n - 1
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
    directions = reference_gram_schmidt(inst, order)
    nonzero = _nonzero_rows(directions)
    counts = {p: 0 for p, _ in phases}
    for (p, _), q in blocks.items():
        counts[p] += any(nonzero[q[-1]:q[0] + 1])
    return ReferenceDecomposition(order=order, position=position,
                                  directions=directions, pivot_phases=phases,
                                  blocks=blocks, block_counts=counts,
                                  total_nontrivial=sum(counts.values()))


def reference_proxies(inst: Instance, ref: ReferenceDecomposition,
                      vs: np.ndarray) -> np.ndarray:
    """Per-sequence reference for ``ortho.variance_proxy_batch``: per pivot,
    its blocks' absolute inner products summed block by block, each block in
    stored (decreasing) position order, then squared and added up."""
    beta = ref.directions @ vs          # (n, m)
    nonzero = _nonzero_rows(ref.directions)
    out = np.zeros(vs.shape[1])
    for p, group in groupby(ref.blocks.items(), key=lambda item: item[0][0]):
        live = [q for _, q in group if any(nonzero[q[-1]:q[0] + 1])]
        if not live:
            continue
        alpha = ref.directions @ inst.matrix[:, p]
        acc = np.zeros_like(out)
        for q in live:
            idx = list(q)
            acc += np.abs(alpha[idx] @ beta[idx])
        out += acc ** 2
    return out
