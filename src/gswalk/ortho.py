"""Post-hoc orthogonal decomposition of walks.

From the step at which each coordinate froze we rebuild the freeze ordering
of the coordinates, the Gram-Schmidt directions of the columns taken in that
order, the per-pivot partition of positions into freeze blocks, the count of
nontrivial blocks, and the per-direction variance proxy that drives the
concentration bound, for a stack of walks at once.

Positions and column indices are 0-based throughout; step numbers are 1-based
as recorded in the trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import ContractViolationError
from .instances import Instance
from .walk import WalkTrace

ZERO_RESIDUAL_RTOL = 1e-10


@dataclass
class OrthoDecomposition:
    """The decompositions of K walks, indexed (walk, position); indexed by
    one walk, that walk's alone.  Position r holds column ``order[r]`` and
    its direction, a unit vector where ``nonzero[r]`` and 0 elsewhere, in
    block (``pivot[r]``, ``block[r]``): (pivot, its phase's start step - 1)
    at a pivot's own position, else (pivot, the step that froze it).  Blocks
    and phases are runs of positions; ``run[r]`` numbers the walk's blocks
    from 0 at the top."""
    order: np.ndarray                   # (K, n)
    directions: np.ndarray = field(repr=False)  # (K, n, d)
    pivot: np.ndarray                   # (K, n)
    block: np.ndarray                   # (K, n)
    run: np.ndarray                     # (K, n)
    nonzero: np.ndarray                 # (K, n)
    total_nontrivial: np.ndarray        # (K,) blocks holding a nonzero direction

    @property
    def position(self) -> np.ndarray:
        """Inverse of ``order``."""
        return np.argsort(self.order, axis=-1)

    def __getitem__(self, k: int) -> OrthoDecomposition:
        return OrthoDecomposition(*(getattr(self, f.name)[k] for f in fields(self)))


def decompose(inst: Instance, trace: WalkTrace) -> OrthoDecomposition:
    """Full decomposition of a trace: a ``decompose_stack`` of one, from the
    step at which each coordinate froze.  Raises ``ContractViolationError``
    unless the steps are numbered 1, 2, ..., their frozen sets partition [n]
    and each step's pivot is the largest coordinate still active."""
    steps = [rec.t for rec in trace.steps]
    if steps != list(range(1, len(steps) + 1)):
        raise ContractViolationError("steps of the trace are not numbered 1, 2, ...")
    froze = sorted((j, rec.t) for rec in trace.steps for j in rec.frozen)
    if [j for j, _ in froze] != list(range(inst.n)):
        raise ContractViolationError("frozen sets of the trace do not partition [n]")
    when = np.array([t for _, t in froze])
    active = when >= np.arange(1, len(steps) + 1)[:, None]
    pivots = np.where(active.any(axis=1), inst.n - 1 - active[:, ::-1].argmax(axis=1), -1)
    if pivots.tolist() != [rec.pivot for rec in trace.steps]:
        raise ContractViolationError("a step's pivot is not its largest active coordinate")
    return decompose_stack(inst, when[None])[0]


def decompose_stack(inst: Instance, when: np.ndarray) -> OrthoDecomposition:
    """Decompositions of K walks from their freeze rows ``when`` (K, n).

    The pivot of step t is the largest coordinate frozen at t or later, so a
    coordinate leads a phase from the step after every larger one froze.
    Positions go out top down, step by step: a phase's pivot, then the rest
    of the step, largest index first.  Gram-Schmidt runs over positions from
    the bottom for all walks at once, as stacked matmul items of one-walk
    shapes, so no row's bits depend on the rest of the stack.  A residual
    below ``ZERO_RESIDUAL_RTOL`` times its column's norm is zeroed, and a
    walk with d nonzero rows takes no more (later residuals are roundoff).
    """
    when = np.asarray(when, dtype=np.int64)
    count, n = when.shape
    later = np.zeros_like(when)         # last step at which a larger coordinate froze
    later[:, :-1] = np.maximum.accumulate(when[:, :0:-1], axis=1)[:, ::-1]
    leads = when > later
    step = np.where(leads, later + 1, when)     # the step that places each coordinate
    placed = np.argsort((2 * step + ~leads) * n - np.arange(n), axis=1)   # top down
    opens = np.take_along_axis(leads, placed, 1)    # phase tops, top down
    head = np.maximum.accumulate(np.where(opens, np.arange(n), 0), axis=1)
    order = placed[:, ::-1]
    pivot = np.take_along_axis(placed, head, 1)[:, ::-1]
    block = np.take_along_axis(step - leads, order, 1)
    opens |= np.diff(block[:, ::-1], prepend=-1) != 0       # block tops
    run = np.cumsum(opens, axis=1)[:, ::-1] - 1

    cols = np.ascontiguousarray(inst.matrix.T)
    scale = np.sqrt(np.matmul(cols[:, None, :], cols[:, :, None])[:, 0, 0])
    directions = np.zeros((count, n, inst.d))
    rank = np.zeros(count, dtype=int)
    for r in range(n):
        live = np.flatnonzero(rank < inst.d)
        if not live.size:
            break
        col = order[live, r]
        v = cols[col]
        w = directions[live, :r]
        for _ in range(2):                  # twice, for numerical orthogonality
            v -= np.matmul(w.transpose(0, 2, 1), np.matmul(w, v[:, :, None]))[:, :, 0]
        nrm = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
        keep = (scale[col] > 0) & (nrm > ZERO_RESIDUAL_RTOL * scale[col])
        hit = live[keep]
        directions[hit, r] = v[keep] / nrm[keep, None]
        rank[hit] += 1

    nonzero = directions.any(axis=2)
    k = np.nonzero(nonzero)[0]          # a block's nonzero positions are adjacent
    opens = np.diff(k * n + run[nonzero], prepend=-1) != 0
    return OrthoDecomposition(order, directions, pivot, block, run, nonzero,
                              total_nontrivial=np.bincount(k[opens], minlength=count))


def variance_proxy(inst: Instance, ortho: OrthoDecomposition, v) -> float:
    """The path-dependent proxy controlling the subgaussian bound along v.

    Per pivot, sums over its freeze blocks the absolute block inner products
    of the pivot column and v against the orthogonal directions, then squares
    and adds up.  Always in [0, ||v||^2].
    """
    return float(variance_proxy_batch(inst, ortho, np.asarray(v, float)[:, None])[0])


def variance_proxy_batch(inst: Instance, ortho: OrthoDecomposition,
                         vs: np.ndarray) -> np.ndarray:
    """Proxies for the columns of ``vs`` (d, m): (K, m) for a stack, (m,)
    for one walk.  A block of zero directions adds an exact 0 and is skipped;
    each other block is summed in stored (decreasing) position order as one
    matmul item, from products over every position, all in the shapes of a
    one-walk loop (a product over the read positions alone rounds otherwise).
    """
    n, m = inst.n, vs.shape[1]
    directions = ortho.directions.reshape(-1, n, inst.d)
    beta = np.matmul(directions, vs)    # (K, n, m)
    # every position, top down; a key names one block of one walk
    pivot, run, nonzero = (np.reshape(a, (-1, n))[:, ::-1].ravel()
                           for a in (ortho.pivot, ortho.run, ortho.nonzero))
    key = np.arange(len(run)) // n * n + run
    entry = np.flatnonzero(np.bincount(key[nonzero], minlength=len(key))[key])
    k, r = entry // n, n - 1 - entry % n
    first = np.flatnonzero(np.diff(key[entry], prepend=-1))     # each block's top
    owner = np.cumsum(np.diff(k * n - pivot[entry], prepend=-n) != 0) - 1   # its phase
    head = np.flatnonzero(np.diff(owner, prepend=-1))           # each phase's top
    # alpha = directions @ pivot column per live phase, broadcast over (walk, slot)
    walk = k[head]
    slot = np.arange(len(head)) - np.searchsorted(walk, walk)
    grid = np.zeros((len(directions), slot.max(initial=0) + 1), dtype=int)
    grid[walk, slot] = pivot[entry[head]]
    alpha = np.matmul(directions[:, None], inst.matrix.T[grid][..., None])[walk, slot, :, 0]
    length = np.diff(first, append=len(entry))
    sums = np.empty((len(first), m))
    for size in np.flatnonzero(np.bincount(length)).tolist():
        sel = np.flatnonzero(length == size)
        idx = first[sel][:, None] + np.arange(size)
        sums[sel] = np.matmul(alpha[owner[idx], r[idx]][:, None, :],
                              beta[k[idx], r[idx]])[:, 0]
    acc = np.zeros((len(head), m))
    np.add.at(acc, owner[first], np.abs(sums))
    out = np.zeros((len(directions), m))
    np.add.at(out, walk, acc ** 2)
    return out.reshape(np.shape(ortho.total_nontrivial) + (m,))


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
    position = ortho.position
    for rec in trace.steps:
        w = ortho.directions[remaining - 1:position[rec.pivot] + 1]
        approx = (w @ inst.matrix[:, rec.pivot]) @ w
        worst = max(worst, float(np.linalg.norm(inst.matrix @ rec.u - approx)))
        remaining -= len(rec.frozen)
    return worst
