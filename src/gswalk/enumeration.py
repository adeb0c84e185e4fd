"""Exact small-instance oracle.

Expands the full decision tree of the walk, one branch per endpoint choice,
multiplying branch probabilities.  The leaf law is held as columns: the exact
probability and sign outcome of each leaf and the id of its freeze sequence.
A decomposition depends only on the freeze sequence, so one is built per id,
on first read.  Per-leaf views with the trace of each path are built on first
read of ``leaves``, so expectations of any path functional can be computed
without sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .exceptions import DimensionError, DomainOverflowError
from .instances import Instance
from .ortho import OrthoDecomposition, decompose, variance_proxy
from .walk import Node, StepRecord, WalkState, WalkTrace, expand_node

PRUNE_TOL = 1e-15                   # branches below this mass are dropped
DEPTH_CAP = 16                      # largest n enumerated (up to 2^n leaves)
MGF_EXP_LIMIT = 600.0


@dataclass(eq=False)
class LeafDistribution:
    """The exact leaf law of one enumeration of ``inst``, held as columns.

    Leaves are in depth-first order with the + branch first, so the leaves
    below any node form a contiguous run.  Leaf i has mass
    ``probabilities[i]``, outcome ``signs[i]`` and freeze sequence
    ``freeze_ids[i]``: ids number the distinct sequences of (pivot, frozen
    set) per step in order of first appearance.  ``nodes`` lists the internal
    nodes in preorder as (lo, hi, pivot, z): leaves lo..hi-1 lie below the
    node (none when every branch below was pruned), and z is the pivot's
    coordinate in the coloring the node's prefix reaches.
    """
    inst: Instance = field(repr=False)
    probabilities: np.ndarray       # (m,)
    signs: np.ndarray               # (m, n)
    freeze_ids: np.ndarray          # (m,)
    nodes: list[tuple[int, int, int, float]] = field(repr=False)
    paths: list[list[StepRecord]] = field(repr=False)   # each leaf's steps
    first_leaf: list[int] = field(repr=False)           # per freeze id
    pruned_mass: float = 0.0

    def __post_init__(self):
        self._decompositions: list = [None] * len(self.first_leaf)     # per freeze id

    @property
    def d(self) -> int:
        return self.inst.d

    @property
    def n(self) -> int:
        return self.inst.n

    def decomposition(self, freeze_id: int) -> OrthoDecomposition:
        """The decomposition shared by every leaf with this freeze sequence,
        built on first request from the first such leaf's trace.  Its steps
        have the same pivots and frozen sets, all that ``decompose`` reads
        besides n and the step numbers."""
        dec = self._decompositions[freeze_id]
        if dec is None:
            dec = self._decompositions[freeze_id] = decompose(
                self.inst, self.trace(self.first_leaf[freeze_id]))
        return dec

    def trace(self, i: int) -> WalkTrace:
        return WalkTrace(steps=self.paths[i], final_x=self.signs[i])

    @cached_property
    def leaves(self) -> list[Leaf]:
        return [Leaf(self, i) for i in range(len(self.paths))]


@dataclass(eq=False)
class Leaf:
    """Leaf ``index`` of ``law``: a view of its columns, with its trace."""
    law: LeafDistribution = field(repr=False)
    index: int

    @property
    def probability(self) -> float:
        return float(self.law.probabilities[self.index])

    @property
    def signs(self) -> np.ndarray:
        return self.law.signs[self.index]

    @property
    def choices(self) -> tuple[bool, ...]:
        """True where the + endpoint was taken."""
        return tuple(rec.chosen_delta > 0 for rec in self.law.paths[self.index])

    @cached_property
    def trace(self) -> WalkTrace:
        return self.law.trace(self.index)

    @property
    def ortho(self) -> OrthoDecomposition:
        return self.law.decomposition(int(self.law.freeze_ids[self.index]))


def enumerate_walk(inst: Instance) -> LeafDistribution:
    """All walk outcomes with exact probabilities; + branch expanded first.

    Each active set's direction is solved once per call; ``DEPTH_CAP`` bounds
    the table to 2^n directions.
    """
    if inst.n > DEPTH_CAP:
        raise DimensionError(
            f"enumeration refused: n={inst.n} exceeds depth cap {DEPTH_CAP} "
            f"(up to 2^n leaves)")
    probabilities: list[float] = []
    signs: list[np.ndarray] = []
    freeze_ids: list[int] = []
    paths: list[list[StepRecord]] = []
    first_leaf: list[int] = []
    sequences: dict[tuple, int] = {}    # freeze sequence -> id
    nodes: list = []
    directions: dict = {}
    pruned = 0.0

    def descend(node: Node, steps: list[StepRecord], prob: float, key: tuple):
        nonlocal pruned
        if node.u is None:
            fid = sequences.setdefault(key, len(sequences))
            if fid == len(first_leaf):
                first_leaf.append(len(paths))
            probabilities.append(prob)
            signs.append(node.state.x)
            freeze_ids.append(fid)
            paths.append(steps)
            return
        row = len(nodes)
        nodes.append(None)
        lo = len(paths)
        for take_plus in (True, False):
            # The - branch multiplies 1 - p_plus, not the record's dp/(dm+dp):
            # they can differ in the last bit, and leaf masses feed the
            # byte-stable smoothed report.
            p_branch = prob * (node.p_plus if take_plus else 1.0 - node.p_plus)
            if p_branch < PRUNE_TOL:
                pruned += p_branch
                continue
            state, rec = node.step(take_plus)
            descend(expand_node(inst, state, directions=directions), steps + [rec],
                    p_branch, key + ((rec.pivot, *rec.frozen),))
        pivot = node.state.pivot
        nodes[row] = (lo, len(paths), pivot, float(node.state.x[pivot]))

    descend(expand_node(inst, WalkState.initial(inst.n), directions=directions),
            [], 1.0, ())
    return LeafDistribution(inst=inst, probabilities=np.array(probabilities),
                            signs=np.array(signs), freeze_ids=np.array(freeze_ids),
                            nodes=nodes, paths=paths, first_leaf=first_leaf,
                            pruned_mass=pruned)


def _expectation(dist: LeafDistribution, values) -> float:
    """Sum of p * value over the leaves (``values`` aligned with them), added
    left to right in decreasing-probability order, ties in leaf order."""
    order = np.argsort(-dist.probabilities, kind="stable")
    terms = dist.probabilities[order] * np.asarray(values, float)[order]
    return float(sum(terms.tolist()))


def exact_expectation(dist: LeafDistribution, f) -> float:
    """Sum of p(leaf) * f(leaf), accumulated in decreasing-probability order."""
    return _expectation(dist, [f(lf) for lf in dist.leaves])


def leaf_margins(dist: LeafDistribution, inst: Instance, v) -> np.ndarray:
    """<M x, v> for each leaf outcome x.

    The stacked products make, per leaf, the BLAS calls of ``M @ x @ v`` (a
    matrix-vector product, then a dot), so every value keeps its per-leaf bits.
    """
    mx = np.matmul(inst.matrix, dist.signs[:, :, None])             # (m, d, 1)
    return np.matmul(mx.transpose(0, 2, 1), np.asarray(v, float)[:, None])[:, 0, 0]


def verify_martingale(dist: LeafDistribution, inst: Instance, v) -> float:
    """|E <M X, v>| over the exact leaf law; zero for the mean-zero walk."""
    return abs(_expectation(dist, leaf_margins(dist, inst, v)))


def verify_subgaussian(dist: LeafDistribution, inst: Instance, v,
                       lam: float) -> float:
    """E exp(lam <M X, v> - lam^2 Z/2) with each leaf's own proxy Z.

    Z is computed once per freeze sequence; the leaves that share one share
    its decomposition, hence their proxy.
    """
    v = np.asarray(v, float)
    proxies = np.array([variance_proxy(inst, dist.decomposition(k), v)
                        for k in range(len(dist.first_leaf))])
    args = lam * leaf_margins(dist, inst, v) - 0.5 * lam * lam * proxies[dist.freeze_ids]
    wild = np.flatnonzero(np.abs(args) > MGF_EXP_LIMIT)
    if wild.size:
        # report the leaf of largest probability, first in leaf order
        arg = args[wild[np.argmax(dist.probabilities[wild])]]
        raise DomainOverflowError(f"mgf exponent {arg:.3g} out of range")
    return _expectation(dist, [math.exp(a) for a in args.tolist()])


def conditional_increment_check(dist: LeafDistribution) -> float:
    """Max deviation of node-level pivot movement laws from the two-point form.

    At every internal node the pivot's remaining total movement must equal
    +1-z or -1-z (z its current fractional value) with probabilities (1+z)/2
    and (1-z)/2; both the probability masses and the conditional mean are
    checked.  Each node sums the probabilities of its run of leaves in leaf
    order; a node whose leaves were all pruned is skipped.
    """
    probs = dist.probabilities.tolist()
    worst = 0.0
    for lo, hi, pivot, z in dist.nodes:
        if lo == hi:
            continue
        run = probs[lo:hi]
        total = sum(run)
        plus = sum(compress(run, (dist.signs[lo:hi, pivot] > 0).tolist()))
        p_plus = plus / total
        worst = max(worst, abs(p_plus - (1.0 + z) / 2.0))
        mean_move = p_plus * (1.0 - z) + (1.0 - p_plus) * (-1.0 - z)
        worst = max(worst, abs(mean_move))
    return worst


def brute_force_min_discrepancy(inst: Instance) -> tuple[float, np.ndarray]:
    """Minimum over all 2^n sign vectors of ||M x||_inf, with the
    lexicographically smallest minimizer (-1 before +1)."""
    n = inst.n
    if n > 20:
        raise DimensionError(f"brute force refused for n={n} > 20")
    best_val = math.inf
    best_idx = -1
    shifts = n - 1 - np.arange(n)       # coordinate 0 is the most significant bit
    chunk = 1 << 14
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n))
        signs = (((idx[:, None] >> shifts[None, :]) & 1) * 2 - 1).astype(float)
        disc = np.abs(inst.matrix @ signs.T).max(axis=0)
        j = int(disc.argmin())
        # ties resolve to the smallest index, which is the lexicographic minimum
        if disc[j] < best_val:
            best_val = float(disc[j])
            best_idx = int(idx[j])
    signs = ((best_idx >> shifts) & 1) * 2.0 - 1.0
    return best_val, signs
