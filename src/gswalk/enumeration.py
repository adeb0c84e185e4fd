"""Exact small-instance oracle.

Expands the full decision tree of the walk, one branch per endpoint choice,
multiplying branch probabilities.  The tree is built one depth at a time:
a node's active set fixes its pivot and direction, so the active sets of a
depth go through one ``walk.stacked_directions`` call, which solves each
distinct set once, and every node of the depth then takes its step in one
numpy pass.  The leaf law is held as columns: the exact probability and
sign outcome of each leaf and the id of its freeze sequence, numbered by
``distinct_rows``.  A decomposition depends only on the freeze sequence, so
every id's is built on first read, in one stacked pass from the step at
which each coordinate froze.  A leaf's path is kept as its
code, and its trace replays the walk along it, so expectations of any path
functional can be computed without sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import walk
from .exceptions import ContractViolationError, DimensionError, DomainOverflowError
from .instances import EXP_LIMIT, Instance, distinct_rows, ordered_sum
from .ortho import OrthoDecomposition, decompose_stack, variance_proxy_batch
from .walk import WalkTrace

PRUNE_TOL = 1e-15                   # branches below this mass are dropped
DEPTH_CAP = 16                      # largest n enumerated (up to 2^n leaves)


@dataclass(eq=False)
class LeafDistribution:
    """The exact leaf law of one enumeration of ``inst``, held as columns.

    Leaves are in depth-first order with the + branch first, so the leaves
    below any node form a contiguous run.  Leaf i has mass
    ``probabilities[i]``, outcome ``signs[i]``, path code ``codes[i]``, whose
    bit n - t is 1 where step t took the - endpoint, and freeze sequence
    ``freeze_ids[i]``: ids number the distinct freeze sequences in order of
    first appearance, and ``when[k]`` holds, for sequence k, the step at
    which each coordinate froze.  ``nodes`` holds the internal nodes in
    preorder as columns (lo, hi, pivot, z): leaves lo..hi-1 lie below the
    node (none when every branch below was pruned), and z is the pivot's
    coordinate in the coloring the node's prefix reaches.
    """
    inst: Instance = field(repr=False)
    probabilities: np.ndarray       # (m,)
    signs: np.ndarray               # (m, n)
    codes: np.ndarray               # (m,)
    freeze_ids: np.ndarray          # (m,)
    nodes: tuple[np.ndarray, ...] = field(repr=False)   # (internal nodes,) each
    when: np.ndarray = field(repr=False)                # (freeze ids, n)
    pruned_mass: float = 0.0

    @property
    def n(self) -> int:
        return self.inst.n

    @cached_property
    def decompositions(self) -> OrthoDecomposition:
        """Every freeze sequence's decomposition, row k for id k."""
        return decompose_stack(self.inst, self.when)

    @cached_property
    def _rows(self) -> list[OrthoDecomposition]:
        return [self.decompositions[k] for k in range(len(self.when))]

    def decomposition(self, freeze_id: int) -> OrthoDecomposition:
        """The decomposition shared by every leaf with this freeze sequence."""
        return self._rows[freeze_id]

    def trace(self, i: int) -> WalkTrace:
        """Leaf i's path: the walk replayed on the draws of its code, 0.0
        for the + endpoint and 1.0 for the -."""
        code, n = int(self.codes[i]), self.n
        trace = walk.walk_path(self.inst, (float(code >> (n - t) & 1)
                                           for t in range(1, n + 1)))
        if trace.final_x.tobytes() != self.signs[i].tobytes():
            raise ContractViolationError(f"leaf {i}'s code does not replay to its signs")
        return trace

    @cached_property
    def leaves(self) -> list[Leaf]:
        return [Leaf(self, i) for i in range(len(self.probabilities))]


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

    @cached_property
    def trace(self) -> WalkTrace:
        return self.law.trace(self.index)

    @property
    def ortho(self) -> OrthoDecomposition:
        return self.law.decomposition(int(self.law.freeze_ids[self.index]))


def enumerate_walk(inst: Instance) -> LeafDistribution:
    """All walk outcomes with exact probabilities, leaves in depth-first
    order with the + branch first.

    The tree grows one depth at a time.  A node is a row: its coloring, its
    boolean active row, its mass, its path code and, per coordinate, the
    step that froze it (0 while active).  Path codes are left-aligned, the
    step into depth t in bit n - t and the + branch 0, so depth-first order
    is code order with each node before its + child.  The nodes of a depth
    get their directions from one ``walk.stacked_directions`` call and step
    in one pass.  ``DEPTH_CAP`` keeps codes within int64, steps within int8
    and the leaves to at most 2^n.
    """
    n = inst.n
    if n > DEPTH_CAP:
        raise DimensionError(
            f"enumeration refused: n={n} exceeds depth cap {DEPTH_CAP} "
            f"(up to 2^n leaves)")
    leaf_cols = []                      # per depth: code, mass, coloring, when
    node_cols = []                      # per depth: code, depth, pivot, z
    cut_cols = []                       # per depth: code, mass of pruned branches

    x = np.zeros((1, n))
    active = np.ones((1, n), dtype=bool)
    prob = np.ones(1)
    code = np.zeros(1, dtype=np.int64)
    when = np.zeros((1, n), dtype=np.int8)
    depth = 0
    while len(active):
        done = ~active.any(axis=1)
        leaves = np.flatnonzero(done)
        leaf_cols.append((code[leaves], prob[leaves], x[leaves], when[leaves]))
        rows = np.flatnonzero(~done)
        if not rows.size:
            break
        x, active, prob, code, when = x[rows], active[rows], prob[rows], code[rows], when[rows]
        pivot = n - 1 - active[:, ::-1].argmax(axis=1)
        node_cols.append((code, np.full(rows.size, depth), pivot, x[np.arange(rows.size), pivot]))
        u = walk.stacked_directions(inst, active)
        dm, dp = walk.feasible_interval(x, u)
        p_plus = dm / (dm + dp)
        # The candidate children: the + branch of every row, then the -
        # branch.  The - branch multiplies 1 - p_plus, not the record's
        # dp/(dm+dp): they can differ in the last bit, and leaf masses
        # feed the byte-stable smoothed report.
        mass = np.concatenate([prob * p_plus, prob * (1.0 - p_plus)])
        child_code = np.concatenate([code, code | 1 << (n - 1 - depth)])
        cut = mass < PRUNE_TOL
        cut_cols.append((child_code[cut], mass[cut]))
        take = np.flatnonzero(~cut)
        src, plus = take % rows.size, take < rows.size
        active = active[src]
        x, froze = walk.move(x[src], u[src], np.where(plus, dp[src], -dm[src])[:, None],
                             active)
        active ^= froze                 # froze lies within active
        when = when[src]
        when[froze] = depth + 1
        prob, code = mass[take], child_code[take]
        depth += 1

    leaf_code, probabilities, signs, leaf_when = (np.concatenate(c) for c in zip(*leaf_cols))
    order = np.argsort(leaf_code, kind="stable")
    leaf_code, leaf_when = leaf_code[order], leaf_when[order]
    first, freeze_ids = distinct_rows(leaf_when)
    node_code, node_depth, node_pivot, node_z = (np.concatenate(c) for c in zip(*node_cols))
    # nodes were collected depth by depth, so a node stays before its + child
    pre = np.argsort(node_code, kind="stable")
    lo = np.searchsorted(leaf_code, node_code[pre])
    hi = np.searchsorted(leaf_code, node_code[pre] + (1 << (n - node_depth[pre])))
    cut_code, cut_mass = (np.concatenate(c) for c in zip(*cut_cols))
    return LeafDistribution(
        inst=inst, probabilities=probabilities[order], signs=signs[order], codes=leaf_code,
        freeze_ids=freeze_ids, when=leaf_when[first],
        nodes=(lo, hi, node_pivot[pre], node_z[pre]),
        # in depth-first order, as the leaves
        pruned_mass=ordered_sum(cut_mass[np.argsort(cut_code, kind="stable")]))


def _expectation(dist: LeafDistribution, values) -> float:
    """Sum of p * value over the leaves (``values`` aligned with them), added
    left to right in decreasing-probability order, ties in leaf order."""
    order = np.argsort(-dist.probabilities, kind="stable")
    return ordered_sum(dist.probabilities[order] * np.asarray(values, float)[order])


def leaf_margins(dist: LeafDistribution, inst: Instance, v) -> np.ndarray:
    """<M x, v> for each leaf outcome x: each leaf's image, then its own dot
    with v, so every value has the bits of ``M @ x @ v``."""
    return np.matmul(inst.images(dist.signs)[:, None, :], np.asarray(v, float)[:, None])[:, 0, 0]


def verify_martingale(dist: LeafDistribution, inst: Instance, v) -> float:
    """|E <M X, v>| over the exact leaf law; zero for the mean-zero walk."""
    return abs(_expectation(dist, leaf_margins(dist, inst, v)))


def verify_subgaussian(dist: LeafDistribution, inst: Instance, v,
                       lam: float) -> float:
    """E exp(lam <M X, v> - lam^2 Z/2) with each leaf's own proxy Z.

    Z is computed once per freeze sequence, every sequence in one call; the
    leaves that share one share its decomposition, hence their proxy.  The
    largest exponent must lie in +-``EXP_LIMIT``: above, its exp overflows;
    below, the whole moment underflows.
    """
    v = np.asarray(v, float)
    proxies = variance_proxy_batch(inst, dist.decompositions, v[:, None])[:, 0]
    args = lam * leaf_margins(dist, inst, v) - 0.5 * lam * lam * proxies[dist.freeze_ids]
    top = float(args.max())
    if not -EXP_LIMIT <= top <= EXP_LIMIT:
        raise DomainOverflowError(f"largest mgf exponent {top:.3g} out of range")
    return _expectation(dist, [math.exp(a) for a in args.tolist()])


def conditional_increment_check(dist: LeafDistribution) -> float:
    """Max deviation of node-level pivot movement laws from the two-point form.

    At every internal node the pivot's remaining total movement must equal
    +1-z or -1-z (z its current fractional value) with probabilities (1+z)/2
    and (1-z)/2; both the probability masses and the conditional mean are
    checked.  Each node sums the probabilities of its run of leaves left to
    right, a node whose leaves were all pruned skipped; runs of like length
    are rows padded with +0.0, which changes no sum, under one cumsum.
    """
    lo, hi, pivot, z = (c[dist.nodes[1] > dist.nodes[0]] for c in dist.nodes)
    sums = np.empty((2, len(lo)))      # each node's total and plus mass
    group = np.frexp(hi - lo)[1]        # runs of 2^(g-1) up to 2^g - 1 leaves
    for g in np.flatnonzero(np.bincount(group)).tolist():
        sel = np.flatnonzero(group == g)
        idx = lo[sel, None] + np.arange((hi - lo)[sel].max())
        idx = np.where(idx < hi[sel, None], idx, -1)
        run = np.where(idx >= 0, dist.probabilities[idx], 0.0)
        plus = np.where(dist.signs[idx, pivot[sel, None]] > 0, run, 0.0)
        sums[:, sel] = np.cumsum([run, plus], axis=2)[:, :, -1]
    p_plus = sums[1] / sums[0]
    mean_move = p_plus * (1.0 - z) + (1.0 - p_plus) * (-1.0 - z)
    return float(np.abs([p_plus - (1.0 + z) / 2.0, mean_move]).max(initial=0.0))


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
