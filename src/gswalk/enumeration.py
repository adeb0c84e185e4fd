"""Exact small-instance oracle.

Expands the full decision tree of the walk, one branch per endpoint choice,
multiplying branch probabilities.  Leaves carry the exact probability of each
sign outcome together with the trace and its orthogonal decomposition (both
built on first read), so expectations of any path functional can be computed
without sampling.  A decomposition depends only on the leaf's freeze sequence,
so the leaves of one enumeration that share that sequence share one object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, DomainOverflowError
from .instances import Instance
from .ortho import OrthoDecomposition, decompose, variance_proxy
from .walk import Node, StepRecord, WalkState, WalkTrace, expand_node

PRUNE_TOL = 1e-15                   # branches below this mass are dropped
DEPTH_CAP = 16                      # largest n enumerated (up to 2^n leaves)
MGF_EXP_LIMIT = 600.0


@dataclass(eq=False)
class Leaf:
    signs: np.ndarray
    probability: float
    choices: tuple[bool, ...]       # True where the + endpoint was taken
    steps: list[StepRecord] = field(repr=False)
    inst: Instance = field(repr=False)
    # decompositions built so far, keyed by freeze sequence; one dict is
    # shared by all leaves of an enumeration
    decompositions: dict = field(repr=False)

    @cached_property
    def trace(self) -> WalkTrace:
        return WalkTrace(steps=self.steps, final_x=self.signs)

    @cached_property
    def ortho(self) -> OrthoDecomposition:
        """The decomposition of the trace, shared with every leaf of the same
        enumeration whose steps have the same pivots and frozen sets (all
        that ``decompose`` reads besides n and the step numbers)."""
        key = tuple((rec.pivot, *rec.frozen) for rec in self.steps)
        dec = self.decompositions.get(key)
        if dec is None:
            dec = self.decompositions[key] = decompose(self.inst, self.trace)
        return dec


@dataclass
class LeafDistribution:
    leaves: list[Leaf]
    d: int
    n: int
    pruned_mass: float = 0.0


def enumerate_walk(inst: Instance) -> LeafDistribution:
    """All walk outcomes with exact probabilities; + branch expanded first."""
    if inst.n > DEPTH_CAP:
        raise DimensionError(
            f"enumeration refused: n={inst.n} exceeds depth cap {DEPTH_CAP} "
            f"(up to 2^n leaves)")
    leaves: list[Leaf] = []
    decompositions: dict = {}
    pruned = 0.0

    def descend(node: Node, steps: list[StepRecord], prob: float,
                choices: tuple[bool, ...]):
        nonlocal pruned
        if node.u is None:
            leaves.append(Leaf(signs=node.state.x, probability=prob,
                               choices=choices, steps=steps, inst=inst,
                               decompositions=decompositions))
            return
        for take_plus in (True, False):
            # The - branch multiplies 1 - p_plus, not the record's dp/(dm+dp):
            # they can differ in the last bit, and leaf masses feed the
            # byte-stable smoothed report.
            p_branch = prob * (node.p_plus if take_plus else 1.0 - node.p_plus)
            if p_branch < PRUNE_TOL:
                pruned += p_branch
                continue
            state, rec = node.step(take_plus)
            descend(expand_node(inst, state), steps + [rec], p_branch,
                    choices + (take_plus,))

    descend(expand_node(inst, WalkState.initial(inst.n)), [], 1.0, ())
    return LeafDistribution(leaves=leaves, d=inst.d, n=inst.n, pruned_mass=pruned)


def exact_expectation(dist: LeafDistribution, f) -> float:
    """Sum of p(leaf) * f(leaf), accumulated in decreasing-probability order."""
    ordered = sorted(dist.leaves, key=lambda lf: -lf.probability)
    return float(sum(lf.probability * f(lf) for lf in ordered))


def verify_martingale(dist: LeafDistribution, inst: Instance, v) -> float:
    """|E <M X, v>| over the exact leaf law; zero for the mean-zero walk."""
    v = np.asarray(v, float)
    return abs(exact_expectation(dist, lambda lf: float(inst.matrix @ lf.signs @ v)))


def verify_subgaussian(dist: LeafDistribution, inst: Instance, v,
                       lam: float) -> float:
    """E exp(lam <M X, v> - lam^2 Z/2) with each leaf's own proxy Z.

    Z is computed once per distinct decomposition; leaves that share one
    (see ``Leaf.ortho``) share their proxy.
    """
    v = np.asarray(v, float)
    proxies: dict[int, float] = {}      # id(decomposition) -> Z; leaves keep ids live

    def moment(lf: Leaf) -> float:
        dec = lf.ortho
        z = proxies.get(id(dec))
        if z is None:
            z = proxies[id(dec)] = variance_proxy(inst, dec, v)
        arg = lam * float(inst.matrix @ lf.signs @ v) - 0.5 * lam * lam * z
        if abs(arg) > MGF_EXP_LIMIT:
            raise DomainOverflowError(f"mgf exponent {arg:.3g} out of range")
        return math.exp(arg)

    return exact_expectation(dist, moment)


def conditional_increment_check(dist: LeafDistribution) -> float:
    """Max deviation of node-level pivot movement laws from the two-point form.

    At every internal node the pivot's remaining total movement must equal
    +1-z or -1-z (z its current fractional value) with probabilities (1+z)/2
    and (1-z)/2; both the probability masses and the conditional mean are
    checked.

    Leaves are in depth-first order with the + branch first, so the leaves
    below each node form a contiguous run; nodes are read from those runs in
    preorder, summing each run's probabilities in leaf order.
    """
    leaves = dist.leaves
    worst = 0.0

    def visit(lo: int, hi: int, depth: int, x: np.ndarray) -> None:
        # leaves[lo:hi] are the leaves below one internal node at ``depth``;
        # x is the replayed (unsnapped) coloring the node's prefix reaches
        nonlocal worst
        run = leaves[lo:hi]
        pivot = run[0].steps[depth].pivot
        z = float(x[pivot])
        total = sum(lf.probability for lf in run)
        plus = sum(lf.probability for lf in run if lf.signs[pivot] > 0)
        p_plus = plus / total
        worst = max(worst, abs(p_plus - (1.0 + z) / 2.0))
        mean_move = p_plus * (1.0 - z) + (1.0 - p_plus) * (-1.0 - z)
        worst = max(worst, abs(mean_move))
        mid = lo
        while mid < hi and leaves[mid].choices[depth]:
            mid += 1
        for child_lo, child_hi in ((lo, mid), (mid, hi)):
            if child_lo < child_hi and len(leaves[child_lo].choices) > depth + 1:
                rec = leaves[child_lo].steps[depth]
                visit(child_lo, child_hi, depth + 1, x + rec.chosen_delta * rec.u)

    if leaves and leaves[0].choices:
        visit(0, len(leaves), 0, np.zeros(dist.n))
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
