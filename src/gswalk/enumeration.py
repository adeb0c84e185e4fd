"""Exact small-instance oracle.

Expands the full decision tree of the walk, one branch per endpoint choice,
multiplying branch probabilities.  Leaves carry the exact probability of each
sign outcome together with the trace and its orthogonal decomposition (both
built on first read), so expectations of any path functional can be computed
without sampling.
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

    @cached_property
    def trace(self) -> WalkTrace:
        return WalkTrace(steps=self.steps, final_x=self.signs)

    @cached_property
    def ortho(self) -> OrthoDecomposition:
        return decompose(self.inst, self.trace)


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
    pruned = 0.0

    def descend(node: Node, steps: list[StepRecord], prob: float,
                choices: tuple[bool, ...]):
        nonlocal pruned
        if node.u is None:
            leaves.append(Leaf(signs=node.state.x, probability=prob,
                               choices=choices, steps=steps, inst=inst))
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
    """E exp(lam <M X, v> - lam^2 Z/2) with each leaf's own proxy Z."""
    v = np.asarray(v, float)

    def moment(lf: Leaf) -> float:
        z = variance_proxy(inst, lf.ortho, v)
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
    """
    groups: dict[tuple[bool, ...], list[Leaf]] = {}
    for lf in dist.leaves:
        for depth in range(len(lf.choices)):
            groups.setdefault(lf.choices[:depth], []).append(lf)
    worst = 0.0
    for prefix, members in groups.items():
        depth = len(prefix)
        rep = members[0].trace
        x = np.zeros(dist.n)
        for rec in rep.steps[:depth]:
            x = x + rec.chosen_delta * rec.u
        pivot = rep.steps[depth].pivot
        z = float(x[pivot])
        total = sum(lf.probability for lf in members)
        plus = sum(lf.probability for lf in members if lf.signs[pivot] > 0)
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
