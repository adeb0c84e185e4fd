"""The randomized balancing walk.

Starting from the all-zero fractional coloring, each step picks the
largest-index active coordinate as pivot, moves along the column-cancelling
direction of minimum residual norm, and steps to one endpoint of the feasible
interval with the mean-zero choice of probabilities.  Coordinates reaching
+-1 are snapped exactly and frozen.

The walk is a binary decision tree whose nodes are choice prefixes.
``expand_node`` resolves one node; sampling (``walk_step``) and the Monte
Carlo prefix cache step through it.  ``feasible_interval`` and ``move`` also
take rows of colorings that share a direction, so exact enumeration steps
every node of one active set at once with the same arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolationError
from .instances import Instance

FREEZE_TOL = 1e-9
RANK_RCOND = 1e-10
GRAM_GUARD = 1e-6           # eigenvalue ratio below which the Gram solve defers to lstsq


@dataclass
class WalkState:
    t: int
    x: np.ndarray
    active: np.ndarray          # sorted array of active indices
    pivot: int | None

    @classmethod
    def initial(cls, n: int) -> "WalkState":
        return cls(t=1, x=np.zeros(n), active=np.arange(n), pivot=n - 1)


@dataclass
class StepRecord:
    t: int
    pivot: int
    u: np.ndarray = field(repr=False)
    delta_plus: float
    delta_minus: float
    chosen_delta: float
    choice_probability: float
    frozen: list[int]           # decreasing index order


@dataclass
class WalkTrace:
    steps: list[StepRecord]
    final_x: np.ndarray

    @property
    def total_steps(self) -> int:
        return len(self.steps)

    def replay(self) -> np.ndarray:
        x = np.zeros(len(self.final_x))
        for rec in self.steps:
            x = x + rec.chosen_delta * rec.u
        return x


def min_norm_direction(inst: Instance, active, pivot: int) -> np.ndarray:
    """Direction with u[pivot] = 1 and support in ``active`` minimizing ||M u||_2.

    Coefficients on the non-pivot active columns solve a least-squares problem;
    under rank deficiency the minimum-norm solution is taken (SVD cutoff
    ``RANK_RCOND`` relative to the top singular value), which makes the result
    a pure function of the inputs.  When there are more other active columns
    than rows and they are well conditioned (``_gram_solve``), the same
    minimum-norm solution comes from the d x d Gram matrix instead of an SVD.
    """
    active = np.asarray(active)
    u = np.zeros(inst.n)
    u[pivot] = 1.0
    others = active[active != pivot]
    if others.size:
        a = inst.matrix[:, others]
        target = -inst.matrix[:, pivot]
        coef = _gram_solve(a, target) if others.size > inst.d else None
        if coef is None:
            coef, *_ = np.linalg.lstsq(a, target, rcond=RANK_RCOND)
        u[others] = coef
    return u


def _gram_solve(a: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Minimum-norm solution a^T G^-1 target of a c = target, G = a a^T.

    Returns None, leaving the solve to ``lstsq``, unless the eigenvalues of G
    satisfy lambda_min > GRAM_GUARD lambda_max.  The singular values of ``a``
    then lie within a factor 1e-3 of the largest, far above ``RANK_RCOND``,
    so ``lstsq`` would truncate nothing and the two agree to roundoff.
    """
    lam, vecs = np.linalg.eigh(a @ a.T)
    if not lam[0] > GRAM_GUARD * lam[-1]:
        return None
    return a.T @ (vecs @ ((vecs.T @ target) / lam))


def feasible_interval(x: np.ndarray, u: np.ndarray) -> tuple:
    """Largest move sizes along -u and +u keeping x + delta*u inside [-1,1]^n.

    Returns ``(delta_minus, delta_plus)``, both strictly positive: two floats
    for a coloring x (n,), two (g,) arrays for rows x (g, n) sharing u.
    """
    support = u.nonzero()[0]
    xs = x.T[support].T                 # the last axis, of a vector or of rows
    if (np.abs(xs) >= 1.0).any():
        raise ContractViolationError("direction touches a frozen coordinate")
    us = u[support]
    lo_ends = (-1.0 - xs) / us
    hi_ends = (1.0 - xs) / us
    lows = np.minimum(lo_ends, hi_ends)
    highs = np.maximum(lo_ends, hi_ends)
    lo, hi = lows.max(), highs.min()    # over every row
    if not (lo < 0.0 < hi):
        raise ContractViolationError(f"feasible interval [{lo}, {hi}] does not contain 0")
    if x.ndim == 1:
        return -float(lo), float(hi)
    return -lows.max(axis=-1), highs.min(axis=-1)


def move(x: np.ndarray, u: np.ndarray, chosen_delta,
         active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x + chosen_delta*u with the coordinates within ``FREEZE_TOL`` of +-1
    snapped onto the boundary, and the mask of the ``active`` coordinates
    that froze.  Rows x (g, n) sharing u and ``active`` move by a column
    chosen_delta (g, 1).  Every step must freeze a coordinate.
    """
    moved = chosen_delta * u
    moved += x
    hit = np.abs(moved) >= 1.0 - FREEZE_TOL
    np.sign(moved, out=moved, where=hit)
    froze = hit.T[active].T
    # one count for a vector; rows need one test each
    if not (np.count_nonzero(froze) if froze.ndim == 1 else froze.any(axis=1).all()):
        raise ContractViolationError("step froze no coordinate")
    return moved, froze


def apply_step(state: WalkState, u: np.ndarray, chosen_delta: float,
               delta_minus: float, delta_plus: float,
               choice_probability: float) -> tuple[WalkState, StepRecord]:
    """Move the state along u, snap and freeze boundary coordinates."""
    x, froze = move(state.x, u, chosen_delta, state.active)
    frozen = state.active[froze].tolist()[::-1]     # active is sorted
    active = state.active[~froze]
    pivot = int(active[-1]) if active.size else None
    rec = StepRecord(state.t, state.pivot, u, delta_plus, delta_minus, chosen_delta,
                     choice_probability, frozen)
    new_state = WalkState(state.t + 1, x, active, pivot)
    return new_state, rec


@dataclass(eq=False)
class Node:
    """One choice prefix of the walk's decision tree.

    ``state`` is the state the prefix reaches and ``record`` the step that
    led there (None at the root).  While coordinates remain active the node
    also holds its resolved step: direction ``u``, endpoint magnitudes and
    ``p_plus``, the probability of the + endpoint.  ``children[True]`` and
    ``children[False]`` are the + and - successors, built on first request
    by ``child``.  Nodes compare by identity.
    """
    state: WalkState
    record: StepRecord | None = None
    u: np.ndarray | None = field(default=None, repr=False)
    delta_minus: float = 0.0
    delta_plus: float = 0.0
    p_plus: float = 0.0
    children: list = field(default_factory=lambda: [None, None], repr=False)

    def step(self, take_plus: bool) -> tuple[WalkState, StepRecord]:
        """Move to the chosen endpoint; the successor state and its record."""
        dm, dp = self.delta_minus, self.delta_plus
        if take_plus:
            chosen, prob = dp, self.p_plus
        else:
            # The record keeps dp/(dm+dp), which ``run --dump-trace`` prints;
            # it can differ from 1 - p_plus in the last bit.
            chosen, prob = -dm, dp / (dm + dp)
        return apply_step(self.state, self.u, chosen, dm, dp, prob)

    def child(self, inst: Instance, take_plus: bool) -> "Node":
        """The successor node, expanded on first request and kept."""
        node = self.children[take_plus]
        if node is None:
            node = self.children[take_plus] = expand_node(inst, *self.step(take_plus))
        return node


def expand_node(inst: Instance, state: WalkState,
                record: StepRecord | None = None) -> Node:
    """The node at ``state``, with its step resolved while coordinates remain."""
    node = Node(state, record)
    if state.active.size:
        u = min_norm_direction(inst, state.active, state.pivot)
        dm, dp = feasible_interval(state.x, u)
        node.u, node.delta_minus, node.delta_plus = u, dm, dp
        node.p_plus = dm / (dm + dp)
    return node


def walk_step(inst: Instance, state: WalkState, rng: np.random.Generator):
    """One randomized step: move to delta_plus with prob dm/(dm+dp), else -delta_minus."""
    if state.active.size == 0:
        raise ContractViolationError("walk_step called with empty active set")
    node = expand_node(inst, state)
    return node.step(rng.random() < node.p_plus)


def run_walk(inst: Instance, rng: np.random.Generator) -> WalkTrace:
    """Run the walk to completion; terminates in at most n steps."""
    state = WalkState.initial(inst.n)
    steps: list[StepRecord] = []
    while state.active.size:
        state, rec = walk_step(inst, state, rng)
        steps.append(rec)
    return WalkTrace(steps=steps, final_x=state.x)
