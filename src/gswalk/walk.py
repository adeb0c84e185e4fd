"""The randomized balancing walk.

Starting from the all-zero fractional coloring, each step picks the
largest-index active coordinate as pivot, moves along the column-cancelling
direction of minimum residual norm, and steps to one endpoint of the feasible
interval with the mean-zero choice of probabilities.  Coordinates reaching
+-1 are snapped exactly and frozen.

The step works on rows of colorings.  ``min_norm_coefficients`` solves
several active sets of one size at once, ``min_norm_directions`` scatters
them into directions, and ``stacked_directions`` gives one direction per row
of active sets of any sizes, solving each distinct set once.
``feasible_interval``, ``move`` and ``step_rows`` take rows with one
direction each or one shared by all, with the bits of one call per row.
Exact enumeration passes the nodes of a depth to ``stacked_directions``;
Monte Carlo steps each run's coloring on its active set along the
coefficients, and the runs that have frozen only their pivots along the
one row of the prefix set they share; ``walk_path`` is the one-row case, on
the draws of ``run_walk``'s generator or of an enumerated leaf's path code.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolationError
from .instances import Instance, distinct_rows

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


def min_norm_direction(inst: Instance, active, pivot: int) -> np.ndarray:
    """Direction with u[pivot] = 1 and support in ``active`` minimizing ||M u||_2:
    the one-set case of ``min_norm_directions``."""
    active = np.asarray(active)
    return min_norm_directions(inst, np.concatenate((active[active != pivot], [pivot]))[None])[0]


def min_norm_directions(inst: Instance, sets: np.ndarray) -> np.ndarray:
    """Directions (g, n) of g active sets (g, k): ``min_norm_coefficients``
    scattered into zero rows."""
    coef = min_norm_coefficients(inst, sets)
    u = np.zeros((len(sets), inst.n))
    # one index array into the flat rows is the cheapest scatter
    u.reshape(-1)[sets + np.arange(0, u.size, inst.n)[:, None]] = coef
    return u


def min_norm_coefficients(inst: Instance, sets: np.ndarray) -> np.ndarray:
    """Coefficients (g, k) of g active sets of one size, given as rows (g, k)
    of indices with the pivot last.

    Row i is u[sets[i]] of the u with u[pivot] = 1 and support in ``sets[i]``
    that minimizes ||M u||_2.  The coefficients on the other columns solve a
    least-squares problem; under rank deficiency the minimum-norm solution
    is taken (SVD cutoff ``RANK_RCOND`` relative to the top singular value),
    which makes each row a pure function of its set.  When there are more
    other columns than rows and they are well conditioned (``_gram_solve``),
    the same minimum-norm solution comes from the d x d Gram matrix instead
    of an SVD; the sets of one call share those products and
    eigendecompositions as stacks.
    """
    g, k = sets.shape
    coef = np.empty((g, k))
    coef[:, -1] = 1.0                   # the pivot's coefficient
    if k > 1:
        # cols[i] is M[:, sets[i]].T; the view at[i].T of its other columns
        # has the layout of the gather M[:, others], so every product below
        # makes the calls, and gets the bits, of a solve for one set
        cols = inst.matrix.T[sets]
        at, target = cols[:, :-1], -cols[:, -1]
        left = _gram_solve(at, target, coef[:, :-1]) if k - 1 > inst.d else range(g)
        for i in left:
            coef[i, :-1] = np.linalg.lstsq(at[i].T, target[i], rcond=RANK_RCOND)[0]
    return coef


def stacked_directions(inst: Instance, active: np.ndarray) -> np.ndarray:
    """Directions (g, n) of g nonempty active sets of any sizes, given as
    boolean rows (g, n), one per row.  Each distinct set is solved once, and
    the sets of one size as one stack through ``min_norm_directions``, so
    every row gets the bits of its own solve."""
    first, number = distinct_rows(active)
    sets = active[first]
    sizes = np.count_nonzero(sets, axis=1)
    u = np.empty(sets.shape)
    for k in set(sizes.tolist()):
        same = np.flatnonzero(sizes == k)
        # sorted indices, so each set's pivot, its largest index, is last
        u[same] = min_norm_directions(inst, sets[same].nonzero()[1].reshape(-1, k))
    return u[number]


def _gram_solve(at: np.ndarray, target: np.ndarray, out: np.ndarray) -> list[int]:
    """Minimum-norm solutions a^T G^-1 target of a c = target, G = a a^T, for
    the stack a = at[i].T, written into ``out``; returns the sets left to
    ``lstsq``, whose rows of ``out`` are to be overwritten.

    A set is left to ``lstsq`` unless the eigenvalues of its G satisfy
    lambda_min > GRAM_GUARD lambda_max.  The singular values of its ``a``
    then lie within a factor 1e-3 of the largest, far above ``RANK_RCOND``,
    so ``lstsq`` would truncate nothing and the two agree to roundoff.
    """
    lam, vecs = np.linalg.eigh(at.transpose(0, 2, 1) @ at)
    ok = lam[:, 0] > GRAM_GUARD * lam[:, -1]
    # each set's products are its own, so a left set's eigenvalues, taken
    # as 1 to keep its discarded row finite, change no other row
    lam = np.where(ok[:, None], lam, 1.0)
    out[...] = (at @ (vecs @ ((vecs.transpose(0, 2, 1) @ target[:, :, None])
                              / lam[:, :, None])))[:, :, 0]
    return np.flatnonzero(~ok).tolist()


def feasible_interval(x: np.ndarray, u: np.ndarray) -> tuple:
    """Largest move sizes along -u and +u keeping x + delta*u inside [-1,1]^n.

    Returns ``(delta_minus, delta_plus)``, both strictly positive: two floats
    for a coloring x (n,), two (g,) arrays for rows x (g, n).  Rows move along
    one direction u (n,) or one row of u (g, n) each.  Coordinate i bounds
    the move along -u at (1 + sign(u_i) x_i) / |u_i| and along +u at
    (1 - sign(u_i) x_i) / |u_i|: up to sign, bit for bit, the quotients
    (-1 - x_i) / u_i and (1 - x_i) / u_i at the two faces.  Off the support
    of u both are 1 / 0 = inf and bound nothing.  Each end is an exact min,
    so every row gets the bits of a call of its own.
    """
    with np.errstate(divide="ignore"):
        scale, toward = np.abs(u), np.sign(u) * x
        dm = ((1.0 + toward) / scale).min(axis=-1)
        dp = ((1.0 - toward) / scale).min(axis=-1)
    if not (dm.min() > 0.0 and dp.min() > 0.0):
        # a coordinate of the support on the boundary puts an end at 0 or past it
        if np.count_nonzero((np.abs(x) >= 1.0) & (u != 0.0)):
            raise ContractViolationError("direction touches a frozen coordinate")
        raise ContractViolationError(f"feasible interval [{-dm.min()}, {dp.min()}] "
                                     "does not contain 0")
    return dm, dp


def move(x: np.ndarray, u: np.ndarray, chosen_delta,
         active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x + chosen_delta*u with the coordinates within ``FREEZE_TOL`` of +-1
    snapped onto the boundary, and the mask of the ``active`` coordinates
    that froze.  ``active`` is a boolean mask of x's shape, of one row
    shared by all, or True for all.  Rows x (g, n) move by a column
    chosen_delta (g, 1) along one u (n,) or one row of u (g, n) each.  Every
    row must freeze a coordinate.
    """
    moved = chosen_delta * u
    moved += x
    hit = np.abs(moved) >= 1.0 - FREEZE_TOL
    np.sign(moved, out=moved, where=hit)
    froze = hit & active
    if not froze.any(axis=-1).all():
        raise ContractViolationError("step froze no coordinate")
    return moved, froze


def step_rows(x: np.ndarray, u: np.ndarray, draws, active: np.ndarray) -> tuple:
    """One randomized step of each row x (g, n) along u (n,) or (g, n), or
    of one coloring x (n,) with one draw.

    A row moves to +delta_plus when its draw is below p_plus = dm/(dm+dp),
    else to -delta_minus, so the move has mean zero.  Returns the moved rows,
    the mask of the ``active`` coordinates that froze, dm, dp, p_plus and
    whether each row took the + endpoint.
    """
    dm, dp = feasible_interval(x, u)
    p_plus = dm / (dm + dp)
    plus = draws < p_plus
    moved, froze = move(x, u, np.where(plus, dp, -dm)[..., None], active)
    return moved, froze, dm, dp, p_plus, plus


def apply_step(state: WalkState, u: np.ndarray, chosen_delta: float,
               delta_minus: float, delta_plus: float,
               choice_probability: float) -> tuple[WalkState, StepRecord]:
    """Move the state along u by a given delta, snap and freeze boundary coordinates."""
    mask = np.zeros(state.x.size, dtype=bool)
    mask[state.active] = True
    x, froze = move(state.x, u, chosen_delta, mask)
    frozen = np.flatnonzero(froze)[::-1].tolist()
    active = state.active[~froze[state.active]]
    pivot = int(active[-1]) if active.size else None
    rec = StepRecord(state.t, state.pivot, u, delta_plus, delta_minus, chosen_delta,
                     choice_probability, frozen)
    return WalkState(state.t + 1, x, active, pivot), rec


def walk_path(inst: Instance, draws) -> WalkTrace:
    """Run the walk to completion, step t taking the + endpoint when the t-th
    item of the iterator ``draws`` is below p_plus; terminates in at most n
    steps.  A draw of 0.0 takes the + endpoint wherever that branch has
    positive mass, and 1.0 always the - one, as p_plus <= 1.  The - branch
    records dp/(dm+dp), which ``run --dump-trace`` prints; it can differ in
    the last bit from 1 - p_plus, the mass of the branch."""
    x = np.zeros(inst.n)
    active = np.ones(inst.n, dtype=bool)
    live = np.arange(inst.n)
    steps: list[StepRecord] = []
    while live.size:
        u = min_norm_directions(inst, live[None])[0]
        x, froze, dm, dp, _, plus = step_rows(x, u, next(draws), active)
        active ^= froze                 # froze lies within active
        steps.append(StepRecord(len(steps) + 1, int(live[-1]), u, dp, dm,
                                dp if plus else -dm, (dm if plus else dp) / (dm + dp),
                                froze.nonzero()[0][::-1].tolist()))
        live = active.nonzero()[0]
    return WalkTrace(steps=steps, final_x=x)


def run_walk(inst: Instance, rng: np.random.Generator) -> WalkTrace:
    """Run the walk to completion, drawing one ``rng.random()`` per step."""
    return walk_path(inst, iter(rng.random, None))
