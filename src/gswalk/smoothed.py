"""Smoothed-analysis pipeline for Gaussian-perturbed instances.

The walk runs on the augmented matrix 2^{-1/2} (M; Id_n); its exact leaf law
is reweighted on a bounded-discrepancy cutoff set, the instance is perturbed
by Gaussian noise of entry variance sigma^2/d, and the probability that some
support point lands inside the epsilon-cube of the perturbed map is estimated
over perturbation draws.  The per-coordinate comparison factor between the
joint and product hit probabilities is evaluated in closed form against a
quadrature oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import (ContractViolationError, DegeneratePairError,
                         DomainOverflowError, ParameterError)
from .instances import EXP_LIMIT, Instance, distinct_rows, ordered_sum, stream_rng

if TYPE_CHECKING:       # importing enumeration would load the walk stack
    from .enumeration import LeafDistribution

WILSON_Z = 1.959963984540054        # two-sided 95%
DEFAULT_DELTA = 0.1
LOWER_C = 0.5                       # constant c of the epsilon lower bound
RATIO_L = 10.0                      # lower bound on the aspect ratio n/d
QUAD_POINTS = 64                    # Gauss-Legendre nodes per axis and panel


@dataclass(frozen=True)
class SmoothedConfig:
    sigma: float
    kappa: float
    cutoff_c: float
    epsilon: float
    r_trials: int
    master_seed: int
    delta: float = DEFAULT_DELTA    # slack constant in the admissibility bounds

    def __post_init__(self):
        reals = (self.sigma * self.sigma, self.kappa, self.cutoff_c, self.epsilon,
                 self.delta)
        if not all(math.isfinite(v) for v in reals):
            raise ParameterError("non-finite sigma^2, kappa, cutoff_c, epsilon or delta")
        if self.sigma < 1 or self.kappa < 1:
            raise ParameterError("sigma and kappa must be >= 1")
        if self.cutoff_c <= 1:
            raise ParameterError("cutoff_c must exceed 1")
        if self.epsilon < 0 or self.r_trials < 1:
            raise ParameterError("epsilon must be nonnegative and r_trials >= 1")
        if self.delta <= 0:
            raise ParameterError("delta must be positive")


@dataclass
class TiltedDistribution:
    support: np.ndarray         # (k, n) sign vectors of the cutoff set
    base_p: np.ndarray          # their base probabilities
    tilted_p: np.ndarray        # their reweighted, normalized probabilities
    normalizer: float           # W
    half_variance: float        # V, with 2V the base mean of ||M x||^2
    cutoff_mass: float          # base probability of the cutoff set, at most 1


def build_augmented(inst: Instance) -> Instance:
    """The (d+n) x n instance with column i equal to (v_i, e_i)/sqrt(2)."""
    stacked = np.vstack([inst.matrix, np.eye(inst.n)]) / math.sqrt(2.0)
    return Instance(stacked)


def base_law(leaves: LeafDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sign vectors (k, n) in first-leaf order and their summed leaf
    probabilities, added in leaf order."""
    first, group = distinct_rows(leaves.signs)
    return leaves.signs[first], np.bincount(group, weights=leaves.probabilities)


def tilt_distribution(leaves: LeafDistribution, inst: Instance, sigma: float,
                      cutoff_c: float) -> TiltedDistribution:
    """Reweight the augmented-walk law on the cutoff set of bounded ||M x||^2.

    Weights exp(d ||M x||^2 / (2 sigma^2 n)) restricted to
    {||M x||^2 <= 2 * cutoff_c * V} and normalized; V is exact from the leaves.
    Each point's image (``Instance.images``), norm and weight are its own and
    the reported sums run left to right, so no value depends on BLAS or SIMD order.
    """
    if leaves.n != inst.n:
        raise ContractViolationError("leaf law and instance disagree on n")
    signs, probs = base_law(leaves)
    d, n = inst.d, inst.n
    sq_norms = np.sum(inst.images(signs) ** 2, axis=1)
    two_v = ordered_sum(probs * sq_norms)
    keep = sq_norms <= cutoff_c * two_v * (1.0 + 1e-12) + 1e-300
    base_p = probs[keep]
    exponents = [d * s / (2.0 * sigma * sigma * n) for s in sq_norms[keep]]
    top = max(exponents, default=0.0)
    if top > EXP_LIMIT:
        raise DomainOverflowError(f"tilt weight exp({top:.6g}) overflows double precision "
                                  f"(d={d}, n={n}, sigma={sigma:g})")
    mass = base_p * [math.exp(e) for e in exponents]
    normalizer = ordered_sum(mass)
    if normalizer <= 0.0:
        raise ContractViolationError("cutoff set carries no probability mass")
    return TiltedDistribution(support=signs[keep], base_p=base_p,
                              tilted_p=mass / normalizer, normalizer=normalizer,
                              half_variance=0.5 * two_v,
                              cutoff_mass=min(1.0, ordered_sum(base_p)))


def sample_perturbation(d: int, n: int, sigma: float,
                        rng: np.random.Generator) -> np.ndarray:
    """i.i.d. centered Gaussian d x n matrix with entry variance sigma^2/d."""
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    return rng.normal(0.0, sigma / math.sqrt(d), (d, n))


def inner_hit_probability(inst: Instance, perturbation: np.ndarray,
                          tilted: TiltedDistribution, epsilon: float) -> float:
    """Tilted mass of sign vectors with ||(M+R)x||_inf <= epsilon; exact, but
    capped at 1, which roundoff in the sum can pass when every point hits."""
    m = inst.matrix + perturbation
    hits = np.abs(tilted.support @ m.T).max(axis=1) <= epsilon
    return min(1.0, float(tilted.tilted_p[hits].sum()))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval, clamped to [0, 1].  Its ends are exactly
    0 with no success and exactly 1 with no failure, where roundoff in
    ``center -+ half`` would leave them a few ulps inside."""
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def outer_success_estimate(inst: Instance, tilted: TiltedDistribution,
                           config: SmoothedConfig):
    """Fraction of perturbation draws whose inner hit probability is positive,
    with a 95% Wilson score interval.  Deterministic given the master seed."""
    hits = 0
    for i in range(config.r_trials):
        rng = stream_rng(config.master_seed, i)
        pert = sample_perturbation(inst.d, inst.n, config.sigma, rng)
        if inner_hit_probability(inst, pert, tilted, config.epsilon) > 0.0:
            hits += 1
    return hits / config.r_trials, wilson_interval(hits, config.r_trials)


def epsilon_of(sigma: float, d: int, kappa: float) -> float:
    """Target tolerance sigma * sqrt(ln d) * d^(-kappa/32)."""
    if d < 2:
        raise ParameterError("d must be >= 2")
    if kappa < 1:
        raise ParameterError("kappa must be >= 1")
    return sigma * math.sqrt(math.log(d)) * d ** (-kappa / 32.0)


def default_cutoff(d: int) -> float:
    """The cutoff constant max(2, ln(max(d, 2))^2) used when none is given."""
    return max(2.0, math.log(max(d, 2)) ** 2)


def _pair(row: np.ndarray, x: np.ndarray, y: np.ndarray, n: int) -> tuple[float, float, float]:
    """The overlap k of sign vectors x and y and the margins <row, x>, <row, y>;
    raises ``DegeneratePairError`` unless 0 < k < n."""
    k = 0.25 * float(np.sum((x + y) ** 2))
    if k <= 0 or k >= n:
        raise DegeneratePairError("sign vectors are equal or opposite")
    return k, float(row @ x), float(row @ y)


def comparison_constant(row: np.ndarray, x: np.ndarray, y: np.ndarray,
                        sigma: float, d: int, n: int, epsilon: float) -> float:
    """Closed-form factor bounding joint over product hit probabilities."""
    k, m1, m2 = _pair(row, x, y, n)
    scale = d / (2.0 * n * sigma * sigma * max(k, n - k))
    prefactor = n / (2.0 * math.sqrt(k * (n - k)))
    tilt = math.exp(scale * abs(n - 2 * k) * (epsilon * (abs(m1) + abs(m2)) + epsilon ** 2))
    cross = math.exp(-scale * (n - 2 * k) * m1 * m2)
    return prefactor * tilt * cross


def joint_rect_probability(row: np.ndarray, x: np.ndarray, y: np.ndarray,
                           sigma: float, d: int, n: int, epsilon: float) -> float:
    """P(|s1 g1 - (m1+m2)/2| + |s2 g2 - (m1-m2)/2| <= eps) for independent
    standard Gaussians, s1 = sigma sqrt(k/d), s2 = sigma sqrt((n-k)/d).

    Tensor Gauss-Legendre quadrature of the exact product density over the
    diamond-shaped region; the outer axis is split at its kink so each panel
    is smooth and the scheme converges spectrally.
    """
    if epsilon <= 0:
        return 0.0
    k, m1, m2 = _pair(row, x, y, n)
    s1 = sigma * math.sqrt(k / d)
    s2 = sigma * math.sqrt((n - k) / d)
    mu = 0.5 * (m1 + m2)
    nu = 0.5 * (m1 - m2)
    nodes, weights = _gauss_legendre()
    # Clip each axis to the density's effective support (12 standard
    # deviations) so the fixed node count resolves the peak even when the
    # region is much wider than the density.
    reach = 12.0
    a_lo = max(-epsilon, -mu - reach * s1)
    a_hi = min(epsilon, -mu + reach * s1)
    if a_lo >= a_hi:
        return 0.0
    panels = ([(a_lo, 0.0), (0.0, a_hi)] if a_lo < 0.0 < a_hi
              else [(a_lo, a_hi)])
    total = 0.0
    for lo, hi in panels:
        a = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)          # u-offsets
        wa = 0.5 * (hi - lo) * weights
        half = epsilon - np.abs(a)                             # inner half-width
        b_lo = np.maximum(-half, -nu - reach * s2)
        b_hi = np.minimum(half, -nu + reach * s2)
        width = np.maximum(b_hi - b_lo, 0.0)
        b = 0.5 * width[:, None] * nodes[None, :] + 0.5 * (b_lo + b_hi)[:, None]
        wb = 0.5 * width[:, None] * weights[None, :]
        dens_a = np.exp(-0.5 * ((a + mu) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
        dens_b = np.exp(-0.5 * ((b + nu) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
        total += float(np.sum(dens_a * wa * np.sum(dens_b * wb, axis=1)))
    return min(total, 1.0)


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The QUAD_POINTS-node Gauss-Legendre rule on [-1, 1]: built once, read-only."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(QUAD_POINTS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def product_rect_probability(row: np.ndarray, x: np.ndarray, y: np.ndarray,
                             sigma: float, d: int, n: int,
                             epsilon: float) -> float:
    """Product of the two marginal interval probabilities, via the normal CDF."""
    m1 = float(row @ x)
    m2 = float(row @ y)
    s = sigma * math.sqrt(n / d)
    p1 = _normal_cdf((epsilon + m1) / s) - _normal_cdf((-epsilon + m1) / s)
    p2 = _normal_cdf((epsilon + m2) / s) - _normal_cdf((-epsilon + m2) / s)
    return p1 * p2


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))     # accurate in both tails


def verify_comparison(row: np.ndarray, x: np.ndarray, y: np.ndarray,
                      sigma: float, d: int, n: int, epsilon: float) -> float:
    """Relative slack (C_i * prod - joint) / (C_i * prod); >= 0 up to quadrature."""
    ci = comparison_constant(row, x, y, sigma, d, n, epsilon)
    prod = product_rect_probability(row, x, y, sigma, d, n, epsilon)
    joint = joint_rect_probability(row, x, y, sigma, d, n, epsilon)
    return (ci * prod - joint) / (ci * prod)


def comparison_trials(trials: int, seed: int) -> float:
    """Min relative slack of the joint-vs-product comparison over random cases."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = stream_rng(seed, 11)
    worst = math.inf
    count = 0
    while count < trials:
        d = int(rng.integers(2, 6))
        n = int(rng.integers(4, 10))
        x = rng.choice([-1.0, 1.0], size=n)
        y = rng.choice([-1.0, 1.0], size=n)
        if abs(x @ y) > n / 2 or abs(x @ y) == n:
            continue
        row = rng.normal(0, 1 / math.sqrt(n), size=n)
        sigma = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.05, 1.0))
        worst = min(worst, verify_comparison(row, x, y, sigma, d, n, eps))
        count += 1
    return worst


def cube_gaussian_measure(radius: float, d: int) -> float:
    """Standard Gaussian mass of the cube [-radius, radius]^d."""
    if radius <= 0:
        raise ParameterError("radius must be positive")
    return math.erf(radius / math.sqrt(2.0)) ** d


def admissibility_report(config: SmoothedConfig, inst: Instance,
                         tilted: TiltedDistribution) -> dict:
    """Evaluate the parameter conditions of the smoothed bound, with margins.

    A report, not a gate: every condition is returned as a named entry with
    both sides and whether it holds at the configured (sigma, kappa, cutoff_c,
    epsilon, delta).  A zero cube radius has Gaussian mass 0.  A right-hand
    side or margin that is not finite (an overflow, or no variance to bound
    epsilon by) is written as None, which JSON states as null.
    """
    d, n = inst.d, inst.n
    sigma, eps, delta = config.sigma, config.epsilon, config.delta
    cv = config.cutoff_c * tilted.half_variance
    conditions = []

    def add(name, lhs, rhs, sense):
        holds = lhs >= rhs if sense == ">=" else lhs <= rhs
        margin = lhs - rhs if sense == ">=" else rhs - lhs
        conditions.append({"name": name, "lhs": lhs,
                           "rhs": rhs if math.isfinite(rhs) else None,
                           "sense": sense, "holds": bool(holds),
                           "margin": margin if math.isfinite(margin) else None})

    radius = math.sqrt(d) * eps / (math.sqrt(n) * sigma)
    add("gaussian_cube_mass", cube_gaussian_measure(radius, d) if radius > 0 else 0.0,
        math.exp(-n / 32.0), ">=")
    add("second_moment_scale", float(n), 8.0 * math.sqrt(d) * math.sqrt(2.0 * cv), ">=")
    add("aspect_ratio", n / d, max(RATIO_L, RATIO_L / sigma ** 2, 16.0 * sigma ** 2), ">=")
    add("epsilon_upper_variance",
        eps,
        (delta / 32.0) * sigma ** 2 * (n / d) ** 1.5 / math.sqrt(cv) if cv > 0 else math.inf,
        "<=")
    add("epsilon_upper_scale",
        eps, (math.sqrt(delta) / 4.0) * sigma * (n / d) * n ** -0.25, "<=")
    add("epsilon_lower",
        eps,
        math.sqrt(math.pi / 2.0) * math.exp(LOWER_C ** 2 / 2.0)
        * sigma * math.sqrt(n / d) * math.exp(-n / (32.0 * d)), ">=")
    return {
        "parameters": {"d": d, "n": n, "sigma": sigma, "kappa": config.kappa,
                       "cutoff_c": config.cutoff_c, "epsilon": eps,
                       "delta": delta, "lower_c": LOWER_C, "ratio_l": RATIO_L,
                       "half_variance": tilted.half_variance},
        "conditions": conditions,
        "all_hold": all(c["holds"] for c in conditions),
    }
