"""Numeric certification of the scalar inequalities behind the analysis.

Each function returns a gap (claimed-larger side minus claimed-smaller side);
the grid drivers sweep the documented domains and report the minimum gap.
These are analytic facts checked as numeric regressions, not formal proofs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainOverflowError, ParameterError
from .instances import usable_cores

EXP_GUARD = 50.0
MIN_AXIS_POINTS = 5             # a coarser grid axis certifies nothing
MAX_GRID_CELLS = 1 << 23        # largest array a grid may allocate (64 MiB of floats)
BAND_FLOATS = 1 << 13           # grid points per band of a 2-D grid sweep
PROXY_SLACK = 1e-9              # roundoff allowed on a proxy estimate in [0, 1]
# Domains of the grid certifications.
X_LIM, AB_LIM = 0.99, 3.0       # lemma 1: |x| <= X_LIM, |a|, |b| <= AB_LIM
Z_LIM, B_LIM = 1.0, 3.0         # Hoeffding step: |z| <= Z_LIM, |b| <= B_LIM
C_MAX, LAM_MAX = 10.0, 5.0      # cosh chain: 2 <= c <= C_MAX, 0 < lam <= LAM_MAX


def _check_exponent(*values):
    worst = max(float(np.max(np.abs(v))) for v in values)
    if worst > EXP_GUARD:
        raise DomainOverflowError(f"argument magnitude {worst:.3g} exceeds {EXP_GUARD}")


def two_point_moment(x, s):
    """A(x, s) = (1-x)/2 exp(-(1+x)s) + (1+x)/2 exp((1-x)s).

    The moment E exp(sY) of the mean-zero variable Y taking -(1+x) and 1-x,
    for x in [-1,1].
    """
    return 0.5 * (1.0 - x) * np.exp(-(1.0 + x) * s) + 0.5 * (1.0 + x) * np.exp((1.0 - x) * s)


def two_point_mgf_gap(z, b):
    """Gap of the Hoeffding step for a mean-zero two-point variable of range 2:
    exp(b^2/2) minus (1-z)/2 exp(-(1+z)b) + (1+z)/2 exp((1-z)b)."""
    z = np.asarray(z, float)
    b = np.asarray(b, float)
    _check_exponent(b)
    out = np.exp(0.5 * b * b) - two_point_moment(z, b)
    return float(out) if out.ndim == 0 else out


def cosh_chain_check(c, lam):
    """Both gaps of the exponential-vs-cosh chain at (c, lam), c >= 2, lam > 0.

    First: (e^{c lam} - 1 - c lam) - lam^2 e^{c lam / 2}, strictly positive.
    Second: lam^2/(e^{c lam} - 1 - c lam) - lam^2/(2(cosh(c lam) - 1)).
    Accepts scalars or broadcasting arrays.
    """
    c = np.asarray(c, float)
    lam = np.asarray(lam, float)
    if not (np.all(c >= 2) and np.all(lam > 0)):
        raise ParameterError(f"need c >= 2 and lam > 0, got c={c}, lam={lam}")
    cl = c * lam
    if np.max(cl) > 100.0:
        raise DomainOverflowError(f"c*lam = {np.max(cl):.3g} exceeds 100")
    e1 = np.expm1(cl) - cl
    gap1 = e1 - lam * lam * np.exp(0.5 * cl)
    # 2(cosh(cl) - 1) - e1 = expm1(-cl) + cl, which avoids cancellation at large cl
    gap2 = lam * lam * (np.expm1(-cl) + cl) / (e1 * (2.0 * (np.cosh(cl) - 1.0)))
    return (float(gap1), float(gap2)) if gap1.ndim == 0 else (gap1, gap2)


@dataclass(frozen=True)
class BoundInputs:
    """Sample estimates feeding the existence bound."""

    mean_max_proxy: float       # estimate of E max_i Z along basis directions
    mean_block_count: float     # estimate of the expected nontrivial step count

    def __post_init__(self):
        if not -PROXY_SLACK <= self.mean_max_proxy <= 1.0 + PROXY_SLACK:
            raise ParameterError(f"mean_max_proxy out of [0,1]: {self.mean_max_proxy}")
        if not 1.0 <= self.mean_block_count < math.inf:
            raise ParameterError(f"mean_block_count out of [1, inf): {self.mean_block_count}")


def theorem1_bound(inputs: BoundInputs) -> float:
    """Existence bound 2 max(1, sqrt(2 E max proxy) sqrt(ln E nontrivial steps))."""
    return 2.0 * max(1.0, math.sqrt(2.0 * max(inputs.mean_max_proxy, 0.0))
                     * math.sqrt(math.log(inputs.mean_block_count)))


def lemma1_grid_min(step: float = 0.01) -> float:
    """Minimum lemma gap over the x in [-X_LIM, X_LIM], a,b in [-AB_LIM, AB_LIM] grid;
    one band of rows a per usable core is swept on its own thread (numpy's
    ufuncs release the GIL), a single band on the calling one, and the least
    band minimum is the exact minimum.
    The axes are mirrored, so gap(-x, -a, -b) == gap(x, a, b) bitwise: x >= 0 suffices."""
    _check_grid(step, 2 * X_LIM, 2 * AB_LIM, 2 * AB_LIM)
    xs, ab = _grid(-X_LIM, X_LIM, step), _grid(-AB_LIM, AB_LIM, step)
    xs = xs[xs.size // 2:]

    def band_min(a):
        return min(float(gap.min()) for gap in lemma1_sweep(xs, a, ab))

    bands = np.array_split(ab, min(usable_cores(), len(ab)))
    if len(bands) == 1:             # no thread, nor the pool's import, for one band
        return band_min(ab)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=len(bands)) as pool:
        return min(pool.map(band_min, bands))


def lemma1_sweep(xs: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Yield, for each x in ``xs``, the lemma-1 gap exp(|a||b| + b^2/2) -
    A(a+b)/A(a) over a[:, None], b[None, :], with A = ``two_point_moment`` at x.

    The x-independent terms, among them the distinct sums a+b and each
    point's index among them, are computed once; per x, A is evaluated per
    distinct sum into a reused buffer, so a sweep makes no per-x (len(a),
    len(b)) temporaries.  Each yielded array is overwritten by the next one.
    """
    a, b = a[:, None], b[None, :]
    _check_exponent(a, b)
    s = a + b
    sums = np.sort(s, axis=None)
    sums = sums[np.append(True, sums[1:] != sums[:-1])]     # distinct, ascending
    where = np.searchsorted(sums, s)
    del s                               # before lhs and gap exist, for a lower peak
    lhs = np.exp(np.abs(a) * np.abs(b) + 0.5 * b * b)
    gap = np.empty_like(lhs)
    for x in xs:
        # every index is in range; the default mode would buffer a copy of gap
        np.take(two_point_moment(x, sums), where, out=gap, mode="clip")
        np.divide(gap, two_point_moment(x, a), out=gap)
        yield np.subtract(lhs, gap, out=gap)


def two_point_grid_min(step: float = 0.01) -> float:
    """Minimum Hoeffding-step gap over the z in [-Z_LIM, Z_LIM], b in [-B_LIM, B_LIM] grid."""
    _check_grid(step, 2 * Z_LIM, 2 * B_LIM)
    zs, bs = _grid(-Z_LIM, Z_LIM, step), _grid(-B_LIM, B_LIM, step)
    return float(min(_band_mins(two_point_mgf_gap, zs, bs)))


def cosh_chain_grid_min(step: float = 0.01) -> tuple[float, float]:
    """Minimum of both chain gaps over c in [2, C_MAX], lam in [step, LAM_MAX]."""
    _check_grid(step, C_MAX - 2.0, LAM_MAX - step)
    cs, lams = _grid(2.0, C_MAX, step), _grid(step, LAM_MAX, step)
    return tuple(float(m) for m in np.min(_band_mins(cosh_chain_check, cs, lams), axis=0))


def _band_mins(gap, rows: np.ndarray, cols: np.ndarray) -> list:
    """Minima of ``gap(rows[:, None], cols[None, :])``, an array or a tuple of
    arrays, over bands of rows of at most BAND_FLOATS points, in row order;
    a band's arrays are freed before the next band is built."""
    band = max(1, BAND_FLOATS // cols.size)
    return [np.min(gap(rows[lo:lo + band, None], cols[None, :]), axis=(-2, -1))
            for lo in range(0, len(rows), band)]


def _check_grid(step: float, *spans: float) -> None:
    """Refuse a grid before anything is allocated.

    The step must be positive and finite; each axis, of width ``spans[i]``,
    must hold MIN_AXIS_POINTS points ``step`` apart; and neither an axis nor
    the array spanned by the last two may exceed MAX_GRID_CELLS points."""
    if not 0 < step < math.inf:
        raise ParameterError(f"grid step must be positive and finite, got {step!r}")
    points = [span / step + 1 for span in spans]
    if min(points) < MIN_AXIS_POINTS:
        raise ParameterError(f"grid step {step!r} leaves an axis with fewer than "
                             f"{MIN_AXIS_POINTS} points: nothing to certify")
    cells = max(*points, points[-2] * points[-1])
    if not cells <= MAX_GRID_CELLS:
        raise ParameterError(f"grid step {step!r} needs arrays of {cells:.3g} points; "
                             f"at most {MAX_GRID_CELLS} fit")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Points from lo to hi, both included, about ``step`` apart; mirrored exactly if lo == -hi."""
    g = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    return (g - g[::-1]) / 2 if lo == -hi else g
