"""Functions that only the tests read, kept out of the package's source."""
import numpy as np

from gswalk.enumeration import Leaf
from gswalk.exceptions import ContractViolationError
from gswalk.inequalities import _check_exponent, two_point_moment
from gswalk.ortho import OrthoDecomposition
from gswalk.walk import WalkTrace


def replay(trace: WalkTrace) -> np.ndarray:
    """The coloring the trace's steps reach from zero."""
    x = np.zeros(len(trace.final_x))
    for rec in trace.steps:
        x = x + rec.chosen_delta * rec.u
    return x


def choices(leaf: Leaf) -> tuple[bool, ...]:
    """True where the leaf's path took the + endpoint."""
    return tuple(rec.chosen_delta > 0 for rec in leaf.trace.steps)


def project_pivot(ortho: OrthoDecomposition, pivot: int, v) -> np.ndarray:
    """Orthogonal projection of v onto the subspace of the pivot's blocks.

    The pivot's blocks fill the positions from its own down to just above
    the next pivot's (down to 0 for the last pivot).
    """
    pivots = [p for p, _ in ortho.pivot_phases]
    if pivot not in pivots:
        raise ContractViolationError(f"index {pivot} never became pivot")
    i = pivots.index(pivot)
    lo = ortho.position[pivots[i + 1]] + 1 if i + 1 < len(pivots) else 0
    w = ortho.directions[lo:ortho.position[pivot] + 1]
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
