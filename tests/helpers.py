"""Functions that only the tests read, kept out of the package's source."""
import numpy as np

from gswalk.enumeration import Leaf
from gswalk.exceptions import ContractViolationError
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
