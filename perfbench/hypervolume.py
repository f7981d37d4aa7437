"""Exact hypervolume of a minimization front (WFG recursion).

Every measure in this repository is normalized to minimize inside
``(0, 1]``, so a skyline's quality is the volume of the region its points
dominate up to the all-ones reference point: the union of the boxes
``[p, ref]``. :func:`hypervolume` computes that volume exactly with the
WFG recursion (While, Bradstreet and Barone, 2012): the union is the sum
of each point's *exclusive* contribution, and a point's exclusive part is
its box minus the union of the later points *limited* to that box. Fronts
here have at most a few dozen points in at most six dimensions, where the
recursion is fast in plain numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def nondominated(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` no other row weakly dominates, deduplicated."""
    if len(points) <= 1:
        return points
    points = np.unique(points, axis=0)
    le = np.all(points[:, None, :] <= points[None, :, :], axis=-1)
    np.fill_diagonal(le, False)
    return points[~le.any(axis=0)]


def _hv2(points: np.ndarray, ref: np.ndarray) -> float:
    """Two measures: sweep the front in ascending first coordinate."""
    points = points[np.argsort(points[:, 0])]
    right = np.append(points[1:, 0], ref[0])
    return float(np.sum((right - points[:, 0]) * (ref[1] - points[:, 1])))


def _hv(points: np.ndarray, ref: np.ndarray) -> float:
    """Volume of the union of ``[p, ref]`` over a non-dominated set."""
    n, d = points.shape
    if n == 0:
        return 0.0
    if d == 1:
        return float(ref[0] - points[:, 0].min())
    if n == 1:
        return float(np.prod(ref - points[0]))
    if d == 2:
        return _hv2(points, ref)
    # Points processed last in the sum recurse on the fewest followers;
    # sorting by the last measure keeps each limited set small.
    points = points[np.argsort(-points[:, -1])]
    total = 0.0
    for i in range(n):
        box = float(np.prod(ref - points[i]))
        rest = points[i + 1:]
        if len(rest):
            limited = nondominated(np.maximum(rest, points[i]))
            box -= _hv(limited, ref)
        total += box
    return total


def hypervolume(
    points: Sequence[Sequence[float]], reference: Sequence[float] | None = None
) -> float:
    """Exact volume dominated by ``points`` up to ``reference`` (minimize).

    ``reference`` defaults to the all-ones point. Points that are not
    strictly below the reference in every measure add nothing and are
    dropped; so are dominated points and duplicates.
    """
    matrix = np.asarray(points, dtype=float)
    if matrix.size == 0:
        return 0.0
    if matrix.ndim != 2:
        raise ValueError("hypervolume expects a 2-D array of points")
    ref = (
        np.ones(matrix.shape[1]) if reference is None
        else np.asarray(reference, dtype=float)
    )
    if ref.shape != (matrix.shape[1],):
        raise ValueError(
            f"reference has {ref.size} measures, points have {matrix.shape[1]}"
        )
    matrix = matrix[np.all(matrix < ref, axis=1)]
    return _hv(nondominated(matrix), ref)
