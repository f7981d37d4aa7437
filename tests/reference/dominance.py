"""Kung's skyline: the parity oracle for ``repro.core.dominance``.

Kung, Luccio and Preparata's divide and conquer (reference ``[24]`` of the
paper) with a 2-D sweep at the leaves and tolerance repair passes — the
skyline ``repro.core.dominance`` computed before it was vectorized, kept
verbatim. The unit and property suites compare
:func:`repro.core.dominance.pareto_front` against
:func:`pareto_front_reference` index for index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dominance import _TIE, dominates
from repro.exceptions import SearchError



def _front_2d(order: list[int], vectors: np.ndarray) -> list[int]:
    """Skyline of presorted points in 2-D: single sweep on the 2nd coord.

    Keeps second coordinates *within the tie tolerance* of the best seen
    — under the tolerant :func:`dominates`, a near-tie is mutual
    non-dominance, so dropping it here would disagree with the brute
    force definition. Over-kept points that a predecessor genuinely
    dominates (strictly better first coordinate) are pruned by
    :func:`pareto_front_reference`'s final tolerant filter.
    """
    best = np.inf
    best_first = np.inf
    front = []
    for idx in order:
        first, second = vectors[idx][0], vectors[idx][1]
        if second < best - _TIE:
            front.append(idx)
            best, best_first = second, first
        elif second <= best + _TIE and best_first >= first - _TIE:
            # Near-tie with the best holder and not strictly worse on
            # the presorted coordinate: mutual non-dominance. (The
            # best-holder comparison also prunes the degenerate
            # constant-second case that would otherwise balloon the
            # caller's final filter.)
            front.append(idx)
            if second < best:
                best, best_first = second, first
    return front


def _kung(order: list[int], vectors: np.ndarray) -> list[int]:
    """Kung's divide & conquer over indices presorted by the first coord."""
    if len(order) <= 1:
        return list(order)
    if vectors.shape[1] == 2:
        return _front_2d(order, vectors)
    mid = len(order) // 2
    top = _kung(order[:mid], vectors)  # better (smaller) on dim 0
    bottom = _kung(order[mid:], vectors)
    # Keep bottom points not dominated by any top point.
    survivors = [
        b
        for b in bottom
        if not any(dominates(vectors[t], vectors[b]) for t in top)
    ]
    return top + survivors


def pareto_front_reference(vectors: Sequence[np.ndarray]) -> list[int]:
    """The pre-columnar skyline: Kung's divide & conquer plus tolerance
    repair passes. Kept as the independent reference implementation the
    parity tests compare :func:`repro.core.dominance.pareto_front` against.
    """
    if len(vectors) == 0:
        return []
    matrix = np.asarray([np.asarray(v, dtype=float) for v in vectors])
    if matrix.ndim != 2:
        raise SearchError("pareto_front expects same-length vectors")
    if matrix.shape[1] == 1:
        best = matrix[:, 0].min()
        return [i for i in range(len(matrix)) if matrix[i, 0] <= best + _TIE]
    keys = [tuple(matrix[i]) for i in range(len(matrix))]
    order = sorted(range(len(matrix)), key=lambda i: keys[i])
    front = _kung(order, matrix)
    # Divide and conquer can leave duplicates of the same point; also make
    # the result order stable by original index.
    front_set = sorted(set(front))
    # Re-admit exact duplicates of front vectors (mutual non-dominance).
    chosen = {keys[i] for i in front_set}
    result = [i for i in range(len(matrix)) if keys[i] in chosen]
    # The sweep orders by exact coordinates while dominates() grants a
    # _TIE tolerance; points whose leading coordinates differ by less than
    # the tolerance can both survive the sweep even though one
    # tie-dominates the other. A final tolerant filter restores the
    # invariant that front members are mutually non-dominated.
    return [
        i
        for i in result
        if not any(
            j != i and dominates(matrix[j], matrix[i]) for j in result
        )
    ]

