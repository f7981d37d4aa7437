"""Dominance relations, exact skylines, and the ε-grid.

Implements Section 4's dominance/skyline definitions and Section 5.1's
ε-machinery:

* :func:`dominates` — Pareto dominance for minimize-me vectors;
  :func:`dominated_mask` is the same relation, vectorized and blocked;
* :func:`epsilon_dominates` — ``D' ⪰_ε D`` (every measure within a (1+ε)
  factor, at least one decisively no worse);
* :func:`pareto_front` — the exact maxima (a point survives iff nothing
  dominates it), computed by one kernel for every input size: the
  sort-first skyline :func:`_sfs_front`. Kung's divide and conquer
  (reference ``[24]`` of the paper) lives on as the test oracle in
  ``tests/reference/dominance.py``;
* :func:`is_skyline` — a checker for the Section 4 skyline conditions;
* :class:`SkylineGrid` — the UPareto procedure of Algorithm 1: one
  representative state per ε-grid cell (Equation 1), replaced only when a
  newcomer strictly improves the decisive measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import SearchError
from .measures import MeasureSet
from .state import State, grid_position

_TIE = 1e-12


def dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """``u`` dominates ``v``: u ≤ v everywhere and u < v somewhere."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise SearchError(f"vector shapes differ: {u.shape} vs {v.shape}")
    return bool(np.all(u <= v + _TIE) and np.any(u < v - _TIE))


def epsilon_dominates(u: np.ndarray, v: np.ndarray, epsilon: float) -> bool:
    """``u ⪰_ε v``: u ≤ (1+ε)·v for every measure and u ≤ v for at least one
    (the decisive measure p*, which "can be any p ∈ P", Section 5.1)."""
    if epsilon < 0:
        raise SearchError("epsilon must be non-negative")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise SearchError(f"vector shapes differ: {u.shape} vs {v.shape}")
    within_factor = np.all(u <= (1.0 + epsilon) * v + _TIE)
    decisively = np.any(u <= v + _TIE)
    return bool(within_factor and decisively)


# ---------------------------------------------------------------------------
# Exact skyline: sort-first skyline over one blocked dominance primitive
# ---------------------------------------------------------------------------


def dominated_mask(
    candidates: np.ndarray,
    dominators: np.ndarray | None = None,
    block_rows: int = 256,
) -> np.ndarray:
    """Mask over ``candidates`` rows: True where some ``dominators`` row
    dominates that candidate (``dominators=None``: the candidates
    themselves).

    The :func:`dominates` semantics, ``_TIE`` tolerance included,
    vectorized: blocks of candidates are broadcast against every
    dominator, so peak extra memory is ``O(len(dominators) · block_rows ·
    d)`` bools regardless of the candidate count.
    """
    if dominators is None:
        dominators = candidates
    out = np.zeros(candidates.shape[0], dtype=bool)
    rows = dominators[:, None, :]
    for start in range(0, candidates.shape[0], block_rows):
        block = candidates[None, start:start + block_rows, :]
        le = np.all(rows <= block + _TIE, axis=-1)
        lt = np.any(rows < block - _TIE, axis=-1)
        out[start:start + block_rows] = (le & lt).any(axis=0)
    return out


def _sfs_front(matrix: np.ndarray, block_rows: int = 256) -> list[int]:
    """Sort-first-skyline (SFS, survey arXiv:1704.01788).

    Points are visited in ascending order of their objective *sum* — a
    dominator's sum is (up to the tie tolerance) never larger than its
    victim's, so almost every point is knocked out by comparing against
    the small set of survivors seen so far instead of the whole input:
    ``O(f·n·d)`` work for a front of size ``f`` versus a plain scan's
    ``O(n²·d)``.

    The tolerant :func:`dominates` is *not* transitive and the sum order
    is only almost-aligned with it (a dominator's sum may exceed the
    victim's by up to ``(d-1)·_TIE``), so the presorted sweep alone is a
    prefilter, not the answer: it only ever discards points with a real
    dominator (always sound), and a final exact pass re-checks every
    survivor against the full input. The result is therefore exactly
    ``{i : no j dominates i}`` — for one measure, the points within
    ``_TIE`` of the minimum.
    """
    order = np.argsort(matrix.sum(axis=1), kind="stable")
    front_idx = np.empty(0, dtype=order.dtype)
    front_rows = np.empty((0, matrix.shape[1]), dtype=matrix.dtype)
    for start in range(0, matrix.shape[0], block_rows):
        chunk_idx = order[start:start + block_rows]
        chunk = matrix[chunk_idx]
        dominators = np.concatenate([front_rows, chunk])
        alive = ~dominated_mask(chunk, dominators, block_rows)
        front_idx = np.concatenate([front_idx, chunk_idx[alive]])
        front_rows = np.concatenate([front_rows, chunk[alive]])
    exact = ~dominated_mask(front_rows, matrix, block_rows)
    return sorted(front_idx[exact].tolist())


def pareto_front(vectors: Sequence[np.ndarray]) -> list[int]:
    """Indices of the Pareto-minimal vectors (exact skyline), ascending.

    A point is kept iff no vector in the input dominates it (under the
    ``_TIE``-tolerant :func:`dominates`); duplicates of a skyline vector
    are all kept (none dominates another). Every input goes through the
    sort-first skyline (:func:`_sfs_front`); the property suite pins it
    against Kung's divide and conquer (reference ``[24]`` of the paper),
    kept as a test oracle.
    """
    if len(vectors) == 0:
        return []
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if rows[0].ndim != 1 or any(r.shape != rows[0].shape for r in rows):
        raise SearchError("pareto_front expects same-length vectors")
    return _sfs_front(np.stack(rows))


def is_skyline(vectors: Sequence[np.ndarray], candidate: Sequence[int]) -> bool:
    """Check the Section 4 skyline conditions for a candidate index set."""
    candidate = list(candidate)
    matrix = [np.asarray(v, dtype=float) for v in vectors]
    for i in candidate:
        for j in candidate:
            if i != j and dominates(matrix[i], matrix[j]):
                return False
    for i in range(len(matrix)):
        if i in set(candidate):
            continue
        if not any(dominates(matrix[j], matrix[i]) or
                   np.allclose(matrix[j], matrix[i]) for j in candidate):
            return False
    return True


# ---------------------------------------------------------------------------
# UPareto: the ε-grid with decisive-measure replacement
# ---------------------------------------------------------------------------


@dataclass
class SkylineGrid:
    """One representative state per ε-grid cell (Algorithm 1's D_F).

    ``update`` implements UPareto lines 21-29: skip states violating an
    upper bound; compute pos(s) over the first |P|−1 measures; keep the
    newcomer only if its cell is empty or it strictly improves the decisive
    measure.
    """

    measures: MeasureSet
    epsilon: float
    cells: dict[tuple[int, ...], State] = field(default_factory=dict)
    skipped_out_of_bounds: int = 0
    replacements: int = 0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise SearchError("epsilon must be positive")
        self._lowers = np.array([m.lower for m in self.measures.grid_measures])
        self._decisive_idx = len(self.measures) - 1

    def update(self, state: State) -> bool:
        """Offer a valuated state; returns True if it entered the grid."""
        if state.perf is None:
            raise SearchError("cannot add an unvaluated state to the grid")
        if not self.measures.within_upper_bounds(state.perf):
            self.skipped_out_of_bounds += 1
            return False
        pos = grid_position(state.perf, self._lowers, self.epsilon)
        state.pos = pos
        incumbent = self.cells.get(pos)
        if incumbent is None:
            self.cells[pos] = state
            return True
        if state.perf[self._decisive_idx] < incumbent.perf[self._decisive_idx] - _TIE:
            self.cells[pos] = state
            self.replacements += 1
            return True
        return False

    def remove(self, state: State) -> None:
        """Drop a state (used by DivMODis' bounded-k replacement)."""
        if state.pos is not None and self.cells.get(state.pos) is state:
            del self.cells[state.pos]

    @property
    def states(self) -> list[State]:
        return list(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    def covers(self, perf: np.ndarray) -> bool:
        """Does some grid member ε-dominate this performance vector?

        This is the Lemma 2 invariant integration tests assert: every
        valuated state must be ε-covered by the output set.
        """
        return any(
            epsilon_dominates(s.perf, perf, self.epsilon) for s in self.cells.values()
        )
