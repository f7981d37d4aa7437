"""ExactMODis — the fixed-parameter tractable exact algorithm (Theorem 1).

The constructive proof of Theorem 1 outlines it: "(1) exhaust the runnings
of a skyline generator T ... and valuate at most N possible states; (2)
invoke a multi-objective optimizer such as Kung's algorithm." This is the
ground-truth baseline the approximation algorithms are tested against: the
reduce-from-universal BFS of :class:`ApxMODis` (forward Reducts from
``s_U``), keeping every valuated state within the budget instead of an
ε-grid, then the exact Pareto front of those states and the user-range
filter of the skyline definition.
"""

from __future__ import annotations

from ..dominance import pareto_front
from ..state import State
from .apx import ApxMODis


class ExactMODis(ApxMODis):
    """Exhaustive valuation + the exact Pareto front of the valuated states."""

    name = "ExactMODis"

    def __init__(self, config, epsilon: float = 0.1, budget: int = 500,
                 max_level: int = 10, enforce_ranges: bool = True):
        super().__init__(config, epsilon=epsilon, budget=budget, max_level=max_level)
        self.enforce_ranges = enforce_ranges
        self._all_states: list[State] = []
        self._front_states: list[State] = []

    def _verification_targets(self) -> list[State]:
        return self._front_states

    def _admit(self, state: State) -> None:
        # The ε-grid only feeds live progress (partial skyline, front
        # size); the result is the exact front of every admitted state.
        self._all_states.append(state)

    def _search(self) -> None:
        super()._search()
        # Exact skyline over all valuated states.
        candidates = self._all_states
        if self.enforce_ranges:
            candidates = [
                s
                for s in candidates
                if self.config.measures.within_ranges(s.perf)
            ]
            if not candidates:  # nothing satisfies the ranges: fall back
                candidates = self._all_states
        front = pareto_front([s.perf for s in candidates])
        self._front_states = [candidates[i] for i in front]

    def _make_result(self):
        """Assemble the exact front directly (no ε-grid approximation)."""
        return self._result(self._front_states)

    @property
    def all_valuated_states(self) -> list[State]:
        """Every state valuated during the run (tests compare against it)."""
        return list(self._all_states)
