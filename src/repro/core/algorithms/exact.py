"""ExactMODis — the fixed-parameter tractable exact algorithm (Theorem 1).

The constructive proof of Theorem 1 outlines it: "(1) exhaust the runnings
of a skyline generator T ... and valuate at most N possible states; (2)
invoke a multi-objective optimizer such as Kung's algorithm." This is the
ground-truth baseline the approximation algorithms are tested against: a
full BFS over the running graph (both operator directions), valuation of
every reachable state within the budget, the exact Pareto front of those
states, and the user-range filter of the skyline definition.
"""

from __future__ import annotations

from collections import deque

from ..dominance import pareto_front
from ..state import State
from .base import SkylineAlgorithm


class ExactMODis(SkylineAlgorithm):
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

    def _search(self) -> None:
        space = self.config.space
        start = State(bits=space.universal_bits, level=0, via="s_U")
        self.graph.add_state(start)
        self._valuate(start)
        self._all_states.append(start)
        queue: deque[State] = deque([start])
        visited: set[int] = {start.bits}
        while queue and not self.budget_exhausted:
            parent = queue.popleft()
            if parent.level >= self.max_level:
                continue
            self.report.n_levels = max(self.report.n_levels, parent.level + 1)
            for child_bits, op in self.transducer.spawn(parent.bits, "forward"):
                if child_bits in visited:
                    continue
                visited.add(child_bits)
                child = State(
                    bits=child_bits,
                    level=parent.level + 1,
                    via=op,
                    parent_bits=parent.bits,
                )
                self.graph.add_state(child)
                self.graph.add_transition(parent.bits, child_bits, op)
                self.report.n_spawned += 1
                self._valuate(child)
                self._all_states.append(child)
                queue.append(child)
                if self.budget_exhausted:
                    self.report.terminated_by = "budget"
                    break
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
