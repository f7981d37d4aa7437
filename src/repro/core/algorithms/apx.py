"""ApxMODis — the (N, ε)-approximation by "reduce-from-universal" (Alg. 1).

Starts from the universal state ``s_U`` (all bitmap entries active — the
outer join of all sources) and explores level-wise, spawning children by
flipping one active entry off (a Reduct) per OpGen. Every spawned state is
valuated and offered to the UPareto ε-grid; the search stops when N states
are valuated, maxl levels are exhausted, or no new state can be generated.
It is the package's one forward reduce search: distributed workers
override :meth:`ApxMODis._children` at ``s_U``, ExactMODis overrides
:meth:`ApxMODis._admit`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ...obs import span
from ..state import State
from .base import SkylineAlgorithm


class ApxMODis(SkylineAlgorithm):
    """Algorithm 1 of the paper."""

    name = "ApxMODis"

    def _children(self, parent: State) -> Iterable[tuple[int, str]]:
        """OpGen: the ``(child_bits, op)`` reductions of ``parent``."""
        return self.transducer.spawn(parent.bits, "forward")

    def _admit(self, state: State) -> None:
        """Take in one freshly valuated state: offer it to the ε-grid."""
        self.grid.update(state)

    def _search(self) -> None:
        space = self.config.space
        start = State(bits=space.universal_bits, level=0, via="s_U")
        self.graph.add_state(start)
        self._valuate(start)
        self._admit(start)
        queue: deque[State] = deque([start])
        visited: set[int] = {start.bits}
        # BFS visits parents in level order, so one "level" span brackets
        # each batch of same-level expansions; opened/closed manually
        # because the level boundary is only visible at the next popleft.
        level_span = None
        current_level = -1
        try:
            while queue:
                if self.budget_exhausted:
                    self.report.terminated_by = "budget"
                    break
                parent = queue.popleft()
                if parent.level >= self.max_level:
                    continue
                if parent.level != current_level:
                    if level_span is not None:
                        level_span.__exit__(None, None, None)
                        self._emit_level_progress()
                    current_level = parent.level
                    level_span = span("level", level=parent.level + 1)
                    level_span.__enter__()
                self.report.n_levels = max(
                    self.report.n_levels, parent.level + 1
                )
                for child_bits, op in self._children(parent):
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
                    self._admit(child)
                    queue.append(child)
                    if self.budget_exhausted:
                        break
            else:
                self.report.terminated_by = "exhausted"
        finally:
            if level_span is not None:
                level_span.__exit__(None, None, None)
                self._emit_level_progress()
