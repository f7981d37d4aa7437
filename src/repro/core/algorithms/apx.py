"""ApxMODis — the (N, ε)-approximation by "reduce-from-universal" (Alg. 1).

Starts from the universal state ``s_U`` (all bitmap entries active — the
outer join of all sources) and explores level-wise, spawning children by
flipping one active entry off (a Reduct) per OpGen. Every spawned state is
valuated and offered to the UPareto ε-grid; the search stops when N states
are valuated, maxl levels are exhausted, or no new state can be generated.

This is the package's one level-wise search loop. Variants override its
steps, never the loop: BiMODis adds a backward frontier (``_seeds``) and
Lemma 4 pruning (``_can_prune``), DivMODis diversifies at
``_end_of_level``, ExactMODis keeps every state at ``_admit``, and
distributed workers restrict OpGen at ``s_U`` (``_children``).
"""

from __future__ import annotations

from typing import Iterable

from ...obs import span
from ..state import State
from .base import SkylineAlgorithm


class ApxMODis(SkylineAlgorithm):
    """Algorithm 1 of the paper."""

    name = "ApxMODis"

    # -- override steps -------------------------------------------------------------
    def _seeds(self) -> dict[str, list[tuple[int, str]]]:
        """Each direction's level-0 ``(bits, via)`` seeds, in visit order."""
        return {"forward": [(self.config.space.universal_bits, "s_U")]}

    def _children(self, parent: State, direction: str) -> Iterable[tuple[int, str]]:
        """OpGen: the ``(child_bits, op)`` successors of ``parent``."""
        return self.transducer.spawn(parent.bits, direction)

    def _can_prune(self, bits: int) -> bool:
        """Whether a spawned state may be skipped unvaluated."""
        return False

    def _admit(self, state: State) -> None:
        """Hook: take in one freshly valuated state (already in the grid)."""

    def _end_of_level(self, level: int) -> None:
        """Hook: runs after each level, before its progress event."""

    # -- the loop ----------------------------------------------------------------------
    def _visit(self, bits: int, via: str, parent: State | None = None) -> State:
        """Record, valuate and admit one state (a seed when no ``parent``)."""
        state = State(
            bits=bits,
            level=0 if parent is None else parent.level + 1,
            via=via,
            parent_bits=None if parent is None else parent.bits,
        )
        self.graph.add_state(state)
        if parent is not None:
            self.graph.add_transition(parent.bits, bits, via)
        self._valuate(state)
        self.grid.update(state)
        self._admit(state)
        return state

    def _expand(self, frontier: list[State], direction: str, visited: set[int]) -> list[State]:
        """One level of one frontier; returns the next frontier."""
        next_frontier: list[State] = []
        for parent in frontier:
            if self.budget_exhausted:
                self.report.terminated_by = "budget"
                return next_frontier
            for child_bits, op in self._children(parent, direction):
                if child_bits in visited:
                    continue
                visited.add(child_bits)
                self.report.n_spawned += 1
                if self._can_prune(child_bits):
                    self.report.n_pruned += 1
                    continue
                next_frontier.append(self._visit(child_bits, op, parent))
                if self.budget_exhausted:
                    self.report.terminated_by = "budget"
                    return next_frontier
        return next_frontier

    def _search(self) -> None:
        frontiers = {
            direction: [self._visit(bits, via) for bits, via in seeds]
            for direction, seeds in self._seeds().items()
        }
        visited = {d: {s.bits for s in f} for d, f in frontiers.items()}
        for level in range(self.max_level):
            if self.budget_exhausted:
                self.report.terminated_by = "budget"
                break
            with span("level", level=level + 1) as level_span:
                frontiers = {
                    d: self._expand(f, d, visited[d])
                    for d, f in frontiers.items()
                }
                level_span.set_attr(
                    **{f"frontier_{d}": len(f) for d, f in frontiers.items()}
                )
            self.report.n_levels = level + 1
            self._end_of_level(level)
            self._emit_level_progress()
            if len(visited) > 1 and set.intersection(*visited.values()):
                self.report.terminated_by = "frontiers_met"
                break
            if not any(frontiers.values()):
                self.report.terminated_by = "exhausted"
                break
