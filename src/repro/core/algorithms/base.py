"""Shared machinery for the MODis algorithms.

Defines the result types every algorithm returns and the
:class:`SkylineAlgorithm` base class: budget accounting (the paper's N),
level bookkeeping (maxl), valuation through the configured estimator, the
UPareto ε-grid, and running-graph recording.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...exceptions import SearchError
from ...obs import (
    current_emitter,
    emit,
    emit_partial,
    events_enabled,
    heartbeat,
    span,
)
from ..config import Configuration
from ..dominance import SkylineGrid, pareto_front
from ..estimator import store_or_train
from ..measures import MeasureSet
from ..state import State
from ..transducer import RunningGraph, SearchSpace, Transducer


@dataclass(slots=True)
class SkylineEntry:
    """One output dataset: its state, performance, and provenance."""

    state: State
    perf: dict[str, float]
    output_size: tuple[int, int]
    description: str

    @property
    def bits(self) -> int:
        return self.state.bits


def skyline_entries(
    states: list[State], measures: MeasureSet, space: SearchSpace
) -> list[SkylineEntry]:
    """The result entries for ``states``, best-first by performance."""
    return [
        SkylineEntry(
            state=state,
            perf=measures.as_dict(state.perf),
            output_size=space.output_size(state.bits),
            description=state.via or "s_U",
        )
        for state in sorted(states, key=lambda s: tuple(s.perf))
    ]


@dataclass
class AlgorithmReport:
    """Run statistics: budget usage, pruning, wall time."""

    algorithm: str
    n_valuated: int = 0
    n_spawned: int = 0
    n_pruned: int = 0
    n_levels: int = 0
    elapsed_seconds: float = 0.0
    terminated_by: str = "exhausted"
    extras: dict[str, Any] = field(default_factory=dict)


class DiscoveryResult:
    """An ε-skyline set of datasets plus the run report."""

    def __init__(
        self,
        entries: list[SkylineEntry],
        measures: MeasureSet,
        report: AlgorithmReport,
        running_graph: RunningGraph,
        epsilon: float,
    ):
        self.entries = entries
        self.measures = measures
        self.report = report
        self.running_graph = running_graph
        self.epsilon = epsilon

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def best_by(self, measure: str) -> SkylineEntry:
        """The entry with the smallest (best) normalized value of a measure.

        Mirrors the paper's reporting: "we select the table in the Skyline
        set with the best estimated p_Acc ..." per task.
        """
        if not self.entries:
            raise SearchError("empty skyline set")
        index = self.measures.index_of(measure)
        return min(self.entries, key=lambda e: e.state.perf[index])

    def perf_matrix(self) -> np.ndarray:
        """(n_entries, |P|) matrix of normalized performance vectors."""
        if not self.entries:
            return np.zeros((0, len(self.measures)))
        return np.stack([e.state.perf for e in self.entries])

    def to_rows(self) -> list[dict[str, Any]]:
        """Flat rows for printing/benchmark tables."""
        rows = []
        for entry in self.entries:
            row: dict[str, Any] = {"dataset": entry.description}
            row.update({k: round(v, 4) for k, v in entry.perf.items()})
            row["output_size"] = entry.output_size
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return (
            f"DiscoveryResult({self.report.algorithm}, {len(self.entries)} "
            f"datasets, N={self.report.n_valuated}, "
            f"{self.report.elapsed_seconds:.2f}s)"
        )


class SkylineAlgorithm(abc.ABC):
    """Base class: one ``run()`` producing a :class:`DiscoveryResult`.

    Parameters shared by all variants (Section 5):

    * ``epsilon`` — the ε of the ε-skyline approximation;
    * ``budget`` — N, the maximum number of states valuated;
    * ``max_level`` — maxl, the maximum path length explored.
    """

    name = "base"

    #: Whether _make_result thins the grid to mutually non-dominated states.
    #: DivMODis turns this off: diversification deliberately retains
    #: "less optimal but more different" datasets (Section 5.4).
    thin_front = True

    def __init__(
        self,
        config: Configuration,
        epsilon: float = 0.1,
        budget: int = 200,
        max_level: int = 6,
    ):
        if epsilon <= 0:
            raise SearchError("epsilon must be positive")
        if budget < 1:
            raise SearchError("budget N must be >= 1")
        if max_level < 1:
            raise SearchError("max_level must be >= 1")
        self.config = config
        self.epsilon = float(epsilon)
        self.budget = int(budget)
        self.max_level = int(max_level)
        self.transducer = Transducer(config.space)
        self.grid = SkylineGrid(config.measures, self.epsilon)
        self.graph = RunningGraph()
        self.report = AlgorithmReport(algorithm=self.name)
        self._run_valuated: set[int] = set()

    # -- valuation ---------------------------------------------------------------
    def _valuate(self, state: State) -> np.ndarray:
        """Valuate via the estimator, counting budget per distinct state."""
        return self._valuate_batch([state])[0]

    def _valuate_batch(self, states: list[State]) -> np.ndarray:
        """Valuate many states in one estimator call (row i ↔ states[i]).

        Budget accounting matches the sequential path exactly: a state
        counts when it was not yet in T (first occurrence only) or has not
        been valuated by *this* run before.
        """
        if not states:
            return np.zeros((0, len(self.config.measures)))
        estimator = self.config.estimator
        fresh = {s.bits for s in states if s.bits not in estimator.store}
        with span("valuate", n_states=len(states), n_fresh=len(fresh)):
            perfs = estimator.valuate_batch(
                [s.bits for s in states], self.config.space
            )
        for state, perf in zip(states, perfs):
            state.perf = perf
            if state.bits in fresh:
                fresh.discard(state.bits)  # later duplicates hit the memo
                self._run_valuated.add(state.bits)
                self.report.n_valuated += 1
            elif state.bits not in self._run_valuated:
                self._run_valuated.add(state.bits)
                self.report.n_valuated += 1
        # Liveness tick for the scheduler: rate-limited inside the
        # emitter, constant-time no-op when none is installed.
        heartbeat(n_valuated=self.report.n_valuated, budget=self.budget)
        return perfs

    @property
    def budget_exhausted(self) -> bool:
        return self.report.n_valuated >= self.budget

    # -- live progress ------------------------------------------------------------
    def _progress_counters(self) -> dict[str, Any]:
        """Counters shipped with every progress event."""
        return {
            "algorithm": self.name,
            "level": self.report.n_levels,
            "n_valuated": self.report.n_valuated,
            "n_spawned": self.report.n_spawned,
            "n_pruned": self.report.n_pruned,
            "budget": self.budget,
            "front_size": len(self.grid.states),
        }

    def _partial_entries(
        self, states: list[State] | None = None
    ) -> list[dict[str, Any]]:
        """``states`` (default: the grid's) as JSON-ready partial-skyline
        entries.

        Unlike :meth:`_make_result`, the grid is *not* thinned and the
        perfs are estimates, not verified oracle values — partial results
        are progress telemetry, documented as such in the service API.
        """
        if states is None:
            states = self.grid.states
        states = sorted(
            (s for s in states if s.perf is not None),
            key=lambda s: tuple(s.perf),
        )
        # Same entry shape as repro.report.entry_payload (minus the
        # materialization-only keys), so clients render partial and final
        # skylines with the same code.
        return [
            {
                "description": s.via or "s_U",
                "bits": hex(s.bits),
                "performance": self.config.measures.as_dict(s.perf),
            }
            for s in states
        ]

    def _emit_level_progress(
        self, states: list[State] | None = None, **counters: Any
    ) -> None:
        """Publish progress counters + a refreshed partial skyline.

        Called by subclasses at each level/generation boundary; ``states``
        and ``counters`` override the grid's states and the default
        counters. Skips the (comparatively expensive) snapshot assembly
        entirely when no emitter is installed, so library use pays only
        this guard.
        """
        if not events_enabled() or current_emitter() is None:
            return
        emit("progress", **{**self._progress_counters(), **counters})
        emit_partial(self._partial_entries(states))

    # -- result assembly -----------------------------------------------------------
    def _make_result(self) -> DiscoveryResult:
        states = [s for s in self.grid.states if s.perf is not None]
        # The grid is an ε-cover; thin it to mutually non-dominated members
        # (removing a dominated member keeps the cover: its dominator stays).
        if states and self.thin_front:
            with span("pareto-thin", n_grid=len(states)) as thin_span:
                front = pareto_front([s.perf for s in states])
                states = [states[i] for i in front]
                thin_span.set_attr(n_front=len(states))
        return self._result(states)

    def _result(self, states: list[State]) -> DiscoveryResult:
        """Wrap the finished ``states`` and this run's report."""
        return DiscoveryResult(
            entries=skyline_entries(
                states, self.config.measures, self.config.space
            ),
            measures=self.config.measures,
            report=self.report,
            running_graph=self.graph,
            epsilon=self.epsilon,
        )

    # -- verification -----------------------------------------------------------------
    def _verification_targets(self) -> list[State]:
        return self.grid.states

    def _verify(self) -> None:
        """Re-valuate the output states with the true oracle.

        This is the paper's reporting protocol ("we apply model inference to
        all the output tables to report actual performance values"): the
        search navigates on estimates, but the final skyline carries ground
        truth. Skipped when the configuration has no oracle or a target was
        already oracle-valuated.
        """
        config = self.config
        if config.oracle is None:
            return
        calls = 0
        targets = self._verification_targets()
        with span("verify", n_targets=len(targets)) as verify_span:
            for state in targets:
                state.perf, trained = store_or_train(
                    config.estimator.store,
                    config.measures,
                    config.space,
                    config.oracle,
                    state.bits,
                )
                calls += trained
            verify_span.set_attr(oracle_calls=calls)
        self.report.extras["verification_calls"] = calls

    # -- template method ---------------------------------------------------------------
    def run(self, verify: bool = True) -> DiscoveryResult:
        """Execute the search; with ``verify`` (default), re-score the final
        skyline states with real model training before returning."""
        start = time.perf_counter()
        with span("search", algorithm=self.name) as search_span:
            self._search()
            search_span.set_attr(
                n_valuated=self.report.n_valuated,
                terminated_by=self.report.terminated_by,
            )
        if verify:
            self._verify()
        self.report.elapsed_seconds = time.perf_counter() - start
        return self._make_result()

    @abc.abstractmethod
    def _search(self) -> None:
        """Populate the grid/graph; set ``report.terminated_by``."""
