"""The distributed-MODis coordinator: scatter, search, merge.

:class:`DistributedMODis` drives the whole run:

1. **scatter** — partition the level-1 frontier of ``s_U`` across workers
   (:func:`~repro.distributed.partition.partition_frontier`), giving each
   worker an equal share of the global valuation budget;
2. **search** — every worker runs its budgeted local search with a private
   configuration built by the caller's factory (private estimator, private
   history — shared-nothing);
3. **merge** — local ε-skylines are unioned, deduped by bitmap, pushed
   through a fresh UPareto grid and thinned to the exact Pareto front.
   Correctness rests on the classic distributed-skyline identity:
   ``skyline(∪ᵢ Sᵢ) = skyline(∪ᵢ skyline(Sᵢ))``.

Workers run through a pluggable execution backend
(:mod:`repro.exec`): serially, on a thread pool, or as forked processes
with picklable result round-trips. The report carries both the *measured*
wall-clock of the scatter/search phase (real speedup with a parallel
backend) and the *simulated* makespan (slowest worker + merge), so
benchmarks can compare the two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.algorithms.base import AlgorithmReport, DiscoveryResult, skyline_entries
from ..core.config import Configuration
from ..core.dominance import SkylineGrid, pareto_front
from ..core.estimator import oracle_artifact
from ..core.state import State
from ..core.transducer import RunningGraph
from ..exceptions import SearchError
from ..exec import Backend, make_backend
from .partition import partition_frontier, shard_budget
from .worker import ShippedState, WorkerJob, WorkerResult, run_worker_job


def merge_skylines(
    shipped: Sequence[Sequence[ShippedState]],
    measures,
    epsilon: float,
) -> list[State]:
    """Merge workers' local ε-skylines into one global skyline state list.

    Dedupe by bitmap (shared-nothing workers can valuate the same state;
    the first shipped copy wins), re-run UPareto over the union in
    descending bitmap order, then thin to the exact Pareto front — the same
    finishing step every MODis algorithm applies.

    The ε-grid keeps one representative per cell and breaks exact ties by
    insertion order, so a fixed order makes the merged skyline a pure
    function of the shipped *set*: worker order (``DistributedMODis``) and
    shard order (sharded jobs) cannot change it. Descending bitmaps come
    roughly in the order a forward search from ``s_U`` meets them (its
    first reductions clear the lowest bits), so ties tend to resolve as in
    one ApxMODis run over the whole space.
    """
    by_bits: dict[int, ShippedState] = {}
    for batch in shipped:
        for item in batch:
            by_bits.setdefault(item.bits, item)
    if not by_bits:
        return []
    grid = SkylineGrid(measures, epsilon)
    for _, item in sorted(by_bits.items(), reverse=True):
        state = State(bits=item.bits, perf=item.perf, via=item.via)
        grid.update(state)
    states = [s for s in grid.states if s.perf is not None]
    front = pareto_front([s.perf for s in states])
    return [states[i] for i in front]


def verify_front(states: list[State], oracle, space, measures) -> list[State]:
    """Re-score merged states with the true oracle, then re-thin them —
    the finishing step of both :class:`DistributedMODis` and sharded jobs."""
    for state in states:
        raw = oracle(oracle_artifact(space, oracle, state.bits))
        state.perf = measures.normalize_raw(raw)
    if not states:
        return states
    front = pareto_front([s.perf for s in states])
    return [states[i] for i in front]


@dataclass
class DistributedReport:
    """Cluster-level run statistics."""

    n_workers: int
    worker_results: list[WorkerResult] = field(default_factory=list)
    merge_seconds: float = 0.0
    backend: str = "serial"
    #: Measured wall-clock of the scatter/search phase (all workers, as
    #: actually executed by the backend) — not simulated.
    search_wall_seconds: float = 0.0

    @property
    def total_valuated(self) -> int:
        return sum(w.n_valuated for w in self.worker_results)

    @property
    def distinct_shipped(self) -> int:
        return len(
            {s.bits for w in self.worker_results for s in w.shipped}
        )

    @property
    def n_messages(self) -> int:
        return sum(w.n_messages for w in self.worker_results)

    @property
    def sequential_seconds(self) -> float:
        return sum(w.elapsed_seconds for w in self.worker_results)

    @property
    def parallel_seconds(self) -> float:
        """Simulated makespan: slowest worker plus the merge."""
        slowest = max(
            (w.elapsed_seconds for w in self.worker_results), default=0.0
        )
        return slowest + self.merge_seconds

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return 1.0
        return self.sequential_seconds / self.parallel_seconds

    @property
    def measured_speedup(self) -> float:
        """Average worker concurrency actually achieved by the backend.

        Summed per-worker wall over the measured search wall: ~1.0 for the
        serial backend, approaching :attr:`speedup` for thread/process
        backends on free cores. Caveat: when workers contend for cores,
        each worker's own wall inflates with scheduler wait, so this
        measures concurrency, not end-to-end gain — for true speedup,
        compare :attr:`search_wall_seconds` across backends (what
        ``bench_backend_speedup`` asserts on).
        """
        if self.search_wall_seconds <= 0:
            return 1.0
        return self.sequential_seconds / self.search_wall_seconds


class DistributedMODis:
    """Distributed skyline data generation over ``n_workers`` partitions.

    ``config_factory`` builds a fresh private configuration per worker
    (its estimator must not be shared); the coordinator's own
    configuration (worker id ``None``) is used only for measure metadata
    and final verification.

    ``backend`` selects how workers execute (``"serial"``, ``"thread"``,
    ``"process"``, or a ready :class:`~repro.exec.Backend` instance) with
    ``n_jobs`` concurrent slots; when omitted, both fall back to the
    coordinator configuration's ``backend``/``n_jobs`` knobs.
    """

    name = "DistributedMODis"

    def __init__(
        self,
        config_factory: Callable[[], Configuration],
        n_workers: int = 4,
        epsilon: float = 0.1,
        budget: int = 200,
        max_level: int = 6,
        backend: str | Backend | None = None,
        n_jobs: int | None = None,
    ):
        if n_workers < 1:
            raise SearchError("n_workers must be >= 1")
        if budget < n_workers:
            raise SearchError("budget must be at least one state per worker")
        self.config_factory = config_factory
        self.n_workers = int(n_workers)
        self.epsilon = float(epsilon)
        self.budget = int(budget)
        self.max_level = int(max_level)
        self.coordinator_config = config_factory()
        if backend is None:
            backend = self.coordinator_config.backend
        if n_jobs is None:
            n_jobs = self.coordinator_config.n_jobs
        self.backend = make_backend(backend, n_jobs)
        self.report = DistributedReport(
            n_workers=self.n_workers, backend=self.backend.name
        )

    # -- run ---------------------------------------------------------------------
    def run(self, verify: bool = True) -> DiscoveryResult:
        """Scatter, run every worker, merge, and (optionally) oracle-verify."""
        start = time.perf_counter()
        space = self.coordinator_config.space
        partitions = partition_frontier(space, self.n_workers)
        jobs = [
            WorkerJob(
                worker_id=worker_id,
                config_factory=self.config_factory,
                seeds=seeds,
                epsilon=self.epsilon,
                budget=shard_budget(self.budget, self.n_workers),
                max_level=self.max_level,
            )
            for worker_id, seeds in enumerate(partitions)
            if seeds
        ]
        search_start = time.perf_counter()
        results = self.backend.map(run_worker_job, jobs)
        self.report.search_wall_seconds = time.perf_counter() - search_start
        shipped: list[list[ShippedState]] = []
        for result in results:
            self.report.worker_results.append(result)
            shipped.append(result.shipped)
        merge_start = time.perf_counter()
        merged = merge_skylines(
            shipped, self.coordinator_config.measures, self.epsilon
        )
        self.report.merge_seconds = time.perf_counter() - merge_start
        config = self.coordinator_config
        if verify and config.oracle is not None:
            merged = verify_front(
                merged, config.oracle, config.space, config.measures
            )
        graph = RunningGraph()
        for state in merged:
            graph.add_state(state)
        algo_report = AlgorithmReport(
            algorithm=self.name,
            n_valuated=self.report.total_valuated,
            n_spawned=sum(w.n_spawned for w in self.report.worker_results),
            n_levels=self.max_level,
            elapsed_seconds=time.perf_counter() - start,
            terminated_by="merged",
            extras={
                "n_workers": self.n_workers,
                "backend": self.backend.name,
                "n_jobs": self.backend.n_jobs,
                "n_messages": self.report.n_messages,
                "sequential_seconds": round(self.report.sequential_seconds, 4),
                "parallel_seconds": round(self.report.parallel_seconds, 4),
                "speedup": round(self.report.speedup, 2),
                "search_wall_seconds": round(
                    self.report.search_wall_seconds, 4
                ),
                "measured_speedup": round(self.report.measured_speedup, 2),
            },
        )
        return DiscoveryResult(
            entries=skyline_entries(merged, config.measures, config.space),
            measures=config.measures,
            report=algo_report,
            running_graph=graph,
            epsilon=self.epsilon,
        )
