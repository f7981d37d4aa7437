"""A distributed-MODis worker: budgeted local search over one partition.

Each worker owns a private :class:`~repro.core.config.Configuration`
(estimator and test history included — nothing is shared) and runs
:class:`~repro.core.algorithms.apx.ApxMODis` over a fixed level-1
frontier: OpGen at ``s_U`` lists only the worker's assigned seeds, and
every deeper level expands exactly as single-node ApxMODis does. It
ships its local ε-skyline to the coordinator. Deeper states can be
reachable from several workers' seeds; shared-nothing workers may
therefore valuate a state twice across the cluster. The coordinator's
merge dedupes by bitmap, and the duplication shows up honestly in the
run statistics.

Execution-backend contract: a :class:`WorkerJob` closes over the
configuration *factory* (built fresh inside the worker, so a forked child
never shares an estimator with its siblings), while everything a worker
sends back — :class:`ShippedState` and :class:`WorkerResult` — is plain
picklable data that survives a process-pipe round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..core.algorithms.apx import ApxMODis
from ..core.config import Configuration
from ..core.state import State


class _WorkerApxMODis(ApxMODis):
    """ApxMODis whose OpGen at ``s_U`` lists only the worker's seeds."""

    name = "SeededApxMODis"

    def __init__(self, config, seeds, **kwargs):
        super().__init__(config, **kwargs)
        self.seeds = list(seeds)

    def _children(self, parent: State, direction: str) -> Iterable[tuple[int, str]]:
        if parent.level == 0:
            return self.seeds
        return super()._children(parent, direction)


@dataclass(slots=True)
class ShippedState:
    """One local-skyline member as sent over the (simulated) wire."""

    bits: int
    perf: np.ndarray
    via: str
    output_size: tuple[int, int]


@dataclass
class WorkerResult:
    """What one worker reports back to the coordinator."""

    worker_id: int
    shipped: list[ShippedState] = field(default_factory=list)
    n_valuated: int = 0
    n_spawned: int = 0
    elapsed_seconds: float = 0.0
    terminated_by: str = "exhausted"

    @property
    def n_messages(self) -> int:
        """Communication volume: local-skyline states shipped."""
        return len(self.shipped)


class Worker:
    """One shared-nothing worker of the distributed runtime."""

    def __init__(
        self,
        worker_id: int,
        config: Configuration,
        seeds,
        epsilon: float,
        budget: int,
        max_level: int,
    ):
        self.worker_id = worker_id
        self.config = config
        self.algorithm = _WorkerApxMODis(
            config, seeds, epsilon=epsilon, budget=budget, max_level=max_level
        )

    def run(self, verify: bool = False) -> WorkerResult:
        """Execute the local search and package the local ε-skyline."""
        self.algorithm.run(verify=verify)
        shipped = [
            ShippedState(
                bits=state.bits,
                perf=np.asarray(state.perf, dtype=float),
                via=state.via or "s_U",
                output_size=self.config.space.output_size(state.bits),
            )
            for state in self.algorithm.grid.states
            if state.perf is not None
        ]
        report = self.algorithm.report
        return WorkerResult(
            worker_id=self.worker_id,
            shipped=shipped,
            n_valuated=report.n_valuated,
            n_spawned=report.n_spawned,
            elapsed_seconds=report.elapsed_seconds,
            terminated_by=report.terminated_by,
        )


@dataclass
class WorkerJob:
    """Everything needed to run one worker, deferred until execution.

    The configuration factory is invoked *inside* :func:`run_worker_job`,
    so with a process backend each forked child builds its own private
    estimator and test history — shared-nothing by construction.
    """

    worker_id: int
    config_factory: Callable[[], Configuration]
    seeds: list[tuple[int, str]]
    epsilon: float
    budget: int
    max_level: int


def run_worker_job(job: WorkerJob) -> WorkerResult:
    """Backend entry point: build the worker, run it, return plain data."""
    return Worker(
        worker_id=job.worker_id,
        config=job.config_factory(),
        seeds=job.seeds,
        epsilon=job.epsilon,
        budget=job.budget,
        max_level=job.max_level,
    ).run(verify=False)
