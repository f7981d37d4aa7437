"""Distributed skyline data generation (the paper's stated future work).

Section 7: "Another topic is to extend MODis for distributed Skyline data
generation." This package implements that extension as a shared-nothing
runtime:

* :mod:`repro.distributed.partition` — splits the level-1 operator
  frontier of the universal state across workers (each worker owns the
  subtrees rooted at its assigned first reductions);
* :mod:`repro.distributed.worker` — a worker runs ApxMODis over a fixed
  level-1 frontier (its partition's seeds) with a slice of the budget and
  its *own* estimator and history (no shared state), then ships only its
  local ε-skyline to the coordinator;
* :mod:`repro.distributed.coordinator` — :class:`DistributedMODis`
  executes all workers through a pluggable execution backend
  (:mod:`repro.exec`: serial, thread pool, or forked processes), merges
  the local skylines (the skyline of a union equals the skyline of the
  union of local skylines — the classic distributed-skyline merge
  property), and reports per-worker statistics, message counts, the
  *measured* wall-clock speedup of the chosen backend, and the simulated
  ideal makespan.

Whatever the backend, the distributed semantics that matter are
preserved: disjoint exploration frontiers, private estimators, and
communication limited to picklable local skyline sets.
"""

from .coordinator import DistributedMODis, DistributedReport, merge_skylines
from .partition import partition_frontier
from .worker import Worker, WorkerJob, WorkerResult, run_worker_job

__all__ = [
    "DistributedMODis",
    "DistributedReport",
    "Worker",
    "WorkerJob",
    "WorkerResult",
    "merge_skylines",
    "partition_frontier",
    "run_worker_job",
]
