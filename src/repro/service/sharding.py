"""Sharded search jobs: scatter one submission, merge one skyline.

A ``shards=N`` submission fans one scenario out as ``N`` shard children
plus one coordinating *parent* job. Each child runs the distributed
:class:`~repro.distributed.worker.Worker` — ApxMODis over a fixed level-1
frontier, its slice of
:func:`~repro.distributed.partition.partition_frontier` — with an equal
slice of the global valuation budget
(:func:`~repro.distributed.partition.shard_budget`), and records its
local ε-skyline as its job result. When the last child finishes, the
scheduler merges every shipped state through
:func:`~repro.distributed.coordinator.merge_skylines` (dedupe by bitmap →
fresh UPareto grid → exact :func:`~repro.core.dominance.pareto_front`)
into the parent's result.

Determinism: ``merge_skylines`` feeds the union of shipped states to the
ε-grid in bitmap order. The grid keeps one representative per cell and
breaks exact ties by insertion order, so canonicalizing the order makes the
merged skyline a pure function of the shipped *set* — a ``shards=4`` run whose
children exhaust their partitions merges bit-identically to the same
submission with ``shards=1`` (the classic distributed-skyline identity,
``skyline(∪ᵢ skyline(Sᵢ)) = skyline(∪ᵢ Sᵢ)``).

Everything a shard returns is plain JSON (bits as ints, perf as lists),
so shard results survive the journal, the process backend's pipe, and
``GET /v1/jobs/{id}`` unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.algorithms.base import skyline_entries
from ..distributed.coordinator import merge_skylines, verify_front
from ..distributed.partition import partition_frontier, shard_budget
from ..distributed.worker import ShippedState, Worker
from ..exceptions import ServiceError
from ..obs import span
from ..obs.profiling import observe_job
from ..scenarios.factory import ResolvedScenario

#: ``algorithm`` reported on merged parent results.
SHARDED_ALGORITHM = "ShardedMODis"


@dataclass(slots=True)
class ShardRun:
    """The backend unit for one shard: ApxMODis over its seeds, plain result.

    Mirrors the scheduler's ``_JobRun`` contract (fork-friendly, plain
    JSON-able result, run under :func:`~repro.obs.profiling.observe_job`)
    but runs the distributed worker — ApxMODis whose level-1 frontier is
    partition ``shard_index`` of ``n_shards`` — instead of the scenario's
    single-node algorithm. Its ``"spans"`` become the shard child's trace.
    """

    resolved: ResolvedScenario
    n_shards: int
    shard_index: int
    job_id: str | None = None
    profile_path: str | None = None
    progress_fd: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.n_shards:
            raise ServiceError(
                f"shard_index {self.shard_index} outside "
                f"0..{self.n_shards - 1}"
            )

    def __call__(self) -> dict[str, Any]:
        spec = self.resolved.spec
        task = self.resolved.task
        start = time.perf_counter()
        with observe_job(
            self.profile_path,
            self.progress_fd,
            job_id=self.job_id,
            shard_index=self.shard_index,
        ) as collector:
            with span("partition-frontier"):
                seeds = partition_frontier(task.space, self.n_shards)[
                    self.shard_index
                ]
            result = Worker(
                worker_id=self.shard_index,
                config=task.build_config(
                    estimator=spec.estimator, n_bootstrap=spec.n_bootstrap
                ),
                seeds=seeds,
                epsilon=spec.epsilon,
                budget=shard_budget(spec.budget, self.n_shards),
                max_level=spec.max_level,
            ).run()
        return {
            "spans": collector.spans,
            "spans_dropped": collector.dropped,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "shipped": [
                {
                    "bits": int(state.bits),
                    "perf": [float(v) for v in state.perf],
                    "via": state.via,
                    "output_size": list(state.output_size),
                }
                for state in result.shipped
            ],
            "n_valuated": result.n_valuated,
            "n_spawned": result.n_spawned,
            "terminated_by": result.terminated_by,
            "seconds": time.perf_counter() - start,
        }


def _shipped_from_payload(payload: Mapping[str, Any]) -> list[ShippedState]:
    """Rebuild a shard result's shipped states from their JSON form."""
    return [
        ShippedState(
            bits=int(item["bits"]),
            perf=np.asarray(item["perf"], dtype=float),
            via=str(item.get("via") or "s_U"),
            output_size=tuple(item.get("output_size") or (0, 0)),
        )
        for item in payload.get("shipped", [])
    ]


def merge_shard_results(
    resolved: ResolvedScenario,
    shard_payloads: Sequence[Mapping[str, Any]],
    verify: bool | None = None,
) -> dict[str, Any]:
    """Fold every shard's local skyline into the parent's result payload.

    The union enters the grid in bitmap order (see the module
    docstring), optionally re-scored against the true oracle by
    :func:`~repro.distributed.coordinator.verify_front` (defaults to the
    spec's ``verify`` flag), and rendered in the exact
    shape of :func:`repro.report.build_payload` — ``GET /v1/results/{id}``
    looks the same for sharded and ordinary jobs.
    """
    spec = resolved.spec
    task = resolved.task
    measures = task.measures
    if verify is None:
        verify = spec.verify
    shipped = [_shipped_from_payload(payload) for payload in shard_payloads]
    merge_start = time.perf_counter()
    merged = merge_skylines(shipped, measures, spec.epsilon)
    if verify and merged and task.oracle is not None:
        merged = verify_front(merged, task.oracle, task.space, measures)
    # Entries are ordered by (performance, bitmap): skyline_entries'
    # stable sort keeps this bitmap order among equal performances.
    merged.sort(key=lambda state: state.bits)
    entries = [
        {
            "description": entry.description,
            "bits": hex(entry.bits),
            "performance": entry.perf,
            "output_size": list(entry.output_size),
        }
        for entry in skyline_entries(merged, measures, task.space)
    ]
    return {
        "algorithm": SHARDED_ALGORITHM,
        "epsilon": spec.epsilon,
        "measures": list(measures.names),
        "n_valuated": sum(
            int(p.get("n_valuated", 0)) for p in shard_payloads
        ),
        "n_pruned": 0,
        "elapsed_seconds": sum(
            float(p.get("seconds", 0.0)) for p in shard_payloads
        ),
        "terminated_by": "merged",
        "entries": entries,
        "shards": {
            "n_shards": len(shard_payloads),
            "merge_seconds": time.perf_counter() - merge_start,
            "per_shard": [
                {
                    "shard_index": p.get("shard_index"),
                    "n_valuated": p.get("n_valuated", 0),
                    "n_shipped": len(p.get("shipped", [])),
                    "terminated_by": p.get("terminated_by", ""),
                    "seconds": p.get("seconds", 0.0),
                }
                for p in sorted(
                    shard_payloads,
                    key=lambda p: p.get("shard_index") or 0,
                )
            ],
        },
    }
