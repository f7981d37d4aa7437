"""Sharded search jobs: scatter one submission, merge one skyline.

A ``shards=N`` submission fans one scenario out as ``N`` shard children
plus one coordinating *parent* job. Each child runs
:class:`~repro.distributed.worker.WorkerJob` — the seeded reduce-search
of the distributed runtime — over its slice of the level-1 frontier
(:func:`~repro.distributed.partition.partition_frontier`), with an equal
slice of the global valuation budget, and records its local ε-skyline as
its job result. When the last child finishes, the scheduler merges every
shipped state through :func:`~repro.distributed.coordinator.merge_skylines`
(dedupe by bitmap → fresh UPareto grid → exact
:func:`~repro.core.dominance.pareto_front`) into the parent's result.

Determinism: before merging, the union of shipped states is sorted by
bitmap. The ε-grid keeps one representative per cell and breaks exact
ties by insertion order, so canonicalizing the order makes the merged
skyline a pure function of the shipped *set* — a ``shards=4`` run whose
children exhaust their partitions merges bit-identically to the same
submission with ``shards=1`` (the classic distributed-skyline identity,
``skyline(∪ᵢ skyline(Sᵢ)) = skyline(∪ᵢ Sᵢ)``).

Everything a shard returns is plain JSON (bits as ints, perf as lists),
so shard results survive the journal, the process backend's pipe, and
``GET /v1/jobs/{id}`` unchanged.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.algorithms.base import skyline_entries
from ..distributed.coordinator import merge_skylines, verify_front
from ..distributed.partition import partition_frontier
from ..distributed.worker import ShippedState, WorkerJob, run_worker_job
from ..exceptions import ServiceError
from ..obs import ProgressEmitter, SpanCollector, span, use_collector, use_emitter
from ..obs.profiling import profile_to_file
from ..scenarios.factory import ResolvedScenario

#: ``algorithm`` reported on merged parent results.
SHARDED_ALGORITHM = "ShardedMODis"


def shard_budget(budget: int, n_shards: int) -> int:
    """Each shard's slice of the global valuation budget (at least 1)."""
    return max(1, budget // n_shards)


class ShardRun:
    """The backend unit for one shard: seeded local search, plain result.

    Mirrors the scheduler's ``_JobRun`` contract — fork-friendly and
    returning only JSON-able data — but runs the distributed worker's
    seeded search over partition ``shard_index`` of ``n_shards`` instead
    of the scenario's single-node algorithm. Like ``_JobRun``, it
    installs a span collector for the duration of the run, so the
    seeded search's per-phase spans come back as the ``"spans"`` list
    (which the scheduler persists as the shard child's trace).
    """

    __slots__ = (
        "resolved", "n_shards", "shard_index", "job_id", "profile_path",
        "progress_fd",
    )

    def __init__(
        self,
        resolved: ResolvedScenario,
        n_shards: int,
        shard_index: int,
        job_id: str | None = None,
        profile_path: str | None = None,
        progress_fd: int | None = None,
    ):
        if not 0 <= shard_index < n_shards:
            raise ServiceError(
                f"shard_index {shard_index} outside 0..{n_shards - 1}"
            )
        self.resolved = resolved
        self.n_shards = n_shards
        self.shard_index = shard_index
        self.job_id = job_id
        self.profile_path = profile_path
        self.progress_fd = progress_fd

    def __call__(self) -> dict[str, Any]:
        spec = self.resolved.spec
        task = self.resolved.task
        collector = SpanCollector()
        emitter_cm = (
            use_emitter(ProgressEmitter(self.progress_fd))
            if self.progress_fd is not None
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with use_collector(collector), profile_to_file(
            self.profile_path
        ), emitter_cm:
            with span(
                "run", job_id=self.job_id, shard_index=self.shard_index
            ):
                with span("partition-frontier"):
                    seeds = partition_frontier(task.space, self.n_shards)[
                        self.shard_index
                    ]
                result = run_worker_job(
                    WorkerJob(
                        worker_id=self.shard_index,
                        config_factory=lambda: task.build_config(
                            estimator=spec.estimator,
                            n_bootstrap=spec.n_bootstrap,
                        ),
                        seeds=seeds,
                        epsilon=spec.epsilon,
                        budget=shard_budget(spec.budget, self.n_shards),
                        max_level=spec.max_level,
                    )
                )
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
    states = []
    for item in payload.get("shipped", []):
        states.append(
            ShippedState(
                bits=int(item["bits"]),
                perf=np.asarray(item["perf"], dtype=float),
                via=str(item.get("via") or "s_U"),
                output_size=tuple(item.get("output_size") or (0, 0)),
            )
        )
    return states


def merge_shard_results(
    resolved: ResolvedScenario,
    shard_payloads: Sequence[Mapping[str, Any]],
    verify: bool | None = None,
) -> dict[str, Any]:
    """Fold every shard's local skyline into the parent's result payload.

    The union is sorted by bitmap before the grid pass (see the module
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
    shipped = sorted(
        (
            state
            for payload in shard_payloads
            for state in _shipped_from_payload(payload)
        ),
        key=lambda state: state.bits,
    )
    merge_start = time.perf_counter()
    merged = merge_skylines([shipped], measures, spec.epsilon)
    if verify and merged:
        oracle = task.build_config(
            estimator=spec.estimator, n_bootstrap=spec.n_bootstrap
        ).oracle
        if oracle is not None:
            merged = verify_front(merged, oracle, task.space, measures)
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
