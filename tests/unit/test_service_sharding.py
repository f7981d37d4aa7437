"""Sharded search jobs: fan-out, merge, lineage, and the shard identity.

The tentpole invariant lives here: a ``shards=N`` submission whose
children *exhaust* their partitions merges to a skyline bit-identical to
the same submission with ``shards=1`` — the distributed-skyline identity
``skyline(∪ᵢ skyline(Sᵢ)) = skyline(∪ᵢ Sᵢ)``, now through the service's
scatter/merge path (journal round-trip, canonical bitmap ordering,
deterministic entry sort). Around it: submission validation, parent
lifecycle and ``shard_jobs`` lineage, cancellation cascade, shard
failure → parent ``failure_reason="shard"``, and the shards metrics.
"""

import pytest

from repro.exceptions import (
    NotCancellableError,
    ServiceError,
)
from repro.exec import Backend
from repro.scenarios.spec import Scenario
from repro.service import (
    MAX_SHARDS,
    Scheduler,
    ShardRun,
    shard_budget,
    shards_from_request,
)
from repro.service.sharding import SHARDED_ALGORITHM

# Exhaustive at max_level=1: every level-1 state fits in the budget, so
# sharded and unsharded runs cover the identical state set.
EXHAUSTIVE = dict(
    name="s1", task="T1", algorithm="apx", epsilon=0.3, budget=64,
    max_level=1, scale=0.2, estimator="oracle",
)
QUICK = dict(
    name="s1", task="T3", algorithm="apx", epsilon=0.3, budget=6,
    max_level=2, scale=0.2, estimator="oracle",
)


def entries_of(result):
    return [(e["bits"], e["performance"]) for e in result["entries"]]


class TestValidation:
    def test_shards_from_request(self):
        assert shards_from_request({}) is None
        assert shards_from_request({"shards": 4}) == 4
        for bad in (0, -1, MAX_SHARDS + 1, True, 2.0, "4"):
            with pytest.raises(ServiceError, match="shards"):
                shards_from_request({"shards": bad})

    def test_shard_budget_floor(self):
        assert shard_budget(64, 4) == 16
        assert shard_budget(3, 8) == 1

    def test_shard_run_bounds(self):
        with pytest.raises(ServiceError, match="shard_index"):
            ShardRun(object(), 4, 4)

    def test_rejected_combinations(self):
        scheduler = Scheduler(n_workers=1)
        with pytest.raises(ServiceError, match="not both"):
            scheduler.submit(
                Scenario(**dict(QUICK, distributed=2)), shards=2
            )
        with pytest.raises(ServiceError, match="budget"):
            scheduler.submit(
                Scenario(**dict(QUICK, budget=3)), shards=4
            )
        with pytest.raises(ServiceError, match="limits"):
            scheduler.submit(Scenario(**QUICK), shards=2, timeout=60)
        with pytest.raises(ServiceError, match="limits"):
            scheduler.submit(
                Scenario(**QUICK), shards=2, max_oracle_calls=10
            )


class TestFanOut:
    def test_parent_lifecycle_and_lineage(self):
        with Scheduler(n_workers=2) as scheduler:
            parent = scheduler.submit(Scenario(**QUICK), shards=2)
            assert parent.shards == 2 and parent.is_shard_parent
            job = scheduler.wait(parent.id, timeout=120)
            assert job.state == "done", job.error
            payload = scheduler.describe(parent.id)
            lineage = payload["shard_jobs"]
            assert [c["shard_index"] for c in lineage] == [0, 1]
            assert all(c["state"] == "done" for c in lineage)
            for child_id in (c["id"] for c in lineage):
                child = scheduler.get(child_id)
                assert child.parent_id == parent.id
                assert child.result["shipped"]
            result = job.result
            assert result["algorithm"] == SHARDED_ALGORITHM
            assert result["terminated_by"] == "merged"
            assert result["shards"]["n_shards"] == 2
            assert len(result["shards"]["per_shard"]) == 2
            assert result["n_valuated"] == sum(
                p["n_valuated"] for p in result["shards"]["per_shard"]
            )
            metrics = scheduler.metrics()
            assert metrics["shards"]["submitted"] == 1
            assert metrics["shards"]["merged"] == 1
            assert metrics["shards"]["parents"] == 1
            assert metrics["shards"]["children"] == 2
            assert metrics["shards"]["in_flight"] == 0

    def test_shard_child_trace_has_level_spans(self):
        # Shards run ApxMODis's own loop, so their traces bracket each
        # BFS level like a single-node run does.
        with Scheduler(n_workers=2) as scheduler:
            parent = scheduler.submit(Scenario(**QUICK), shards=2)
            assert scheduler.wait(parent.id, timeout=120).state == "done"
            payload = scheduler.trace(parent.id)
        assert len(payload["shards"]) == 2
        for child in payload["shards"]:
            levels = [
                s["attrs"]["level"]
                for s in child["spans"]
                if s["name"] == "level"
            ]
            assert levels and levels[0] == 1

    def test_sharded_jobs_bypass_cache_and_dedup(self, tmp_path):
        from repro.scenarios.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        with Scheduler(
            result_cache=cache, n_workers=2
        ) as scheduler:
            spec = Scenario(**QUICK)
            first = scheduler.submit(spec, shards=2)
            second = scheduler.submit(spec, shards=2)
            assert scheduler.wait(first.id, timeout=120).state == "done"
            assert scheduler.wait(second.id, timeout=120).state == "done"
            assert not second.cache_hit and not second.deduped
            # children share the parent's fingerprint; none may collide
            assert scheduler.metrics()["dedup"]["inflight_hits"] == 0
            assert cache.get(spec) is None

    def test_cancel_cascades_to_queued_children(self):
        scheduler = Scheduler(n_workers=1)  # never started: all queued
        parent = scheduler.submit(Scenario(**QUICK), shards=3)
        child_ids = [
            c["id"] for c in scheduler.describe(parent.id)["shard_jobs"]
        ]
        with pytest.raises(NotCancellableError, match="parent"):
            scheduler.cancel(child_ids[0])
        cancelled = scheduler.cancel(parent.id)
        assert cancelled.state == "cancelled"
        for child_id in child_ids:
            assert scheduler.get(child_id).state == "cancelled"

    def test_failed_shard_fails_the_parent(self):
        class ShardKiller(Backend):
            """Serial backend whose second run_one raises."""

            name = "shard-killer"

            def __init__(self):
                super().__init__(1)
                self.calls = 0

            def run(self, thunks):
                return [self.run_one(thunk) for thunk in thunks]

            def run_one(self, thunk, timeout=None):
                self.calls += 1
                if self.calls == 2:
                    raise ValueError("injected shard failure")
                return thunk()

        with Scheduler(
            backend=ShardKiller(), n_workers=1
        ) as scheduler:
            parent = scheduler.submit(Scenario(**QUICK), shards=2)
            job = scheduler.wait(parent.id, timeout=120)
            assert job.state == "failed"
            assert job.failure_reason == "shard"
            assert "injected shard failure" in job.error
            states = {
                c["state"]
                for c in scheduler.describe(parent.id)["shard_jobs"]
            }
            assert states == {"done", "failed"}


class TestShardIdentity:
    def run_sharded(self, shards, n_workers=4):
        with Scheduler(
            n_workers=n_workers
        ) as scheduler:
            parent = scheduler.submit(Scenario(**EXHAUSTIVE), shards=shards)
            job = scheduler.wait(parent.id, timeout=300)
            assert job.state == "done", job.error
            return job.result

    def test_shards_4_matches_shards_1_bit_for_bit(self):
        single = self.run_sharded(1, n_workers=1)
        sharded = self.run_sharded(4)
        # the partitions were actually exhausted, so coverage is equal
        assert all(
            p["terminated_by"] == "exhausted"
            for r in (single, sharded)
            for p in r["shards"]["per_shard"]
        )
        assert entries_of(sharded) == entries_of(single)
        assert entries_of(sharded)

    def test_verified_merge_carries_oracle_truth(self):
        # The shards search on surrogate estimates; the parent's merged
        # entries must carry the oracle's normalized values instead.
        from repro.core.estimator import oracle_artifact
        from repro.scenarios.factory import ScenarioFactory

        scenario = Scenario(**dict(EXHAUSTIVE, estimator="mogb", n_bootstrap=4))
        with Scheduler(n_workers=2) as scheduler:
            parent = scheduler.submit(scenario, shards=2)
            job = scheduler.wait(parent.id, timeout=120)
            assert job.state == "done", job.error
        task = ScenarioFactory().resolve(scenario).task
        oracle = task.build_config(estimator="oracle").oracle
        assert job.result["entries"]
        for entry in job.result["entries"]:
            artifact = oracle_artifact(task.space, oracle, int(entry["bits"], 16))
            truth = task.measures.normalize_raw(oracle(artifact))
            assert entry["performance"] == task.measures.as_dict(truth)

    def test_merge_is_order_canonical(self):
        # Same shipped set, shards swapped: the merged payload may not
        # depend on which shard reported first.
        from repro.scenarios.factory import ScenarioFactory
        from repro.service import merge_shard_results

        resolved = ScenarioFactory().resolve(Scenario(**EXHAUSTIVE))
        payloads = [
            ShardRun(resolved, 2, index)() for index in range(2)
        ]
        forward = merge_shard_results(resolved, payloads)
        backward = merge_shard_results(resolved, payloads[::-1])
        assert entries_of(forward) == entries_of(backward)
