"""The scheduler: priority, cancellation, isolation, dedup, warm-starts.

Lifecycle mechanics run against a stub factory (no corpora, no training),
so they are fast and deterministic; the warm-start test at the bottom
drives the real T3 pipeline end to end.
"""

import threading

import pytest

from repro.exceptions import ScenarioError, ServiceError
from repro.scenarios import ResultCache
from repro.service import JobState, OracleStore, Scheduler
from tests.helpers import (
    AnythingFactory as _AnythingFactory,
    StubFactory,
    service_spec as spec,
)


def make_scheduler(factory, **kwargs):
    kwargs.setdefault("n_workers", 1)
    return Scheduler(registry=object(), factory=factory, **kwargs)


class TestPriorityOrdering:
    def test_high_priority_runs_before_low(self):
        factory = StubFactory()
        gate = threading.Event()
        order = []
        factory.on("gate", gate.wait)
        factory.on("low", lambda: order.append("low"))
        factory.on("high", lambda: order.append("high"))
        scheduler = make_scheduler(factory)
        # Distinct budgets: identical fingerprints would in-flight-dedup
        # low/high into followers of gate instead of queueing them.
        with scheduler:
            blocker = scheduler.submit(spec("gate", budget=7))
            low = scheduler.submit(spec("low", budget=8), priority=1)
            high = scheduler.submit(spec("high", budget=9), priority=9)
            gate.set()
            for job in (blocker, low, high):
                scheduler.wait(job.id, timeout=10.0)
        assert order == ["high", "low"]


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        factory = StubFactory()
        gate = threading.Event()
        ran = []
        factory.on("gate", gate.wait)
        factory.on("victim", lambda: ran.append("victim"))
        scheduler = make_scheduler(factory)
        with scheduler:
            scheduler.submit(spec("gate"))
            victim = scheduler.submit(spec("victim"))
            cancelled = scheduler.cancel(victim.id)
            assert cancelled.state == JobState.CANCELLED
            gate.set()
            scheduler.wait_idle(timeout=10.0)
        assert ran == []
        assert victim.finished_at is not None

    def test_cancel_is_only_for_queued_jobs(self):
        factory = StubFactory()
        gate = threading.Event()
        started = threading.Event()

        def running_body():
            started.set()
            gate.wait()

        factory.on("running", running_body)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("running"))
            assert started.wait(10.0)
            with pytest.raises(ServiceError):
                scheduler.cancel(job.id)
            gate.set()
            scheduler.wait(job.id, timeout=10.0)
            with pytest.raises(ServiceError):  # terminal now
                scheduler.cancel(job.id)

    def test_cancel_unknown_job(self):
        scheduler = make_scheduler(StubFactory())
        with pytest.raises(ServiceError):
            scheduler.cancel("job-nope")

    def test_stop_without_drain_cancels_queued(self):
        factory = StubFactory()
        factory.on("never", lambda: None)
        scheduler = make_scheduler(factory)
        # never started: submissions stay queued
        job = scheduler.submit(spec("never"))
        scheduler.stop()
        assert job.state == JobState.CANCELLED


class TestFailureIsolation:
    def test_failing_job_leaves_scheduler_healthy(self):
        factory = StubFactory()

        def boom():
            raise ValueError("synthetic failure")

        factory.on("boom", boom)
        factory.on("fine", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            bad = scheduler.submit(spec("boom"))
            good = scheduler.submit(spec("fine"))
            bad = scheduler.wait(bad.id, timeout=10.0)
            good = scheduler.wait(good.id, timeout=10.0)
        assert bad.state == JobState.FAILED
        assert "ValueError: synthetic failure" in bad.error
        assert good.state == JobState.DONE and good.error is None
        metrics = scheduler.metrics()
        assert metrics["jobs"]["failed"] == 1
        assert metrics["jobs"]["done"] == 1

    def test_unresolvable_spec_fails_at_submit(self):
        scheduler = make_scheduler(StubFactory())
        with pytest.raises(ScenarioError):
            scheduler.submit(spec("unregistered"))
        assert scheduler.metrics()["jobs_submitted"] == 0


class TestCacheDedup:
    def test_cached_fingerprint_completes_instantly(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_result = {"entries": [], "n_valuated": 3,
                         "terminated_by": "budget", "elapsed_seconds": 0.1}
        cache.put(spec("seed-job"), cached_result, elapsed_seconds=0.1)
        scheduler = Scheduler(
            registry=object(),
            factory=_AnythingFactory(),
            result_cache=cache,
            n_workers=1,
        )
        # Workers never started: completion must happen at submission.
        job = scheduler.submit(spec("identical-but-renamed"))
        assert job.state == JobState.DONE
        assert job.cache_hit is True
        assert job.oracle_calls == 0
        assert job.result == cached_result
        metrics = scheduler.metrics()
        assert metrics["result_cache"]["hits"] == 1
        assert metrics["result_cache"]["hit_rate"] == 1.0

    def test_cache_miss_goes_through_the_queue(self, tmp_path):
        factory = StubFactory()
        factory.on("fresh", lambda: None)
        scheduler = make_scheduler(
            factory, result_cache=ResultCache(tmp_path)
        )
        with scheduler:
            job = scheduler.submit(spec("fresh"))
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.DONE and not job.cache_hit
        # ... and its result landed in the cache for next time.
        assert ResultCache(tmp_path).get(spec("fresh")) is not None


class TestInflightDedup:
    """Satellite regression: submit-time dedup must also see in-flight
    jobs, not just the result cache — two concurrent identical
    submissions may not both run."""

    def test_identical_inflight_submission_runs_once(self):
        factory = StubFactory()
        gate = threading.Event()
        started = threading.Event()
        runs = []

        def primary_body():
            runs.append("ran")
            started.set()
            gate.wait()

        factory.on("primary", primary_body)
        factory.on("twin", lambda: runs.append("twin-ran"))
        scheduler = make_scheduler(factory)
        with scheduler:
            primary = scheduler.submit(spec("primary"))
            assert started.wait(10.0)
            # Identical content hash (name is excluded from fingerprints).
            twin = scheduler.submit(spec("twin"))
            assert scheduler.queue.depth == 0  # twin never entered the queue
            gate.set()
            primary = scheduler.wait(primary.id, timeout=10.0)
            twin = scheduler.wait(twin.id, timeout=10.0)
        assert runs == ["ran"]  # the twin's behavior never executed
        assert primary.state == twin.state == JobState.DONE
        assert not primary.deduped and twin.deduped
        assert twin.result == primary.result
        assert twin.oracle_calls == 0
        assert scheduler.metrics()["dedup"]["inflight_hits"] == 1

    def test_follower_promoted_when_primary_fails(self):
        factory = StubFactory()
        gate = threading.Event()

        def boom():
            gate.wait()
            raise ValueError("primary dies")

        factory.on("primary", boom)
        factory.on("twin", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            primary = scheduler.submit(spec("primary"))
            twin = scheduler.submit(spec("twin"))
            gate.set()
            primary = scheduler.wait(primary.id, timeout=10.0)
            twin = scheduler.wait(twin.id, timeout=10.0)
        # The work was still owed: the follower ran it itself.
        assert primary.state == JobState.FAILED
        assert twin.state == JobState.DONE and not twin.deduped

    def test_high_priority_follower_escalates_its_primary(self):
        """A priority-9 duplicate must not wait behind the queue just
        because identical priority-0 work got there first."""
        factory = StubFactory()
        gate = threading.Event()
        order = []
        factory.on("gate", gate.wait)
        factory.on("low", lambda: order.append("low"))
        factory.on("other", lambda: order.append("other"))
        factory.on("urgent-twin", lambda: order.append("urgent-twin"))
        scheduler = make_scheduler(factory)
        with scheduler:
            blocker = scheduler.submit(spec("gate", budget=7))
            low = scheduler.submit(spec("low", budget=8), priority=0)
            other = scheduler.submit(spec("other", budget=9), priority=5)
            # Identical to "low" but urgent: must escalate the primary
            # ahead of "other".
            twin = scheduler.submit(spec("urgent-twin", budget=8),
                                    priority=9)
            gate.set()
            for job in (blocker, low, other, twin):
                scheduler.wait(job.id, timeout=10.0)
        assert order == ["low", "other"]
        assert twin.deduped and twin.result == low.result
        assert low.priority == 9  # escalated

    def test_terminal_primary_does_not_dedup(self):
        factory = StubFactory()
        factory.on("first", lambda: None)
        factory.on("second", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            first = scheduler.submit(spec("first"))
            scheduler.wait(first.id, timeout=10.0)
            second = scheduler.submit(spec("second"))
            second = scheduler.wait(second.id, timeout=10.0)
        assert second.state == JobState.DONE
        assert not second.deduped  # no cache, primary finished: it ran


class TestWarmStart:
    """The acceptance-criteria path, at the scheduler level."""

    @pytest.mark.slow
    def test_second_job_on_a_task_warm_starts(self, tmp_path):
        from repro.scenarios import ScenarioFactory

        store = OracleStore(tmp_path)
        scheduler = Scheduler(
            registry=object(),
            factory=ScenarioFactory(),
            oracle_store=store,
            n_workers=1,
        )
        with scheduler:
            first = scheduler.submit(spec("cold-run"))
            first = scheduler.wait(first.id, timeout=300.0)
            second = scheduler.submit(spec("warm-run"))
            second = scheduler.wait(second.id, timeout=300.0)
        assert first.state == JobState.DONE
        assert second.state == JobState.DONE
        assert not first.warm_started and second.warm_started
        assert second.warm_records > 0
        # Strictly fewer oracle valuations, identical skyline.
        assert second.oracle_calls < first.oracle_calls
        assert second.oracle_calls == 0
        assert second.oracle_calls_saved == first.oracle_calls
        first_bits = [e["bits"] for e in first.result["entries"]]
        second_bits = [e["bits"] for e in second.result["entries"]]
        assert first_bits == second_bits and first_bits
        metrics = scheduler.metrics()
        assert metrics["oracle"]["warm_starts"] == 1
        assert metrics["oracle"]["calls_saved_total"] == first.oracle_calls
        assert metrics["oracle_store"]["task_keys"] == 1

    def test_distributed_jobs_skip_the_oracle_store(self, tmp_path):
        factory = StubFactory()
        factory.on("dist", lambda: None)
        store = OracleStore(tmp_path)
        scheduler = make_scheduler(factory, oracle_store=store)
        with scheduler:
            job = scheduler.submit(spec("dist", distributed=2))
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.DONE
        assert job.oracle_calls is None and not job.warm_started
        assert store.keys() == []


class TestShutdownRace:
    def test_submit_after_queue_close_leaves_no_phantom_job(self):
        factory = StubFactory()
        factory.on("late", lambda: None)
        scheduler = make_scheduler(factory)
        scheduler.queue.close()  # simulate a racing shutdown
        with pytest.raises(ServiceError):
            scheduler.submit(spec("late"))
        jobs = scheduler.list_jobs()
        assert len(jobs) == 1
        assert jobs[0].state == JobState.CANCELLED  # not stuck QUEUED
