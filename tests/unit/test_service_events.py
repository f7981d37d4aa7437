"""Live job progress through the service stack: bus, pipes, HTTP, client.

The deterministic half runs stub jobs against a bare scheduler — the
stub bodies emit through the same module-level helpers real algorithms
use, so the per-job pipe, the drain thread, and the bus publishes are
exercised without racing a real search. The HTTP half runs one real
tiny search end to end and checks the ``/v1/events``, ``/progress``,
``?partial=1``, and deep-health routes plus the client's event-driven
``wait``/``watch``.
"""

import threading
import time

import pytest

from repro.exceptions import ServiceError, UnknownJobError
from repro.obs.events import TERMINAL_EVENT_TYPES, EventBus, emit, emit_partial
from repro.service import Scheduler
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from tests.helpers import StubFactory, service_spec as spec


def make_scheduler(factory, **kwargs):
    kwargs.setdefault("n_workers", 1)
    kwargs.setdefault("registry", object())
    return Scheduler(factory=factory, **kwargs)


def wait_terminal(scheduler, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.get(job_id)
        if job.state in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


def poll_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


SAMPLE_ENTRY = {
    "description": "sample",
    "bits": "0x3",
    "performance": {"accuracy": 0.9},
}


class TestSchedulerEvents:
    def test_lifecycle_events_publish_in_order(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            batch = scheduler.events(after=0)
        types = [e["type"] for e in batch["events"]]
        assert types == ["job.submitted", "job.started", "job.done"]
        assert all(e["job_id"] == job.id for e in batch["events"])
        assert batch["dropped"] == 0
        seqs = [e["seq"] for e in batch["events"]]
        assert seqs == sorted(seqs)
        assert batch["next_cursor"] == seqs[-1] == batch["last_seq"]
        done = batch["events"][-1]
        assert done["data"]["state"] == "done"
        assert done["data"]["run_seconds"] >= 0

    def test_cursor_resume_is_exactly_once(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        factory.on("s2", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            first = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, first.id)
            cursor = scheduler.events(after=0)["next_cursor"]
            assert scheduler.events(after=cursor)["events"] == []
            second = scheduler.submit(spec("s2"))
            wait_terminal(scheduler, second.id)
            batch = scheduler.events(after=cursor)
        assert [e["job_id"] for e in batch["events"]] == [second.id] * 3

    def test_progress_and_partial_flow_through_the_pipe(self):
        gate = threading.Event()
        emitted = threading.Event()

        def body():
            emit("progress", level=1, n_valuated=3, budget=10)
            emit_partial([SAMPLE_ENTRY])
            emitted.set()
            assert gate.wait(timeout=30.0)

        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory)
        try:
            with scheduler:
                job = scheduler.submit(spec("s1"))
                assert emitted.wait(timeout=30.0)
                # The drain thread ingests asynchronously, one pipe line
                # at a time; wait for both the progress event and the
                # partial front that follows it on the next line.
                def ingested():
                    snapshot = scheduler.progress(job.id)
                    if snapshot["progress"] and snapshot["partial_front_size"]:
                        return snapshot
                    return None

                progress = poll_until(ingested, message="progress ingestion")
                assert progress["state"] == "running"
                assert progress["progress"]["n_valuated"] == 3
                assert progress["progress"]["budget"] == 10
                assert progress["last_event_age_seconds"] is not None
                assert progress["partial_front_size"] == 1

                partial = scheduler.partial_result(job.id)
                assert partial["partial"] is True
                assert partial["result"]["entries"] == [SAMPLE_ENTRY]
                assert partial["result"]["n_total"] == 1
                assert partial["result"]["age_seconds"] >= 0

                gate.set()
                wait_terminal(scheduler, job.id)
                final = scheduler.partial_result(job.id)
                assert final["partial"] is False
                assert final["result"] is not None

                types = [
                    e["type"] for e in scheduler.events(after=0)["events"]
                ]
                assert types == [
                    "job.submitted", "job.started", "job.progress",
                    "job.partial", "job.done",
                ]
        finally:
            gate.set()  # never leave the worker wedged on failure

    def test_job_filter_includes_only_that_job(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        factory.on("s2", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            a = scheduler.submit(spec("s1"))
            b = scheduler.submit(spec("s2"))
            wait_terminal(scheduler, a.id)
            wait_terminal(scheduler, b.id)
            batch = scheduler.events(after=0, job_id=a.id)
            assert all(e["job_id"] == a.id for e in batch["events"])
            assert len(batch["events"]) == 3
            # The filtered cursor still drains past b's events.
            assert batch["next_cursor"] == batch["last_seq"]
            with pytest.raises(UnknownJobError):
                scheduler.events(job_id="job-missing")

    def test_failed_job_publishes_failure_event(self):
        def body():
            raise ValueError("stub exploded")

        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            batch = scheduler.events(after=0)
        terminal = batch["events"][-1]
        assert terminal["type"] == "job.failed"
        assert "stub exploded" in terminal["data"]["error"]
        assert set(
            e["type"] for e in batch["events"]
        ) & TERMINAL_EVENT_TYPES == {"job.failed"}

    def test_events_long_poll_wakes_on_publish(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            got = {}

            def reader():
                got["batch"] = scheduler.events(after=0, timeout=10.0)

            thread = threading.Thread(target=reader)
            thread.start()
            time.sleep(0.05)
            scheduler.submit(spec("s1"))
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert got["batch"]["events"][0]["type"] == "job.submitted"

    def test_metrics_carry_event_bus_stats(self):
        factory = StubFactory()
        factory.on("s1", lambda: None)
        scheduler = make_scheduler(factory)
        with scheduler:
            job = scheduler.submit(spec("s1"))
            wait_terminal(scheduler, job.id)
            stats = scheduler.metrics()["events"]
            prom = scheduler.metrics_prometheus()
        assert stats["published"] == 3
        assert stats["size"] == 3
        assert stats["last_seq"] == 3
        assert "repro_events_published" in prom
        assert "repro_trace_spans_dropped_total" in prom


class TestSchedulerHealth:
    def test_idle_scheduler_is_live_and_ready(self):
        scheduler = make_scheduler(StubFactory())
        with scheduler:
            health = scheduler.health()
            assert health["live"] is True
            assert health["ready"] is True
            assert health["queue_depth"] == 0
            assert health["workers"]["total"] == 1
            assert health["workers"]["busy"] == 0
            assert health["workers"]["saturation"] == 0.0
            assert health["journal"]["enabled"] is False
            assert health["events"]["capacity"] > 0
            assert health["running_jobs"] == []
        assert scheduler.health()["ready"] is False  # stopped pool

    def test_running_job_reports_heartbeat_age(self):
        gate = threading.Event()
        started = threading.Event()

        def body():
            emit("progress", n_valuated=1)
            started.set()
            assert gate.wait(timeout=30.0)

        factory = StubFactory()
        factory.on("s1", body)
        scheduler = make_scheduler(factory)
        try:
            with scheduler:
                job = scheduler.submit(spec("s1"))
                assert started.wait(timeout=30.0)
                health = poll_until(
                    lambda: (
                        h := scheduler.health()
                    ) and h["running_jobs"] and h,
                    message="running job in health",
                )
                assert health["workers"]["busy"] == 1
                assert health["workers"]["saturation"] == 1.0
                entry = health["running_jobs"][0]
                assert entry["job_id"] == job.id
                gate.set()
                wait_terminal(scheduler, job.id)
        finally:
            gate.set()


class TestClientAcrossRingGaps:
    """``wait``/``watch`` when the job's terminal event has aged out of
    the server's ring: the gap sends them to the job record instead."""

    @pytest.fixture()
    def aged_out(self):
        release = threading.Event()
        factory = StubFactory()
        factory.on("s1", lambda: release.wait(10.0))
        scheduler = make_scheduler(factory)
        scheduler.event_bus = EventBus(capacity=2)
        with scheduler, ServiceServer(scheduler, port=0) as server:
            client = ServiceClient(server.url, timeout=15.0)
            job = scheduler.submit(spec("s1"))
            running = client.job(job.id)  # read before the job finishes
            release.set()
            wait_terminal(scheduler, job.id)
            for _ in range(4):  # push the job's events off the ring
                scheduler.event_bus.publish("job.progress", job_id="other")
            yield client, job.id, running

    def test_watch_stops_on_a_gap_once_the_job_is_terminal(self, aged_out):
        client, job_id, _ = aged_out
        start = time.monotonic()
        seen = list(client.watch(job_id, timeout=30.0, poll_timeout=0.5))
        assert seen == []
        assert time.monotonic() - start < 5.0  # not the 30 s timeout

    def test_wait_returns_without_the_terminal_event(self, aged_out):
        client, job_id, running = aged_out
        assert running["state"] in ("queued", "running")
        fetched = []
        fetch = client.job

        def job(job_id):
            # The first fetch answers as the job stood when the wait
            # began; the stream then finds the terminal event gone.
            fetched.append(job_id)
            return running if len(fetched) == 1 else fetch(job_id)

        client.job = job
        # One long-poll comes back empty (with the gap), then the
        # record answers: done, not a timeout error.
        record = client.wait(job_id, timeout=2.0)
        assert record["state"] == "done"
        assert record["timing"]["run_seconds"] is not None
        assert len(fetched) == 3  # up front, the gap check, the final read


class TestHTTPEventSurface:
    @pytest.fixture()
    def service(self):
        scheduler = Scheduler(
            registry=object(), n_workers=2
        )
        with ServiceServer(scheduler, port=0) as server:
            yield ServiceClient(server.url, timeout=15.0)

    REAL_SPEC = dict(
        task="T3", algorithm="apx", epsilon=0.3, budget=6,
        max_level=2, scale=0.2, estimator="oracle",
    )

    def test_event_stream_wait_and_progress_route(self, service):
        job = service.submit(**self.REAL_SPEC)
        # wait() itself rides the event stream (polling only on fallback).
        record = service.wait(job["id"], timeout=120.0)
        assert record["state"] == "done"

        batch = service.events(after=0, job=job["id"])
        types = [e["type"] for e in batch["events"]]
        assert types[0] == "job.submitted"
        assert types[-1] == "job.done"
        assert "job.started" in types
        assert "job.progress" in types  # the real search emitted levels
        assert batch["dropped"] == 0

        progress = service.progress(job["id"])
        assert progress["job_id"] == job["id"]
        assert progress["state"] == "done"
        assert progress["progress"].get("n_valuated", 0) > 0

        result = service.result(job["id"], partial=True)
        assert result["partial"] is False  # done jobs answer in full
        assert result["result"]["entries"]

    def test_watch_replays_to_terminal_event(self, service):
        job = service.submit(**self.REAL_SPEC)
        service.wait(job["id"], timeout=120.0)
        seen = list(service.watch(job["id"], timeout=30.0))
        assert seen, "watch yielded nothing for a finished job"
        assert seen[-1]["type"] == "job.done"
        assert all(e["job_id"] == job["id"] for e in seen)
        seqs = [e["seq"] for e in seen]
        assert seqs == sorted(set(seqs))  # exactly once, in order

    def test_events_route_validates_parameters(self, service):
        with pytest.raises(ServiceError, match="400"):
            service._request("GET", "/events?after=banana")
        with pytest.raises(ServiceError, match="400"):
            service._request("GET", "/events?cursor=3")  # unknown param
        with pytest.raises(ServiceError, match="404"):
            service.events(job="job-missing")

    def test_progress_and_partial_unknown_job_are_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service.progress("job-missing")
        with pytest.raises(ServiceError, match="404"):
            service.result("job-missing", partial=True)

    def test_healthz_exposes_liveness_and_saturation(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["live"] is True
        assert health["ready"] is True
        assert health["queue_depth"] == 0
        assert health["workers"]["total"] == 2
        assert health["events"]["capacity"] > 0
        assert health["running_jobs"] == []
