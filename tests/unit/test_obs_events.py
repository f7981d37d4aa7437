"""The event bus and progress emitters: cursors, drops, pipes, persistence.

Covers the :mod:`repro.obs.events` contract the service builds on —
strictly monotonic sequence numbers, exactly-once delivery per cursor,
explicit drop accounting past ring capacity, the pipe wire format the
per-job emitters speak, and sequence-number resume across bus restarts.
"""

import io
import json
import os
import threading
import time

import pytest

from repro.obs.events import (
    EventBus,
    ProgressEmitter,
    current_emitter,
    drain_progress,
    emit,
    emit_partial,
    events_enabled,
    heartbeat,
    set_events_enabled,
    use_emitter,
)


class TestEventBusBasics:
    def test_publish_returns_strictly_increasing_seqs(self):
        bus = EventBus(capacity=8)
        seqs = [bus.publish("job.progress", job_id="j1", n=i)
                for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert bus.last_seq == 5
        assert bus.oldest_seq == 1

    def test_after_delivers_each_event_exactly_once(self):
        bus = EventBus(capacity=16)
        for i in range(6):
            bus.publish("job.progress", job_id="j1", n=i)
        events, cursor, dropped = bus.after(0)
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5, 6]
        assert dropped == 0
        again, cursor2, dropped2 = bus.after(cursor)
        assert again == [] and cursor2 == cursor and dropped2 == 0
        bus.publish("job.done", job_id="j1")
        more, _, _ = bus.after(cursor)
        assert [e["type"] for e in more] == ["job.done"]

    def test_limit_pages_through_the_ring(self):
        bus = EventBus(capacity=16)
        for i in range(7):
            bus.publish("job.progress", n=i)
        seen = []
        cursor = 0
        while True:
            events, cursor, _ = bus.after(cursor, limit=3)
            if not events:
                break
            seen.extend(e["seq"] for e in events)
        assert seen == [1, 2, 3, 4, 5, 6, 7]

    def test_event_payload_shape(self):
        bus = EventBus(capacity=4)
        bus.publish("job.started", job_id="j9", state="running")
        event = bus.after(0)[0][0]
        assert event["type"] == "job.started"
        assert event["job_id"] == "j9"
        assert event["data"] == {"state": "running"}
        assert isinstance(event["ts"], float)
        json.dumps(event)  # the whole event must be JSON-serializable

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)


class TestDropSemantics:
    def test_overflow_reports_dropped_oldest(self):
        bus = EventBus(capacity=4)
        for i in range(10):
            bus.publish("job.progress", n=i)
        events, cursor, dropped = bus.after(0)
        # Ring keeps the newest 4; the 6 that aged out are reported.
        assert dropped == 6
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        assert cursor == 10

    def test_cursor_inside_ring_drops_nothing(self):
        bus = EventBus(capacity=4)
        for i in range(10):
            bus.publish("job.progress", n=i)
        events, _, dropped = bus.after(8)
        assert dropped == 0
        assert [e["seq"] for e in events] == [9, 10]

    def test_stale_cursor_resumes_from_oldest_retained(self):
        bus = EventBus(capacity=3)
        for i in range(8):
            bus.publish("job.progress", n=i)
        events, cursor, dropped = bus.after(2)
        assert [e["seq"] for e in events] == [6, 7, 8]
        assert dropped == 3  # seqs 3..5 fell off between reads
        assert cursor == 8


class TestJobFilter:
    def test_filter_returns_only_matching_jobs(self):
        bus = EventBus(capacity=16)
        bus.publish("job.progress", job_id="a", n=1)
        bus.publish("job.progress", job_id="b", n=2)
        bus.publish("job.done", job_id="a")
        events, _, _ = bus.after(0, job_ids={"a"})
        assert [e["type"] for e in events] == ["job.progress", "job.done"]
        assert all(e["job_id"] == "a" for e in events)

    def test_filtered_out_events_still_advance_the_cursor(self):
        bus = EventBus(capacity=16)
        for _ in range(5):
            bus.publish("job.progress", job_id="other")
        events, cursor, _ = bus.after(0, job_ids={"mine"})
        assert events == []
        assert cursor == 5  # next read starts after the foreign events


class TestWait:
    def test_wait_times_out_with_empty_batch(self):
        bus = EventBus(capacity=4)
        start = time.monotonic()
        events, cursor, dropped = bus.wait(0, timeout=0.05)
        assert events == [] and dropped == 0
        assert time.monotonic() - start >= 0.04

    def test_wait_wakes_on_publish(self):
        bus = EventBus(capacity=4)
        got = {}

        def reader():
            got["batch"] = bus.wait(0, timeout=5.0)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        bus.publish("job.done", job_id="j1")
        thread.join(timeout=5.0)
        events, cursor, _ = got["batch"]
        assert [e["type"] for e in events] == ["job.done"]
        assert cursor == 1

    def test_wait_keeps_the_gap_it_started_behind(self):
        """A long-poll that starts behind the ring reports the gap even
        when the matching event lands slices later."""
        bus = EventBus(capacity=4)
        for i in range(10):
            bus.publish("job.progress", job_id="other", n=i)
        assert bus.after(0, job_ids={"mine"})[2] == 6
        got = {}

        def reader():
            got["batch"] = bus.wait(0, timeout=2.0, job_ids={"mine"})

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.7)  # past the first 0.5 s slice
        bus.publish("job.done", job_id="mine")
        thread.join(timeout=5.0)
        events, cursor, dropped = got["batch"]
        assert [e["job_id"] for e in events] == ["mine"]
        assert cursor == 11
        assert dropped == 6


class TestConcurrency:
    def test_concurrent_publishers_exactly_once_below_capacity(self):
        """N threads publish; a cursor walk sees every event once."""
        bus = EventBus(capacity=2048)
        n_threads, per_thread = 8, 50

        def publisher(tid):
            for i in range(per_thread):
                bus.publish("job.progress", job_id=f"t{tid}", n=i)

        threads = [
            threading.Thread(target=publisher, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        seen = []
        cursor = 0
        while True:
            events, cursor, dropped = bus.after(cursor, limit=64)
            assert dropped == 0
            if not events:
                break
            seen.extend(e["seq"] for e in events)
        total = n_threads * per_thread
        assert seen == list(range(1, total + 1))
        # Per-publisher order is preserved within the global sequence.
        for tid in range(n_threads):
            ns = [
                e["data"]["n"]
                for e in bus.after(0, limit=total)[0]
                if e["job_id"] == f"t{tid}"
            ]
            assert ns == list(range(per_thread))


class TestSeqPersistence:
    def test_restart_resumes_past_reserved_ceiling(self, tmp_path):
        path = tmp_path / "events.seq"
        bus = EventBus(capacity=8, persist_path=path)
        for _ in range(3):
            bus.publish("job.progress")
        assert bus.last_seq == 3
        # A "restarted" bus on the same path must never reuse 1..3 —
        # it resumes from the durably reserved ceiling instead.
        reborn = EventBus(capacity=8, persist_path=path)
        seq = reborn.publish("job.started")
        assert seq > 3
        # First publish reserved up to 1 + CHUNK; resume starts past it.
        assert seq == EventBus.SEQ_RESERVE_CHUNK + 2

    def test_chunked_reservation_costs_one_write_per_chunk(self, tmp_path):
        path = tmp_path / "events.seq"
        bus = EventBus(capacity=8, persist_path=path)
        bus.publish("job.progress")
        first_ceiling = int(path.read_text())
        assert first_ceiling == 1 + EventBus.SEQ_RESERVE_CHUNK
        for _ in range(EventBus.SEQ_RESERVE_CHUNK):
            bus.publish("job.progress")  # seqs up to the ceiling
        assert int(path.read_text()) == first_ceiling  # still first chunk
        bus.publish("job.progress")  # crosses the ceiling
        assert int(path.read_text()) > first_ceiling

    def test_corrupt_seq_file_resets_to_zero(self, tmp_path):
        path = tmp_path / "events.seq"
        path.write_text("not-a-number\n")
        bus = EventBus(capacity=8, persist_path=path)
        assert bus.publish("job.progress") == 1


class TestProgressEmitter:
    def test_pipe_round_trip(self):
        rfd, wfd = os.pipe()
        emitter = ProgressEmitter(wfd)
        emitter.emit("progress", level=2, n_valuated=7)
        emitter.partial([{"bits": "0x3"}])
        os.close(wfd)
        received = []
        with os.fdopen(rfd, "r", encoding="utf-8") as fh:
            drain_progress(fh, lambda kind, data: received.append((kind, data)))
        assert received == [
            ("progress", {"level": 2, "n_valuated": 7}),
            ("partial", {"entries": [{"bits": "0x3"}], "n_total": 1}),
        ]

    def test_heartbeat_is_rate_limited(self):
        rfd, wfd = os.pipe()
        emitter = ProgressEmitter(wfd, heartbeat_interval=10.0)
        assert emitter.heartbeat(n=1) is True
        assert emitter.heartbeat(n=2) is False  # throttled
        os.close(wfd)
        with os.fdopen(rfd, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 1

    def test_partial_truncates_to_cap(self):
        rfd, wfd = os.pipe()
        emitter = ProgressEmitter(wfd, partial_cap=2)
        emitter.partial([{"bits": hex(i)} for i in range(5)])
        os.close(wfd)
        with os.fdopen(rfd, "r", encoding="utf-8") as fh:
            message = json.loads(fh.readline())
        assert len(message["data"]["entries"]) == 2
        assert message["data"]["n_total"] == 5
        assert message["data"]["truncated"] is True

    def test_broken_pipe_silences_emitter_permanently(self):
        rfd, wfd = os.pipe()
        os.close(rfd)  # reader gone: EPIPE on write
        emitter = ProgressEmitter(wfd)
        try:
            assert emitter.emit("progress", n=1) is False
            assert emitter.emit("progress", n=2) is False
        finally:
            os.close(wfd)
        assert emitter.dropped == 2

    def test_drain_skips_malformed_lines(self):
        received = []
        stream = io.StringIO(
            '{"event": "progress", "data": {"n": 1}}\n'
            "{torn-line\n"
            "[1, 2, 3]\n"
            '{"data": {"no": "event"}}\n'
            '{"event": "partial", "data": {"entries": []}}\n'
        )
        drain_progress(stream, lambda k, d: received.append(k))
        assert received == ["progress", "partial"]

    def test_drain_swallows_handler_errors(self):
        stream = io.StringIO(
            '{"event": "a", "data": {}}\n{"event": "b", "data": {}}\n'
        )
        received = []

        def handler(kind, data):
            if kind == "a":
                raise RuntimeError("bad handler")
            received.append(kind)

        drain_progress(stream, handler)
        assert received == ["b"]


class TestModuleFastPath:
    def test_emit_without_emitter_is_a_noop(self):
        assert current_emitter() is None
        emit("progress", n=1)  # must not raise
        heartbeat(n=1)
        emit_partial([])

    def test_use_emitter_installs_and_restores(self):
        rfd, wfd = os.pipe()
        emitter = ProgressEmitter(wfd)
        with use_emitter(emitter) as installed:
            assert installed is emitter
            assert current_emitter() is emitter
            emit("progress", n=1)
        assert current_emitter() is None
        os.close(wfd)
        with os.fdopen(rfd, "r", encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1

    def test_disable_switch_gates_emission(self):
        rfd, wfd = os.pipe()
        emitter = ProgressEmitter(wfd)
        previous = set_events_enabled(False)
        try:
            assert events_enabled() is False
            with use_emitter(emitter):
                emit("progress", n=1)
                heartbeat(n=1)
                emit_partial([])
        finally:
            set_events_enabled(previous)
        os.close(wfd)
        with os.fdopen(rfd, "r", encoding="utf-8") as fh:
            assert fh.readlines() == []
