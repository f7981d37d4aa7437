"""The bounded-concurrency serving core: keep-alive, caps, shutdown.

Drives a :class:`ServiceServer` (backed by ``PooledHTTPServer``) with
raw ``http.client`` connections, because the properties under test live
*below* the JSON API: connection reuse across responses (error envelopes
and 304s included), request-body draining on early errors, the raw 429
answered at the connection cap, the long-poll slot clamp, and prompt
shutdown while a long-poll is parked.
"""

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.service import Scheduler
from repro.service.client import ServiceClient
from repro.service.pool import PoolConfig
from repro.service.server import ServiceServer
from tests.helpers import StubFactory


def make_scheduler(**kwargs):
    kwargs.setdefault("factory", StubFactory())
    kwargs.setdefault("registry", object())
    kwargs.setdefault("n_workers", 1)
    return Scheduler(**kwargs)


def open_connection(url: str, timeout: float = 10.0):
    parts = urlsplit(url)
    return http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=timeout
    )


class TestPoolConfig:
    def test_defaults_are_valid(self):
        config = PoolConfig()
        assert config.http_workers >= 1
        assert config.effective_longpoll_slots >= 1

    def test_longpoll_slots_default_is_a_pool_slice(self):
        assert PoolConfig(http_workers=8).effective_longpoll_slots == 2
        assert PoolConfig(http_workers=1).effective_longpoll_slots == 1
        assert PoolConfig(longpoll_slots=5).effective_longpoll_slots == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"http_workers": 0},
            {"max_pending": 0},
            {"admission_queue_depth": 0},
            {"longpoll_slots": 0},
            {"request_timeout": 0},
            {"max_connections": 0},
        ],
    )
    def test_bounds_are_validated(self, kwargs):
        with pytest.raises(ValueError):
            PoolConfig(**kwargs)


class TestKeepAlive:
    """One connection, many requests — the satellite fix: every response
    (success, error envelope, 304) carries an exact ``Content-Length``
    and leaves the stream positioned at the next request."""

    @pytest.fixture()
    def server(self):
        factory = StubFactory()
        factory.on("parked", lambda: None)
        scheduler = make_scheduler(factory=factory)
        with ServiceServer(scheduler, port=0) as server:
            yield server

    def test_responses_reuse_one_connection(self, server):
        conn = open_connection(server.url)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                assert int(response.getheader("Content-Length")) == len(body)
                assert response.getheader("Connection") != "close"
        finally:
            conn.close()

    def test_error_envelope_keeps_the_connection(self, server):
        conn = open_connection(server.url)
        try:
            conn.request("GET", "/v1/nope")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 404
            assert int(response.getheader("Content-Length")) == len(body)
            assert response.getheader("Connection") != "close"
            assert json.loads(body)["error"]["code"] == "unknown-route"
            # The same socket must still serve the next request.
            conn.request("GET", "/v1/healthz")
            follow_up = conn.getresponse()
            follow_up.read()
            assert follow_up.status == 200
        finally:
            conn.close()

    def test_304_has_empty_body_and_keeps_the_connection(self, server):
        client = ServiceClient(server.url, timeout=10.0)
        job = client.submit(task="T3", algorithm="apx", budget=6,
                            name="parked")
        # Let the job settle in a terminal state so its ETag is stable
        # across the two conditional requests below.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.job(job["id"])["state"] in (
                "done", "failed", "cancelled"
            ):
                break
            time.sleep(0.02)
        conn = open_connection(server.url)
        try:
            conn.request("GET", f"/v1/jobs/{job['id']}")
            first = conn.getresponse()
            first.read()
            etag = first.getheader("ETag")
            assert first.status == 200 and etag
            conn.request(
                "GET", f"/v1/jobs/{job['id']}",
                headers={"If-None-Match": etag},
            )
            conditional = conn.getresponse()
            body = conditional.read()
            assert conditional.status == 304
            assert body == b""
            assert conditional.getheader("Connection") != "close"
            conn.request("GET", "/v1/healthz")
            follow_up = conn.getresponse()
            follow_up.read()
            assert follow_up.status == 200
        finally:
            conn.close()

    def test_unread_request_body_is_drained_before_error(self, server):
        # POST to an unknown route errors before the handler ever reads
        # the body; a server that left those bytes on the wire would
        # parse them as the next request line and desync the stream.
        conn = open_connection(server.url)
        try:
            payload = json.dumps({"task": "T3", "pad": "x" * 4096})
            conn.request("POST", "/v1/nope", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            conn.request("GET", "/v1/healthz")
            follow_up = conn.getresponse()
            body = follow_up.read()
            assert follow_up.status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            conn.close()

    def test_healthz_reports_pool_saturation(self, server):
        client = ServiceClient(server.url, timeout=10.0)
        health = client.health()
        pool = health["http"]
        assert pool["http_workers"] == PoolConfig().http_workers
        assert pool["max_pending"] == PoolConfig().max_pending
        assert pool["open_connections"] >= 1  # this very request
        assert pool["longpoll_slots"] >= 1


class TestConnectionCap:
    def test_accept_beyond_cap_answers_raw_429(self):
        config = PoolConfig(http_workers=2, max_connections=1)
        scheduler = make_scheduler()
        with ServiceServer(scheduler, port=0, config=config) as server:
            first = open_connection(server.url)
            second = None
            try:
                first.request("GET", "/v1/healthz")
                assert first.getresponse().read()  # parked, still counted
                second = open_connection(server.url)
                second.request("GET", "/v1/healthz")
                response = second.getresponse()
                body = response.read()
                assert response.status == 429
                assert response.getheader("Retry-After") == "1"
                assert response.getheader("Connection") == "close"
                assert json.loads(body)["error"]["code"] == "overloaded"
            finally:
                first.close()
                if second is not None:
                    second.close()


class TestLongPollSlots:
    def test_exhausted_slots_degrade_to_immediate_answer(self):
        config = PoolConfig(http_workers=4, longpoll_slots=1)
        scheduler = make_scheduler()
        with ServiceServer(scheduler, port=0, config=config) as server:
            client = ServiceClient(server.url, timeout=15.0)
            parked = threading.Thread(
                target=lambda: client.events(after=0, timeout=5.0),
                daemon=True,
            )
            parked.start()
            time.sleep(0.4)  # let the first poll claim the only slot
            start = time.monotonic()
            batch = client.events(after=0, timeout=5.0)
            elapsed = time.monotonic() - start
            assert batch["events"] == []
            assert elapsed < 2.0, (
                f"slotless long-poll should answer immediately, "
                f"took {elapsed:.2f}s"
            )
            text = client.metrics(format="prometheus")
            assert 'repro_http_rejected_total' in text
            assert 'reason="longpoll-slots"' in text
            parked.join(timeout=10.0)
            assert not parked.is_alive()


class TestPromptShutdown:
    def test_stop_does_not_wait_out_inflight_long_polls(self):
        scheduler = make_scheduler()
        server = ServiceServer(scheduler, port=0)
        server.start()
        client = ServiceClient(server.url, timeout=30.0)
        results = []

        def long_poll():
            try:
                results.append(client.events(after=0, timeout=25.0))
            except Exception as exc:  # noqa: BLE001 - a torn socket is fine
                results.append(exc)

        poller = threading.Thread(target=long_poll, daemon=True)
        poller.start()
        time.sleep(0.5)  # let the poll park server-side
        start = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, (
            f"stop() waited {elapsed:.1f}s — long-poll did not observe "
            f"shutdown promptly"
        )
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert results, "the parked long-poll never returned"
