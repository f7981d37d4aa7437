"""Service load gate: bounded-concurrency serving under a client herd.

The third perf-trajectory point (after the backend-speedup and
obs-overhead gates): hundreds of concurrent clients drive a live
in-process :class:`ServiceServer` over keep-alive connections with the
mixed workload the API actually sees — job submissions, record polls,
event-stream reads, health checks — and the bench asserts the bounded
pool's contract:

* latency floors: p50/p99 across the mix stay under generous ceilings
  (the pool must degrade by queueing fairly, not by stalling);
* throughput floor: the fixed worker pool sustains a minimum request
  rate regardless of client count;
* **zero 5xx** under load — overload is expressed as 429, never as an
  internal error or a dropped connection;
* every 429 carries ``Retry-After`` and the standard error envelope
  (checked again deterministically by the admission probe, which jams
  the job queue behind a gated job and requires each over-limit
  submission to be refused).

Scale knobs (CI runs a reduced herd; the committed
``BENCH_service_load.json`` comes from the full one):

* ``REPRO_LOAD_CLIENTS``  — concurrent client threads (default 200)
* ``REPRO_LOAD_REQUESTS`` — requests per client (default 25)

Jobs are instant stubs, so the measurement isolates the serving core
(accept → mux → worker pool → scheduler handoff) rather than search
compute.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from _harness import print_table
from repro.scenarios.factory import TaskCache
from repro.service import Scheduler
from repro.service.pool import PoolConfig
from repro.service.server import ServiceServer

N_CLIENTS = int(os.environ.get("REPRO_LOAD_CLIENTS", "200"))
N_REQUESTS = int(os.environ.get("REPRO_LOAD_REQUESTS", "25"))
N_SCHED_WORKERS = 2
PROBE_REJECTIONS = 25

#: Floors enforced here and by the CI service-load-smoke job. Generous
#: on purpose: they gate against collapse (hung accepts, serialized
#: handling, error storms), not against machine-to-machine noise.
P50_FLOOR_MS = 250.0
P99_FLOOR_MS = 2500.0
THROUGHPUT_FLOOR_RPS = 100.0

OUTPUT = Path("BENCH_service_load.json")

SPEC = {"task": "T3", "algorithm": "apx", "epsilon": 0.3, "budget": 6,
        "max_level": 2, "scale": 0.2, "estimator": "oracle"}


# -- instant stub jobs (the bench measures serving, not search) -------------
class _InstantResult:
    class _Report:
        algorithm = "stub"
        n_valuated = 1
        n_pruned = 0
        elapsed_seconds = 0.0
        terminated_by = "stub"

    class _Measures:
        names = ("acc",)

    report = _Report()
    measures = _Measures()
    epsilon = 0.1
    entries = []


class _Runnable:
    def __init__(self, body):
        self._body = body

    def run(self, verify=True):
        self._body()
        return _InstantResult()


class _Resolved:
    def __init__(self, spec, body):
        self.spec = spec
        self._body = body

    def build(self, store=None):
        return _Runnable(self._body)


class _AnyFactory:
    """Resolves every spec to an instant no-op job; specs named
    ``blocker`` park on ``gate`` (the admission probe's jam)."""

    task_cache = TaskCache()

    def __init__(self, gate=None):
        self.gate = gate

    def resolve(self, spec):
        if self.gate is not None and spec.name == "blocker":
            return _Resolved(spec, self.gate.wait)
        return _Resolved(spec, lambda: None)


# -- one client thread -------------------------------------------------------
class _LoadClient(threading.Thread):
    """One herd member: a keep-alive connection issuing the request mix.

    Records (kind, latency_seconds, status) per request; a 429 is
    retried after its ``Retry-After`` hint (missing hints are recorded
    as a contract violation and not retried).
    """

    def __init__(self, index, host, port):
        super().__init__(name=f"load-client-{index}", daemon=True)
        self.index = index
        self.host = host
        self.port = port
        self.samples = []
        self.statuses = {}
        self.missing_retry_after = 0
        self.errors = []
        self.job_ids = []

    def _request(self, conn, method, path, body=None):
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        return response, raw, elapsed

    def _one(self, conn, sequence):
        kind = ("submit", "poll", "events", "healthz")[sequence % 4]
        if kind == "submit" or (kind == "poll" and not self.job_ids):
            kind = "submit"
            body = dict(SPEC)
            body["name"] = f"load-{self.index}-{sequence}"
            body["budget"] = 6 + self.index * N_REQUESTS + sequence
            method, path, payload = "POST", "/v1/jobs", body
        elif kind == "poll":
            job_id = self.job_ids[sequence % len(self.job_ids)]
            method, path, payload = "GET", f"/v1/jobs/{job_id}", None
        elif kind == "events":
            method, path, payload = "GET", "/v1/events?after=0&limit=32", None
        else:
            method, path, payload = "GET", "/v1/healthz", None

        response, raw, elapsed = self._request(conn, method, path, payload)
        status = response.status
        while status == 429:
            retry_after = response.getheader("Retry-After")
            if retry_after is None:
                self.missing_retry_after += 1
                break
            self.statuses[429] = self.statuses.get(429, 0) + 1
            time.sleep(min(float(retry_after), 2.0))
            response, raw, retry_elapsed = self._request(
                conn, method, path, payload
            )
            status = response.status
            elapsed += retry_elapsed
        self.samples.append((kind, elapsed, status))
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if kind == "submit" and status == 201:
            self.job_ids.append(json.loads(raw)["id"])

    def run(self):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            for sequence in range(N_REQUESTS):
                self._one(conn, sequence)
        except Exception as exc:  # noqa: BLE001 - reported, fails the gate
            self.errors.append(repr(exc))
        finally:
            conn.close()


def _percentiles(latencies):
    arr = np.asarray(latencies) * 1000.0
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "max_ms": float(arr.max()),
    }


def _mixed_load_phase():
    """The herd against a generously-bounded server; returns metrics."""
    scheduler = Scheduler(
        factory=_AnyFactory(), registry=object(),
        n_workers=N_SCHED_WORKERS,
    )
    config = PoolConfig(
        http_workers=16, max_pending=max(256, N_CLIENTS * 2),
        admission_queue_depth=200_000,
        max_connections=max(1024, N_CLIENTS * 2),
    )
    with ServiceServer(scheduler, port=0, config=config) as server:
        clients = [
            _LoadClient(i, server.host, server.port)
            for i in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=300.0)
        wall = time.perf_counter() - start
        stats = server._http.pool_stats()

    errors = [e for c in clients for e in c.errors]
    assert not errors, f"client transport errors under load: {errors[:5]}"
    hung = [c.name for c in clients if c.is_alive()]
    assert not hung, f"clients never finished: {hung[:5]}"

    samples = [s for c in clients for s in c.samples]
    statuses: dict[int, int] = {}
    for client in clients:
        for status, count in client.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    by_kind = {}
    for kind in ("submit", "poll", "events", "healthz"):
        lats = [s[1] for s in samples if s[0] == kind]
        if lats:
            by_kind[kind] = _percentiles(lats)
    return {
        "clients": N_CLIENTS,
        "requests_per_client": N_REQUESTS,
        "requests_total": len(samples),
        "wall_seconds": wall,
        "throughput_rps": len(samples) / wall,
        "latency": _percentiles([s[1] for s in samples]),
        "latency_by_kind": by_kind,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "missing_retry_after": sum(
            c.missing_retry_after for c in clients
        ),
        "pool": stats,
    }


def _admission_probe_phase():
    """Deterministic 429 contract check: jam the queue, submit over the
    limit, require every rejection to be a well-formed 429."""
    gate = threading.Event()
    scheduler = Scheduler(
        factory=_AnyFactory(gate), registry=object(), n_workers=1,
    )
    config = PoolConfig(http_workers=4, admission_queue_depth=1)
    rejected = 0
    retry_after_present = 0
    try:
        with ServiceServer(scheduler, port=0, config=config) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )

            def submit(name, budget):
                body = dict(SPEC, name=name, budget=budget)
                conn.request(
                    "POST", "/v1/jobs", body=json.dumps(body),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                return response, response.read()

            response, raw = submit("blocker", 6)
            assert response.status == 201, raw
            blocker_id = json.loads(raw)["id"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                conn.request("GET", f"/v1/jobs/{blocker_id}")
                record = conn.getresponse()
                state = json.loads(record.read())["state"]
                if state == "running":
                    break
                time.sleep(0.01)
            response, raw = submit("queued", 7)
            assert response.status == 201, raw

            for probe in range(PROBE_REJECTIONS):
                response, raw = submit(f"probe-{probe}", 100 + probe)
                if response.status == 429:
                    rejected += 1
                    envelope = json.loads(raw)["error"]
                    assert envelope["code"] == "overloaded", envelope
                    if response.getheader("Retry-After") is not None:
                        retry_after_present += 1
            conn.close()
            gate.set()
    finally:
        gate.set()
    return {
        "probes": PROBE_REJECTIONS,
        "rejected_429": rejected,
        "retry_after_present": retry_after_present,
    }


def test_service_load_floors(benchmark):
    def run():
        return _mixed_load_phase(), _admission_probe_phase()

    mixed, probe = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = {
        "mixed load": {
            "clients": mixed["clients"],
            "requests": mixed["requests_total"],
            "rps": round(mixed["throughput_rps"], 1),
            "p50_ms": round(mixed["latency"]["p50_ms"], 2),
            "p99_ms": round(mixed["latency"]["p99_ms"], 2),
        },
        "admission probe": {
            "requests": probe["probes"],
            "rejected_429": probe["rejected_429"],
        },
    }
    print_table(
        f"Service load: {N_CLIENTS} clients x {N_REQUESTS} requests", rows
    )

    payload = {
        "benchmark": "service_load",
        "mixed_load": mixed,
        "admission_probe": probe,
        "floors": {
            "p50_floor_ms": P50_FLOOR_MS,
            "p99_floor_ms": P99_FLOOR_MS,
            "throughput_floor_rps": THROUGHPUT_FLOOR_RPS,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")

    benchmark.extra_info.update(
        {
            "clients": N_CLIENTS,
            "throughput_rps": round(mixed["throughput_rps"], 1),
            "p99_ms": round(mixed["latency"]["p99_ms"], 2),
            "rejected_429": probe["rejected_429"],
        }
    )

    # Zero 5xx under load: overload must surface as 429, never 500.
    server_errors = {
        status: count
        for status, count in mixed["statuses"].items()
        if status.startswith("5")
    }
    assert not server_errors, f"5xx under load: {server_errors}"
    assert mixed["missing_retry_after"] == 0, (
        f"{mixed['missing_retry_after']} 429s arrived without Retry-After"
    )
    # Every over-limit submission in the probe was refused, correctly.
    assert probe["rejected_429"] == PROBE_REJECTIONS, probe
    assert probe["retry_after_present"] == probe["rejected_429"], probe

    latency = mixed["latency"]
    assert latency["p50_ms"] <= P50_FLOOR_MS, (
        f"p50 {latency['p50_ms']:.1f}ms over the {P50_FLOOR_MS:.0f}ms floor"
    )
    assert latency["p99_ms"] <= P99_FLOOR_MS, (
        f"p99 {latency['p99_ms']:.1f}ms over the {P99_FLOOR_MS:.0f}ms floor"
    )
    assert mixed["throughput_rps"] >= THROUGHPUT_FLOOR_RPS, (
        f"throughput {mixed['throughput_rps']:.0f} rps under the "
        f"{THROUGHPUT_FLOOR_RPS:.0f} rps floor"
    )
