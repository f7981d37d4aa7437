#!/usr/bin/env python3
"""End-to-end skyline-job benchmark over HTTP, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload oracle-cold --seed 1 --seconds 20 --trace 0

One run boots the real ``repro serve`` as a child process (``--workers 2``,
serial backend, result cache, oracle store and journal each in a fresh
temporary directory under ``.perfbench_runs/``), pre-warms it with the
workload's set-up jobs, then drives the workload's seeded job mix through
``ServiceClient`` from closed-loop client threads. Every job's output is
checked: it must end DONE with a non-empty, mutually non-dominated
skyline, and replayed cache hits must return exactly the result recorded
at set-up.

``--trace 0`` reports the end-to-end metrics. The run is three rounds,
each on a fresh server: set-up (boot plus pre-warm), then a closed loop
over the first jobs of the workload's sequence, as many whole blocks as
take a third of ``--seconds`` on the reference machine. Every round runs
the same jobs, so a slow machine takes longer rather than doing other
work. Each metric is the median over the rounds, or, for latency
percentiles, taken over their jobs together.

``--trace 1`` runs one such round on a plain server and one on a server
started through ``serve_traced.py``, and reports the per-layer metrics
folded from the traced round's spans, the share of job latency no span
accounts for, and the tracing overhead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's context (versions, flags, seeds, skyline digests).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: rounds per untraced run, each on a fresh server; figures are medians
ROUNDS = 3
#: how long a client waits for one job before counting it failed
JOB_WAIT_S = 90.0
#: how long a server may take to print its address
BOOT_TIMEOUT_S = 60.0

WORKERS = 2
BACKEND = "serial"


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` child with its own cache, store and journal."""

    def __init__(self, directory: Path, spans_path: Path | None = None):
        for sub in ("cache", "oracle-store", "journal"):
            (directory / sub).mkdir(parents=True)
        self.flags = [
            "--port", "0",
            "--workers", str(WORKERS),
            "--backend", BACKEND,
            "--cache-dir", str(directory / "cache"),
            "--oracle-store", str(directory / "oracle-store"),
            "--journal-dir", str(directory / "journal"),
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *self.flags]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(spans_path), "serve", *self.flags]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # Belt and braces: nothing may fall back to ~/.cache/repro.
        env["REPRO_CACHE_DIR"] = str(directory / "cache")
        env["REPRO_ORACLE_STORE_DIR"] = str(directory / "oracle-store")
        self.log_path = directory / "server.log"
        self._log = self.log_path.open("w")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        try:
            self.url = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> str:
        """The server's URL, once it answers ``GET /v1/healthz``.

        The address is printed before ``repro serve`` enters its serving
        loop; only a served request shows that SIGINT will now stop it.
        """
        from repro.exceptions import ServiceError

        marker = "listening on "
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        url = None
        while time.monotonic() < deadline and self.process.poll() is None:
            if url is None:
                text = self.log_path.read_text()
                if marker in text:
                    url = text.split(marker, 1)[1].split()[0]
            if url is not None:
                try:
                    make_client(url).health()
                    return url
                except ServiceError:
                    pass
            time.sleep(0.01)
        raise RuntimeError(
            f"server did not come up; its log says:\n{self.log_path.read_text()}"
        )

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MiB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (a clean ``repro serve`` shutdown), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# ---------------------------------------------------------------------------
# Clients and jobs
# ---------------------------------------------------------------------------


def make_client(url: str):
    """A ``ServiceClient`` that counts its HTTP requests and retries."""
    from repro.service import ServiceClient

    class CountingClient(ServiceClient):
        # ``retries`` is the client's retry budget; these are counters.
        n_requests = 0
        n_retries = 0

        def _request_full(self, *args, **kwargs):
            self.n_requests += 1
            return super()._request_full(*args, **kwargs)

        def _request_text(self, *args, **kwargs):
            self.n_requests += 1
            return super()._request_text(*args, **kwargs)

        def _backoff_delay(self, attempt, retry_after):
            self.n_retries += 1
            self.n_requests += 1  # the retried attempt is one more request
            return super()._backoff_delay(attempt, retry_after)

    return CountingClient(url, timeout=JOB_WAIT_S)


@dataclass
class Outcome:
    """One job as the client saw it, plus the checks it passed."""

    index: int
    spec: dict[str, Any]
    job_id: str | None = None
    state: str = "REFUSED"
    #: ``perf_counter`` spans of the submit and result-fetch calls; the
    #: clock is the system's monotonic one, shared with the server
    submit_window: tuple[float, float] = (0.0, 0.0)
    result_window: tuple[float, float] = (0.0, 0.0)
    latency_s: float = 0.0
    record: dict[str, Any] = field(default_factory=dict)
    hv: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def done(self) -> bool:
        from repro.service.jobs import JobState

        return self.state == JobState.DONE

    @property
    def submit_s(self) -> float:
        return self.submit_window[1] - self.submit_window[0]

    @property
    def result_s(self) -> float:
        return self.result_window[1] - self.result_window[0]


def run_job(client, index: int, spec: dict[str, Any]) -> Outcome:
    """Submit, wait, fetch the skyline; time the whole round trip."""
    from repro.exceptions import ServiceError

    outcome = Outcome(index, spec)
    start = time.perf_counter()
    try:
        job = client.submit(**spec)
        outcome.submit_window = (start, time.perf_counter())
        outcome.job_id = job["id"]
        if not job.get("finished_at"):
            job = client.wait(job["id"], timeout=JOB_WAIT_S, timing=False)
        outcome.state = job["state"]
        if outcome.done:
            fetch = time.perf_counter()
            outcome.record = client.result(job["id"])
            outcome.result_window = (fetch, time.perf_counter())
    except ServiceError as exc:
        outcome.problems.append(f"{type(exc).__name__}: {exc}")
        if outcome.job_id is not None:
            outcome.state = "UNKNOWN"
    outcome.latency_s = time.perf_counter() - start
    return outcome


def skyline_checks(spec: dict[str, Any], result: dict[str, Any]) -> tuple[list[str], float]:
    """The checks one result must pass, and its skyline's hypervolume."""
    import numpy as np
    from repro.core import is_skyline
    from repro.core.algorithms import ALGORITHMS

    from hypervolume import hypervolume

    measures = result.get("measures") or []
    entries = result.get("entries") or []
    if not entries:
        return ["empty skyline"], 0.0
    vectors = np.array(
        [[entry["performance"][m] for m in measures] for entry in entries],
        dtype=float,
    )
    problems = []
    if not (np.all(np.isfinite(vectors)) and np.all(vectors > 0)
            and np.all(vectors <= 1)):
        problems.append("performance outside (0, 1]")
    if ALGORITHMS[spec["algorithm"]].thin_front:
        if not is_skyline(list(vectors), range(len(vectors))):
            problems.append("skyline members dominate each other")
    elif len(entries) > spec["algorithm_kwargs"]["k"]:
        # DivMODis keeps diverse-but-dominated members by design
        # (Section 5.4); what it promises is at most k of them.
        problems.append("diversified set larger than k")
    return problems, hypervolume(vectors)


def check(outcomes: list[Outcome], recorded: dict[str, str] | None = None) -> None:
    """Output checks; each failure is appended to the outcome's problems.

    ``recorded`` maps each replayed spec to the result set-up recorded
    for it. Checks run after the timed phase; identical results (cache
    replays) are checked once.
    """
    memo: dict[str, tuple[list[str], float]] = {}
    for outcome in outcomes:
        if not outcome.done:
            outcome.problems.append(f"job ended {outcome.state}")
            continue
        result = outcome.record.get("result") or {}
        text = canonical({"spec": outcome.spec, "result": result})
        if text not in memo:
            memo[text] = skyline_checks(outcome.spec, result)
        problems, outcome.hv = memo[text]
        outcome.problems.extend(problems)
        outcome.digest = hashlib.sha256(canonical({
            "spec": outcome.spec,
            "measures": result.get("measures"),
            "skyline": [[e["bits"], e["performance"], e["output_size"]]
                        for e in result.get("entries") or []],
        }).encode()).hexdigest()
        if recorded is not None:
            if not outcome.record.get("cache_hit"):
                outcome.problems.append("replayed job was not a cache hit")
            if canonical(result) != recorded.get(canonical(outcome.spec)):
                outcome.problems.append("replayed result differs from set-up")


def setup(workload, seed: int, directory: Path, spans_path: Path | None = None):
    """Boot a server and run the pre-warm jobs; returns (server, outcomes)."""
    server = Server(directory, spans_path)
    try:
        # One job at a time: two CPU-bound jobs in one server process
        # contend for its interpreter and take longer together than apart.
        client = make_client(server.url)
        outcomes = [run_job(client, -1 - index, spec)
                    for index, spec in enumerate(workload.prewarm(seed))]
        check(outcomes)
    except BaseException:
        server.stop()
        raise
    return server, outcomes


@dataclass
class Phase:
    """The timed closed loop's outcomes, in sequence order."""

    outcomes: list[Outcome]
    #: per client: the time from the start of the phase to the end of
    #: its last job
    client_busy_s: list[float]
    requests: int
    retries: int

    @property
    def done(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.done]

    @property
    def latencies(self) -> list[float]:
        return [o.latency_s for o in self.done]

    @property
    def jobs_per_s(self) -> float:
        """DONE jobs per second of the phase.

        The phase's length is the mean over clients of the time to each
        client's own last job, so a client that runs out of jobs early
        does not count its wait for the other's last job. With no think
        time this is the number of clients over the mean latency,
        whichever client ran which job.
        """
        return len(self.done) / statistics.fmean(self.client_busy_s)


def closed_loop(workload, seed: int, url: str, jobs: int,
                recorded: dict[str, str] | None) -> Phase:
    """``workload.clients`` threads: submit, wait, fetch, repeat.

    The clients take the first ``jobs`` jobs of the sequence between
    them, so every round runs and digests the same jobs.
    """
    sequence = workload.jobs(seed)
    taken = 0
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    clients = [make_client(url) for _ in range(workload.clients)]
    busy = [0.0] * len(clients)
    start = time.perf_counter()

    def loop(slot: int) -> None:
        nonlocal taken
        while True:
            with lock:
                if taken >= jobs:
                    break
                index, spec = taken, next(sequence)
                taken += 1
            outcome = run_job(clients[slot], index, spec)
            with lock:
                outcomes.append(outcome)
        busy[slot] = time.perf_counter() - start

    # Daemon threads: if a signal unwinds the main thread, the process
    # exits without waiting for clients whose server is gone.
    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(len(clients))]
    # The records the clients keep would make this process's own cyclic
    # garbage collections longer as the phase goes on, stalling both
    # clients at once; those pauses are the benchmark's, not the server's.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    outcomes.sort(key=lambda o: o.index)
    check(outcomes, recorded)
    return Phase(
        outcomes, busy,
        requests=sum(c.n_requests for c in clients),
        retries=sum(c.n_retries for c in clients),
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond.

    Returns ``(value, percentile, samples)``. With ten samples or fewer
    no such percentile exists and the maximum is returned at 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Per-round figures as their median over the rounds.

    Latency percentiles need samples, so they are taken over the jobs of
    all rounds together.
    """
    latencies = pooled_latencies(rounds)

    def median(figure) -> float:
        return statistics.median(figure(r) for r in rounds)

    return {
        "setup_s": median(lambda r: r.setup_s),
        "jobs_per_s": median(lambda r: r.phase.jobs_per_s),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail(latencies)[0],
        # Every round runs the same searches; their digests must agree.
        "skyline_hv": statistics.fmean(o.hv for o in rounds[0].phase.outcomes),
        "server_peak_rss_mb": median(lambda r: r.rss_mb),
    }


def per_layer(phase: Phase, plain: Phase, spans: list, traces: dict[str, dict],
              materialization: dict[str, int]) -> dict[str, float]:
    """Fold the traced run's spans into the per-layer metrics."""
    from tracer import JOB, attribute, covered, fold, root_intervals_by_job

    done = phase.done
    jobs = len(done)
    timed = {o.job_id for o in phase.outcomes}
    spans = [s for s in attribute(spans) if s[JOB] in timed]
    layers = fold(spans)

    def layer(name: str) -> dict[str, Any]:
        return layers.get(name) or {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "durations": [], "extras": []}

    def p50(name: str) -> float:
        durations = layer(name)["durations"]
        return statistics.median(durations) if durations else 0.0

    def per_job(name: str, key: str = "self_s") -> float:
        return layer(name)[key] / jobs

    def share(values: list) -> float:
        return statistics.fmean(values) if values else 0.0

    records = [o.record for o in done]
    oracle_calls = sum(r.get("oracle_calls") or 0 for r in records)
    surrogate_calls = sum(layer("surrogate.predict")["extras"])
    builds = layer("task.build")["calls"]
    gets = layer("task_cache.get")["calls"]
    lookups = materialization.get("hits", 0) + materialization.get("misses", 0)

    # A job's latency is attributed where the client's HTTP calls, its
    # queue wait or the server's root spans cover it; all share the
    # monotonic clock, so overlaps (a submit span inside the client's
    # submit call) count once. Job records carry wall-clock times.
    wall_offset = time.time() - time.perf_counter()
    roots = root_intervals_by_job(spans)
    latency = sum(o.latency_s for o in done)
    attributed = 0.0
    for o in done:
        queued = (o.record["submitted_at"] - wall_offset,
                  (o.record.get("started_at") or o.record["submitted_at"]) - wall_offset)
        attributed += covered(
            [o.submit_window, queued, o.result_window, *roots.get(o.job_id, [])],
            o.submit_window[0], o.result_window[1],
        )
    return {
        "http.submit_s": statistics.median(o.submit_s for o in done),
        "http.result_s": statistics.median(o.result_s for o in done),
        "http.requests_per_job": phase.requests / jobs,
        "http.retries": float(phase.retries),
        "scheduler.submit_s": p50("scheduler.submit"),
        "scheduler.queue_wait_s": statistics.median(
            traces[o.job_id].get("queue_wait_seconds") or 0.0 for o in done
        ),
        "journal.append_s": p50("journal.append"),
        "journal.appends": layer("journal.append")["calls"] / jobs,
        "journal.compact_s": per_job("journal.compact", "total_s"),
        "result_cache.get_s": p50("result_cache.get"),
        "result_cache.put_s": p50("result_cache.put"),
        "result_cache.hit_ratio": share(layer("result_cache.get")["extras"]),
        "oracle_store.load_s": p50("oracle_store.load"),
        "oracle_store.merge_s": p50("oracle_store.merge"),
        "oracle_store.warm_ratio": share(layer("oracle_store.load")["extras"]),
        "oracle_calls_saved": sum(r.get("oracle_calls_saved") or 0 for r in records) / jobs,
        "task_build_s": per_job("task_cache.get", "total_s"),
        "task_cache.hit_ratio": 1.0 - builds / gets if gets else 0.0,
        "task_cache.entries": float(builds),
        "search.self_s": per_job("search"),
        "search.valuated": sum(
            r["result"]["n_valuated"] for r in records if not r.get("cache_hit")
        ) / jobs,
        "correlation.self_s": per_job("correlation"),
        "valuate.self_s": per_job("valuate"),
        "oracle.calls": oracle_calls / jobs,
        "surrogate.calls": surrogate_calls / jobs,
        "surrogate.share": (
            surrogate_calls / (surrogate_calls + oracle_calls)
            if surrogate_calls + oracle_calls else 0.0
        ),
        "oracle.train_s": per_job("oracle.train"),
        "oracle.train_calls": layer("oracle.train")["calls"] / jobs,
        "surrogate.fit_s": per_job("surrogate.fit"),
        "surrogate.fits": layer("surrogate.fit")["calls"] / jobs,
        "surrogate.predict_s": per_job("surrogate.predict"),
        "materialize_s": per_job("materialize"),
        "materialize.hit_ratio": materialization.get("hits", 0) / lookups if lookups else 0.0,
        "features.self_s": per_job("features"),
        "pareto_front_s": per_job("pareto_front"),
        "grid.update_s": per_job("grid.update"),
        "front.size": share(layer("pareto_front")["extras"]),
        "unattributed_share": (latency - attributed) / latency,
        "trace_overhead": 1.0 - phase.jobs_per_s / plain.jobs_per_s,
    }


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


def source_identity() -> dict[str, str]:
    """The git sha when this is a git checkout, and a digest of ``src``."""
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def cpu_times() -> list[int]:
    """The machine's aggregate CPU tick counters (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        return [int(field) for field in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests meanwhile.

    On a shared host this is the run's main source of noise; a run whose
    figures stray from the others usually shows it here.
    """
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def context(args, workload, flags: list[str]) -> dict[str, Any]:
    import numpy

    return {
        **source_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "server_flags": [f.replace(str(ROOT), ".") for f in flags],
        "workload": workload.name,
        "workload_seed": args.seed,
        "clients": workload.clients,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def digests(phases: list[Phase]) -> dict[str, Any]:
    """One skyline digest per phase, over all its jobs in sequence order.

    Every phase runs the same jobs, so the digests agree within a run and
    across runs of one code, seed and ``--seconds``.
    """
    def sha(outcomes: list[Outcome]) -> str:
        return hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()

    return {
        "jobs": [len(p.outcomes) for p in phases],
        "sha256": [sha(p.outcomes) for p in phases],
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def materialization(client) -> dict[str, int]:
    """The server's search-space cache counters (``GET /v1/metrics``)."""
    return client.metrics().get("materialization") or {}


def pooled_latencies(rounds: list[Round]) -> list[float]:
    return [latency for r in rounds for latency in r.phase.latencies]


@dataclass
class Round:
    """One fresh server: its set-up, its timed phase, what it measured."""

    setup_s: float
    phase: Phase
    rss_mb: float
    flags: list[str]
    #: traced rounds only: each job's ``GET /v1/jobs/{id}/trace`` and the
    #: search-space cache counters the phase added
    traces: dict[str, dict] = field(default_factory=dict)
    materialization: dict[str, int] = field(default_factory=dict)


def measure(args, workload, runs: Path):
    """One run: returns (metrics, run context, failed checks, phases)."""
    seed = args.seed
    jobs = workload.round_jobs(args.seconds / ROUNDS)
    checked: list[Outcome] = []

    def run_round(directory: Path, spans_path: Path | None = None) -> Round:
        """Set up a fresh server, run the closed loop, stop the server."""
        launch = time.perf_counter()
        server, prewarm = setup(workload, seed, directory, spans_path)
        try:
            setup_s = time.perf_counter() - launch
            checked.extend(prewarm)
            recorded = (
                {canonical(o.spec): canonical(o.record.get("result"))
                 for o in prewarm}
                if workload.all_hits else None
            )
            client = make_client(server.url)
            before = materialization(client) if spans_path else {}
            phase = closed_loop(workload, seed, server.url, jobs, recorded)
            checked.extend(phase.outcomes)
            result = Round(setup_s, phase, server.peak_rss_mb(), server.flags)
            if spans_path is not None:
                result.traces = {o.job_id: client.trace(o.job_id) for o in phase.done}
                after = materialization(client)
                result.materialization = {
                    key: after.get(key, 0) - before.get(key, 0)
                    for key in ("hits", "misses")
                }
        finally:
            server.stop()
        return result

    if not args.trace:
        # A server's speed differs from boot to boot and moment to moment
        # more than within one phase; the median over rounds on fresh
        # servers keeps one unlucky boot or burst from moving a figure.
        rounds = [run_round(runs / f"round-{i}") for i in range(ROUNDS)]
        metrics = end_to_end(rounds)
        info = {
            "setups_s": [r.setup_s for r in rounds],
            "rounds_jobs_per_s": [r.phase.jobs_per_s for r in rounds],
            "job_tail": dict(zip(("value_s", "percentile", "samples"),
                                 tail(pooled_latencies(rounds)))),
        }
    else:
        plain = run_round(runs / "plain")
        spans_path = runs / "spans.json"
        traced = run_round(runs / "traced", spans_path)
        rounds = [plain, traced]
        spans = json.loads(spans_path.read_text())
        metrics = per_layer(traced.phase, plain.phase, spans, traced.traces,
                            traced.materialization)
        info = {"plain_jobs_per_s": plain.phase.jobs_per_s,
                "traced_jobs_per_s": traced.phase.jobs_per_s, "spans": len(spans)}
    phases = [r.phase for r in rounds]
    attempted = sum(len(p.outcomes) for p in phases)
    done = sum(len(p.done) for p in phases)
    info.update(
        context(args, workload, rounds[0].flags),
        round_jobs=jobs,
        jobs_done=done,
        error_rate=(attempted - done) / attempted,
        digest=digests(phases),
    )
    problems = [f"job {o.index} ({o.job_id}): {p}" for o in checked for p in o.problems]
    if len(set(info["digest"]["sha256"])) != 1:
        problems.append("the same jobs gave other skylines on another server")
    return metrics, info, problems, phases


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # A caught signal reverts to its default in the servers this starts,
    # so SIGINT stops them even when this process was started with SIGINT
    # ignored (as a shell does for background jobs).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import the client side before any timing starts.
    import repro.core  # noqa: F401
    import repro.service  # noqa: F401

    workload = WORKLOADS[args.workload]
    (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    runs = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_runs"))
    ticks = cpu_times()
    try:
        metrics, info, problems, phases = measure(args, workload, runs)
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    info["cpu_steal_share"] = steal_share(ticks, cpu_times())
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    info["problems"] = len(problems)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"run": info}, sort_keys=True))
    attempted = sum(len(p.outcomes) for p in phases)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - info["jobs_done"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
