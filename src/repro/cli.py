"""Command-line interface: ``python -m repro <command>``.

The paper's workflow — pick a task, run a skyline discovery algorithm,
inspect the ε-skyline set, persist it for downstream use — as a terminal
tool:

.. code-block:: text

    python -m repro tasks                       # list T1–T5
    python -m repro discover --task T1 --algorithm bimodis --budget 60
    python -m repro discover --task T2 --provenance   # + SQL per entry
    python -m repro discover --task T3 --distributed 4
    python -m repro discover --task T3 --json   # machine-readable result
    python -m repro corpus                      # Table 2 analogue
    python -m repro udfs                        # registered UDFs
    python -m repro algorithms                  # available algorithms
    python -m repro suite list                  # registered scenarios
    python -m repro suite --filter tag:smoke --backend thread --jobs 2
    python -m repro suite cache stats           # result-cache inspection
    python -m repro suite cache evict --max-age 86400 --max-entries 100

Service mode (see :mod:`repro.service`) keeps tasks and oracle history
resident between runs:

.. code-block:: text

    python -m repro serve --port 8765 --journal-dir .journal &
    python -m repro submit --scenario smoke-t3-apx --wait
    python -m repro submit --task T3 --algorithm bimodis --budget 20 \
        --timeout 120 --max-oracle-calls 50
    python -m repro status                      # jobs + queue metrics
    python -m repro top                         # live refreshing dashboard
    python -m repro watch job-abc123            # follow one job's events
    python -m repro fetch job-abc123 --output out/
    python -m repro recover --journal-dir .journal --dry-run

Every command is deterministic for a fixed ``--seed``. Output is plain
text (tables) so runs can be diffed; ``--output DIR`` additionally writes
the datasets + ``report.json`` via :func:`repro.report.save_result`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Sequence

from . import __version__
from .core.algorithms import ALGORITHMS, DiscoveryResult
from .core.transducer import TabularSearchSpace
from .core.udf import DEFAULT_REGISTRY
from .datalake.tasks import TASK_BUILDERS, make_task
from .distributed import DistributedMODis
from .exceptions import ReproError
from .exec import BACKENDS
from .report import build_payload, save_result, save_suite_report
from .sql import state_to_sql


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table (no external dependencies)."""
    cells = [[str(h) for h in headers]] + [
        [
            f"{v:.4f}" if isinstance(v, float) else str(v)
            for v in row
        ]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_tasks(_args: argparse.Namespace) -> int:
    """``repro tasks``: list the paper's evaluation tasks T1-T5."""
    rows = []
    for name in sorted(TASK_BUILDERS):
        task = make_task(name, scale=0.25)
        rows.append(
            (
                name,
                task.kind,
                task.model_name,
                ", ".join(task.measures.names),
                task.primary,
            )
        )
    print(_format_table(
        ["task", "kind", "model", "measures P", "primary"], rows
    ))
    return 0


def cmd_algorithms(_args: argparse.Namespace) -> int:
    """``repro algorithms``: list the algorithm registry."""
    rows = [(key, cls.name, (cls.__doc__ or "").strip().splitlines()[0])
            for key, cls in sorted(ALGORITHMS.items())]
    print(_format_table(["key", "name", "summary"], rows))
    return 0


def cmd_udfs(_args: argparse.Namespace) -> int:
    """``repro udfs``: list the registered operator-enrichment UDFs."""
    rows = [(udf.name, udf.description) for udf in
            sorted(DEFAULT_REGISTRY, key=lambda u: u.name)]
    print(_format_table(["udf", "description"], rows))
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    """``repro corpus``: print the Table 2 corpus statistics."""
    from .datalake.corpus import all_collection_stats

    rows = [
        (stats.name, stats.n_tables, stats.n_columns, stats.n_rows)
        for stats in all_collection_stats(scale=args.scale, seed=args.seed)
    ]
    print(_format_table(["corpus", "#tables", "#columns", "#rows"], rows))
    return 0


def _print_result(result: DiscoveryResult) -> None:
    report = result.report
    print(
        f"{report.algorithm}: {len(result.entries)} skyline dataset(s), "
        f"N={report.n_valuated} valuated, {report.elapsed_seconds:.2f}s, "
        f"terminated by {report.terminated_by}"
    )
    headers = ["dataset", *result.measures.names, "output_size"]
    rows = []
    for entry in result.entries:
        rows.append(
            (
                entry.description,
                *[entry.perf[m] for m in result.measures.names],
                f"{entry.output_size[0]}x{entry.output_size[1]}",
            )
        )
    print(_format_table(headers, rows))
    for key, value in sorted(report.extras.items()):
        print(f"  {key}: {value}")


def cmd_discover(args: argparse.Namespace) -> int:
    """``repro discover``: run one skyline discovery end to end."""
    if args.algorithm not in ALGORITHMS:
        raise ReproError(
            f"unknown algorithm {args.algorithm!r}; have {sorted(ALGORITHMS)}"
        )
    if args.json and args.provenance:
        raise ReproError(
            "--json and --provenance are mutually exclusive (embed SQL "
            "provenance via the report's per-entry 'path' instead)"
        )
    # With --json, stdout carries exactly one JSON document; progress
    # chatter moves to stderr so shell pipelines stay parseable.
    info = (
        (lambda *a: print(*a, file=sys.stderr)) if args.json else print
    )
    task = make_task(args.task, scale=args.scale, seed=args.seed)
    if not args.distributed and (args.backend != "serial" or args.jobs):
        raise ReproError(
            "--backend/--jobs apply to --distributed runs (single-node "
            "algorithms execute in-process)"
        )
    if args.distributed:
        if args.history:
            raise ReproError(
                "--history applies to single-node runs (workers keep "
                "private estimators)"
            )
        runner = DistributedMODis(
            lambda: task.build_config(estimator=args.estimator),
            n_workers=args.distributed,
            epsilon=args.epsilon,
            budget=args.budget,
            max_level=args.max_level,
            backend=args.backend,
            n_jobs=args.jobs,
        )
        result = runner.run(verify=not args.no_verify)
    else:
        from pathlib import Path

        from .core.history import load_test_store, save_test_store

        config = task.build_config(estimator=args.estimator)
        if args.history and Path(args.history).exists():
            config.estimator.store = load_test_store(
                args.history, task.measures
            )
            info(f"warm start: {len(config.estimator.store)} historical "
                 f"tests from {args.history}")
        algorithm = ALGORITHMS[args.algorithm](
            config,
            epsilon=args.epsilon,
            budget=args.budget,
            max_level=args.max_level,
        )
        result = algorithm.run(verify=not args.no_verify)
        if args.history:
            save_test_store(config.estimator.store, args.history,
                            task.measures)
            info(f"saved {len(config.estimator.store)} tests to "
                 f"{args.history}")
    if args.json:
        print(json.dumps(build_payload(result), indent=2))
    else:
        _print_result(result)
    if args.provenance:
        if not isinstance(task.space, TabularSearchSpace):
            print("(provenance SQL is only available for tabular tasks)")
        else:
            for entry in result.entries:
                print(f"\n-- {entry.description}")
                print(state_to_sql(task.space, entry.bits))
    if args.output:
        path = save_result(result, task.space, args.output)
        info(f"\nwrote datasets and {path}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """``repro suite``: list/batch-run scenarios, or manage the cache."""
    from .scenarios import (
        REGISTRY,
        ResultCache,
        SuiteRunner,
        load_builtin_scenarios,
    )

    if args.action == "cache":
        return _suite_cache(args)
    load_builtin_scenarios()
    selectors = args.filter or []
    scenarios = REGISTRY.filter(*selectors)
    if not scenarios:
        raise ReproError(
            f"no scenarios match {selectors!r}; "
            f"{len(REGISTRY)} registered (try: repro suite list)"
        )
    if args.action == "list":
        rows = [tuple(s.to_row().values()) for s in scenarios]
        print(_format_table(
            ["scenario", "task", "algorithm", "tags", "eps", "N", "scale"],
            rows,
        ))
        return 0

    cache = None if args.no_cache else ResultCache(args.cache_dir or None)
    runner = SuiteRunner(
        registry=REGISTRY, cache=cache, backend=args.backend,
        n_jobs=args.jobs,
    )
    report = runner.run(selectors)
    print(report.markdown_summary())
    if cache is not None:
        print(f"cache: {report.cache_hits}/{report.n_scenarios} hits "
              f"under {cache.directory}")
    for outcome in report.failures:
        print(f"FAILED {outcome.name}: {outcome.error}", file=sys.stderr)
    if args.output:
        path = save_suite_report(
            report.to_payload(), args.output,
            markdown=report.markdown_summary(),
        )
        print(f"wrote {path}")
    return 1 if report.failures else 0


def _suite_cache(args: argparse.Namespace) -> int:
    """``repro suite cache [stats|clear|evict]``: result-cache upkeep."""
    import datetime

    from .scenarios import ResultCache

    cache = ResultCache(args.cache_dir or None)

    def stamp(epoch: float | None) -> str:
        if epoch is None:
            return "—"
        return datetime.datetime.fromtimestamp(epoch).isoformat(
            sep=" ", timespec="seconds"
        )

    if args.cache_action == "stats":
        stats = cache.stats()
        rows = [
            ("directory", stats.directory),
            ("entries", stats.entries),
            ("total_bytes", stats.total_bytes),
            ("oldest", stamp(stats.oldest)),
            ("newest", stamp(stats.newest)),
        ]
        print(_format_table(["field", "value"], rows))
        return 0
    if args.cache_action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.directory}")
        return 0
    # evict
    if args.max_age is None and args.max_entries is None:
        raise ReproError(
            "evict needs --max-age SECONDS and/or --max-entries N "
            "(use 'clear' to drop everything)"
        )
    removed = cache.evict(
        max_age=args.max_age, max_entries=args.max_entries
    )
    stats = cache.stats()
    print(f"evicted {removed} file(s); {stats.entries} entr"
          f"{'y' if stats.entries == 1 else 'ies'} remain "
          f"({stats.total_bytes} bytes)")
    return 0


# ---------------------------------------------------------------------------
# Service commands
# ---------------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the skyline-generation service until killed."""
    import logging

    from .logging_util import enable_console_logging
    from .scenarios import ResultCache, load_builtin_scenarios
    from .service import JobJournal, OracleStore, Scheduler, ServiceServer
    from .service.pool import PoolConfig

    enable_console_logging(logging.INFO, json_lines=args.log_json)
    registry = load_builtin_scenarios()
    cache = None if args.no_cache else ResultCache(args.cache_dir or None)
    store = (
        None if args.no_oracle_store
        else OracleStore(args.oracle_store or None)
    )
    journal = JobJournal(args.journal_dir) if args.journal_dir else None
    scheduler = Scheduler(
        registry=registry,
        result_cache=cache,
        oracle_store=store,
        journal=journal,
        backend=args.backend,
        n_workers=args.workers,
        max_retries=args.max_retries,
        scheduler_id=args.scheduler_id or None,
        lease_ttl=args.lease_ttl,
        profile_dir=args.profile_dir or None,
    )
    pool = PoolConfig(
        http_workers=args.http_workers,
        max_pending=args.max_pending,
        admission_queue_depth=args.admission_queue_depth,
    )
    server = ServiceServer(
        scheduler, host=args.host, port=args.port, config=pool
    )
    leases = (
        f"leases on as {scheduler.scheduler_id} "
        f"(ttl {scheduler.lease_ttl:g}s)"
        if args.scheduler_id and journal is not None
        else "leases off"
    )
    print(f"repro service listening on {server.url} "
          f"({args.workers} worker(s), backend={args.backend}, "
          f"{pool.http_workers} http worker(s), "
          f"result cache {'off' if cache is None else cache.directory}, "
          f"oracle store {'off' if store is None else store.directory}, "
          f"journal {'off' if journal is None else journal.directory}, "
          f"{leases})",
          flush=True)
    if journal is not None:
        recovery = scheduler.metrics()["journal"]["recovery"]
        if recovery["replayed"]:
            print(f"journal replay: {recovery['replayed']} job(s) — "
                  f"{recovery['requeued']} requeued, "
                  f"{recovery['retried']} retried, "
                  f"{recovery['failed_retry_budget']} over retry budget, "
                  f"{recovery['restored_terminal']} terminal restored",
                  flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _job_row(record: dict) -> tuple:
    summary = record.get("summary") or {}
    return (
        record["id"],
        record["scenario"]["name"],
        record["state"],
        record["priority"],
        "hit" if record.get("cache_hit") else
        ("warm" if record.get("warm_started") else "cold"),
        "—" if record.get("oracle_calls") is None
        else record["oracle_calls"],
        record.get("oracle_calls_saved", 0),
        summary.get("skyline_size", "—"),
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: send one job to a running service."""
    from .service import ServiceClient

    client = ServiceClient(args.url)
    limits: dict[str, Any] = {
        "timeout": args.timeout,
        "max_oracle_calls": args.max_oracle_calls,
        "profile": args.profile,
    }
    if args.scenario:
        if args.task:
            raise ReproError(
                "--scenario and --task are mutually exclusive "
                "(a submission is a registry reference or an inline spec)"
            )
        record = client.submit(
            scenario=args.scenario,
            priority=args.priority,
            shards=args.shards,
            **limits,
        )
    else:
        if not args.task:
            raise ReproError("submit needs --scenario NAME or --task TASK")
        spec: dict[str, Any] = {
            "task": args.task,
            "algorithm": args.algorithm,
            "epsilon": args.epsilon,
            "budget": args.budget,
            "max_level": args.max_level,
            "scale": args.scale,
            "estimator": args.estimator,
        }
        if args.seed is not None:
            spec["seed"] = args.seed
        record = client.submit(
            priority=args.priority, shards=args.shards, **limits, **spec
        )
    if args.wait:
        record = client.wait(record["id"], timeout=args.wait_timeout)
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(_format_table(
            ["job", "scenario", "state", "pri", "start", "oracle", "saved",
             "skyline"],
            [_job_row(record)],
        ))
        if record.get("error"):
            print(f"error: {record['error']}", file=sys.stderr)
    return 0 if record["state"] not in ("failed",) else 1


def cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: one job's record, or all jobs + service metrics."""
    from .service import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id:
        record = client.job(args.job_id)
        print(json.dumps(record, indent=2))
        return 0
    metrics = client.metrics()
    jobs = client.jobs()
    if args.json:
        print(json.dumps({"metrics": metrics, "jobs": jobs}, indent=2))
        return 0
    if jobs:
        print(_format_table(
            ["job", "scenario", "state", "pri", "start", "oracle", "saved",
             "skyline"],
            [_job_row(record) for record in jobs],
        ))
    else:
        print("no jobs submitted yet")
    states = metrics["jobs"]
    cache = metrics["result_cache"]
    oracle = metrics["oracle"]
    print(
        f"\nqueue depth {metrics['queue_depth']} | "
        + " ".join(f"{state}={states[state]}" for state in sorted(states))
        + f" | cache hit rate {cache['hit_rate']:.0%}"
        + f" | oracle calls {oracle['calls_total']} "
        + f"(saved {oracle['calls_saved_total']}, "
        + f"{oracle['warm_starts']} warm starts)"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: render a job's span tree as an indented timeline."""
    from .obs import format_span_tree
    from .service import ServiceClient

    client = ServiceClient(args.url)
    payload = client.trace(args.job_id)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    queue_wait = payload.get("queue_wait_seconds")
    run_seconds = payload.get("run_seconds")
    print(f"job {payload['job_id']}  state={payload['state']}"
          + (f"  queue-wait={queue_wait * 1000:.1f}ms"
             if queue_wait is not None else "")
          + (f"  run={run_seconds:.3f}s"
             if run_seconds is not None else ""))
    spans = payload.get("spans")
    if spans:
        print(format_span_tree(spans))
    else:
        print("(no trace recorded — job predates tracing or has not run)")
    for shard in payload.get("shards") or []:
        print(f"\nshard {shard['shard_index']} "
              f"({shard['job_id']}, {shard['state']}):")
        if shard.get("spans"):
            print(format_span_tree(shard["spans"], indent="  "))
        else:
            print("  (no trace recorded)")
    profile = payload.get("profile")
    if profile:
        print(f"\nprofile ({profile.get('path', '?')}):")
        print(profile.get("summary", "").rstrip())
    return 0


def _progress_bar(fraction: float, width: int = 20) -> str:
    """A fixed-width ASCII bar: ``[########............]``."""
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _format_event(event: dict) -> str:
    """One event as a human-readable ``watch`` line."""
    stamp = time.strftime("%H:%M:%S", time.localtime(event.get("ts", 0)))
    data = event.get("data") or {}
    kind = event.get("type", "?")
    extra = []
    if kind == "job.progress":
        if data.get("generation") is not None:
            extra.append(f"gen={data['generation']}")
        elif data.get("level") is not None:
            extra.append(f"level={data['level']}")
        if data.get("n_valuated") is not None and data.get("budget"):
            extra.append(f"valuated={data['n_valuated']}/{data['budget']}")
        if data.get("front_size") is not None:
            extra.append(f"front={data['front_size']}")
    elif kind == "job.partial":
        extra.append(f"front_size={data.get('front_size')}")
    elif kind in ("job.done", "job.failed", "job.cancelled"):
        summary = data.get("summary") or {}
        if summary.get("skyline_size") is not None:
            extra.append(f"skyline={summary['skyline_size']}")
        if data.get("run_seconds"):
            extra.append(f"run={data['run_seconds']:.2f}s")
        if data.get("error"):
            extra.append(f"error={data['error']}")
    elif kind == "job.submitted":
        if data.get("shard_index") is not None:
            extra.append(f"shard={data['shard_index']}")
        elif data.get("shards"):
            extra.append(f"shards={data['shards']}")
    job_id = event.get("job_id", "")
    suffix = ("  " + " ".join(extra)) if extra else ""
    return f"{stamp}  {kind:<14} {job_id}{suffix}"


def cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: follow one job's event stream to its end.

    Prints every event for the job — shard children included — as it
    lands, long-polling ``GET /v1/events`` between batches. Exits 0 when
    the job ends DONE, 1 when FAILED/CANCELLED.
    """
    from .obs.events import TERMINAL_EVENT_TYPES
    from .service import JobState, ServiceClient

    client = ServiceClient(args.url)
    record = client.job(args.job_id)
    if record["state"] in JobState.TERMINAL:
        print(f"job {args.job_id} already {record['state']}")
        return 0 if record["state"] == "done" else 1
    final = None
    try:
        for event in client.watch(
            args.job_id, timeout=args.timeout or None
        ):
            if args.json:
                print(json.dumps(event), flush=True)
            else:
                print(_format_event(event), flush=True)
            if (
                event.get("type") in TERMINAL_EVENT_TYPES
                and event.get("job_id") == args.job_id
            ):
                final = event["type"]
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    if final is None:
        # Stream ended without a terminal event (timeout, or the event
        # aged out of the ring): the job record is the ground truth.
        state = client.job(args.job_id)["state"]
        print(f"stream ended; job {args.job_id} is {state}",
              file=sys.stderr)
        return 0 if state == "done" else 1
    return 0 if final == "job.done" else 1


def _top_frame(client, max_rows: int = 15) -> str:
    """One rendered ``repro top`` frame (dashboard snapshot)."""

    from .exceptions import ServiceError

    health = client.health()
    jobs = client.jobs()
    workers = health.get("workers") or {}
    events = health.get("events") or {}
    lines = [
        f"repro top — {time.strftime('%H:%M:%S')}  "
        f"queue={health.get('queue_depth', '?')}  "
        f"workers={workers.get('busy', '?')}/{workers.get('total', '?')} "
        f"({workers.get('saturation', 0.0):.0%} busy)  "
        f"ready={'yes' if health.get('ready') else 'NO'}",
        f"events: last_seq={events.get('last_seq', '?')} "
        f"ring={events.get('size', '?')}/{events.get('capacity', '?')}  "
        f"journal_lag="
        + (
            f"{(health.get('journal_detail') or {}).get('append_lag_seconds'):.1f}s"
            if (health.get("journal_detail") or {}).get(
                "append_lag_seconds"
            ) is not None
            else "—"
        ),
        "",
    ]
    rows = []
    for record in jobs[-max_rows:]:
        state = record["state"]
        bar = ""
        front: Any = ""
        if state == "running":
            try:
                prog = client.progress(record["id"])
                counters = prog.get("progress") or {}
                n = counters.get("n_valuated") or 0
                budget = counters.get("budget") or 0
                if budget:
                    bar = _progress_bar(n / budget) + f" {n}/{budget}"
                front = (
                    prog.get("partial_front_size")
                    or counters.get("front_size")
                    or ""
                )
            except ServiceError:
                pass
        elif state == "done":
            bar = _progress_bar(1.0)
            front = (record.get("summary") or {}).get("skyline_size", "")
        rows.append([
            record["id"],
            record["scenario"]["name"],
            state,
            bar,
            front,
        ])
    if rows:
        lines.append(_format_table(
            ["job", "scenario", "state", "progress", "front"], rows
        ))
    else:
        lines.append("no jobs submitted yet")
    if len(jobs) > max_rows:
        lines.append(f"(… {len(jobs) - max_rows} older jobs not shown)")
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: a live, refreshing service dashboard.

    Redraws every ``--interval`` seconds: queue depth, worker occupancy,
    event-stream cursor, and a per-job table with progress bars for
    running jobs. ``--iterations N`` stops after N frames (useful in
    scripts and tests; 0 means run until interrupted).
    """

    from .service import ServiceClient

    client = ServiceClient(args.url)
    frames = 0
    try:
        while True:
            frame = _top_frame(client)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    """``repro fetch``: download one finished job's full result."""
    from .report import save_job_record
    from .service import ServiceClient

    client = ServiceClient(args.url)
    record = client.result(args.job_id)
    if args.output:
        path = save_job_record(record, args.output)
        print(f"wrote {path}", file=sys.stderr)
    if args.json or not args.output:
        print(json.dumps(record, indent=2))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """``repro recover``: offline journal inspection and compaction.

    Replays a journal directory without booting a service and reports,
    per job, what a ``repro serve --journal-dir`` restart would do with
    it; without ``--dry-run`` the journal is also compacted to a single
    snapshot segment.
    """
    from .report import save_recovery_report
    from .service import JobJournal
    from .service.jobs import Job
    from .service.scheduler import RECOVERY_ACTIONS, recovery_action

    journal = JobJournal(args.journal_dir)
    summary = journal.replay()
    rows = []
    actions = dict.fromkeys(RECOVERY_ACTIONS, 0)
    # The scheduler's own policy. Offline, the restarting scheduler's id
    # is unknown, so every live lease counts as a peer's. Dedup
    # re-linking of identical fingerprints is not modeled — a "requeue"
    # here may become a follower of another requeued job at actual boot.
    now = time.time()
    for snapshot in summary.jobs.values():
        state = snapshot.get("state", "?")
        retries = snapshot.get("retries", 0) or 0
        try:
            job = Job.from_snapshot(snapshot)
        except Exception:
            action = "drop"
        else:
            action = recovery_action(job, args.max_retries, now)
        actions[action] += 1
        rows.append({
            "id": snapshot.get("id", "?"),
            "scenario": snapshot.get("spec", {}).get("name", "?"),
            "state": state,
            "retries": retries,
            "action": action,
        })
    report = {
        "journal": journal.stats(),
        "records": summary.records,
        "skipped_lines": summary.skipped,
        "torn_tail": summary.torn_tail,
        "orphaned": summary.orphaned,
        "by_state": summary.by_state(),
        "actions": actions,
        "jobs": rows,
        "max_retries": args.max_retries,
        "dry_run": bool(args.dry_run),
    }
    compacted = None
    if not args.dry_run:
        # Offline-only: compaction replays then deletes the old
        # segments, so a record a *live* service appends in between
        # would be destroyed. There is no cross-process lock — the
        # operator must stop the service first (or use --dry-run).
        print(
            "warning: compacting rewrites this journal — make sure no "
            "'repro serve' is using it, or records may be lost",
            file=sys.stderr,
        )
        compacted = journal.compact()
        report["compacted_records"] = compacted
    if args.output:
        path = save_recovery_report(report, args.output)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    if rows:
        print(_format_table(
            ["job", "scenario", "state", "retries", "on restart"],
            [[r["id"], r["scenario"], r["state"], r["retries"], r["action"]]
             for r in rows],
        ))
    else:
        print(f"no jobs recorded in {journal.directory}")
    print(
        f"\n{summary.records} record(s) across "
        f"{summary.segments} segment(s)"
        + (f", {summary.skipped} skipped" if summary.skipped else "")
        + (", torn final line dropped" if summary.torn_tail else "")
        + (f", {summary.orphaned} orphaned" if summary.orphaned else "")
        + " | restart would: "
        + ", ".join(f"{verb} {count}" for verb, count in actions.items()
                    if count)
    )
    if compacted is not None:
        print(f"compacted journal to 1 segment ({compacted} snapshot(s))")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MODis: multi-objective skyline dataset generation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tasks", help="list the paper's evaluation tasks T1-T5")
    sub.add_parser("algorithms", help="list available discovery algorithms")
    sub.add_parser("udfs", help="list registered operator-enrichment UDFs")

    corpus = sub.add_parser("corpus", help="print corpus characteristics "
                                           "(Table 2 analogue)")
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--scale", type=float, default=0.25)

    discover = sub.add_parser(
        "discover", help="run skyline data discovery on a task"
    )
    discover.add_argument("--task", required=True,
                          choices=sorted(TASK_BUILDERS))
    discover.add_argument("--algorithm", default="bimodis",
                          help="one of: " + ", ".join(sorted(ALGORITHMS)))
    discover.add_argument("--epsilon", type=float, default=0.1,
                          help="ε of the ε-skyline approximation")
    discover.add_argument("--budget", type=int, default=80,
                          help="N, the maximum number of valuated states")
    discover.add_argument("--max-level", type=int, default=5,
                          help="maxl, the maximum path length")
    discover.add_argument("--scale", type=float, default=0.5,
                          help="task corpus scale factor")
    discover.add_argument("--seed", type=int, default=None)
    discover.add_argument("--estimator", default="mogb",
                          choices=("mogb", "mogb-hist", "oracle"))
    discover.add_argument("--distributed", type=int, default=0,
                          metavar="WORKERS",
                          help="run the distributed coordinator instead")
    discover.add_argument("--backend", default="serial",
                          choices=sorted(BACKENDS),
                          help="execution backend for --distributed workers")
    discover.add_argument("--jobs", type=int, default=0, metavar="N",
                          help="concurrent backend jobs (0 = one per CPU)")
    discover.add_argument("--provenance", action="store_true",
                          help="print the SQL provenance query per entry")
    discover.add_argument("--no-verify", action="store_true",
                          help="skip oracle re-scoring of the skyline")
    discover.add_argument("--output", default="",
                          help="directory to persist datasets + report.json")
    discover.add_argument("--history", default="",
                          help="JSON test-store path: warm-start from it if "
                               "present, save the run's tests back to it")
    discover.add_argument("--json", action="store_true",
                          help="print the machine-readable DiscoveryResult "
                               "JSON on stdout (progress goes to stderr)")

    suite = sub.add_parser(
        "suite", help="batch-run registered scenarios (see repro.scenarios)"
    )
    suite.add_argument("action", nargs="?", default="run",
                       choices=("run", "list", "cache"),
                       help="run the selected scenarios (default), list "
                            "them, or manage the result cache")
    suite.add_argument("cache_action", nargs="?", default="stats",
                       choices=("stats", "clear", "evict"),
                       help="with 'cache': print stats (default), clear "
                            "everything, or evict by age/count")
    suite.add_argument("--max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="evict: drop entries cached longer ago than "
                            "this many seconds")
    suite.add_argument("--max-entries", type=int, default=None, metavar="N",
                       help="evict: keep at most the N newest entries "
                            "(0 keeps none)")
    suite.add_argument("--filter", action="append", default=[],
                       metavar="SELECTOR",
                       help="tag:NAME, task:T1, algorithm:KEY, or a name "
                            "glob; repeat to intersect, comma for OR")
    suite.add_argument("--backend", default="serial",
                       choices=sorted(BACKENDS),
                       help="execution backend fanning scenarios out")
    suite.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="concurrent scenarios (0 = one per CPU)")
    suite.add_argument("--cache-dir", default="",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro/scenarios)")
    suite.add_argument("--no-cache", action="store_true",
                       help="always re-run; neither read nor write the cache")
    suite.add_argument("--output", default="",
                       help="directory for suite_report.json + "
                            "suite_report.md")

    serve = sub.add_parser(
        "serve", help="run the skyline-generation service (see repro.service)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listening port (0 = let the OS pick)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job-worker threads")
    serve.add_argument("--backend", default="serial",
                       choices=sorted(BACKENDS),
                       help="how each worker executes its job ('process' "
                            "forks a child per job for crash isolation)")
    serve.add_argument("--cache-dir", default="",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro/scenarios)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable result-cache dedup; every job runs")
    serve.add_argument("--oracle-store", default="",
                       help="oracle-store directory (default: "
                            "$REPRO_ORACLE_STORE_DIR or "
                            "~/.cache/repro/oracle-stores)")
    serve.add_argument("--no-oracle-store", action="store_true",
                       help="disable oracle warm-starts; every job "
                            "retrains from scratch")
    serve.add_argument("--journal-dir", default="",
                       help="write-ahead journal directory; on boot the "
                            "scheduler replays it, restoring terminal "
                            "records and re-queuing interrupted jobs "
                            "(empty: durability off)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="re-executions granted to a job interrupted "
                            "by a crash before it fails with "
                            "reason=retry-budget")
    serve.add_argument("--scheduler-id", default="",
                       help="stable lease identity; set (with "
                            "--journal-dir) to let several scheduler "
                            "processes share one journal dir — each "
                            "claims jobs under a lease and a survivor "
                            "adopts a dead peer's expired leases "
                            "(empty: leases off)")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       help="seconds a job lease stays live without "
                            "renewal; a dead scheduler's jobs become "
                            "adoptable after this long")
    serve.add_argument("--profile-dir", default="",
                       help="directory for per-job cProfile dumps; jobs "
                            "submitted with profile=true store "
                            "<job-id>.pstats here and surface the summary "
                            "via GET /v1/jobs/{id}/trace (empty: "
                            "profiling off)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one JSON object per log line "
                            "(ts/level/logger/message + job_id/"
                            "shard_index/scheduler_id correlation fields)")
    serve.add_argument("--http-workers", type=int, default=8,
                       help="fixed HTTP request-handling threads; "
                            "connections beyond the pool park in a "
                            "selector, never a thread each")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="readable connections allowed to wait for an "
                            "HTTP worker; beyond this the server answers "
                            "429 and closes (backpressure)")
    serve.add_argument("--admission-queue-depth", type=int, default=256,
                       help="job-queue depth at which POST /v1/jobs "
                            "answers 429 + Retry-After instead of "
                            "enqueueing (admission control)")

    submit = sub.add_parser(
        "submit", help="submit one job to a running service"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")
    submit.add_argument("--scenario", default="",
                        help="registered scenario name (see: repro suite "
                             "list); exclusive with --task")
    submit.add_argument("--task", default="",
                        help="inline job: task name (T1..T5)")
    submit.add_argument("--algorithm", default="bimodis")
    submit.add_argument("--epsilon", type=float, default=0.1)
    submit.add_argument("--budget", type=int, default=80)
    submit.add_argument("--max-level", type=int, default=5)
    submit.add_argument("--scale", type=float, default=0.5)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--estimator", default="mogb",
                        choices=("mogb", "mogb-hist", "oracle"))
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs sooner (FIFO within a priority)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal state")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock limit in seconds; the "
                             "job fails with reason=timeout when exceeded")
    submit.add_argument("--max-oracle-calls", type=int, default=None,
                        help="per-job oracle-call quota; the job fails "
                             "with reason=quota but keeps its partial "
                             "oracle truth for the next attempt")
    submit.add_argument("--shards", type=int, default=None,
                        help="scatter the search across N shard jobs and "
                             "merge their skylines into this job's result")
    submit.add_argument("--profile", action="store_true",
                        help="run the job under cProfile server-side "
                             "(needs 'repro serve --profile-dir'); see "
                             "'repro trace' for the summary")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        help="--wait polling timeout in seconds")
    submit.add_argument("--json", action="store_true",
                        help="print the full job record as JSON")

    recover = sub.add_parser(
        "recover", help="inspect (and optionally compact) a job journal "
                        "offline — what would a restart restore? "
                        "Compaction requires the service to be stopped; "
                        "--dry-run is always safe."
    )
    recover.add_argument("--journal-dir", required=True,
                         help="journal directory written by "
                              "'repro serve --journal-dir'")
    recover.add_argument("--max-retries", type=int, default=2,
                         help="retry budget to evaluate interrupted jobs "
                              "against (matches the serve flag)")
    recover.add_argument("--dry-run", action="store_true",
                         help="read-only: report without compacting the "
                              "journal")
    recover.add_argument("--json", action="store_true",
                         help="print the replay report as JSON")
    recover.add_argument("--output", default="",
                         help="directory for recovery_report.json")

    status = sub.add_parser(
        "status", help="list service jobs and metrics (or one job's record)"
    )
    status.add_argument("job_id", nargs="?", default="",
                        help="job id for a single-job detail view")
    status.add_argument("--url", default="http://127.0.0.1:8765")
    status.add_argument("--json", action="store_true",
                        help="print metrics + jobs as one JSON document")

    trace = sub.add_parser(
        "trace", help="render a job's lifecycle trace (queue-wait, run, "
                      "per-phase spans) as an indented duration tree"
    )
    trace.add_argument("job_id")
    trace.add_argument("--url", default="http://127.0.0.1:8765")
    trace.add_argument("--json", action="store_true",
                       help="print the raw trace payload as JSON")

    watch = sub.add_parser(
        "watch", help="follow one job's live event stream (progress, "
                      "partial skylines, shard children) to its end"
    )
    watch.add_argument("job_id")
    watch.add_argument("--url", default="http://127.0.0.1:8765")
    watch.add_argument("--timeout", type=float, default=300.0,
                       help="give up after this many seconds "
                            "(0 = follow forever)")
    watch.add_argument("--json", action="store_true",
                       help="print raw events as JSON lines")

    top = sub.add_parser(
        "top", help="live refreshing dashboard: queue depth, worker "
                    "occupancy, per-job progress bars"
    )
    top.add_argument("--url", default="http://127.0.0.1:8765")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between redraws")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N frames (0 = until interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")

    fetch = sub.add_parser(
        "fetch", help="download a finished job's full result payload"
    )
    fetch.add_argument("job_id")
    fetch.add_argument("--url", default="http://127.0.0.1:8765")
    fetch.add_argument("--output", default="",
                       help="directory for job_record.json")
    fetch.add_argument("--json", action="store_true",
                       help="also print the record when --output is given")
    return parser


_COMMANDS = {
    "tasks": cmd_tasks,
    "algorithms": cmd_algorithms,
    "udfs": cmd_udfs,
    "corpus": cmd_corpus,
    "discover": cmd_discover,
    "suite": cmd_suite,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "trace": cmd_trace,
    "watch": cmd_watch,
    "top": cmd_top,
    "fetch": cmd_fetch,
    "recover": cmd_recover,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
