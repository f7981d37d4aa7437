"""The worker pool that drains the job queue.

``Scheduler`` owns the whole serving pipeline: submissions are validated
fail-fast through the PR-2 :class:`~repro.scenarios.factory.ScenarioFactory`,
content-hash deduplicated against the persistent
:class:`~repro.scenarios.cache.ResultCache` (an identical job completes
instantly, without ever touching the queue) *and* against identical
in-flight jobs (the follower waits and inherits the primary's result
instead of running twice), and otherwise pushed onto the priority
:class:`~repro.service.queue.JobQueue`. Worker threads pop jobs and
execute each one through a PR-1 :mod:`repro.exec` backend's
:meth:`~repro.exec.Backend.run_one` — ``serial`` runs in-thread, while
``process`` forks a child per job so a crashing job cannot take the
service down. Failures are isolated per job: the job ends ``FAILED`` with
the error recorded, and the worker moves on.

With a :class:`~repro.service.journal.JobJournal` attached, every
transition is write-ahead logged: on construction the scheduler replays
the journal, restores terminal records, re-queues jobs that were
``QUEUED`` at crash time, and re-queues crash-interrupted ``RUNNING``
jobs with a retry charged — up to ``max_retries``, after which the job
fails with ``failure_reason="retry-budget"``. Per-job resource limits
(``timeout``, ``max_oracle_calls``) are enforced cooperatively at the
oracle boundary on every backend, and by hard child kill on the
forked-process backend; a limit-hit job still persists whatever oracle
truth it computed, so its partial work warm-starts the next attempt.

With an :class:`~repro.service.store.OracleStore` attached, every job on a
task key warm-starts its estimator from the key's persisted ground truth
and merges its own new truth back in afterwards, so oracle training cost
is paid once per task, not once per job. ``oracle_calls_saved`` is
measured against the cold run that seeded the key's store.

**Sharded jobs.** A ``shards=N`` submission fans out as one coordinating
*parent* plus ``N`` shard children (see :mod:`repro.service.sharding`):
each child runs the distributed runtime's seeded reduce-search over its
slice of the level-1 frontier, and whichever worker completes the last
child merges every shipped local skyline into the parent's result.
Sharded jobs bypass the result cache, in-flight dedup, and the oracle
store — shard results are partial by construction and must never poison
the caches keyed by the full spec's fingerprint.

**Journal leases.** With a journal attached *and an explicit*
``scheduler_id``, every job this scheduler works on is claimed under a
lease (``lease-acquired``/``renewed``/``released`` WAL records carrying
the id and a TTL). Multiple scheduler processes can then share one
journal directory: each boots against the same WAL, leaves peers'
live-leased jobs alone, and — via a periodic sweep that replays the
journal through the boot's takeover path — adopts jobs whose lease
expired (a SIGKILLed peer stops renewing), charging the usual crash
retry for work that died mid-run.
A scheduler restarting under its *own* id reclaims its leases
immediately — expiry only gates takeover by peers. Shared-dir mode is
opt-in precisely because ids must be stable: an anonymous scheduler
(the default) cannot tell its own pre-crash leases from a live peer's,
so it journals no leases and recovers exactly as before. Leases
*narrow* the double-execution window, they do not eliminate it: jobs
are deterministic and terminal records are idempotent (last writer
wins), so the guarantee is at-least-once.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Collection, Mapping

from ..core.estimator import TestStore
from ..exceptions import (
    JobLimitExceeded,
    NotCancellableError,
    ServiceError,
    UnknownJobError,
)
from ..exec import Backend, make_backend
from ..logging_util import get_logger, log_context
from ..obs import MetricsRegistry, SpanCollector, span, use_collector
from ..obs.events import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_PARTIAL,
    JOB_PROGRESS,
    JOB_STARTED,
    JOB_SUBMITTED,
    EventBus,
    ProgressEmitter,
    drain_progress,
    use_emitter,
)
from ..obs.metrics import render_prometheus
from ..obs.profiling import profile_to_file, summarize_profile
from ..report import build_payload
from ..scenarios.cache import ResultCache
from ..scenarios.factory import ResolvedScenario, ScenarioFactory
from ..scenarios.registry import ScenarioRegistry, load_builtin_scenarios
from ..scenarios.spec import Scenario
from .jobs import (
    Job,
    JobState,
    limits_from_request,
    profile_from_request,
    scenario_from_request,
    shards_from_request,
    summarize_result,
)
from .journal import JobJournal
from .queue import JobQueue
from .sharding import ShardRun, merge_shard_results
from .store import OracleStore, task_key

logger = get_logger("service.scheduler")

#: Terminal job state → the event type published for it.
_TERMINAL_EVENTS = {
    JobState.DONE: JOB_DONE,
    JobState.FAILED: JOB_FAILED,
    JobState.CANCELLED: JOB_CANCELLED,
}


class _OracleGuard:
    """Cooperative per-job limit enforcement at the oracle boundary.

    Wraps the estimator's oracle callable: every real model training
    first checks the job's wall-clock deadline and oracle-call quota and
    raises :class:`~repro.exceptions.JobLimitExceeded` when either is
    spent. Oracle calls are where a job's cost concentrates, so checking
    here bounds both serial and thread backends without preemption; jobs
    stuck *between* oracle calls are covered by the process backend's
    hard kill.
    """

    __slots__ = (
        "oracle",
        "deadline",
        "max_calls",
        "calls",
        "accepts_matrix",
        "accepts_binned",
    )

    def __init__(
        self,
        oracle,
        deadline: float | None,
        max_calls: int | None,
    ):
        self.oracle = oracle
        self.deadline = deadline
        self.max_calls = max_calls
        self.calls = 0
        # Forward the fast-path capabilities of the wrapped oracle
        # (see repro.core.estimator.oracle_artifact) — guarding must not
        # silently demote jobs to the legacy Table path.
        self.accepts_matrix = getattr(oracle, "accepts_matrix", False)
        self.accepts_binned = getattr(oracle, "accepts_binned", False)

    def __call__(self, artifact):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise JobLimitExceeded(
                "timeout", "job exceeded its wall-clock limit"
            )
        if self.max_calls is not None and self.calls >= self.max_calls:
            raise JobLimitExceeded(
                "quota",
                f"job exceeded its oracle-call quota of {self.max_calls}",
            )
        self.calls += 1
        return self.oracle(artifact)


def _lease_live(job: Job, now: float) -> bool:
    """True while ``job``'s lease has an owner and has not expired."""
    return (
        job.lease_owner is not None
        and job.lease_expires_at is not None
        and job.lease_expires_at > now
    )


#: Every takeover action, one count each in ``repro recover``'s report;
#: ``drop`` is a snapshot that cannot be rebuilt into a job.
RECOVERY_ACTIONS = (
    "requeue", "retry", "fail-retry-budget", "remerge", "peer", "keep", "drop",
)

#: The boot's ``journal.recovery`` counter for each takeover action.
_BOOT_COUNTERS = {
    "requeue": "requeued",
    "retry": "retried",
    "fail-retry-budget": "failed_retry_budget",
    "remerge": "shard_parents",
    "peer": "remote_leases",
    "keep": "restored_terminal",
    "drop": "unrecoverable",
}


def recovery_action(
    job: Job, max_retries: int, now: float, scheduler_id: str | None = None
) -> str:
    """What a takeover does with one replayed job.

    The one takeover policy: boot recovery and the lease sweep act on it
    (``Scheduler._take_over_locked``) and ``repro recover`` reports it.
    ``peer`` means a live lease held by a scheduler other than
    ``scheduler_id``; ``remerge`` a shard parent.
    """
    if job.terminal:
        return "keep"
    if job.lease_owner != scheduler_id and _lease_live(job, now):
        return "peer"
    if job.is_shard_parent:
        return "remerge"
    if job.state == JobState.RUNNING:
        return "retry" if job.retries < max_retries else "fail-retry-budget"
    return "requeue"


def _queue_wait_span(job: Job) -> dict[str, Any] | None:
    """A synthetic span covering submission → first worker pickup.

    The queue wait happens before any collector exists, so it is
    synthesized from the job's own timestamps. Id 0 is reserved for it
    (collector-allocated ids start at 1, so they never collide).
    """
    if job.started_at is None:
        return None
    return {
        "id": 0,
        "parent": None,
        "name": "queue-wait",
        "start": job.submitted_at,
        "end": job.started_at,
        "attrs": {"job_id": job.id},
    }


def _assemble_trace(
    job: Job, run_spans: list[dict[str, Any]] | None
) -> list[dict[str, Any]]:
    """The persisted trace: synthetic queue-wait + the run's collected spans."""
    spans: list[dict[str, Any]] = []
    queue_wait = _queue_wait_span(job)
    if queue_wait is not None:
        spans.append(queue_wait)
    if run_spans:
        spans.extend(run_spans)
    return spans


def _parent_trace(
    parent: Job,
    child_meta: list[tuple[str, int | None, float | None, float | None]],
    merge_start: float,
    merge_end: float,
) -> list[dict[str, Any]]:
    """A shard parent's trace, synthesized at merge time.

    The parent never executes on a backend, so its spans are built from
    lifecycle timestamps: queue-wait (submission → first shard pickup),
    a run span covering scatter-to-merge, one linked ``shard`` span per
    child (carrying the child job id — the cross-journal parent/child
    link), and the merge itself.
    """
    child_starts = [s for _, _, s, _ in child_meta if s is not None]
    scatter_start = min(child_starts) if child_starts else merge_start
    spans: list[dict[str, Any]] = [
        {
            "id": 0,
            "parent": None,
            "name": "queue-wait",
            "start": parent.submitted_at,
            "end": scatter_start,
            "attrs": {"job_id": parent.id},
        },
        {
            "id": 1,
            "parent": None,
            "name": "run",
            "start": scatter_start,
            "end": merge_end,
            "attrs": {"job_id": parent.id, "shards": parent.shards},
        },
    ]
    next_id = 2
    for child_id, shard_index, started, finished in child_meta:
        spans.append(
            {
                "id": next_id,
                "parent": 1,
                "name": "shard",
                "start": started if started is not None else scatter_start,
                "end": finished if finished is not None else merge_start,
                "attrs": {"job_id": child_id, "shard_index": shard_index},
            }
        )
        next_id += 1
    spans.append(
        {
            "id": next_id,
            "parent": 1,
            "name": "shard-merge",
            "start": merge_start,
            "end": merge_end,
            "attrs": {"n_shards": len(child_meta)},
        }
    )
    return spans


class _JobRun:
    """The unit shipped to a backend: run one resolved scenario.

    Fork-friendly (inherited state, no pickling of the closure) and
    returns only plain JSON-able data, so the same object works on the
    serial, thread, and forked-process backends alike. Cooperative limit
    hits are *returned* (``"limit"``), not raised — the partial test
    store must cross the process boundary so quota-exhausted work still
    warm-starts the next attempt.

    Observability: the run installs a fresh span collector, so every
    ``obs.span`` opened below it (search levels, oracle fits, valuation
    batches, pareto thinning) lands in the returned ``"spans"`` list —
    plain dicts, so they cross the process pipe like everything else.
    With ``profile_path`` set, the whole run is additionally wrapped in
    cProfile and dumped to that path *from the executing process* (the
    fork child shares the filesystem; no profile bytes cross the pipe).
    """

    __slots__ = (
        "resolved",
        "store",
        "timeout",
        "max_oracle_calls",
        "job_id",
        "profile_path",
        "progress_fd",
    )

    def __init__(
        self,
        resolved: ResolvedScenario,
        store: TestStore | None,
        timeout: float | None = None,
        max_oracle_calls: int | None = None,
        job_id: str | None = None,
        profile_path: str | None = None,
        progress_fd: int | None = None,
    ):
        self.resolved = resolved
        self.store = store
        self.timeout = timeout
        self.max_oracle_calls = max_oracle_calls
        self.job_id = job_id
        self.profile_path = profile_path
        #: write end of the scheduler's per-job progress pipe. Inherited
        #: across the process backend's fork, shared directly on the
        #: serial/thread backends — the live-progress channel is the same
        #: either way.
        self.progress_fd = progress_fd

    def __call__(self) -> dict[str, Any]:
        # The deadline starts BEFORE build: both the cooperative clock
        # and the parent's hard-kill clock then begin ~at fork, so slow
        # scenario construction cannot eat the grace margin that lets
        # the cooperative path report (with its partial store) first.
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None else None
        )
        collector = SpanCollector()
        limit = None
        result = None
        emitter_cm = (
            use_emitter(ProgressEmitter(self.progress_fd))
            if self.progress_fd is not None
            else contextlib.nullcontext()
        )
        with use_collector(collector), profile_to_file(
            self.profile_path
        ), emitter_cm:
            with span("run", job_id=self.job_id):
                with span("scenario-build"):
                    runnable = self.resolved.build(store=self.store)
                config = getattr(runnable, "config", None)
                if config is not None and (
                    deadline is not None or self.max_oracle_calls is not None
                ):
                    oracle = getattr(config.estimator, "oracle", None)
                    if oracle is not None:
                        config.estimator.oracle = _OracleGuard(
                            oracle, deadline, self.max_oracle_calls
                        )
                start = time.perf_counter()
                try:
                    result = runnable.run(verify=self.resolved.spec.verify)
                except JobLimitExceeded as exc:
                    limit = exc.reason
                seconds = time.perf_counter() - start
        oracle_calls = None
        store_rows = None
        if config is not None:
            # Single-node algorithms expose their estimator; distributed
            # runs keep private per-worker estimators and report neither.
            oracle_calls = config.estimator.oracle_calls
            store_rows = config.estimator.store.to_payload(
                include_surrogate=False
            )
        return {
            "result": build_payload(result) if result is not None else None,
            "seconds": seconds,
            "oracle_calls": oracle_calls,
            "store_rows": store_rows,
            "limit": limit,
            "spans": collector.spans,
            "spans_dropped": collector.dropped,
        }


class Scheduler:
    """Thread-pool job scheduler with caching, warm-starts, and a WAL."""

    def __init__(
        self,
        registry: ScenarioRegistry | None = None,
        factory: ScenarioFactory | None = None,
        result_cache: ResultCache | None = None,
        oracle_store: OracleStore | None = None,
        journal: JobJournal | None = None,
        backend: str | Backend = "serial",
        n_workers: int = 2,
        max_retries: int = 2,
        scheduler_id: str | None = None,
        lease_ttl: float = 30.0,
        lease_sweep_interval: float | None = None,
        profile_dir: str | Path | None = None,
        metrics_registry: MetricsRegistry | None = None,
    ):
        if n_workers < 1:
            raise ServiceError("n_workers must be >= 1")
        if max_retries < 0:
            raise ServiceError("max_retries must be >= 0")
        if scheduler_id is not None and not str(scheduler_id).strip():
            raise ServiceError("scheduler_id must be non-empty")
        self.registry = (
            registry if registry is not None else load_builtin_scenarios()
        )
        self.factory = factory if factory is not None else ScenarioFactory()
        self.result_cache = result_cache
        self.oracle_store = oracle_store
        self.journal = journal
        self.backend = make_backend(backend, 1)
        self.n_workers = int(n_workers)
        self.max_retries = int(max_retries)
        self.queue = JobQueue()
        self.jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._started_at = time.time()
        self.profile_dir = Path(profile_dir) if profile_dir else None
        #: Typed metric series (repro.obs). Each series carries its own
        #: lock, so incrementing under the scheduler lock is cheap and
        #: snapshotting for /v1/metrics needs no scheduler lock at all.
        self.metrics_registry = (
            metrics_registry if metrics_registry is not None
            else MetricsRegistry()
        )
        registry = self.metrics_registry
        self._submitted = registry.counter(
            "repro_jobs_submitted_total", "Jobs accepted by this scheduler"
        )
        self._cache_hits = registry.counter(
            "repro_result_cache_hits_total",
            "Submissions completed instantly from the result cache",
        )
        self._warm_starts = registry.counter(
            "repro_oracle_warm_starts_total",
            "Jobs whose estimator was seeded from the oracle store",
        )
        self._oracle_calls_total = registry.counter(
            "repro_oracle_calls_total", "Real model trainings paid by jobs"
        )
        self._oracle_calls_saved_total = registry.counter(
            "repro_oracle_calls_saved_total",
            "Oracle calls avoided vs each task's cold baseline",
        )
        self._failed_limits = registry.counter(
            "repro_jobs_failed_limit_total",
            "Jobs failed by a per-job resource limit",
            labelnames=("reason",),
        )
        self._dedup_hits = registry.counter(
            "repro_dedup_inflight_hits_total",
            "Submissions deduplicated against an identical in-flight job",
        )
        self._retries_total = registry.counter(
            "repro_job_retries_total",
            "Crash-recovery re-executions charged across all jobs",
        )
        self._queue_wait_hist = registry.histogram(
            "repro_job_queue_wait_seconds",
            "Submission-to-first-pickup wait per job",
        )
        self._run_hist = registry.histogram(
            "repro_job_run_seconds", "Backend run time per executed job"
        )
        self._spans_dropped = registry.counter(
            "repro_trace_spans_dropped_total",
            "Spans dropped by per-run collectors past their retention cap",
        )
        #: live job events (lifecycle + in-run progress), cursor-addressed.
        #: With a journal, sequence numbers are reserved through a file in
        #: the journal directory so cursors survive scheduler restarts.
        self.event_bus = EventBus(
            persist_path=(
                journal.directory / "events.seq"
                if journal is not None else None
            ),
        )
        #: job id → latest partial-skyline refresh (in-memory only: a
        #: replayed running job answers ``?partial=1`` with an empty
        #: front until its re-run emits a fresh one — degrade, don't 500).
        self._partials: dict[str, dict[str, Any]] = {}
        #: job id → epoch of the last progress/heartbeat line received.
        self._last_event_at: dict[str, float] = {}
        #: this process's lease identity in the shared journal.
        self.scheduler_id = (
            str(scheduler_id).strip()
            if scheduler_id is not None
            else f"sched-{uuid.uuid4().hex[:8]}"
        )
        #: seconds a lease stays live without renewal; <= 0 disables leases.
        self.lease_ttl = float(lease_ttl)
        #: True when jobs are claimed under journal leases: that needs a
        #: journal, a TTL, and an explicit id — an anonymous scheduler
        #: cannot tell its own pre-crash leases from a live peer's after
        #: a restart, so it must not write any.
        self.leases_enabled = (
            journal is not None
            and scheduler_id is not None
            and self.lease_ttl > 0
        )
        self._sweep_interval = (
            float(lease_sweep_interval)
            if lease_sweep_interval is not None
            else max(0.5, self.lease_ttl / 3.0)
        )
        self._sweep_stop = threading.Event()
        self._sweep_thread: threading.Thread | None = None
        #: parent job id → shard child job ids (in shard_index order).
        self._shard_children: dict[str, list[str]] = {}
        self._shards_submitted = registry.counter(
            "repro_shards_submitted_total",
            "shards=N submissions fanned out by this scheduler",
        )
        self._shards_merged = registry.counter(
            "repro_shards_merged_total",
            "Sharded parents merged to a final skyline",
        )
        self._lease_events = registry.counter(
            "repro_lease_events_total",
            "Journal lease maintenance events",
            labelnames=("event",),
        )
        #: fingerprint → id of the job currently queued/running for it.
        self._inflight: dict[str, str] = {}
        #: job id → fingerprint (avoids re-hashing at terminal time).
        self._fingerprints: dict[str, str] = {}
        #: primary job id → follower job ids awaiting its result.
        self._followers: dict[str, list[str]] = {}
        #: ids of journaled jobs that cannot be rebuilt, each reported once.
        self._dropped: set[str] = set()
        self._recovery: dict[str, Any] = {
            "replayed": 0,
            "requeued": 0,
            "retried": 0,
            "refollowed": 0,
            "failed_retry_budget": 0,
            "restored_terminal": 0,
            "unrecoverable": 0,
            "skipped_lines": 0,
            "torn_tail": False,
            "remote_leases": 0,
            "shard_parents": 0,
        }
        if journal is not None:
            self._recover(journal)

    # -- journal takeover --------------------------------------------------------
    def _recover(self, journal: JobJournal) -> None:
        """Take the journal's jobs over at boot, then compact it.

        Every replayed job goes through :meth:`_take_over_locked`, the
        path the lease sweep uses too; boot adds only its
        ``journal.recovery`` counts and the compaction gate. The
        post-replay compaction makes the retry accounting durable in one
        segment before any new work is accepted.

        On a *shared* journal dir, jobs under a live foreign lease belong
        to a peer scheduler, and their presence suppresses the plain
        compaction — rewriting a WAL a live peer is appending to would
        destroy the peer's records.
        """
        summary = journal.replay()
        stats = self._recovery
        stats["skipped_lines"] = summary.skipped
        stats["torn_tail"] = summary.torn_tail
        with self._lock:
            taken = self._take_over_locked(summary.jobs, strict=True)
        for _, action, followed in taken:
            stats["replayed"] += action != "drop"
            stats["refollowed"] += followed
            if not (followed and action == "requeue"):
                stats[_BOOT_COUNTERS[action]] += 1
        if stats["unrecoverable"]:
            # Compacting would rewrite the journal from in-memory jobs
            # only, durably destroying the snapshots this release could
            # not reconstruct (e.g. after a rollback to code missing a
            # newer field). Keep the raw segments so a later release can
            # still recover them.
            logger.warning(
                "skipping boot compaction: %d journaled job(s) could not "
                "be reconstructed and would be erased",
                stats["unrecoverable"],
            )
        elif self.leases_enabled or stats["remote_leases"]:
            # Shared-journal mode (or a journal carrying foreign leases):
            # another scheduler process may be appending to — or boot-
            # compacting — these very segments right now. With the
            # journal's cross-process directory lock a replay-based fold
            # is safe (peer records are preserved, and exactly one
            # compactor wins the non-blocking exclusive lock); without it
            # never compact — correctness beats reclaiming segment space.
            if journal.supports_cross_process_lock:
                journal.compact(None, blocking=False)
            else:  # pragma: no cover - non-POSIX platform
                logger.info(
                    "skipping boot compaction on a shared journal dir "
                    "(%d live peer lease(s) seen, no cross-process lock)",
                    stats["remote_leases"],
                )
        else:
            journal.compact(self.jobs.values())
        for parent in list(self.jobs.values()):
            if parent.is_shard_parent and not parent.terminal:
                self._settle_parent(parent.id)
        if stats["replayed"]:
            logger.info(
                "journal replay: %d job(s) — %d requeued, %d retried, "
                "%d failed on retry budget, %d terminal restored",
                stats["replayed"], stats["requeued"], stats["retried"],
                stats["failed_retry_budget"], stats["restored_terminal"],
            )

    def _take_over_locked(
        self, snapshots: Mapping[str, dict[str, Any]], strict: bool
    ) -> list[tuple[str, str, bool]]:
        """Take over every replayed job this scheduler does not hold yet.

        The one replay path, for boot (:meth:`_recover`) and the lease
        sweep (:meth:`sweep_leases`); lock held. A tracked job is *held*
        when it is terminal or under our lease or none: memory is
        authoritative for it. For every other snapshot,
        :func:`recovery_action` decides:

        * ``keep`` / ``peer``: track it read-only — a terminal record, or
          a job under a peer's live lease;
        * ``remerge``: take the lease on a shard parent; its merge is
          re-elected once every child is terminal. A crash mid-merge
          costs a re-merge, not a retry: the merge is a pure function of
          the children's results;
        * ``retry`` / ``fail-retry-budget``: charge and journal the crash
          retry *before* the job is tracked, so a charge that cannot be
          made durable never lets it run again. With ``strict`` (boot)
          the append error propagates; otherwise the job is left as the
          journal has it for the next pass;
        * ``retry`` / ``requeue``: take the lease, then rejoin in-flight
          dedup as the follower of an identical job, or queue the job;
        * ``drop``: a snapshot that cannot be rebuilt, reported once.

        Returns ``(job id, action, followed)`` per job taken over;
        ``followed`` marks one that became an identical job's follower.
        """
        now = time.time()
        taken: list[tuple[str, str, bool]] = []
        for job_id, snapshot in snapshots.items():
            known = self.jobs.get(job_id)
            if job_id in self._dropped or known is not None and (
                known.terminal
                or known.lease_owner in (None, self.scheduler_id)
            ):
                continue
            try:
                job = Job.from_snapshot(snapshot)
            except Exception:
                self._dropped.add(job_id)
                logger.warning(
                    "journal: cannot reconstruct job %s; dropping it",
                    job_id, exc_info=True,
                )
                taken.append((job_id, "drop", False))
                continue
            action = recovery_action(
                job, self.max_retries, now, self.scheduler_id
            )
            if action in ("retry", "fail-retry-budget"):
                job.retries += 1
                job.started_at = None
                if action == "retry":
                    job.state = JobState.QUEUED
                else:
                    job.state = JobState.FAILED
                    job.finished_at = job.updated_at = time.time()
                    job.failure_reason = "retry-budget"
                    job.error = (
                        f"crashed {job.retries} time(s); retry budget of "
                        f"{self.max_retries} exhausted"
                    )
                try:
                    if job.terminal:
                        self.journal.record_terminal(job)
                    else:
                        self.journal.record_retried(job)
                except Exception:
                    if strict:
                        raise
                    logger.warning(
                        "job %s: could not journal its crash-retry charge; "
                        "leaving it for the next sweep", job_id,
                        exc_info=True,
                    )
                    continue
                self._retries_total.inc()
            self._track(job)
            followed = False
            if job.terminal:
                if action == "fail-retry-budget":
                    self._publish_terminal(job)
                self._cond.notify_all()
            elif action == "remerge":
                job.state = JobState.QUEUED
                job.started_at = None
                self._acquire_lease(job)
            elif action != "peer":
                self._acquire_lease(job)
                # Shard children share their parent's fingerprint by
                # construction, so content dedup skips them.
                fingerprint = (
                    job.spec.fingerprint() if job.shard_index is None
                    else None
                )
                primary_id = self._inflight.get(fingerprint)
                followed = primary_id is not None
                if followed:
                    self._followers.setdefault(primary_id, []).append(job.id)
                else:
                    if fingerprint is not None:
                        self._fingerprints[job.id] = fingerprint
                        self._inflight[fingerprint] = job.id
                    with contextlib.suppress(ServiceError):
                        self.queue.push(job)  # closed: the journal keeps it
            taken.append((job_id, action, followed))
        return taken

    # -- submissions -------------------------------------------------------------
    def submit(
        self,
        spec: Scenario,
        priority: int = 0,
        timeout: float | None = None,
        max_oracle_calls: int | None = None,
        shards: int | None = None,
        profile: bool = False,
    ) -> Job:
        """Validate, dedup, journal, and enqueue a job.

        Raises :class:`~repro.exceptions.ScenarioError` on an unresolvable
        spec — *before* a job record is created, so bad submissions never
        occupy the queue. A spec whose fingerprint already has a cached
        result completes instantly (``cache_hit=True``) without running;
        one whose fingerprint is already queued/running becomes a
        *follower* of that in-flight job and inherits its result
        (``deduped=True``) instead of running a second time.

        ``shards=N`` instead fans the submission out as ``N`` shard
        children plus a coordinating parent (the returned job); sharded
        submissions skip the result cache and in-flight dedup entirely.
        """
        self.factory.resolve(spec)
        timeout, max_oracle_calls = limits_from_request(
            {"timeout": timeout, "max_oracle_calls": max_oracle_calls}
        )
        shards = shards_from_request({"shards": shards})
        if shards is not None:
            if spec.distributed:
                raise ServiceError(
                    "a submission is sharded either via shards=N or via "
                    "a distributed spec, not both"
                )
            if spec.algorithm_kwargs:
                raise ServiceError(
                    "algorithm_kwargs do not apply to sharded jobs (each "
                    "shard runs the seeded reduce-search)"
                )
            if spec.budget < shards:
                raise ServiceError(
                    f"budget {spec.budget} cannot cover {shards} shard(s); "
                    "each shard needs at least one valuation"
                )
            if timeout is not None or max_oracle_calls is not None:
                raise ServiceError(
                    "per-job limits cannot be enforced on sharded jobs "
                    "(per-shard estimators are private)"
                )
            return self._submit_sharded(
                spec, int(priority), shards, profile=profile
            )
        if spec.distributed:
            # Distributed runs keep private per-worker estimators, so
            # the oracle-boundary guard has nothing to wrap: a quota can
            # never be enforced, and a timeout only via the process
            # backend's hard kill. Reject what we cannot honor instead
            # of accepting a limit that silently does nothing.
            if max_oracle_calls is not None:
                raise ServiceError(
                    "max_oracle_calls cannot be enforced on distributed "
                    "scenarios (per-worker estimators are private)"
                )
            if timeout is not None and not (
                self.backend.name == "process"
                and "fork" in multiprocessing.get_all_start_methods()
            ):
                raise ServiceError(
                    "a timeout on a distributed scenario needs the "
                    "process backend with fork available (hard kill); "
                    f"the {self.backend.name} backend here cannot "
                    "enforce it"
                )
        job = Job(
            spec=spec,
            priority=int(priority),
            timeout=timeout,
            max_oracle_calls=max_oracle_calls,
            profile=bool(profile),
        )
        record = (
            self.result_cache.get(spec)
            if self.result_cache is not None else None
        )
        fingerprint = spec.fingerprint()
        with self._lock:
            self._register_submission([job])
            self._submitted.inc()
            self._publish_event(JOB_SUBMITTED, job)
            if record is not None:
                job.transition(JobState.RUNNING)
                job.cache_hit = True
                job.result = record["result"]
                job.oracle_calls = 0
                self._observe_timing(job)
                self._cache_hits.inc()
                self._finish_locked(
                    job,
                    JobState.DONE,
                    trace=lambda hit: _assemble_trace(hit, [{
                        "id": 1,
                        "parent": None,
                        "name": "run",
                        "start": hit.started_at,
                        "end": hit.finished_at,
                        "attrs": {"job_id": hit.id, "cache_hit": True},
                    }]),
                )
            else:
                primary_id = self._inflight.get(fingerprint)
                primary = self.jobs.get(primary_id) if primary_id else None
                if primary is not None and not primary.terminal:
                    # Identical work already in flight: don't run it twice.
                    self._followers.setdefault(primary.id, []).append(job.id)
                    self._dedup_hits.inc()
                    self._acquire_lease(job)
                    if (
                        job.priority > primary.priority
                        and primary.state == JobState.QUEUED
                    ):
                        # The follower's urgency transfers to the work
                        # that will produce its result. Re-pushing makes
                        # a higher-priority heap entry; the stale one is
                        # lazily discarded once the job leaves QUEUED.
                        previous = primary.priority
                        primary.priority = job.priority
                        try:
                            self.queue.push(primary)
                        except ServiceError:
                            # Shutting down: the old entry stands, so
                            # the record must keep matching the heap.
                            primary.priority = previous
                        else:
                            # Re-journal the primary so the escalation
                            # survives a crash (a submitted record
                            # replaces the snapshot wholesale on replay).
                            self._journal_best_effort(
                                primary, "record_submitted", primary
                            )
                    return job
                self._inflight[fingerprint] = job.id
                self._fingerprints[job.id] = fingerprint
                self._acquire_lease(job)
        if job.terminal:  # cache hit: compact outside the lock if due
            self._maybe_compact_journal()
            return job
        try:
            self.queue.push(job)
        except ServiceError:
            # Submission raced a shutdown: the queue is closed, so no
            # worker will ever see this job — don't leave it QUEUED. The
            # cancellation is journaled too: the submitter got an error,
            # so a restart must not resurrect and run this job.
            with self._lock:
                self._finish_locked(job, JobState.CANCELLED)
            raise
        return job

    def submit_request(self, body: Mapping[str, Any]) -> Job:
        """Submit from an API body (named scenario ref or inline fields)."""
        spec = scenario_from_request(body, self.registry)
        priority = body.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(
                f"priority must be an integer, got {priority!r}"
            )
        timeout, max_oracle_calls = limits_from_request(body)
        return self.submit(
            spec,
            priority=priority,
            timeout=timeout,
            max_oracle_calls=max_oracle_calls,
            shards=shards_from_request(body),
            profile=profile_from_request(body),
        )

    # -- sharded jobs ------------------------------------------------------------
    def _track(self, job: Job) -> None:
        """Register a replayed or imported job, indexing a shard child
        under its parent (lock held or boot)."""
        self.jobs[job.id] = job
        if job.parent_id is not None:
            siblings = self._shard_children.setdefault(job.parent_id, [])
            if job.id not in siblings:
                siblings.append(job.id)

    def _shard_children_locked(self, parent_id: str) -> list[Job]:
        """A shard parent's known children, in shard order (lock held)."""
        return sorted(
            (
                self.jobs[cid]
                for cid in self._shard_children.get(parent_id, ())
                if cid in self.jobs
            ),
            key=lambda c: c.shard_index or 0,
        )

    def _submit_sharded(
        self,
        spec: Scenario,
        priority: int,
        shards: int,
        profile: bool = False,
    ) -> Job:
        """Fan one submission out as a parent plus ``shards`` children.

        All ``shards + 1`` records are journaled strictly before any
        child is queued — a submission that cannot be made durable as a
        whole never happened. Returns the parent job.
        """
        parent = Job(
            spec=spec, priority=priority, shards=shards,
            profile=bool(profile),
        )
        children = [
            Job(
                spec=spec,
                priority=priority,
                shards=shards,
                parent_id=parent.id,
                shard_index=index,
                profile=bool(profile),
            )
            for index in range(shards)
        ]
        with self._lock:
            self._register_submission([parent, *children])
            self._submitted.inc()
            self._shard_children[parent.id] = [c.id for c in children]
            self._shards_submitted.inc()
            self._publish_event(JOB_SUBMITTED, parent, shards=shards)
            for child in children:
                self._publish_event(
                    JOB_SUBMITTED,
                    child,
                    parent_id=parent.id,
                    shard_index=child.shard_index,
                )
            self._acquire_lease(parent)
            for child in children:
                self._acquire_lease(child)
        closed = False
        for child in children:
            try:
                self.queue.push(child)
            except ServiceError:
                closed = True
                with self._lock:
                    if child.state == JobState.QUEUED:
                        self._finish_locked(child, JobState.CANCELLED)
        if closed:
            # Submission raced a shutdown; whatever children did get in
            # settle the parent (FAILED on the cancelled shards) once
            # they finish — or right now if none were accepted.
            self._settle_parent(parent.id)
            raise ServiceError("queue is closed; cannot accept jobs")
        return parent

    def _settle_parent(self, parent_id: str | None) -> None:
        """Merge (or fail) a parent once every shard child is terminal.

        Whichever caller finds the parent still ``QUEUED`` with all
        children terminal wins the merge election (``QUEUED → RUNNING``
        under the lock); everyone else returns. The merge itself — and
        its optional oracle re-scoring — runs outside the lock.
        """
        if parent_id is None:
            return
        with self._lock:
            parent = self.jobs.get(parent_id)
            if parent is None or parent.terminal:
                return
            children = self._shard_children_locked(parent_id)
            if len(children) < (parent.shards or 0) or not all(
                c.terminal for c in children
            ):
                return
            if parent.state != JobState.QUEUED:
                return  # another worker (or scheduler) is already merging
            failed = [c for c in children if c.state != JobState.DONE]
            parent.transition(JobState.RUNNING)
            self._journal_started(parent)
            if failed:
                sample = "; ".join(
                    f"shard {c.shard_index}: {c.state}"
                    + (f" ({c.error})" if c.error else "")
                    for c in failed[:3]
                )
                parent.error = (
                    f"{len(failed)} of {len(children)} shard(s) did not "
                    f"finish: {sample}"
                )
                parent.failure_reason = "shard"
                self._finish_locked(parent, JobState.FAILED)
                return
            merge_input = [dict(c.result or {}) for c in children]
            child_meta = [
                (c.id, c.shard_index, c.started_at, c.finished_at)
                for c in children
            ]
        merge_started_at = time.time()
        start = time.perf_counter()
        error = None
        try:
            resolved = self.factory.resolve(parent.spec)
            payload = merge_shard_results(resolved, merge_input)
        except Exception as exc:  # noqa: BLE001 — isolate the merge too
            logger.warning("merge for job %s failed: %s", parent_id, exc)
            error = f"{type(exc).__name__}: {exc}"
        merge_finished_at = time.time()
        with self._lock:
            if parent.state != JobState.RUNNING:
                return  # raced by a peer's terminal import
            parent.run_seconds = time.perf_counter() - start
            if error is not None:
                parent.error = error
                parent.failure_reason = "error"
                self._finish_locked(parent, JobState.FAILED)
            else:
                parent.result = payload
                parent.trace = _parent_trace(
                    parent, child_meta, merge_started_at, merge_finished_at
                )
                self._observe_timing(parent)
                self._shards_merged.inc()
                self._finish_locked(parent, JobState.DONE)
        self._maybe_compact_journal()

    # -- journal hooks (lock held) -----------------------------------------------
    # Appends (one fsync'd line, single-digit ms) deliberately stay under
    # the scheduler lock: the WAL record must be durable before anyone
    # can observe the transition (wait()/GET /v1/jobs answer under the same
    # lock), and jobs run for seconds-to-minutes, so the sync cost is
    # noise. Only compaction — an O(retained jobs) rewrite — runs outside
    # it; an append can briefly queue behind one on the journal's own
    # lock, bounded by the journal's terminal-retention cap.
    def _journal_submitted(self, job: Job) -> None:
        """Strict WAL write: a submission the journal cannot record is a
        submission durability cannot honor, so the error propagates."""
        if self.journal is not None:
            self.journal.record_submitted(job)

    def _register_submission(self, jobs: list[Job]) -> None:
        """Register and journal one submission's records, all or none.

        Strict WAL: a submission that cannot be made durable never
        happened — the in-memory registration is unwound so no later
        submission dedups against a phantom job. A failed append is
        *indeterminate* (an fsync error can land after the bytes hit the
        file), so every record that may have got through gets a
        compensating cancelled record; if even that fails, the worst case
        is one spurious re-run after a restart.
        """
        attempted: list[Job] = []
        try:
            for job in jobs:
                self.jobs[job.id] = job
                attempted.append(job)
                self._journal_submitted(job)
        except Exception:
            for job in jobs:
                self.jobs.pop(job.id, None)
            for job in attempted:
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                # If this fails too, the job may replay once.
                self._journal_best_effort(job, "record_terminal", job)
            raise

    def _finish_locked(
        self,
        job: Job,
        state: str,
        trace: Callable[[Job], list[dict[str, Any]]] | None = None,
    ) -> None:
        """Move ``job`` to the terminal ``state`` and run every terminal
        hook: WAL record and event, lease release, dedup bookkeeping, and
        a wake-up for waiters. Every terminal transition goes through
        here, with the scheduler lock held.

        ``trace`` builds the persisted trace after the transition, for
        spans that close at ``finished_at``.
        """
        job.transition(state)
        if trace is not None:
            job.trace = trace(job)
        self._journal_terminal(job)
        self._release_lease(job)
        self._on_terminal(job)
        self._cond.notify_all()

    def _journal_best_effort(self, job: Job, record: str, *args: Any) -> None:
        """Append one best-effort WAL record through
        ``JobJournal.<record>``: a failure is logged and the scheduler
        carries on.

        For the records whose loss costs at most one re-run or a wider
        adoption window for peers: started, terminal, lease, and the
        priority-escalation re-journal. Submissions and crash-retry
        charges stay strict.
        """
        if self.journal is None:
            return
        try:
            getattr(self.journal, record)(*args)
        except Exception:
            logger.warning(
                "job %s: %s%r failed; carrying on",
                job.id, record, args[1:], exc_info=True,
            )

    def _journal_started(self, job: Job) -> None:
        self._journal_best_effort(job, "record_started", job)
        self._publish_event(JOB_STARTED, job)

    def _journal_terminal(self, job: Job) -> None:
        # Best-effort: the work is already done (or failed) — a journal
        # I/O error must not corrupt the in-memory lifecycle. Worst case
        # the record replays as interrupted and the job re-runs once.
        self._journal_best_effort(job, "record_terminal", job)
        self._publish_terminal(job)

    def _publish_terminal(self, job: Job) -> None:
        """Publish a terminal event and retire the job's live-progress
        bookkeeping (partials are only meaningful while running)."""
        self._partials.pop(job.id, None)
        self._last_event_at.pop(job.id, None)
        event_type = _TERMINAL_EVENTS.get(job.state)
        if event_type is not None:
            extra: dict[str, Any] = {"run_seconds": job.run_seconds}
            if job.error:
                extra["error"] = job.error
            summary = summarize_result(job.result)
            if summary:
                extra["summary"] = summary
            self._publish_event(event_type, job, **extra)

    # -- event bus ---------------------------------------------------------------
    def _publish_event(self, type: str, job: Job, **data: Any) -> None:
        """Best-effort bus publish (safe under the scheduler lock — the
        bus carries its own lock and never calls back into the scheduler)."""
        try:
            self.event_bus.publish(
                type, job_id=job.id, state=job.state, **data
            )
        except Exception:  # pragma: no cover - bus publish is in-memory
            logger.warning(
                "could not publish %s for job %s", type, job.id,
                exc_info=True,
            )

    def events(
        self,
        after: int = 0,
        timeout: float = 0.0,
        limit: int = 256,
        job_id: str | None = None,
    ) -> dict[str, Any]:
        """The ``GET /v1/events`` payload: events past a cursor.

        ``timeout > 0`` long-polls until an event lands or the timeout
        expires. ``job_id`` filters to one job — including, for a shard
        parent, all of its shard children.
        """
        job_ids: Collection[str] | None = None
        if job_id is not None:
            with self._lock:
                self._job_locked(job_id)
                job_ids = {job_id, *self._shard_children.get(job_id, [])}
        if timeout > 0:
            events, next_cursor, dropped = self.event_bus.wait(
                after, timeout=timeout, limit=limit, job_ids=job_ids
            )
        else:
            events, next_cursor, dropped = self.event_bus.after(
                after, limit=limit, job_ids=job_ids
            )
        return {
            "events": events,
            "next_cursor": next_cursor,
            "dropped": dropped,
            "last_seq": self.event_bus.last_seq,
        }

    # -- live progress ingestion ---------------------------------------------------
    def _drain_progress(self, rfd: int, job_id: str) -> None:
        """Read one job's progress pipe until EOF (own thread per run)."""
        try:
            with os.fdopen(rfd, "r", encoding="utf-8", errors="replace") as fh:
                drain_progress(
                    fh,
                    lambda kind, data: self._ingest_progress(
                        job_id, kind, data
                    ),
                )
        except Exception:  # pragma: no cover - drain must never crash a worker
            logger.warning(
                "progress drain for job %s failed", job_id, exc_info=True
            )

    def _ingest_progress(
        self, job_id: str, kind: str, data: dict[str, Any]
    ) -> None:
        """Fold one pipe message into job state, then publish it."""
        now = time.time()
        front_size = 0
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.terminal:
                return
            self._last_event_at[job_id] = now
            if kind == "heartbeat":
                # Liveness only: refresh counters quietly, never publish —
                # heartbeats would crowd real events out of the ring.
                if data:
                    merged = dict(job.progress or {})
                    merged.update(data)
                    job.progress = merged
                return
            if kind == "progress":
                merged = dict(job.progress or {})
                merged.update(data)
                job.progress = merged
            elif kind == "partial":
                entries = data.get("entries") or []
                front_size = len(entries)
                self._partials[job_id] = {
                    "entries": entries,
                    "n_total": int(data.get("n_total", front_size)),
                    "truncated": bool(data.get("truncated", False)),
                    "updated_at": now,
                }
            else:
                return  # unknown kinds are forward-compatible no-ops
        if kind == "progress":
            self._publish_event(JOB_PROGRESS, job, **data)
        elif kind == "partial":
            self._publish_event(
                JOB_PARTIAL,
                job,
                front_size=front_size,
                n_total=int(data.get("n_total", front_size)),
            )

    def _run_with_progress(self, job: Job, make_thunk, timeout=None):
        """Run a backend thunk with a live progress pipe attached; returns
        the run's outcome and, split off it, the spans it collected.

        Opens one ``os.pipe()`` per run: the write end goes into the
        thunk (inherited through the process backend's fork; shared
        directly in-process otherwise), a drain thread ingests JSON lines
        from the read end until EOF — which arrives once the run settles
        and the parent's write end below is closed (the fork child's copy
        dies with the child).
        """
        rfd, wfd = os.pipe()
        drain = threading.Thread(
            target=self._drain_progress,
            args=(rfd, job.id),
            name=f"repro-progress-{job.id}",
            daemon=True,
        )
        drain.start()
        try:
            outcome = self.backend.run_one(make_thunk(wfd), timeout=timeout)
        finally:
            try:
                os.close(wfd)
            except OSError:  # pragma: no cover - double close cannot happen
                pass
            drain.join(timeout=5.0)
        self._spans_dropped.inc(int(outcome.pop("spans_dropped", 0) or 0))
        return outcome, outcome.pop("spans", None)

    def _maybe_compact_journal(self) -> None:
        """Fold the journal once it outgrows its segment budget.

        Deliberately called *outside* the scheduler lock — compaction
        rewrites every snapshot with fsyncs, far too slow to stall
        submits, metrics, and every other worker's terminal path — and
        therefore replay-based: the journal's own lock orders the fold
        against concurrent appends, so no transition recorded before it
        can be lost. The segment budget is checked first: it is one
        directory listing, while ``_peer_active`` scans every job under
        the scheduler lock, and most calls (every cache-hit submit) find
        the journal under budget.
        """
        if self.journal is None or not self.journal.over_budget():
            return
        if self.leases_enabled or self._peer_active():
            # Shared-journal mode: a peer process may be appending to the
            # same WAL. The fold below is replay-based (jobs=None), so
            # peer records are preserved, and the journal's cross-process
            # directory lock orders it against peer appends and elects
            # exactly one compactor (losers skip, non-blocking). Without
            # flock there is no such ordering — never compact then;
            # correctness beats reclaiming segment space. A peer that has
            # not leased anything yet is invisible, so an explicit
            # ``scheduler_id`` takes this gated path outright rather than
            # trusting `_peer_active` alone.
            if not self.journal.supports_cross_process_lock:
                return  # pragma: no cover - non-POSIX platform
        try:
            self.journal.maybe_compact()
        except Exception:
            logger.warning("journal compaction failed", exc_info=True)

    # -- journal leases ----------------------------------------------------------
    def _acquire_lease(self, job: Job, action: str = "acquired") -> None:
        """Claim (or renew) ``job`` for this scheduler (lock held).

        Best-effort: a lease record that cannot be appended only widens
        the adoption window for peers — it never blocks the work itself.
        """
        if not self.leases_enabled:
            return
        self._journal_best_effort(
            job, "record_lease", job.id, action, self.scheduler_id,
            self.lease_ttl,
        )
        job.lease_owner = self.scheduler_id
        job.lease_expires_at = time.time() + self.lease_ttl

    def _release_lease(self, job: Job) -> None:
        """Drop this scheduler's lease at terminal time (lock held)."""
        if not self.leases_enabled or job.lease_owner != self.scheduler_id:
            return
        self._journal_best_effort(
            job, "record_lease", job.id, "released", self.scheduler_id
        )
        job.lease_owner = None
        job.lease_expires_at = None

    def _peer_active(self) -> bool:
        """True while any tracked non-terminal job is live-leased by a peer.

        Deliberately not gated on leases being enabled *here*: an
        anonymous scheduler pointed at a shared journal dir must still
        notice live foreign leases before compacting.
        """
        now = time.time()
        with self._lock:
            return any(
                not job.terminal
                and job.lease_owner not in (None, self.scheduler_id)
                and _lease_live(job, now)
                for job in self.jobs.values()
            )

    def sweep_leases(self) -> dict[str, int]:
        """One lease maintenance pass: renew ours, take over the rest.

        Renews every non-terminal job this scheduler owns, then replays
        the shared journal through the boot's takeover path
        (:meth:`_take_over_locked`): jobs a peer created or finished
        since the last pass are *imported*, and non-terminal jobs whose
        lease *expired* — a SIGKILLed peer stops renewing — are
        *adopted*, with the usual crash-retry charge for work that died
        ``RUNNING``. Runs periodically on a background thread (see
        :meth:`start`); public and synchronous so tests and operators can
        force a pass. Returns the pass's counts (``renewed``/``imported``/
        ``adopted``/``expired``).
        """
        stats = {"renewed": 0, "imported": 0, "adopted": 0, "expired": 0}
        if not self.leases_enabled:
            return stats
        with self._lock:
            for job in self.jobs.values():
                if not job.terminal and job.lease_owner == self.scheduler_id:
                    self._acquire_lease(job, action="renewed")
                    stats["renewed"] += 1
                    self._lease_events.inc(event="renewed")
        try:
            summary = self.journal.replay()
        except Exception:
            logger.warning("lease sweep: journal replay failed",
                           exc_info=True)
            return stats
        with self._lock:
            known = set(self.jobs)
            taken = self._take_over_locked(summary.jobs, strict=False)
            for job_id, action, _ in taken:
                if action == "drop":
                    self._recovery["unrecoverable"] += 1
                    continue
                if action in ("keep", "peer"):
                    # A peer's job: count it once, when first seen here
                    # or finished.
                    if action == "peer" and job_id in known:
                        continue
                    event = "imported"
                else:
                    if summary.jobs[job_id].get("lease_owner") is not None:
                        stats["expired"] += 1
                        self._lease_events.inc(event="expired_seen")
                    if action == "fail-retry-budget":
                        continue
                    event = "adopted"
                stats[event] += 1
                self._lease_events.inc(event=event)
            parents = [
                p.id
                for p in self.jobs.values()
                if p.is_shard_parent and not p.terminal
            ]
        for parent_id in parents:
            self._settle_parent(parent_id)
        return stats

    def _sweep_loop(self) -> None:
        """Background lease maintenance until :meth:`stop`."""
        while not self._sweep_stop.wait(self._sweep_interval):
            try:
                with log_context(scheduler_id=self.scheduler_id):
                    self.sweep_leases()
            except Exception:  # pragma: no cover - absolute backstop
                logger.exception("lease sweep failed")

    # -- dedup bookkeeping (lock held) -------------------------------------------
    def _on_terminal(self, job: Job) -> None:
        """Release in-flight dedup state and settle followers.

        A primary that finished ``DONE`` completes its followers by copy
        (``deduped=True``); one that failed or was cancelled promotes its
        first still-queued follower into the queue (the work is still
        owed) and re-chains the rest behind it.
        """
        fingerprint = self._fingerprints.pop(job.id, None)
        if fingerprint is not None and (
            self._inflight.get(fingerprint) == job.id
        ):
            del self._inflight[fingerprint]
        followers = [
            self.jobs[fid]
            for fid in self._followers.pop(job.id, [])
            if fid in self.jobs
        ]
        waiting = [f for f in followers if f.state == JobState.QUEUED]
        if not waiting:
            return
        if job.state == JobState.DONE:
            for follower in waiting:
                follower.transition(JobState.RUNNING)
                follower.deduped = True
                follower.result = job.result
                follower.oracle_calls = 0
                follower.run_seconds = 0.0
                self._finish_locked(follower, JobState.DONE)
            return
        promoted, rest = waiting[0], waiting[1:]
        if fingerprint is not None:
            self._inflight[fingerprint] = promoted.id
            self._fingerprints[promoted.id] = fingerprint
        if rest:
            self._followers[promoted.id] = [f.id for f in rest]
        try:
            self.queue.push(promoted)
        except ServiceError:  # shutting down: nobody left to run it
            if self.journal is not None:
                # Journal-aware shutdown keeps queued work: the
                # followers replay as QUEUED and re-run on next boot.
                return
            if fingerprint is not None and (
                self._inflight.get(fingerprint) == promoted.id
            ):
                del self._inflight[fingerprint]
            self._fingerprints.pop(promoted.id, None)
            self._followers.pop(promoted.id, None)
            for follower in waiting:
                self._finish_locked(follower, JobState.CANCELLED)

    # -- lookups -----------------------------------------------------------------
    def _job_locked(self, job_id: str) -> Job:
        """One job by id (lock held); unknown ids raise ``UnknownJobError``."""
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return job

    def get(self, job_id: str) -> Job:
        """Look one job up by id; unknown ids raise ``UnknownJobError``."""
        with self._lock:
            return self._job_locked(job_id)

    def describe(self, job_id: str, include_result: bool = False) -> dict:
        """One job's API payload, with shard lineage for parents.

        Parents additionally carry ``shard_jobs`` — id, ``shard_index``,
        and state per child, in shard order — so ``GET /v1/jobs/{id}``
        shows scatter progress without N extra lookups.
        """
        with self._lock:
            job = self._job_locked(job_id)
            payload = job.to_payload(include_result=include_result)
            if job.is_shard_parent:
                payload["shard_jobs"] = [
                    {
                        "id": c.id,
                        "shard_index": c.shard_index,
                        "state": c.state,
                    }
                    for c in self._shard_children_locked(job_id)
                ]
        return payload

    def list_jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return list(self.jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job; running/terminal jobs are not preemptible.

        Cancelling a sharded parent cascades to its still-queued
        children (running shards finish, but nobody will merge them);
        children themselves are not individually cancellable — cancel
        the parent.
        """
        with self._lock:
            job = self._job_locked(job_id)
            if job.shard_index is not None:
                raise NotCancellableError(
                    f"job {job_id} is shard {job.shard_index} of "
                    f"{job.parent_id}; cancel the parent job instead",
                    detail={"parent_id": job.parent_id},
                )
            if job.state != JobState.QUEUED:
                raise NotCancellableError(
                    f"job {job_id} is {job.state}; only queued jobs can "
                    "be cancelled",
                    detail={"state": job.state},
                )
            self._finish_locked(job, JobState.CANCELLED)
            if job.is_shard_parent:
                for child in self._shard_children_locked(job.id):
                    if child.state == JobState.QUEUED:
                        self._finish_locked(child, JobState.CANCELLED)
        self._maybe_compact_journal()
        return job

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads and the lease sweep (idempotent)."""
        if self._threads:
            return
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.leases_enabled and self._sweep_thread is None:
            self._sweep_stop.clear()
            self._sweep_thread = threading.Thread(
                target=self._sweep_loop,
                name="repro-service-lease-sweep",
                daemon=True,
            )
            self._sweep_thread.start()

    def stop(self, drain: bool = False, timeout: float | None = None) -> None:
        """Shut the pool down.

        ``drain=True`` lets workers finish every queued job first. Without
        it, what happens to queued jobs depends on durability: with a
        journal attached they are *left queued* — the journal holds them,
        and the next scheduler on the same directory re-queues them — and
        without one they are cancelled (nothing would ever remember them).
        In-flight jobs always run to completion (worker threads cannot be
        preempted mid-job).
        """
        # Wake long-poll readers first so nothing waits out a 30s poll
        # while the pool drains (see EventBus.close).
        self.event_bus.close()
        self._sweep_stop.set()
        if self._sweep_thread is not None:
            self._sweep_thread.join(timeout)
            self._sweep_thread = None
        if not drain and self.journal is None:
            with self._lock:
                for job in list(self.jobs.values()):
                    if job.state == JobState.QUEUED:
                        self._finish_locked(job, JobState.CANCELLED)
        # Journal-aware non-drain stop must halt the queue outright
        # (drain=False): the jobs left QUEUED would otherwise still be
        # served to workers, running the whole backlog during shutdown.
        self.queue.close(drain=drain or self.journal is None)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> Scheduler:
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- waiting -----------------------------------------------------------------
    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job reaches a terminal state; returns the job."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._job_locked(job_id).terminal, timeout
            ):
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(still {self.jobs[job_id].state})"
                )
            return self.jobs[job_id]

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: all(job.terminal for job in self.jobs.values()),
                timeout,
            )

    # -- execution ---------------------------------------------------------------
    def _worker(self) -> None:
        # pop() blocks until a push or close wakes it; None means closed.
        while (job := self.queue.pop()) is not None:
            try:
                # Correlation context for every log line this job emits,
                # from any subsystem on this thread (see logging_util).
                with log_context(
                    job_id=job.id,
                    shard_index=job.shard_index,
                    scheduler_id=self.scheduler_id,
                ):
                    self._execute(job)
            except Exception:  # pragma: no cover - absolute backstop
                logger.exception("worker crashed executing job %s", job.id)

    def _execute(self, job: Job) -> None:
        """Run one popped job — ordinary or shard child — and settle it.

        The one execution shell: mark ``RUNNING``, run on the backend
        under the progress pipe, then stamp run time, trace and profile
        and finish ``DONE`` or ``FAILED``. A failure anywhere in the run
        is isolated to this job.
        """
        with self._lock:
            if job.state != JobState.QUEUED:
                return  # cancelled between pop and execution
            job.transition(JobState.RUNNING)
            self._journal_started(job)
        start = time.perf_counter()
        # Job fields to set at terminal time; an "error" marks a failure.
        fields: dict[str, Any] = {}
        spans = None
        try:
            if job.shard_index is None:
                spans = self._run_scenario(job, fields)
            else:
                spans = self._run_shard(job, fields)
        except JobLimitExceeded as exc:
            # Hard kill from the process backend: the child is gone, so
            # no partial store rows survive — only the failure does.
            logger.warning("job %s hit its %s limit: %s",
                           job.id, exc.reason, exc)
            fields.update(
                failure_reason=exc.reason,
                error=f"{type(exc).__name__}: {exc}",
            )
        except Exception as exc:  # noqa: BLE001 — per-job failure isolation
            logger.warning("job %s failed: %s", job.id, exc)
            fields.update(
                failure_reason="error", error=f"{type(exc).__name__}: {exc}"
            )
        with self._lock:
            for name, value in fields.items():
                setattr(job, name, value)
            job.run_seconds = time.perf_counter() - start
            job.trace = _assemble_trace(job, spans)
            self._stamp_profile(job)
            if fields.get("failure_reason") in ("timeout", "quota"):
                self._failed_limits.inc(reason=job.failure_reason)
            self._observe_timing(job)
            self._finish_locked(
                job, JobState.FAILED if "error" in fields else JobState.DONE
            )
        self._settle_parent(job.parent_id)
        self._maybe_compact_journal()

    def _run_scenario(
        self, job: Job, fields: dict[str, Any]
    ) -> list[dict[str, Any]] | None:
        """Run an ordinary job: warm-start it from the oracle store, run
        it, merge its oracle truth back, and cache its result.

        Records the job's terminal fields in ``fields`` as they become
        known (a later failure keeps the warm-start ones); returns the
        run's spans.
        """
        spec = job.spec
        resolved = self.factory.resolve(spec)
        key = None
        history = None
        warm_store = None
        fields.update(warm_started=False, warm_records=0)
        if self.oracle_store is not None and not spec.distributed:
            key = task_key(spec)
            # resolved.task builds (or reuses) the shared task; its
            # measure set guards against loading foreign history.
            history = self.oracle_store.load(key, resolved.task.measures)
            if history is not None and len(history):
                warm_store = history.store
                fields.update(warm_started=True, warm_records=len(history))
        warm = fields["warm_started"]
        # The hard kill gets a grace margin over the cooperative
        # deadline: the cooperative path (which ships the partial
        # test store back for warm-starting the retry) must get the
        # first chance to report; the kill is only the backstop for
        # jobs stuck outside the oracle boundary.
        hard_timeout = (
            None if job.timeout is None
            else job.timeout + max(5.0, 0.25 * job.timeout)
        )
        outcome, spans = self._run_with_progress(
            job,
            lambda wfd: _JobRun(
                resolved,
                warm_store,
                timeout=job.timeout,
                max_oracle_calls=job.max_oracle_calls,
                job_id=job.id,
                profile_path=self._profile_path(job),
                progress_fd=wfd,
            ),
            timeout=hard_timeout,
        )
        oracle_calls = outcome["oracle_calls"]
        limit = outcome["limit"]
        fields["oracle_calls"] = oracle_calls
        self._oracle_calls_total.inc(oracle_calls or 0)
        saved = 0
        if key is not None and outcome["store_rows"] is not None:
            # Persistence is best-effort: the discovery already
            # succeeded (or hit its limit with partial truth worth
            # keeping), and a full disk or unwritable store must not
            # turn a computed result into a FAILED job. A limited
            # run never seeds the cold baseline — its call count is
            # capped, not representative.
            try:
                self.oracle_store.merge(
                    key,
                    TestStore.from_payload(outcome["store_rows"]),
                    resolved.task.measures,
                    cold_oracle_calls=(
                        None if warm or limit else oracle_calls
                    ),
                )
            except Exception:
                logger.warning(
                    "job %s: could not persist oracle history for %s",
                    job.id, key, exc_info=True,
                )
            baseline = (
                history.cold_oracle_calls if history is not None else None
            )
            if warm and baseline is not None and oracle_calls is not None:
                saved = max(0, baseline - oracle_calls)
        if limit is not None:
            fields["failure_reason"] = limit
            fields["error"] = "JobLimitExceeded: job hit its " + (
                f"{job.timeout:g}s wall-clock limit"
                if limit == "timeout"
                else f"oracle-call quota of {job.max_oracle_calls}"
            )
            return spans
        if self.result_cache is not None:
            try:
                self.result_cache.put(
                    spec, outcome["result"], outcome["seconds"]
                )
            except Exception:
                logger.warning(
                    "job %s: could not write the result cache entry",
                    job.id, exc_info=True,
                )
        fields.update(result=outcome["result"], oracle_calls_saved=saved)
        self._oracle_calls_saved_total.inc(saved)
        if warm:
            self._warm_starts.inc()
        return spans

    def _run_shard(
        self, job: Job, fields: dict[str, Any]
    ) -> list[dict[str, Any]] | None:
        """Run one shard child's slice of the seeded reduce-search; its
        result is the local skyline the parent merges."""
        resolved = self.factory.resolve(job.spec)
        outcome, spans = self._run_with_progress(
            job,
            lambda wfd: ShardRun(
                resolved,
                job.shards,
                job.shard_index,
                job_id=job.id,
                profile_path=self._profile_path(job),
                progress_fd=wfd,
            ),
        )
        fields["result"] = outcome
        return spans

    # -- observability helpers ---------------------------------------------------
    def _profile_path(self, job: Job) -> str | None:
        """Where this job's pstats dump should land (None: not profiled)."""
        if not job.profile or self.profile_dir is None:
            return None
        return str(self.profile_dir / f"{job.id}.pstats")

    def _stamp_profile(self, job: Job) -> None:
        """Record the profile dump on the job if the run produced one."""
        path = self._profile_path(job)
        if path is not None and Path(path).exists():
            job.profile_path = path

    def _observe_timing(self, job: Job) -> None:
        """Feed the queue-wait/run-time histograms at terminal time."""
        if job.submitted_at is not None and job.started_at is not None:
            self._queue_wait_hist.observe(
                max(0.0, job.started_at - job.submitted_at)
            )
        if job.run_seconds:
            self._run_hist.observe(job.run_seconds)

    # -- introspection -----------------------------------------------------------
    def _snapshot(self) -> dict[str, Any]:
        """One point-in-time read of what the read views report.

        :meth:`metrics`, :meth:`metrics_prometheus` and :meth:`health` all
        render this. The scheduler lock is held only to copy the job table
        and list the running jobs; everything else runs outside it, so a
        slow scrape can never stall submission or the worker pool. The
        subsystem stats (task cache, journal, event bus) carry their own
        locks. ``oracle_store.stats()`` parses every store file, so it is
        read by the JSON metrics payload alone.
        """
        now = time.time()
        with self._lock:
            jobs = list(self.jobs.values())
            running = [
                {
                    "job_id": job.id,
                    "shard_index": job.shard_index,
                    "heartbeat_age_seconds": (
                        max(0.0, now - self._last_event_at[job.id])
                        if job.id in self._last_event_at
                        else None
                    ),
                }
                for job in jobs
                if job.state == JobState.RUNNING
            ]
            ready = bool(self._threads) and not self.queue.closed
        return {
            "now": now,
            "uptime_seconds": now - self._started_at,
            "ready": ready,
            "queue_depth": self.queue.depth,
            "jobs": jobs,
            "running": running,
            "materialization": self.factory.task_cache.materialization_stats(),
            "journal": (
                self.journal.stats() if self.journal is not None else None
            ),
            "events": self.event_bus.stats(),
        }

    def _job_counts(self, snap: dict[str, Any]) -> dict[str, Any]:
        """A snapshot's job table folded into the metrics' aggregates:
        jobs by state, shard parents/children, and leases held.

        Only the metrics views need these; :meth:`health` skips the fold,
        which costs a pass over every retained job.
        """
        by_state = {state: 0 for state in JobState.ALL}
        parents = children = children_in_flight = leases_held = 0
        for job in snap["jobs"]:
            state = job.state
            if state in by_state:
                by_state[state] += 1
            if job.is_shard_parent:
                parents += 1
            elif job.shard_index is not None:
                children += 1
                if state not in JobState.TERMINAL:
                    children_in_flight += 1
            if (
                state not in JobState.TERMINAL
                and job.lease_owner == self.scheduler_id
                and _lease_live(job, snap["now"])
            ):
                leases_held += 1
        return {
            "by_state": by_state,
            "parents": parents,
            "children": children,
            "children_in_flight": children_in_flight,
            "leases_held": leases_held,
        }

    def metrics(self) -> dict[str, Any]:
        """The ``GET /v1/metrics`` payload: queue, jobs, cache, oracle
        savings, per-job limit failures, dedup hits, and journal/recovery
        state — the typed :mod:`repro.obs` registry plus :meth:`_snapshot`.
        """
        snap = self._snapshot()
        table = self._job_counts(snap)
        submitted = self._submitted.value
        cache_hits = self._cache_hits.value
        lookups = submitted if self.result_cache is not None else 0
        journal = snap["journal"]
        return {
            "uptime_seconds": snap["uptime_seconds"],
            "workers": self.n_workers,
            "backend": self.backend.name,
            "queue_depth": snap["queue_depth"],
            "jobs_submitted": submitted,
            "jobs": table["by_state"],
            "result_cache": {
                "enabled": self.result_cache is not None,
                "lookups": lookups,
                "hits": cache_hits,
                "hit_rate": (cache_hits / lookups if lookups else 0.0),
            },
            "dedup": {"inflight_hits": self._dedup_hits.value},
            "limits": {
                "failed_timeout": self._failed_limits.get(reason="timeout"),
                "failed_quota": self._failed_limits.get(reason="quota"),
            },
            "retries": {
                "max_per_job": self.max_retries,
                "total": self._retries_total.value,
            },
            "oracle": {
                "warm_starts": self._warm_starts.value,
                "calls_total": self._oracle_calls_total.value,
                "calls_saved_total": self._oracle_calls_saved_total.value,
            },
            "shards": {
                "submitted": self._shards_submitted.value,
                "merged": self._shards_merged.value,
                "parents": table["parents"],
                "children": table["children"],
                "in_flight": table["children_in_flight"],
            },
            "leases": {
                "enabled": self.leases_enabled,
                "owner": self.scheduler_id,
                "ttl_seconds": self.lease_ttl,
                "held": table["leases_held"],
                "renewed": self._lease_events.get(event="renewed"),
                "adopted": self._lease_events.get(event="adopted"),
                "expired_seen": self._lease_events.get(event="expired_seen"),
                "imported": self._lease_events.get(event="imported"),
            },
            "materialization": snap["materialization"],
            "journal": (
                {
                    "enabled": True,
                    **journal,
                    "recovery": dict(self._recovery),
                }
                if journal is not None
                else {"enabled": False}
            ),
            "oracle_store": (
                {"enabled": True, **self.oracle_store.stats()}
                if self.oracle_store is not None
                else {"enabled": False}
            ),
            "events": snap["events"],
        }

    def metrics_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Registry counters/histograms export natively; the point-in-time
        values of :meth:`_snapshot` (queue depth, jobs by state,
        cache/journal/event-bus stats) ride along as computed gauges.
        """
        snap = self._snapshot()
        table = self._job_counts(snap)
        gauges: dict[str, float] = {
            "repro_uptime_seconds": snap["uptime_seconds"],
            "repro_workers": self.n_workers,
            "repro_queue_depth": snap["queue_depth"],
            "repro_shard_children_in_flight": table["children_in_flight"],
            "repro_leases_held": table["leases_held"],
        }
        for state, count in table["by_state"].items():
            gauges[f"repro_jobs_{state}"] = count
        for key in ("hits", "misses", "bytes", "entries", "evictions"):
            gauges[f"repro_materialization_{key}"] = (
                snap["materialization"].get(key, 0)
            )
        for section in ("journal", "events"):
            for key, value in (snap[section] or {}).items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    gauges[f"repro_{section}_{key}"] = value
        return render_prometheus(self.metrics_registry, extra_gauges=gauges)

    def trace(self, job_id: str) -> dict[str, Any]:
        """The ``GET /v1/jobs/{id}/trace`` payload: the job's span tree
        source, shard-child traces (parents), and any profile summary.

        Traces persist with the job snapshot, so this answers for
        journal-replayed jobs too — including a parent whose children
        finished under a SIGKILLed peer scheduler.
        """
        with self._lock:
            job = self._job_locked(job_id)
            payload: dict[str, Any] = {
                "job_id": job.id,
                "state": job.state,
                "parent_id": job.parent_id,
                "queue_wait_seconds": (
                    max(0.0, job.started_at - job.submitted_at)
                    if job.started_at is not None
                    else None
                ),
                "run_seconds": job.run_seconds,
                "spans": list(job.trace or []),
                "profile": None,
            }
            if job.is_shard_parent:
                payload["shards"] = [
                    {
                        "job_id": child.id,
                        "shard_index": child.shard_index,
                        "state": child.state,
                        "spans": list(child.trace or []),
                    }
                    for child in self._shard_children_locked(job_id)
                ]
            profile_path = job.profile_path
        if profile_path is not None:
            profile: dict[str, Any] = {"path": profile_path}
            try:
                profile["summary"] = summarize_profile(profile_path)
            except Exception:
                profile["summary"] = None
            payload["profile"] = profile
        return payload

    def _progress_entry_locked(
        self, job: Job, now: float
    ) -> dict[str, Any]:
        """One job's live-progress snapshot (scheduler lock held)."""
        last = self._last_event_at.get(job.id)
        snapshot = self._partials.get(job.id)
        return {
            "job_id": job.id,
            "shard_index": job.shard_index,
            "state": job.state,
            "progress": dict(job.progress or {}),
            "last_event_age_seconds": (
                max(0.0, now - last) if last is not None else None
            ),
            "partial_front_size": (
                len(snapshot["entries"]) if snapshot else 0
            ),
        }

    def progress(self, job_id: str) -> dict[str, Any]:
        """The ``GET /v1/jobs/{id}/progress`` payload.

        Live counters folded from the job's progress pipe, the age of its
        last sign of life (``last_event_age_seconds`` distinguishes a
        stalled worker from a slow one), and — for a shard parent — the
        same per child, in shard order. Progress is in-memory telemetry:
        after a journal replay it starts empty and refills as the
        re-queued job runs.
        """
        now = time.time()
        with self._lock:
            job = self._job_locked(job_id)
            payload = self._progress_entry_locked(job, now)
            if job.is_shard_parent:
                children = self._shard_children_locked(job_id)
                shards = [
                    self._progress_entry_locked(child, now)
                    for child in children
                ]
                payload["shards"] = shards
                # Roll the children up so a dashboard can draw one bar
                # for the whole fan-out without summing client-side.
                payload["progress"] = {
                    "n_shards": len(shards),
                    "shards_terminal": sum(
                        1 for c in children if c.terminal
                    ),
                    "n_valuated": sum(
                        int(s["progress"].get("n_valuated", 0) or 0)
                        for s in shards
                    ),
                    "budget": sum(
                        int(s["progress"].get("budget", 0) or 0)
                        for s in shards
                    ),
                    "front_size": sum(
                        s["partial_front_size"] for s in shards
                    ),
                }
        return payload

    def partial_result(self, job_id: str) -> dict[str, Any]:
        """The ``GET /v1/results/{id}?partial=1`` payload.

        A DONE job answers with its full result (``"partial": false``);
        anything else answers with the freshest partial skyline the run
        has shipped — possibly empty. Partial fronts are estimates from
        an unthinned grid and live only in scheduler memory: a replayed
        running job degrades to an empty partial until its re-run emits
        a fresh one. Parents union their children's fronts (deduped by
        bitmap) — a superset of the eventual exact merge.
        """
        now = time.time()
        with self._lock:
            job = self._job_locked(job_id)
            if job.state == JobState.DONE:
                return {
                    "job_id": job.id,
                    "state": job.state,
                    "partial": False,
                    "result": job.result,
                }
            entries: list[dict[str, Any]] = []
            n_total = 0
            truncated = False
            updated_at: float | None = None
            if job.is_shard_parent:
                seen_bits: set[Any] = set()
                stamps: list[float] = []
                for child in self._shard_children_locked(job_id):
                    snap = self._partials.get(child.id)
                    if not snap:
                        continue
                    stamps.append(snap["updated_at"])
                    truncated = truncated or snap["truncated"]
                    n_total += snap["n_total"]
                    for entry in snap["entries"]:
                        bits = entry.get("bits")
                        if bits in seen_bits:
                            continue
                        seen_bits.add(bits)
                        entries.append(entry)
                entries.sort(
                    key=lambda e: (
                        tuple(e.get("performance", {}).values()),
                        str(e.get("bits") or ""),
                    )
                )
                if stamps:
                    updated_at = max(stamps)
            else:
                snap = self._partials.get(job_id)
                if snap:
                    entries = list(snap["entries"])
                    n_total = snap["n_total"]
                    truncated = snap["truncated"]
                    updated_at = snap["updated_at"]
            progress = dict(job.progress or {})
            return {
                "job_id": job.id,
                "state": job.state,
                "partial": True,
                "result": {
                    "entries": entries,
                    "n_total": n_total,
                    "truncated": truncated,
                    "updated_at": updated_at,
                    "age_seconds": (
                        max(0.0, now - updated_at)
                        if updated_at is not None
                        else None
                    ),
                },
                "progress": progress,
            }

    def health(self) -> dict[str, Any]:
        """The deep ``GET /v1/healthz`` payload: liveness vs. readiness.

        ``live`` means the process answers at all (always true when this
        method runs); ``ready`` means the worker pool is started and the
        queue still accepts work. The rest is saturation context: queue
        depth, busy workers, journal append lag, event-bus state, and a
        per-running-job heartbeat age (None until the run's first
        heartbeat lands — or forever, for a worker stuck before its
        first valuation).
        """
        snap = self._snapshot()
        busy = len(snap["running"])
        journal: dict[str, Any] = {"enabled": snap["journal"] is not None}
        if snap["journal"] is not None:
            last_append = snap["journal"]["last_append_at"]
            journal["append_lag_seconds"] = (
                max(0.0, snap["now"] - last_append)
                if last_append is not None
                else None
            )
        return {
            "live": True,
            "ready": snap["ready"],
            "queue_depth": snap["queue_depth"],
            "workers": {
                "total": self.n_workers,
                "busy": busy,
                "saturation": (
                    busy / self.n_workers if self.n_workers else 0.0
                ),
            },
            "journal": journal,
            "events": snap["events"],
            "running_jobs": snap["running"],
        }

    def __repr__(self) -> str:
        return (
            f"Scheduler({self.n_workers} workers on {self.backend.name}, "
            f"{len(self.jobs)} jobs, depth {self.queue.depth})"
        )
