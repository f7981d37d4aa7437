"""Durable write-ahead journal for the job scheduler: crash recovery.

PR 3's scheduler kept every job record in memory, so a crash threw away
exactly the queued/running work the oracle store was built to preserve.
This module is the missing durability layer: an append-only JSONL
journal that records every job transition *before* the scheduler acts on
it, and a replay that folds those records back into per-job snapshots on
startup. The scheduler re-queues whatever was ``QUEUED`` or ``RUNNING``
at crash time (charging a retry for interrupted runs) and restores
terminal records so ``GET /v1/jobs`` still answers for work finished before
the crash.

Layout: ``<dir>/journal-000001.jsonl``, ``journal-000002.jsonl``, … —
segments in strictly increasing index order. Appends go to the
highest-index segment; once it exceeds ``max_segment_bytes`` a fresh
segment is started. :meth:`JobJournal.compact` rewrites the whole
journal as one snapshot line per known job into a *new* segment (atomic
temp-file + rename, directory fsync'd), then deletes the older segments
— a crash anywhere in compaction leaves a journal that replays to the
same state, because snapshot records replace a job's state wholesale and
the compacted segment sorts after everything it supersedes.

Record grammar (one JSON object per line)::

    {"v": 1, "ts": <epoch>, "type": "submitted", "job": {<snapshot>}}
    {"v": 1, "ts": <epoch>, "type": "started",   "id": "job-..."}
    {"v": 1, "ts": <epoch>, "type": "retried",   "id": "...", "retries": n}
    {"v": 1, "ts": <epoch>, "type": "done" | "failed" | "cancelled",
     "id": "...", "job": {<snapshot>}}
    {"v": 1, "ts": <epoch>, "type": "snapshot",  "job": {<snapshot>}}
    {"v": 1, "ts": <epoch>, "type": "lease-acquired" | "lease-renewed",
     "id": "...", "owner": "sched-...", "ttl": <seconds>}
    {"v": 1, "ts": <epoch>, "type": "lease-released", "id": "...",
     "owner": "sched-..."}

Lease records are the multi-scheduler coordination layer: every
scheduler sharing a journal directory claims each job it works on by
appending ``lease-acquired`` (and keeps it alive with periodic
``lease-renewed`` records). Replay folds the latest lease onto the job's
snapshot as ``lease_owner`` / ``lease_expires_at = ts + ttl`` — expiry
itself is *evaluated by the reader* against its clock, so a SIGKILLed
scheduler needs no cleanup: its leases simply stop being renewed and
peers adopt the jobs once ``lease_expires_at`` passes. Lease records are
additive (old readers count them as skipped lines), so they do not bump
:data:`JOURNAL_VERSION`.

where ``<snapshot>`` is :meth:`~repro.service.jobs.Job.to_snapshot` —
the full lifecycle record plus the spec fields needed to reconstruct the
:class:`~repro.scenarios.spec.Scenario`.

Format versioning rules (readers and writers MUST follow these):

* Every line carries ``"v"``. Readers skip lines whose ``v`` is missing,
  non-integer, or **greater** than :data:`JOURNAL_VERSION` — a journal
  written by a newer release degrades to partial replay, never to a
  crash.
* *Additive* changes (new record fields, new optional snapshot keys) do
  **not** bump the version; replay must treat unknown fields as inert
  and missing fields as their documented defaults.
* *Semantic* changes (renamed types, changed state meanings, removed
  fields that replay depends on) bump :data:`JOURNAL_VERSION`.
* Compaction always rewrites records at the current version, so a
  journal's version mix only ever spans releases since its last
  compaction.
* A torn final line (crash mid-append) is not corruption: the record
  never committed, so replay drops it silently. Torn or foreign lines
  anywhere *else* are counted in :attr:`ReplaySummary.skipped` and
  logged, and replay continues.

Cross-process coordination: every journal instance holds a shared
``flock`` on ``<dir>/.journal.lock`` for the duration of each append and
an exclusive one for the duration of a compaction. Appends from many
processes coexist (shared mode), but a compaction excludes appenders and
other compactors — so exactly one lease-holding scheduler folds a shared
directory at a time, and an append can never land in a segment between
the compactor's snapshot and its unlink of the old segments.
:meth:`JobJournal.maybe_compact` acquires the exclusive lock
*non-blocking* and simply skips the fold when a peer holds it. On
platforms without ``fcntl`` the lock is a no-op and
:attr:`JobJournal.supports_cross_process_lock` is False — callers in
shared-journal mode must then refuse to compact (the scheduler does).
"""

from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

try:  # POSIX only; the lock degrades gracefully elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..exceptions import ServiceError
from ..ioutil import append_jsonl, fsync_directory, read_jsonl
from ..logging_util import get_logger
from .jobs import Job, JobState

logger = get_logger("service.journal")

#: Bump only on semantic format changes — see the module docstring.
JOURNAL_VERSION = 1

#: Roll to a fresh segment once the current one crosses this size.
DEFAULT_MAX_SEGMENT_BYTES = 4 << 20

#: ``maybe_compact`` folds the journal once it spans more segments.
DEFAULT_MAX_SEGMENTS = 4

#: Compaction keeps at most this many terminal snapshots (newest first).
#: Live (queued/running) jobs are always kept; without a cap the journal,
#: boot replay, and every compaction would grow with the service's whole
#: lifetime history. Old results remain available via the ResultCache.
DEFAULT_MAX_TERMINAL_SNAPSHOTS = 1000

#: 6+ digits: indices grow monotonically for the life of a directory and
#: must stay visible past 999999 (name padding does not truncate).
_SEGMENT_RE = re.compile(r"^journal-(\d{6,})\.jsonl$")

#: Record types whose payload is a full job snapshot.
_SNAPSHOT_TYPES = frozenset({"submitted", "snapshot", *JobState.TERMINAL})


def _segment_name(index: int) -> str:
    return f"journal-{index:06d}.jsonl"


@dataclass
class ReplaySummary:
    """What a journal folds down to: one snapshot per job, plus stats."""

    #: job id → latest snapshot dict, in first-submission order.
    jobs: dict[str, dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    segments: int = 0
    #: undecodable or foreign (newer-version) lines that were skipped.
    skipped: int = 0
    #: a torn final line was dropped (crash mid-append).
    torn_tail: bool = False
    #: transition records whose job id had no submitted/snapshot record.
    orphaned: int = 0
    #: parsed records from a NEWER format version: replay cannot fold
    #: them, but compaction must carry them forward verbatim so a later
    #: release (post-rollback re-upgrade) can still recover them.
    foreign: list[dict[str, Any]] = field(default_factory=list)

    def by_state(self) -> dict[str, int]:
        """How many replayed jobs sit in each state."""
        counts = {state: 0 for state in JobState.ALL}
        for snapshot in self.jobs.values():
            state = snapshot.get("state")
            if state in counts:
                counts[state] += 1
        return counts


class JobJournal:
    """Append-only, crash-safe, segment-rotated journal of job records.

    Thread-safe: the scheduler appends from many worker threads. Opening
    is lazy — constructing a journal (or calling :meth:`replay`) never
    creates or mutates files, so ``repro recover --dry-run`` can inspect
    a journal directory truly offline.
    """

    def __init__(
        self,
        directory: str | Path,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        max_terminal_snapshots: int | None = DEFAULT_MAX_TERMINAL_SNAPSHOTS,
        fsync: bool = True,
    ):
        self._lock = threading.Lock()
        self._fh: IO[str] | None = None
        self._fh_path: Path | None = None
        self._lock_fh: IO[str] | None = None
        self.directory = Path(directory)
        self.max_segment_bytes = int(max_segment_bytes)
        self.max_segments = int(max_segments)
        self.max_terminal_snapshots = (
            None if max_terminal_snapshots is None
            else int(max_terminal_snapshots)
        )
        self.fsync = bool(fsync)
        if self.max_segment_bytes < 1:
            raise ServiceError("max_segment_bytes must be >= 1")
        if self.max_segments < 1:
            raise ServiceError("max_segments must be >= 1")
        #: epoch of the last committed append (None before the first);
        #: ``/v1/healthz`` reports ``now - last_append_at`` as append lag.
        self.last_append_at: float | None = None

    # -- cross-process lock ------------------------------------------------------
    @property
    def supports_cross_process_lock(self) -> bool:
        """Whether appends/compactions are ordered across processes."""
        return fcntl is not None

    def _lock_file(self) -> IO[str]:
        """The (lazily opened) handle flock operates on.

        ``flock`` locks belong to the open file description, so two
        journal instances — even in one process — hold independent,
        mutually conflicting locks, which is exactly what the two-writer
        tests exercise.
        """
        if self._lock_fh is None or self._lock_fh.closed:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._lock_fh = (self.directory / ".journal.lock").open("a")
        return self._lock_fh

    @contextmanager
    def _dir_lock(
        self, exclusive: bool, blocking: bool = True
    ) -> Iterator[bool]:
        """Hold the directory lock; yields False iff a non-blocking
        acquisition lost the race. No-op (yields True) without fcntl —
        callers needing true mutual exclusion must check
        :attr:`supports_cross_process_lock` first.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield True
            return
        fh = self._lock_file()
        flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        if not blocking:
            flags |= fcntl.LOCK_NB
        try:
            fcntl.flock(fh.fileno(), flags)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- segment bookkeeping -----------------------------------------------------
    def segments(self) -> list[Path]:
        """Existing segment files, oldest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def _next_index(self) -> int:
        existing = self.segments()
        if not existing:
            return 1
        return int(_SEGMENT_RE.match(existing[-1].name).group(1)) + 1

    def _ensure_open(self) -> IO[str]:
        """The append handle on the newest segment (lock held)."""
        if self._fh is not None and not self._fh.closed:
            try:
                size = self._fh_path.stat().st_size
            except FileNotFoundError:
                # The segment vanished under us: a peer's compaction (its
                # exclusive directory lock ordered it before this append,
                # and its snapshot folded everything we ever wrote) or an
                # operator's rm. Appends to the orphaned inode would be
                # silently lost, so reopen on a live segment. Benign and
                # lossless in the compaction case, hence INFO.
                logger.info(
                    "journal segment %s was removed (external compaction "
                    "or cleanup); reopening on the live segment",
                    self._fh_path,
                )
                self._close_handle()
                return self._ensure_open()
            if size < self.max_segment_bytes:
                return self._fh
            self._close_handle()
            path = self.directory / _segment_name(self._next_index())
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            existing = self.segments()
            path = (
                existing[-1]
                if existing
                and existing[-1].stat().st_size < self.max_segment_bytes
                else self.directory / _segment_name(self._next_index())
            )
        created = not path.exists()
        self._fh = path.open("a", encoding="utf-8")
        self._fh_path = path
        if created and self.fsync:
            fsync_directory(self.directory)
        if not created and not self._ends_with_newline(path):
            # The segment ends in a torn line (crash mid-append). An
            # append straight after it would fuse with the partial text
            # into one undecodable line, losing BOTH records on the next
            # replay. Terminate the torn line first: it becomes ordinary
            # skipped garbage, and new records stay intact.
            self._fh.write("\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        return self._fh

    def _close_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close on a dead handle
                pass
        self._fh = None
        self._fh_path = None

    def close(self) -> None:
        """Release the append handle (the journal can be reopened)."""
        with self._lock:
            self._close_handle()
            if self._lock_fh is not None:
                try:
                    self._lock_fh.close()
                except OSError:  # pragma: no cover - close on dead handle
                    pass
                self._lock_fh = None

    def __del__(self) -> None:
        # Every append is flushed before it returns, so a journal dropped
        # without close() — as a crash drops it, and as the crash tests
        # abandon their schedulers — loses nothing; release its handles
        # here rather than leave them to the file objects' finalizers.
        self.close()

    def __enter__(self) -> JobJournal:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- appends -----------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        record = {"v": JOURNAL_VERSION, "ts": time.time(), **record}
        with self._lock:
            # Shared directory lock: peers may append concurrently, but a
            # compactor (exclusive) is excluded, so the stat-then-write in
            # `_ensure_open` cannot race a segment unlink and lose the
            # record to an orphaned inode.
            with self._dir_lock(exclusive=False):
                append_jsonl(self._ensure_open(), record, fsync=self.fsync)
            self.last_append_at = time.time()

    def record_submitted(self, job: Job) -> None:
        """WAL a new submission — call *before* the job enters the queue."""
        self._append({"type": "submitted", "job": job.to_snapshot()})

    def record_started(self, job: Job) -> None:
        """A worker picked the job up; replay treats it as interrupted."""
        self._append({"type": "started", "id": job.id})

    def record_retried(self, job: Job) -> None:
        """A crash-interrupted run was re-queued; ``retries`` is durable."""
        self._append(
            {"type": "retried", "id": job.id, "retries": job.retries}
        )

    def record_lease(
        self,
        job_id: str,
        action: str,
        owner: str,
        ttl: float | None = None,
    ) -> None:
        """WAL one lease event (``acquired`` | ``renewed`` | ``released``).

        ``ttl`` (seconds, required for acquire/renew) sets the adoption
        horizon: replay computes ``lease_expires_at = ts + ttl``, after
        which any peer scheduler may claim the job for itself.
        """
        if action not in ("acquired", "renewed", "released"):
            raise ServiceError(f"unknown lease action {action!r}")
        record: dict[str, Any] = {
            "type": f"lease-{action}", "id": job_id, "owner": owner,
        }
        if action != "released":
            if ttl is None or ttl <= 0:
                raise ServiceError(
                    f"lease-{action} needs a positive ttl, got {ttl!r}"
                )
            record["ttl"] = float(ttl)
        self._append(record)

    def record_terminal(self, job: Job) -> None:
        """The full final record — results survive restarts through this."""
        if job.state not in JobState.TERMINAL:
            raise ServiceError(
                f"job {job.id} is {job.state}; only terminal states are "
                "journaled as terminal records"
            )
        self._append(
            {"type": job.state, "id": job.id, "job": job.to_snapshot()}
        )

    # -- replay ------------------------------------------------------------------
    def replay(self) -> ReplaySummary:
        """Fold every segment into per-job snapshots (read-only).

        Tolerant by construction: a torn final line is dropped silently,
        any other unparseable or newer-version line is skipped (counted),
        and transition records for unknown job ids are counted as
        orphans. Replay never raises on journal *content* — a recovering
        service must come up on whatever survives.
        """
        summary = ReplaySummary()
        segments = self.segments()
        summary.segments = len(segments)
        for position, segment in enumerate(segments):
            last = position == len(segments) - 1
            for document, ok in read_jsonl(
                segment, tolerate_torn_tail=last
            ):
                if not ok:
                    summary.skipped += 1
                    logger.warning(
                        "journal %s: skipping undecodable line", segment.name
                    )
                    continue
                if not self._readable(document):
                    summary.skipped += 1
                    if (
                        isinstance(document, dict)
                        and isinstance(document.get("v"), int)
                        and document["v"] > JOURNAL_VERSION
                    ):
                        summary.foreign.append(document)
                    continue
                summary.records += 1
                self._fold(summary, document)
        # read_jsonl drops the torn line itself; detect it for the stats.
        if segments and not self._ends_with_newline(segments[-1]):
            summary.torn_tail = True
        return summary

    @staticmethod
    def _readable(document: Any) -> bool:
        if not isinstance(document, dict):
            return False
        version = document.get("v")
        return isinstance(version, int) and version <= JOURNAL_VERSION

    @staticmethod
    def _fold(summary: ReplaySummary, record: dict[str, Any]) -> None:
        kind = record.get("type")
        if kind in _SNAPSHOT_TYPES:
            snapshot = record.get("job")
            if not isinstance(snapshot, dict) or "id" not in snapshot:
                summary.skipped += 1
                return
            summary.jobs[snapshot["id"]] = snapshot
            return
        job_id = record.get("id")
        snapshot = summary.jobs.get(job_id)
        if snapshot is None:
            summary.orphaned += 1
            return
        if kind == "started":
            snapshot["state"] = JobState.RUNNING
            snapshot["started_at"] = record.get("ts")
        elif kind == "retried":
            retries = record.get("retries")
            if isinstance(retries, int):
                snapshot["retries"] = max(
                    retries, snapshot.get("retries", 0) or 0
                )
            snapshot["state"] = JobState.QUEUED
            snapshot["started_at"] = None
            snapshot["lease_owner"] = None
            snapshot["lease_expires_at"] = None
        elif kind in ("lease-acquired", "lease-renewed"):
            snapshot["lease_owner"] = record.get("owner")
            ts, ttl = record.get("ts"), record.get("ttl")
            snapshot["lease_expires_at"] = (
                float(ts) + float(ttl)
                if isinstance(ts, (int, float))
                and isinstance(ttl, (int, float))
                else None
            )
        elif kind == "lease-released":
            snapshot["lease_owner"] = None
            snapshot["lease_expires_at"] = None
        else:
            summary.skipped += 1

    @staticmethod
    def _ends_with_newline(path: Path) -> bool:
        try:
            with path.open("rb") as fh:
                fh.seek(0, 2)
                if fh.tell() == 0:
                    return True
                fh.seek(-1, 2)
                return fh.read(1) == b"\n"
        except OSError:  # pragma: no cover - raced deletion
            return True

    # -- compaction --------------------------------------------------------------
    def compact(
        self, jobs: Iterable[Job] | None = None, blocking: bool = True
    ) -> int:
        """Rewrite the journal as one snapshot line per job.

        ``jobs`` (when given — the scheduler's authoritative in-memory
        records) wins over a fresh replay, so retry accounting applied
        during recovery becomes durable immediately; pass ``None`` on a
        *shared* directory so the replay-based fold preserves peer
        schedulers' records. Returns the number of snapshot records
        written, or ``-1`` when ``blocking=False`` and a peer process
        holds the directory lock (exactly one compactor wins; the losers
        skip). Crash-safe: the compacted segment is written to a temp
        name, fsync'd, renamed into place (with a directory fsync), and
        only then are the superseded segments removed.
        """
        with self._lock, self._dir_lock(
            exclusive=True, blocking=blocking
        ) as held:
            if not held:
                logger.info(
                    "journal compaction skipped: another process holds "
                    "the directory lock"
                )
                return -1
            summary = self.replay()
            if jobs is not None:
                snapshots = [job.to_snapshot() for job in jobs]
            else:
                snapshots = list(summary.jobs.values())
            snapshots = self._retained(snapshots)
            # Newer-version lines this release cannot fold are carried
            # forward verbatim — compaction must never be the event that
            # destroys records a future (re-upgraded) release could read.
            foreign = summary.foreign
            old_segments = self.segments()
            self._close_handle()
            self.directory.mkdir(parents=True, exist_ok=True)
            target = self.directory / _segment_name(self._next_index())
            tmp = target.with_suffix(".jsonl.compacting")
            try:
                with tmp.open("w", encoding="utf-8") as fh:
                    for snapshot in snapshots:
                        append_jsonl(
                            fh,
                            {
                                "v": JOURNAL_VERSION,
                                "ts": time.time(),
                                "type": "snapshot",
                                "job": snapshot,
                            },
                            fsync=False,
                        )
                    for record in foreign:
                        append_jsonl(fh, record, fsync=False)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                tmp.replace(target)
            finally:
                tmp.unlink(missing_ok=True)
            if self.fsync:
                fsync_directory(self.directory)
            for segment in old_segments:
                segment.unlink(missing_ok=True)
            if self.fsync:
                fsync_directory(self.directory)
            return len(snapshots)

    def _retained(self, snapshots: list[dict]) -> list[dict]:
        """Apply the terminal-retention cap (keep newest, keep all live).

        Bounds the whole durability pipeline on a long-lived service:
        journal bytes, compaction cost, and boot-replay time all scale
        with the retained set, not with lifetime traffic.
        """
        cap = self.max_terminal_snapshots
        if cap is None:
            return snapshots
        terminal = [
            s for s in snapshots if s.get("state") in JobState.TERMINAL
        ]
        overflow = len(terminal) - cap
        if overflow <= 0:
            return snapshots
        dropped = {id(s) for s in terminal[:overflow]}  # oldest first
        logger.info(
            "compaction dropping %d oldest terminal snapshot(s) "
            "(retention cap %d)", overflow, cap,
        )
        return [s for s in snapshots if id(s) not in dropped]

    def over_budget(self) -> bool:
        """True once the journal has grown past ``max_segments``."""
        return len(self.segments()) > self.max_segments

    def maybe_compact(self, jobs: Iterable[Job] | None = None) -> bool:
        """Compact iff the journal has grown past ``max_segments``.

        Non-blocking on the cross-process lock: when a peer is already
        folding the directory this returns False instead of queueing a
        redundant second compaction behind it.
        """
        if not self.over_budget():
            return False
        return self.compact(jobs, blocking=False) >= 0

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Directory, segment count, and total bytes (for ``/v1/metrics``)."""
        segments = self.segments()
        total = 0
        for path in segments:
            try:
                total += path.stat().st_size
            except OSError:  # raced a concurrent compaction's unlink
                pass
        return {
            "directory": str(self.directory),
            "segments": len(segments),
            "total_bytes": total,
            "last_append_at": self.last_append_at,
        }

    def __repr__(self) -> str:
        return (
            f"JobJournal({str(self.directory)!r}, "
            f"{len(self.segments())} segment(s))"
        )
