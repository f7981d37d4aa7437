"""Live progress events: a cursor-based ring-buffer bus plus per-job emitters.

Two halves, mirroring :mod:`repro.obs.tracing`:

* **Bus** (scheduler side). :class:`EventBus` keeps the last *capacity*
  events in a ring with strictly monotonic sequence numbers. Readers pass
  the last cursor they saw (``after``) and receive every later event
  exactly once, plus an explicit count of events that aged out of the
  ring before they were read — clients can detect loss instead of
  silently missing it. :meth:`EventBus.wait` long-polls on the same
  condition the publisher notifies, so ``GET /v1/events`` wakes on the
  next publish instead of sleeping a fixed interval.

* **Emitter** (job side). A :class:`ProgressEmitter` writes newline-
  delimited JSON messages to a pipe file descriptor. The scheduler opens
  one pipe per executed job; the write end works identically whether the
  job runs in-process (serial/thread backends) or in a forked child
  (process backend — the fd survives ``fork``). Algorithms never see the
  pipe: they call the module-level :func:`emit` / :func:`heartbeat` /
  :func:`emit_partial` helpers, which are a constant-time no-op unless an
  emitter is installed via :func:`use_emitter` — the same two-load fast
  path as :func:`repro.obs.tracing.span`, gated by the same CI overhead
  budget (``benchmarks/bench_obs_overhead.py``).

Sequence numbers survive scheduler restarts: when a ``persist_path`` is
given, the bus reserves sequence numbers in chunks (write ``seq + CHUNK``
to disk once per *CHUNK* publishes, resume from the reserved ceiling on
boot). A ``kill -9`` can therefore skip at most one chunk of numbers but
can never reuse one, so client cursors stay valid across restarts.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Collection, Iterator

__all__ = [
    "EventBus",
    "ProgressEmitter",
    "current_emitter",
    "emit",
    "emit_partial",
    "events_enabled",
    "heartbeat",
    "set_events_enabled",
    "use_emitter",
]

# Event types published on the bus. Lifecycle events come from the
# scheduler itself; progress/partial events originate inside algorithms
# and cross the per-job pipe. Heartbeats are deliberately *not* published
# (they would crowd real events out of the ring) — they only refresh the
# scheduler's per-job last-event timestamp.
JOB_SUBMITTED = "job.submitted"
JOB_STARTED = "job.started"
JOB_PROGRESS = "job.progress"
JOB_PARTIAL = "job.partial"
JOB_DONE = "job.done"
JOB_FAILED = "job.failed"
JOB_CANCELLED = "job.cancelled"

EVENT_TYPES = (
    JOB_SUBMITTED,
    JOB_STARTED,
    JOB_PROGRESS,
    JOB_PARTIAL,
    JOB_DONE,
    JOB_FAILED,
    JOB_CANCELLED,
)

#: Terminal event types — a watcher can stop after seeing one of these
#: for its job.
TERMINAL_EVENT_TYPES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})


class EventBus:
    """Bounded ring of events with monotonic cursors and long-poll waits.

    Thread-safe: one lock guards the ring, the sequence counter, and the
    condition readers block on. Events are plain JSON-serializable dicts::

        {"seq": 17, "ts": 1723110000.5, "type": "job.progress",
         "job_id": "j-abc", "data": {"level": 2, "front_size": 9}}
    """

    DEFAULT_CAPACITY = 1024
    #: Sequence numbers are reserved from disk in chunks this large, so
    #: persistence costs one fsync per SEQ_RESERVE_CHUNK publishes and a
    #: crash skips at most one chunk of numbers (never reuses any).
    SEQ_RESERVE_CHUNK = 512

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        persist_path: str | os.PathLike[str] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._cond = threading.Condition()
        self._closed = False
        self._persist_path = Path(persist_path) if persist_path is not None else None
        floor = self._load_reserved()
        self._next_seq = floor + 1
        self._reserved = floor
        self.published = 0

    # -- sequence persistence -------------------------------------------

    def _load_reserved(self) -> int:
        if self._persist_path is None or not self._persist_path.exists():
            return 0
        try:
            return max(0, int(self._persist_path.read_text().strip() or 0))
        except (OSError, ValueError):
            return 0

    def _reserve(self, ceiling: int) -> None:
        """Durably claim every sequence number up to ``ceiling``."""
        self._persist_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._persist_path.with_name(self._persist_path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{ceiling}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._persist_path)
        self._reserved = ceiling

    # -- publishing -----------------------------------------------------

    def publish(self, type: str, job_id: str | None = None, **data: Any) -> int:
        """Append an event; returns its sequence number."""
        with self._cond:
            seq = self._next_seq
            self._next_seq += 1
            if self._persist_path is not None and seq > self._reserved:
                self._reserve(seq + self.SEQ_RESERVE_CHUNK)
            event: dict[str, Any] = {"seq": seq, "ts": time.time(), "type": type}
            if job_id is not None:
                event["job_id"] = job_id
            if data:
                event["data"] = data
            self._ring.append(event)
            self.published += 1
            self._cond.notify_all()
            return seq

    # -- reading --------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 before any publish)."""
        with self._cond:
            return self._next_seq - 1

    @property
    def oldest_seq(self) -> int:
        """Sequence number of the oldest event still in the ring (0 if empty)."""
        with self._cond:
            return self._ring[0]["seq"] if self._ring else 0

    def _after_locked(
        self,
        cursor: int,
        limit: int,
        job_ids: Collection[str] | None,
    ) -> tuple[list[dict[str, Any]], int, int]:
        cursor = max(0, int(cursor))
        dropped = 0
        if self._ring:
            oldest = self._ring[0]["seq"]
            if cursor + 1 < oldest:
                dropped = oldest - cursor - 1
                cursor = oldest - 1
        events: list[dict[str, Any]] = []
        next_cursor = cursor
        for event in self._ring:
            seq = event["seq"]
            if seq <= cursor:
                continue
            if job_ids is not None and event.get("job_id") not in job_ids:
                # Examined but filtered out: advance the cursor past it so
                # filtered streams still make progress.
                next_cursor = seq
                continue
            events.append(event)
            next_cursor = seq
            if len(events) >= limit:
                break
        return events, next_cursor, dropped

    def after(
        self,
        cursor: int = 0,
        limit: int = 256,
        job_ids: Collection[str] | None = None,
    ) -> tuple[list[dict[str, Any]], int, int]:
        """Events with ``seq > cursor``, oldest first.

        Returns ``(events, next_cursor, dropped)``. ``next_cursor`` is the
        value to pass back to receive each later event exactly once;
        ``dropped`` counts events that fell off the ring between
        ``cursor`` and the oldest retained event (0 when nothing was
        missed). Pass ``job_ids`` to restrict to a set of job ids; events
        that fail the filter still advance the cursor.
        """
        with self._cond:
            return self._after_locked(cursor, max(1, int(limit)), job_ids)

    def wait(
        self,
        cursor: int = 0,
        timeout: float = 10.0,
        limit: int = 256,
        job_ids: Collection[str] | None = None,
    ) -> tuple[list[dict[str, Any]], int, int]:
        """Long-poll variant of :meth:`after`.

        Blocks until at least one matching event lands past ``cursor``,
        ``timeout`` seconds elapse, or the bus is :meth:`close`-d (then
        returns an empty batch with the advanced cursor). The wait is
        sliced into bounded chunks so even a waiter that raced past a
        missed notify observes ``close()`` within half a second —
        ``Server.stop()`` never sits out a 30 s poll. ``dropped`` sums the
        gaps every slice found, so a waiter that started behind the ring
        still learns what it missed.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        limit = max(1, int(limit))
        gap = 0
        with self._cond:
            while True:
                events, cursor, dropped = self._after_locked(
                    cursor, limit, job_ids
                )
                gap += dropped
                remaining = deadline - time.monotonic()
                if events or self._closed or remaining <= 0:
                    return events, cursor, gap
                self._cond.wait(min(remaining, 0.5))

    def close(self) -> None:
        """Wake every long-poll waiter and make future waits return
        immediately. Publishing and cursor reads keep working — closing
        only disarms the blocking path (used for prompt shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def stats(self) -> dict[str, Any]:
        """Ring occupancy and cursor bounds (for healthz / metrics)."""
        with self._cond:
            return {
                "capacity": self.capacity,
                "size": len(self._ring),
                "last_seq": self._next_seq - 1,
                "oldest_seq": self._ring[0]["seq"] if self._ring else 0,
                "published": self.published,
            }


# -- emitter side -------------------------------------------------------

_enabled = True

_emitter: contextvars.ContextVar["ProgressEmitter | None"] = contextvars.ContextVar(
    "repro_obs_emitter", default=None
)


def set_events_enabled(flag: bool) -> bool:
    """Flip the module-level progress-event switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def events_enabled() -> bool:
    """Whether the module-level progress-event switch is on."""
    return _enabled


def current_emitter() -> "ProgressEmitter | None":
    """The emitter installed for this context, if any."""
    return _emitter.get()


class ProgressEmitter:
    """Writes progress messages as JSON lines to a pipe file descriptor.

    Owned by the single thread (or forked child) executing one job, so no
    locking. The emitter never closes the fd — the scheduler owns both
    pipe ends and closes its copies once the run settles. Write failures
    (reader gone, e.g. scheduler shutdown) permanently silence the
    emitter rather than failing the search: progress is best-effort.
    """

    #: Minimum seconds between heartbeat lines; callers may invoke
    #: :meth:`heartbeat` every batch and rely on this throttle.
    HEARTBEAT_INTERVAL = 0.25
    #: Partial skylines are truncated to this many entries per refresh so
    #: a large front cannot flood the pipe or the scheduler's memory.
    PARTIAL_CAP = 64

    __slots__ = (
        "_fd",
        "_closed",
        "dropped",
        "heartbeat_interval",
        "partial_cap",
        "_last_heartbeat",
    )

    def __init__(
        self,
        fd: int,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        partial_cap: int = PARTIAL_CAP,
    ) -> None:
        self._fd = fd
        self._closed = False
        self.dropped = 0
        self.heartbeat_interval = float(heartbeat_interval)
        self.partial_cap = int(partial_cap)
        self._last_heartbeat = 0.0

    def _send(self, kind: str, data: dict[str, Any]) -> bool:
        if self._closed:
            self.dropped += 1
            return False
        line = json.dumps(
            {"event": kind, "data": data}, separators=(",", ":"), default=str
        )
        payload = line.encode("utf-8") + b"\n"
        try:
            while payload:
                written = os.write(self._fd, payload)
                payload = payload[written:]
        except OSError:
            self._closed = True
            self.dropped += 1
            return False
        return True

    def emit(self, kind: str, **data: Any) -> bool:
        """Send one progress message; returns whether it was written."""
        return self._send(kind, data)

    def heartbeat(self, **data: Any) -> bool:
        """Rate-limited liveness tick; safe to call from the hot loop."""
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return False
        self._last_heartbeat = now
        return self._send("heartbeat", data)

    def partial(
        self, entries: list[dict[str, Any]], n_total: int | None = None
    ) -> bool:
        """Send a refreshed partial skyline, truncated to ``partial_cap``."""
        total = len(entries) if n_total is None else int(n_total)
        data: dict[str, Any] = {
            "entries": entries[: self.partial_cap],
            "n_total": total,
        }
        if total > self.partial_cap:
            data["truncated"] = True
        return self._send("partial", data)


@contextlib.contextmanager
def use_emitter(emitter: "ProgressEmitter") -> Iterator["ProgressEmitter"]:
    """Install ``emitter`` for the duration of the with-block."""
    token = _emitter.set(emitter)
    try:
        yield emitter
    finally:
        _emitter.reset(token)


def emit(kind: str, **data: Any) -> None:
    """Emit a progress message; no-op unless an emitter is installed."""
    if not _enabled:
        return
    emitter = _emitter.get()
    if emitter is None:
        return
    emitter.emit(kind, **data)


def heartbeat(**data: Any) -> None:
    """Emit a rate-limited heartbeat; no-op unless an emitter is installed."""
    if not _enabled:
        return
    emitter = _emitter.get()
    if emitter is None:
        return
    emitter.heartbeat(**data)


def emit_partial(entries: list[dict[str, Any]], n_total: int | None = None) -> None:
    """Emit a partial-skyline refresh; no-op unless an emitter is installed."""
    if not _enabled:
        return
    emitter = _emitter.get()
    if emitter is None:
        return
    emitter.partial(entries, n_total)


def drain_progress(fileobj, handler) -> None:
    """Read JSON lines from ``fileobj`` until EOF, passing each to ``handler``.

    ``handler(kind, data)`` is called per well-formed line; malformed
    lines (torn writes from a killed child) are skipped. Handler errors
    are swallowed so a bad message can never wedge the drain thread.
    """
    for line in fileobj:
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if not isinstance(message, dict):
            continue
        kind = message.get("event")
        data = message.get("data")
        if not isinstance(kind, str):
            continue
        try:
            handler(kind, data if isinstance(data, dict) else {})
        except Exception:
            continue
