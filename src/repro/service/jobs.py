"""Job specs and the service's explicit job state machine.

A :class:`Job` wraps one :class:`~repro.scenarios.spec.Scenario` — named
(a registry reference) or inline (ad-hoc spec fields from an HTTP body) —
with a priority and the full lifecycle record the service exposes over
its API: state, timestamps, budget/oracle accounting, and the result.

States move strictly along::

    QUEUED ──► RUNNING ──► DONE
       │          ├──────► FAILED
       └──────────┴──────► CANCELLED

``DONE``/``FAILED``/``CANCELLED`` are terminal. Every transition goes
through :meth:`Job.transition`, which rejects anything else — the
scheduler never has to reason about half-legal states, and tests can
assert on the machine directly.
"""

from __future__ import annotations

import math
import time
import uuid
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from ..exceptions import ServiceError
from ..scenarios.registry import ScenarioRegistry
from ..scenarios.spec import Scenario


class JobState:
    """The five job states, as plain strings (JSON- and API-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


#: state → states it may legally move to.
_TRANSITIONS: dict[str, frozenset[str]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}

#: Scenario constructor fields an inline submission may set.
INLINE_SPEC_FIELDS = frozenset(
    {
        "name",
        "task",
        "algorithm",
        "tags",
        "algorithm_kwargs",
        "epsilon",
        "budget",
        "max_level",
        "scale",
        "seed",
        "estimator",
        "n_bootstrap",
        "distributed",
        "verify",
        "description",
    }
)

#: Submission keys that are not scenario fields.
_REQUEST_ONLY_FIELDS = frozenset(
    {"scenario", "priority", "timeout", "max_oracle_calls", "shards", "profile"}
)

#: Upper bound on ``shards=N`` — far above any useful fan-out (the
#: level-1 frontier of the paper's tasks is tens of operators), but low
#: enough that a typo cannot fan one submission into thousands of jobs.
MAX_SHARDS = 64


def new_job_id() -> str:
    """A short, URL-safe, collision-resistant job id."""
    return f"job-{uuid.uuid4().hex[:12]}"


#: Every plain :class:`Job` attribute serialized verbatim by BOTH the API
#: payload and the journal snapshot (``spec`` is rendered separately by
#: each view). One list, three consumers — a new Job field added here is
#: automatically served, persisted, and replayed; one added to the
#: dataclass but not here fails the snapshot drift test.
LIFECYCLE_FIELDS = (
    "id",
    "priority",
    "state",
    "submitted_at",
    "started_at",
    "finished_at",
    "run_seconds",
    "result",
    "error",
    "cache_hit",
    "warm_started",
    "warm_records",
    "oracle_calls",
    "oracle_calls_saved",
    "timeout",
    "max_oracle_calls",
    "retries",
    "failure_reason",
    "deduped",
    "shards",
    "parent_id",
    "shard_index",
    "lease_owner",
    "lease_expires_at",
    "trace",
    "profile",
    "profile_path",
    "progress",
    "updated_at",
)


@dataclass
class Job:
    """One unit of service work: a scenario spec plus its lifecycle record.

    ``priority`` is "higher runs sooner"; ties break by submission order
    (FIFO). All mutation happens under the scheduler's lock — the dataclass
    itself carries no synchronization.
    """

    spec: Scenario
    priority: int = 0
    id: str = field(default_factory=new_job_id)
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    run_seconds: float = 0.0
    result: dict[str, Any] | None = None
    error: str | None = None
    #: completed instantly from the content-addressed result cache.
    cache_hit: bool = False
    #: estimator was seeded from the persistent shared oracle store.
    warm_started: bool = False
    #: how many historical test records the warm start injected.
    warm_records: int = 0
    #: real model trainings this job paid (None: unknown, e.g. distributed).
    oracle_calls: int | None = None
    #: oracle calls avoided vs the cold run that seeded the task's store.
    oracle_calls_saved: int = 0
    #: wall-clock limit in seconds (None: unlimited). Enforced
    #: cooperatively at the oracle boundary, and by hard kill on the
    #: forked-process backend.
    timeout: float | None = None
    #: oracle-call quota (None: unlimited); exceeding it fails the job
    #: with ``failure_reason="quota"`` but keeps its partial oracle truth.
    max_oracle_calls: int | None = None
    #: crash-recovery re-executions charged so far (journal replay only).
    retries: int = 0
    #: why a FAILED job failed: "timeout" | "quota" | "retry-budget" |
    #: "error" (an ordinary exception) | None while not failed.
    failure_reason: str | None = None
    #: completed by copying an identical in-flight job's result.
    deduped: bool = False
    #: shard fan-out declared at submission (None: ordinary job). Set on
    #: both the parent and its shard children.
    shards: int | None = None
    #: the parent job id on shard children (None otherwise).
    parent_id: str | None = None
    #: this child's partition index in ``range(shards)`` (None on the
    #: parent and on ordinary jobs).
    shard_index: int | None = None
    #: scheduler id currently holding this job's journal lease.
    lease_owner: str | None = None
    #: epoch after which the lease is adoptable by a peer scheduler.
    lease_expires_at: float | None = None
    #: flat span records of this job's lifecycle (``repro.obs.tracing``
    #: dicts; None until the job has run). Persisted with the snapshot so
    #: traces survive journal replay — an *additive* journal field, no
    #: version bump per the journal's versioning rules.
    trace: list[dict[str, Any]] | None = None
    #: cProfile requested at submission (needs the server's --profile-dir).
    profile: bool = False
    #: where the pstats dump landed (None: not profiled).
    profile_path: str | None = None
    #: latest live-progress counters from the running search (level,
    #: states valuated vs budget, front size, ...; None before the first
    #: progress event). Updated in place by the scheduler's drain thread
    #: WITHOUT touching ``updated_at``, so the lifecycle ETag stays
    #: stable while a job merely makes progress. Additive journal field.
    progress: dict[str, Any] | None = None
    #: last lifecycle mutation (feeds the API's weak ETag).
    updated_at: float = field(default_factory=time.time)

    # -- state machine -----------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, stamping timestamps; illegal moves raise."""
        if new_state not in _TRANSITIONS:
            raise ServiceError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.id}: illegal transition "
                f"{self.state} -> {new_state}"
            )
        self.state = new_state
        now = time.time()
        self.updated_at = now
        if new_state == JobState.RUNNING:
            self.started_at = now
        elif new_state in JobState.TERMINAL:
            self.finished_at = now

    @property
    def is_shard_parent(self) -> bool:
        """True for the coordinating job of a ``shards=N`` submission."""
        return self.shards is not None and self.shard_index is None

    # -- views -------------------------------------------------------------------
    def to_payload(self, include_result: bool = False) -> dict[str, Any]:
        """The JSON form served by ``GET /v1/jobs`` and ``GET /v1/jobs/{id}``."""
        spec = self.spec
        payload: dict[str, Any] = {
            field_name: getattr(self, field_name)
            for field_name in LIFECYCLE_FIELDS
            # result, trace and progress have dedicated endpoints
            # (GET /v1/results/{id}, /v1/jobs/{id}/trace, /v1/jobs/{id}/progress);
            # keeping progress out also keeps the ETag honest — the job
            # payload only changes when the lifecycle does.
            if field_name not in ("result", "trace", "progress")
        }
        payload["scenario"] = {
            "name": spec.name,
            "tags": list(spec.tags),
            **spec.cache_payload(),
        }
        payload["fingerprint"] = spec.fingerprint()
        payload["summary"] = summarize_result(self.result)
        if include_result:
            payload["result"] = self.result
        return payload

    # -- journal round-trip ------------------------------------------------------
    def to_snapshot(self) -> dict[str, Any]:
        """The journal form: the full lifecycle record plus enough spec
        fields to rebuild the :class:`Scenario` on replay.

        Additive by contract (see the journal's versioning rules):
        :meth:`from_snapshot` must treat missing keys as their dataclass
        defaults, so old journals replay under newer code.
        """
        spec = self.spec
        snapshot: dict[str, Any] = {
            field_name: getattr(self, field_name)
            for field_name in LIFECYCLE_FIELDS
        }
        snapshot["spec"] = {
            "name": spec.name,
            "tags": list(spec.tags),
            "description": spec.description,
            **spec.cache_payload(),
        }
        return snapshot

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> Job:
        """Rebuild a job from its journal snapshot (state set directly —
        replay restores facts, it does not re-walk the state machine).

        Unknown spec keys are dropped rather than passed to the strict
        :class:`Scenario` constructor: the journal's versioning rules
        allow *additive* fields without a version bump, so a journal
        written by a newer release must still replay (minus the fields
        this release does not know) instead of raising.
        """
        known = {f.name for f in fields(Scenario)}
        spec_fields = {
            k: v for k, v in dict(snapshot["spec"]).items() if k in known
        }
        if isinstance(spec_fields.get("tags"), list):
            spec_fields["tags"] = tuple(spec_fields["tags"])
        spec = Scenario(**spec_fields)
        state = snapshot.get("state", JobState.QUEUED)
        if state not in _TRANSITIONS:
            raise ServiceError(
                f"snapshot for {snapshot.get('id')!r} carries unknown "
                f"state {state!r}"
            )
        job = cls(
            spec=spec,
            priority=int(snapshot.get("priority", 0)),
            id=str(snapshot["id"]),
            state=state,
        )
        for field_name in LIFECYCLE_FIELDS:
            if field_name in ("id", "priority", "state"):
                continue  # constructor-set above (with validation)
            if field_name in snapshot:
                setattr(job, field_name, snapshot[field_name])
        return job


def summarize_result(result: Mapping[str, Any] | None) -> dict[str, Any]:
    """A small quality digest of a result payload (empty dict if none)."""
    if not result:
        return {}
    return {
        "skyline_size": len(result.get("entries", [])),
        "n_valuated": result.get("n_valuated", 0),
        "terminated_by": result.get("terminated_by", ""),
        "elapsed_seconds": result.get("elapsed_seconds", 0.0),
    }


def scenario_from_request(
    body: Mapping[str, Any], registry: ScenarioRegistry
) -> Scenario:
    """Resolve a submission body into a :class:`Scenario`.

    Two shapes are accepted:

    * ``{"scenario": "<registered name>"}`` — a registry reference;
    * inline spec fields (``{"task": "T3", "algorithm": "apx", ...}``) —
      an ad-hoc scenario, auto-named when ``name`` is omitted. Because the
      result-cache fingerprint excludes identity fields, an inline job
      identical to a named one still dedups against its cached result.

    Unknown keys are rejected rather than ignored, so a typo ("buget")
    fails loudly at submission time instead of silently running defaults.
    """
    if not isinstance(body, Mapping):
        raise ServiceError("job submission must be a JSON object")
    unknown = set(body) - INLINE_SPEC_FIELDS - _REQUEST_ONLY_FIELDS
    if unknown:
        raise ServiceError(
            f"unknown job fields {sorted(unknown)}; accepted: "
            f"{sorted(INLINE_SPEC_FIELDS | _REQUEST_ONLY_FIELDS)}"
        )
    named = body.get("scenario")
    inline = {k: body[k] for k in INLINE_SPEC_FIELDS if k in body}
    if named is not None:
        if inline:
            raise ServiceError(
                "a submission is either a scenario reference or inline "
                f"spec fields, not both (got scenario={named!r} plus "
                f"{sorted(inline)})"
            )
        return registry.get(str(named))
    if "task" not in inline:
        raise ServiceError(
            "inline submissions need at least a 'task' "
            "(or use {'scenario': '<registered name>'})"
        )
    inline.setdefault("name", new_job_id())
    if isinstance(inline.get("tags"), list):
        inline["tags"] = tuple(inline["tags"])
    return Scenario(**inline)


def limits_from_request(
    body: Mapping[str, Any]
) -> tuple[float | None, int | None]:
    """Validate and extract ``(timeout, max_oracle_calls)`` from a body.

    Both are optional; ``None`` (or JSON ``null``) means unlimited.
    Non-numeric or non-positive limits are rejected at submission time.
    """
    timeout = body.get("timeout")
    if timeout is not None:
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not math.isfinite(timeout)
            or timeout <= 0
        ):
            raise ServiceError(
                f"timeout must be a positive finite number of seconds, "
                f"got {timeout!r}"
            )
        timeout = float(timeout)
    quota = body.get("max_oracle_calls")
    if quota is not None:
        if isinstance(quota, bool) or not isinstance(quota, int) or quota < 1:
            raise ServiceError(
                f"max_oracle_calls must be a positive integer, got {quota!r}"
            )
    return timeout, quota


def profile_from_request(body: Mapping[str, Any]) -> bool:
    """Validate and extract the ``profile`` flag from a submission body.

    Accepting the flag is independent of the server actually having a
    ``--profile-dir``; without one the flag is recorded but no pstats
    dump is produced (the trace endpoint reports ``profile: null``).
    """
    profile = body.get("profile", False)
    if not isinstance(profile, bool):
        raise ServiceError(f"profile must be a boolean, got {profile!r}")
    return profile


def shards_from_request(body: Mapping[str, Any]) -> int | None:
    """Validate and extract the ``shards`` fan-out from a body.

    ``None`` (or JSON ``null``) means an ordinary single-worker job;
    otherwise an integer in ``1..MAX_SHARDS``. ``shards=1`` still routes
    through the scatter/merge machinery (a scatter of one), so the two
    paths stay structurally identical and directly comparable.
    """
    shards = body.get("shards")
    if shards is None:
        return None
    if (
        isinstance(shards, bool)
        or not isinstance(shards, int)
        or not 1 <= shards <= MAX_SHARDS
    ):
        raise ServiceError(
            f"shards must be an integer in 1..{MAX_SHARDS}, got {shards!r}"
        )
    return shards
