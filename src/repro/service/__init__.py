"""Long-running skyline-generation service: job queue, HTTP API, oracle store.

The ROADMAP's serving layer: instead of one-shot CLI processes that
rebuild their task, retrain their oracles, and discard the test store on
exit, discovery runs as jobs against a persistent service:

* :class:`Job` / :class:`JobState` — one scenario submission with an
  explicit ``QUEUED → RUNNING → DONE | FAILED | CANCELLED`` state machine;
* :class:`JobQueue` — thread-safe priority queue (higher first, FIFO ties,
  lazy cancellation);
* :class:`Scheduler` — a worker pool draining the queue through the
  :mod:`repro.exec` backends, with per-job failure isolation, content-hash
  dedup against the PR-2 :class:`~repro.scenarios.cache.ResultCache`, and
  estimator warm-starts from the oracle store;
* :class:`OracleStore` — persistent, task-keyed ground-truth test stores:
  the first job on a task pays oracle training, every later one inherits
  it (``oracle_calls_saved`` is measured against that cold baseline);
* :class:`JobJournal` — an append-only, fsync'd, segment-rotated JSONL
  write-ahead journal of every job transition; on startup the scheduler
  replays it, restoring terminal records and re-queuing jobs that were
  queued or running at crash time (with a bounded retry budget), so a
  SIGKILL loses no submitted work. Per-job ``timeout`` and
  ``max_oracle_calls`` limits are enforced cooperatively at the oracle
  boundary and by hard child kill on the process backend;
* :class:`ServiceServer` / :class:`ServiceClient` — a stdlib-only
  versioned JSON HTTP API (``POST /v1/jobs``, ``GET /v1/jobs[/{id}]``
  with filtering/pagination/weak ETags, ``DELETE /v1/jobs/{id}``,
  ``GET /v1/results/{id}``, ``GET /v1/healthz``, ``GET /v1/metrics``)
  and its typed Python client — API failures raise precise
  :class:`~repro.exceptions.ApiError` subclasses rebuilt from the
  ``{"error": {code, message, detail}}`` envelope;
* sharded jobs — ``shards=N`` submissions scatter the search across N
  shard children via :class:`ShardRun` (the distributed worker: ApxMODis
  over a fixed slice of the level-1 frontier) and merge their local
  skylines with :func:`merge_shard_results` into the parent's result,
  bit-identical to an unsharded run when budgets are exhaustive;
* journal leases — schedulers constructed with an explicit
  ``scheduler_id`` claim jobs via lease records in the shared journal,
  so several scheduler processes can serve one ``--journal-dir``; a
  survivor's sweep (:meth:`Scheduler.sweep_leases`) adopts the expired
  leases of a SIGKILLed peer and finishes its jobs. Boot replay, the
  sweep and ``repro recover`` share one takeover policy,
  :func:`~repro.service.scheduler.recovery_action`.

:meth:`ServiceClient.wait` rides :meth:`ServiceClient.watch`, the
``GET /v1/events`` long-poll, and fetches the job record only up front
and once the stream ends.

CLI surface: ``repro serve`` boots the service; ``repro submit``,
``repro status``, and ``repro fetch`` talk to it.

Quickstart::

    from repro.service import OracleStore, Scheduler, ServiceClient, ServiceServer

    scheduler = Scheduler(oracle_store=OracleStore("/tmp/oracle-stores"))
    with ServiceServer(scheduler, port=0) as server:
        client = ServiceClient(server.url)
        first = client.run(scenario="smoke-t3-apx")
        second = client.run(task="T3", algorithm="bimodis", budget=10)
        print(second["oracle_calls_saved"], "oracle calls saved")
"""

from .client import DEFAULT_URL, ServiceClient
from .jobs import (
    INLINE_SPEC_FIELDS,
    MAX_SHARDS,
    Job,
    JobState,
    limits_from_request,
    new_job_id,
    scenario_from_request,
    shards_from_request,
    summarize_result,
)
from .journal import JOURNAL_VERSION, JobJournal, ReplaySummary
from .queue import JobQueue
from .scheduler import Scheduler
from .server import ServiceServer, job_etag
from .sharding import (
    SHARDED_ALGORITHM,
    ShardRun,
    merge_shard_results,
    shard_budget,
)
from .store import (
    DEFAULT_ORACLE_STORE_DIR,
    OracleStore,
    TaskHistory,
    default_oracle_store_dir,
    task_key,
)

__all__ = [
    "DEFAULT_ORACLE_STORE_DIR",
    "DEFAULT_URL",
    "INLINE_SPEC_FIELDS",
    "JOURNAL_VERSION",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobState",
    "MAX_SHARDS",
    "OracleStore",
    "ReplaySummary",
    "SHARDED_ALGORITHM",
    "Scheduler",
    "ServiceClient",
    "ServiceServer",
    "ShardRun",
    "TaskHistory",
    "default_oracle_store_dir",
    "job_etag",
    "limits_from_request",
    "merge_shard_results",
    "new_job_id",
    "scenario_from_request",
    "shard_budget",
    "shards_from_request",
    "summarize_result",
    "task_key",
]
