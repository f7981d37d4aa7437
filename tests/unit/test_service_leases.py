"""Journal leases: multiple schedulers sharing one ``--journal-dir``.

The lease protocol is three WAL record types (``lease-acquired`` /
``lease-renewed`` / ``lease-released``) folded onto job snapshots at
replay time. Covered bottom-up: record validation and folding, the
opt-in gate (anonymous schedulers journal no leases, so PR-4 recovery is
byte-identical), same-id reclaim vs. live-foreign read-only tracking,
TTL-expiry adoption via :meth:`Scheduler.sweep_leases`, and the headline
scenario — scheduler A is SIGKILLed mid-shard, scheduler B adopts its
expired leases and finishes the sharded job with a skyline identical to
an undisturbed run.
"""

import shutil
import time

import pytest

from repro.exceptions import ServiceError
from repro.scenarios.spec import Scenario
from repro.service import JobJournal, JobState, Scheduler
from repro.service import scheduler as scheduler_module
from tests.helpers import StubFactory, service_spec as spec

# Same exhaustive recipe as test_service_sharding: at max_level=1 a
# budget of 64 covers every level-1 state of T1, so any scheduler that
# finishes the job — survivor or not — produces the same skyline.
EXHAUSTIVE = dict(
    name="s1", task="T1", algorithm="apx", epsilon=0.3, budget=64,
    max_level=1, scale=0.2, estimator="oracle",
)
# A sweep interval far beyond any test duration: sweeps happen only when
# a test calls sweep_leases() itself.
MANUAL = dict(lease_sweep_interval=3600.0)


def stub_scheduler(journal_dir, names=("j1",), **kwargs):
    factory = StubFactory()
    for name in names:
        factory.on(name, lambda: None)
    kwargs.setdefault("n_workers", 1)
    return Scheduler(
        registry=object(),
        factory=factory,
        journal=JobJournal(journal_dir),
        **dict(MANUAL, **kwargs),
    )


class FakeClock:
    """Stands in for the scheduler module's ``time``: epoch reads run
    ``offset`` seconds ahead, so leases expire without sleeping."""

    def __init__(self):
        self.offset = 0.0

    def time(self):
        return time.time() + self.offset

    def __getattr__(self, name):
        return getattr(time, name)


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(scheduler_module, "time", fake)
    return fake


def lease_lines(journal_dir):
    lines = []
    for segment in JobJournal(journal_dir).segments():
        for line in segment.read_text().splitlines():
            if '"lease-' in line:
                lines.append(line)
    return lines


class TestLeaseRecords:
    def test_record_lease_validation(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(ServiceError, match="action"):
            journal.record_lease("job-1", "stolen", "a", ttl=5.0)
        for bad_ttl in (None, 0, -1.0):
            with pytest.raises(ServiceError, match="ttl"):
                journal.record_lease("job-1", "acquired", "a", ttl=bad_ttl)
        journal.record_lease("job-1", "released", "a")  # no ttl needed

    def test_replay_folds_the_latest_lease(self, tmp_path):
        scheduler = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=30.0
        )
        job = scheduler.submit(spec("j1"))
        assert job.lease_owner == "sched-a"
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] == "sched-a"
        assert snapshot["lease_expires_at"] == pytest.approx(
            time.time() + 30.0, abs=5.0
        )
        scheduler.journal.record_lease(job.id, "released", "sched-a")
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] is None
        assert snapshot["lease_expires_at"] is None

    def test_leases_are_opt_in(self, tmp_path):
        # No scheduler_id → PR-4 behaviour: a journal without a single
        # lease record, and sweep_leases() is a no-op.
        scheduler = stub_scheduler(tmp_path)
        scheduler.submit(spec("j1"))
        assert lease_lines(tmp_path) == []
        assert scheduler.sweep_leases() == {
            "renewed": 0, "imported": 0, "adopted": 0, "expired": 0,
        }
        assert scheduler.metrics()["leases"]["enabled"] is False

    def test_ttl_zero_disables_leases(self, tmp_path):
        scheduler = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=0.0
        )
        scheduler.submit(spec("j1"))
        assert lease_lines(tmp_path) == []


class TestOwnershipAcrossRestarts:
    def test_same_id_restart_reclaims_immediately(self, tmp_path):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        crashed.submit(spec("j1"))
        del crashed  # SIGKILL stand-in: the lease is nowhere near expiry

        revived = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        # Its own pre-crash lease is not foreign: requeued, not remote.
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["requeued"] == 1
        assert recovery["remote_leases"] == 0
        assert revived.queue.depth == 1

    def test_live_foreign_lease_is_tracked_read_only(self, tmp_path):
        peer = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        job = peer.submit(spec("j1"))

        observer = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        recovery = observer.metrics()["journal"]["recovery"]
        assert recovery["remote_leases"] == 1
        assert observer.queue.depth == 0
        # visible to lookups, owned elsewhere
        assert observer.get(job.id).lease_owner == "sched-a"
        # and peer liveness is tracked, which forces any compaction onto
        # the replay-based, flock-ordered shared path
        assert observer._peer_active() is True
        del peer

    def test_sweep_adopts_after_expiry(self, tmp_path):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=0.3
        )
        job = crashed.submit(spec("j1"))
        del crashed

        survivor = stub_scheduler(
            tmp_path, names=("j1", "j2"),
            scheduler_id="sched-b", lease_ttl=30.0,
        )
        if survivor.queue.depth == 0:
            # Boot raced the 0.3 s TTL and saw the lease still live:
            # wait it out and let the sweep adopt (the usual path).
            time.sleep(0.35)
            stats = survivor.sweep_leases()
            assert stats["expired"] == 1
            assert stats["adopted"] == 1
        adopted = survivor.get(job.id)
        assert adopted.state == JobState.QUEUED
        assert adopted.lease_owner == "sched-b"
        assert survivor.queue.depth == 1
        assert survivor.metrics()["leases"]["held"] == 1
        # sweeps also renew what we now own
        assert survivor.sweep_leases()["renewed"] == 1

    def test_sweep_imports_peer_outcomes(self, tmp_path):
        worker = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        observer = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        with worker:
            job = worker.submit(spec("j1"))
            worker.wait(job.id, timeout=10.0)
        stats = observer.sweep_leases()
        assert stats["imported"] == 1
        assert observer.get(job.id).state == JobState.DONE


class TestSurvivorFinishesShardedJob:
    def test_sigkilled_peer_mid_shard_identical_skyline(self, tmp_path):
        # The undisturbed reference: one scheduler, no journal.
        with Scheduler(n_workers=2) as reference:
            ref_parent = reference.submit(Scenario(**EXHAUSTIVE), shards=2)
            ref_job = reference.wait(ref_parent.id, timeout=300)
            assert ref_job.state == "done", ref_job.error
            ref_entries = [
                (e["bits"], e["performance"])
                for e in ref_job.result["entries"]
            ]
        assert ref_entries

        # Scheduler A claims the sharded job and "dies" mid-shard: its
        # workers never start, but shard 0 is journaled as started — the
        # exact WAL state a SIGKILL between started and done leaves.
        doomed = Scheduler(
            journal=JobJournal(tmp_path),
            scheduler_id="sched-a", lease_ttl=1.0,
            n_workers=1, **MANUAL,
        )
        parent = doomed.submit(Scenario(**EXHAUSTIVE), shards=2)
        children = doomed.describe(parent.id)["shard_jobs"]
        first = doomed.get(children[0]["id"])
        first.transition(JobState.RUNNING)
        doomed._journal_started(first)
        del doomed  # no stop(), no release: leases must expire on their own

        survivor = Scheduler(
            journal=JobJournal(tmp_path),
            scheduler_id="sched-b", lease_ttl=1.0,
            n_workers=2, **MANUAL,
        )
        boot = survivor.metrics()["journal"]["recovery"]
        adopted_at_boot = boot["remote_leases"] == 0
        if not adopted_at_boot:
            assert boot["remote_leases"] == 3  # parent + 2 children
            time.sleep(1.1)  # let every sched-a lease expire
            stats = survivor.sweep_leases()
            assert stats["adopted"] == 3
            assert stats["expired"] == 3
        # the shard that died RUNNING is charged the usual crash retry
        assert survivor.get(first.id).retries == 1
        assert survivor.get(parent.id).lease_owner == "sched-b"

        with survivor:
            job = survivor.wait(parent.id, timeout=300)
        assert job.state == "done", job.error
        entries = [
            (e["bits"], e["performance"]) for e in job.result["entries"]
        ]
        assert entries == ref_entries
        if not adopted_at_boot:
            assert survivor.metrics()["leases"]["adopted"] == 3


# One name per job of the takeover journal; each seed is its own
# fingerprint, and "twin" repeats "queued"'s.
TAKEOVER_SEEDS = dict(
    done=1, live=2, queued=3, twin=3, running=4, spent=5, sharded=6,
)


def takeover_journal(journal_dir):
    """A journal holding every takeover case, left by two schedulers.

    ``sched-c`` holds ``live`` under a lease that outlives every test;
    ``sched-a`` dies holding 5 s leases on the rest: a cancelled job, a
    queued one plus its identical twin (a follower), one that died
    running, one that died running with its retry budget spent, and a
    shard parent that died mid-merge after both children finished.
    """
    names = tuple(TAKEOVER_SEEDS)
    peer = stub_scheduler(
        journal_dir, names, scheduler_id="sched-c", lease_ttl=3600.0
    )
    peer.submit(spec("live", seed=TAKEOVER_SEEDS["live"]))
    doomed = stub_scheduler(
        journal_dir, names, scheduler_id="sched-a", lease_ttl=5.0
    )
    jobs = {
        name: doomed.submit(spec(name, seed=TAKEOVER_SEEDS[name]))
        for name in ("done", "queued", "twin", "running", "spent")
    }
    doomed.cancel(jobs["done"].id)
    jobs["spent"].retries = doomed.max_retries
    doomed.journal.record_retried(jobs["spent"])  # replay drops its lease
    doomed._acquire_lease(jobs["spent"])
    parent = doomed.submit(
        spec("sharded", seed=TAKEOVER_SEEDS["sharded"]), shards=2
    )
    with doomed._lock:
        for child in doomed._shard_children_locked(parent.id):
            child.transition(JobState.RUNNING)
            doomed._journal_started(child)
            child.result = {"entries": []}
            doomed._finish_locked(child, JobState.DONE)
    for job in (jobs["running"], jobs["spent"], parent):
        job.transition(JobState.RUNNING)
        doomed._journal_started(job)
    return {**jobs, "sharded": parent}


def takeover_state(scheduler):
    """What a takeover decides, by job name (shard children by index)."""
    def name(job):
        if job.shard_index is not None:
            return f"{job.spec.name}/{job.shard_index}"
        return job.spec.name

    names = {job.id: name(job) for job in scheduler.list_jobs()}
    return {
        "jobs": {
            names[job.id]: (job.state, job.retries, job.lease_owner)
            for job in scheduler.list_jobs()
        },
        "queue": sorted(names[job.id] for _, _, job in scheduler.queue._heap),
        "followers": {
            names[primary]: sorted(names[f] for f in followers)
            for primary, followers in scheduler._followers.items()
        },
    }


class TestOneTakeoverPath:
    def test_sweep_adopted_job_dedups_an_identical_submission(
        self, tmp_path, clock
    ):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=5.0
        )
        job = crashed.submit(spec("j1"))
        del crashed

        survivor = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=30.0
        )
        assert survivor.metrics()["journal"]["recovery"]["remote_leases"] == 1
        clock.offset = 60.0  # sched-a's lease has expired
        assert survivor.sweep_leases()["adopted"] == 1
        assert survivor.queue.depth == 1

        twin = survivor.submit(spec("j1"))
        assert survivor.queue.depth == 1  # the twin runs nothing itself
        assert survivor._followers == {job.id: [twin.id]}
        assert survivor.metrics()["dedup"]["inflight_hits"] == 1

    def test_boot_and_sweep_take_over_alike(self, tmp_path, clock):
        source = tmp_path / "source"
        takeover_journal(source)
        shutil.copytree(source, tmp_path / "boot")
        shutil.copytree(source, tmp_path / "sweep")
        names = tuple(TAKEOVER_SEEDS)

        clock.offset = 60.0  # sched-a's leases expired before the boot
        booted = stub_scheduler(
            tmp_path / "boot", names, scheduler_id="sched-b",
            lease_ttl=30.0,
        )
        boot = booted.metrics()["journal"]["recovery"]
        assert boot["remote_leases"] == 1 and boot["refollowed"] == 1

        clock.offset = 0.0  # this boot still sees sched-a's leases live
        swept = stub_scheduler(
            tmp_path / "sweep", names, scheduler_id="sched-b",
            lease_ttl=30.0,
        )
        assert swept.metrics()["journal"]["recovery"]["remote_leases"] == 6
        assert swept.queue.depth == 0
        clock.offset = 60.0
        stats = swept.sweep_leases()
        assert stats["expired"] == 5 and stats["adopted"] == 4

        state = takeover_state(booted)
        assert takeover_state(swept) == state
        assert state["queue"] == ["queued", "running"]
        assert state["followers"] == {"queued": ["twin"]}
        jobs = state["jobs"]
        assert jobs["done"] == (JobState.CANCELLED, 0, None)
        assert jobs["live"] == (JobState.QUEUED, 0, "sched-c")
        assert jobs["queued"] == (JobState.QUEUED, 0, "sched-b")
        assert jobs["twin"] == (JobState.QUEUED, 0, "sched-b")
        assert jobs["running"] == (JobState.QUEUED, 1, "sched-b")
        assert jobs["spent"][:2] == (JobState.FAILED, 3)
        # the re-elected merge ran (and failed: stub shards carry no task)
        assert jobs["sharded"] == (JobState.FAILED, 0, None)

    def test_unjournaled_retry_charge_waits_for_the_next_sweep(
        self, tmp_path, clock
    ):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=5.0
        )
        job = crashed.submit(spec("j1"))
        job.transition(JobState.RUNNING)
        crashed._journal_started(job)
        del crashed

        survivor = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=30.0
        )
        clock.offset = 60.0

        def broken(*args, **kwargs):
            raise OSError("disk full")

        original = survivor.journal.record_retried
        survivor.journal.record_retried = broken
        assert survivor.sweep_leases()["adopted"] == 0
        # never queued, still the dead peer's job as the journal has it
        assert survivor.queue.depth == 0
        held = survivor.get(job.id)
        assert (held.state, held.retries, held.lease_owner) == (
            JobState.RUNNING, 0, "sched-a"
        )
        assert survivor.metrics()["retries"]["total"] == 0

        survivor.journal.record_retried = original
        assert survivor.sweep_leases()["adopted"] == 1
        adopted = survivor.get(job.id)
        assert (adopted.state, adopted.retries) == (JobState.QUEUED, 1)
        assert survivor.queue.depth == 1


def lease_appends_fail(scheduler):
    """Make every ``lease-*`` append of ``scheduler`` fail."""
    def broken(*args, **kwargs):
        raise OSError("disk full")

    scheduler.journal.record_lease = broken


class TestLeaseRidesOnStrictRecords:
    """A job's first lease is in its strict record, not a later append:
    a lost ``lease-acquired`` line can never let a peer adopt it."""

    def test_submitted_snapshot_carries_the_lease(self, tmp_path):
        peer = stub_scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        owner = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        lease_appends_fail(owner)
        job = owner.submit(spec("j1"))
        assert lease_lines(tmp_path) == []

        stats = peer.sweep_leases()
        assert (stats["adopted"], stats["imported"]) == (0, 1)
        assert peer.queue.depth == 0
        assert peer.get(job.id).lease_owner == "sched-a"
        del owner

    def test_retried_record_carries_the_lease(self, tmp_path, clock):
        crashed = stub_scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=5.0
        )
        job = crashed.submit(spec("j1"))
        job.transition(JobState.RUNNING)
        crashed._journal_started(job)
        del crashed
        survivor, third = (
            stub_scheduler(tmp_path, scheduler_id=sid, lease_ttl=3600.0)
            for sid in ("sched-b", "sched-c")
        )
        assert third.get(job.id).lease_owner == "sched-a"

        lease_appends_fail(survivor)
        clock.offset = 60.0
        assert survivor.sweep_leases()["adopted"] == 1
        adopted = survivor.get(job.id)
        assert (adopted.state, adopted.retries, adopted.lease_owner) == (
            JobState.QUEUED, 1, "sched-b"
        )
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] == "sched-b"

        assert third.sweep_leases()["adopted"] == 0
        assert third.queue.depth == 0
        assert third.get(job.id).lease_owner == "sched-b"
        del survivor

    def test_retried_record_without_owner_leaves_the_job_unleased(
        self, tmp_path
    ):
        journal = JobJournal(tmp_path)
        scheduler = stub_scheduler(tmp_path, scheduler_id="sched-a")
        job = scheduler.submit(spec("j1"))
        journal.record_retried(job)
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert (snapshot["lease_owner"], snapshot["lease_expires_at"]) == (
            None, None
        )
        with pytest.raises(ServiceError, match="positive ttl"):
            journal.record_retried(job, "sched-a", ttl=0)
