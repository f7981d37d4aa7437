"""Cross-process journal coordination: the directory flock + segment reopen.

Two writers on one ``--journal-dir`` used to be ordered by nothing at
all: compaction could unlink the segment a peer's append handle pointed
at (the ``disappeared; reopening`` warning an ordinary serve run logged)
and lease-mode schedulers therefore refused to compact entirely. The
journal now holds a shared ``flock`` on ``<dir>/.journal.lock`` around
every append and an exclusive one around every compaction, so exactly
one compactor wins while appends are never torn across the fold.

Covered here: the reopen path is lossless and logs at INFO (not
WARNING), non-blocking compaction loses cleanly to a held lock, the
lease-mode scheduler compacts again on boot and in steady state, and a
two-process append/compact hammer leaves a journal with every record and
no ``.compacting`` debris.
"""

import logging
import multiprocessing

import pytest

from repro.service import JobJournal, Scheduler
from repro.service.jobs import Job
from tests.helpers import StubFactory, service_spec as spec

pytestmark = pytest.mark.skipif(
    not JobJournal("/tmp").supports_cross_process_lock,
    reason="cross-process journal lock needs fcntl",
)


def submitted_names(journal_dir):
    """Spec names of every job a fresh replay can see."""
    return {
        snapshot["spec"]["name"]
        for snapshot in JobJournal(journal_dir).replay().jobs.values()
    }


class TestSegmentReopen:
    def test_external_compaction_reopen_is_lossless(self, tmp_path, caplog):
        """Satellite regression: a peer compacting the directory must not
        cost the original writer any record, and the reopen is routine
        operation now — INFO, not a warning."""
        writer = JobJournal(tmp_path, fsync=False)
        writer.record_submitted(Job(spec=spec("before")))

        peer = JobJournal(tmp_path, fsync=False)
        assert peer.compact() == 1  # unlinks the writer's open segment

        with caplog.at_level(logging.INFO, logger="repro.service.journal"):
            writer.record_submitted(Job(spec=spec("after")))
        assert submitted_names(tmp_path) == {"before", "after"}
        reopen = [r for r in caplog.records if "reopening" in r.message]
        assert reopen, "expected the reopen log line"
        assert all(r.levelno == logging.INFO for r in reopen)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_reopen_lands_on_a_live_segment(self, tmp_path):
        writer = JobJournal(tmp_path, fsync=False)
        writer.record_submitted(Job(spec=spec("j1")))
        JobJournal(tmp_path, fsync=False).compact()
        writer.record_submitted(Job(spec=spec("j2")))
        # the append went to a surviving segment, not the unlinked inode
        live = JobJournal(tmp_path)
        assert sum(
            1
            for segment in live.segments()
            for line in segment.read_text().splitlines()
            if '"j2"' in line
        ) == 1
        summary = live.replay()
        assert summary.skipped == 0
        assert submitted_names(tmp_path) == {"j1", "j2"}


class TestLockElection:
    def test_nonblocking_compact_loses_to_a_held_lock(self, tmp_path):
        holder = JobJournal(
            tmp_path, max_segment_bytes=256, fsync=False
        )
        n = 0
        while len(holder.segments()) < 3:  # rotate past the budget below
            holder.record_submitted(Job(spec=spec(f"j{n}")))
            n += 1
        contender = JobJournal(tmp_path, max_segments=1, fsync=False)
        with holder._dir_lock(exclusive=True):
            assert contender.compact(blocking=False) == -1
            assert contender.maybe_compact() is False
            assert len(contender.segments()) >= 3  # nothing was folded
        # lock released: the same calls now win
        assert contender.maybe_compact() is True
        assert len(contender.segments()) == 1
        assert len(JobJournal(tmp_path).replay().jobs) == n

    def test_shared_append_excludes_exclusive_compactor(self, tmp_path):
        appender = JobJournal(tmp_path, fsync=False)
        appender.record_submitted(Job(spec=spec("j1")))
        compactor = JobJournal(tmp_path, fsync=False)
        with appender._dir_lock(exclusive=False):
            assert compactor.compact(blocking=False) == -1
        assert compactor.compact(blocking=False) == 1


def _hammer(journal_dir, worker, n_jobs, barrier):
    journal = JobJournal(
        journal_dir, max_segment_bytes=256, max_segments=2, fsync=False
    )
    barrier.wait()
    for i in range(n_jobs):
        journal.record_submitted(Job(spec=spec(f"w{worker}-j{i}")))
        if i % 5 == 4:
            # replay-based fold (jobs=None): peers' records must survive
            journal.maybe_compact()
    journal.compact(blocking=True)


class TestTwoProcessCompaction:
    def test_concurrent_append_and_compact_lose_nothing(self, tmp_path):
        """Two processes interleaving appends and compactions over one
        directory: every record survives, nothing is torn, and no
        ``.compacting`` temp file is left behind."""
        n_workers, n_jobs = 2, 25
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n_workers)
        procs = [
            ctx.Process(
                target=_hammer, args=(tmp_path, w, n_jobs, barrier)
            )
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        summary = JobJournal(tmp_path).replay()
        expected = {
            f"w{w}-j{i}" for w in range(n_workers) for i in range(n_jobs)
        }
        assert submitted_names(tmp_path) == expected
        assert summary.skipped == 0
        assert summary.orphaned == 0
        assert not summary.torn_tail
        assert not list(tmp_path.glob("*.compacting"))


class TestLeaseModeCompaction:
    def _scheduler(self, journal_dir, **kwargs):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        return Scheduler(
            registry=object(),
            factory=factory,
            journal=JobJournal(
                journal_dir, max_segment_bytes=256, fsync=False
            ),
            n_workers=1,
            lease_sweep_interval=3600.0,
            **kwargs,
        )

    def test_lease_mode_boot_compaction_folds_segments(self, tmp_path):
        """ROADMAP follow-up: lease-mode journals compact again — the
        flock election replaces the blanket shared-mode refusal."""
        crashed = self._scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        for _ in range(20):  # rotate well past one segment
            crashed.submit(spec("j1"))
        assert len(JobJournal(tmp_path).segments()) > 1
        del crashed
        revived = self._scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        assert len(JobJournal(tmp_path).segments()) == 1
        # the fold kept every journaled job and the requeued work
        assert len(JobJournal(tmp_path).replay().jobs) == 20
        assert revived.queue.depth >= 1

    def test_lease_mode_fold_preserves_peer_lease_records(self, tmp_path):
        peer = self._scheduler(
            tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        job = peer.submit(spec("j1"))  # never started: the lease is live
        # a second scheduler boots, then folds (shared path, replay-based)
        observer = self._scheduler(
            tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        recovery = observer.metrics()["journal"]["recovery"]
        assert recovery["remote_leases"] == 1
        assert observer.journal.compact(None) >= 1
        snapshot = JobJournal(tmp_path).replay().jobs[job.id]
        assert snapshot["lease_owner"] == "sched-a"
        del peer
