"""Crash recovery: the journal, replay, retries, and torn writes.

The harness is deliberately brutal: a :class:`~tests.helpers.CrashingBackend`
kills workers (``SimulatedCrash`` is a ``BaseException`` — per-job failure
isolation cannot swallow it) at configurable points, the crashed scheduler
is abandoned without cleanup, and a fresh one is built on the same journal
directory — exactly the SIGKILL-then-restart path the acceptance criteria
demand. Journal mechanics (rotation, compaction, versioning, torn tails)
are covered directly at the bottom.
"""

import json
import time

import pytest

from repro.scenarios import ResultCache
from repro.service import JobJournal, JobState, Scheduler
from repro.service.journal import JOURNAL_VERSION
from tests.helpers import (
    AnythingFactory,
    CrashingScheduler,
    SimulatedCrash,
    StubFactory,
    service_spec as spec,
    torn_write,
)


def make_scheduler(factory, journal_dir, **kwargs):
    kwargs.setdefault("n_workers", 1)
    return Scheduler(
        registry=object(),
        factory=factory,
        journal=JobJournal(journal_dir),
        **kwargs,
    )


class TestQueuedJobSurvival:
    def test_queued_jobs_requeue_after_crash(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        factory.on("j2", lambda: None)
        # Never start the workers: both jobs die QUEUED with the process.
        crashed = make_scheduler(factory, tmp_path)
        a = crashed.submit(spec("j1"), priority=3)
        b = crashed.submit(spec("j2", budget=7))
        del crashed  # the "crash": no stop(), no drain, nothing flushed

        revived = make_scheduler(factory, tmp_path)
        assert revived.queue.depth == 2
        restored_a = revived.get(a.id)
        assert restored_a.state == JobState.QUEUED
        assert restored_a.priority == 3
        assert restored_a.spec.name == "j1"
        with revived:
            assert revived.wait_idle(timeout=10.0)
        assert revived.get(a.id).state == JobState.DONE
        assert revived.get(b.id).state == JobState.DONE
        assert revived.metrics()["journal"]["recovery"]["requeued"] == 2

    def test_graceful_stop_with_journal_keeps_queued_jobs(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        job = scheduler.submit(spec("j1"))
        scheduler.stop()  # workers never started; no journal → would cancel
        assert job.state == JobState.QUEUED  # durable semantics: kept
        revived = make_scheduler(factory, tmp_path)
        assert revived.get(job.id).state == JobState.QUEUED

    def test_stop_does_not_run_the_backlog(self, tmp_path):
        """With live workers, a journaled non-drain stop must halt the
        queue outright: the backlog may neither run during shutdown nor
        be cancelled — it replays on the next boot."""
        import threading

        factory = StubFactory()
        gate = threading.Event()
        ran = []
        factory.on("gate", gate.wait)
        factory.on("q1", lambda: ran.append("q1"))
        factory.on("q2", lambda: ran.append("q2"))
        scheduler = make_scheduler(factory, tmp_path)
        scheduler.start()
        running = scheduler.submit(spec("gate", budget=7))
        q1 = scheduler.submit(spec("q1", budget=8))
        q2 = scheduler.submit(spec("q2", budget=9))
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        time.sleep(0.1)  # let stop() close the queue first
        gate.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert ran == []  # the backlog never executed
        assert running.state == JobState.DONE  # in-flight ran to completion
        assert q1.state == q2.state == JobState.QUEUED
        revived = make_scheduler(factory, tmp_path)
        assert revived.queue.depth == 2
        with revived:
            assert revived.wait_idle(timeout=10.0)
        assert revived.get(q1.id).state == JobState.DONE
        assert revived.get(q2.id).state == JobState.DONE


class TestRunningJobRetry:
    def _crash_one(self, factory, tmp_path, **kwargs):
        """Run one job into an injected mid-run crash; return the job."""
        crashed = CrashingScheduler(
            registry=object(),
            factory=factory,
            journal=JobJournal(tmp_path),
            crash_after=(1,),
            **kwargs,
        )
        crashed.start()
        job = crashed.submit(spec("victim"))
        # The worker thread dies on SimulatedCrash; the job is left
        # RUNNING in memory and "started" in the journal.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if crashed.backend.calls >= 1 and not any(
                t.is_alive() for t in crashed._threads
            ):
                break
            time.sleep(0.01)
        assert job.state == JobState.RUNNING
        return job

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crashed_running_job_is_retried_once(self, tmp_path):
        factory = StubFactory()
        factory.on("victim", lambda: None)
        job = self._crash_one(factory, tmp_path)

        revived = make_scheduler(factory, tmp_path)
        restored = revived.get(job.id)
        assert restored.state == JobState.QUEUED
        assert restored.retries == 1
        with revived:
            final = revived.wait(job.id, timeout=10.0)
        assert final.state == JobState.DONE
        assert final.retries == 1
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["retried"] == 1
        assert revived.metrics()["retries"]["total"] == 1

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_retry_budget_exhaustion_fails_the_job(self, tmp_path):
        factory = StubFactory()
        factory.on("victim", lambda: None)
        job = self._crash_one(factory, tmp_path)
        # Recover with a zero retry budget: the one crash already spent it.
        revived = make_scheduler(factory, tmp_path, max_retries=0)
        restored = revived.get(job.id)
        assert restored.state == JobState.FAILED
        assert restored.failure_reason == "retry-budget"
        assert "retry budget" in restored.error
        assert revived.queue.depth == 0
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["failed_retry_budget"] == 1
        # ... and the failure is durable: a third scheduler (default
        # budget) must NOT resurrect the terminally failed job.
        third = make_scheduler(factory, tmp_path)
        assert third.get(job.id).state == JobState.FAILED
        assert third.queue.depth == 0

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_retry_count_accumulates_across_crashes(self, tmp_path):
        factory = StubFactory()
        factory.on("victim", lambda: None)
        job = self._crash_one(factory, tmp_path)
        # Second scheduler also crashes the retried run.
        crashed_again = CrashingScheduler(
            registry=object(),
            factory=factory,
            journal=JobJournal(tmp_path),
            crash_before=(1,),
        )
        assert crashed_again.get(job.id).retries == 1
        crashed_again.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if crashed_again.backend.calls >= 1:
                break
            time.sleep(0.01)
        del crashed_again

        revived = make_scheduler(factory, tmp_path)
        restored = revived.get(job.id)
        assert restored.retries == 2  # monotone across replays
        assert restored.state == JobState.QUEUED


class TestTerminalRestoration:
    def test_done_jobs_and_results_survive_restart(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        with scheduler:
            job = scheduler.submit(spec("j1"))
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.DONE

        revived = make_scheduler(factory, tmp_path)
        restored = revived.get(job.id)
        assert restored.state == JobState.DONE
        assert restored.result == job.result  # GET /results still answers
        assert restored.run_seconds == job.run_seconds
        assert revived.queue.depth == 0  # terminal jobs are not requeued
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["restored_terminal"] == 1

    def test_cancelled_job_is_never_resurrected(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        job = scheduler.submit(spec("j1"))  # workers never started
        scheduler.cancel(job.id)
        revived = make_scheduler(factory, tmp_path)
        assert revived.get(job.id).state == JobState.CANCELLED
        assert revived.queue.depth == 0

    def test_failed_job_restores_error_and_reason(self, tmp_path):
        factory = StubFactory()

        def boom():
            raise ValueError("synthetic")

        factory.on("j1", boom)
        scheduler = make_scheduler(factory, tmp_path)
        with scheduler:
            job = scheduler.submit(spec("j1"))
            scheduler.wait(job.id, timeout=10.0)
        revived = make_scheduler(factory, tmp_path)
        restored = revived.get(job.id)
        assert restored.state == JobState.FAILED
        assert "ValueError: synthetic" in restored.error
        assert restored.failure_reason == "error"

    def test_cache_hit_jobs_are_journaled_as_done(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = {"entries": [], "n_valuated": 1,
                  "terminated_by": "budget", "elapsed_seconds": 0.1}
        cache.put(spec("seed"), result, elapsed_seconds=0.1)
        scheduler = Scheduler(
            registry=object(),
            factory=AnythingFactory(),
            result_cache=cache,
            journal=JobJournal(tmp_path / "journal"),
            n_workers=1,
        )
        job = scheduler.submit(spec("renamed"))
        assert job.state == JobState.DONE and job.cache_hit
        revived = Scheduler(
            registry=object(),
            factory=AnythingFactory(),
            journal=JobJournal(tmp_path / "journal"),
            n_workers=1,
        )
        assert revived.get(job.id).state == JobState.DONE

    def test_under_budget_cache_hit_skips_the_peer_scan(self, tmp_path, monkeypatch):
        """A cache-hit submit on an under-budget journal must not pay the
        O(jobs) ``_peer_active`` scan under the scheduler lock."""
        cache = ResultCache(tmp_path / "cache")
        result = {"entries": [], "n_valuated": 1,
                  "terminated_by": "budget", "elapsed_seconds": 0.1}
        cache.put(spec("seed"), result, elapsed_seconds=0.1)
        scheduler = Scheduler(
            registry=object(),
            factory=AnythingFactory(),
            result_cache=cache,
            journal=JobJournal(tmp_path / "journal"),
            n_workers=1,
        )
        scans = []
        monkeypatch.setattr(scheduler, "_peer_active", lambda: scans.append(1))
        for i in range(3):
            assert scheduler.submit(spec(f"hit{i}")).cache_hit
        assert not scheduler.journal.over_budget()
        assert scans == []


class TestReplayDedup:
    def test_follower_relationship_survives_replay(self, tmp_path):
        """A primary and its in-flight follower must not both run after
        a restart — replay re-links duplicates instead of double-pushing."""
        factory = StubFactory()
        runs = []
        factory.on("primary", lambda: runs.append("primary"))
        factory.on("twin", lambda: runs.append("twin"))
        crashed = make_scheduler(factory, tmp_path)  # workers never start
        primary = crashed.submit(spec("primary"))
        twin = crashed.submit(spec("twin"))  # identical fingerprint
        del crashed

        revived = make_scheduler(factory, tmp_path)
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["refollowed"] == 1
        assert revived.queue.depth == 1  # only the primary is queued
        with revived:
            primary = revived.wait(primary.id, timeout=10.0)
            twin = revived.wait(twin.id, timeout=10.0)
        assert runs == ["primary"]  # the twin never executed
        assert primary.state == twin.state == JobState.DONE
        assert twin.deduped and twin.result == primary.result

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_retried_record_is_durable_before_compaction(self, tmp_path):
        """The retry charge is appended as its own record, so a crash
        *during* recovery (before/while compacting) still replays it."""
        factory = StubFactory()
        factory.on("victim", lambda: None)
        crashed = CrashingScheduler(
            registry=object(), factory=factory,
            journal=JobJournal(tmp_path), crash_before=(1,),
        )
        crashed.start()
        job = crashed.submit(spec("victim"))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and crashed.backend.calls < 1:
            time.sleep(0.01)
        del crashed
        # Recovery charges the retry; before its compaction is trusted,
        # the journal must already contain a durable retried record.
        make_scheduler(factory, tmp_path)  # abandoned immediately: "crash"
        summary = JobJournal(tmp_path).replay()
        assert summary.jobs[job.id]["retries"] == 1


class TestSubmitJournalFailure:
    def test_failed_journal_write_unwinds_the_submission(self, tmp_path):
        """A submission the WAL cannot record must not leave a phantom
        job that poisons in-flight dedup for later identical specs."""
        factory = StubFactory()
        factory.on("first", lambda: None)
        factory.on("second", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)

        def broken(job):
            raise OSError("disk full")

        original = scheduler.journal.record_submitted
        scheduler.journal.record_submitted = broken
        with pytest.raises(OSError):
            scheduler.submit(spec("first"))
        assert scheduler.list_jobs() == []  # no zombie record
        assert scheduler.metrics()["jobs_submitted"] == 0
        scheduler.journal.record_submitted = original
        with scheduler:
            # An identical later spec must run normally, not hang as a
            # follower of the phantom.
            job = scheduler.submit(spec("second"))
            job = scheduler.wait(job.id, timeout=10.0)
        assert job.state == JobState.DONE and not job.deduped


class TestTornWrites:
    def test_torn_final_line_is_dropped_silently(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        factory.on("j2", lambda: None)
        crashed = make_scheduler(factory, tmp_path)
        a = crashed.submit(spec("j1"))
        b = crashed.submit(spec("j2", budget=7))
        del crashed
        torn_write(tmp_path)  # crash mid-append of a third record

        revived = make_scheduler(factory, tmp_path)
        assert revived.metrics()["journal"]["recovery"]["torn_tail"] is True
        assert revived.get(a.id).state == JobState.QUEUED
        assert revived.get(b.id).state == JobState.QUEUED
        assert revived.queue.depth == 2

    def test_torn_line_can_eat_a_terminal_record(self, tmp_path):
        """A DONE record torn mid-append never committed — the job must
        replay as RUNNING-at-crash and be retried, not lost."""
        factory = StubFactory()
        factory.on("j1", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        with scheduler:
            job = scheduler.submit(spec("j1"))
            scheduler.wait(job.id, timeout=10.0)
        # Manually tear the terminal record off the (compacted-free)
        # journal: truncate the last complete line to a prefix.
        journal = JobJournal(tmp_path)
        segment = journal.segments()[-1]
        lines = segment.read_text().splitlines(keepends=True)
        assert json.loads(lines[-1])["type"] == "done"
        segment.write_text("".join(lines[:-1]) + lines[-1][:25])

        revived = make_scheduler(factory, tmp_path)
        restored = revived.get(job.id)
        assert restored.state == JobState.QUEUED  # retried, not lost
        assert restored.retries == 1

    def test_append_after_torn_tail_does_not_fuse_records(self, tmp_path):
        """Reopening a torn segment must terminate the partial line first
        — otherwise the next append fuses with it and BOTH are lost."""
        factory = StubFactory()
        factory.on("j1", lambda: None)
        crashed = make_scheduler(factory, tmp_path)
        survivor = crashed.submit(spec("j1"))
        del crashed
        torn_write(tmp_path)
        journal = JobJournal(tmp_path)
        from repro.service.jobs import Job

        fresh = Job(spec=spec("j2", budget=9))
        journal.record_submitted(fresh)  # append lands after the torn line
        journal.close()
        summary = JobJournal(tmp_path).replay()
        assert survivor.id in summary.jobs  # earlier record intact
        assert fresh.id in summary.jobs  # new record not fused away
        assert summary.skipped == 1  # the terminated torn line

    def test_garbage_mid_journal_is_skipped_not_fatal(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        crashed = make_scheduler(factory, tmp_path)
        job = crashed.submit(spec("j1"))
        del crashed
        segment = JobJournal(tmp_path).segments()[-1]
        with segment.open("a") as fh:
            fh.write("%% not json at all %%\n")
            fh.write(json.dumps({"v": JOURNAL_VERSION, "type": "started",
                                 "id": job.id, "ts": 0.0}) + "\n")

        revived = make_scheduler(factory, tmp_path)
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["skipped_lines"] == 1
        restored = revived.get(job.id)
        # The started record after the garbage still applied.
        assert restored.retries == 1
        assert restored.state == JobState.QUEUED


class TestJournalMechanics:
    def test_rotation_splits_segments_and_replays_whole(self, tmp_path):
        # max_segments high: auto-compaction would fold the segments this
        # test exists to observe.
        journal = JobJournal(tmp_path, max_segment_bytes=512,
                             max_segments=1000, fsync=False)
        factory = StubFactory()
        for i in range(8):
            factory.on(f"j{i}", lambda: None)
        scheduler = Scheduler(
            registry=object(), factory=factory, journal=journal,
            n_workers=1,
        )
        with scheduler:
            jobs = [
                scheduler.submit(spec(f"j{i}", budget=6 + i))
                for i in range(8)
            ]
            assert scheduler.wait_idle(timeout=10.0)
        assert len(journal.segments()) > 1  # rotation actually happened
        summary = JobJournal(tmp_path).replay()
        assert len(summary.jobs) == 8
        assert all(
            summary.jobs[j.id]["state"] == JobState.DONE for j in jobs
        )

    def test_compaction_folds_to_one_segment_same_state(self, tmp_path):
        journal = JobJournal(tmp_path, max_segment_bytes=512,
                             max_segments=1000, fsync=False)
        factory = StubFactory()
        for i in range(8):
            factory.on(f"j{i}", lambda: None)
        scheduler = Scheduler(
            registry=object(), factory=factory, journal=journal,
            n_workers=1,
        )
        with scheduler:
            for i in range(8):
                scheduler.submit(spec(f"j{i}", budget=6 + i))
            assert scheduler.wait_idle(timeout=10.0)
        before = JobJournal(tmp_path).replay()
        written = JobJournal(tmp_path).compact()
        after_journal = JobJournal(tmp_path)
        assert len(after_journal.segments()) == 1
        after = after_journal.replay()
        assert written == len(before.jobs)
        assert {
            job_id: snap["state"] for job_id, snap in after.jobs.items()
        } == {
            job_id: snap["state"] for job_id, snap in before.jobs.items()
        }

    def test_recovery_compacts_on_boot(self, tmp_path):
        journal = JobJournal(tmp_path, max_segment_bytes=256, fsync=False)
        factory = StubFactory()
        factory.on("j1", lambda: None)
        crashed = Scheduler(
            registry=object(), factory=factory, journal=journal,
            n_workers=1,
        )
        for _ in range(20):  # same spec: followers, but all journaled
            crashed.submit(spec("j1"))
        del crashed
        make_scheduler(factory, tmp_path)  # recovery compacts
        assert len(JobJournal(tmp_path).segments()) == 1

    def test_maybe_compact_only_past_the_segment_budget(self, tmp_path):
        journal = JobJournal(tmp_path, max_segment_bytes=256,
                            max_segments=2, fsync=False)
        from repro.service.jobs import Job

        jobs = []
        while len(journal.segments()) <= 2:
            job = Job(spec=spec(f"p{len(jobs)}", budget=6 + len(jobs)))
            journal.record_submitted(job)
            jobs.append(job)
        assert journal.maybe_compact() is True
        assert len(journal.segments()) == 1
        assert journal.maybe_compact() is False  # back under budget
        assert len(JobJournal(tmp_path).replay().jobs) == len(jobs)

    def test_unrecoverable_snapshot_is_dropped_not_fatal(
        self, tmp_path, capsys
    ):
        factory = StubFactory()
        factory.on("good", lambda: None)
        crashed = make_scheduler(factory, tmp_path)
        good = crashed.submit(spec("good"))
        del crashed
        segment = JobJournal(tmp_path).segments()[-1]
        with segment.open("a") as fh:
            fh.write(json.dumps({
                "v": JOURNAL_VERSION, "ts": 0.0, "type": "submitted",
                "job": {"id": "job-broken-spec",
                        "spec": {"name": "x", "task": "T3",
                                 "epsilon": -1.0}},  # invalid scenario
            }) + "\n")
        revived = make_scheduler(factory, tmp_path)
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["unrecoverable"] == 1
        assert revived.get(good.id).state == JobState.QUEUED
        # ... and boot did NOT compact: the unreconstructable snapshot
        # stays on disk for a release that can read it.
        summary = JobJournal(tmp_path).replay()
        assert "job-broken-spec" in summary.jobs
        # The offline report predicts the same drop.
        from repro.cli import main

        assert main([
            "recover", "--journal-dir", str(tmp_path), "--dry-run", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        actions = {row["id"]: row["action"] for row in report["jobs"]}
        assert actions == {good.id: "requeue", "job-broken-spec": "drop"}

    def test_unknown_additive_spec_fields_replay_fine(self, tmp_path):
        """The versioning contract: a journal written by a newer release
        with extra spec fields must replay (minus those fields), not
        raise into the unrecoverable bucket."""
        factory = StubFactory()
        factory.on("future", lambda: None)
        journal = JobJournal(tmp_path, fsync=False)
        from repro.service.jobs import Job

        job = Job(spec=spec("future"))
        snapshot = job.to_snapshot()
        snapshot["spec"]["some_future_knob"] = 42
        journal._append({"type": "submitted", "job": snapshot})
        journal.close()
        revived = make_scheduler(factory, tmp_path)
        assert revived.metrics()["journal"]["recovery"]["unrecoverable"] == 0
        assert revived.get(job.id).state == JobState.QUEUED

    def test_snapshot_covers_every_job_field(self):
        """Drift guard: a Job field added to the dataclass but forgotten
        in to_snapshot would be served over HTTP yet silently vanish on
        every replay."""
        from dataclasses import fields

        from repro.service.jobs import Job

        job = Job(spec=spec("drift"))
        snapshot = job.to_snapshot()
        for field in fields(Job):
            assert field.name in snapshot, (
                f"Job.{field.name} missing from to_snapshot()"
            )
        rebuilt = Job.from_snapshot(snapshot)
        assert rebuilt.to_snapshot() == snapshot  # lossless round-trip

    def test_compaction_caps_terminal_history(self, tmp_path):
        """Terminal snapshots are bounded (newest kept, live always
        kept) so journal size and boot replay don't grow with lifetime
        traffic."""
        from repro.service.jobs import Job

        journal = JobJournal(tmp_path, max_terminal_snapshots=3,
                             fsync=False)
        jobs = []
        for i in range(6):
            job = Job(spec=spec(f"t{i}", budget=6 + i))
            job.state = JobState.DONE
            journal.record_submitted(job)
            jobs.append(job)
        live = Job(spec=spec("live", budget=99))
        journal.record_submitted(live)
        journal.compact()
        summary = JobJournal(tmp_path).replay()
        kept = set(summary.jobs)
        assert live.id in kept  # live work is never dropped
        assert kept - {live.id} == {j.id for j in jobs[-3:]}  # newest 3

    def test_newer_version_lines_are_skipped(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        segment_dir = journal.directory
        segment_dir.mkdir(parents=True, exist_ok=True)
        path = segment_dir / "journal-000001.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps({
                "v": JOURNAL_VERSION + 1, "ts": 0.0, "type": "submitted",
                "job": {"id": "job-from-the-future"},
            }) + "\n")
        summary = journal.replay()
        assert summary.jobs == {}
        assert summary.skipped == 1

    def test_compaction_preserves_newer_version_lines(self, tmp_path):
        """Rollback safety: records from a newer format version cannot be
        folded, but compaction must carry them forward verbatim so a
        re-upgraded release can still recover them."""
        from repro.service.jobs import Job

        journal = JobJournal(tmp_path, fsync=False)
        job = Job(spec=spec("current"))
        journal.record_submitted(job)
        future_line = json.dumps({
            "v": JOURNAL_VERSION + 1, "ts": 0.0, "type": "submitted",
            "job": {"id": "job-from-the-future"},
        })
        with journal.segments()[-1].open("a") as fh:
            fh.write(future_line + "\n")
        journal.compact()
        segments = JobJournal(tmp_path).segments()
        assert len(segments) == 1
        content = segments[0].read_text()
        assert '"job-from-the-future"' in content  # carried forward
        summary = JobJournal(tmp_path).replay()
        assert job.id in summary.jobs  # current-version record folded

    def test_empty_directory_replays_empty(self, tmp_path):
        summary = JobJournal(tmp_path / "nonexistent").replay()
        assert summary.jobs == {} and summary.records == 0

    def test_dry_run_inspection_never_writes(self, tmp_path):
        factory = StubFactory()
        factory.on("j1", lambda: None)
        crashed = make_scheduler(factory, tmp_path)
        crashed.submit(spec("j1"))
        del crashed
        before = sorted(
            (p.name, p.stat().st_size) for p in tmp_path.iterdir()
        )
        JobJournal(tmp_path).replay()
        after = sorted(
            (p.name, p.stat().st_size) for p in tmp_path.iterdir()
        )
        assert before == after


class TestRecoverCLI:
    def _seed_journal(self, tmp_path):
        factory = StubFactory()
        factory.on("done-job", lambda: None)
        factory.on("queued-job", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        with scheduler:
            done = scheduler.submit(spec("done-job"))
            scheduler.wait(done.id, timeout=10.0)
        # A second process on the same journal leaves a job queued.
        crashed = make_scheduler(factory, tmp_path)  # workers never start
        queued = crashed.submit(spec("queued-job", budget=9))
        del crashed
        return done, queued

    def test_recover_dry_run_reports_actions(self, tmp_path, capsys):
        from repro.cli import main

        done, queued = self._seed_journal(tmp_path)
        assert main([
            "recover", "--journal-dir", str(tmp_path), "--dry-run", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        actions = {row["id"]: row["action"] for row in report["jobs"]}
        assert actions[done.id] == "keep"
        assert actions[queued.id] == "requeue"
        assert report["actions"]["keep"] == 1
        assert report["actions"]["requeue"] == 1

    def test_recover_dry_run_predicts_shard_parent_remerge(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.service.jobs import Job

        parent = Job(
            spec=spec("sharded"), shards=2, state=JobState.RUNNING, retries=2
        )
        with JobJournal(tmp_path) as journal:
            journal.record_submitted(parent)
        assert main([
            "recover", "--journal-dir", str(tmp_path), "--dry-run", "--json",
            "--max-retries", "2",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        actions = {row["id"]: row["action"] for row in report["jobs"]}
        assert actions == {parent.id: "remerge"}
        # ...which is what a restart does: a re-merge, no retry charged.
        revived = make_scheduler(StubFactory(), tmp_path, max_retries=2)
        recovery = revived.metrics()["journal"]["recovery"]
        assert recovery["shard_parents"] == 1
        assert recovery["failed_retry_budget"] == 0
        assert revived.get(parent.id).state == JobState.QUEUED
        assert revived.get(parent.id).retries == 2

    def test_recover_dry_run_leaves_peer_leased_jobs_alone(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        factory = StubFactory()
        factory.on("j1", lambda: None)
        peer = make_scheduler(
            factory, tmp_path, scheduler_id="sched-a", lease_ttl=300.0
        )
        job = peer.submit(spec("j1"))
        assert main([
            "recover", "--journal-dir", str(tmp_path), "--dry-run", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        actions = {row["id"]: row["action"] for row in report["jobs"]}
        assert actions == {job.id: "peer"}
        assert report["actions"]["requeue"] == 0
        # ...which is what another scheduler on the same journal does.
        observer = make_scheduler(
            factory, tmp_path, scheduler_id="sched-b", lease_ttl=300.0
        )
        assert observer.metrics()["journal"]["recovery"]["remote_leases"] == 1
        assert observer.queue.depth == 0
        del peer

    def test_recover_compacts_and_writes_report(self, tmp_path, capsys):
        from repro.cli import main
        from repro.report import load_recovery_report

        self._seed_journal(tmp_path)
        out = tmp_path / "report"
        assert main([
            "recover", "--journal-dir", str(tmp_path),
            "--output", str(out),
        ]) == 0
        assert len(JobJournal(tmp_path).segments()) == 1
        report = load_recovery_report(out)
        assert report["compacted_records"] == 2

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_recover_flags_running_jobs_by_retry_budget(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        factory = StubFactory()
        factory.on("victim", lambda: None)
        crashed = CrashingScheduler(
            registry=object(), factory=factory,
            journal=JobJournal(tmp_path), crash_before=(1,),
        )
        crashed.start()
        job = crashed.submit(spec("victim"))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and crashed.backend.calls < 1:
            time.sleep(0.01)
        del crashed

        assert main([
            "recover", "--journal-dir", str(tmp_path), "--dry-run",
            "--json", "--max-retries", "0",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        actions = {row["id"]: row["action"] for row in report["jobs"]}
        assert actions[job.id] == "fail-retry-budget"


class TestShutdownDurability:
    def test_rejected_submission_is_not_resurrected(self, tmp_path):
        """queue.push failing after the WAL write must journal the
        cancellation — the submitter saw an error, so a restart may not
        run the job anyway."""
        factory = StubFactory()
        factory.on("late", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        scheduler.queue.close()  # racing shutdown
        with pytest.raises(Exception):
            scheduler.submit(spec("late"))
        rejected = scheduler.list_jobs()[0]
        assert rejected.state == JobState.CANCELLED
        revived = make_scheduler(factory, tmp_path)
        assert revived.get(rejected.id).state == JobState.CANCELLED
        assert revived.queue.depth == 0

    def test_followers_survive_journaled_shutdown_promotion_race(
        self, tmp_path
    ):
        """A follower whose primary fails during shutdown must stay
        QUEUED (and replay) when a journal is attached, not be durably
        cancelled by the failed promotion push."""
        import threading

        factory = StubFactory()
        gate = threading.Event()

        def boom():
            gate.wait()
            raise ValueError("primary dies during shutdown")

        factory.on("primary", boom)
        factory.on("twin", lambda: None)
        scheduler = make_scheduler(factory, tmp_path)
        scheduler.start()
        primary = scheduler.submit(spec("primary"))
        twin = scheduler.submit(spec("twin"))  # identical: follower
        scheduler.queue.close()  # shutdown begins; promotion will fail
        gate.set()
        primary = scheduler.wait(primary.id, timeout=10.0)
        assert primary.state == JobState.FAILED
        assert twin.state == JobState.QUEUED  # kept, not cancelled
        revived = make_scheduler(factory, tmp_path)
        assert revived.get(twin.id).state == JobState.QUEUED
        with revived:
            twin = revived.wait(twin.id, timeout=10.0)
        assert twin.state == JobState.DONE


class TestSimulatedCrashContract:
    def test_simulated_crash_is_not_an_exception(self):
        # The harness depends on this: per-job isolation uses
        # ``except Exception`` and must not be able to catch the crash.
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)
