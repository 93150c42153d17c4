"""Tests for the admission-controlled job engine.

Covers the tentpole robustness properties without HTTP in the way:
bounded admission, byte-identical caching, watchdog-cancelled hangs,
crash retries and quarantine, the overload breaker, graceful drain, and
exactly-once crash recovery through the journal.
"""

import json
import time

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.serve.engine import (
    Degraded,
    Draining,
    EngineConfig,
    JobEngine,
    Overloaded,
)
from repro.serve.report import analyze_report_text, job_id_for, upload_digest
from repro.storage.db import TelemetryStore
from repro.storage.jobs import JobJournal


def _injector(*faults, seed="serve-test"):
    return FaultInjector(plan=FaultPlan(seed=seed, faults=tuple(faults)))


def _config(**overrides):
    defaults = dict(workers=2, backlog=4, job_deadline_s=5.0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def _wait_done(engine, job_id, timeout_s=10.0):
    assert engine.wait(job_id, timeout_s), f"job {job_id} did not finish"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 0),
            ("backlog", 0),
            ("job_deadline_s", 0.0),
            ("quarantine_after", 0),
        ],
    )
    def test_rejects_nonsense(self, field, value):
        with pytest.raises(ValueError):
            EngineConfig(**{field: value})


class TestAnalysis:
    def test_submit_produces_canonical_report(self, local_upload):
        with JobEngine(_config()) as engine:
            job_id, cached = engine.submit(local_upload)
            assert cached is None
            assert job_id == job_id_for(upload_digest(local_upload))
            _wait_done(engine, job_id)
            assert engine.report_for(job_id) == analyze_report_text(
                local_upload
            )
            assert engine.job_status(job_id)["state"] == "done"

    def test_repeat_submission_is_cached_and_identical(self, local_upload):
        with JobEngine(_config()) as engine:
            job_id, _ = engine.submit(local_upload)
            _wait_done(engine, job_id)
            first = engine.report_for(job_id)
            again, cached = engine.submit(local_upload)
            assert again == job_id
            assert cached == first

    def test_invalid_upload_fails_terminally(self):
        with JobEngine(_config()) as engine:
            job_id, _ = engine.submit(b'{"not": "a netlog"}')
            _wait_done(engine, job_id)
            status = engine.job_status(job_id)
            assert status["state"] == "failed"
            assert "NetLog" in status["error"]
            assert engine.report_for(job_id) is None
            # Resubmitting the same poison bytes replays the verdict.
            again, cached = engine.submit(b'{"not": "a netlog"}')
            assert again == job_id and cached is None
            assert engine.job_status(job_id)["state"] == "failed"

    def test_unreadable_phase_is_analyzed_not_quarantined(self):
        # A record whose phase is null once escaped the record rules as a
        # TypeError: each such upload was quarantined as a crashing job,
        # and two of them opened the breaker for every client.
        config = _config(workers=1, quarantine_after=2, breaker_threshold=2)
        with JobEngine(config) as engine:
            for time_value in (1.0, 2.0):
                upload = json.dumps(
                    {
                        "events": [
                            {
                                "time": time_value,
                                "type": 1,
                                "source": {"id": 1, "type": 1},
                                "phase": None,
                            }
                        ]
                    }
                ).encode()
                job_id, _ = engine.submit(upload)
                _wait_done(engine, job_id)
                assert engine.job_status(job_id)["state"] == "done"
                assert engine.report_for(job_id) == analyze_report_text(upload)
            assert not engine.degraded

    @pytest.mark.parametrize(
        "constants", [[1], {"logEventTypes": [1]}], ids=["block", "table"]
    )
    def test_name_table_not_an_object_is_analyzed_not_quarantined(
        self, constants
    ):
        # A constants block or name table that is not an object once
        # escaped the parser as an AttributeError: each such upload was
        # quarantined as a crashing job and charged to the breaker.
        config = _config(workers=1, quarantine_after=2, breaker_threshold=2)
        with JobEngine(config) as engine:
            for time_value in (1.0, 2.0):
                upload = json.dumps(
                    {
                        "constants": constants,
                        "events": [
                            {
                                "time": time_value,
                                "type": "X",
                                "source": {"id": 1, "type": 1},
                                "phase": 1,
                            }
                        ],
                    }
                ).encode()
                job_id, _ = engine.submit(upload)
                _wait_done(engine, job_id)
                assert engine.job_status(job_id)["state"] == "done"
                assert engine.report_for(job_id) == analyze_report_text(upload)
            assert not engine.degraded

    def test_torn_upload_report_matches_batch(self, local_upload):
        torn = local_upload[: int(len(local_upload) * 0.65)]
        with JobEngine(_config()) as engine:
            job_id, _ = engine.submit(torn)
            _wait_done(engine, job_id)
            assert engine.report_for(job_id) == analyze_report_text(torn)


class TestAdmission:
    def test_overload_rejects_with_retry_hint(self, corpus):
        engine = JobEngine(_config(workers=1, backlog=1))
        # Not started: nothing consumes the queue, so admission fills.
        engine.submit(corpus[0][1])
        with pytest.raises(Overloaded) as excinfo:
            engine.submit(corpus[1][1])
        assert 1 <= excinfo.value.retry_after_s <= 60

    def test_coalesces_inflight_duplicate(self, local_upload):
        engine = JobEngine(_config())
        first, _ = engine.submit(local_upload)
        second, cached = engine.submit(local_upload)
        assert first == second and cached is None
        assert engine.stats()["queue_depth"] == 1

    def test_draining_rejects_new_but_serves_cache(self, corpus):
        engine = JobEngine(_config())
        engine.start()
        job_id, _ = engine.submit(corpus[0][1])
        _wait_done(engine, job_id)
        assert engine.drain(timeout_s=10.0)
        with pytest.raises(Draining):
            engine.submit(corpus[1][1])
        _, cached = engine.submit(corpus[0][1])
        assert cached == corpus[0][2]
        assert not engine.ready


class TestFaultTolerance:
    def test_worker_crash_is_retried_to_success(self, local_upload):
        injector = _injector(
            FaultSpec(kind=FaultKind.WORKER_CRASH, rate=1.0, times=1)
        )
        with JobEngine(_config(), injector=injector) as engine:
            job_id, _ = engine.submit(local_upload)
            _wait_done(engine, job_id)
            status = engine.job_status(job_id)
            assert status["state"] == "done"
            assert status["attempts"] == 2
            assert engine.report_for(job_id) == analyze_report_text(
                local_upload
            )
        assert injector.injected[FaultKind.WORKER_CRASH] == 1

    def test_deep_crash_quarantines(self, local_upload):
        injector = _injector(
            FaultSpec(kind=FaultKind.WORKER_CRASH, rate=1.0, times=10)
        )
        config = _config(quarantine_after=2, breaker_threshold=100)
        with JobEngine(config, injector=injector) as engine:
            job_id, _ = engine.submit(local_upload)
            _wait_done(engine, job_id)
            status = engine.job_status(job_id)
            assert status["state"] == "quarantined"
            assert status["attempts"] == 2

    def test_hang_is_cancelled_by_watchdog_then_succeeds(self, local_upload):
        injector = _injector(
            FaultSpec(kind=FaultKind.HANG, rate=1.0, times=1)
        )
        config = _config(workers=1, job_deadline_s=0.3, breaker_threshold=100)
        with JobEngine(config, injector=injector) as engine:
            job_id, _ = engine.submit(local_upload)
            _wait_done(engine, job_id, timeout_s=15.0)
            status = engine.job_status(job_id)
            assert status["state"] == "done"
            assert status["attempts"] == 2
        assert injector.injected[FaultKind.HANG] == 1

    def test_breaker_degrades_then_recovers(self, corpus):
        injector = _injector(
            FaultSpec(kind=FaultKind.WORKER_CRASH, rate=1.0, times=10)
        )
        config = _config(
            workers=1,
            quarantine_after=2,
            breaker_threshold=2,
            breaker_cooldown_s=0.2,
        )
        with JobEngine(config, injector=injector) as engine:
            poison_id, _ = engine.submit(corpus[0][1])
            _wait_done(engine, poison_id)
            assert engine.degraded
            with pytest.raises(Degraded) as excinfo:
                engine.submit(corpus[1][1])
            assert excinfo.value.retry_after_s >= 1
            # Past the cooldown the breaker half-opens; a clean upload
            # (different digest: the crash spec strikes per key, and this
            # key's budget is untouched but rate=1.0 selects it too) ...
            time.sleep(0.25)
            assert not engine.degraded

    def test_journal_disk_full_degrades_durability_not_answers(
        self, local_upload
    ):
        injector = _injector(
            FaultSpec(kind=FaultKind.JOURNAL_DISK_FULL, rate=1.0, times=100)
        )
        with TelemetryStore() as store:
            journal = JobJournal(
                store, write_fault_hook=injector.journal_write_hook
            )
            with JobEngine(_config(), journal=journal) as engine:
                job_id, _ = engine.submit(local_upload)
                _wait_done(engine, job_id)
                assert engine.report_for(job_id) == analyze_report_text(
                    local_upload
                )
                assert engine.stats()["journal_errors"] > 0
            # Nothing was journalled — the disk was "full" throughout.
            assert journal.get(job_id) is None


class TestCrashRecovery:
    def _engine(self, store, spool, **overrides):
        journal = JobJournal(store)
        return JobEngine(
            _config(**overrides), journal=journal, spool_dir=str(spool)
        )

    def test_resume_requeues_interrupted_jobs_exactly_once(
        self, tmp_path, local_upload
    ):
        path = str(tmp_path / "serve.sqlite")
        spool = tmp_path / "spool"
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            job_id, _ = engine.submit(local_upload)
            # Simulate SIGKILL mid-analysis: the journal says running,
            # no clean shutdown ever happened.
            engine.journal.mark_running(job_id, now=time.time())
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            recovered, cached = engine.resume()
            assert (recovered, cached) == (1, 0)
            row = engine.journal.get(job_id)
            assert row.state == "queued"
            assert row.error == "recovered after restart"
            engine.start()
            _wait_done(engine, job_id)
            status = engine.job_status(job_id)
            assert status["state"] == "done"
            # attempts: 1 (interrupted) + 1 (recovery) — exactly once more.
            assert status["attempts"] == 2
            assert engine.report_for(job_id) == analyze_report_text(
                local_upload
            )
            engine.drain(timeout_s=10.0)

    def test_resume_warms_cache_from_done_rows(self, tmp_path, local_upload):
        path = str(tmp_path / "serve.sqlite")
        spool = tmp_path / "spool"
        expected = analyze_report_text(local_upload)
        with TelemetryStore(path, serialized=True) as store:
            with self._engine(store, spool) as engine:
                job_id, _ = engine.submit(local_upload)
                _wait_done(engine, job_id)
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            recovered, cached = engine.resume()
            assert (recovered, cached) == (0, 1)
            # Served from the warmed cache without any worker running.
            again, report = engine.submit(local_upload)
            assert again == job_id
            assert report == expected

    def test_lost_spool_fails_the_job_explicitly(self, tmp_path, local_upload):
        path = str(tmp_path / "serve.sqlite")
        spool = tmp_path / "spool"
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            job_id, _ = engine.submit(local_upload)
        for file in spool.iterdir():
            file.unlink()
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            recovered, _ = engine.resume()
            assert recovered == 0
            status = engine.job_status(job_id)
            assert status["state"] == "failed"
            assert "spool lost" in status["error"]

    def test_resupplied_bytes_resurrect_a_spool_lost_job(
        self, tmp_path, local_upload
    ):
        """Spool loss is an infra failure, not a verdict: a fresh POST
        of the same bytes re-runs the job instead of replaying 422."""
        path = str(tmp_path / "serve.sqlite")
        spool = tmp_path / "spool"
        expected = analyze_report_text(local_upload)
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            job_id, _ = engine.submit(local_upload)
        for file in spool.iterdir():
            file.unlink()
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool)
            engine.resume()
            engine.start()
            try:
                assert engine.job_status(job_id)["state"] == "failed"
                again, cached = engine.submit(local_upload)
                assert (again, cached) == (job_id, None)
                _wait_done(engine, job_id)
                assert engine.report_for(job_id) == expected
            finally:
                engine.drain(timeout_s=10.0)
            assert JobJournal(store).get(job_id).state == "done"

    def test_drain_leaves_queued_jobs_recoverable(self, tmp_path, corpus):
        path = str(tmp_path / "serve.sqlite")
        spool = tmp_path / "spool"
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool, workers=1)
            # Never started: both jobs stay queued in the journal.
            for _, body, _ in corpus[:2]:
                engine.submit(body)
            assert engine.drain(timeout_s=5.0)
        with TelemetryStore(path, serialized=True) as store:
            engine = self._engine(store, spool, workers=1)
            recovered, _ = engine.resume()
            assert recovered == 2
            engine.start()
            for _, body, expected in corpus[:2]:
                job_id = job_id_for(upload_digest(body))
                _wait_done(engine, job_id)
                assert engine.report_for(job_id) == expected
            engine.drain(timeout_s=10.0)
