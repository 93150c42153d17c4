"""Shutdown equivalence: a supervised campaign killed mid-run — by a
real SIGINT, a programmatic drain, or an injected hard crash — resumes
from its checkpoint store to results fingerprint-identical to an
uninterrupted run, at several worker counts."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.crawler.executor import (
    CampaignInterrupted,
    ExecutorConfig,
    drain_on_signals,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, InjectedCrashError
from repro.storage.db import TelemetryStore
from repro.storage.integrity import campaign_digest
from repro.web.population import build_top_population

SCALE = 0.002

#: Campaign digest of a fault-free serial top2020 crawl at scale 0.01.
SERIAL_DIGEST_AT_001 = (
    "c95104ad0f6eee4834b9bf43df36c05d114b518b09f525a95db56ed609aab4fb"
)

FAST = dict(
    wall_deadline_s=0.1,
    quarantine_after=3,
)


def _population():
    return build_top_population(2020, scale=SCALE)


def _table1(result):
    return {
        os_name: (stats.successes, stats.failures, dict(stats.errors or {}))
        for os_name, stats in result.stats.items()
    }


def _fingerprints(result):
    return [finding_fingerprint(finding) for finding in result.findings]


def _config(workers, handle_signals=False):
    return ExecutorConfig(
        workers=workers, handle_signals=handle_signals, **FAST
    )


def _interrupt_after(monkeypatch, visits, trigger):
    """Arm ``trigger()`` to fire once, after the Nth persisted visit."""
    original = TelemetryStore.record_visit
    state = {"count": 0, "fired": False}

    def counting(self, *args, **kwargs):
        visit_id = original(self, *args, **kwargs)
        state["count"] += 1
        if state["count"] == visits and not state["fired"]:
            state["fired"] = True
            trigger()
        return visit_id

    # The wrapper is inert once fired, so it can stay installed for the
    # resumed run (monkeypatch undoes it when the test ends).
    monkeypatch.setattr(TelemetryStore, "record_visit", counting)
    return state


@pytest.mark.parametrize("workers", [1, 4])
def test_drain_then_resume_matches_uninterrupted(
    monkeypatch, workers
):
    """A programmatic drain request (the signal handler's effect)."""
    population = _population()
    uninterrupted = Campaign(executor=_config(workers)).run(population)

    store = TelemetryStore(serialized=True)
    draining = Campaign(store=store, executor=_config(workers))
    # Request the drain from inside the run, as a delivered signal would.
    state = _interrupt_after(
        monkeypatch, 50, lambda: draining.last_executor.request_drain()
    )
    with pytest.raises(CampaignInterrupted):
        draining.run(population)
    assert state["fired"]
    assert draining.last_executor.stats.drained

    # The drain flushed its checkpoints: something persisted, not all.
    persisted = len(store.visits(population.name))
    assert 0 < persisted < len(population) * 3

    resumed = Campaign(store=store, executor=_config(workers)).run(
        population, resume=True
    )
    assert _table1(resumed) == _table1(uninterrupted)
    assert _fingerprints(resumed) == _fingerprints(uninterrupted)
    assert len(store.visits(population.name)) == len(population) * 3


@pytest.mark.parametrize("workers", [1, 4])
def test_sigint_then_resume_matches_uninterrupted(monkeypatch, workers):
    """A real SIGINT delivered mid-run (the installed handler drains)."""
    population = _population()
    uninterrupted = Campaign(executor=_config(workers)).run(population)

    store = TelemetryStore(serialized=True)
    state = _interrupt_after(
        monkeypatch, 50, lambda: signal.raise_signal(signal.SIGINT)
    )
    before = signal.getsignal(signal.SIGINT)
    with pytest.raises(CampaignInterrupted):
        Campaign(
            store=store, executor=_config(workers, handle_signals=True)
        ).run(population)
    assert state["fired"]
    # supervise() restored the previous SIGINT disposition on exit.
    assert signal.getsignal(signal.SIGINT) is before

    resumed = Campaign(store=store, executor=_config(workers)).run(
        population, resume=True
    )
    assert _table1(resumed) == _table1(uninterrupted)
    assert _fingerprints(resumed) == _fingerprints(uninterrupted)


@pytest.mark.slow
@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_process_group_signal_drains_then_resume_is_clean(tmp_path, signum):
    """A signal to the whole process group (a terminal's Ctrl-C, a
    supervisor's killpg) reaches the archive writer too.  The writer
    keeps placing documents while the study drains through it: exit
    130, ``--resume`` finishes, and fsck is clean with the serial
    campaign's digest."""
    scale = 0.01
    db = str(tmp_path / "crawl.db")
    netlogs = tmp_path / "netlogs"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    command = [
        sys.executable, "-m", "repro.cli", "study",
        "--population", "top2020", "--scale", str(scale),
        "--workers", "2", "--db", db, "--netlog-dir", str(netlogs),
    ]
    process = subprocess.Popen(
        command, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    while not (netlogs.is_dir() and any(netlogs.rglob("*.json"))):
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            pytest.fail(f"no archive document appeared: {process.communicate()}")
        time.sleep(0.01)
    os.killpg(process.pid, signum)
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 130, (stdout, stderr)

    resumed = subprocess.run(
        command + ["--resume"], env=env,
        capture_output=True, text=True, timeout=240,
    )
    assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)

    with TelemetryStore(str(tmp_path / "serial.db")) as store:
        Campaign(store=store).run(build_top_population(2020, scale=scale))
        expected = campaign_digest(store, "top2020")
    audit = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "fsck",
            "--db", db, "--netlog-dir", str(netlogs),
        ],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert audit.returncode == 0, (audit.stdout, audit.stderr)
    assert f"campaign digest top2020: {expected}" in audit.stdout


@pytest.mark.slow
@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_serial_process_group_signal_drains_then_resume_is_clean(
    tmp_path, signum
):
    """The same process-group signal without ``--workers``: a serial
    study is the same supervised loop, so it drains too — exit 130, not
    a ``KeyboardInterrupt`` traceback or a kill — and ``--resume``
    finishes to a clean fsck with the serial campaign's digest."""
    scale = 0.01
    db = str(tmp_path / "crawl.db")
    netlogs = tmp_path / "netlogs"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    command = [
        sys.executable, "-m", "repro.cli", "study",
        "--population", "top2020", "--scale", str(scale),
        "--db", db, "--netlog-dir", str(netlogs),
    ]
    process = subprocess.Popen(
        command, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    while not (netlogs.is_dir() and any(netlogs.rglob("*.json"))):
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            pytest.fail(f"no archive document appeared: {process.communicate()}")
        time.sleep(0.01)
    os.killpg(process.pid, signum)
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 130, (stdout, stderr)
    assert "interrupted: campaign drained after signal" in stderr

    resumed = subprocess.run(
        command + ["--resume"], env=env,
        capture_output=True, text=True, timeout=240,
    )
    assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)

    audit = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "fsck",
            "--db", db, "--netlog-dir", str(netlogs),
        ],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert audit.returncode == 0, (audit.stdout, audit.stderr)
    assert f"campaign digest top2020: {SERIAL_DIGEST_AT_001}" in audit.stdout


@pytest.mark.parametrize("workers", [1, 4])
def test_injected_crash_then_resume_matches_uninterrupted(workers):
    """A scheduled hard crash partway into the second OS pass."""
    population = _population()
    crash_at = len(population) + 5
    plan = FaultPlan(
        seed="shutdown-test",
        faults=(FaultSpec(kind=FaultKind.CRASH, at_count=crash_at),),
    )
    uninterrupted = Campaign(executor=_config(workers)).run(population)

    store = TelemetryStore(serialized=True)
    with pytest.raises(InjectedCrashError):
        Campaign(
            fault_plan=plan, store=store, executor=_config(workers)
        ).run(population)
    # The crashed visit itself left no trace (it was never dispatched).
    assert len(store.visits(population.name)) == crash_at - 1

    resumed = Campaign(
        fault_plan=plan.without(FaultKind.CRASH),
        store=store,
        executor=_config(workers),
    ).run(population, resume=True)
    assert _table1(resumed) == _table1(uninterrupted)
    assert _fingerprints(resumed) == _fingerprints(uninterrupted)
    assert len(store.visits(population.name)) == len(population) * 3


class TestDrainOnSignals:
    """The one SIGINT/SIGTERM drain the executor, the fabric coordinator
    and ``repro serve`` install."""

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_signal_in_block_calls_back_then_handler_is_restored(self, signum):
        calls = []
        before = signal.getsignal(signum)
        with drain_on_signals(lambda: calls.append(signum)):
            signal.raise_signal(signum)
        assert calls == [signum]
        assert signal.getsignal(signum) is before

    def test_off_the_main_thread_it_does_nothing(self):
        before = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        seen = {}

        def enter():
            with drain_on_signals(lambda: None):
                seen.update(
                    (signum, signal.getsignal(signum)) for signum in before
                )

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen == before
