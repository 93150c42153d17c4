"""Tests for campaigns persisting telemetry to the store."""

import itertools
import os
import signal
import time

import pytest

from repro.crawler.campaign import Campaign
from repro.crawler.executor import ExecutorConfig
from repro.crawler.retry import RetryPolicy
from repro.netlog.archive import NetLogArchive
from repro.netlog.placer import ArchiveWriterError
from repro.storage.db import TelemetryStore
from repro.storage.integrity import FsckKind, fsck
from repro.web.population import build_top_population


class TestCampaignStorage:
    def test_visits_and_local_requests_persisted(self):
        population = build_top_population(2020, scale=0.002)
        with TelemetryStore() as store:
            result = Campaign(store=store).run(population)
            # One visit row per (site, OS).
            assert store.visit_count("top2020") == len(population) * 3

            stored_localhost = set(
                store.domains_with_local_activity("top2020", "localhost")
            )
            measured_localhost = {
                f.domain for f in result.findings if f.has_localhost_activity
            }
            assert stored_localhost == measured_localhost

            stored_lan = set(
                store.domains_with_local_activity("top2020", "lan")
            )
            measured_lan = {
                f.domain for f in result.findings if f.has_lan_activity
            }
            assert stored_lan == measured_lan

    def test_stored_success_counts_match_stats(self):
        population = build_top_population(2020, scale=0.002)
        with TelemetryStore() as store:
            result = Campaign(store=store).run(population)
            stored = store.success_counts("top2020")
            for os_name, stats in result.stats.items():
                assert stored[os_name] == (stats.successes, stats.failures)

    def test_stored_requests_queryable_per_site(self):
        population = build_top_population(2020, scale=0.002)
        with TelemetryStore() as store:
            Campaign(store=store).run(population)
            rows = store.local_requests_for("top2020", "ebay.com")
            assert len(rows) == 14  # the ThreatMetrix scan, Windows only
            assert all(row.scheme == "wss" for row in rows)
            assert all(row.os_name == "windows" for row in rows)


# -- the archive barrier: no row committed before its document ---------------


class _BarrierCheckingStore(TelemetryStore):
    """Checks, after every commit, that each committed successful,
    non-skipped visit has its archive document on disk."""

    def __init__(self, path: str, archive: NetLogArchive, **kwargs) -> None:
        super().__init__(path, **kwargs)
        self.archive = archive
        self.commits = 0
        self.checked: set[tuple[str, str, str]] = set()
        self.violations: list[tuple[str, str, str]] = []

    def _timed_commit(self, kind: str) -> None:
        super()._timed_commit(kind)
        self.commits += 1
        rows = self.connection.execute(
            "SELECT crawl, os_name, domain FROM visits "
            "WHERE success = 1 AND skipped = 0"
        ).fetchall()
        for row in rows:
            if row in self.checked:
                continue
            self.checked.add(row)
            if not self.archive.exists(*row):
                self.violations.append(row)


@pytest.mark.parametrize("workers", [0, 2])
def test_no_row_committed_before_its_archive_document(tmp_path, workers):
    population = build_top_population(2020, scale=0.005)
    archive = NetLogArchive(tmp_path / "netlogs")
    # In memory: a commit costs no fsync, so a document still in flight
    # when its row commits would be caught.
    store = _BarrierCheckingStore(
        ":memory:",
        archive,
        serialized=bool(workers),
        commit_every=10 if workers else 0,
    )
    with store:
        result = Campaign(
            store=store,
            netlog_archive=archive,
            checkpoint_every=0 if workers else 10,
            executor=ExecutorConfig(workers=workers) if workers else None,
        ).run(population)
        assert store.violations == []
        assert store.commits >= len(population) * 3 // 10
        assert len(store.checked) == result.total_successes


# -- failure accounting -------------------------------------------------------


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_unplaceable_document_is_one_failure_and_one_hole(
    tmp_path, max_attempts
):
    """A document the file system refuses counts once, the row stays,
    and fsck reports exactly that visit's missing archive."""
    population = build_top_population(2020, scale=0.002)
    archive = NetLogArchive(tmp_path / "netlogs")
    blocked = archive.path_for("top2020", "windows", "ebay.com", format="json")
    blocked.with_name(blocked.name + ".tmp").mkdir(parents=True)
    with TelemetryStore(str(tmp_path / "crawl.db")) as store:
        campaign = Campaign(
            store=store,
            netlog_archive=archive,
            retry_policy=RetryPolicy(max_attempts=max_attempts),
            netlog_format="json",
        )
        campaign.run(population)
        assert campaign.archive_failures == 1
        assert store.visit_count("top2020") == len(population) * 3
        report = fsck(store, archive)
    assert [
        (finding.kind, finding.os_name, finding.domain)
        for finding in report.findings
    ] == [(FsckKind.MISSING_ARCHIVE, "windows", "ebay.com")]


def _wait_until_dead(pid: int, timeout_s: float = 10.0) -> None:
    """Poll until ``pid`` is a zombie (or gone), without reaping it."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fp:
                state = fp.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.001)
    raise AssertionError(f"pid {pid} survived SIGKILL for {timeout_s} s")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to watch the writer"
)
@pytest.mark.parametrize("workers", [0, 2])
def test_killed_writer_raises_and_leaves_rows_uncommitted(
    tmp_path, monkeypatch, workers
):
    """SIGKILL the writer mid-run: the campaign raises a non-OSError,
    only rows up to the last barrier are committed (also by a batched
    store's close), and a resumed run leaves a clean archive."""
    population = build_top_population(2020, scale=0.002)
    db = str(tmp_path / "crawl.db")
    archive = NetLogArchive(tmp_path / "netlogs")
    original = TelemetryStore.record_visit
    recorded = itertools.count(1)

    def record_then_kill(self, *args, **kwargs):
        visit_id = original(self, *args, **kwargs)
        if next(recorded) == 45:
            pid = archive.writer_pid
            os.kill(pid, signal.SIGKILL)
            _wait_until_dead(pid)
        return visit_id

    def campaign(store: TelemetryStore) -> Campaign:
        return Campaign(
            store=store,
            netlog_archive=archive,
            checkpoint_every=0 if workers else 10,
            executor=ExecutorConfig(workers=workers) if workers else None,
        )

    def open_store() -> TelemetryStore:
        return TelemetryStore(
            db, serialized=bool(workers), commit_every=10 if workers else 0
        )

    monkeypatch.setattr(TelemetryStore, "record_visit", record_then_kill)
    store = open_store()
    with pytest.raises(ArchiveWriterError) as raised:
        campaign(store).run(population)
    assert not isinstance(raised.value, OSError)
    store.close()
    monkeypatch.undo()

    with open_store() as store:
        assert store.visit_count("top2020") == 40
        campaign(store).run(population, resume=True)
        assert store.visit_count("top2020") == len(population) * 3
        report = fsck(store, archive)
    assert report.clean, [finding.detail for finding in report.findings]
