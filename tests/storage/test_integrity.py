"""Data-integrity subsystem: digests, fsck detection, tiered repair."""

import json
import shutil

import pytest

from repro.crawler.campaign import Campaign, finding_fingerprint
from repro.netlog import NetLogArchive
from repro.storage import TelemetryStore
from repro.storage.integrity import (
    FsckKind,
    campaign_digest,
    fsck,
    population_revisiter,
    visit_digest,
)
from repro.web.population import build_top_population

SCALE = 0.004


@pytest.fixture(scope="module")
def population():
    return build_top_population(2020, scale=SCALE)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory, population):
    """One archived fault-free campaign, shared read-only as a baseline."""
    root = tmp_path_factory.mktemp("clean")
    store = TelemetryStore(str(root / "telemetry.db"))
    archive = NetLogArchive(root / "netlogs")
    campaign = Campaign(store=store, netlog_archive=archive)
    result = campaign.run(population)
    store.commit()
    return store, archive, result


@pytest.fixture
def damaged_run(tmp_path, population):
    """A fresh archived campaign the test may corrupt at will."""
    store = TelemetryStore(str(tmp_path / "telemetry.db"))
    archive = NetLogArchive(tmp_path / "netlogs")
    campaign = Campaign(store=store, netlog_archive=archive)
    result = campaign.run(population)
    store.commit()
    return store, archive, result


def _first_active_visit(store, crawl):
    return store.connection.execute(
        "SELECT visit_id, domain, os_name FROM visits "
        "WHERE crawl = ? AND request_count > 0 ORDER BY visit_id LIMIT 1",
        (crawl,),
    ).fetchone()


class TestVisitDigest:
    def test_deterministic(self):
        kwargs = dict(
            crawl="c", domain="d.com", os_name="windows", success=1,
            error=0, rank=3, category=None, skipped=0,
            page_load_time=100.0, total_flows=2,
            requests=[("localhost", "http", "h", 80, "/", 1.0, 0, "GET", None)],
        )
        assert visit_digest(**kwargs) == visit_digest(**kwargs)

    def test_sensitive_to_every_row_field(self):
        base = dict(
            crawl="c", domain="d.com", os_name="windows", success=1,
            error=0, rank=3, category=None, skipped=0,
            page_load_time=100.0, total_flows=2, requests=[],
        )
        reference = visit_digest(**base)
        for key, value in [
            ("success", 0), ("error", -105), ("rank", 4),
            ("category", "malware"), ("skipped", 1),
            ("page_load_time", 99.0), ("total_flows", 3),
        ]:
            assert visit_digest(**{**base, key: value}) != reference

    def test_request_order_insensitive(self):
        r1 = ("localhost", "http", "a", 80, "/", 1.0, 0, "GET", None)
        r2 = ("localhost", "ws", "b", 81, "/", 2.0, 0, "GET", None)
        base = dict(
            crawl="c", domain="d.com", os_name="windows", success=1,
            error=0, rank=3, category=None, skipped=0,
            page_load_time=100.0, total_flows=2,
        )
        assert visit_digest(**base, requests=[r1, r2]) == visit_digest(
            **base, requests=[r2, r1]
        )

    def test_store_writes_matching_digest(self, clean_run):
        store, _, _ = clean_run
        row = store.connection.execute(
            "SELECT crawl, domain, os_name, success, error, rank, category, "
            "skipped, page_load_time, total_flows, digest, visit_id "
            "FROM visits WHERE request_count > 0 LIMIT 1"
        ).fetchone()
        requests = store.connection.execute(
            "SELECT locality, scheme, host, port, path, time, via_redirect, "
            "method, initiator FROM local_requests WHERE visit_id = ?",
            (row[11],),
        ).fetchall()
        assert row[10] == visit_digest(
            crawl=row[0], domain=row[1], os_name=row[2], success=row[3],
            error=row[4], rank=row[5], category=row[6], skipped=row[7],
            page_load_time=row[8], total_flows=row[9], requests=requests,
        )


class TestFsckDetection:
    def test_clean_run_is_clean(self, clean_run):
        store, archive, _ = clean_run
        report = fsck(store, archive)
        assert report.clean and report.ok
        assert report.scanned_visits > 0
        assert report.scanned_archives > 0

    def test_detects_digest_mismatch(self, damaged_run, population):
        store, archive, _ = damaged_run
        _, domain, os_name = _first_active_visit(store, population.name)
        store.connection.execute(
            "UPDATE visits SET rank = rank + 1 WHERE domain = ? AND os_name = ?",
            (domain, os_name),
        )
        store.commit()
        report = fsck(store, archive)
        findings = report.findings_of(FsckKind.DIGEST_MISMATCH)
        assert [(f.domain, f.os_name) for f in findings] == [(domain, os_name)]
        assert not report.ok

    def test_detects_half_committed_batch(self, damaged_run, population):
        store, archive, _ = damaged_run
        visit_id, domain, _ = _first_active_visit(store, population.name)
        store.connection.execute(
            "DELETE FROM local_requests WHERE rowid = (SELECT rowid FROM "
            "local_requests WHERE visit_id = ? LIMIT 1)",
            (visit_id,),
        )
        store.commit()
        report = fsck(store, archive)
        assert [f.domain for f in report.findings_of(FsckKind.HALF_COMMITTED)] == [
            domain
        ]

    def test_detects_orphaned_rows(self, damaged_run, population):
        store, archive, _ = damaged_run
        visit_id, _, _ = _first_active_visit(store, population.name)
        store.connection.execute(
            "DELETE FROM visits WHERE visit_id = ?", (visit_id,)
        )
        store.commit()
        report = fsck(store, archive)
        kinds = {f.kind for f in report.findings}
        assert FsckKind.ORPHANED_ROWS in kinds
        # The archived document for the deleted row is now parentless too.
        assert FsckKind.ORPHANED_ARCHIVE in kinds

    def test_detects_archive_damage_and_missing(self, damaged_run, population):
        store, archive, _ = damaged_run
        docs = list(archive.entries(population.name))
        # Bit-rot one document in place, remove another entirely.  The
        # flip hits the middle byte of the largest document, which lies
        # in its event records in either format (a binary document's
        # header frame is over half of a small one).
        rotten = max(docs, key=lambda path: path.stat().st_size)
        missing = docs[0] if docs[0] != rotten else docs[1]
        data = bytearray(rotten.read_bytes())
        data[len(data) // 2] ^= 0x01
        rotten.write_bytes(bytes(data))
        missing.unlink()
        report = fsck(store, archive)
        assert [f.domain for f in report.findings_of(FsckKind.ARCHIVE_DAMAGE)] == [
            rotten.stem
        ]
        assert [f.domain for f in report.findings_of(FsckKind.MISSING_ARCHIVE)] == [
            missing.stem
        ]

    @pytest.mark.parametrize(
        "shape",
        ['{"events": [1, 2, {"a": 1}]}', "{}", '{"events": 5}', '{"constants": {}}'],
    )
    def test_non_netlog_document_is_archive_damage(
        self, clean_run, population, tmp_path, shape
    ):
        # A file that is not a NetLog document must neither abort the
        # audit nor verify clean: it is damage to exactly that visit.
        store, archive, _ = clean_run
        copy = NetLogArchive(shutil.copytree(archive.root, tmp_path / "netlogs"))
        docs = list(copy.entries(population.name))
        victim = docs[0]
        victim.write_text(shape)
        report = fsck(store, copy)
        assert [(f.kind, f.os_name, f.domain) for f in report.findings] == [
            (FsckKind.ARCHIVE_DAMAGE, victim.parent.name, victim.stem)
        ]
        assert report.scanned_archives == len(docs)

    def test_directory_named_like_a_document_is_not_listed(
        self, clean_run, population, tmp_path
    ):
        # Only regular files are documents: a folder whose name ends in
        # an archive suffix neither aborts the audit nor counts as one.
        store, archive, _ = clean_run
        copy = NetLogArchive(shutil.copytree(archive.root, tmp_path / "netlogs"))
        docs = list(copy.entries(population.name))
        (docs[0].parent / "weird.json").mkdir()
        (docs[0].parent / "weird.nlbin").mkdir()
        assert list(copy.entries(population.name)) == docs
        report = fsck(store, copy)
        assert report.clean
        assert report.scanned_archives == len(docs)

    def test_report_json_is_machine_readable(self, damaged_run, population):
        store, archive, _ = damaged_run
        _, domain, os_name = _first_active_visit(store, population.name)
        store.connection.execute(
            "UPDATE visits SET error = error - 1 WHERE domain = ? AND os_name = ?",
            (domain, os_name),
        )
        store.commit()
        document = json.loads(json.dumps(fsck(store, archive).to_json()))
        assert document["version"] == 1
        assert document["clean"] is False and document["ok"] is False
        assert document["campaign_digests"][population.name]
        kinds = {finding["kind"] for finding in document["findings"]}
        assert "digest-mismatch" in kinds


class TestTieredRepair:
    def test_reparse_tier_restores_content(self, damaged_run, clean_run, population):
        store, archive, _ = damaged_run
        clean_store, _, _ = clean_run
        _, domain, os_name = _first_active_visit(store, population.name)
        store.connection.execute(
            "UPDATE visits SET page_load_time = page_load_time + 5 "
            "WHERE domain = ? AND os_name = ?",
            (domain, os_name),
        )
        store.commit()
        report = fsck(store, archive, repair=True)
        assert report.ok
        assert [f.repair_tier for f in report.findings] == ["reparse"]
        assert fsck(store, archive).clean
        assert campaign_digest(store, population.name) == campaign_digest(
            clean_store, population.name
        )

    def test_revisit_tier_restores_content(self, damaged_run, clean_run, population):
        store, archive, _ = damaged_run
        clean_store, _, _ = clean_run
        _, domain, os_name = _first_active_visit(store, population.name)
        # Damage the row AND its archive document: re-parse is impossible.
        store.connection.execute(
            "UPDATE visits SET total_flows = total_flows + 1 "
            "WHERE domain = ? AND os_name = ?",
            (domain, os_name),
        )
        store.commit()
        path = archive.path_for(population.name, os_name, domain)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        revisit = population_revisiter(population, store, archive)
        report = fsck(store, archive, repair=True, revisit=revisit)
        assert report.ok
        assert "revisit" in {f.repair_tier for f in report.findings}
        assert fsck(store, archive).clean
        assert campaign_digest(store, population.name) == campaign_digest(
            clean_store, population.name
        )

    def test_quarantine_tier_dead_letters(self, damaged_run, population):
        store, archive, _ = damaged_run
        _, domain, os_name = _first_active_visit(store, population.name)
        store.connection.execute(
            "UPDATE visits SET success = 1 - success "
            "WHERE domain = ? AND os_name = ?",
            (domain, os_name),
        )
        store.commit()
        archive.path_for(population.name, os_name, domain).unlink()
        # No archive copy, no revisiter: the damaged row must be parked.
        report = fsck(store, archive, repair=True)
        assert report.ok
        assert {f.repair_tier for f in report.findings} == {"quarantine"}
        letters = store.dead_letters(population.name)
        assert (domain, os_name) in {(l.domain, l.os_name) for l in letters}
        assert fsck(store, archive).clean

    def test_orphan_cleanup(self, damaged_run, population):
        store, archive, _ = damaged_run
        visit_id, domain, os_name = _first_active_visit(store, population.name)
        store.connection.execute(
            "DELETE FROM visits WHERE visit_id = ?", (visit_id,)
        )
        store.commit()
        revisit = population_revisiter(population, store, archive)
        report = fsck(store, archive, repair=True, revisit=revisit)
        assert report.ok
        tiers = {f.kind: f.repair_tier for f in report.findings}
        assert tiers[FsckKind.ORPHANED_ROWS] == "cleanup"
        assert fsck(store, archive).clean


class TestRevisitEquivalence:
    def test_revisited_rows_match_fault_free_fingerprints(
        self, damaged_run, clean_run, population
    ):
        store, archive, result = damaged_run
        _, clean_archive, clean_result = clean_run
        # Re-visit every domain that had local activity and compare the
        # resulting campaign digest with the untouched baseline.
        revisit = population_revisiter(population, store, archive)
        for finding in result.findings[:5]:
            for os_name in finding.per_os:
                store.delete_visit(population.name, finding.domain, os_name)
                assert revisit(population.name, os_name, finding.domain)
        store.commit()
        assert fsck(store, archive).clean
        clean_store, _, _ = clean_run
        assert campaign_digest(store, population.name) == campaign_digest(
            clean_store, population.name
        )
        assert [finding_fingerprint(f) for f in result.findings] == [
            finding_fingerprint(f) for f in clean_result.findings
        ]


class TestStoreSatellites:
    def test_store_creates_missing_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "telemetry.db"
        with TelemetryStore(str(path)) as store:
            store.record_visit("c", "d.com", "windows", success=True)
            store.commit()
        assert path.exists()

    def test_delete_visit_removes_children(self, clean_run, tmp_path, population):
        store = TelemetryStore(str(tmp_path / "t.db"))
        clean_store, _, _ = clean_run
        # Copy one active visit into a scratch store, then delete it.
        visit_id, domain, os_name = _first_active_visit(
            clean_store, population.name
        )
        store.record_visit("c", "d.com", "windows", success=True)
        assert store.delete_visit("c", "d.com", "windows") == 1
        assert store.visit_count() == 0
        assert store.delete_visit("c", "d.com", "windows") == 0


class TestRevisitKeepsFormat:
    """A tier-2 re-visit rewrites a damaged document in its own format,
    whatever the capture default (``REPRO_NETLOG_FORMAT``) says."""

    @pytest.mark.parametrize(
        "stored,default", [("json", "binary"), ("binary", "json")]
    )
    def test_rewrite_keeps_the_replaced_documents_format(
        self, tmp_path, monkeypatch, stored, default
    ):
        population = build_top_population(2020, scale=0.001)
        store = TelemetryStore(str(tmp_path / "telemetry.db"))
        archive = NetLogArchive(tmp_path / "netlogs")
        Campaign(
            store=store, netlog_archive=archive, netlog_format=stored
        ).run(population)
        store.commit()
        before = campaign_digest(store, population.name)
        _, domain, os_name = _first_active_visit(store, population.name)
        path = archive.path_for(population.name, os_name, domain)
        assert path == archive.path_for(
            population.name, os_name, domain, format=stored
        )
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

        monkeypatch.setenv("REPRO_NETLOG_FORMAT", default)
        revisit = population_revisiter(population, store, archive)
        report = fsck(store, archive, repair=True, revisit=revisit)
        assert [(f.kind, f.repair_tier) for f in report.findings] == [
            (FsckKind.ARCHIVE_DAMAGE, "revisit")
        ]
        assert path.exists()
        assert not archive.path_for(
            population.name, os_name, domain, format=default
        ).exists()
        assert fsck(store, archive).clean
        assert campaign_digest(store, population.name) == before
