"""Pinned fsck output over a damaged mixed-format campaign.

A scale-0.001 ``top2020`` campaign is captured in the binary format and
every other archived document (sorted order) is transcoded to JSON, as
the fsck-mixed benchmark corpus is built.  The corpus is then damaged
into all seven :class:`FsckKind` shapes, plus a copy of one document in
a nested subdirectory and a stray ``.tmp`` file a torn placement could
leave behind.  The sha256 digests of the archive listing and of
:meth:`FsckReport.to_json` and :meth:`FsckReport.render` for a read-only
pass and a ``repair=True`` pass with a re-visiter were recorded before
fsck's listing, row scan and digest encoding were rewritten, so the
audit is held to exactly the findings, repairs and wording it had.

Run as a module to print the current digests::

    PYTHONPATH=src python -m tests.storage.test_fsck_pin
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.crawler.campaign import Campaign
from repro.netlog import NetLogArchive, to_json
from repro.storage import TelemetryStore
from repro.storage.integrity import FsckKind, fsck, population_revisiter
from repro.web.population import build_top_population

SCALE = 0.001

LISTING_DIGEST = (
    "f0aff0c3c5636a664c8d30da9d3971d562b3eec8fd08ca53cacb2cc0d5994377"
)
READ_ONLY_JSON_DIGEST = (
    "e6ae7d187c000197cf115363d65e3bd9b0718cc560c3ebdbcefcd7e1239a0d9c"
)
READ_ONLY_RENDER_DIGEST = (
    "5620f820b0144fa5d904235c07efee6def93a42d585a330d9533f4bc5a92b4de"
)
REPAIR_JSON_DIGEST = (
    "c669420654304252c17ebab869b1d9e943e13d0f50f5b1f736971332dd5e1b88"
)
REPAIR_RENDER_DIGEST = (
    "dedab03788317a068843cbd52ff1cb502ed7445abc4550a3156be4d0f41bc2de"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _flip_middle_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def build_corpus(root: Path, population) -> None:
    """Crawl, transcode half, then damage into every finding kind."""
    store = TelemetryStore(str(root / "telemetry.db"))
    archive = NetLogArchive(root / "netlogs")
    Campaign(store=store, netlog_archive=archive, netlog_format="binary").run(
        population
    )
    store.commit()
    for index, path in enumerate(sorted(archive.entries())):
        if index % 2 == 0:
            path.with_suffix(".json").write_text(
                to_json(path.read_bytes()), encoding="utf-8"
            )
            path.unlink()

    crawl = population.name
    conn = store.connection
    active = conn.execute(
        "SELECT visit_id, domain, os_name FROM visits "
        "WHERE crawl = ? AND request_count > 0 ORDER BY visit_id",
        (crawl,),
    ).fetchall()
    mismatch, no_digest, half, orphan, missing, nested = active[:6]
    # Bit rot in one document of each format.
    damaged = [
        next(
            row
            for row in active[6:]
            if archive.path_for(crawl, row[2], row[1]).suffix == suffix
        )
        for suffix in (".json", ".nlbin")
    ]
    conn.execute(
        "UPDATE visits SET rank = rank + 1 WHERE visit_id = ?", (mismatch[0],)
    )
    conn.execute(
        "UPDATE visits SET digest = NULL WHERE visit_id = ?", (no_digest[0],)
    )
    conn.execute(
        "DELETE FROM local_requests WHERE rowid = (SELECT MIN(rowid) FROM "
        "local_requests WHERE visit_id = ?)",
        (half[0],),
    )
    # Its child rows become orphaned rows, its document an orphaned archive.
    conn.execute("DELETE FROM visits WHERE visit_id = ?", (orphan[0],))
    store.commit()
    store.close()

    for _, domain, os_name in damaged:
        _flip_middle_byte(archive.path_for(crawl, os_name, domain))
    _, domain, os_name = missing
    archive.path_for(crawl, os_name, domain).unlink()
    # A verbatim copy one level deeper: listed and verified, keyed by
    # its own folder name (a real OS, so a repair can re-visit it).
    _, domain, os_name = nested
    source = archive.path_for(crawl, os_name, domain)
    other_os = sorted(set(population.oses) - {os_name})[0]
    deeper = source.parent / other_os
    deeper.mkdir()
    shutil.copyfile(source, deeper / source.name)
    # What a placement cut short leaves behind: never listed.
    (source.parent / (source.name + ".tmp")).write_bytes(b"torn")


@pytest.fixture(scope="module")
def population():
    return build_top_population(2020, scale=SCALE)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, population) -> Path:
    root = tmp_path_factory.mktemp("fsck-pin")
    build_corpus(root, population)
    return root


def listing(root: Path, population) -> str:
    archive = NetLogArchive(root / "netlogs")
    rows = [
        [str(path.relative_to(archive.root)) for path in archive.entries(crawl)]
        for crawl in (None, population.name, "absent")
    ]
    return json.dumps(rows)


def audit(root: Path, population, *, repair: bool) -> tuple[str, str]:
    """``(to_json text, render text)`` of one fsck pass over ``root``."""
    with TelemetryStore(str(root / "telemetry.db")) as store:
        archive = NetLogArchive(root / "netlogs")
        revisit = (
            population_revisiter(population, store, archive) if repair else None
        )
        report = fsck(store, archive, repair=repair, revisit=revisit)
    return json.dumps(report.to_json(), sort_keys=True), report.render()


def test_corpus_has_every_finding_kind(corpus, population):
    with TelemetryStore(str(corpus / "telemetry.db")) as store:
        report = fsck(store, NetLogArchive(corpus / "netlogs"))
    assert {finding.kind for finding in report.findings} == set(FsckKind)


def test_listing_is_pinned(corpus, population):
    assert _sha256(listing(corpus, population)) == LISTING_DIGEST


def test_read_only_report_is_pinned(corpus, population):
    as_json, rendered = audit(corpus, population, repair=False)
    assert (_sha256(as_json), _sha256(rendered)) == (
        READ_ONLY_JSON_DIGEST,
        READ_ONLY_RENDER_DIGEST,
    )


def test_repair_report_is_pinned(corpus, population, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(corpus, copy)
    as_json, rendered = audit(copy, population, repair=True)
    assert (_sha256(as_json), _sha256(rendered)) == (
        REPAIR_JSON_DIGEST,
        REPAIR_RENDER_DIGEST,
    )


if __name__ == "__main__":  # pragma: no cover - digest re-recording aid
    import tempfile

    pop = build_top_population(2020, scale=SCALE)
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "corpus"
        base.mkdir()
        build_corpus(base, pop)
        print(listing(base, pop))
        read_only = audit(base, pop, repair=False)
        print(read_only[1])
        repaired = Path(scratch) / "repaired"
        shutil.copytree(base, repaired)
        repair = audit(repaired, pop, repair=True)
        print(repair[1])
        print("LISTING_DIGEST", _sha256(listing(base, pop)))
        print("READ_ONLY_JSON_DIGEST", _sha256(read_only[0]))
        print("READ_ONLY_RENDER_DIGEST", _sha256(read_only[1]))
        print("REPAIR_JSON_DIGEST", _sha256(repair[0]))
        print("REPAIR_RENDER_DIGEST", _sha256(repair[1]))
