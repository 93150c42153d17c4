"""fsck reports are the same at any ``jobs``, read-only and repairing.

The corpus is the pinned one of :mod:`tests.storage.test_fsck_pin` (a
mixed-format campaign damaged into all seven finding kinds: bit flips in
both formats, a missing document, an orphaned document and orphaned
rows, among others) plus a truncated JSON document and a bit flipped in
a binary document's header frame.  It holds many chunks of documents,
so every ``jobs`` above 1 shares verification with forked helpers.
A test taking the ``forks`` fixture also requires each of them reaped.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from repro.netlog import NetLogArchive
from repro.netlog.parallel import CHUNK
from repro.storage import TelemetryStore
from repro.storage.integrity import FsckKind, fsck, population_revisiter
from repro.web.population import build_top_population

from .test_fsck_pin import SCALE, build_corpus

JOBS = (1, 2, 3, None)


@pytest.fixture(scope="module")
def population():
    return build_top_population(2020, scale=SCALE)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, population):
    root = tmp_path_factory.mktemp("fsck-jobs")
    build_corpus(root, population)
    archive = NetLogArchive(root / "netlogs")
    entries = sorted(archive.entries())
    truncated = [path for path in entries if path.suffix == ".json"][-1]
    truncated.write_bytes(truncated.read_bytes()[:-40])
    header = [path for path in entries if path.suffix == ".nlbin"][-1]
    data = bytearray(header.read_bytes())
    data[117] ^= 0x01  # inside the header frame, which carries visitMeta
    header.write_bytes(bytes(data))
    return root, truncated, header


def _report(root, population, jobs, repair=False):
    with TelemetryStore(str(root / "telemetry.db")) as store:
        archive = NetLogArchive(root / "netlogs")
        revisit = population_revisiter(population, store, archive) if repair else None
        report = fsck(store, archive, repair=repair, revisit=revisit, jobs=jobs)
    return json.dumps(report.to_json()), report.render()


def test_corpus_spans_chunks_and_damage(corpus):
    root, truncated, header = corpus
    assert len(list(NetLogArchive(root / "netlogs").entries())) > 3 * CHUNK
    with TelemetryStore(str(root / "telemetry.db")) as store:
        report = fsck(store, NetLogArchive(root / "netlogs"), jobs=1)
    assert {finding.kind for finding in report.findings} == set(FsckKind)
    details = {
        finding.domain: finding.detail
        for finding in report.findings_of(FsckKind.ARCHIVE_DAMAGE)
    }
    assert "truncated" in details[truncated.stem]
    assert header.stem in details


def test_read_only_report_at_every_jobs(corpus, population, forks):
    root = corpus[0]
    serial = _report(root, population, 1)
    assert not forks
    for jobs in JOBS[1:]:
        assert _report(root, population, jobs) == serial
    assert forks


def test_failed_row_scan_reaps_the_helpers(corpus, population, forks, monkeypatch):
    # A read-only audit forks its helpers before the row scan; an error
    # there reaches the caller with every helper killed and reaped.
    from repro.storage import integrity

    def failing(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(integrity, "_scan_visits", failing)
    with pytest.raises(KeyboardInterrupt):
        _report(corpus[0], population, 2)
    assert forks


def test_repair_report_at_every_jobs(corpus, population, tmp_path):
    reports = []
    for jobs in JOBS:
        copy = tmp_path / f"jobs-{jobs}"
        shutil.copytree(corpus[0], copy)
        reports.append(_report(copy, population, jobs, repair=True))
        # The rescan after a repair is clean and the same at any jobs.
        reports.append(_report(copy, population, jobs))
    assert reports[0::2] == [reports[0]] * len(JOBS)
    assert reports[1::2] == [reports[1]] * len(JOBS)
    assert json.loads(reports[1][0])["clean"]


def _cli(root, *extra):
    return main(
        [
            "fsck",
            "--db", str(root / "telemetry.db"),
            "--netlog-dir", str(root / "netlogs"),
            *extra,
        ]
    )


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_cli_output_at_every_jobs(corpus, capsys, mode):
    root = corpus[0]
    outputs = []
    for jobs in (["--jobs", "1"], [], ["--jobs", "2"]):
        status = _cli(root, *mode, *jobs)
        outputs.append((status, capsys.readouterr().out))
    assert outputs == [outputs[0]] * 3
    assert outputs[0][0] == 1 and "archive-damage" in outputs[0][1]


def test_cli_repair_output_at_every_jobs(corpus, capsys, tmp_path):
    outputs = []
    for jobs in (["--jobs", "1"], [], ["--jobs", "2"]):
        copy = tmp_path / f"jobs{''.join(jobs)}"
        shutil.copytree(corpus[0], copy)
        status = _cli(
            copy, "--json", "--repair", "--population", "top2020",
            "--scale", str(SCALE), *jobs,
        )
        outputs.append((status, capsys.readouterr().out))
    assert outputs == [outputs[0]] * 3
    assert outputs[0][0] == 0 and json.loads(outputs[0][1])["ok"]
