"""Self-tests of the benchmark harness (not of the library).

Run from the repository root with ``python -m pytest perfbench -q``.
They use a small population so they finish in seconds.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from contextlib import closing
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SCALE = 0.002


@pytest.fixture(scope="module")
def population():
    return wl.build_population(SCALE, seed=7)


def _reference(crawl: wl.CampaignRun) -> dict:
    return {
        "crawl": crawl.crawl,
        "visits": crawl.visits,
        "findings": crawl.findings,
        "campaign_digest": wl.stored_digest(crawl.directory / wl.DB_NAME, crawl.crawl),
    }


@pytest.mark.parametrize("name", ["campaign-binary", "campaign-workers2"])
def test_traced_campaign_matches_untraced(name, population, tmp_path):
    workload = wl.WORKLOADS[name]
    plain = wl.crawl_once(workload, population, tmp_path / "plain")
    reference = _reference(plain)
    trace = layers.LayerTrace()
    with trace:
        traced = wl.crawl_once(workload, population, tmp_path / "traced")
    assert trace.span_count > traced.visits
    assert wl.check_campaign(traced, reference).problems == []
    assert wl.check_campaign(plain, reference).problems == []


def test_traced_fsck_matches_untraced(population, tmp_path):
    corpus = tmp_path / "corpus"
    plain_crawl = wl.crawl_once(wl.WORKLOADS["campaign-binary"], population, corpus)
    reference = _reference(plain_crawl)
    setup = wl.check_campaign(plain_crawl, reference)
    assert wl.transcode_every_other(corpus / wl.ARCHIVE_NAME) == (setup.archive_files + 1) // 2
    wall, report = wl.fsck_once(corpus)
    with layers.LayerTrace() as trace:
        traced_wall, traced_report = wl.fsck_once(corpus)
    assert traced_report.to_json() == report.to_json()
    assert wl.check_fsck(traced_wall, traced_report, corpus, setup, reference).problems == []
    _, calls, _ = trace.kind_totals()
    assert calls["parse.json"] == (setup.archive_files + 1) // 2
    assert calls["parse.binary"] == setup.archive_files // 2


@pytest.mark.parametrize("name", ["campaign-binary", "campaign-workers2"])
def test_self_times_are_nonnegative_and_within_capacity(name, population, tmp_path):
    workload = wl.WORKLOADS[name]
    trace = layers.LayerTrace()
    with trace:
        crawl = wl.crawl_once(workload, population, tmp_path / "c")
    self_s, _, _ = trace.kind_totals()
    assert all(seconds >= -1e-9 for seconds in self_s.values()), self_s
    capacity = max(workload.workers, 1)
    assert sum(trace.layer_seconds().values()) <= capacity * crawl.wall_s
    operation = wl.check_campaign(crawl, _reference(crawl))
    metrics, rows = run.layer_metrics(trace, [operation], [operation], capacity)
    assert sum(share for _, share in rows.values()) == pytest.approx(1.0)
    assert set(metrics) == set(run.PER_LAYER)


def test_no_wrapper_survives(population, tmp_path):
    from repro.core import addresses, detector
    from repro.browser import chrome

    originals = (addresses.parse_target, chrome.parse_target, detector.DetectionSink.accept)
    trace = layers.LayerTrace()
    with pytest.raises(RuntimeError, match="boom"):
        with trace:
            assert chrome.parse_target is not originals[1]
            assert layers.surviving_wrappers()
            raise RuntimeError("boom")
    assert layers.surviving_wrappers() == []
    assert (
        addresses.parse_target, chrome.parse_target, detector.DetectionSink.accept
    ) == originals
    with trace:  # reinstallable after removal
        pass
    assert layers.surviving_wrappers() == []


def test_wal_store_bytes_are_counted(population, tmp_path):
    crawl = wl.crawl_once(wl.WORKLOADS["campaign-workers2"], population, tmp_path / "c")
    db_path = crawl.directory / wl.DB_NAME
    with closing(sqlite3.connect(db_path)) as conn:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    assert wl.check_campaign(crawl, _reference(crawl)).store_bytes > 0


def test_gate_counts_a_wrong_result_as_failed(population, tmp_path):
    crawl = wl.crawl_once(wl.WORKLOADS["campaign-binary"], population, tmp_path / "c")
    reference = _reference(crawl)
    wrong = dict(reference, findings=reference["findings"] + 1, campaign_digest="0" * 64)
    problems = wl.check_campaign(crawl, wrong).problems
    assert len(problems) == 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
