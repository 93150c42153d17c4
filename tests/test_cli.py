"""Tests for the command-line interface."""

import json

import pytest

from repro.browser.chrome import SimulatedChrome
from repro.browser.page import Page, PlannedRequest
from repro.browser.useragent import identity_for
from repro.cli import main
from repro.netlog import dumps


class _Script:
    name = "s"

    def __init__(self, urls):
        self._urls = urls

    def plan(self, context):
        return [PlannedRequest(url=u) for u in self._urls]


@pytest.fixture
def netlog_file(tmp_path):
    chrome = SimulatedChrome(identity_for("windows"))
    page = Page(
        url="https://site.example/",
        scripts=[_Script(["http://localhost:8000/setuid"])],
    )
    visit = chrome.visit(page)
    path = tmp_path / "netlog.json"
    path.write_text(dumps(visit.events))
    return path


class TestAnalyze:
    def test_detects_and_classifies(self, netlog_file, capsys):
        assert main(["analyze", str(netlog_file)]) == 0
        out = capsys.readouterr().out
        assert "localhost" in out
        assert "Developer Errors" in out

    def test_clean_log(self, tmp_path, capsys):
        chrome = SimulatedChrome(identity_for("linux"))
        visit = chrome.visit(Page(url="https://clean.example/"))
        path = tmp_path / "clean.json"
        path.write_text(dumps(visit.events))
        assert main(["analyze", str(path)]) == 0
        assert "no localhost or LAN traffic" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2
        assert "not a NetLog" in capsys.readouterr().err

    def test_non_netlog_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        assert main(["analyze", str(path)]) == 2


class TestStudy:
    def test_top2020_headlines(self, capsys):
        assert main(["study", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "localhost-active sites: 107" in out
        assert "LAN-active sites: 9" in out
        assert "Fraud Detection" in out


class TestOutputStreams:
    """Diagnostics belong on stderr; stdout carries only results."""

    def test_study_progress_chatter_on_stderr(self, capsys):
        assert main(["study", "--scale", "0.002"]) == 0
        captured = capsys.readouterr()
        assert "crawling top2020" not in captured.out
        assert "crawling top2020" in captured.err
        # The final progress summary is diagnostics too.
        assert "visits " in captured.err
        assert "localhost-active sites" in captured.out

    def test_analyze_salvage_warning_on_stderr(self, netlog_file, capsys):
        # Regression: the salvage warning used to land on stdout, where
        # it corrupted piped results.
        truncated = netlog_file.read_text()[:-4]
        netlog_file.write_text(truncated)
        assert main(["analyze", str(netlog_file)]) == 0
        captured = capsys.readouterr()
        assert "damaged NetLog salvaged" in captured.err
        assert "damaged NetLog salvaged" not in captured.out
        assert "request flows" in captured.out


class TestStudyObservability:
    def test_metrics_and_trace_written(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        code = main(
            [
                "study", "--scale", "0.002", "--workers", "2",
                "--metrics-out", str(metrics), "--trace-out", str(trace),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "metrics snapshot written" in captured.err
        assert "trace written" in captured.err
        document = json.loads(metrics.read_text())
        assert document["format"] == "repro-metrics-v1"
        names = {m["name"] for m in document["metrics"]}
        assert "repro_visits_total" in names
        assert "repro_executor_dispatched_total" in names
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "visit" for e in events)

    def test_observability_does_not_change_results(self, tmp_path, capsys):
        assert main(["study", "--scale", "0.002"]) == 0
        plain = capsys.readouterr().out
        code = main(
            [
                "study", "--scale", "0.002",
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == plain

    def test_prometheus_extension_selects_text_format(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        code = main(
            ["study", "--scale", "0.002", "--metrics-out", str(prom)]
        )
        assert code == 0
        text = prom.read_text()
        assert "# TYPE repro_visits_total counter" in text


class TestMetricsCommand:
    def test_renders_snapshot_table(self, tmp_path, capsys):
        snapshot = tmp_path / "m.json"
        assert main(
            ["study", "--scale", "0.002", "--metrics-out", str(snapshot)]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "labels" in out and "value" in out
        assert "repro_visits_total" in out
        assert "os=linux" in out

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_foreign_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        assert main(["metrics", str(path)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err


class TestTableCommand:
    def test_static_table4(self, capsys):
        assert main(["table", "4"]) == 0
        assert "TeamViewer" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table", "5", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "ebay.com" in out
        assert "Fraud Detection" in out

    def test_table9(self, capsys):
        assert main(["table", "9", "--scale", "0.002"]) == 0
        assert "wangzonghang.cn" in capsys.readouterr().out

    def test_invalid_table_number(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "12"])


class TestFigureCommand:
    def test_figure3(self, capsys):
        assert main(["figure", "3", "--scale", "0.002"]) == 0
        assert "rank CDFs" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(["figure", "5", "--scale", "0.002"]) == 0
        assert "seconds to first request" in capsys.readouterr().out


class TestStudySupervised:
    def test_workers_flag_runs_supervised(self, capsys):
        assert main(["study", "--scale", "0.001", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "supervision:" in out
        # A compatibility alias: no run claims parallel workers.
        assert "workers" not in out

    def test_sequential_run_prints_supervision(self, capsys):
        # Every study runs through the supervised loop, --workers or not.
        assert main(["study", "--scale", "0.001"]) == 0
        assert "supervision:" in capsys.readouterr().out

    def test_visit_deadline_below_window_rejected(self, capsys):
        assert (
            main(
                [
                    "study", "--scale", "0.001", "--workers", "2",
                    "--visit-deadline", "1000",
                ]
            )
            != 0
        )
        err = capsys.readouterr().err
        assert "monitor window" in err

    def test_negative_workers_rejected(self, capsys):
        assert main(["study", "--scale", "0.001", "--workers", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 0" in err
        # The error explains the alias, mirroring the --help text.
        assert "compatibility alias" in err

    def test_zero_retries_rejected(self, capsys):
        # Symmetric with --workers: out-of-range values get one clear
        # line naming the flag, the value, and the sentinel meaning.
        assert main(["study", "--scale", "0.001", "--retries", "0"]) == 2
        err = capsys.readouterr().err
        assert "--retries must be >= 1" in err
        assert "single attempt" in err

    def test_workers_zero_is_the_documented_sequential_sentinel(self, capsys):
        assert main(["study", "--scale", "0.001", "--workers", "0"]) == 0
        zero = capsys.readouterr().out
        # 0 is the default: the same run as no flag at all.
        assert main(["study", "--scale", "0.001"]) == 0
        assert zero == capsys.readouterr().out

    def test_workers_help_documents_sentinel(self, capsys):
        with pytest.raises(SystemExit):
            main(["study", "--help"])
        # Collapse argparse's line wrapping before matching phrases.
        help_text = " ".join(capsys.readouterr().out.split())
        assert "compatibility alias kept for old command lines (default 0)" in help_text


class TestStudySharded:
    @staticmethod
    def _summary_tail(out: str) -> str:
        # Everything from the RQ summary onward is shared between the
        # serial and sharded paths and must be byte-identical.
        marker = "localhost-active sites:"
        assert marker in out
        return out[out.index(marker):]

    def test_sharded_study_output_matches_serial(self, tmp_path, capsys):
        assert main(["study", "--scale", "0.002"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                [
                    "study", "--scale", "0.002", "--shards", "2",
                    "--db", str(tmp_path / "rollup.db"),
                    "--shard-dir", str(tmp_path / "shards"),
                ]
            )
            == 0
        )
        sharded_out = capsys.readouterr().out
        assert "fabric: 2 shard processes" in sharded_out
        assert self._summary_tail(sharded_out) == self._summary_tail(
            serial_out
        )

    def test_negative_shards_rejected(self, capsys):
        assert main(["study", "--scale", "0.001", "--shards", "-1"]) == 2
        err = capsys.readouterr().err
        # Symmetric with --workers: name the flag, the value, the sentinel.
        assert "--shards must be >= 0" in err
        assert "os.cpu_count()" in err

    def test_shards_and_workers_mutually_exclusive(self, capsys):
        assert (
            main(
                [
                    "study", "--scale", "0.001",
                    "--shards", "2", "--workers", "2",
                ]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shard_dir_requires_shards(self, tmp_path, capsys):
        assert (
            main(
                [
                    "study", "--scale", "0.001",
                    "--shard-dir", str(tmp_path / "shards"),
                ]
            )
            == 2
        )
        assert "--shard-dir requires --shards" in capsys.readouterr().err

    def test_shards_help_documents_sentinel(self, capsys):
        with pytest.raises(SystemExit):
            main(["study", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--shards" in help_text
        assert "0 is a sentinel meaning auto-size from os.cpu_count()" in help_text


class TestFaultPlanErrors:
    def _run(self, tmp_path, capsys, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        code = main(
            ["study", "--scale", "0.001", "--fault-plan", str(path)]
        )
        return code, capsys.readouterr().err

    def test_unknown_kind_is_one_clear_line(self, tmp_path, capsys):
        code, err = self._run(
            tmp_path, capsys, '{"seed": "x", "faults": [{"kind": "wedge"}]}'
        )
        assert code == 2
        assert err.startswith("error: invalid fault plan: faults[0]")
        assert "wedge" in err and "known kinds" in err
        assert "Traceback" not in err

    def test_bad_field_named(self, tmp_path, capsys):
        code, err = self._run(
            tmp_path,
            capsys,
            '{"faults": [{"kind": "dns", "rate": "lots"}]}',
        )
        assert code == 2
        assert "'rate'" in err and "Traceback" not in err

    def test_invalid_json_reported(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "{not json")
        assert code == 2
        assert "invalid fault plan" in err

    def test_missing_file_reported(self, tmp_path, capsys):
        code = main(
            [
                "study", "--scale", "0.001",
                "--fault-plan", "/nonexistent/plan.json",
            ]
        )
        assert code == 2
        assert "cannot read fault plan" in capsys.readouterr().err


class TestDeadletterCommand:
    def _quarantine_db(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        plan = tmp_path / "plan.json"
        # Seed chosen so the rate selects exactly one domain at this
        # scale; hangs cost real wall time, so keep the set tiny and the
        # wall deadline short.
        plan.write_text(
            json.dumps(
                {
                    "seed": "cli-dl-2",
                    "faults": [{"kind": "hang", "rate": 0.02, "times": 10}],
                }
            )
        )
        code = main(
            [
                "study", "--scale", "0.0001", "--workers", "2",
                "--wall-deadline", "0.15",
                "--fault-plan", str(plan), "--db", path,
            ]
        )
        assert code == 0
        return path

    def test_list_and_retry_round_trip(self, tmp_path, capsys):
        path = self._quarantine_db(tmp_path)
        capsys.readouterr()

        assert main(["deadletter", "list", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "VISIT_DEADLINE" in out

        assert main(["deadletter", "retry", "--db", path]) == 0
        assert "re-queued" in capsys.readouterr().out

        assert main(["deadletter", "list", "--db", path]) == 0
        assert "empty" in capsys.readouterr().out

    def test_missing_db_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.db")
        assert main(["deadletter", "list", "--db", missing]) == 2
        assert "no such database" in capsys.readouterr().err

    def test_retry_on_empty_queue_exits_zero(self, tmp_path, capsys):
        # Regression: an empty queue used to be indistinguishable from a
        # failed retry.  It must exit 0 with a clear one-liner.
        path = str(tmp_path / "telemetry.db")
        assert main(["study", "--scale", "0.0001", "--db", path]) == 0
        capsys.readouterr()
        assert main(["deadletter", "retry", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "nothing to retry" in out

    def test_retry_with_unmatched_filter_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "telemetry.db")
        assert main(["study", "--scale", "0.0001", "--db", path]) == 0
        capsys.readouterr()
        code = main(
            ["deadletter", "retry", "--db", path, "--domain", "nosuch.example"]
        )
        assert code == 0
        assert "nothing to retry" in capsys.readouterr().out


class TestFsckCommand:
    def _archived_study(self, tmp_path):
        db = str(tmp_path / "telemetry.db")
        netlogs = str(tmp_path / "netlogs")
        code = main(
            [
                "study", "--scale", "0.002", "--db", db,
                "--netlog-dir", netlogs,
            ]
        )
        assert code == 0
        return db, netlogs

    def _corrupt_one_row(self, db):
        import sqlite3

        conn = sqlite3.connect(db)
        domain = conn.execute(
            "UPDATE visits SET rank = rank + 7 WHERE visit_id = "
            "(SELECT MIN(visit_id) FROM visits) RETURNING domain"
        ).fetchone()[0]
        conn.commit()
        conn.close()
        return domain

    def test_clean_store_passes(self, tmp_path, capsys):
        db, netlogs = self._archived_study(tmp_path)
        capsys.readouterr()
        assert main(["fsck", "--db", db, "--netlog-dir", netlogs]) == 0
        out = capsys.readouterr().out
        assert "no integrity violations found" in out
        assert "campaign digest top2020:" in out

    def test_detect_only_exits_nonzero_with_hint(self, tmp_path, capsys):
        db, netlogs = self._archived_study(tmp_path)
        domain = self._corrupt_one_row(db)
        capsys.readouterr()
        assert main(["fsck", "--db", db, "--netlog-dir", netlogs]) == 1
        captured = capsys.readouterr()
        assert "digest-mismatch" in captured.out
        assert domain in captured.out
        assert "--repair" in captured.err

    def test_repair_fixes_and_rescan_is_clean(self, tmp_path, capsys):
        db, netlogs = self._archived_study(tmp_path)
        self._corrupt_one_row(db)
        capsys.readouterr()
        code = main(["fsck", "--db", db, "--netlog-dir", netlogs, "--repair"])
        assert code == 0
        assert "repaired (reparse)" in capsys.readouterr().out
        assert main(["fsck", "--db", db, "--netlog-dir", netlogs]) == 0

    def test_json_report(self, tmp_path, capsys):
        db, netlogs = self._archived_study(tmp_path)
        self._corrupt_one_row(db)
        capsys.readouterr()
        assert main(["fsck", "--db", db, "--netlog-dir", netlogs, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is False
        assert document["findings"][0]["kind"] == "digest-mismatch"

    def test_missing_db_rejected(self, tmp_path, capsys):
        assert main(["fsck", "--db", str(tmp_path / "absent.db")]) == 2
        assert "no such database" in capsys.readouterr().err

    def test_missing_archive_dir_rejected(self, tmp_path, capsys):
        db, _ = self._archived_study(tmp_path)
        capsys.readouterr()
        code = main(
            ["fsck", "--db", db, "--netlog-dir", str(tmp_path / "nowhere")]
        )
        assert code == 2
        assert "no such archive directory" in capsys.readouterr().err

    def test_db_only_audit_works_without_archive(self, tmp_path, capsys):
        db, _ = self._archived_study(tmp_path)
        capsys.readouterr()
        assert main(["fsck", "--db", db]) == 0
        assert "0 archive document(s)" in capsys.readouterr().out
