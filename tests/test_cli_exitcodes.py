"""Regression tests for the documented CLI exit-code convention.

Every subcommand returns ``EXIT_OK`` (0), ``EXIT_ISSUES`` (1) or
``EXIT_USAGE`` (2) — plus ``EXIT_INTERRUPTED`` (130) for signal stops —
with diagnostics on stderr.  The full table lives in docs/API.md; these
tests pin the behavior the table promises.
"""

import pytest

from repro.cli import (
    EXIT_INTERRUPTED,
    EXIT_ISSUES,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from repro.serve.report import analyze_report_text

from .serve.conftest import build_upload


@pytest.fixture
def netlog_file(tmp_path):
    path = tmp_path / "visit.netlog.json"
    path.write_bytes(
        build_upload(["http://localhost:8000/x", "https://cdn.example/a.js"])
    )
    return str(path)


@pytest.fixture
def text_file(tmp_path):
    path = tmp_path / "not-a-db.txt"
    path.write_text("definitely not sqlite\n")
    return str(path)


class TestConvention:
    def test_the_contract_is_the_documented_one(self):
        assert (EXIT_OK, EXIT_ISSUES, EXIT_USAGE, EXIT_INTERRUPTED) == (
            0, 1, 2, 130,
        )

    def test_unknown_subcommand_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err


class TestAnalyze:
    def test_ok(self, netlog_file, capsys):
        assert main(["analyze", netlog_file]) == EXIT_OK
        assert "localhost" in capsys.readouterr().out

    def test_json_emits_canonical_report(self, netlog_file, capsys):
        assert main(["analyze", "--json", netlog_file]) == EXIT_OK
        with open(netlog_file, "rb") as fp:
            expected = analyze_report_text(fp.read())
        assert capsys.readouterr().out == expected

    def test_missing_file_is_usage(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_non_netlog_is_usage(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        assert main(["analyze", "--json", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_invalid_escape_in_top_level_key_is_usage(self, tmp_path, capsys):
        path = tmp_path / "escape.json"
        path.write_text('{"a\\q": 1, "events": []}')
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert _error_lines(capsys.readouterr().err) == 1

    def test_name_table_not_an_object_is_analyzed(self, tmp_path, capsys):
        path = tmp_path / "names.json"
        path.write_text(
            '{"constants": {"logEventTypes": [1]}, "events": [{"time": 1.0,'
            ' "type": "X", "source": {"id": 1, "type": 1}, "phase": 1}]}'
        )
        assert main(["analyze", str(path)]) == EXIT_OK


def _error_lines(stderr: str) -> int:
    """How many ``error:`` lines ``stderr`` holds; a traceback fails."""
    assert "Traceback" not in stderr
    return sum(line.startswith("error:") for line in stderr.splitlines())


class TestNetlogConvert:
    _RECORD = (
        '{"time": 1.0, "type": 2, "source": {"id": 1, "type": 1},'
        ' "phase": 1, "params": {}%s}'
    )

    @pytest.mark.parametrize(
        "document",
        [
            '{"events": [{"time": %s, "type": 2, "source": {"id": 1,'
            ' "type": 1}, "phase": 1}]}' % ("9" * 5001),
            '{"events": [%s]}' % (_RECORD % ', "crc": 7'),
            '{"events": [%s]}' % (_RECORD % ', "chain": 7'),
        ],
        ids=["over-long-int", "crc-only", "chain-only"],
    )
    def test_unconvertible_document_is_usage(self, document, tmp_path, capsys):
        source = tmp_path / "in.json"
        source.write_text(document)
        code = main(["netlog", "convert", str(source), str(tmp_path / "out.nlbin")])
        assert code == EXIT_USAGE
        assert _error_lines(capsys.readouterr().err) == 1
        assert not (tmp_path / "out.nlbin").exists()


class TestStoreCommands:
    def test_fsck_missing_db_is_usage(self, tmp_path, capsys):
        code = main(["fsck", "--db", str(tmp_path / "absent.sqlite")])
        assert code == EXIT_USAGE
        assert "no such database" in capsys.readouterr().err

    def test_fsck_non_database_is_usage(self, text_file, capsys):
        assert main(["fsck", "--db", text_file]) == EXIT_USAGE
        assert "not a telemetry database" in capsys.readouterr().err

    def test_deadletter_non_database_is_usage(self, text_file, capsys):
        code = main(["deadletter", "list", "--db", text_file])
        assert code == EXIT_USAGE
        assert "not a telemetry database" in capsys.readouterr().err

    def test_metrics_non_snapshot_is_usage(self, text_file, capsys):
        assert main(["metrics", text_file]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def _coverage_record(**overrides):
    record = {
        "format": "repro-chaos-coverage-v1",
        "seed": "chaos-conformance",
        "budget": 40,
        "schedules_run": 1,
        "elapsed_s": 0.5,
        "coverage_percent": 100.0,
        "seams": [
            {
                "kind": "dns",
                "hook": "dns_hook",
                "layer": "browser.dns",
                "driver": "campaign",
                "fires": 3,
                "covered": True,
            }
        ],
        "pairs_fired": [],
        "schedules": [],
        "violations": [],
    }
    record.update(overrides)
    return record


class TestChaos:
    def test_missing_subcommand_is_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos"])
        assert excinfo.value.code == EXIT_USAGE

    def test_run_zero_budget_is_usage(self, capsys):
        assert main(["chaos", "run", "--budget", "0"]) == EXIT_USAGE
        assert "--budget" in capsys.readouterr().err

    def test_run_bad_scale_is_usage(self, capsys):
        assert main(["chaos", "run", "--scale", "0"]) == EXIT_USAGE
        assert "--scale" in capsys.readouterr().err

    def test_run_unknown_driver_is_usage(self, capsys):
        code = main(["chaos", "run", "--drivers", "campaign,bogus"])
        assert code == EXIT_USAGE
        assert "--drivers" in capsys.readouterr().err

    def test_coverage_missing_file_is_usage(self, tmp_path, capsys):
        code = main(["chaos", "coverage", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "cannot read coverage report" in capsys.readouterr().err

    def test_coverage_invalid_json_is_usage(self, text_file, capsys):
        assert main(["chaos", "coverage", text_file]) == EXIT_USAGE
        assert "invalid coverage report" in capsys.readouterr().err

    def test_coverage_wrong_format_is_usage(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"format": "bogus"}')
        assert main(["chaos", "coverage", str(path)]) == EXIT_USAGE
        assert "invalid coverage report" in capsys.readouterr().err

    def test_coverage_complete_report_is_ok(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        path.write_text(json.dumps(_coverage_record()))
        assert main(["chaos", "coverage", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "coverage 100.0%" in out
        assert "violations: none" in out

    def test_coverage_incomplete_report_is_issues(self, tmp_path, capsys):
        import json

        record = _coverage_record(coverage_percent=50.0)
        record["seams"][0]["fires"] = 0
        record["seams"][0]["covered"] = False
        path = tmp_path / "report.json"
        path.write_text(json.dumps(record))
        assert main(["chaos", "coverage", str(path)]) == EXIT_ISSUES
        assert "NO" in capsys.readouterr().out

    def test_coverage_violating_report_is_issues(self, tmp_path, capsys):
        import json

        record = _coverage_record(
            violations=[
                {
                    "schedule": "pair:dns+tls",
                    "driver": "campaign",
                    "invariant": "campaign-digest-equality",
                    "detail": "digest diverged",
                    "repro": None,
                    "shrink_iterations": 6,
                    "minimal_specs": 2,
                }
            ]
        )
        path = tmp_path / "report.json"
        path.write_text(json.dumps(record))
        assert main(["chaos", "coverage", str(path)]) == EXIT_ISSUES
        assert "campaign-digest-equality" in capsys.readouterr().out

    def test_replay_missing_file_is_usage(self, tmp_path, capsys):
        code = main(["chaos", "replay", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "cannot read repro" in capsys.readouterr().err

    def test_replay_invalid_repro_is_usage(self, text_file, capsys):
        assert main(["chaos", "replay", text_file]) == EXIT_USAGE
        assert "invalid repro" in capsys.readouterr().err


class TestServe:
    def test_resume_without_db_is_usage(self, capsys):
        assert main(["serve", "--resume"]) == EXIT_USAGE
        assert "--resume requires --db" in capsys.readouterr().err

    def test_unreadable_fault_plan_is_usage(self, tmp_path, capsys):
        code = main(
            ["serve", "--fault-plan", str(tmp_path / "absent.json")]
        )
        assert code == EXIT_USAGE
        assert "fault plan" in capsys.readouterr().err

    def test_invalid_config_is_usage(self, capsys):
        assert main(["serve", "--workers", "0"]) == EXIT_USAGE
        assert "workers" in capsys.readouterr().err


#: Output flags whose location is checked before any work, with the
#: argv prefix that reaches each one cheaply.
_OUTPUT_FLAGS = {
    "study --db": ["study", "--scale", "0.001", "--db"],
    "study --netlog-dir": ["study", "--scale", "0.001", "--netlog-dir"],
    "study --metrics-out": ["study", "--scale", "0.001", "--metrics-out"],
    "study --trace-out": ["study", "--scale", "0.001", "--trace-out"],
    "study --shard-dir": ["study", "--scale", "0.001", "--shards", "1", "--shard-dir"],
    "serve --db": ["serve", "--port", "0", "--db"],
    "serve --spool-dir": ["serve", "--port", "0", "--spool-dir"],
    "report -o": ["report", "--scale", "0.001", "-o"],
    "chaos run --report": [
        "chaos", "run", "--drivers", "campaign", "--budget", "1",
        "--scale", "0.001", "--report",
    ],
}


class TestUnusableOutputLocation:
    """An output location that cannot be written is refused up front:
    exit 2 with one ``error: cannot write …`` line, nothing run."""

    @pytest.mark.parametrize("flag", sorted(_OUTPUT_FLAGS))
    def test_under_a_regular_file(self, flag, tmp_path, capsys):
        blocker = tmp_path / "regular-file"
        blocker.write_text("x")
        location = blocker / "out"
        code = main(_OUTPUT_FLAGS[flag] + [str(location)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {location}: {blocker} is not a directory\n"
        )

    @pytest.mark.parametrize(
        "flag",
        ["study --metrics-out", "study --trace-out", "report -o", "chaos run --report"],
    )
    def test_in_a_missing_directory(self, flag, tmp_path, capsys):
        missing = tmp_path / "missing"
        location = missing / "out"
        code = main(_OUTPUT_FLAGS[flag] + [str(location)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {location}: {missing} does not exist\n"
        )
        assert not missing.exists()

    def test_stores_and_archives_still_create_missing_directories(
        self, tmp_path, capsys
    ):
        db = tmp_path / "a" / "crawl.db"
        netlogs = tmp_path / "b" / "c" / "netlogs"
        code = main(
            ["study", "--scale", "0.0001", "--db", str(db), "--netlog-dir", str(netlogs)]
        )
        assert code == EXIT_OK
        assert db.exists() and netlogs.is_dir()
