"""Command-line interface for the Knock-and-Talk reproduction.

Four subcommands:

``repro analyze NETLOG.json``
    Detect and classify local network traffic in a NetLog dump (works on
    output of ``chrome --log-net-log=...`` for the modelled event types).

``repro study [--scale S] [--population top2020|top2021|malicious]``
    Run a measurement campaign and print the RQ1/RQ2/RQ3 headline
    numbers.

``repro fsck --db PATH [--netlog-dir DIR] [--repair]``
    Audit a campaign database (and its NetLog archive) for at-rest
    corruption; with ``--repair``, apply tiered self-repair.

``repro metrics SNAPSHOT.json``
    Render a metrics snapshot (written by ``repro study
    --metrics-out``) as a human-readable table.

``repro chaos run|coverage|replay``
    Coverage-guided chaos conformance: sweep every registered fault
    seam under generated schedules, render the coverage report, replay
    a shrunk minimal repro.

``repro table N [--scale S]``
    Regenerate paper Table N (1–11).

``repro figure N [--scale S]``
    Regenerate paper Figure N (2–9).

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from .analysis import figures, rq1, rq3, tables
from .core.addresses import Locality
from .core.classifier import BehaviorClassifier
from .core.detector import LocalTrafficDetector
from .crawler.campaign import CampaignResult, run_campaign
from .netlog import NetLogParseError, ParseStats
from .netlog.streaming import iter_events_streaming
from .web import seeds as S
from .web.population import (
    build_malicious_population,
    build_top_population,
)

_DEFAULT_SCALE = 0.02

#: Exit-code convention, uniform across every subcommand (the full
#: table lives in docs/API.md):
#:
#: * ``EXIT_OK`` — the command did what was asked;
#: * ``EXIT_ISSUES`` — the command ran, and what it checked has real
#:   findings (fsck corruption, validation failures, a drain that
#:   timed out);
#: * ``EXIT_USAGE`` — the command could not run: bad flags, unreadable
#:   or invalid input, broken configuration.  Diagnostics go to stderr.
#: * ``EXIT_INTERRUPTED`` — stopped by SIGINT/SIGTERM mid-work
#:   (128 + SIGINT), after checkpointing.  A *graceful* daemon drain is
#:   ``EXIT_OK``: shutting a server down via signal is its normal exit.
EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

#: Valid ``repro table`` identifiers: the paper's 1–11 plus the WebRTC
#: era tables (5W/6W) and the era-comparison table (W).
_TABLE_IDS = tuple(str(n) for n in range(1, 12)) + ("5W", "6W", "W")


def _table_id(value: str) -> str:
    """argparse type for table ids: case-insensitive, canonicalised."""
    return value.strip().upper()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Knock and Talk (IMC 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="detect/classify local traffic in NetLog documents "
        "(JSON or binary, auto-detected)",
    )
    analyze.add_argument(
        "netlog",
        nargs="+",
        help="path(s) to NetLog documents; several paths emit one "
        "summary line each",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical byte-stable report document — the exact "
        "bytes `repro serve` returns for the same upload (single file only)",
    )
    analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parse documents across N worker processes (0 = one per "
        "CPU core; default: serial); output order is input order at any N",
    )

    study = sub.add_parser("study", help="run a measurement campaign")
    study.add_argument(
        "--population",
        choices=("top2020", "top2021", "malicious"),
        default="top2020",
    )
    study.add_argument("--scale", type=float, default=_DEFAULT_SCALE)
    study.add_argument(
        "--webrtc-policy",
        choices=("pre-m74", "mdns"),
        default=None,
        help="enable the simulated WebRTC/mDNS leak channel for top-list "
        "populations under the given Chrome policy era (pre-m74 = raw-IP "
        "host candidates, mdns = obfuscated <uuid>.local names); omit "
        "for the paper's HTTP(S)/WS-only channel",
    )
    study.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="visit attempts per site (1 = no retries)",
    )
    study.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="persist per-visit telemetry to this SQLite file",
    )
    study.add_argument(
        "--resume",
        action="store_true",
        help="skip (OS, domain) pairs already recorded in --db",
    )
    study.add_argument(
        "--netlog-dir",
        default=None,
        metavar="DIR",
        help="archive every visit's NetLog as a checksummed document "
        "under this directory (enables tier-1 fsck repair)",
    )
    study.add_argument(
        "--netlog-format",
        choices=("json", "binary"),
        default=None,
        help="NetLog capture encoding for archived visits (default: the "
        "REPRO_NETLOG_FORMAT env var, else json); detection results are "
        "byte-identical in either format",
    )
    study.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject faults from this JSON plan (chaos testing)",
    )
    study.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="compatibility alias kept for old command lines (default 0): "
        "every study runs its visits one at a time under supervision, so "
        "any N >= 0 gives the same run; parallelise across processes "
        "with --shards",
    )
    study.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the campaign through the crash-tolerant sharded fabric "
        "with N worker processes; 0 is a sentinel meaning auto-size from "
        "os.cpu_count(); omit for the single-process campaign; results "
        "are byte-identical at any N",
    )
    study.add_argument(
        "--shard-dir",
        default=None,
        metavar="DIR",
        help="working directory for per-shard stores and the merge rollup "
        "(default: <db>.shards next to --db, else a temporary directory); "
        "keep it and rerun with --resume to finish an interrupted "
        "sharded run",
    )
    study.add_argument(
        "--visit-deadline",
        type=float,
        default=None,
        metavar="MS",
        help="simulated per-visit budget in ms (default: the 20s monitor "
        "window + 5s; must exceed the window)",
    )
    study.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        metavar="K",
        help="dead-letter a visit after K deadline failures",
    )
    study.add_argument(
        "--wall-deadline",
        type=float,
        default=5.0,
        metavar="S",
        help="wall-clock seconds before the watchdog cancels a wedged "
        "visit attempt",
    )
    study.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable observability and write a metrics snapshot here "
        "(.prom/.txt = Prometheus text format, anything else = JSON)",
    )
    study.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable observability and write a Chrome trace_event JSON "
        "here (load in Perfetto / chrome://tracing)",
    )

    deadletter = sub.add_parser(
        "deadletter",
        help="inspect or re-queue quarantined visits in a telemetry store",
    )
    dl_sub = deadletter.add_subparsers(dest="dl_command", required=True)
    dl_list = dl_sub.add_parser("list", help="show quarantined visits")
    dl_list.add_argument("--db", required=True, metavar="PATH")
    dl_list.add_argument("--crawl", default=None, help="filter by crawl name")
    dl_retry = dl_sub.add_parser(
        "retry",
        help="clear quarantine rows so a --resume run re-attempts them",
    )
    dl_retry.add_argument("--db", required=True, metavar="PATH")
    dl_retry.add_argument("--crawl", default=None, help="filter by crawl name")
    dl_retry.add_argument("--domain", default=None, help="filter by domain")

    chaos = sub.add_parser(
        "chaos",
        help="coverage-guided chaos conformance: sweep, report, replay",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="run a bounded conformance sweep over every registered fault seam",
    )
    chaos_run.add_argument(
        "--seed",
        default="chaos-conformance",
        help="schedule-generation seed (same seed → same schedules)",
    )
    chaos_run.add_argument(
        "--budget",
        type=int,
        default=40,
        metavar="N",
        help="maximum schedules to execute (default 40)",
    )
    chaos_run.add_argument(
        "--scale",
        type=float,
        default=0.001,
        help="population scale for the conformance campaigns",
    )
    chaos_run.add_argument(
        "--drivers",
        default=None,
        metavar="LIST",
        help="comma-separated driver subset "
        "(campaign,supervised,fabric,serve; default: all)",
    )
    chaos_run.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON coverage report here",
    )
    chaos_run.add_argument(
        "--repro-dir",
        default=None,
        metavar="DIR",
        help="write minimal repro plans for any violations here",
    )
    chaos_cov = chaos_sub.add_parser(
        "coverage", help="render a saved coverage report"
    )
    chaos_cov.add_argument("report", metavar="REPORT.json")
    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-run a shrunk minimal repro plan"
    )
    chaos_replay.add_argument("repro", metavar="REPRO.json")
    chaos_replay.add_argument(
        "--scale",
        type=float,
        default=0.001,
        help="population scale for the conformance campaigns",
    )

    fsck = sub.add_parser(
        "fsck",
        help="audit (and repair) a campaign database + NetLog archive",
    )
    fsck.add_argument("--db", required=True, metavar="PATH")
    fsck.add_argument(
        "--netlog-dir",
        default=None,
        metavar="DIR",
        help="the NetLog archive the campaign wrote (enables archive "
        "auditing and tier-1 re-parse repair)",
    )
    fsck.add_argument("--crawl", default=None, help="audit one crawl only")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="apply tiered repair (re-parse → re-visit → quarantine) "
        "instead of only reporting",
    )
    fsck.add_argument(
        "--population",
        choices=("top2020", "top2021", "malicious"),
        default=None,
        help="population to re-visit damaged domains from (tier-2 repair)",
    )
    fsck.add_argument("--scale", type=float, default=_DEFAULT_SCALE)
    fsck.add_argument(
        "--webrtc-policy",
        choices=("pre-m74", "mdns"),
        default=None,
        help="policy era the audited campaign ran under — tier-2 "
        "re-visit repair must rebuild the same population",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text",
    )
    fsck.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="verify archived documents across N worker processes "
        "(0 = one per CPU core; default: serial); reports are "
        "byte-identical at any N",
    )

    netlog = sub.add_parser(
        "netlog",
        help="NetLog document utilities (format transcoding)",
    )
    netlog_sub = netlog.add_subparsers(dest="netlog_command", required=True)
    nl_convert = netlog_sub.add_parser(
        "convert",
        help="losslessly transcode a document between the JSON and "
        "binary formats",
    )
    nl_convert.add_argument("source", metavar="IN", help="input document")
    nl_convert.add_argument(
        "dest",
        metavar="OUT",
        help="output path ('-' writes to stdout; format inferred from "
        "the suffix unless --to is given)",
    )
    nl_convert.add_argument(
        "--to",
        choices=("json", "binary"),
        default=None,
        help="target format (default: from OUT's suffix — .json or .nlbin)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="render a metrics snapshot written by study --metrics-out",
    )
    metrics.add_argument("snapshot", help="path to the JSON snapshot file")

    serve = sub.add_parser(
        "serve",
        help="run the local-traffic analysis daemon (POST NetLog uploads "
        "to /v1/analyze)",
    )
    serve.add_argument("--port", type=int, default=8734, metavar="P")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="bounded analysis worker threads",
    )
    serve.add_argument(
        "--backlog",
        type=int,
        default=8,
        metavar="N",
        help="bounded submission queue depth (429 beyond it)",
    )
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=32 * 1024 * 1024,
        metavar="B",
        help="per-upload byte cap (413 beyond it)",
    )
    serve.add_argument(
        "--job-deadline",
        type=float,
        default=10.0,
        metavar="S",
        help="wall-clock seconds before the watchdog cancels one analysis",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="wall-clock seconds to receive one upload body (408 beyond it)",
    )
    serve.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="journal jobs in this telemetry store (crash-safe recovery)",
    )
    serve.add_argument(
        "--spool-dir",
        default=None,
        metavar="DIR",
        help="spool upload bytes here for crash recovery "
        "(default: <db>.spool next to --db)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="re-run jobs interrupted by a crash and warm the result "
        "cache from the journal (requires --db)",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject faults from this JSON plan (chaos testing)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds to wait for in-flight jobs on SIGINT/SIGTERM",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log requests to stderr"
    )

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument(
        "number",
        type=_table_id,
        choices=_TABLE_IDS,
        metavar="{1..11,5W,6W,W}",
        help="a paper table number, a WebRTC era table (5W = localhost "
        "leaks, 6W = LAN leaks), or W (pre-M74 vs mDNS era comparison)",
    )
    table.add_argument("--scale", type=float, default=_DEFAULT_SCALE)
    table.add_argument(
        "--webrtc-policy",
        choices=("pre-m74", "mdns"),
        default="mdns",
        help="policy era for tables 5W/6W (W always renders both eras)",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=range(2, 10))
    figure.add_argument("--scale", type=float, default=_DEFAULT_SCALE)

    report = sub.add_parser(
        "report", help="run the full study and emit one report document"
    )
    report.add_argument("--scale", type=float, default=_DEFAULT_SCALE)
    report.add_argument(
        "--output", "-o", default=None, help="write the report to a file"
    )

    validate = sub.add_parser(
        "validate",
        help="run the campaigns and score them against the paper's numbers",
    )
    validate.add_argument("--scale", type=float, default=_DEFAULT_SCALE)

    lint = sub.add_parser(
        "lint",
        help="lint a seeded site for local network requests (§5.4)",
    )
    lint.add_argument("domain", help="a domain from the seeded populations")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_analyze(
    paths: "Sequence[str]",
    *,
    as_json: bool = False,
    jobs: int | None = None,
) -> int:
    if len(paths) > 1:
        if as_json:
            print(
                "error: --json emits one canonical report document and "
                "takes exactly one file",
                file=sys.stderr,
            )
            return EXIT_USAGE
        return _cmd_analyze_many(paths, jobs=jobs)
    path = paths[0]
    if as_json:
        return _cmd_analyze_json(path)
    stats = ParseStats()
    # Stream the document through the detection sink: events fold into
    # flows as they decode, so analysis memory is bounded by the number
    # of open flows, not the document size.  ``require_events`` keeps the
    # historical exit code 2 for well-formed JSON that is not a NetLog
    # document, while truncated documents still salvage.  Bytes mode lets
    # the streaming layer sniff the document format from its magic byte.
    sink = LocalTrafficDetector().sink()
    try:
        with open(path, "rb") as fp:
            for event in iter_events_streaming(
                fp, strict=False, stats=stats, require_events=True
            ):
                sink.accept(event)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetLogParseError as exc:
        print(f"error: not a NetLog document: {exc}", file=sys.stderr)
        return EXIT_USAGE

    detection = sink.finish()
    print(f"{stats.parsed} events, {detection.total_flows} request flows")
    if stats.damaged:
        # Diagnostics go to stderr so piped stdout stays clean results.
        print(
            f"warning: damaged NetLog salvaged — {stats.describe()}",
            file=sys.stderr,
        )
    if not detection.has_local_activity:
        print("no localhost or LAN traffic detected")
        return EXIT_OK
    print(f"{len(detection.requests)} locally-bound requests:")
    for request in detection.requests:
        note = " (via redirect)" if request.via_redirect else ""
        print(
            f"  [{request.locality.value:<9}] "
            f"{request.scheme}://{request.host}:{request.port}"
            f"{request.path}{note}"
        )
    verdict = BehaviorClassifier().classify(detection.requests)
    print(f"classification: {verdict.behavior.value}")
    if verdict.match:
        print(f"signature: {verdict.signature_name} "
              f"({verdict.match.confidence:.0%}) — {verdict.match.detail}")
    return EXIT_OK


def _cmd_analyze_many(paths: "Sequence[str]", *, jobs: int | None) -> int:
    """``repro analyze A B C``: one summary line per document.

    The per-document parse + detection fans out across ``--jobs`` worker
    processes; output order is always input order, so the listing is
    byte-identical at any worker count.
    """
    from .netlog.parallel import analyze_paths

    summaries = analyze_paths(paths, jobs=jobs)
    failed = 0
    for summary in summaries:
        if summary.error is not None:
            failed += 1
            print(f"error: {summary.path}: {summary.error}", file=sys.stderr)
            continue
        behavior = summary.behavior or "no-local-traffic"
        line = (
            f"{summary.path}: {summary.stats.parsed} events, "
            f"{summary.total_flows} flows, "
            f"{summary.local_requests} local requests, {behavior}"
        )
        if summary.stats.damaged:
            line += f" [damaged: {summary.stats.describe()}]"
        print(line)
    return EXIT_USAGE if failed else EXIT_OK


def _cmd_netlog_convert(source: str, dest: str, to: str | None) -> int:
    """``repro netlog convert IN OUT``: lossless format transcoding."""
    import os

    from .netlog.codec import codec_for_suffix, get_codec
    from .netlog.convert import convert

    if to is None:
        suffix = os.path.splitext(dest)[1]
        codec = codec_for_suffix(suffix)
        if codec is None:
            print(
                f"error: cannot infer target format from {dest!r} "
                "(use a .json/.nlbin suffix or pass --to)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        to = codec.name
    try:
        with open(source, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        print(f"error: cannot read {source}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        document = convert(data, to)
    except NetLogParseError as exc:
        print(
            f"error: {source} is not a convertible NetLog document: {exc} "
            "(repair damaged documents with `repro fsck` first)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    payload = (
        document if isinstance(document, bytes) else document.encode("utf-8")
    )
    try:
        if dest == "-":
            sys.stdout.buffer.write(payload)
        else:
            with open(dest, "wb") as fp:
                fp.write(payload)
    except OSError as exc:
        print(f"error: cannot write {dest}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if dest != "-":
        codec = get_codec(to)
        print(
            f"{source} -> {dest} ({codec.name}, {len(payload)} bytes)",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_analyze_json(path: str) -> int:
    """``repro analyze --json``: the serve byte-identity contract.

    stdout carries exactly the canonical report text — the same bytes
    ``POST /v1/analyze`` returns for the same upload — so the chaos
    bench can diff the two without normalisation.
    """
    from .serve.report import ReportError, analyze_report, render_report

    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        document = analyze_report(data)
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if document["parse"]["damaged"]:
        parse = document["parse"]
        print(
            "warning: damaged NetLog salvaged — "
            f"{parse['events']} events recovered, "
            f"{parse['dropped_malformed']} malformed dropped, "
            f"{parse['checksum_failures']} checksum failures"
            + (", truncated" if parse["truncated"] else ""),
            file=sys.stderr,
        )
    sys.stdout.write(render_report(document))
    return EXIT_OK


def _population(
    population_name: str, scale: float, webrtc_policy: str | None = None
):
    if population_name == "malicious":
        return build_malicious_population(scale=scale)
    year = 2020 if population_name == "top2020" else 2021
    return build_top_population(year, scale=scale, webrtc_policy=webrtc_policy)


def _campaign(
    population_name: str, scale: float, webrtc_policy: str | None = None
) -> CampaignResult:
    return run_campaign(_population(population_name, scale, webrtc_policy))


@contextmanager
def _study_observability(
    total_visits: int,
    metrics_out: str | None,
    trace_out: str | None,
    meta: dict,
) -> Iterator[tuple]:
    """The progress line and optional metrics/trace outputs of one study.

    Yields ``(progress, sink)``: the :class:`ProgressLine`, and the
    :class:`PeriodicSink` that keeps the ``metrics_out`` snapshot at most
    30 s stale during a long campaign (None without ``metrics_out``).  On
    exit, however the study ends, the progress line finishes, the final
    snapshot and the trace are written and their paths printed, and
    observability is switched off again.
    """
    from . import obs
    from .obs.export import PeriodicSink, write_trace
    from .obs.progress import ProgressLine

    observing = metrics_out is not None or trace_out is not None
    if observing:
        obs.enable()
    progress = ProgressLine(total_visits)
    sink = (
        PeriodicSink(metrics_out, obs.registry(), meta=meta)
        if metrics_out is not None
        else None
    )
    try:
        yield progress, sink
    finally:
        progress.finish()
        if observing:
            try:
                if sink is not None:
                    sink.close()
                    print(
                        f"metrics snapshot written to {metrics_out}",
                        file=sys.stderr,
                    )
                if trace_out is not None:
                    write_trace(trace_out, obs.tracer())
                    print(f"trace written to {trace_out}", file=sys.stderr)
            finally:
                obs.disable()


def _cmd_study(
    population_name: str,
    scale: float,
    *,
    webrtc_policy: str | None = None,
    retries: int = 1,
    db: str | None = None,
    resume: bool = False,
    netlog_dir: str | None = None,
    netlog_format: str | None = None,
    fault_plan: str | None = None,
    workers: int = 0,
    shards: int | None = None,
    shard_dir: str | None = None,
    visit_deadline: float | None = None,
    quarantine_after: int = 3,
    wall_deadline: float = 5.0,
    metrics_out: str | None = None,
    trace_out: str | None = None,
) -> int:
    from .crawler.campaign import Campaign
    from .crawler.executor import CampaignInterrupted, ExecutorConfig
    from .crawler.retry import RetryPolicy
    from .faults import FaultPlan
    from .netlog.archive import NetLogArchive
    from .storage.db import TelemetryStore

    if resume and db is None:
        print("error: --resume requires --db", file=sys.stderr)
        return EXIT_USAGE
    if webrtc_policy is not None and population_name == "malicious":
        print(
            "error: --webrtc-policy applies to top-list populations only "
            "(the malicious sets carry no WebRTC seeds)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if retries < 1:
        print(
            f"error: --retries must be >= 1 (got {retries}; "
            "1 = single attempt, no retries)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if workers < 0:
        print(
            f"error: --workers must be >= 0 (got {workers}; "
            "a compatibility alias: any N >= 0 runs the same one-at-a-time "
            "supervised loop)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if shards is not None and shards < 0:
        print(
            f"error: --shards must be >= 0 (got {shards}; "
            "0 = auto-size from os.cpu_count())",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if shards is not None and workers:
        print(
            "error: --shards and --workers are mutually exclusive "
            "(shards parallelise across processes; each shard crawls "
            "its chunks sequentially)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if shard_dir is not None and shards is None:
        print("error: --shard-dir requires --shards", file=sys.stderr)
        return EXIT_USAGE
    plan: FaultPlan | None = None
    if fault_plan is not None:
        try:
            with open(fault_plan) as fp:
                plan = FaultPlan.load(fp)
        except OSError as exc:
            print(f"error: cannot read fault plan: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            # Plan validation raises one actionable line naming the bad
            # field/kind — show it verbatim, never a traceback.
            print(f"error: invalid fault plan: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if shards is not None:
        return _run_sharded_study(
            population_name,
            scale,
            webrtc_policy=webrtc_policy,
            shards=shards,
            shard_dir=shard_dir,
            retries=retries,
            db=db,
            resume=resume,
            netlog_dir=netlog_dir,
            netlog_format=netlog_format,
            plan=plan,
            metrics_out=metrics_out,
            trace_out=trace_out,
        )

    try:
        executor_config = ExecutorConfig(
            visit_deadline_ms=visit_deadline,
            quarantine_after=quarantine_after,
            wall_deadline_s=wall_deadline,
            handle_signals=True,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Progress/diagnostic chatter goes to stderr; stdout carries only
    # the study results so they can be piped or diffed.
    print(f"crawling {population_name} at scale {scale:.1%} ...", file=sys.stderr)
    population = _population(population_name, scale, webrtc_policy)
    with _study_observability(
        len(population.websites) * len(population.oses),
        metrics_out,
        trace_out,
        {"population": population_name, "scale": scale, "workers": workers},
    ) as (progress, sink):

        def _on_visit(record) -> None:
            progress.update(error=not record.success)
            if sink is not None:
                sink.tick()

        store = TelemetryStore(db) if db is not None else None
        campaign = Campaign(
            store=store,
            retry_policy=RetryPolicy(max_attempts=retries),
            fault_plan=plan,
            # The gate only matters when outages can happen.
            check_connectivity=plan is not None,
            checkpoint_every=100 if store is not None else 0,
            executor=executor_config,
            netlog_archive=(
                NetLogArchive(netlog_dir) if netlog_dir is not None else None
            ),
            netlog_format=netlog_format,
            on_visit=_on_visit,
        )
        try:
            result = campaign.run(population, resume=resume)
        except CampaignInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return EXIT_INTERRUPTED
        except ValueError as exc:
            # Configuration rejected at run time (e.g. a visit deadline
            # below the monitor window).
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            if store is not None:
                store.commit()
                store.close()

    ex = campaign.last_executor.stats
    print(
        f"supervision: {ex.dispatched} visits, "
        f"{ex.deadline_cancelled} hangs cancelled, "
        f"{ex.deadline_exceeded} over simulated budget, "
        f"{ex.quarantined} quarantined"
    )
    if store is not None and ex.quarantined:
        print(
            "quarantined visits are parked in the dead-letter queue — "
            "inspect with: repro deadletter list --db", db,
            file=sys.stderr,
        )

    retried = sum(s.retried for s in result.stats.values())
    recovered = sum(s.recovered for s in result.stats.values())
    skipped = sum(s.skipped for s in result.stats.values())
    if retries > 1 or plan is not None or retried:
        print(
            f"resilience: {retried} visits retried, "
            f"{recovered} recovered, {skipped} skipped on connectivity"
        )
    if campaign.archive_failures:
        print(
            f"warning: {campaign.archive_failures} NetLog document(s) lost "
            "to archive write failures — audit with: repro fsck --db ... "
            f"--netlog-dir {netlog_dir}",
            file=sys.stderr,
        )
    injector = campaign.last_injector
    if injector is not None and injector.injected_total():
        injected = ", ".join(
            f"{kind.value}={count}"
            for kind, count in sorted(
                injector.injected.items(), key=lambda kv: kv[0].value
            )
        )
        print(f"injected faults: {injected}")
    _print_study_summary(result)
    return EXIT_OK


def _print_study_summary(result: CampaignResult) -> None:
    summary = rq1.summarize_activity(result.findings, Locality.LOCALHOST)
    lan = [f for f in result.findings if f.has_lan_activity]
    print(f"localhost-active sites: {summary.total_sites}")
    print(f"per OS: {summary.per_os}")
    print(f"LAN-active sites: {len(lan)}")
    print("behaviour classes:")
    for behavior, count in sorted(
        rq3.behavior_counts(result.findings, Locality.LOCALHOST).items(),
        key=lambda kv: -kv[1],
    ):
        print(f"  {behavior.value:<24}{count:>5}")


def _run_sharded_study(
    population_name: str,
    scale: float,
    *,
    webrtc_policy: str | None = None,
    shards: int,
    shard_dir: str | None,
    retries: int,
    db: str | None,
    resume: bool,
    netlog_dir: str | None,
    netlog_format: str | None,
    plan,
    metrics_out: str | None,
    trace_out: str | None,
) -> int:
    """``repro study --shards N``: the crash-tolerant sharded fabric.

    Each shard is a spawned worker process with its own WAL-mode store;
    the coordinator supervises them (heartbeats, bounded restart with
    resume, work stealing) and folds every shard store into one rollup
    whose Table 1/Table 5 content is byte-identical to a serial run.
    """
    import tempfile

    from .crawler.executor import CampaignInterrupted
    from .crawler.fabric import (
        CrawlFabric,
        FabricConfig,
        FabricError,
        resolve_shards,
    )
    from .crawler.shard import PopulationSpec

    resolved = resolve_shards(shards)
    cleanup: tempfile.TemporaryDirectory | None = None
    if shard_dir is None:
        if db is not None:
            shard_dir = db + ".shards"
        else:
            cleanup = tempfile.TemporaryDirectory(prefix="repro-shards-")
            shard_dir = cleanup.name
    spec = PopulationSpec(
        population=population_name, scale=scale, webrtc_policy=webrtc_policy
    )
    print(
        f"crawling {population_name} at scale {scale:.1%} across "
        f"{resolved} shard processes ...",
        file=sys.stderr,
    )
    population = _population(population_name, scale, webrtc_policy)
    with _study_observability(
        len(population.websites) * len(population.oses),
        metrics_out,
        trace_out,
        {"population": population_name, "scale": scale, "shards": resolved},
    ) as (progress, sink):
        reported = 0

        def _on_progress(total_visits: int) -> None:
            # The fabric reports cumulative fresh visits across all
            # shards; feed the delta into the per-visit progress line.
            nonlocal reported
            for _ in range(max(total_visits - reported, 0)):
                progress.update()
            reported = max(reported, total_visits)
            if sink is not None:
                sink.tick()

        fabric = CrawlFabric(
            spec,
            FabricConfig(
                shards=resolved,
                retries=retries,
                check_connectivity=plan is not None,
                netlog_format=netlog_format,
            ),
            workdir=shard_dir,
            rollup_path=db,
            archive_root=netlog_dir,
            fault_plan=plan,
            on_visit=_on_progress,
        )
        try:
            outcome = fabric.run(resume=resume)
        except CampaignInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return EXIT_INTERRUPTED
        except (FabricError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            if cleanup is not None:
                cleanup.cleanup()

    report = outcome.report
    restart_note = ""
    if report.total_restarts:
        reasons = [
            reason
            for causes in report.restarts.values()
            for reason in causes
        ]
        restart_note = (
            f", {report.total_restarts} restarts "
            f"({', '.join(sorted(set(reasons)))})"
        )
    print(
        f"fabric: {resolved} shard processes, {report.chunks} chunks, "
        f"{report.steals} stolen{restart_note}; merged "
        f"{report.rows_merged} rows "
        f"({report.duplicate_rows} duplicates verified identical)"
    )
    if report.dead_shards:
        print(
            f"warning: shard(s) {report.dead_shards} exhausted their "
            "restart budget; their work was reassigned",
            file=sys.stderr,
        )
    _print_study_summary(outcome.result)
    return EXIT_OK


def _cmd_deadletter(
    dl_command: str,
    db: str,
    *,
    crawl: str | None = None,
    domain: str | None = None,
) -> int:
    import os
    import sqlite3

    from .browser.errors import NetError, table1_bucket
    from .storage.db import TelemetryStore

    if not os.path.exists(db):
        print(f"error: no such database: {db}", file=sys.stderr)
        return EXIT_USAGE
    try:
        store = TelemetryStore(db)
    except sqlite3.DatabaseError as exc:
        print(f"error: not a telemetry database: {db}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with store:
        if dl_command == "list":
            letters = store.dead_letters(crawl)
            if not letters:
                print("dead-letter queue is empty")
                return EXIT_OK
            print(f"{'crawl':<12}{'os':<9}{'domain':<28}{'failures':>9}  reason")
            for letter in letters:
                try:
                    bucket = table1_bucket(NetError(letter.error))
                except ValueError:
                    bucket = str(letter.error)
                print(
                    f"{letter.crawl:<12}{letter.os_name:<9}"
                    f"{letter.domain:<28}{letter.failures:>9}  "
                    f"[{bucket}] {letter.reason}"
                )
            return EXIT_OK
        if not store.dead_letters(crawl):
            # Empty queue is a success, not an error: there is simply
            # nothing to re-attempt.
            print("dead-letter queue is empty — nothing to retry")
            return EXIT_OK
        requeued = store.requeue_dead_letters(crawl, domain)
        if requeued == 0:
            print("no quarantined visits match the given filters")
            return EXIT_OK
        print(
            f"re-queued {requeued} visit(s); run the study again with "
            "--resume to re-attempt them"
        )
        return EXIT_OK


def _cmd_fsck(
    db: str,
    *,
    netlog_dir: str | None = None,
    crawl: str | None = None,
    repair: bool = False,
    population_name: str | None = None,
    scale: float = _DEFAULT_SCALE,
    webrtc_policy: str | None = None,
    as_json: bool = False,
    jobs: int | None = None,
) -> int:
    import json
    import os
    import sqlite3

    from .netlog.archive import NetLogArchive
    from .storage.db import TelemetryStore
    from .storage.integrity import Revisiter, fsck, population_revisiter

    if not os.path.exists(db):
        print(f"error: no such database: {db}", file=sys.stderr)
        return EXIT_USAGE
    if netlog_dir is not None and not os.path.isdir(netlog_dir):
        print(f"error: no such archive directory: {netlog_dir}", file=sys.stderr)
        return EXIT_USAGE
    archive = NetLogArchive(netlog_dir) if netlog_dir is not None else None
    try:
        store = TelemetryStore(db)
    except sqlite3.DatabaseError as exc:
        print(f"error: not a telemetry database: {db}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with store:
        revisit: Revisiter | None = None
        if repair and population_name is not None:
            revisit = population_revisiter(
                _population(population_name, scale, webrtc_policy),
                store,
                archive,
            )
        report = fsck(
            store,
            archive,
            crawl=crawl,
            repair=repair,
            revisit=revisit,
            jobs=jobs,
        )
        if as_json:
            print(json.dumps(report.to_json(), indent=2))
        else:
            print(report.render())
        if not report.ok:
            if not repair:
                print(
                    "rerun with --repair (and --population for tier-2 "
                    "re-visits) to repair",
                    file=sys.stderr,
                )
            return EXIT_ISSUES
        return EXIT_OK


def _cmd_metrics(path: str) -> int:
    from .obs.export import SnapshotError, load_snapshot, render_snapshot

    try:
        document = load_snapshot(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SnapshotError as exc:
        print(f"error: not a metrics snapshot: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(render_snapshot(document))
    return EXIT_OK


def _cmd_serve(
    *,
    host: str,
    port: int,
    workers: int,
    backlog: int,
    max_bytes: int,
    job_deadline: float,
    read_timeout: float,
    db: str | None,
    spool_dir: str | None,
    resume: bool,
    fault_plan: str | None,
    drain_timeout: float,
    verbose: bool,
) -> int:
    """``repro serve``: run the analysis daemon until SIGINT/SIGTERM.

    A graceful signal drain (stop admitting → finish in-flight →
    flush journal) exits ``EXIT_OK``; a drain that times out with
    wedged workers exits ``EXIT_ISSUES``.
    """
    import os
    import signal
    import tempfile
    import threading

    from . import obs
    from .faults import FaultInjector, FaultPlan
    from .serve.engine import EngineConfig, JobEngine
    from .serve.http import ReproServer, ServerConfig
    from .storage.db import TelemetryStore
    from .storage.jobs import JobJournal

    if resume and db is None:
        print("error: --resume requires --db", file=sys.stderr)
        return EXIT_USAGE
    injector: FaultInjector | None = None
    if fault_plan is not None:
        try:
            with open(fault_plan) as fp:
                injector = FaultInjector(plan=FaultPlan.load(fp))
        except OSError as exc:
            print(f"error: cannot read fault plan: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"error: invalid fault plan: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        engine_config = EngineConfig(
            workers=workers,
            backlog=backlog,
            job_deadline_s=job_deadline,
        )
        server_config = ServerConfig(
            host=host,
            port=port,
            max_bytes=max_bytes,
            read_timeout_s=read_timeout,
            verbose=verbose,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # /metricsz is part of the surface, so the daemon always observes.
    obs.enable()
    store: TelemetryStore | None = None
    journal: JobJournal | None = None
    spool_cleanup: tempfile.TemporaryDirectory | None = None
    if db is not None:
        store = TelemetryStore(db, serialized=True, wal=True)
        journal = JobJournal(
            store,
            write_fault_hook=(
                injector.journal_write_hook if injector is not None else None
            ),
        )
        if spool_dir is None:
            spool_dir = db + ".spool"
    elif spool_dir is None:
        spool_cleanup = tempfile.TemporaryDirectory(prefix="repro-serve-spool-")
        spool_dir = spool_cleanup.name

    engine = JobEngine(
        engine_config, journal=journal, spool_dir=spool_dir, injector=injector
    )
    if resume:
        recovered, cached = engine.resume()
        print(
            f"resumed: {recovered} interrupted job(s) re-queued, "
            f"{cached} cached report(s) warmed",
            file=sys.stderr,
        )
    try:
        server = ReproServer(engine, server_config, injector=injector)
    except OSError as exc:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        if store is not None:
            store.close()
        return EXIT_USAGE

    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
    }
    drained = True
    try:
        server.start()
        print(f"serving on {server.url} (pid {os.getpid()})", file=sys.stderr)
        while not stop.wait(0.5):
            pass
        print("signal received: draining ...", file=sys.stderr)
        drained = server.drain(drain_timeout)
        if not drained:
            print(
                "warning: drain deadline expired with wedged worker(s)",
                file=sys.stderr,
            )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if store is not None:
            store.close()
        if spool_cleanup is not None:
            spool_cleanup.cleanup()
        obs.disable()
    return EXIT_OK if drained else EXIT_ISSUES


def _cmd_table(
    table_id: str, scale: float, webrtc_policy: str = "mdns"
) -> int:
    if table_id in ("5W", "6W"):
        result = _campaign("top2020", scale, webrtc_policy)
        renderer = tables.table_5w if table_id == "5W" else tables.table_6w
        print(renderer(result.findings).text)
        return EXIT_OK
    if table_id == "W":
        findings_by_policy = {
            policy: _campaign("top2020", scale, policy).findings
            for policy in ("pre-m74", "mdns")
        }
        print(tables.table_webrtc_era(findings_by_policy).text)
        return EXIT_OK
    number = int(table_id)
    if number == 4:
        print(tables.table_4().text)
        return EXIT_OK
    if number in (1,):
        result_2020 = _campaign("top2020", scale)
        result_2021 = _campaign("top2021", scale)
        result_malicious = _campaign("malicious", scale / 2)
        stats = (
            list(result_2020.stats.values())
            + list(result_2021.stats.values())
            + list(result_malicious.stats.values())
        )
        print(tables.table_1(stats).text)
        return EXIT_OK
    if number in (2, 8, 9):
        result = _campaign("malicious", scale)
        if number == 2:
            sizes = {
                "malware": S.MALWARE_COUNT,
                "abuse": S.ABUSE_COUNT,
                "phishing": S.PHISHING_COUNT,
            }
            print(tables.table_2(result.findings, result.stats, sizes).text)
        elif number == 8:
            print(tables.table_8(result.findings).text)
        else:
            print(tables.table_9(result.findings).text)
        return EXIT_OK
    if number in (7, 10):
        result_2021 = _campaign("top2021", scale)
        if number == 10:
            print(tables.table_10(result_2021.findings).text)
            return EXIT_OK
        result_2020 = _campaign("top2020", scale)
        print(tables.table_7(result_2021.findings, result_2020.findings).text)
        return EXIT_OK
    result = _campaign("top2020", scale)
    renderer = {
        3: tables.table_3,
        5: tables.table_5,
        6: tables.table_6,
        11: tables.table_11,
    }[number]
    print(renderer(result.findings).text)
    return EXIT_OK


def _cmd_figure(number: int, scale: float) -> int:
    if number in (6, 8, 9):
        result = _campaign("top2021", scale)
        renderer = {
            6: figures.figure_6,
            8: figures.figure_8,
            9: figures.figure_9,
        }[number]
        print(renderer(result.findings).text)
        return EXIT_OK
    if number == 7:
        result = _campaign("malicious", scale)
        print(figures.figure_7(result.findings).text)
        return EXIT_OK
    result = _campaign("top2020", scale)
    if number == 2:
        print(figures.figure_2(result.findings).text)
        malicious = _campaign("malicious", scale)
        print(figures.figure_2(malicious.findings, name="Figure 2b").text)
    elif number == 3:
        print(figures.figure_3(result.findings).text)
    elif number == 4:
        malicious = _campaign("malicious", scale)
        print(figures.figure_4(result.findings, malicious.findings).text)
    elif number == 5:
        print(figures.figure_5(result.findings).text)
    return EXIT_OK


def _cmd_report(scale: float, output: str | None) -> int:
    from .analysis.report_doc import StudyResults, render_report

    results = StudyResults(
        top2020=_campaign("top2020", scale),
        top2021=_campaign("top2021", scale),
        malicious=_campaign("malicious", scale / 2),
    )
    text = render_report(results)
    if output:
        with open(output, "w") as fp:
            fp.write(text + "\n")
        print(f"report written to {output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_validate(scale: float) -> int:
    from .analysis.validate import validate

    failures = 0
    for population_name in ("top2020", "top2021", "malicious"):
        print(f"\n== {population_name} (scale {scale:.1%}) ==")
        result = _campaign(population_name, scale)
        card = validate(result)
        print(card.render())
        failures += card.failed
    return 0 if failures == 0 else 1


def _cmd_lint(domain: str) -> int:
    from .defense.devlint import lint_website

    for builder, kwargs in (
        (build_top_population, {"year": 2020}),
        (build_top_population, {"year": 2021}),
        (build_malicious_population, {}),
    ):
        population = builder(scale=0.001, **kwargs)  # type: ignore[operator]
        if domain in population.by_domain:
            report = lint_website(population.website(domain))
            print(report.render())
            return EXIT_OK
    print(f"error: {domain} is not in any seeded population", file=sys.stderr)
    return EXIT_USAGE


_CHAOS_DRIVERS = ("campaign", "supervised", "fabric", "serve")


def _cmd_chaos_run(
    *,
    seed: str,
    budget: int,
    scale: float,
    drivers: str | None,
    report_path: str | None,
    repro_dir: str | None,
) -> int:
    """Coverage-guided conformance sweep.

    ``EXIT_OK`` only when every registered seam fired and every invariant
    held; any violation (with its shrunk repro on disk, if ``--repro-dir``
    was given) or uncovered seam exits ``EXIT_ISSUES``.
    """
    import json
    import shutil
    import tempfile

    from repro.chaos.drivers import ChaosContext, build_drivers
    from repro.chaos.engine import ChaosEngine, EngineBudget, render_coverage
    from repro.chaos.registry import SeamDriftError

    if budget < 1:
        print("error: --budget must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not 0.0 < scale <= 1.0:
        print("error: --scale must be in (0, 1]", file=sys.stderr)
        return EXIT_USAGE
    selected = (
        _CHAOS_DRIVERS
        if drivers is None
        else tuple(name.strip() for name in drivers.split(",") if name.strip())
    )
    unknown = [name for name in selected if name not in _CHAOS_DRIVERS]
    if unknown or not selected:
        print(
            "error: --drivers must be a comma-separated subset of "
            + ",".join(_CHAOS_DRIVERS),
            file=sys.stderr,
        )
        return EXIT_USAGE

    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        ctx = ChaosContext(workdir=workdir, scale=scale)
        driver_map = {
            name: driver
            for name, driver in build_drivers(ctx).items()
            if name in selected
        }
        try:
            engine = ChaosEngine(
                ctx,
                seed=seed,
                budget=EngineBudget(max_schedules=budget),
                repro_dir=repro_dir,
                drivers=driver_map,
                progress=lambda line: print(f"chaos: {line}", file=sys.stderr),
            )
        except SeamDriftError as exc:
            print(f"error: seam registry drift: {exc}", file=sys.stderr)
            return EXIT_ISSUES
        try:
            report = engine.run()
        except KeyboardInterrupt:
            print("chaos: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = report.to_json()
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(render_coverage(record), end="")
    if not report.ok:
        return EXIT_ISSUES
    return EXIT_OK


def _cmd_chaos_coverage(path: str) -> int:
    """Render a saved coverage report; ``EXIT_ISSUES`` when it records
    violations or incomplete seam coverage, so it can gate CI."""
    import json

    from repro.chaos.engine import render_coverage

    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read coverage report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: invalid coverage report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(render_coverage(record), end="")
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid coverage report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if record.get("violations") or record.get("coverage_percent", 0) < 100.0:
        return EXIT_ISSUES
    return EXIT_OK


def _cmd_chaos_replay(path: str, *, scale: float) -> int:
    """Re-run a minimal repro plan on its driver.

    ``EXIT_ISSUES`` when the recorded invariant violation still
    reproduces (the bug is alive), ``EXIT_OK`` when it no longer does.
    """
    import shutil
    import tempfile

    from repro.chaos.drivers import ChaosContext
    from repro.chaos.engine import ChaosEngine
    from repro.chaos.shrink import MinimalRepro

    try:
        repro = MinimalRepro.load(path)
    except OSError as exc:
        print(f"error: cannot read repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: invalid repro: {exc}", file=sys.stderr)
        return EXIT_USAGE

    workdir = tempfile.mkdtemp(prefix="repro-chaos-replay-")
    try:
        ctx = ChaosContext(workdir=workdir, scale=scale)
        engine = ChaosEngine(ctx, seed=repro.engine_seed)
        try:
            violations = engine.replay(repro)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except KeyboardInterrupt:
            print("chaos: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plan_text = ", ".join(
        f"{spec.kind.value}(rate={spec.rate}, times={spec.times})"
        for spec in repro.plan.faults
    )
    reproduced = [v for v in violations if v.invariant == repro.invariant]
    if reproduced:
        print(
            f"reproduced: {repro.invariant} under [{plan_text}] "
            f"on driver {repro.driver} — {reproduced[0].detail}"
        )
        return EXIT_ISSUES
    print(
        f"not reproduced: {repro.invariant} no longer fires under "
        f"[{plan_text}] on driver {repro.driver}"
    )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args.netlog, as_json=args.json, jobs=args.jobs)
    if args.command == "netlog":
        return _cmd_netlog_convert(args.source, args.dest, args.to)
    if args.command == "serve":
        return _cmd_serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            backlog=args.backlog,
            max_bytes=args.max_bytes,
            job_deadline=args.job_deadline,
            read_timeout=args.read_timeout,
            db=args.db,
            spool_dir=args.spool_dir,
            resume=args.resume,
            fault_plan=args.fault_plan,
            drain_timeout=args.drain_timeout,
            verbose=args.verbose,
        )
    if args.command == "study":
        return _cmd_study(
            args.population,
            args.scale,
            webrtc_policy=args.webrtc_policy,
            retries=args.retries,
            db=args.db,
            resume=args.resume,
            netlog_dir=args.netlog_dir,
            netlog_format=args.netlog_format,
            fault_plan=args.fault_plan,
            workers=args.workers,
            shards=args.shards,
            shard_dir=args.shard_dir,
            visit_deadline=args.visit_deadline,
            quarantine_after=args.quarantine_after,
            wall_deadline=args.wall_deadline,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        )
    if args.command == "deadletter":
        return _cmd_deadletter(
            args.dl_command, args.db, crawl=args.crawl,
            domain=getattr(args, "domain", None),
        )
    if args.command == "chaos":
        if args.chaos_command == "run":
            return _cmd_chaos_run(
                seed=args.seed,
                budget=args.budget,
                scale=args.scale,
                drivers=args.drivers,
                report_path=args.report,
                repro_dir=args.repro_dir,
            )
        if args.chaos_command == "coverage":
            return _cmd_chaos_coverage(args.report)
        return _cmd_chaos_replay(args.repro, scale=args.scale)
    if args.command == "fsck":
        return _cmd_fsck(
            args.db,
            netlog_dir=args.netlog_dir,
            crawl=args.crawl,
            repair=args.repair,
            population_name=args.population,
            scale=args.scale,
            webrtc_policy=args.webrtc_policy,
            as_json=args.json,
            jobs=args.jobs,
        )
    if args.command == "metrics":
        return _cmd_metrics(args.snapshot)
    if args.command == "table":
        return _cmd_table(args.number, args.scale, args.webrtc_policy)
    if args.command == "figure":
        return _cmd_figure(args.number, args.scale)
    if args.command == "report":
        return _cmd_report(args.scale, args.output)
    if args.command == "validate":
        return _cmd_validate(args.scale)
    if args.command == "lint":
        return _cmd_lint(args.domain)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
