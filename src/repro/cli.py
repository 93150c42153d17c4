"""The ``repro`` command line (``python -m repro.cli``); every subcommand
and option is listed in docs/API.md.

Every subcommand is one handler that takes the parsed namespace.  A
handler that cannot run raises :class:`UsageError`; :func:`main` alone
turns it into ``error:`` lines and ``EXIT_USAGE``.  What a handler opens
(stores, temporary directories, observability, signal handlers) it
registers on ``args.cleanup``, which :func:`main` closes after reporting
the outcome, so an error line precedes any closing chatter.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence

from .analysis import figures, rq1, rq3, tables
from .core.addresses import Locality
from .core.document import analyze_document
from .crawler.campaign import CampaignResult, run_campaign
from .crawler.shard import PopulationSpec
from .netlog import NetLogParseError
from .web import seeds as S

_DEFAULT_SCALE = 0.02

#: Exit codes, uniform across every subcommand (docs/API.md has the
#: table): ``EXIT_ISSUES`` — the command ran and found real problems;
#: ``EXIT_USAGE`` — it could not run (see :class:`UsageError`);
#: ``EXIT_INTERRUPTED`` — 128 + SIGINT, after checkpointing.  A graceful
#: daemon drain on a signal is ``EXIT_OK``, the daemon's normal exit.
EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

#: Valid ``repro table`` identifiers: the paper's 1–11 plus the WebRTC
#: era tables (5W/6W) and the era-comparison table (W).
_TABLE_IDS = tuple(str(n) for n in range(1, 12)) + ("5W", "6W", "W")

#: Options several subcommands declare identically.
_SCALE = {"type": float, "default": _DEFAULT_SCALE}
_CHAOS_SCALE = {
    "type": float,
    "default": 0.001,
    "help": "population scale for the conformance campaigns",
}
_STORE = {"required": True, "metavar": "PATH"}
_FAULT_PLAN = {
    "default": None,
    "metavar": "PATH",
    "help": "inject faults from this JSON plan (chaos testing)",
}


class UsageError(Exception):
    """The request cannot run: bad flags, unusable input or configuration.

    :func:`main` prints each argument as one ``error:`` line on stderr
    and exits ``EXIT_USAGE``.
    """


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
    analyze.set_defaults(run=_cmd_analyze)
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
    study.set_defaults(run=_cmd_study)
    study.add_argument(
        "--population",
        choices=("top2020", "top2021", "malicious"),
        default="top2020",
    )
    study.add_argument("--scale", **_SCALE)
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
    study.add_argument("--fault-plan", **_FAULT_PLAN)
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
    dl_list.set_defaults(run=_cmd_deadletter_list)
    dl_retry = dl_sub.add_parser(
        "retry",
        help="clear quarantine rows so a --resume run re-attempts them",
    )
    dl_retry.set_defaults(run=_cmd_deadletter_retry)
    for dl_command in (dl_list, dl_retry):
        dl_command.add_argument("--db", **_STORE)
        dl_command.add_argument("--crawl", default=None, help="filter by crawl name")
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
    chaos_run.set_defaults(run=_cmd_chaos_run)
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
    chaos_run.add_argument("--scale", **_CHAOS_SCALE)
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
    chaos_cov.set_defaults(run=_cmd_chaos_coverage)
    chaos_cov.add_argument("report", metavar="REPORT.json")
    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-run a shrunk minimal repro plan"
    )
    chaos_replay.set_defaults(run=_cmd_chaos_replay)
    chaos_replay.add_argument("repro", metavar="REPRO.json")
    chaos_replay.add_argument("--scale", **_CHAOS_SCALE)

    fsck = sub.add_parser(
        "fsck",
        help="audit (and repair) a campaign database + NetLog archive",
    )
    fsck.set_defaults(run=_cmd_fsck)
    fsck.add_argument("--db", **_STORE)
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
    fsck.add_argument("--scale", **_SCALE)
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
    nl_convert.set_defaults(run=_cmd_netlog_convert)
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
    metrics.set_defaults(run=_cmd_metrics)
    metrics.add_argument("snapshot", help="path to the JSON snapshot file")

    serve = sub.add_parser(
        "serve",
        help="run the local-traffic analysis daemon (POST NetLog uploads "
        "to /v1/analyze)",
    )
    serve.set_defaults(run=_cmd_serve)
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
    serve.add_argument("--fault-plan", **_FAULT_PLAN)
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
    table.set_defaults(run=_cmd_table)
    table.add_argument(
        "number",
        type=_table_id,
        choices=_TABLE_IDS,
        metavar="{1..11,5W,6W,W}",
        help="a paper table number, a WebRTC era table (5W = localhost "
        "leaks, 6W = LAN leaks), or W (pre-M74 vs mDNS era comparison)",
    )
    table.add_argument("--scale", **_SCALE)
    table.add_argument(
        "--webrtc-policy",
        choices=("pre-m74", "mdns"),
        default="mdns",
        help="policy era for tables 5W/6W (W always renders both eras)",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.set_defaults(run=_cmd_figure)
    figure.add_argument("number", type=int, choices=range(2, 10))
    figure.add_argument("--scale", **_SCALE)

    report = sub.add_parser(
        "report", help="run the full study and emit one report document"
    )
    report.set_defaults(run=_cmd_report)
    report.add_argument("--scale", **_SCALE)
    report.add_argument(
        "--output", "-o", default=None, help="write the report to a file"
    )

    validate = sub.add_parser(
        "validate",
        help="run the campaigns and score them against the paper's numbers",
    )
    validate.set_defaults(run=_cmd_validate)
    validate.add_argument("--scale", **_SCALE)

    lint = sub.add_parser(
        "lint",
        help="lint a seeded site for local network requests (§5.4)",
    )
    lint.set_defaults(run=_cmd_lint)
    lint.add_argument("domain", help="a domain from the seeded populations")

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fp:
            return fp.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _check_output(
    path: str | None, *, directory: bool = False, makedirs: bool = False
) -> None:
    """Refuse an unusable output location before any work starts.

    ``path`` names a file, or with ``directory`` a directory.  Its folder
    must exist, unless its writer creates missing folders itself
    (``makedirs``: stores, the NetLog archive); then the nearest existing
    ancestor must be a directory.
    """
    if path is None:
        return
    folder = os.path.abspath(path if directory else os.path.dirname(path))
    while makedirs and not os.path.lexists(folder):
        folder = os.path.dirname(folder)
    if not os.path.isdir(folder):
        problem = "is not a directory" if os.path.lexists(folder) else "does not exist"
        raise UsageError(f"cannot write {path}: {folder} {problem}")


def _load_fault_plan(path: str | None):
    from .faults import FaultPlan

    if path is None:
        return None
    try:
        with open(path) as fp:
            return FaultPlan.load(fp)
    except OSError as exc:
        raise UsageError(f"cannot read fault plan: {exc}") from None
    except ValueError as exc:
        # Plan validation raises one actionable line naming the bad
        # field/kind — show it verbatim, never a traceback.
        raise UsageError(f"invalid fault plan: {exc}") from None


def _open_store(args: argparse.Namespace, netlog_dir: str | None = None):
    """Open an existing campaign store (and check its archive directory)
    for the command's lifetime."""
    import sqlite3

    from .storage.db import TelemetryStore

    if not os.path.exists(args.db):
        raise UsageError(f"no such database: {args.db}")
    if netlog_dir is not None and not os.path.isdir(netlog_dir):
        raise UsageError(f"no such archive directory: {netlog_dir}")
    try:
        store = TelemetryStore(args.db)
    except sqlite3.DatabaseError as exc:
        raise UsageError(f"not a telemetry database: {args.db}: {exc}") from None
    return args.cleanup.enter_context(store)


def _population_spec(args: argparse.Namespace) -> PopulationSpec:
    """The population a study crawls, or an fsck re-visit rebuilds."""
    return PopulationSpec(args.population, args.scale, webrtc_policy=args.webrtc_policy)


def _campaign(
    population_name: str, scale: float, webrtc_policy: str | None = None
) -> CampaignResult:
    spec = PopulationSpec(population_name, scale, webrtc_policy=webrtc_policy)
    return run_campaign(spec.build())


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    paths = args.netlog
    if len(paths) > 1:
        if args.json:
            raise UsageError(
                "--json emits one canonical report document and takes "
                "exactly one file"
            )
        return _analyze_many(paths, args.jobs)
    path = paths[0]
    if args.json:
        return _analyze_json(path)
    try:
        with open(path, "rb") as fp:
            analysis = analyze_document(fp)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except NetLogParseError as exc:
        raise UsageError(f"not a NetLog document: {exc}") from None

    stats, detection = analysis.stats, analysis.detection
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
    verdict = analysis.verdict
    print(f"classification: {verdict.behavior.value}")
    if verdict.match:
        print(f"signature: {verdict.signature_name} "
              f"({verdict.match.confidence:.0%}) — {verdict.match.detail}")
    return EXIT_OK


def _analyze_many(paths: Sequence[str], jobs: int | None) -> int:
    """``repro analyze A B C``: one summary line per document.

    The per-document parse + detection fans out across ``--jobs`` worker
    processes; output order is always input order, so the listing is
    byte-identical at any worker count.
    """
    from .netlog.parallel import analyze_paths

    errors = []
    for summary in analyze_paths(paths, jobs=jobs):
        if summary.error is not None:
            errors.append(f"{summary.path}: {summary.error}")
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
    if errors:
        raise UsageError(*errors)
    return EXIT_OK


def _analyze_json(path: str) -> int:
    """``repro analyze --json``: the serve byte-identity contract.

    stdout carries exactly the canonical report text — the same bytes
    ``POST /v1/analyze`` returns for the same upload — so the chaos
    bench can diff the two without normalisation.
    """
    from .serve.report import ReportError, analyze_report, render_report

    try:
        document = analyze_report(_read_bytes(path))
    except ReportError as exc:
        raise UsageError(str(exc)) from None
    parse = document["parse"]
    if parse["damaged"]:
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


def _cmd_netlog_convert(args: argparse.Namespace) -> int:
    """``repro netlog convert IN OUT``: lossless format transcoding."""
    from .netlog.codec import codec_for_suffix
    from .netlog.convert import convert

    source, dest, to = args.source, args.dest, args.to
    if to is None:
        codec = codec_for_suffix(os.path.splitext(dest)[1])
        if codec is None:
            raise UsageError(
                f"cannot infer target format from {dest!r} "
                "(use a .json/.nlbin suffix or pass --to)"
            )
        to = codec.name
    data = _read_bytes(source)
    try:
        document = convert(data, to)
    except NetLogParseError as exc:
        raise UsageError(
            f"{source} is not a convertible NetLog document: {exc} "
            "(repair damaged documents with `repro fsck` first)"
        ) from None
    payload = (
        document if isinstance(document, bytes) else document.encode("utf-8")
    )
    try:
        if dest == "-":
            sys.stdout.buffer.write(payload)
            return EXIT_OK
        with open(dest, "wb") as fp:
            fp.write(payload)
    except OSError as exc:
        raise UsageError(f"cannot write {dest}: {exc}") from None
    print(f"{source} -> {dest} ({to}, {len(payload)} bytes)", file=sys.stderr)
    return EXIT_OK


@contextmanager
def _study_observability(
    args: argparse.Namespace, total_visits: int, meta: dict
) -> Iterator:
    """The progress line and optional metrics/trace outputs of one study.

    Yields ``advance(visits=1, *, error=False)``, which moves the
    :class:`ProgressLine` and lets the :class:`PeriodicSink` keep the
    ``--metrics-out`` snapshot at most 30 s stale during a long
    campaign.  On exit, however the study ends, the progress line
    finishes, the final snapshot and the trace are written and their
    paths printed, and observability is switched off again.
    """
    from . import obs
    from .obs.export import PeriodicSink, write_trace
    from .obs.progress import ProgressLine

    metrics_out, trace_out = args.metrics_out, args.trace_out
    observing = metrics_out is not None or trace_out is not None
    if observing:
        obs.enable()
    progress = ProgressLine(total_visits)
    sink = (
        PeriodicSink(metrics_out, obs.registry(), meta=meta)
        if metrics_out is not None
        else None
    )

    def advance(visits: int = 1, *, error: bool = False) -> None:
        for _ in range(visits):
            progress.update(error=error)
        if sink is not None:
            sink.tick()

    try:
        yield advance
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


def _cmd_study(args: argparse.Namespace) -> int:
    """``repro study``: one campaign, serial or through the sharded fabric.

    Both paths share the checks, the population, the observability and
    the summary; they differ in how visits run and what the line above
    the summary reports.
    """
    from .crawler.executor import CampaignInterrupted, ExecutorConfig
    from .crawler.fabric import FabricError, resolve_shards

    if args.resume and args.db is None:
        raise UsageError("--resume requires --db")
    if args.webrtc_policy is not None and args.population == "malicious":
        raise UsageError(
            "--webrtc-policy applies to top-list populations only "
            "(the malicious sets carry no WebRTC seeds)"
        )
    if args.retries < 1:
        raise UsageError(
            f"--retries must be >= 1 (got {args.retries}; "
            "1 = single attempt, no retries)"
        )
    if args.workers < 0:
        raise UsageError(
            f"--workers must be >= 0 (got {args.workers}; "
            "a compatibility alias: any N >= 0 runs the same one-at-a-time "
            "supervised loop)"
        )
    if args.shards is not None and args.shards < 0:
        raise UsageError(
            f"--shards must be >= 0 (got {args.shards}; "
            "0 = auto-size from os.cpu_count())"
        )
    if args.shards is not None and args.workers:
        raise UsageError(
            "--shards and --workers are mutually exclusive "
            "(shards parallelise across processes; each shard crawls "
            "its chunks sequentially)"
        )
    if args.shard_dir is not None and args.shards is None:
        raise UsageError("--shard-dir requires --shards")
    plan = _load_fault_plan(args.fault_plan)
    if args.shards is None:
        try:
            executor = ExecutorConfig(
                visit_deadline_ms=args.visit_deadline,
                quarantine_after=args.quarantine_after,
                wall_deadline_s=args.wall_deadline,
                handle_signals=True,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        across, meta = "", {"workers": args.workers}
    else:
        shards = resolve_shards(args.shards)
        across, meta = f" across {shards} shard processes", {"shards": shards}
    _check_output(args.db, makedirs=True)
    for directory in (args.netlog_dir, args.shard_dir):
        _check_output(directory, directory=True, makedirs=True)
    for path in (args.metrics_out, args.trace_out):
        _check_output(path)

    # Progress/diagnostic chatter goes to stderr; stdout carries only
    # the study results so they can be piped or diffed.
    print(
        f"crawling {args.population} at scale {args.scale:.1%}{across} ...",
        file=sys.stderr,
    )
    spec = _population_spec(args)
    population = spec.build()
    scope = args.cleanup.enter_context(ExitStack())
    advance = scope.enter_context(
        _study_observability(
            args,
            len(population.websites) * len(population.oses),
            {"population": args.population, "scale": args.scale, **meta},
        )
    )
    try:
        if args.shards is None:
            result = _run_campaign(args, population, plan, executor, scope, advance)
        else:
            result = _run_fabric(args, spec, shards, plan, scope, advance)
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (FabricError, ValueError) as exc:
        # Configuration rejected at run time (e.g. a visit deadline
        # below the monitor window).
        raise UsageError(str(exc)) from None
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
    return EXIT_OK


def _run_campaign(args, population, plan, executor, scope, advance):
    """The single-process study: one supervised loop over every visit.

    Closes ``scope`` (store, then observability) once the run returns,
    then prints the supervision, resilience and fault lines.
    """
    from .crawler.campaign import Campaign
    from .crawler.retry import RetryPolicy
    from .netlog.archive import NetLogArchive
    from .storage.db import TelemetryStore

    store = None
    if args.db is not None:
        store = scope.enter_context(TelemetryStore(args.db))
        scope.callback(store.commit)
    campaign = Campaign(
        store=store,
        retry_policy=RetryPolicy(max_attempts=args.retries),
        fault_plan=plan,
        # The gate only matters when outages can happen.
        check_connectivity=plan is not None,
        checkpoint_every=100 if store is not None else 0,
        executor=executor,
        netlog_archive=(
            NetLogArchive(args.netlog_dir) if args.netlog_dir is not None else None
        ),
        netlog_format=args.netlog_format,
        on_visit=lambda record: advance(error=not record.success),
    )
    result = campaign.run(population, resume=args.resume)
    scope.close()

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
            "inspect with: repro deadletter list --db", args.db,
            file=sys.stderr,
        )
    retried = sum(s.retried for s in result.stats.values())
    recovered = sum(s.recovered for s in result.stats.values())
    skipped = sum(s.skipped for s in result.stats.values())
    if args.retries > 1 or plan is not None or retried:
        print(
            f"resilience: {retried} visits retried, "
            f"{recovered} recovered, {skipped} skipped on connectivity"
        )
    if campaign.archive_failures:
        print(
            f"warning: {campaign.archive_failures} NetLog document(s) lost "
            "to archive write failures — audit with: repro fsck --db ... "
            f"--netlog-dir {args.netlog_dir}",
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
    return result


def _run_fabric(args, spec, shards, plan, scope, advance):
    """``repro study --shards N``: the crash-tolerant sharded fabric.

    Each shard is a spawned worker process with its own WAL-mode store;
    the coordinator supervises them (heartbeats, bounded restart with
    resume, work stealing) and folds every shard store into one rollup
    whose Table 1/Table 5 content is byte-identical to a serial run.
    Closes ``scope`` once the run returns, then prints the fabric line.
    """
    import tempfile

    from .crawler.fabric import CrawlFabric, FabricConfig

    shard_dir = args.shard_dir
    if shard_dir is None:
        shard_dir = (
            args.db + ".shards"
            if args.db is not None
            else scope.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-shards-")
            )
        )
    reported = 0

    def on_progress(total_visits: int) -> None:
        # The fabric reports cumulative fresh visits across all shards;
        # feed the delta into the per-visit progress line.
        nonlocal reported
        advance(max(total_visits - reported, 0))
        reported = max(reported, total_visits)

    fabric = CrawlFabric(
        spec,
        FabricConfig(
            shards=shards,
            retries=args.retries,
            check_connectivity=plan is not None,
            netlog_format=args.netlog_format,
        ),
        workdir=shard_dir,
        rollup_path=args.db,
        archive_root=args.netlog_dir,
        fault_plan=plan,
        on_visit=on_progress,
    )
    outcome = fabric.run(resume=args.resume)
    scope.close()

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
        f"fabric: {shards} shard processes, {report.chunks} chunks, "
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
    return outcome.result


def _cmd_deadletter_list(args: argparse.Namespace) -> int:
    from .browser.errors import NetError, table1_bucket

    letters = _open_store(args).dead_letters(args.crawl)
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


def _cmd_deadletter_retry(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if not store.dead_letters(args.crawl):
        # Empty queue is a success, not an error: there is simply
        # nothing to re-attempt.
        print("dead-letter queue is empty — nothing to retry")
        return EXIT_OK
    requeued = store.requeue_dead_letters(args.crawl, args.domain)
    if requeued == 0:
        print("no quarantined visits match the given filters")
        return EXIT_OK
    print(
        f"re-queued {requeued} visit(s); run the study again with "
        "--resume to re-attempt them"
    )
    return EXIT_OK


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from .netlog.archive import NetLogArchive
    from .storage.integrity import fsck, population_revisiter

    store = _open_store(args, args.netlog_dir)
    archive = NetLogArchive(args.netlog_dir) if args.netlog_dir is not None else None
    revisit = None
    if args.repair and args.population is not None:
        population = _population_spec(args).build()
        revisit = population_revisiter(population, store, archive)
    report = fsck(
        store,
        archive,
        crawl=args.crawl,
        repair=args.repair,
        revisit=revisit,
        jobs=args.jobs,
    )
    print(json.dumps(report.to_json(), indent=2) if args.json else report.render())
    if report.ok:
        return EXIT_OK
    if not args.repair:
        print(
            "rerun with --repair (and --population for tier-2 re-visits) "
            "to repair",
            file=sys.stderr,
        )
    return EXIT_ISSUES


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs.export import SnapshotError, load_snapshot, render_snapshot

    try:
        document = load_snapshot(args.snapshot)
    except OSError as exc:
        raise UsageError(f"cannot read {args.snapshot}: {exc}") from None
    except SnapshotError as exc:
        raise UsageError(f"not a metrics snapshot: {exc}") from None
    print(render_snapshot(document))
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the analysis daemon until SIGINT/SIGTERM.

    A graceful signal drain (stop admitting → finish in-flight →
    flush journal) exits ``EXIT_OK``; a drain that times out with
    wedged workers exits ``EXIT_ISSUES``.
    """
    import tempfile
    import threading

    from . import obs
    from .crawler.executor import drain_on_signals
    from .faults import FaultInjector
    from .serve.engine import EngineConfig, JobEngine
    from .serve.http import ReproServer, ServerConfig
    from .storage.db import TelemetryStore
    from .storage.jobs import JobJournal

    if args.resume and args.db is None:
        raise UsageError("--resume requires --db")
    plan = _load_fault_plan(args.fault_plan)
    injector = FaultInjector(plan=plan) if plan is not None else None
    try:
        engine_config = EngineConfig(
            workers=args.workers,
            backlog=args.backlog,
            job_deadline_s=args.job_deadline,
        )
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_bytes=args.max_bytes,
            read_timeout_s=args.read_timeout,
            verbose=args.verbose,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_output(args.db, makedirs=True)
    _check_output(args.spool_dir, directory=True, makedirs=True)

    # /metricsz is part of the surface, so the daemon always observes.
    obs.enable()
    args.cleanup.callback(obs.disable)
    journal = None
    spool_dir = args.spool_dir
    if args.db is not None:
        store = args.cleanup.enter_context(
            TelemetryStore(args.db, serialized=True, wal=True)
        )
        journal = JobJournal(
            store,
            write_fault_hook=(
                injector.journal_write_hook if injector is not None else None
            ),
        )
        if spool_dir is None:
            spool_dir = args.db + ".spool"
    elif spool_dir is None:
        spool_dir = args.cleanup.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-serve-spool-")
        )

    engine = JobEngine(
        engine_config, journal=journal, spool_dir=spool_dir, injector=injector
    )
    if args.resume:
        recovered, cached = engine.resume()
        print(
            f"resumed: {recovered} interrupted job(s) re-queued, "
            f"{cached} cached report(s) warmed",
            file=sys.stderr,
        )
    try:
        server = ReproServer(engine, server_config, injector=injector)
    except OSError as exc:
        raise UsageError(f"cannot bind {args.host}:{args.port}: {exc}") from None

    stop = threading.Event()
    args.cleanup.enter_context(drain_on_signals(stop.set))
    server.start()
    print(f"serving on {server.url} (pid {os.getpid()})", file=sys.stderr)
    while not stop.wait(0.5):
        pass
    print("signal received: draining ...", file=sys.stderr)
    if server.drain(args.drain_timeout):
        return EXIT_OK
    print("warning: drain deadline expired with wedged worker(s)", file=sys.stderr)
    return EXIT_ISSUES


def _cmd_table(args: argparse.Namespace) -> int:
    table_id, scale = args.number, args.scale
    if table_id in ("5W", "6W"):
        renderer = tables.table_5w if table_id == "5W" else tables.table_6w
        table = renderer(_campaign("top2020", scale, args.webrtc_policy).findings)
    elif table_id == "W":
        table = tables.table_webrtc_era(
            {
                policy: _campaign("top2020", scale, policy).findings
                for policy in ("pre-m74", "mdns")
            }
        )
    elif table_id == "4":
        table = tables.table_4()
    elif table_id == "1":
        results = (
            _campaign("top2020", scale),
            _campaign("top2021", scale),
            _campaign("malicious", scale / 2),
        )
        table = tables.table_1(
            [stats for result in results for stats in result.stats.values()]
        )
    elif table_id == "2":
        result = _campaign("malicious", scale)
        sizes = {
            "malware": S.MALWARE_COUNT,
            "abuse": S.ABUSE_COUNT,
            "phishing": S.PHISHING_COUNT,
        }
        table = tables.table_2(result.findings, result.stats, sizes)
    elif table_id in ("8", "9"):
        renderer = tables.table_8 if table_id == "8" else tables.table_9
        table = renderer(_campaign("malicious", scale).findings)
    elif table_id == "10":
        table = tables.table_10(_campaign("top2021", scale).findings)
    elif table_id == "7":
        findings_2021 = _campaign("top2021", scale).findings
        table = tables.table_7(findings_2021, _campaign("top2020", scale).findings)
    else:
        renderer = {
            "3": tables.table_3,
            "5": tables.table_5,
            "6": tables.table_6,
            "11": tables.table_11,
        }[table_id]
        table = renderer(_campaign("top2020", scale).findings)
    print(table.text)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    number, scale = args.number, args.scale
    if number in (6, 8, 9):
        renderer = {
            6: figures.figure_6,
            8: figures.figure_8,
            9: figures.figure_9,
        }[number]
        rendered = [renderer(_campaign("top2021", scale).findings)]
    elif number == 7:
        rendered = [figures.figure_7(_campaign("malicious", scale).findings)]
    else:
        findings = _campaign("top2020", scale).findings
        if number == 2:
            rendered = [
                figures.figure_2(findings),
                figures.figure_2(
                    _campaign("malicious", scale).findings, name="Figure 2b"
                ),
            ]
        elif number == 4:
            malicious = _campaign("malicious", scale).findings
            rendered = [figures.figure_4(findings, malicious)]
        else:
            renderer = {3: figures.figure_3, 5: figures.figure_5}[number]
            rendered = [renderer(findings)]
    for figure in rendered:
        print(figure.text)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report_doc import StudyResults, render_report

    _check_output(args.output)
    results = StudyResults(
        top2020=_campaign("top2020", args.scale),
        top2021=_campaign("top2021", args.scale),
        malicious=_campaign("malicious", args.scale / 2),
    )
    text = render_report(results)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .analysis.validate import validate

    failures = 0
    for population_name in ("top2020", "top2021", "malicious"):
        print(f"\n== {population_name} (scale {args.scale:.1%}) ==")
        card = validate(_campaign(population_name, args.scale))
        print(card.render())
        failures += card.failed
    return EXIT_OK if failures == 0 else EXIT_ISSUES


def _cmd_lint(args: argparse.Namespace) -> int:
    from .defense.devlint import lint_website

    for name in ("top2020", "top2021", "malicious"):
        population = PopulationSpec(population=name, scale=0.001).build()
        if args.domain in population.by_domain:
            print(lint_website(population.website(args.domain)).render())
            return EXIT_OK
    raise UsageError(f"{args.domain} is not in any seeded population")


_CHAOS_DRIVERS = ("campaign", "supervised", "fabric", "serve")


def _chaos_context(args: argparse.Namespace, prefix: str):
    """A conformance context over a scratch directory the command owns."""
    import tempfile

    from .chaos.drivers import ChaosContext

    workdir = args.cleanup.enter_context(
        tempfile.TemporaryDirectory(prefix=prefix, ignore_cleanup_errors=True)
    )
    return ChaosContext(workdir=workdir, scale=args.scale)


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    """Coverage-guided conformance sweep.

    ``EXIT_OK`` only when every registered seam fired and every invariant
    held; any violation (with its shrunk repro on disk, if ``--repro-dir``
    was given) or uncovered seam exits ``EXIT_ISSUES``.
    """
    import json

    from .chaos.drivers import build_drivers
    from .chaos.engine import ChaosEngine, EngineBudget, render_coverage
    from .chaos.registry import SeamDriftError

    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if not 0.0 < args.scale <= 1.0:
        raise UsageError("--scale must be in (0, 1]")
    selected = (
        _CHAOS_DRIVERS
        if args.drivers is None
        else tuple(name.strip() for name in args.drivers.split(",") if name.strip())
    )
    if not selected or any(name not in _CHAOS_DRIVERS for name in selected):
        raise UsageError(
            "--drivers must be a comma-separated subset of "
            + ",".join(_CHAOS_DRIVERS)
        )
    _check_output(args.report)

    ctx = _chaos_context(args, "repro-chaos-")
    drivers = {
        name: driver for name, driver in build_drivers(ctx).items() if name in selected
    }
    try:
        engine = ChaosEngine(
            ctx,
            seed=args.seed,
            budget=EngineBudget(max_schedules=args.budget),
            repro_dir=args.repro_dir,
            drivers=drivers,
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

    record = report.to_json()
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(render_coverage(record), end="")
    return EXIT_OK if report.ok else EXIT_ISSUES


def _cmd_chaos_coverage(args: argparse.Namespace) -> int:
    """Render a saved coverage report; ``EXIT_ISSUES`` when it records
    violations or incomplete seam coverage, so it can gate CI."""
    import json

    from .chaos.engine import render_coverage

    try:
        with open(args.report, encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read coverage report: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid coverage report: {exc}") from None
    try:
        print(render_coverage(record), end="")
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"invalid coverage report: {exc}") from None
    if record.get("violations") or record.get("coverage_percent", 0) < 100.0:
        return EXIT_ISSUES
    return EXIT_OK


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    """Re-run a minimal repro plan on its driver.

    ``EXIT_ISSUES`` when the recorded invariant violation still
    reproduces (the bug is alive), ``EXIT_OK`` when it no longer does.
    """
    from .chaos.engine import ChaosEngine
    from .chaos.shrink import MinimalRepro

    try:
        repro = MinimalRepro.load(args.repro)
    except OSError as exc:
        raise UsageError(f"cannot read repro: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"invalid repro: {exc}") from None

    engine = ChaosEngine(
        _chaos_context(args, "repro-chaos-replay-"), seed=repro.engine_seed
    )
    try:
        violations = engine.replay(repro)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except KeyboardInterrupt:
        print("chaos: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED

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
    """Run one subcommand; the only place a usage error becomes an exit code."""
    args = _build_parser().parse_args(argv)
    with ExitStack() as args.cleanup:
        try:
            return args.run(args)
        except UsageError as exc:
            for message in exc.args:
                print(f"error: {message}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
