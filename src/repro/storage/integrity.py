"""End-to-end data integrity: content digests, ``fsck``, tiered repair.

The paper's tables are only as trustworthy as the data at rest they are
reduced from.  This module closes the loop the fault-tolerant *pipeline*
(PR 1/2) left open: verifying the telemetry *after* it has been written,
and repairing what a crash, torn write, or bit flip damaged.

Three pieces:

* :func:`visit_digest` — a SHA-256 content digest over everything a
  stored visit row *means* (outcome, Table 1 fields, every detected
  local request).  Computed at commit time by the store, recomputed by
  ``fsck``; browser-process artifacts (NetLog source ids, retry
  attempts) are excluded, so a deterministic re-visit reproduces the
  digest of the original fault-free visit.
* :func:`fsck` — scans a campaign database (and optionally its NetLog
  archive) for orphaned child rows, digest mismatches, half-committed
  batches, damaged or missing archive documents; with ``repair=True``
  it applies tiered repair: re-parse the archived NetLog via salvage →
  deterministically re-visit the domain → quarantine into the
  dead-letter queue.
* :func:`campaign_digest` — a rollup digest over all visit digests of a
  crawl, the machine-checkable fingerprint-equivalence proof the chaos
  bench compares between repaired and fault-free runs.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import operator
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .. import obs
from ..netlog.writer import encode_compact

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (db -> migrations -> here)
    from ..netlog.archive import NetLogArchive
    from .db import TelemetryStore

_FSCK_FINDINGS = obs.counter(
    "repro_fsck_findings_total",
    "fsck findings by corruption kind",
    ("kind",),
)
_FSCK_REPAIRS = obs.counter(
    "repro_fsck_repairs_total",
    "fsck repairs by tier (cleanup, reparse, revisit, quarantine)",
    ("tier",),
)
_FSCK_SECONDS = obs.histogram(
    "repro_fsck_scan_seconds",
    "wall time of one full fsck scan (including any repairs)",
    buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0),
)

#: Identifier of the digest scheme, recorded in fsck reports.
DIGEST_ALGORITHM = "sha256-visit-v1"

#: A repair callable: ``revisit(crawl, os_name, domain) -> bool`` that
#: re-crawls one domain and rewrites its store row (and archive document,
#: when one is kept).  See :func:`population_revisiter`.
Revisiter = Callable[[str, str, str], bool]

#: Canonical per-request fact tuple (source ids excluded — they shift
#: across browser instances; see ``finding_fingerprint``).
RequestFacts = Sequence[object]


def visit_digest(
    *,
    crawl: str,
    domain: str,
    os_name: str,
    success: int | bool,
    error: int,
    rank: int | None,
    category: str | None,
    skipped: int | bool,
    page_load_time: float | None,
    total_flows: int | None,
    requests: Iterable[RequestFacts],
) -> str:
    """SHA-256 digest of one visit row plus its local-request rows.

    ``requests`` holds ``(locality, scheme, host, port, path, time,
    via_redirect, method, initiator)`` tuples.  They are sorted by their
    canonical serialisation, so the digest is insensitive to row order —
    a re-parse or re-visit that stores the same facts in a different
    order still matches.  The serialisations are the ones ``json.dumps``
    gives with compact separators (sorted keys for the visit document),
    made by the NetLog writer's reusable C encoders: the visit document
    is built in sorted key order, so it needs no key sort, and a visit
    without local requests (most visits) sorts nothing.
    """
    request_docs = (
        sorted(
            encode_compact(
                [
                    locality,
                    scheme,
                    host,
                    port,
                    path,
                    time,
                    int(bool(via_redirect)),
                    method,
                    initiator,
                ]
            )
            for (
                locality,
                scheme,
                host,
                port,
                path,
                time,
                via_redirect,
                method,
                initiator,
            ) in requests
        )
        if requests
        else []
    )
    payload = encode_compact(
        {
            "algorithm": DIGEST_ALGORITHM,
            "category": category,
            "crawl": crawl,
            "domain": domain,
            "error": int(error),
            "os": os_name,
            "page_load_time": page_load_time,
            "rank": rank,
            "requests": request_docs,
            "skipped": int(bool(skipped)),
            "success": int(bool(success)),
            "total_flows": total_flows,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def detection_request_facts(detection) -> list[tuple]:
    """The digest fact tuples for a live ``DetectionResult``."""
    return [
        (
            request.locality.value,
            request.scheme,
            request.host,
            request.port,
            request.path,
            request.time,
            int(request.via_redirect),
            request.method,
            request.initiator,
        )
        for request in detection.requests
    ]


def campaign_digest(store: "TelemetryStore", crawl: str) -> str:
    """Rollup digest over every visit digest of one crawl.

    Two stores agree on this value iff they agree on every visit's
    content — the fingerprint-equivalence proof emitted by fsck reports
    and asserted by the chaos bench.
    """
    rows = store.connection.execute(
        "SELECT domain, os_name, COALESCE(digest, '') FROM visits "
        "WHERE crawl = ? ORDER BY os_name, domain",
        (crawl,),
    ).fetchall()
    payload = json.dumps([list(row) for row in rows], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- findings ----------------------------------------------------------------


class FsckKind(str, enum.Enum):
    """What kind of corruption a finding describes."""

    #: ``local_requests`` / ``events`` rows whose parent visit is gone
    #: (e.g. superseded by an ``INSERT OR REPLACE`` re-record).
    ORPHANED_ROWS = "orphaned-rows"
    #: A visit row whose recomputed digest differs from the stored one.
    DIGEST_MISMATCH = "digest-mismatch"
    #: A visit row with no stored digest (pre-migration or torn write).
    MISSING_DIGEST = "missing-digest"
    #: A visit whose stored ``request_count`` disagrees with its actual
    #: child rows — the signature of a half-committed batch.
    HALF_COMMITTED = "half-committed"
    #: An archived NetLog document with checksum/chain/truncation damage.
    ARCHIVE_DAMAGE = "archive-damage"
    #: A successful visit whose expected archive document is absent
    #: (e.g. the write was lost to a disk-full fault).
    MISSING_ARCHIVE = "missing-archive"
    #: An archive document with no corresponding visit row.
    ORPHANED_ARCHIVE = "orphaned-archive"


#: Findings repaired by rewriting the database row (tiers 1-3); archive
#: damage instead needs the document rewritten (tier 2 only).
_ROW_DAMAGE = (
    FsckKind.DIGEST_MISMATCH,
    FsckKind.MISSING_DIGEST,
    FsckKind.HALF_COMMITTED,
    FsckKind.ORPHANED_ARCHIVE,
)


@dataclass(slots=True)
class FsckFinding:
    """One detected integrity violation and what was done about it."""

    kind: FsckKind
    crawl: str
    detail: str
    os_name: str | None = None
    domain: str | None = None
    repaired: bool = False
    #: Which repair tier resolved it: ``cleanup`` (orphan deletion),
    #: ``reparse`` (rebuilt from the archived NetLog), ``revisit``
    #: (deterministic re-crawl), or ``quarantine`` (dead-lettered).
    repair_tier: str | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "crawl": self.crawl,
            "os": self.os_name,
            "domain": self.domain,
            "detail": self.detail,
            "repaired": self.repaired,
            "repair_tier": self.repair_tier,
        }


@dataclass(slots=True)
class FsckReport:
    """Machine-readable result of one fsck scan."""

    findings: list[FsckFinding] = field(default_factory=list)
    scanned_visits: int = 0
    scanned_archives: int = 0
    #: Post-scan (post-repair, when repairing) rollup digest per crawl —
    #: the fingerprint-equivalence proof.
    campaign_digests: dict[str, str] = field(default_factory=dict)

    @property
    def repaired(self) -> int:
        return sum(1 for finding in self.findings if finding.repaired)

    @property
    def unrepaired(self) -> int:
        return sum(1 for finding in self.findings if not finding.repaired)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def ok(self) -> bool:
        """True when nothing is left in a damaged state."""
        return self.unrepaired == 0

    def findings_of(self, kind: FsckKind) -> list[FsckFinding]:
        return [finding for finding in self.findings if finding.kind is kind]

    def to_json(self) -> dict:
        return {
            "version": 1,
            "digest_algorithm": DIGEST_ALGORITHM,
            "scanned": {
                "visits": self.scanned_visits,
                "archives": self.scanned_archives,
            },
            "findings": [finding.to_json() for finding in self.findings],
            "repaired": self.repaired,
            "unrepaired": self.unrepaired,
            "campaign_digests": dict(sorted(self.campaign_digests.items())),
            "clean": self.clean,
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"fsck: scanned {self.scanned_visits} visit(s), "
            f"{self.scanned_archives} archive document(s)"
        ]
        for finding in self.findings:
            where = finding.crawl
            if finding.os_name:
                where += f"/{finding.os_name}"
            if finding.domain:
                where += f"/{finding.domain}"
            status = (
                f"repaired ({finding.repair_tier})"
                if finding.repaired
                else "UNREPAIRED"
            )
            lines.append(
                f"  [{finding.kind.value}] {where}: {finding.detail} — {status}"
            )
        if self.clean:
            lines.append("  no integrity violations found")
        else:
            lines.append(
                f"  {len(self.findings)} finding(s): "
                f"{self.repaired} repaired, {self.unrepaired} unrepaired"
            )
        for crawl, digest in sorted(self.campaign_digests.items()):
            lines.append(f"  campaign digest {crawl}: {digest}")
        return "\n".join(lines)


# -- the scanner -------------------------------------------------------------


def _archive_clean(stats) -> bool:
    """Whether a salvage parse came back undamaged end to end."""
    return (
        not stats.truncated
        and stats.checksum_failures == 0
        and stats.chain_breaks == 0
        and stats.dropped_malformed == 0
        and stats.first_divergence is None
    )


def fsck(
    store: "TelemetryStore",
    archive: "NetLogArchive | None" = None,
    *,
    crawl: str | None = None,
    repair: bool = False,
    revisit: Revisiter | None = None,
    jobs: int | None = None,
) -> FsckReport:
    """Audit (and optionally repair) a campaign database + NetLog archive.

    Scans for every corruption class the threat model names: orphaned
    child rows, digest mismatches, missing digests, half-committed
    batches, damaged/missing/orphaned archive documents.  With
    ``repair=True`` each finding goes through the repair ladder:

    1. **re-parse** — if the visit's archived NetLog verifies clean, the
       row is rebuilt from it via salvage parse + detector;
    2. **re-visit** — else, if a ``revisit`` callable is given, the
       domain is deterministically re-crawled;
    3. **quarantine** — else the damaged row is deleted and the visit is
       parked in the dead-letter queue for a later ``deadletter retry``.

    Orphaned child rows are simply deleted (``cleanup`` tier).  The
    report's per-crawl :func:`campaign_digest` rollups are computed after
    any repairs, so equality with a fault-free run's rollup proves the
    repair restored content, not just consistency.
    """
    scan_start = time.perf_counter() if _FSCK_SECONDS.enabled else 0.0
    report = FsckReport()
    conn = store.connection
    crawls = (
        [crawl]
        if crawl is not None
        else [row[0] for row in conn.execute("SELECT DISTINCT crawl FROM visits")]
    )

    _scan_orphans(store, report, repair)
    for crawl_name in crawls:
        # One listing of the crawl's archive serves both scans; a repair
        # pass lists again, since a re-visit may have written documents.
        documents = archive.documents(crawl_name) if archive is not None else []
        _scan_visits(store, archive, documents, crawl_name, report, repair, revisit)
        if archive is not None:
            if repair:
                documents = archive.documents(crawl_name)
            _scan_archive(
                store, archive, documents, crawl_name, report, repair, revisit, jobs
            )
        report.campaign_digests[crawl_name] = campaign_digest(store, crawl_name)
    if repair:
        store.commit()
    for finding in report.findings:
        _FSCK_FINDINGS.inc(labels=(finding.kind.value,))
        if finding.repaired:
            _FSCK_REPAIRS.inc(labels=(finding.repair_tier or "unknown",))
    if _FSCK_SECONDS.enabled:
        _FSCK_SECONDS.observe(time.perf_counter() - scan_start)
    return report


def _scan_orphans(
    store: "TelemetryStore", report: FsckReport, repair: bool
) -> None:
    conn = store.connection
    for table in ("local_requests", "events"):
        (count,) = conn.execute(
            f"SELECT COUNT(*) FROM {table} WHERE visit_id NOT IN "
            "(SELECT visit_id FROM visits)"
        ).fetchone()
        if not count:
            continue
        finding = FsckFinding(
            kind=FsckKind.ORPHANED_ROWS,
            crawl="*",
            detail=f"{count} {table} row(s) reference no surviving visit",
        )
        if repair:
            conn.execute(
                f"DELETE FROM {table} WHERE visit_id NOT IN "
                "(SELECT visit_id FROM visits)"
            )
            finding.repaired = True
            finding.repair_tier = "cleanup"
        report.findings.append(finding)


def _scan_visits(
    store: "TelemetryStore",
    archive: "NetLogArchive | None",
    documents: list[tuple[str, str, str]],
    crawl: str,
    report: FsckReport,
    repair: bool,
    revisit: Revisiter | None,
) -> None:
    conn = store.connection
    rows = conn.execute(
        "SELECT visit_id, domain, os_name, success, error, rank, category, "
        "skipped, page_load_time, total_flows, digest, request_count "
        "FROM visits WHERE crawl = ? ORDER BY os_name, domain",
        (crawl,),
    ).fetchall()
    # Every visit's local requests from one query, in row order per visit.
    requests_of: dict[int, list[tuple]] = {}
    for visit_id, group in itertools.groupby(
        conn.execute(
            "SELECT visit_id, locality, scheme, host, port, path, time, "
            "via_redirect, method, initiator FROM local_requests "
            "WHERE visit_id IN (SELECT visit_id FROM visits WHERE crawl = ?) "
            "ORDER BY visit_id, rowid",
            (crawl,),
        ),
        key=operator.itemgetter(0),
    ):
        requests_of[visit_id] = [row[1:] for row in group]
    # The crawl's archive listing answers every membership test.  Only a
    # crawl that keeps an archive at all can miss a document (campaigns
    # may legitimately run archive-less).
    archived = {(folder, stem) for folder, stem, _ in documents}
    for (
        visit_id,
        domain,
        os_name,
        success,
        error,
        rank,
        category,
        skipped,
        page_load_time,
        total_flows,
        digest,
        request_count,
    ) in rows:
        report.scanned_visits += 1
        requests = requests_of.get(visit_id, [])
        finding: FsckFinding | None = None
        if len(requests) != int(request_count or 0):
            finding = FsckFinding(
                kind=FsckKind.HALF_COMMITTED,
                crawl=crawl,
                os_name=os_name,
                domain=domain,
                detail=(
                    f"visit recorded {request_count} local request(s) but "
                    f"{len(requests)} row(s) are present"
                ),
            )
        elif digest is None:
            finding = FsckFinding(
                kind=FsckKind.MISSING_DIGEST,
                crawl=crawl,
                os_name=os_name,
                domain=domain,
                detail="visit row has no content digest",
            )
        else:
            expected = visit_digest(
                crawl=crawl,
                domain=domain,
                os_name=os_name,
                success=success,
                error=error,
                rank=rank,
                category=category,
                skipped=skipped,
                page_load_time=page_load_time,
                total_flows=total_flows,
                requests=requests,
            )
            if expected != digest:
                finding = FsckFinding(
                    kind=FsckKind.DIGEST_MISMATCH,
                    crawl=crawl,
                    os_name=os_name,
                    domain=domain,
                    detail=(
                        f"stored digest {digest[:12]}… != recomputed "
                        f"{expected[:12]}…"
                    ),
                )
        if (
            finding is None
            and archived
            and success
            and not skipped
            and archive.document_key(os_name, domain) not in archived
        ):
            finding = FsckFinding(
                kind=FsckKind.MISSING_ARCHIVE,
                crawl=crawl,
                os_name=os_name,
                domain=domain,
                detail="successful visit has no archived NetLog document",
            )
        if finding is None:
            continue
        if repair:
            _repair_finding(store, archive, finding, revisit)
        report.findings.append(finding)


def _scan_archive(
    store: "TelemetryStore",
    archive: "NetLogArchive",
    documents: list[tuple[str, str, str]],
    crawl: str,
    report: FsckReport,
    repair: bool,
    revisit: Revisiter | None,
    jobs: int | None = None,
) -> None:
    conn = store.connection
    recorded = {
        (row[0], row[1])
        for row in conn.execute(
            "SELECT os_name, domain FROM visits WHERE crawl = ?", (crawl,)
        )
    }
    # Verification (the CPU-bound part: a full canonical re-parse of
    # every document) fans out across a process pool under ``jobs``;
    # findings and repairs stay sequential, so reports are byte-stable
    # at any worker count.
    from ..netlog.parallel import verify_paths

    verified = verify_paths([path for _, _, path in documents], jobs=jobs)
    for (os_name, domain, _), (_, stats) in zip(documents, verified):
        report.scanned_archives += 1
        if not _archive_clean(stats):
            finding = FsckFinding(
                kind=FsckKind.ARCHIVE_DAMAGE,
                crawl=crawl,
                os_name=os_name,
                domain=domain,
                detail=stats.describe() or "archive document is damaged",
            )
            if repair:
                _repair_finding(store, archive, finding, revisit)
            report.findings.append(finding)
        elif (os_name, domain) not in recorded:
            finding = FsckFinding(
                kind=FsckKind.ORPHANED_ARCHIVE,
                crawl=crawl,
                os_name=os_name,
                domain=domain,
                detail="archive document has no visit row",
            )
            if repair:
                _repair_finding(store, archive, finding, revisit)
            report.findings.append(finding)


# -- tiered repair -----------------------------------------------------------


def _repair_finding(
    store: "TelemetryStore",
    archive: "NetLogArchive | None",
    finding: FsckFinding,
    revisit: Revisiter | None,
) -> None:
    crawl, os_name, domain = finding.crawl, finding.os_name, finding.domain
    assert os_name is not None and domain is not None

    # Tier 1: rebuild the row from the archived NetLog, if it verifies
    # clean end to end.  (An archive-damage finding by definition cannot
    # take this tier — its source of truth is the damaged artifact.)
    if finding.kind in _ROW_DAMAGE and archive is not None:
        if _reparse_row(store, archive, crawl, os_name, domain):
            finding.repaired = True
            finding.repair_tier = "reparse"
            return

    # Tier 2: deterministic re-visit (rewrites row and archive document).
    if revisit is not None:
        store.delete_visit(crawl, domain, os_name)
        if revisit(crawl, os_name, domain):
            finding.repaired = True
            finding.repair_tier = "revisit"
            return

    # Tier 3: quarantine — remove the damaged row (and document) and
    # park the visit in the dead-letter queue for a later retry.
    store.delete_visit(crawl, domain, os_name)
    if archive is not None and finding.kind is FsckKind.ARCHIVE_DAMAGE:
        archive.path_for(crawl, os_name, domain).unlink(missing_ok=True)
    store.record_dead_letter(
        crawl,
        domain,
        os_name,
        error=0,
        failures=1,
        reason=f"fsck: unrecoverable corruption ({finding.kind.value})",
    )
    finding.repaired = True
    finding.repair_tier = "quarantine"


def _reparse_row(
    store: "TelemetryStore",
    archive: "NetLogArchive",
    crawl: str,
    os_name: str,
    domain: str,
) -> bool:
    """Tier-1 repair: rebuild one visit row from its archived NetLog."""
    from ..core.detector import LocalTrafficDetector
    from ..crawler.crawl import CrawlRecord
    from ..netlog.parser import ParseStats

    path = archive.path_for(crawl, os_name, domain)
    if not path.exists():
        return False
    meta = archive.read_meta(path)
    if meta is None:
        return False
    stats = ParseStats()
    # Stream the archived document straight into a detection sink: flow
    # assembly runs as events parse, without materialising the event list.
    sink = LocalTrafficDetector().sink()
    result = archive.stream_into(crawl, os_name, domain, sink, stats=stats)
    if result is None or not _archive_clean(stats):
        return False
    store.delete_visit(crawl, domain, os_name)
    CrawlRecord.from_visit_meta(meta, domain, os_name, result).record_into(
        store, crawl, os_name, meta.get("webrtc_policy")
    )
    return True


# -- the re-visit tier -------------------------------------------------------


def population_revisiter(
    population,
    store: "TelemetryStore",
    archive: "NetLogArchive | None" = None,
    *,
    monitor_window_ms: float | None = None,
    detector=None,
    include_internal: bool = False,
) -> Revisiter:
    """Build a tier-2 repair callable that re-crawls damaged domains.

    The returned callable mirrors the campaign's persistence semantics
    exactly (detections stored only for sites with local activity, the
    same archive metadata), so a repaired row is byte-equivalent in
    digest terms to the row a fault-free campaign would have written.
    """
    from ..crawler.crawl import Crawler
    from ..crawler.vm import OSEnvironment
    from ..netlog.codec import codec_for_suffix

    def revisit(crawl: str, os_name: str, domain: str) -> bool:
        website = population.by_domain.get(domain)
        if website is None or crawl != population.name:
            return False
        webrtc_policy = getattr(population, "webrtc_policy", None)
        environment = (
            OSEnvironment.for_os(os_name, monitor_window_ms=monitor_window_ms)
            if monitor_window_ms is not None
            else OSEnvironment.for_os(os_name)
        )
        # The rewrite keeps the format of the document it replaces; only
        # a visit with no document yet takes the codec default.
        replaced = (
            archive.path_for(crawl, os_name, domain) if archive is not None else None
        )
        crawler = Crawler(
            environment,
            detector=detector,
            check_connectivity=False,
            include_internal=include_internal,
            capture_netlog=archive is not None,
            netlog_format=(
                codec_for_suffix(replaced.suffix).name
                if replaced is not None and replaced.exists()
                else None
            ),
        )
        record = crawler.crawl_site(website)
        record.record_into(store, crawl, os_name, webrtc_policy)
        if archive is not None and record.netlog is not None:
            archive.write_buffered(
                crawl,
                os_name,
                domain,
                record.netlog,
                meta=record.visit_meta(crawl, os_name, webrtc_policy),
            )
        return True

    return revisit
