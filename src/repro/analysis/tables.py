"""Renderers for the paper's Tables 1–11.

Each ``table_N`` function consumes campaign results (never the seed data)
and returns both structured rows and a formatted text block, so benches
can print the same rows the paper reports and tests can assert on the
structured form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..browser.errors import TABLE1_ERROR_COLUMNS
from ..core.addresses import Locality
from ..core.ports import DEFAULT_REGISTRY, PortRegistry
from ..core.report import OS_ORDER, SiteFinding, findings_with_activity
from ..core.signatures import BehaviorClass, DeveloperErrorKind
from ..crawler.crawl import CrawlStats
from . import rq1

_OS_LETTER = {"windows": "W", "linux": "L", "mac": "M"}


@dataclass(frozen=True, slots=True)
class RenderedTable:
    """A table as structured rows plus a printable text block."""

    name: str
    rows: list
    text: str

    def __str__(self) -> str:
        return self.text


def _os_flags(oses: Sequence[str]) -> str:
    return " ".join(
        _OS_LETTER[os_name] if os_name in oses else "."
        for os_name in OS_ORDER
    )


def _oses_with(
    finding: SiteFinding,
    locality: Locality,
    *,
    scheme: str | None = None,
    exclude_scheme: str | None = None,
) -> tuple[str, ...]:
    """OS flags for one finding, restricted by request scheme.

    The paper's HTTP(S)/WS tables and the WebRTC era tables partition the
    same findings by scheme, so both need scheme-aware OS flags rather
    than :meth:`SiteFinding.oses_with_activity`'s locality-only view.
    """
    return tuple(
        os_name
        for os_name in OS_ORDER
        if os_name in finding.per_os
        and any(
            r.locality is locality
            and (scheme is None or r.scheme == scheme)
            and (exclude_scheme is None or r.scheme != exclude_scheme)
            for r in finding.per_os[os_name].requests
        )
    )


def _ports_label(ports: Iterable[int]) -> str:
    ordered = sorted(set(ports))
    if len(ordered) > 6:
        return f"{ordered[0]}-{ordered[-1]} ({len(ordered)} ports)"
    return ",".join(str(p) for p in ordered)


# ---------------------------------------------------------------------------
# Table 1 — crawl statistics
# ---------------------------------------------------------------------------

def table_1(stats: Sequence[CrawlStats]) -> RenderedTable:
    """Web crawl statistics: successes, failures, error breakdown.

    The paper's fixed error columns always render; buckets outside them
    (e.g. ``VISIT_DEADLINE`` from the supervised executor's deadlines)
    appear as extra columns only when some run actually produced them,
    so fault-free output is byte-identical to the seed's.
    """
    extra = sorted(
        {
            bucket
            for stat in stats
            for bucket in (stat.errors or {})
            if bucket not in TABLE1_ERROR_COLUMNS
        }
    )
    columns = TABLE1_ERROR_COLUMNS + tuple(extra)
    rows = []
    lines = [
        f"{'Crawl':<12}{'OS':<9}{'#success':>10}{'#failed':>9}  "
        + "".join(f"{column:>18}" for column in columns)
    ]
    for stat in stats:
        errors = stat.errors or {}
        row = {
            "crawl": stat.crawl,
            "os": stat.os_name,
            "successes": stat.successes,
            "failures": stat.failures,
            "errors": {column: errors.get(column, 0) for column in columns},
        }
        rows.append(row)
        total = max(stat.total, 1)
        fail = max(stat.failures, 1)
        cells = "".join(
            f"{errors.get(column, 0):>10} ({errors.get(column, 0) / fail:>4.1%})"
            for column in columns
        )
        lines.append(
            f"{stat.crawl:<12}{stat.os_name:<9}"
            f"{stat.successes:>10}{stat.failures:>9}  {cells}"
            f"   [{stat.successes / total:.1%} ok]"
        )
    return RenderedTable("Table 1", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Table 2 — malicious crawl summary
# ---------------------------------------------------------------------------

def table_2(
    findings: Sequence[SiteFinding],
    stats: dict[str, CrawlStats],
    category_sizes: dict[str, int],
    success_by_category: dict[str, dict[str, int]] | None = None,
) -> RenderedTable:
    """Per-category site counts and localhost/LAN activity per OS."""
    categories = ("malware", "abuse", "phishing")
    rows = []
    header = (
        f"{'Category':<10}{'#sites':>9}   "
        f"{'localhost W/L/M':>18}   {'LAN W/L/M':>12}"
    )
    lines = [header]
    for category in categories:
        cat_findings = [f for f in findings if f.category == category]
        localhost = {
            os_name: sum(
                1
                for f in cat_findings
                if os_name in f.oses_with_activity(Locality.LOCALHOST)
            )
            for os_name in OS_ORDER
        }
        lan = {
            os_name: sum(
                1
                for f in cat_findings
                if os_name in f.oses_with_activity(Locality.LAN)
            )
            for os_name in OS_ORDER
        }
        row = {
            "category": category,
            "sites": category_sizes.get(category, 0),
            "localhost": localhost,
            "lan": lan,
        }
        if success_by_category:
            row["success_rates"] = {
                os_name: success_by_category[os_name].get(category, 0)
                / max(category_sizes.get(category, 1), 1)
                for os_name in success_by_category
            }
        rows.append(row)
        lines.append(
            f"{category:<10}{row['sites']:>9}   "
            f"{localhost['windows']:>5}/{localhost['linux']}/{localhost['mac']:<6}   "
            f"{lan['windows']:>4}/{lan['linux']}/{lan['mac']}"
        )
    del stats  # retained in the signature for symmetry with table_1 callers
    return RenderedTable("Table 2", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Table 3 — top-ranked localhost requesters
# ---------------------------------------------------------------------------

def table_3(
    findings: Sequence[SiteFinding], *, n: int = 10
) -> RenderedTable:
    """Highest-ranked domains making localhost requests, per OS group."""
    windows = rq1.top_ranked(findings, Locality.LOCALHOST, "windows", n=n)
    linux = rq1.top_ranked(findings, Locality.LOCALHOST, "linux", n=n)
    rows = {
        "windows": [(f.rank, f.domain) for f in windows],
        "linux": [(f.rank, f.domain) for f in linux],
    }
    lines = [f"{'Rank':>7}  {'Windows':<28}{'Rank':>7}  Linux/Mac"]
    for index in range(max(len(windows), len(linux))):
        w = windows[index] if index < len(windows) else None
        l = linux[index] if index < len(linux) else None
        lines.append(
            f"{(w.rank if w else ''):>7}  {(w.domain if w else ''):<28}"
            f"{(l.rank if l else ''):>7}  {(l.domain if l else '')}"
        )
    return RenderedTable("Table 3", [rows], "\n".join(lines))


# ---------------------------------------------------------------------------
# Table 4 — scanned-port knowledge base
# ---------------------------------------------------------------------------

def table_4(registry: PortRegistry | None = None) -> RenderedTable:
    """Services/malware behind the ports the anti-abuse scanners probe."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    rows = registry.rows()
    lines = [f"{'Port':>7}  {'Service/App':<42}Use case"]
    for row in rows:
        service = ("Malware: " if row.is_malware else "") + row.service
        lines.append(f"{row.port:>7}  {service:<42}{row.purpose.value}")
    return RenderedTable("Table 4", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Tables 5 / 7 / 8 — localhost requesters
# ---------------------------------------------------------------------------

_BEHAVIOR_ORDER = (
    BehaviorClass.INTERNAL_ATTACK,
    BehaviorClass.FRAUD_DETECTION,
    BehaviorClass.BOT_DETECTION,
    BehaviorClass.NATIVE_APPLICATION,
    BehaviorClass.DEVELOPER_ERROR,
    BehaviorClass.UNKNOWN,
)


def _localhost_site_rows(findings: Sequence[SiteFinding]) -> list[dict]:
    rows = []
    for finding in findings_with_activity(list(findings), Locality.LOCALHOST):
        # The paper's tables cover the HTTP(S)/WS channel; WebRTC-derived
        # requests have their own era tables (5W/6W), so a webrtc-enabled
        # campaign leaves Tables 5/7/8/11 byte-identical to a channel-off
        # run over the same population.
        requests = [
            r
            for r in finding.requests(Locality.LOCALHOST)
            if r.scheme != "webrtc"
        ]
        if not requests:
            continue
        schemes = sorted({r.scheme for r in requests})
        ports = sorted({r.port for r in requests})
        paths = sorted({r.path for r in requests})
        rows.append(
            {
                "domain": finding.domain,
                "rank": finding.rank,
                "category": finding.category,
                "behavior": finding.behavior,
                "dev_kind": finding.dev_error_kind,
                "schemes": schemes,
                "ports": ports,
                "paths": paths,
                "oses": _oses_with(
                    finding, Locality.LOCALHOST, exclude_scheme="webrtc"
                ),
            }
        )
    return rows


def _render_localhost_table(
    name: str, rows: list[dict], *, show_rank: bool = True
) -> RenderedTable:
    lines = [
        f"{'Reason':<20}{'Rank':>7}  {'Domain':<42}{'Proto':<10}"
        f"{'Ports':<26}{'OS (W L M)':<10}"
    ]
    for behavior in _BEHAVIOR_ORDER:
        section = [row for row in rows if row["behavior"] is behavior]
        section.sort(key=lambda r: (r["rank"] or 10**9, r["domain"]))
        for row in section:
            rank = row["rank"] if show_rank and row["rank"] is not None else ""
            lines.append(
                f"{behavior.value:<20}{rank:>7}  {row['domain']:<42}"
                f"{'/'.join(row['schemes']):<10}"
                f"{_ports_label(row['ports']):<26}"
                f"{_os_flags(row['oses']):<10}"
            )
    return RenderedTable(name, rows, "\n".join(lines))


def table_5(findings: Sequence[SiteFinding]) -> RenderedTable:
    """2020 top-100K localhost requesters grouped by reason."""
    return _render_localhost_table("Table 5", _localhost_site_rows(findings))


def table_7(
    findings_2021: Sequence[SiteFinding],
    findings_2020: Sequence[SiteFinding],
) -> RenderedTable:
    """Localhost requesters newly observed in the 2021 crawl."""
    previously_active = {
        f.domain
        for f in findings_with_activity(list(findings_2020), Locality.LOCALHOST)
    }
    new_rows = [
        row
        for row in _localhost_site_rows(findings_2021)
        if row["domain"] not in previously_active
    ]
    return _render_localhost_table("Table 7", new_rows)


def table_8(findings: Sequence[SiteFinding]) -> RenderedTable:
    """Malicious webpages making localhost requests, by category."""
    rows = _localhost_site_rows(findings)
    lines = [
        f"{'Category':<10}{'Domain':<46}{'Proto':<8}{'Ports':<26}"
        f"{'Behavior':<20}{'OS':<8}"
    ]
    for row in sorted(
        rows, key=lambda r: (r["category"] or "", r["domain"])
    ):
        lines.append(
            f"{(row['category'] or '?'):<10}{row['domain']:<46}"
            f"{'/'.join(row['schemes']):<8}{_ports_label(row['ports']):<26}"
            f"{(row['behavior'].value if row['behavior'] else '?'):<20}"
            f"{_os_flags(row['oses']):<8}"
        )
    return RenderedTable("Table 8", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Tables 6 / 9 / 10 — LAN requesters
# ---------------------------------------------------------------------------

def _lan_rows(findings: Sequence[SiteFinding]) -> list[dict]:
    rows = []
    for finding in findings_with_activity(list(findings), Locality.LAN):
        # Same channel split as the localhost tables: WebRTC-derived LAN
        # requests belong to Table 6W, never Tables 6/9/10.
        requests = [
            r for r in finding.requests(Locality.LAN) if r.scheme != "webrtc"
        ]
        if not requests:
            continue
        rows.append(
            {
                "domain": finding.domain,
                "rank": finding.rank,
                "category": finding.category,
                "addresses": sorted({r.host for r in requests}),
                "ports": sorted({r.port for r in requests}),
                "schemes": sorted({r.scheme for r in requests}),
                "paths": sorted({r.path for r in requests}),
                "behavior": finding.behavior,
                "oses": _oses_with(
                    finding, Locality.LAN, exclude_scheme="webrtc"
                ),
            }
        )
    rows.sort(key=lambda r: (r["rank"] or 10**9, r["domain"]))
    return rows


def _render_lan_table(name: str, rows: list[dict]) -> RenderedTable:
    lines = [
        f"{'Rank':>7}  {'Domain':<46}{'Proto':<7}{'Address':<17}"
        f"{'Port':>6}  {'OS (W L M)':<10}"
    ]
    for row in rows:
        lines.append(
            f"{(row['rank'] if row['rank'] is not None else ''):>7}  "
            f"{row['domain']:<46}{'/'.join(row['schemes']):<7}"
            f"{','.join(row['addresses']):<17}"
            f"{','.join(str(p) for p in row['ports']):>6}  "
            f"{_os_flags(row['oses']):<10}"
        )
    return RenderedTable(name, rows, "\n".join(lines))


def table_6(findings: Sequence[SiteFinding]) -> RenderedTable:
    """2020 top-100K LAN requesters."""
    return _render_lan_table("Table 6", _lan_rows(findings))


def table_9(findings: Sequence[SiteFinding]) -> RenderedTable:
    """Malicious LAN requesters."""
    return _render_lan_table("Table 9", _lan_rows(findings))


def table_10(findings: Sequence[SiteFinding]) -> RenderedTable:
    """2021 top-100K LAN requesters."""
    return _render_lan_table("Table 10", _lan_rows(findings))


# ---------------------------------------------------------------------------
# Tables 5W / 6W / W-era — WebRTC local-address leakage
# ---------------------------------------------------------------------------

def _webrtc_rows(findings: Sequence[SiteFinding], locality: Locality) -> list[dict]:
    """Per-site WebRTC-channel leak rows of one locality.

    ``kinds`` distinguishes how the address leaked: ``CANDIDATE`` (a raw
    host candidate — the pre-M74 leak mDNS obfuscation removes) vs
    ``STUN`` (a binding check to an explicit local peer — present in both
    policy eras).
    """
    rows = []
    for finding in findings:
        requests = [
            r for r in finding.requests(locality) if r.scheme == "webrtc"
        ]
        if not requests:
            continue
        rows.append(
            {
                "domain": finding.domain,
                "rank": finding.rank,
                "category": finding.category,
                "kinds": sorted({r.method for r in requests}),
                "addresses": sorted({r.host for r in requests}),
                "ports": sorted({r.port for r in requests}),
                "leaks": len(requests),
                "oses": _oses_with(finding, locality, scheme="webrtc"),
            }
        )
    rows.sort(key=lambda r: (r["rank"] or 10**9, r["domain"]))
    return rows


def _render_webrtc_table(name: str, rows: list[dict]) -> RenderedTable:
    lines = [
        f"{'Rank':>7}  {'Domain':<42}{'Kind':<16}{'Address':<30}"
        f"{'Ports':<22}{'OS (W L M)':<10}"
    ]
    for row in rows:
        lines.append(
            f"{(row['rank'] if row['rank'] is not None else ''):>7}  "
            f"{row['domain']:<42}{'/'.join(row['kinds']):<16}"
            f"{','.join(row['addresses']):<30}"
            f"{_ports_label(row['ports']):<22}"
            f"{_os_flags(row['oses']):<10}"
        )
    return RenderedTable(name, rows, "\n".join(lines))


def table_5w(findings: Sequence[SiteFinding]) -> RenderedTable:
    """Localhost-bound WebRTC leakage: STUN checks to loopback peers."""
    return _render_webrtc_table(
        "Table 5W", _webrtc_rows(findings, Locality.LOCALHOST)
    )


def table_6w(findings: Sequence[SiteFinding]) -> RenderedTable:
    """LAN-bound WebRTC leakage: host candidates + RFC 1918 STUN peers."""
    return _render_webrtc_table("Table 6W", _webrtc_rows(findings, Locality.LAN))


def table_webrtc_era(
    findings_by_policy: dict[str, Sequence[SiteFinding]],
) -> RenderedTable:
    """Pre-M74 vs mDNS era comparison of WebRTC leak counts per site.

    The delta column isolates exactly what Chrome's mDNS obfuscation
    removed: raw host candidates vanish from the mdns era, while STUN
    checks to explicit local peers survive in both — so sites whose only
    WebRTC traffic is candidate gathering drop to zero, and sites
    actively knocking on local peers keep their STUN rows.
    """
    def leak_counts(findings: Sequence[SiteFinding]) -> dict[str, tuple[int, int]]:
        counts: dict[str, tuple[int, int]] = {}
        for finding in findings:
            localhost = sum(
                1
                for r in finding.requests(Locality.LOCALHOST)
                if r.scheme == "webrtc"
            )
            lan = sum(
                1
                for r in finding.requests(Locality.LAN)
                if r.scheme == "webrtc"
            )
            if localhost or lan:
                counts[finding.domain] = (localhost, lan)
        return counts

    per_policy = {
        policy: leak_counts(findings)
        for policy, findings in findings_by_policy.items()
    }
    ranks: dict[str, int | None] = {}
    for findings in findings_by_policy.values():
        for finding in findings:
            ranks.setdefault(finding.domain, finding.rank)
    policies = sorted(per_policy)
    domains = sorted(
        {domain for counts in per_policy.values() for domain in counts},
        key=lambda d: (ranks.get(d) or 10**9, d),
    )
    rows = []
    header = f"{'Rank':>7}  {'Domain':<42}" + "".join(
        f"{policy + ' lo/LAN':>18}" for policy in policies
    ) + f"{'delta':>8}"
    lines = [header]
    for domain in domains:
        counts = {
            policy: per_policy[policy].get(domain, (0, 0))
            for policy in policies
        }
        totals = [sum(counts[policy]) for policy in policies]
        delta = max(totals) - min(totals) if len(totals) > 1 else totals[0]
        rows.append(
            {
                "domain": domain,
                "rank": ranks.get(domain),
                "counts": counts,
                "delta": delta,
            }
        )
        cells = "".join(
            f"{counts[policy][0]:>12}/{counts[policy][1]:<5}"
            for policy in policies
        )
        lines.append(
            f"{(ranks.get(domain) if ranks.get(domain) is not None else ''):>7}  "
            f"{domain:<42}{cells}{delta:>8}"
        )
    return RenderedTable("Table W-era", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Table 11 — developer-error localhost sites
# ---------------------------------------------------------------------------

_DEV_KIND_ORDER = (
    DeveloperErrorKind.LOCAL_FILE_SERVER,
    DeveloperErrorKind.PEN_TEST,
    DeveloperErrorKind.LIVERELOAD,
    DeveloperErrorKind.REDIRECT,
    DeveloperErrorKind.SOCKJS_NODE,
    DeveloperErrorKind.OTHER_LOCAL_SERVICE,
)


def table_11(findings: Sequence[SiteFinding]) -> RenderedTable:
    """Developer-error localhost sites, grouped by sub-kind."""
    rows = [
        row
        for row in _localhost_site_rows(findings)
        if row["behavior"] is BehaviorClass.DEVELOPER_ERROR
    ]
    lines = [
        f"{'Kind':<22}{'Rank':>7}  {'Domain':<40}{'Proto':<8}"
        f"{'Ports':<16}{'OS (W L M)':<10}"
    ]
    for kind in _DEV_KIND_ORDER:
        section = [row for row in rows if row["dev_kind"] is kind]
        section.sort(key=lambda r: (r["rank"] or 10**9, r["domain"]))
        for row in section:
            lines.append(
                f"{kind.value:<22}{(row['rank'] or ''):>7}  "
                f"{row['domain']:<40}{'/'.join(row['schemes']):<8}"
                f"{_ports_label(row['ports']):<16}"
                f"{_os_flags(row['oses']):<10}"
            )
    return RenderedTable("Table 11", rows, "\n".join(lines))
