"""Typed row records for the telemetry store.

These mirror the database schema in :mod:`repro.storage.db`; keeping them
as plain dataclasses lets analysis code work on query results without
touching SQL.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class VisitRow:
    """One page visit (site × OS × crawl), as its ``visits`` row holds it.

    :meth:`repro.crawler.crawl.CrawlRecord.from_row` turns it back into
    the record that wrote it.
    """

    visit_id: int
    crawl: str
    domain: str
    os_name: str
    success: bool
    error: int
    rank: int | None
    category: str | None
    #: Connectivity-gate skip: a measurement-side outage, not a site
    #: failure (kept out of success/failure accounting, as in Table 1).
    skipped: bool = False
    #: Visit attempts the outcome took (1 = first try).
    attempts: int = 1
    #: WebRTC policy era the visit's browser ran under (``pre-m74`` /
    #: ``mdns``); None when the channel was off.
    webrtc_policy: str | None = None
    #: Content digest written with the row
    #: (:func:`~repro.storage.integrity.visit_digest`).
    digest: str | None = None


@dataclass(frozen=True, slots=True)
class EventRow:
    """One stored NetLog event."""

    visit_id: int
    time: float
    type: int
    source_id: int
    source_type: int
    phase: int
    params_json: str


@dataclass(frozen=True, slots=True)
class DeadLetterRow:
    """One quarantined (crawl, domain, OS) visit.

    A visit lands here when it failed non-transiently ``failures`` times
    under supervision (deadline cancellations, persistent hangs); resume
    loops skip it instead of re-poisoning themselves, and
    ``repro deadletter retry`` re-queues it explicitly.
    """

    crawl: str
    domain: str
    os_name: str
    error: int
    failures: int
    reason: str


@dataclass(frozen=True, slots=True)
class LocalRequestRow:
    """One detected locally-bound request (denormalised for fast queries)."""

    visit_id: int
    crawl: str
    domain: str
    os_name: str
    locality: str
    scheme: str
    host: str
    port: int
    path: str
    time: float | None
    via_redirect: bool
