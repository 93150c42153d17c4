"""Single-OS crawling: visit landing pages, collect and detect telemetry.

One :class:`Crawler` drives one OS environment over a population: for each
website it runs the connectivity gate, visits the landing page with the
simulated browser for the monitoring window, then runs the local-traffic
detector over the captured NetLog events.  Output is a stream of
:class:`CrawlRecord` rows — the unit the storage and analysis layers
consume.

Transient failures (resolver hiccups, resets, uplink outages — injected
or organic) are retried under a :class:`~repro.crawler.retry.RetryPolicy`
before they land in a Table 1 bucket; backoff waits accrue on a virtual
clock, so resilience costs simulated seconds, not wall-clock ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .. import obs
from ..browser.errors import NetError, table1_bucket
from ..core.detector import DetectionResult, LocalTrafficDetector
from ..faults.injector import FaultInjector
from ..netlog.events import NetLogEvent
from ..netlog.pipeline import EventSink, ListSink, Tee
from ..netlog.binary import BinaryNetLogBuffer
from ..netlog.codec import make_capture_buffer
from ..netlog.writer import NetLogBuffer
from ..storage.records import VisitRow
from ..web.website import Website
from .connectivity import ConnectivityChecker
from .retry import NO_RETRY, RetryPolicy, VirtualClock
from .vm import OSEnvironment

_RETRIES = obs.counter(
    "repro_visit_retries_total",
    "visit re-attempts by the NetError class that triggered them",
    ("error",),
)
_BACKOFF_MS = obs.counter(
    "repro_visit_backoff_sim_ms_total",
    "simulated milliseconds spent backing off between attempts",
)


@dataclass(slots=True)
class CrawlRecord:
    """Outcome of visiting one site on one OS."""

    domain: str
    os_name: str
    success: bool
    error: NetError = NetError.OK
    rank: int | None = None
    category: str | None = None
    detection: DetectionResult | None = None
    connectivity_skipped: bool = False
    #: How many visit attempts this outcome took (1 = no retries needed).
    attempts: int = 1
    #: Total simulated backoff spent between those attempts.
    backoff_ms: float = 0.0
    #: Raw NetLog events of the successful attempt — populated only when
    #: the crawler runs with ``capture_events=True`` (debugging and
    #: equivalence tests).  Archiving campaigns no longer buffer events
    #: here: they stream each event into :attr:`netlog` as it is emitted.
    events: list[NetLogEvent] | None = None
    #: Streamed serialised NetLog capture of the successful attempt
    #: (``capture_netlog=True``): events were rendered to their record
    #: encoding (JSON text or binary frames, per the crawler's
    #: ``netlog_format``) as the visit ran, ready for the archive to wrap
    #: into a document; the campaign clears it once the document is
    #: written.
    netlog: "NetLogBuffer | BinaryNetLogBuffer | None" = None

    @property
    def error_bucket(self) -> str | None:
        """Table 1 failure column for this record, or None on success."""
        if self.success:
            return None
        return table1_bucket(self.error)

    @property
    def has_local_activity(self) -> bool:
        return bool(self.detection and self.detection.has_local_activity)

    @property
    def recovered(self) -> bool:
        """Succeeded, but only after at least one retry."""
        return self.success and self.attempts > 1

    def visit_meta(
        self, crawl: str, os_name: str, webrtc_policy: str | None
    ) -> dict:
        """The ``visitMeta`` head of this visit's archived document."""
        meta = {
            "crawl": crawl,
            "domain": self.domain,
            "os": os_name,
            "success": self.success,
            "error": int(self.error),
            "rank": self.rank,
            "category": self.category,
            "skipped": self.connectivity_skipped,
            "attempts": self.attempts,
        }
        # Only webrtc-enabled campaigns carry the key: channel-off
        # archives stay byte-identical to pre-v4 ones.
        if webrtc_policy is not None:
            meta["webrtc_policy"] = webrtc_policy
        return meta

    @classmethod
    def from_visit_meta(
        cls,
        meta: dict,
        domain: str,
        os_name: str,
        detection: DetectionResult | None,
    ) -> "CrawlRecord":
        """The record a :meth:`visit_meta` block describes (its inverse).

        A key the block lacks takes the value of a clean visit: success,
        error 0, no rank or category, not skipped, one attempt.  The
        error code is kept as the int the block holds, which need not be
        a :class:`NetError` member.  ``domain`` and ``os_name`` name the
        row to rebuild; ``detection`` is the document's re-run detection.
        """
        return cls(
            domain=domain,
            os_name=os_name,
            success=bool(meta.get("success", True)),
            error=int(meta.get("error", 0)),
            rank=meta.get("rank"),
            category=meta.get("category"),
            detection=detection,
            connectivity_skipped=bool(meta.get("skipped", False)),
            attempts=int(meta.get("attempts", 1)),
        )

    @classmethod
    def from_row(
        cls, row: VisitRow, detection: DetectionResult | None
    ) -> "CrawlRecord":
        """The record a stored ``visits`` row describes (the inverse of
        :meth:`record_into`).

        The stored error code comes back as its :class:`NetError` member,
        or as the int itself when no member has it.  ``detection`` is the
        row's stored detection (None when it has no local requests).
        Simulated backoff is not stored, so it reads 0.
        """
        try:
            error = NetError(row.error)
        except ValueError:
            error = row.error
        return cls(
            domain=row.domain,
            os_name=row.os_name,
            success=row.success,
            error=error,
            rank=row.rank,
            category=row.category,
            detection=detection,
            connectivity_skipped=row.skipped,
            attempts=row.attempts,
        )

    def record_into(
        self, store, crawl: str, os_name: str, webrtc_policy: str | None
    ) -> int:
        """Write this visit's telemetry row (detections only when active);
        returns its visit id."""
        return store.record_visit(
            crawl,
            self.domain,
            os_name,
            success=self.success,
            error=int(self.error),
            rank=self.rank,
            category=self.category,
            skipped=self.connectivity_skipped,
            attempts=self.attempts,
            detection=self.detection if self.has_local_activity else None,
            webrtc_policy=webrtc_policy,
        )


@dataclass(slots=True)
class CrawlStats:
    """Success/failure accounting for one crawl (one Table 1 row)."""

    os_name: str
    crawl: str
    successes: int = 0
    failures: int = 0
    errors: dict[str, int] | None = None
    skipped: int = 0
    #: Visit attempts across all records (== total when retries are off).
    total_attempts: int = 0
    #: Records that needed more than one attempt.
    retried: int = 0
    #: Records that failed transiently but succeeded on a retry.
    recovered: int = 0
    #: Simulated milliseconds spent backing off between attempts.
    backoff_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.errors is None:
            self.errors = {}

    @property
    def total(self) -> int:
        return self.successes + self.failures

    def record(self, record: CrawlRecord) -> None:
        self.total_attempts += record.attempts
        self.backoff_ms += record.backoff_ms
        if record.attempts > 1:
            self.retried += 1
        if record.recovered:
            self.recovered += 1
        if record.connectivity_skipped:
            self.skipped += 1
            return
        if record.success:
            self.successes += 1
        else:
            self.failures += 1
            bucket = record.error_bucket or "Others"
            assert self.errors is not None
            self.errors[bucket] = self.errors.get(bucket, 0) + 1


class Crawler:
    """Visits websites on one OS and detects their local traffic."""

    def __init__(
        self,
        environment: OSEnvironment,
        *,
        detector: LocalTrafficDetector | None = None,
        check_connectivity: bool = True,
        include_internal: bool = False,
        retry_policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        capture_events: bool = False,
        capture_netlog: bool = False,
        netlog_format: str | None = None,
    ) -> None:
        self.environment = environment
        # Keep the successful attempt's raw NetLog events on the record;
        # off by default — at paper scale raw events were the 11 TB
        # problem.  Archiving campaigns use ``capture_netlog`` instead:
        # events are serialised to record text as the browser emits them
        # (one pass, no object buffer) and the campaign archives the
        # finished buffer.
        self.capture_events = capture_events
        self.capture_netlog = capture_netlog
        # Capture buffer encoding: "json" or "binary" (None defers to the
        # codec default, normally JSON or $REPRO_NETLOG_FORMAT).
        self.netlog_format = netlog_format
        self.detector = detector if detector is not None else LocalTrafficDetector()
        self.retry_policy = retry_policy if retry_policy is not None else NO_RETRY
        self.injector = injector
        self.clock = VirtualClock()
        if injector is not None:
            # Thread the fault seams through the whole stack this crawler
            # owns: resolver, network, and connectivity gate.
            from ..browser.dns import SimulatedResolver
            from ..webrtc.ice import IceAgent

            network = environment.network(fault_hook=injector.connect_hook)
            self.browser = environment.browser(
                resolver=SimulatedResolver(fault_hook=injector.dns_hook),
                network=network,
                webrtc=IceAgent(
                    environment.os_name,
                    stun_hook=injector.stun_hook,
                    mdns_hook=injector.mdns_hook,
                ),
            )
            self.connectivity = ConnectivityChecker(
                network=self.browser.network,
                fault_hook=injector.connectivity_hook,
            )
        else:
            self.browser = environment.browser()
            self.connectivity = ConnectivityChecker(network=self.browser.network)
        self.check_connectivity = check_connectivity
        # The paper crawled landing pages only (section 3.3 lists internal
        # pages as future work); opting in visits every declared internal
        # page too and merges its local requests into the site record.
        self.include_internal = include_internal

    def _sim_now_ms(self) -> float:
        return self.clock.now_ms

    def crawl_site(self, website: Website) -> CrawlRecord:
        """Visit one website, retrying transient failures per policy.

        The connectivity gate runs before every attempt and has its own
        wait budget: a bounded uplink outage is ridden out with backoff
        rather than charged against the site's visit attempts, so an
        outage and a transient site failure never compound into a
        spurious Table 1 entry.
        """
        if not obs.enabled():
            return self._crawl_site(website)
        with obs.span(
            "visit",
            category="crawl",
            sim_now=self._sim_now_ms,
            args={"domain": website.domain, "os": self.environment.os_name},
        ) as span_args:
            record = self._crawl_site(website)
            span_args["success"] = record.success
            if record.attempts > 1:
                span_args["attempts"] = record.attempts
            return record

    def _crawl_site(self, website: Website) -> CrawlRecord:
        policy = self.retry_policy
        attempt = 0
        backoff_total = 0.0
        while True:
            attempt += 1
            skip, backoff_total = self._await_connectivity(website, backoff_total)
            if skip is not None:
                # Uplink stayed down through the wait budget: record a
                # skip rather than misattribute the failure (section 3.1).
                skip.attempts = attempt
                skip.backoff_ms = backoff_total
                return skip
            record = self._visit_once(website)
            record.attempts = attempt
            record.backoff_ms = backoff_total
            if record.success or not policy.should_retry(record.error, attempt):
                return record
            _RETRIES.inc(labels=(record.error.name,))
            wait = policy.backoff_ms(website.domain, attempt)
            _BACKOFF_MS.inc(wait)
            backoff_total += wait
            self.clock.advance(wait)

    def _await_connectivity(
        self, website: Website, backoff_total: float
    ) -> tuple[CrawlRecord | None, float]:
        """Run the connectivity gate, waiting out bounded outages.

        Returns ``(skip_record, backoff)`` when the uplink is still down
        after the wait budget, ``(None, backoff)`` when it is safe to
        visit.  The wait budget matches the retry budget
        (``max_attempts - 1`` re-checks), so the seed's no-retry policy
        keeps its skip-immediately behaviour.
        """
        if not self.check_connectivity:
            return None, backoff_total
        policy = self.retry_policy
        waits = 0
        while not self.connectivity.check():
            if (
                not policy.retry_connectivity_skips
                or waits >= policy.max_attempts - 1
            ):
                return (
                    CrawlRecord(
                        domain=website.domain,
                        os_name=self.environment.os_name,
                        success=False,
                        error=NetError.ERR_INTERNET_DISCONNECTED,
                        rank=website.rank,
                        category=website.category,
                        connectivity_skipped=True,
                    ),
                    backoff_total,
                )
            waits += 1
            wait = policy.backoff_ms(f"{website.domain}@gate", waits)
            backoff_total += wait
            self.clock.advance(wait)
        return None, backoff_total

    def _visit_once(self, website: Website) -> CrawlRecord:
        """One visit attempt: page load and detection (gate already run).

        Single-pass streaming: detection (and, when capturing, the raw
        event collector / serialised NetLog buffer) ride the browser's
        ordered event stream through one sink graph — no post-hoc
        re-walk of a materialised event list.  A failed attempt's
        partial stream is simply discarded with its sinks.
        """
        os_name = self.environment.os_name
        forced = website.load_error_for(os_name)
        detection = self.detector.sink()
        sinks: list[EventSink] = [detection]
        collector = ListSink() if self.capture_events else None
        if collector is not None:
            sinks.append(collector)
        netlog = (
            make_capture_buffer(self.netlog_format, checksums=True)
            if self.capture_netlog
            else None
        )
        if netlog is not None:
            sinks.append(netlog)
        sink = sinks[0] if len(sinks) == 1 else Tee(*sinks)
        visit = self.browser.visit(
            website.page(), forced_error=forced, sink=sink
        )
        record = CrawlRecord(
            domain=website.domain,
            os_name=os_name,
            success=visit.success,
            error=visit.error,
            rank=website.rank,
            category=website.category,
        )
        if visit.success:
            record.detection = detection.finish()
            if collector is not None:
                record.events = collector.finish()
            if netlog is not None:
                record.netlog = netlog.finish()
            if self.include_internal and website.internal_pages:
                self._crawl_internal_pages(website, record)
        return record

    def _crawl_internal_pages(
        self, website: Website, record: CrawlRecord
    ) -> None:
        """Visit declared internal pages, merging their local requests."""
        assert record.detection is not None
        for path in website.internal_pages:
            sink = self.detector.sink()
            visit = self.browser.visit(website.page(path), sink=sink)
            if not visit.success:
                continue
            detection = sink.finish()
            record.detection.requests.extend(detection.requests)
            record.detection.total_flows += detection.total_flows

    def crawl(self, websites: Iterable[Website]) -> Iterator[CrawlRecord]:
        """Visit each website once, in order, yielding records."""
        for website in websites:
            yield self.crawl_site(website)
