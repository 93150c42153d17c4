"""Multi-OS measurement campaigns — the paper's three crawls end to end.

A :class:`Campaign` runs one population across every OS it is defined for
(sequentially, as the paper did: "we start measurements on each OS at
different times"), keeps the crawl statistics per OS (Table 1), and folds
the per-visit detections into per-site :class:`~repro.core.report.SiteFinding`
records with a behaviour classification (RQ3).

Only sites that exhibited local activity retain their detections —
everything else contributes to statistics and is dropped, which is what
keeps full 100K×OS campaigns in memory.

Campaigns are resilient by construction:

* a :class:`~repro.crawler.retry.RetryPolicy` re-attempts transient visit
  failures before they land in a Table 1 bucket;
* a :class:`~repro.faults.FaultPlan` can be attached to inject scheduled
  faults at every pipeline seam (chaos testing);
* every visit runs through a
  :class:`~repro.crawler.executor.SupervisedExecutor`, one at a time: a
  wedged visit is cancelled on its deadline, and one that keeps failing
  it is dead-lettered instead of re-killing every resumed run;
* with a persistent :class:`~repro.storage.db.TelemetryStore`, progress
  is checkpointed per visit, and ``run(..., resume=True)`` skips every
  (crawl, OS, domain) already recorded — a campaign killed mid-run picks
  up where it stopped and produces findings identical to an uninterrupted
  one (see :func:`finding_fingerprint`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..core.classifier import BehaviorClassifier
from ..core.detector import LocalTrafficDetector
from ..core.report import SiteFinding
from ..faults.injector import (
    FaultInjector,
    InjectedCrashError,
    StorageWriteError,
)
from ..faults.plan import FaultPlan
from ..netlog.archive import NetLogArchive
from ..netlog.placer import ArchiveWriterError
from ..storage.db import TelemetryStore
from ..web.population import CrawlPopulation
from .crawl import Crawler, CrawlRecord, CrawlStats
from .executor import CampaignInterrupted, ExecutorConfig, SupervisedExecutor
from .retry import NO_RETRY, RetryPolicy
from .vm import OSEnvironment

_VISITS = obs.counter(
    "repro_visits_total",
    "completed visits by OS and result (ok, error, skipped)",
    ("os", "result"),
)
_LOCAL_ACTIVE = obs.counter(
    "repro_local_active_visits_total",
    "visits that detected local network activity, by OS",
    ("os",),
)
_ARCHIVE_FAILURES = obs.counter(
    "repro_archive_write_failures_total",
    "NetLog archive documents lost to exhausted write retries",
)


@dataclass(slots=True)
class CampaignResult:
    """Everything a campaign measured."""

    name: str
    oses: tuple[str, ...]
    stats: dict[str, CrawlStats] = field(default_factory=dict)
    findings: list[SiteFinding] = field(default_factory=list)
    # Lazy domain → finding index: per-site lookups over a 100K-site
    # campaign would otherwise be a quadratic linear scan.  Rebuilt
    # whenever the findings list is replaced or its length changes.
    _finding_index: dict[str, SiteFinding] = field(
        default_factory=dict, repr=False, compare=False
    )
    _finding_index_basis: list[SiteFinding] | None = field(
        default=None, repr=False, compare=False
    )

    def finding(self, domain: str) -> SiteFinding | None:
        if self._finding_index_basis is not self.findings or len(
            self._finding_index
        ) != len(self.findings):
            self._finding_index = {f.domain: f for f in self.findings}
            self._finding_index_basis = self.findings
        return self._finding_index.get(domain)

    @property
    def total_successes(self) -> int:
        return sum(stats.successes for stats in self.stats.values())


def finding_fingerprint(finding: SiteFinding) -> tuple:
    """Canonical identity of one finding, for invariance checks.

    Covers everything a finding *means* — domain, rank, category,
    behaviour verdict, and every detected local request with its timing —
    while excluding browser-process artifacts (NetLog source ids), which
    legitimately shift when retries or a resume change how many pages a
    browser instance has loaded before a given site.
    """
    classification = (
        (
            finding.classification.behavior.value,
            finding.classification.signature_name,
        )
        if finding.classification is not None
        else None
    )
    per_os = tuple(
        (
            os_name,
            detection.page_load_time,
            detection.total_flows,
            tuple(
                (
                    request.locality.value,
                    request.scheme,
                    request.host,
                    request.port,
                    request.path,
                    request.time,
                    request.method,
                    request.via_redirect,
                    request.initiator,
                )
                for request in detection.requests
            ),
        )
        for os_name, detection in sorted(finding.per_os.items())
    )
    return (
        finding.domain,
        finding.rank,
        finding.population,
        finding.category,
        classification,
        per_os,
    )


class Campaign:
    """Runs one population across its OS matrix and classifies findings."""

    def __init__(
        self,
        *,
        monitor_window_ms: float | None = None,
        detector: LocalTrafficDetector | None = None,
        classifier: BehaviorClassifier | None = None,
        check_connectivity: bool = False,
        include_internal: bool = False,
        store: TelemetryStore | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        injector: FaultInjector | None = None,
        checkpoint_every: int = 0,
        executor: ExecutorConfig | None = None,
        netlog_archive: NetLogArchive | None = None,
        netlog_format: str | None = None,
        on_visit: Callable[[CrawlRecord], None] | None = None,
    ) -> None:
        self.monitor_window_ms = monitor_window_ms
        self.detector = detector
        self.classifier = classifier if classifier is not None else BehaviorClassifier()
        self.include_internal = include_internal
        # Optional persistence, mirroring the paper's parse-into-a-database
        # step: every visit outcome is stored; detected local requests are
        # stored for sites that had any (raw events are not persisted by
        # default — at paper scale they were the 11 TB problem).
        self.store = store
        # The connectivity gate adds one probe per visit; campaigns over
        # synthetic populations have no outages, so it defaults off for
        # throughput and can be enabled to exercise the full loop.
        self.check_connectivity = check_connectivity
        self.retry_policy = retry_policy if retry_policy is not None else NO_RETRY
        # Chaos knobs: a plan builds a fresh injector per run(); passing an
        # injector explicitly shares its attempt state across runs.
        self.fault_plan = fault_plan
        self._shared_injector = injector
        #: The injector the most recent run() used (None without faults) —
        #: exposes per-kind injection counts to benches and tests.
        self.last_injector: FaultInjector | None = injector
        # Commit the store every N visits so a crash loses at most N rows;
        # 0 commits once per OS pass (plus once at the end).
        self.checkpoint_every = checkpoint_every
        # Every run's visits go through a SupervisedExecutor (deadlines,
        # dead-letter quarantine, drain), one at a time; None
        # takes the default supervision knobs.
        self.executor_config = executor
        #: The executor the most recent run() used — exposes supervision
        #: statistics (cancellations, quarantines, drains).
        self.last_executor: SupervisedExecutor | None = None
        # Optional raw-capture archive: every successful visit's NetLog
        # is persisted as a checksummed document (the paper kept every
        # capture; `repro fsck` repairs database damage from it).  A run
        # places documents from a writer process, and every store commit
        # first waits for the documents of the rows it publishes.
        self.netlog_archive = netlog_archive
        # Document encoding for archived captures: "json" or "binary"
        # (None defers to the codec default).  Detection and analysis are
        # format-agnostic, so this is purely an operational knob.
        self.netlog_format = netlog_format
        #: Archive documents lost in the most recent run() — to exhausted
        #: disk-full retries, or not placed by the writer — holes
        #: `repro fsck` will flag.
        self.archive_failures = 0
        # Live-progress hook: called once per visit, after it is
        # persisted.  Restored rows on a resume are not re-reported.
        self.on_visit = on_visit
        # Policy era of the population the current run() is crawling;
        # recorded on every stored visit row (NULL = channel off).
        self._webrtc_policy: str | None = None

    def _make_injector(self) -> FaultInjector | None:
        if self._shared_injector is not None:
            return self._shared_injector
        if self.fault_plan is not None:
            return FaultInjector(self.fault_plan)
        return None

    def run(
        self, population: CrawlPopulation, *, resume: bool = False
    ) -> CampaignResult:
        """Crawl ``population`` on every OS it is defined for.

        With ``resume=True`` (requires a store), every (OS, domain) that
        already has a stored outcome is restored from the database instead
        of being re-crawled; the returned result is indistinguishable —
        same Table 1 statistics, same findings — from a run that was never
        interrupted.
        """
        if resume and self.store is None:
            raise ValueError("resume=True requires a persistent store")
        injector = self._make_injector()
        self.last_injector = injector
        self.archive_failures = 0
        self._webrtc_policy = getattr(population, "webrtc_policy", None)
        if self.store is not None:
            self.store.write_fault_hook = (
                injector.storage_hook if injector is not None else None
            )
            self.store.before_commit = (
                self._archive_barrier if self.netlog_archive is not None else None
            )
        result = CampaignResult(name=population.name, oses=population.oses)
        findings: dict[str, SiteFinding] = {}
        try:
            with (
                self.netlog_archive.deferred()
                if self.netlog_archive is not None
                else nullcontext()
            ):
                self._run_passes(population, result, findings, injector, resume)
        except ArchiveWriterError:
            # The writer was lost with documents in flight, so rows
            # recorded since the last barrier may have none on disk:
            # discard them, as a crash would; a resumed run re-crawls them.
            if self.store is not None:
                self.store.rollback()
            raise

        for finding in findings.values():
            finding.classification = self.classifier.classify_per_os(
                {
                    os_name: detection.requests
                    for os_name, detection in finding.per_os.items()
                }
            )
        result.findings = sorted(
            findings.values(),
            key=lambda f: (f.rank if f.rank is not None else 10**9, f.domain),
        )
        return result

    def _run_passes(
        self,
        population: CrawlPopulation,
        result: CampaignResult,
        findings: dict[str, SiteFinding],
        injector: FaultInjector | None,
        resume: bool,
    ) -> None:
        """Every OS pass under one supervisor, then the last checkpoint."""
        executor = SupervisedExecutor(self.executor_config)
        self.last_executor = executor
        try:
            with obs.span(
                "campaign",
                category="campaign",
                args={"population": population.name, "resume": resume},
            ), executor.supervise():
                for os_name in population.oses:
                    with obs.span(
                        "os-pass", category="campaign", args={"os": os_name}
                    ):
                        self._run_os(
                            population, os_name, result, findings,
                            injector, resume, executor,
                        )
                    if self.store is not None:
                        self.store.commit()
        except (InjectedCrashError, CampaignInterrupted):
            # A simulated hard crash or a graceful signal drain: flush
            # what completed so a resumed campaign starts from this exact
            # checkpoint, then propagate.
            self._checkpoint()
            raise
        self._checkpoint()

    def _checkpoint(self) -> None:
        """Commit the store; without one, still run the archive barrier."""
        if self.store is not None:
            self.store.commit()
        elif self.netlog_archive is not None:
            self._archive_barrier()

    def _archive_barrier(self) -> None:
        """Wait until every queued archive document is on disk.

        The store's ``before_commit`` hook during a run, so no row is
        committed before its document.  Documents the writer could not
        place count as archive failures: the same end state as exhausted
        write retries (the row stays, `repro fsck` reports the hole).
        """
        assert self.netlog_archive is not None
        lost = len(self.netlog_archive.flush())
        if lost:
            self.archive_failures += lost
            _ARCHIVE_FAILURES.inc(lost)

    # -- one OS pass -------------------------------------------------------

    def _run_os(
        self,
        population: CrawlPopulation,
        os_name: str,
        result: CampaignResult,
        findings: dict[str, SiteFinding],
        injector: FaultInjector | None,
        resume: bool,
        executor: SupervisedExecutor,
    ) -> None:
        environment = (
            OSEnvironment.for_os(os_name, monitor_window_ms=self.monitor_window_ms)
            if self.monitor_window_ms is not None
            else OSEnvironment.for_os(os_name)
        )
        stats = CrawlStats(os_name=os_name, crawl=population.name)
        result.stats[os_name] = stats

        websites = population.websites
        if resume:
            done = self._restore_os(population.name, os_name, stats, findings)
            if done:
                websites = [w for w in websites if w.domain not in done]

        def crawler_factory(pass_injector: FaultInjector | None) -> Crawler:
            return Crawler(
                environment,
                detector=self.detector,
                check_connectivity=self.check_connectivity,
                include_internal=self.include_internal,
                retry_policy=self.retry_policy,
                injector=pass_injector,
                capture_netlog=self.netlog_archive is not None,
                netlog_format=self.netlog_format,
            )

        for outcome in executor.run_pass(
            os_name, websites, crawler_factory=crawler_factory, injector=injector
        ):
            record = outcome.record
            if injector is not None:
                # The crash seam fires before the record is accounted or
                # persisted: a crashed visit leaves no trace, exactly like
                # a killed process, and resume re-crawls it.
                injector.on_visit()
            stats.record(record)
            self._persist(population.name, os_name, record)
            if outcome.quarantined:
                self._dead_letter(
                    population.name, os_name, record, outcome.deadline_failures
                )
            self._fold(record, os_name, findings, population.name)
            self._observe_visit(record)
            if (
                self.checkpoint_every
                and self.store is not None
                and outcome.task.index % self.checkpoint_every == 0
            ):
                self.store.commit()

    def _restore_os(
        self,
        crawl: str,
        os_name: str,
        stats: CrawlStats,
        findings: dict[str, SiteFinding],
    ) -> set[str]:
        """Replay already-recorded visits through the live accounting.

        Each stored row becomes its :class:`CrawlRecord` again and is
        counted and folded exactly as a crawled one; it is not observed
        or reported (``on_visit``) a second time.  Returns the restored
        domains.
        """
        assert self.store is not None
        rows = self.store.visits(crawl, os_name=os_name)
        if not rows:
            return set()
        detections = self.store.detections_for(crawl, os_name)
        for row in rows:
            record = CrawlRecord.from_row(row, detections.get(row.domain))
            stats.record(record)
            self._fold(record, os_name, findings, crawl)
        return {row.domain for row in rows}

    # -- per-record plumbing ----------------------------------------------

    def _observe_visit(self, record: CrawlRecord) -> None:
        """Per-visit observability: metrics, then the live-progress hook."""
        if _VISITS.enabled:
            result = (
                "skipped"
                if record.connectivity_skipped
                else ("ok" if record.success else "error")
            )
            _VISITS.inc(labels=(record.os_name, result))
            if record.has_local_activity:
                _LOCAL_ACTIVE.inc(labels=(record.os_name,))
        if self.on_visit is not None:
            self.on_visit(record)

    def _dead_letter(
        self, crawl: str, os_name: str, record: CrawlRecord, failures: int
    ) -> None:
        if self.store is None:
            return
        self.store.record_dead_letter(
            crawl,
            record.domain,
            os_name,
            error=int(record.error),
            failures=failures,
            reason="visit deadline exceeded (hang or pathological page)",
        )

    def _persist(self, crawl: str, os_name: str, record: CrawlRecord) -> None:
        if self.netlog_archive is not None and record.netlog is not None:
            self._archive_events(crawl, os_name, record)
            record.netlog = None
        if self.store is None:
            return
        write_attempts = 0
        # The write retry budget mirrors the visit retry budget: storage
        # faults are transient by definition (the injector's model), but a
        # campaign run without retries keeps the seed's fail-fast shape.
        budget = self.retry_policy.max_attempts
        while True:
            write_attempts += 1
            try:
                record.record_into(
                    self.store, crawl, os_name, self._webrtc_policy
                )
                return
            except StorageWriteError:
                if write_attempts >= budget:
                    raise

    def _archive_events(
        self, crawl: str, os_name: str, record: CrawlRecord
    ) -> None:
        """Persist one visit's streamed NetLog capture into the archive.

        The record carries a :class:`NetLogBuffer` — events were already
        serialised to record text while the visit ran, so archiving just
        wraps the buffer into a document and queues it to the run's
        writer process.  Injected disk-full faults are retried under the
        same budget as storage writes; on exhaustion the document is
        *dropped* (the visit row survives) and counted in
        :attr:`archive_failures` — `repro fsck` flags the hole as a
        missing-archive finding.  A real ``OSError`` placing the document
        happens in the writer, is not retried, and is counted the same
        way at the next barrier (:meth:`_archive_barrier`).
        """
        assert self.netlog_archive is not None and record.netlog is not None
        injector = self.last_injector
        key = f"{crawl}:{os_name}:{record.domain}"
        meta = record.visit_meta(crawl, os_name, self._webrtc_policy)
        attempts = 0
        budget = self.retry_policy.max_attempts
        while True:
            attempts += 1
            try:
                if injector is not None:
                    injector.archive_write_hook(key)
                self.netlog_archive.write_buffered(
                    crawl,
                    os_name,
                    record.domain,
                    record.netlog,
                    meta=meta,
                    corrupt=(
                        injector.corrupt_netlog if injector is not None else None
                    ),
                )
                return
            except OSError:
                if attempts >= budget:
                    self.archive_failures += 1
                    _ARCHIVE_FAILURES.inc()
                    return

    def _fold(
        self,
        record: CrawlRecord,
        os_name: str,
        findings: dict[str, SiteFinding],
        population_name: str,
    ) -> None:
        if not record.has_local_activity:
            return
        finding = findings.get(record.domain)
        if finding is None:
            finding = SiteFinding(
                domain=record.domain,
                rank=record.rank,
                population=population_name,
                category=record.category,
            )
            findings[record.domain] = finding
        assert record.detection is not None
        finding.per_os[os_name] = record.detection


def run_campaign(
    population: CrawlPopulation,
    *,
    monitor_window_ms: float | None = None,
) -> CampaignResult:
    """Convenience one-shot campaign with default components."""
    return Campaign(monitor_window_ms=monitor_window_ms).run(population)
