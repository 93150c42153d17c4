"""Supervised execution of campaign visits: one inline loop.

Every campaign visit runs through :class:`SupervisedExecutor`, one at a
time on the calling thread and in submission order.  The paper bounds a
visit by its 20 s NetLog window, and this reproduction runs that window
on a simulated clock, so threads would change nothing it measures;
process parallelism is the sharded fabric's job.  What the executor adds
to a plain loop is supervision against the two failure modes the paper's
own crawls hit — a wedged visit that stalls the run forever, and a
deterministically failing visit that re-kills every resumed run:

* Every visit attempt runs under a dual deadline: a *simulated* budget
  (``visit_deadline_ms``, by default the monitor window plus 5 s — a
  ``slow`` fault that stalls past it is cancelled deterministically) and
  a *wall-clock* guard enforced by the :class:`~.watchdog.Watchdog`
  thread (a ``hang`` fault is cancelled at most one poll interval past
  the deadline).  Crawl code never reads the cancel token, so a real
  visit that overruns the wall deadline runs to completion.
* Cancelled attempts are re-tried up to ``quarantine_after`` times; a
  visit that keeps failing comes out as an ``ERR_VISIT_DEADLINE`` Table 1
  failure marked for the dead-letter queue, so resumed campaigns never
  re-poison themselves.
* With ``handle_signals``, SIGINT/SIGTERM request a graceful drain: the
  visit in progress finishes, the next one never starts, and
  :class:`CampaignInterrupted` propagates — a later ``--resume`` is
  fingerprint-identical to an uninterrupted run.

The executor uses the campaign's own fault injector, so every fault
fires where a bare serial loop fires it.  Only the kinds the executor
drives itself (``hang``, ``slow``) keep their attempt counters here,
keyed by (kind, OS, domain).
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .. import obs
from ..browser.errors import NetError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultKind, FaultPlan
from ..web.website import Website
from .crawl import Crawler, CrawlRecord
from .watchdog import CancelToken, VisitCancelled, Watchdog

#: How far past the monitor window the default simulated budget reaches
#: (25 s at the paper's 20 s window).
_BUDGET_HEADROOM_MS = 5_000.0

_DISPATCHED = obs.counter(
    "repro_executor_dispatched_total",
    "visits started by the supervised executor",
)
_DEADLINE_CANCELLED = obs.counter(
    "repro_executor_deadline_cancelled_total",
    "attempts cancelled by the wall-clock watchdog (hangs rescued)",
)
_DEADLINE_EXCEEDED = obs.counter(
    "repro_executor_deadline_exceeded_total",
    "attempts cancelled on the simulated visit budget (slow visits)",
)
_REATTEMPTS = obs.counter(
    "repro_executor_reattempts_total",
    "re-attempts the supervisor scheduled after deadline failures",
)
_QUARANTINED = obs.counter(
    "repro_executor_quarantined_total",
    "visits parked in the dead-letter queue",
)


class CampaignInterrupted(RuntimeError):
    """A signal drained the campaign; checkpoints were flushed first."""


class _SimulatedDeadlineExceeded(Exception):
    """Internal: a visit's simulated cost overran its budget."""


@dataclass(frozen=True, slots=True)
class ExecutorConfig:
    """Supervision knobs for one campaign run."""

    #: Compatibility alias, validated and otherwise unused: visits always
    #: run one at a time (``--shards`` parallelises across processes).
    workers: int = 1
    #: Simulated per-visit budget; must exceed the monitor window.  None
    #: derives it from the window: the window plus 5 s.
    visit_deadline_ms: float | None = None
    #: Wall-clock guard per visit attempt — the hang rescue.
    wall_deadline_s: float = 5.0
    #: Watchdog scan period; bounds cancellation latency.
    watchdog_poll_s: float = 0.05
    #: Deadline failures before a visit is dead-lettered (K).
    quarantine_after: int = 3
    #: Install SIGINT/SIGTERM drain handlers while running.  The CLI
    #: does; library callers own their process's signal dispositions.
    handle_signals: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.visit_deadline_ms is not None and self.visit_deadline_ms <= 0:
            raise ValueError("visit deadline must be positive")
        if self.wall_deadline_s <= 0:
            raise ValueError("wall deadline must be positive")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")


@dataclass(slots=True)
class ExecutorStats:
    """What supervision actually did during one campaign run."""

    dispatched: int = 0
    #: Attempts cancelled by the wall-clock watchdog (hangs rescued).
    deadline_cancelled: int = 0
    #: Attempts cancelled on the simulated budget (slow visits).
    deadline_exceeded: int = 0
    #: Slow visits that stayed within budget and were ridden out.
    slow_ridden_out: int = 0
    #: Re-attempts the supervisor scheduled after deadline failures.
    reattempts: int = 0
    #: Visits parked in the dead-letter queue.
    quarantined: int = 0
    #: A signal drained this run.
    drained: bool = False
    #: Worst wall-clock overshoot past the deadline among cancelled
    #: attempts — the bench asserts this stays under one poll interval.
    max_overshoot_s: float = 0.0


@dataclass(slots=True)
class VisitTask:
    """One scheduled visit: (OS, website) at its place in the pass."""

    index: int  # 1-based submission index within the OS pass
    os_name: str
    website: Website


@dataclass(slots=True)
class VisitOutcome:
    """One finished visit, with its supervision trail."""

    task: VisitTask
    record: CrawlRecord
    #: Deadline failures the supervisor absorbed before this outcome.
    deadline_failures: int = 0
    #: The visit failed its deadline K times: dead-letter it.
    quarantined: bool = False


class SupervisedExecutor:
    """Runs campaign visits one at a time under deadlines and quarantine."""

    def __init__(self, config: ExecutorConfig | None = None) -> None:
        self.config = config if config is not None else ExecutorConfig()
        self.stats = ExecutorStats()
        self.watchdog = Watchdog(poll_interval_s=self.config.watchdog_poll_s)
        self._drain = threading.Event()
        #: Attempt counters of the executor-driven fault kinds.
        self._fault_attempts: dict[tuple[FaultKind, str, str], int] = {}

    # -- lifecycle ---------------------------------------------------------

    @contextmanager
    def supervise(self) -> Iterator["SupervisedExecutor"]:
        """Start the watchdog (and signal handlers) for a campaign run."""
        self._drain.clear()
        self.watchdog.start()
        restore = self._install_signal_handlers()
        try:
            yield self
        finally:
            restore()
            self.watchdog.stop()

    def request_drain(self) -> None:
        """Ask for a graceful drain (what the signal handlers call)."""
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def _install_signal_handlers(self) -> Callable[[], None]:
        if (
            not self.config.handle_signals
            or threading.current_thread() is not threading.main_thread()
        ):
            return lambda: None
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                continue

        def restore() -> None:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

        return restore

    def _on_signal(self, signum: int, frame: object) -> None:
        self._drain.set()

    # -- one OS pass -------------------------------------------------------

    def run_pass(
        self,
        os_name: str,
        websites: Sequence[Website],
        *,
        crawler_factory: Callable[[FaultInjector | None], Crawler],
        injector: FaultInjector | None = None,
    ) -> Iterator[VisitOutcome]:
        """Crawl one OS pass, yielding each outcome in submission order.

        ``crawler_factory`` builds the pass's crawler around ``injector``
        (the campaign's own, or None).  A visit runs when its outcome is
        asked for, so a caller that accounts each outcome before taking
        the next has accounted every finished visit when the pass stops.

        Raises :class:`CampaignInterrupted` in place of the next visit
        once a drain was requested.
        """
        crawler = crawler_factory(injector)
        budget_ms = self._deadline_budget(crawler)
        for index, website in enumerate(websites, start=1):
            if self._drain.is_set():
                self.stats.drained = True
                raise CampaignInterrupted(
                    "campaign drained after signal: every finished visit is "
                    "checkpointed; resume with --resume"
                )
            self.stats.dispatched += 1
            _DISPATCHED.inc()
            yield self._execute(
                crawler, VisitTask(index, os_name, website), injector, budget_ms
            )

    def _deadline_budget(self, crawler: Crawler) -> float:
        window = crawler.environment.monitor_window_ms
        budget = self.config.visit_deadline_ms
        if budget is None:
            return window + _BUDGET_HEADROOM_MS
        if budget <= window:
            raise ValueError(
                f"visit deadline ({budget:.0f} ms) must "
                f"exceed the monitor window ({window:.0f} ms)"
            )
        return budget

    def _execute(
        self,
        crawler: Crawler,
        task: VisitTask,
        injector: FaultInjector | None,
        budget_ms: float,
    ) -> VisitOutcome:
        config = self.config
        stats = self.stats
        context = f"{task.os_name}:{task.website.domain}"
        failures = 0
        while True:
            token = CancelToken()
            started = time.monotonic()
            try:
                with self.watchdog.watch(0, context, config.wall_deadline_s, token):
                    record = self._attempt(crawler, task, injector, token, budget_ms)
                break
            except VisitCancelled:
                overshoot = time.monotonic() - started - config.wall_deadline_s
                stats.max_overshoot_s = max(stats.max_overshoot_s, overshoot)
                stats.deadline_cancelled += 1
                _DEADLINE_CANCELLED.inc()
            except _SimulatedDeadlineExceeded:
                stats.deadline_exceeded += 1
                _DEADLINE_EXCEEDED.inc()
            failures += 1
            if failures >= config.quarantine_after:
                stats.quarantined += 1
                _QUARANTINED.inc()
                record = self._deadline_record(task, failures)
                return VisitOutcome(task, record, failures, quarantined=True)
            stats.reattempts += 1
            _REATTEMPTS.inc()
        # Fold the supervisor's absorbed attempts into the record so
        # Table 1 attempt accounting stays honest.
        record.attempts += failures
        return VisitOutcome(task, record, failures)

    def _attempt(
        self,
        crawler: Crawler,
        task: VisitTask,
        injector: FaultInjector | None,
        token: CancelToken,
        budget_ms: float,
    ) -> CrawlRecord:
        """One visit attempt, with the executor-driven hang and slow faults."""
        website = task.website
        if injector is None:
            return crawler.crawl_site(website)
        plan = injector.plan
        hang_depth = plan.fail_depth(FaultKind.HANG, website.domain)
        if hang_depth and self._next_attempt(FaultKind.HANG, task) <= hang_depth:
            injector.record_injection(FaultKind.HANG)
            self._wedge(token)  # raises VisitCancelled
        record = crawler.crawl_site(website)
        stall_ms = self._slow_stall_ms(plan, task)
        if stall_ms:
            injector.record_injection(FaultKind.SLOW)
            if crawler.environment.monitor_window_ms + stall_ms > budget_ms:
                raise _SimulatedDeadlineExceeded()
            crawler.clock.advance(stall_ms)
            self.stats.slow_ridden_out += 1
        return record

    def _next_attempt(self, kind: FaultKind, task: VisitTask) -> int:
        key = (kind, task.os_name, task.website.domain)
        count = self._fault_attempts.get(key, 0) + 1
        self._fault_attempts[key] = count
        return count

    def _slow_stall_ms(self, plan: FaultPlan, task: VisitTask) -> float:
        domain = task.website.domain
        specs = [
            spec
            for spec in plan.specs(FaultKind.SLOW)
            if plan.selects(spec, domain)
        ]
        if not specs:
            return 0.0
        count = self._next_attempt(FaultKind.SLOW, task)
        return float(
            max(
                (spec.duration for spec in specs if count <= spec.times),
                default=0,
            )
        )

    def _wedge(self, token: CancelToken) -> None:
        """A hang fault: wedge in wall-clock time until cancelled.

        This is the livelock the watchdog exists for — the loop burns
        real time and the simulated clock never advances, so only the
        wall-clock guard can end it.
        """
        while not token.wait(0.001):
            pass
        raise VisitCancelled("hang fault cancelled by watchdog")

    def _deadline_record(self, task: VisitTask, failures: int) -> CrawlRecord:
        website = task.website
        return CrawlRecord(
            domain=website.domain,
            os_name=task.os_name,
            success=False,
            error=NetError.ERR_VISIT_DEADLINE,
            rank=website.rank,
            category=website.category,
            attempts=failures,
        )
