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
  a *wall-clock* deadline (``wall_deadline_s``).  An injected ``hang``
  holds the calling thread until the wall deadline has passed and ends
  as its cancellation.  Nothing else runs meanwhile, so no watchdog
  thread is needed, and a real visit that overruns the wall deadline
  runs to completion.
* Cancelled attempts are re-tried up to ``quarantine_after`` times; a
  visit that keeps failing comes out as an ``ERR_VISIT_DEADLINE`` Table 1
  failure marked for the dead-letter queue, so resumed campaigns never
  re-poison themselves.
* With ``handle_signals``, SIGINT/SIGTERM request a graceful drain
  (:func:`drain_on_signals`): the visit in progress finishes, the next
  one never starts, and :class:`CampaignInterrupted` propagates — a
  later ``--resume`` is fingerprint-identical to an uninterrupted run.

The executor uses the campaign's own fault injector, so every fault
fires where a bare serial loop fires it: ``hang`` and ``slow`` strike
through :meth:`~repro.faults.injector.FaultInjector.hang_hook` and
:meth:`~repro.faults.injector.FaultInjector.slow_hook`, counted per
(OS, domain).
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .. import obs
from ..browser.errors import NetError
from ..faults.injector import FaultInjector
from ..web.website import Website
from .crawl import Crawler, CrawlRecord

#: How far past the monitor window the default simulated budget reaches
#: (25 s at the paper's 20 s window).
_BUDGET_HEADROOM_MS = 5_000.0

_DISPATCHED = obs.counter(
    "repro_executor_dispatched_total",
    "visits started by the supervised executor",
)
_DEADLINE_CANCELLED = obs.counter(
    "repro_executor_deadline_cancelled_total",
    "attempts cancelled on the wall-clock deadline (hangs rescued)",
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


@contextmanager
def drain_on_signals(callback: Callable[[], None]) -> Iterator[None]:
    """Route SIGINT and SIGTERM to ``callback`` for the ``with`` block.

    The previous handlers come back on exit.  Off the main thread, where
    Python cannot install handlers, it does nothing.  The executor, the
    fabric coordinator and ``repro serve`` drain through it.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {
        signum: signal.signal(signum, lambda signum, frame: callback())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


class _WallDeadlineExceeded(Exception):
    """Internal: a visit attempt wedged past its wall-clock deadline."""


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
    #: Wall-clock deadline per visit attempt — how long a hang holds.
    wall_deadline_s: float = 5.0
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
    #: Attempts cancelled on the wall-clock deadline (hangs rescued).
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
    #: attempts — the bench bounds it by scheduler slack.
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
        self._drain = False

    # -- lifecycle ---------------------------------------------------------

    @contextmanager
    def supervise(self) -> Iterator["SupervisedExecutor"]:
        """Scope a campaign run (and its signal drain, when configured)."""
        self._drain = False
        with (
            drain_on_signals(self.request_drain)
            if self.config.handle_signals
            else nullcontext()
        ):
            yield self

    def request_drain(self) -> None:
        """Ask for a graceful drain (what the signal handlers call)."""
        self._drain = True

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
            if self._drain:
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
        failures = 0
        while True:
            try:
                record = self._attempt(crawler, task, injector, budget_ms)
                break
            except _WallDeadlineExceeded:
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
        budget_ms: float,
    ) -> CrawlRecord:
        """One visit attempt, with the injected hang and slow faults."""
        website = task.website
        if injector is None:
            return crawler.crawl_site(website)
        if injector.hang_hook(website.domain, task.os_name):
            self._hang()
        record = crawler.crawl_site(website)
        stall_ms = injector.slow_hook(website.domain, task.os_name)
        if stall_ms:
            if crawler.environment.monitor_window_ms + stall_ms > budget_ms:
                raise _SimulatedDeadlineExceeded()
            crawler.clock.advance(stall_ms)
            self.stats.slow_ridden_out += 1
        return record

    def _hang(self) -> None:
        """A hang strike: the visit wedges until its wall deadline passes.

        The simulated clock never advances in a wedge, so only the wall
        deadline can end it; the calling thread holds for that long and
        the attempt ends as the deadline's cancellation.
        """
        deadline_s = self.config.wall_deadline_s
        started = time.monotonic()
        time.sleep(deadline_s)
        overshoot = time.monotonic() - started - deadline_s
        self.stats.max_overshoot_s = max(self.stats.max_overshoot_s, overshoot)
        raise _WallDeadlineExceeded()

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
