"""Wall-clock supervision for serve jobs: deadlines, cancellation, rescue.

A ``repro serve`` worker analyses one upload at a time, and a wedged or
poisoned parse would starve the pool forever; the simulated clock cannot
observe a livelocked worker — by definition it stops advancing.  This
module is the serve engine's safety net on *real* time:

* each job attempt runs under a :class:`VisitGuard` holding a hard
  wall-clock deadline;
* the :class:`Watchdog` thread polls all active guards every
  ``poll_interval_s`` and cancels any attempt past its deadline by
  setting its :class:`CancelToken` — cooperative code (the analysis
  loop's checkpoints, the injected ``hang`` fault's wedge loop) observes
  the token and raises :class:`VisitCancelled`;
* an attempt that *ignores* its cancellation for five poll intervals is
  declared abandoned and counted.

Cancellation latency is bounded by construction: a cancelled job ends
at most one poll interval after its deadline.  Campaigns run no
watchdog: their visits run inline, so the executor ends an injected
hang at the wall deadline itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterator
from contextlib import contextmanager

from .. import obs

_CANCELLATIONS = obs.counter(
    "repro_watchdog_cancellations_total",
    "visit attempts cancelled by the wall-clock watchdog",
)
_ABANDONED = obs.counter(
    "repro_watchdog_abandoned_total",
    "workers written off after ignoring their cancellation",
)
#: Poll intervals a cancelled attempt may ignore its token before it is
#: written off: enough for any cooperative attempt to notice, short
#: enough that a truly wedged worker is counted quickly.
_ABANDON_GRACE_POLLS = 5

#: The checked form of the invariant documented above: cancellation
#: latency (guard deadline → token cancelled) is bounded by one poll
#: interval, so the buckets concentrate around typical poll settings.
_CANCEL_LATENCY = obs.histogram(
    "repro_watchdog_cancel_latency_seconds",
    "latency from a visit's wall deadline to its actual cancellation",
    buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
)


class VisitCancelled(RuntimeError):
    """Raised inside a visit attempt when the watchdog cancelled it."""


class CancelToken:
    """One attempt's cancellation flag, observed cooperatively."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout_s: float) -> bool:
        """Sleep up to ``timeout_s``; True when cancellation arrived."""
        return self._event.wait(timeout_s)

    def checkpoint(self) -> None:
        """Raise :class:`VisitCancelled` if this attempt was cancelled."""
        if self._event.is_set():
            raise VisitCancelled("visit cancelled by watchdog")


@dataclass(slots=True)
class VisitGuard:
    """One supervised visit attempt, as the watchdog sees it."""

    worker_id: int
    key: str
    deadline_s: float
    token: CancelToken
    started: float = field(default_factory=time.monotonic)
    cancelled_at: float | None = None
    cleared: bool = False
    abandoned: bool = False


class Watchdog:
    """Supervises visit guards on a dedicated wall-clock thread."""

    def __init__(self, *, poll_interval_s: float = 0.05) -> None:
        if poll_interval_s <= 0:
            raise ValueError("poll interval must be positive")
        self.poll_interval_s = poll_interval_s
        self.abandon_grace_s = _ABANDON_GRACE_POLLS * poll_interval_s
        self.cancelled = 0
        self.abandoned = 0
        self._guards: dict[int, VisitGuard] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="crawl-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "Watchdog":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- guard registration ------------------------------------------------

    @contextmanager
    def watch(
        self, worker_id: int, key: str, deadline_s: float, token: CancelToken
    ) -> Iterator[VisitGuard]:
        """Guard one visit attempt for the duration of the ``with`` block."""
        guard = VisitGuard(
            worker_id=worker_id, key=key, deadline_s=deadline_s, token=token
        )
        with self._lock:
            self._guards[worker_id] = guard
        try:
            yield guard
        finally:
            guard.cleared = True
            with self._lock:
                if self._guards.get(worker_id) is guard:
                    del self._guards[worker_id]

    def active_guards(self) -> list[VisitGuard]:
        with self._lock:
            return list(self._guards.values())

    # -- the supervision loop ----------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self._scan()

    def _scan(self) -> None:
        now = time.monotonic()
        for guard in self.active_guards():
            if guard.cleared:
                continue
            if guard.cancelled_at is None:
                if now - guard.started > guard.deadline_s:
                    guard.cancelled_at = now
                    guard.token.cancel()
                    self.cancelled += 1
                    _CANCELLATIONS.inc()
                    _CANCEL_LATENCY.observe(
                        now - (guard.started + guard.deadline_s)
                    )
            elif (
                not guard.abandoned
                and now - guard.cancelled_at > self.abandon_grace_s
            ):
                # The attempt ignored its cancellation: a genuine wedge.
                guard.abandoned = True
                self.abandoned += 1
                _ABANDONED.inc()
