"""Admission-controlled job engine behind ``repro serve``.

The robustness core of the service.  Every upload becomes a *job* and
flows through a small, fully-bounded machine:

* **admission** — a bounded submission queue; when it is full the
  submitter gets :class:`Overloaded` *immediately* (the HTTP layer turns
  it into 429 + ``Retry-After``).  The retry hint is derived from queue
  depth and the observed (EWMA) service rate, so clients back off
  proportionally to the actual backlog, never a magic constant.
* **bounded workers** — a fixed thread pool supervised by the PR-2
  :class:`~repro.crawler.watchdog.Watchdog`: each analysis runs under a
  wall deadline with a cancel token threaded into the parse loop, so a
  wedged or poisoned upload is cancelled instead of starving the pool.
* **result cache** — reports are cached by upload digest; repeat
  submissions are free and byte-identical, and cache hits keep serving
  even in degraded mode.
* **crash-safe journal** — every state change is journalled through
  :class:`~repro.storage.jobs.JobJournal` before it is acted on; a
  SIGKILLed server restarted with ``--resume`` re-runs interrupted jobs
  exactly once from their spooled bytes and serves completed ones from
  the warmed cache.
* **breaker** — repeated worker crashes/cancellations inside a sliding
  window flip the engine into degraded mode: new analysis is shed
  (:class:`Degraded` → 503) while health endpoints and cache hits keep
  serving; after a cooldown the breaker half-opens and a successful
  probe job closes it again.
* **drain** — :meth:`JobEngine.drain` stops admission, lets in-flight
  jobs finish (or checkpoints them back to ``queued`` in the journal if
  the deadline expires), and flushes the journal — the PR-6 fabric
  drain contract, applied to a daemon.
"""

from __future__ import annotations

import collections
import math
import os
import queue
import threading
import time
from dataclasses import dataclass, field

from .. import obs
from ..crawler.watchdog import CancelToken, Watchdog
from ..faults import FaultInjector, InjectedDiskFullError
from ..storage.jobs import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobJournal,
    JournalStateError,
)
from .report import ReportError, analyze_report_text, job_id_for, upload_digest

_SUBMITTED = obs.counter(
    "repro_serve_submissions_total",
    "upload submissions by admission outcome",
    ("outcome",),
)
_JOBS = obs.counter(
    "repro_serve_jobs_total",
    "analysis jobs by terminal outcome",
    ("outcome",),
)
_JOB_SECONDS = obs.histogram(
    "repro_serve_job_seconds",
    "wall-clock analysis time per completed job",
)
_QUEUE_DEPTH = obs.gauge(
    "repro_serve_queue_depth",
    "jobs waiting in the bounded submission queue",
)
_BREAKER_OPEN = obs.gauge(
    "repro_serve_breaker_open",
    "1 while the overload breaker is open (degraded mode)",
)

#: The breaker counts worker failures inside this sliding window.
_BREAKER_WINDOW_S = 30.0
#: Watchdog scan period; bounds job-cancellation latency.
_WATCHDOG_POLL_S = 0.05
#: Retry-After clamp (seconds) for 429/503 responses.
_RETRY_AFTER_MIN_S = 1
_RETRY_AFTER_MAX_S = 60
#: Seed for the EWMA of observed service time until real jobs land.
_DEFAULT_SERVICE_TIME_S = 0.05


class RejectedUpload(RuntimeError):
    """Base: the engine refused to accept an upload right now."""

    retry_after_s: int = 1


class Overloaded(RejectedUpload):
    """The submission queue is full — back off and retry (HTTP 429)."""

    def __init__(self, retry_after_s: int) -> None:
        super().__init__(f"submission queue full; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class Degraded(RejectedUpload):
    """The breaker is open: analysis is shed until it recovers (HTTP 503)."""

    def __init__(self, retry_after_s: int) -> None:
        super().__init__(f"service degraded; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class Draining(RejectedUpload):
    """The server is shutting down and no longer admits work (HTTP 503)."""

    def __init__(self) -> None:
        super().__init__("server is draining")


@dataclass(slots=True)
class EngineConfig:
    """Tuning for the job engine; defaults suit a laptop-scale daemon."""

    workers: int = 2
    #: Bounded submission queue depth — the total in-flight admission
    #: budget beyond the workers themselves.
    backlog: int = 8
    #: Wall-clock seconds one analysis may take before the watchdog
    #: cancels it (wedged parse, pathological upload).
    job_deadline_s: float = 10.0
    #: Re-run budget: a job whose worker crashes/cancels this many times
    #: is quarantined (poison upload), never retried again.
    quarantine_after: int = 3
    #: Breaker: this many worker failures within 30 s flip the engine
    #: into degraded mode for ``breaker_cooldown_s``.
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backlog < 1:
            raise ValueError("backlog must be >= 1")
        if self.job_deadline_s <= 0:
            raise ValueError("job_deadline_s must be > 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")


@dataclass(slots=True)
class _Job:
    """Runtime view of one job (the journal is the durable twin)."""

    job_id: str
    digest: str
    state: str = QUEUED
    attempts: int = 0
    error: str | None = None
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED, QUARANTINED)


class _Breaker:
    """Sliding-window failure breaker: closed -> open -> half-open."""

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self._threshold = threshold
        self._cooldown_s = cooldown_s
        self._failures: collections.deque[float] = collections.deque()
        self._opened_at: float | None = None
        self._lock = threading.Lock()

    def record_failure(self) -> None:
        now = time.monotonic()
        with self._lock:
            self._failures.append(now)
            while self._failures and self._failures[0] < now - _BREAKER_WINDOW_S:
                self._failures.popleft()
            if self._opened_at is not None:
                # A failed half-open probe re-opens the cooldown window.
                self._opened_at = now
            elif len(self._failures) >= self._threshold:
                self._opened_at = now
                _BREAKER_OPEN.set(1)

    def record_success(self) -> None:
        with self._lock:
            self._failures.clear()
            if self._opened_at is not None:
                self._opened_at = None
                _BREAKER_OPEN.set(0)

    @property
    def open(self) -> bool:
        """True while shedding: open and still inside the cooldown."""
        with self._lock:
            if self._opened_at is None:
                return False
            # Past the cooldown the breaker half-opens: submissions flow
            # again, and their outcome closes or re-opens it.
            return time.monotonic() - self._opened_at < self._cooldown_s

    def cooldown_remaining_s(self) -> float:
        with self._lock:
            if self._opened_at is None:
                return 0.0
            return max(
                0.0, self._cooldown_s - (time.monotonic() - self._opened_at)
            )


class JobEngine:
    """Bounded, supervised, crash-recoverable analysis engine."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        journal: JobJournal | None = None,
        spool_dir: str | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.journal = journal
        self.injector = injector
        self._spool_dir = spool_dir
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
        #: In-memory spool fallback when no directory is configured.
        self._spool_mem: dict[str, bytes] = {}
        self._queue: queue.Queue[str | None] = queue.Queue(
            maxsize=self.config.backlog
        )
        self._jobs: dict[str, _Job] = {}
        self._cache: dict[str, str] = {}
        self._lock = threading.Lock()
        self._draining = False
        self._started = False
        self._ewma_s = _DEFAULT_SERVICE_TIME_S
        self._breaker = _Breaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        #: Durability losses observed writing the journal (disk full);
        #: surfaced on /metricsz and the status endpoint, never fatal.
        self.journal_errors = 0
        self._watchdog = Watchdog(poll_interval_s=_WATCHDOG_POLL_S)
        self._workers: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._watchdog.start()
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def resume(self) -> tuple[int, int]:
        """Recover journalled state after a crash; call before ``start``.

        Returns ``(recovered_jobs, cached_reports)``.  ``done`` rows warm
        the result cache; ``queued``/``running`` rows — the jobs a killed
        server still owes — are re-queued to run exactly once more from
        their spooled bytes.  A recoverable job whose spool file did not
        survive the crash is failed explicitly rather than silently
        dropped: the client polling its id sees a verdict either way.
        """
        if self.journal is None:
            return (0, 0)
        self._cache.update(self.journal.completed_reports())
        recovered = 0
        for row in self.journal.recoverable():
            if row.state == RUNNING:
                # The SIGKILL signature: no clean shutdown leaves a
                # running row.  Check it back in before re-queueing.
                self._journal_write(
                    lambda r=row: self.journal.requeue(
                        r.job_id, "recovered after restart"
                    )
                )
            job = _Job(job_id=row.job_id, digest=row.digest,
                       attempts=row.attempts)
            if self._spool_read(row.digest) is None:
                now = time.time()
                self._journal_write(
                    lambda r=row: self.journal.mark_running(r.job_id, now=now)
                )
                self._journal_write(
                    lambda r=row: self.journal.mark_failed(
                        r.job_id, "upload spool lost in crash", now=now
                    )
                )
                job.state = FAILED
                job.error = "upload spool lost in crash"
                job.done.set()
                self._jobs[row.job_id] = job
                continue
            self._jobs[row.job_id] = job
            self._queue.put(row.job_id)
            recovered += 1
        _QUEUE_DEPTH.set(self._queue.qsize())
        return (recovered, len(self._cache))

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight, flush.

        Queued-but-unstarted jobs stay ``queued`` in the journal — the
        checkpoint a ``--resume`` restart picks up.  Returns True when
        every worker exited within the deadline.
        """
        with self._lock:
            if self._draining:
                return True
            self._draining = True
        for _ in self._workers:
            self._queue.put(None)
        deadline = time.monotonic() + timeout_s
        drained = True
        for thread in self._workers:
            remaining = deadline - time.monotonic()
            thread.join(timeout=max(remaining, 0.0))
            drained = drained and not thread.is_alive()
        self._watchdog.stop()
        if self.journal is not None:
            self._journal_write(self.journal.store.flush)
        return drained

    def close(self) -> None:
        self.drain()

    def __enter__(self) -> "JobEngine":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def degraded(self) -> bool:
        return self._breaker.open

    @property
    def ready(self) -> bool:
        return self._started and not self._draining and not self.degraded

    # -- admission ----------------------------------------------------------

    def submit(self, data: bytes) -> tuple[str, str | None]:
        """Admit one upload; returns ``(job_id, cached_report_or_None)``.

        Raises :class:`Draining`, :class:`Degraded` or
        :class:`Overloaded` when the upload cannot be accepted — always
        *before* any work is queued, so a rejected client never consumes
        a worker.
        """
        digest = upload_digest(data)
        job_id = job_id_for(digest)
        report = self._cache.get(digest)
        if report is not None:
            # Cache hits serve even while draining or degraded: they are
            # O(1) and byte-identical by construction.
            _SUBMITTED.inc(labels=("cached",))
            return job_id, report
        if self._draining:
            _SUBMITTED.inc(labels=("draining",))
            raise Draining()
        if self.degraded:
            _SUBMITTED.inc(labels=("degraded",))
            raise Degraded(self._degraded_retry_after_s())
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and not existing.terminal:
                # Idempotent resubmission: same bytes, same in-flight job.
                _SUBMITTED.inc(labels=("coalesced",))
                return job_id, None
            # A "spool lost" failure is a verdict about the crash, not
            # the upload — this request re-supplies the bytes, so the
            # job runs again instead of replaying the infra failure.
            resurrect = (
                existing is not None
                and existing.state == FAILED
                and "spool lost" in (existing.error or "")
            )
            if (
                existing is not None
                and existing.state in (FAILED, QUARANTINED)
                and not resurrect
            ):
                # Terminal verdicts are stable: the same poison upload
                # gets the same answer, not another crash loop.
                _SUBMITTED.inc(labels=("replayed",))
                return job_id, None
            if self._queue.full():
                _SUBMITTED.inc(labels=("overloaded",))
                raise Overloaded(self._overload_retry_after_s())
            self._spool_write(digest, data)
            if self.journal is not None:
                now = time.time()
                if resurrect:
                    self._journal_write(
                        lambda: self.journal.resubmit_lost(job_id, now=now)
                    )
                self._journal_write(
                    lambda: self.journal.submit(
                        job_id, digest, len(data), now=now
                    )
                )
            self._jobs[job_id] = _Job(job_id=job_id, digest=digest)
            self._queue.put_nowait(job_id)
        _SUBMITTED.inc(labels=("accepted",))
        _QUEUE_DEPTH.set(self._queue.qsize())
        return job_id, None

    def _overload_retry_after_s(self) -> int:
        """Retry hint from queue depth and the observed service rate."""
        depth = self._queue.qsize() + self.config.workers
        eta = depth * self._ewma_s / self.config.workers
        return _clamp_retry_after(eta)

    def _degraded_retry_after_s(self) -> int:
        return _clamp_retry_after(self._breaker.cooldown_remaining_s())

    # -- status -------------------------------------------------------------

    def job_status(self, job_id: str) -> dict | None:
        """Public status document for ``GET /v1/jobs/<id>`` (None = 404)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None and self.journal is not None:
            row = self.journal.get(job_id)
            if row is not None:
                return {
                    "job": row.job_id,
                    "digest": row.digest,
                    "state": row.state,
                    "attempts": row.attempts,
                    "error": row.error,
                }
        if job is None:
            return None
        return {
            "job": job.job_id,
            "digest": job.digest,
            "state": job.state,
            "attempts": job.attempts,
            "error": job.error,
        }

    def report_for(self, job_id: str) -> str | None:
        """The canonical report text for a completed job, else None."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return self._cache.get(job.digest)
        if self.journal is not None:
            row = self.journal.get(job_id)
            if row is not None and row.state == DONE:
                return row.report
        return None

    def wait(self, job_id: str, timeout_s: float) -> bool:
        """Block until the job reaches a terminal state (True) or timeout."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return False
        return job.done.wait(timeout_s)

    def stats(self) -> dict:
        """Engine counters for the status/metrics surface."""
        return {
            "queue_depth": self._queue.qsize(),
            "workers": self.config.workers,
            "draining": self._draining,
            "degraded": self.degraded,
            "cache_size": len(self._cache),
            "journal_errors": self.journal_errors,
        }

    # -- spool --------------------------------------------------------------

    def _spool_path(self, digest: str) -> str:
        assert self._spool_dir is not None
        return os.path.join(self._spool_dir, digest.split(":", 1)[1] + ".netlog")

    def _spool_write(self, digest: str, data: bytes) -> None:
        if self._spool_dir is None:
            self._spool_mem[digest] = data
            return
        path = self._spool_path(digest)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fp:
            fp.write(data)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)

    def _spool_read(self, digest: str) -> bytes | None:
        if self._spool_dir is None:
            return self._spool_mem.get(digest)
        try:
            with open(self._spool_path(digest), "rb") as fp:
                return fp.read()
        except OSError:
            return None

    def _spool_discard(self, digest: str) -> None:
        if self._spool_dir is None:
            self._spool_mem.pop(digest, None)
            return
        try:
            os.unlink(self._spool_path(digest))
        except OSError:
            pass

    # -- journal ------------------------------------------------------------

    def _journal_write(self, operation) -> None:
        """Run one journal mutation, absorbing injected disk-full faults.

        Durability degrades (counted, surfaced on the status endpoints);
        correctness does not — the in-memory job still completes and its
        report is still byte-identical.  A dropped write also desyncs the
        mirror for the rest of that job's life (a later transition finds
        no row, or the wrong state, and raises ``JournalStateError``) —
        that cascade is the same durability loss, so it is absorbed the
        same way rather than killing the worker.
        """
        if self.journal is None:
            return
        try:
            operation()
        except (InjectedDiskFullError, JournalStateError):
            self.journal_errors += 1

    # -- workers ------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._draining:
                    return
                continue
            if job_id is None:
                return
            _QUEUE_DEPTH.set(self._queue.qsize())
            self._run_job(index, job_id)

    def _maybe_hang(self, digest: str, token: CancelToken) -> None:
        """A ``hang`` strike on this upload wedges the attempt until the
        watchdog cancels it."""
        if self.injector is None or not self.injector.hang_hook(digest):
            return
        while not token.wait(0.05):
            pass
        token.checkpoint()  # raises VisitCancelled

    def _run_job(self, worker_index: int, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return
        data = self._spool_read(job.digest)
        now = time.time()
        job.state = RUNNING
        job.attempts += 1
        self._journal_write(
            lambda: self.journal.mark_running(job_id, now=now)
        )
        if data is None:
            self._finish(job, FAILED, error="upload spool lost")
            return
        token = CancelToken()
        started = time.monotonic()
        try:
            with self._watchdog.watch(
                worker_index, job_id, self.config.job_deadline_s, token
            ):
                self._maybe_hang(job.digest, token)
                if self.injector is not None:
                    self.injector.worker_crash_hook(job.digest)
                report = analyze_report_text(data, checkpoint=token.checkpoint)
        except ReportError as exc:
            # A stable verdict, not a service failure: the same upload
            # always fails the same way, so the breaker is not charged.
            self._finish(job, FAILED, error=str(exc))
            self._breaker.record_success()
            return
        except Exception as exc:  # noqa: BLE001 — any worker death
            # (injected crash, wedge cancelled by the watchdog via
            # VisitCancelled, a genuine bug) takes the bounded re-run path.
            self._breaker.record_failure()
            self._retry_or_quarantine(job, exc)
            return
        elapsed = time.monotonic() - started
        self._observe_service_time(elapsed)
        _JOB_SECONDS.observe(elapsed)
        self._cache[job.digest] = report
        self._journal_write(
            lambda: self.journal.mark_done(job_id, report, now=time.time())
        )
        self._spool_discard(job.digest)
        self._finish(job, DONE, journal=False)
        self._breaker.record_success()

    def _retry_or_quarantine(self, job: _Job, exc: BaseException) -> None:
        reason = f"{type(exc).__name__}: {exc}"
        if job.attempts >= self.config.quarantine_after:
            self._finish(job, QUARANTINED, error=reason)
            return
        self._journal_write(
            lambda: self.journal.requeue(job.job_id, reason)
        )
        job.state = QUEUED
        job.error = reason
        _JOBS.inc(labels=("requeued",))
        try:
            self._queue.put_nowait(job.job_id)
        except queue.Full:
            # Re-running must never block a worker behind admission; a
            # full queue under crash-storm conditions quarantines early.
            self._finish(job, QUARANTINED, error=f"requeue under overload: {reason}")

    def _finish(
        self,
        job: _Job,
        state: str,
        *,
        error: str | None = None,
        journal: bool = True,
    ) -> None:
        if journal:
            now = time.time()
            if state == FAILED:
                self._journal_write(
                    lambda: self.journal.mark_failed(
                        job.job_id, error or "", now=now
                    )
                )
            elif state == QUARANTINED:
                self._journal_write(
                    lambda: self.journal.mark_quarantined(
                        job.job_id, error or "", now=now
                    )
                )
        if state in (FAILED, QUARANTINED):
            self._spool_discard(job.digest)
        job.state = state
        job.error = error
        _JOBS.inc(labels=(state,))
        job.done.set()

    def _observe_service_time(self, elapsed_s: float) -> None:
        # EWMA with alpha 0.3: reactive to load shifts, stable under noise.
        self._ewma_s = 0.7 * self._ewma_s + 0.3 * elapsed_s


def _clamp_retry_after(seconds: float) -> int:
    """A Retry-After hint: ``seconds`` rounded up, within the clamp."""
    return int(
        min(max(math.ceil(seconds), _RETRY_AFTER_MIN_S), _RETRY_AFTER_MAX_S)
    )
