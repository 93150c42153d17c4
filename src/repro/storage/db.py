"""SQLite-backed telemetry store.

The paper parsed Chrome NetLogs and "stored the network events in a
database for efficient querying" (section 3.1; 11 TB across the study).
This store reproduces that logical design at laptop scale:

* ``visits`` — one row per (crawl, domain, OS) page load with its outcome,
  retry accounting, and the connectivity-skip flag (so stored rows carry
  the same Table 1 semantics as :class:`~repro.crawler.crawl.CrawlStats`);
* ``events`` — raw NetLog events (optional: bulky; stored on request);
* ``local_requests`` — denormalised detected local requests, the table
  every analysis query actually hits — complete enough to reconstruct
  the original :class:`~repro.core.detector.DetectionResult`, which is
  what checkpoint/resume rides on.

Use as a context manager; pass ``":memory:"`` for throwaway stores.

The optional ``write_fault_hook`` is the ``storage.db`` fault seam: it is
called once per visit write with the row key and may raise (the fault
injector raises :class:`~repro.faults.StorageWriteError`) to simulate a
failed write; the campaign layer retries around it.

``before_commit`` is the store's commit barrier: when set, it runs before
every commit (explicit, ``commit_every`` batch, and the one in
:meth:`TelemetryStore.close`) and a commit it raises out of does not
happen.  A campaign with a NetLog archive sets it to wait for its queued
archive documents, so no visit row is committed before its document is
on disk.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Callable, Iterable

from .. import obs
from ..core.addresses import Locality, RequestTarget
from ..core.detector import DetectionResult, LocalRequest
from ..netlog.events import NetLogEvent
from .integrity import detection_request_facts, visit_digest
from .migrations import migrate
from .records import DeadLetterRow, LocalRequestRow, VisitRow

#: Fault seam: called with "crawl:domain:os" before each visit write.
WriteFaultHook = Callable[[str], None]

#: How long SQLite itself waits on a held lock before raising
#: ``database is locked`` (PRAGMA busy_timeout, milliseconds).
BUSY_TIMEOUT_MS = 5_000

#: Bounded application-level retry on top of the busy timeout: shard
#: stores are written by worker processes while the merge stage reads
#: them, and a WAL checkpoint can still surface a transient lock.
_LOCK_RETRY_ATTEMPTS = 6
_LOCK_RETRY_BASE_S = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    message = str(exc)
    return "database is locked" in message or "database is busy" in message


_COMMIT_SECONDS = obs.histogram(
    "repro_store_commit_seconds",
    "telemetry store commit latency (batch = commit_every auto-commits, "
    "explicit = caller checkpoints and flushes)",
    ("kind",),
)
_VISIT_WRITES = obs.counter(
    "repro_store_visit_writes_total",
    "visit rows written to the telemetry store",
)


class TelemetryStore:
    """SQLite store for crawl telemetry.

    ``serialized=True`` turns on the concurrent-writer mode the serve
    daemon's worker threads need: the connection is shared across threads
    behind an internal writer lock, and file-backed stores switch to WAL
    journaling so readers never block a checkpointing writer.

    ``commit_every=N`` batches commits: every Nth write commits the
    transaction (instead of the caller committing per visit), and
    :meth:`flush` forces the tail out on drain/exit.  A crash loses at
    most the last ``N - 1`` writes — exactly the recovery window the
    checkpoint/resume machinery is tested against.

    ``wal=True`` forces WAL journaling regardless of ``serialized``: the
    sharded crawl fabric opens each shard's file-backed store this way so
    a SIGKILLed worker process never corrupts committed rows and the
    merge stage can read a store another process is still writing.

    Cross-process lock contention is absorbed twice: SQLite itself waits
    ``busy_timeout_ms`` on a held lock, and every statement/commit is
    retried a bounded number of times on ``database is locked`` — so
    concurrent shard-merge reads never flake.
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        write_fault_hook: WriteFaultHook | None = None,
        serialized: bool = False,
        commit_every: int = 0,
        wal: bool | None = None,
        busy_timeout_ms: int = BUSY_TIMEOUT_MS,
    ) -> None:
        if commit_every < 0:
            raise ValueError("commit_every must be >= 0")
        if busy_timeout_ms < 0:
            raise ValueError("busy_timeout_ms must be >= 0")
        file_backed = path != ":memory:" and not path.startswith("file:")
        if file_backed:
            parent = os.path.dirname(os.path.abspath(path))
            try:
                os.makedirs(parent, exist_ok=True)
            except OSError as exc:
                raise RuntimeError(
                    f"cannot create telemetry store directory {parent!r}: {exc}"
                ) from exc
        self._conn = sqlite3.connect(path, check_same_thread=not serialized)
        self._lock = threading.RLock()
        self.serialized = serialized
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        if wal is None:
            wal = serialized and file_backed
        if wal and file_backed:
            self._conn.execute("PRAGMA journal_mode=WAL")
        else:
            self._conn.execute("PRAGMA journal_mode=MEMORY")
        # Numbered crash-safe migrations (PRAGMA user_version) bring any
        # database — fresh, seed-era, or PR-2-era — to the current schema.
        migrate(self._conn)
        self.write_fault_hook = write_fault_hook
        #: Commit barrier run before every commit (set by the campaign).
        self.before_commit: Callable[[], None] | None = None
        self.commit_every = commit_every
        self._pending_writes = 0
        self._closed = False

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (integrity scans, ad-hoc queries)."""
        return self._conn

    # -- lock-contention retry --------------------------------------------

    def _retry(self, operation: Callable):
        """Run ``operation``, retrying bounded on cross-process locks.

        SQLite already waits ``busy_timeout`` before surfacing
        ``database is locked``; this adds a short, bounded application
        retry on top so shard stores being merged while a worker process
        checkpoints never flake a reader.
        """
        for attempt in range(1, _LOCK_RETRY_ATTEMPTS + 1):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt >= _LOCK_RETRY_ATTEMPTS:
                    raise
                time.sleep(_LOCK_RETRY_BASE_S * attempt)

    def _execute(self, sql: str, args: Iterable = ()) -> sqlite3.Cursor:
        """``conn.execute`` with the bounded lock retry."""
        return self._retry(lambda: self._conn.execute(sql, args))

    # -- lifecycle ---------------------------------------------------------

    def _timed_commit(self, kind: str) -> None:
        if self.before_commit is not None:
            self.before_commit()
        if _COMMIT_SECONDS.enabled:
            start = time.perf_counter()
            self._retry(self._conn.commit)
            _COMMIT_SECONDS.observe(time.perf_counter() - start, labels=(kind,))
        else:
            self._retry(self._conn.commit)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (further closes are no-ops)."""
        return self._closed

    def close(self) -> None:
        """Flush any batched writes and release the connection.

        Idempotent: closing an already-closed store is a no-op, so a
        caller stack where several owners defensively close the same
        store (an explicit ``close()`` inside a ``with`` block, the serve
        journal's drain path plus its ``finally``) is always safe.
        """
        with self._lock:
            if self._closed:
                return
            if self.commit_every and self._pending_writes:
                # Batched mode: a clean close flushes the tail batch; only
                # a crash (process death, no close) loses pending writes.
                self._timed_commit("batch")
                self._pending_writes = 0
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def commit(self) -> None:
        with self._lock:
            self._timed_commit("explicit")
            self._pending_writes = 0

    def flush(self) -> None:
        """Commit any batched writes (drain/exit path for ``commit_every``)."""
        self.commit()

    def rollback(self) -> None:
        """Discard every write since the last commit."""
        with self._lock:
            self._conn.rollback()
            self._pending_writes = 0

    def _wrote(self) -> None:
        """Account one write; auto-commit when the batch is full."""
        if not self.commit_every:
            return
        self._pending_writes += 1
        if self._pending_writes >= self.commit_every:
            self._timed_commit("batch")
            self._pending_writes = 0

    # -- writes --------------------------------------------------------------

    def record_visit(
        self,
        crawl: str,
        domain: str,
        os_name: str,
        *,
        success: bool,
        error: int = 0,
        rank: int | None = None,
        category: str | None = None,
        skipped: bool = False,
        attempts: int = 1,
        detection: DetectionResult | None = None,
        events: Iterable[NetLogEvent] | None = None,
        webrtc_policy: str | None = None,
    ) -> int:
        """Store one visit; returns its visit id.

        ``webrtc_policy`` records the policy era the visit's simulated
        browser ran under (``pre-m74`` / ``mdns``); None means the WebRTC
        channel was off.  It is campaign metadata, not visit content, so
        it stays outside the content digest.
        """
        if self.write_fault_hook is not None:
            self.write_fault_hook(f"{crawl}:{domain}:{os_name}")
        _VISIT_WRITES.inc()
        with self._lock:
            if detection is not None:
                page_load_time = detection.page_load_time
                total_flows = detection.total_flows
                request_facts = detection_request_facts(detection)
            else:
                page_load_time = total_flows = None
                request_facts = []
            # Content digest computed at commit time; `repro fsck`
            # recomputes it from the stored rows to detect at-rest
            # corruption.
            digest = visit_digest(
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
                requests=request_facts,
            )
            # The INSERT below is the statement that acquires the write
            # lock, so it is the one that can see cross-process contention;
            # once it succeeds the transaction holds the lock and the
            # child-row statements cannot be interleaved with another
            # writer.
            cursor = self._execute(
                "INSERT OR REPLACE INTO visits "
                "(crawl, domain, os_name, success, error, rank, category, "
                " skipped, attempts, page_load_time, total_flows, "
                " digest, request_count, webrtc_policy) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    crawl,
                    domain,
                    os_name,
                    int(success),
                    error,
                    rank,
                    category,
                    int(skipped),
                    attempts,
                    page_load_time,
                    total_flows,
                    digest,
                    len(request_facts),
                    webrtc_policy,
                ),
            )
            visit_id = int(cursor.lastrowid or 0)
            if events is not None:
                self._conn.executemany(
                    "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        (
                            visit_id,
                            event.time,
                            int(event.type),
                            event.source.id,
                            int(event.source.type),
                            int(event.phase),
                            json.dumps(event.params)
                            if event.params
                            else "{}",
                        )
                        for event in events
                    ),
                )
            if detection is not None:
                self._conn.executemany(
                    "INSERT INTO local_requests "
                    "(visit_id, locality, scheme, host, port, path, time, "
                    " via_redirect, source_id, method, initiator) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        (
                            visit_id,
                            request.locality.value,
                            request.scheme,
                            request.host,
                            request.port,
                            request.path,
                            request.time,
                            int(request.via_redirect),
                            request.source_id,
                            request.method,
                            request.initiator,
                        )
                        for request in detection.requests
                    ),
                )
            self._wrote()
            return visit_id

    def delete_visit(self, crawl: str, domain: str, os_name: str) -> int:
        """Remove one visit and its child rows; returns rows removed.

        The fsck repair tiers use this before rewriting a damaged visit,
        so no stale ``local_requests``/``events`` children survive the
        replacement (plain ``INSERT OR REPLACE`` would orphan them).
        """
        with self._lock:
            ids = [
                row[0]
                for row in self._conn.execute(
                    "SELECT visit_id FROM visits "
                    "WHERE crawl = ? AND domain = ? AND os_name = ?",
                    (crawl, domain, os_name),
                )
            ]
            for visit_id in ids:
                self._conn.execute(
                    "DELETE FROM local_requests WHERE visit_id = ?", (visit_id,)
                )
                self._conn.execute(
                    "DELETE FROM events WHERE visit_id = ?", (visit_id,)
                )
            self._conn.execute(
                "DELETE FROM visits "
                "WHERE crawl = ? AND domain = ? AND os_name = ?",
                (crawl, domain, os_name),
            )
            return len(ids)

    # -- dead-letter queue -------------------------------------------------

    def record_dead_letter(
        self,
        crawl: str,
        domain: str,
        os_name: str,
        *,
        error: int,
        failures: int,
        reason: str = "",
    ) -> None:
        """Park one poison visit (idempotent per (crawl, domain, OS))."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO dead_letters (crawl, domain, os_name, error, "
                "failures, reason) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (crawl, domain, os_name) DO UPDATE SET "
                "error = excluded.error, failures = excluded.failures, "
                "reason = excluded.reason",
                (crawl, domain, os_name, error, failures, reason),
            )
            self._wrote()

    def dead_letters(self, crawl: str | None = None) -> list[DeadLetterRow]:
        sql = (
            "SELECT crawl, domain, os_name, error, failures, reason "
            "FROM dead_letters"
        )
        args: list[object] = []
        if crawl is not None:
            sql += " WHERE crawl = ?"
            args.append(crawl)
        with self._lock:
            rows = self._execute(
                sql + " ORDER BY crawl, os_name, domain", args
            ).fetchall()
        return [
            DeadLetterRow(
                crawl=row[0], domain=row[1], os_name=row[2],
                error=row[3], failures=row[4], reason=row[5],
            )
            for row in rows
        ]

    def requeue_dead_letters(
        self, crawl: str | None = None, domain: str | None = None
    ) -> int:
        """Clear matching dead letters so a resumed run re-attempts them.

        Deletes the quarantine rows *and* their recorded visit outcomes
        (the failure rows that make resume skip them); returns how many
        visits were re-queued.
        """
        where, args = [], []
        if crawl is not None:
            where.append("crawl = ?")
            args.append(crawl)
        if domain is not None:
            where.append("domain = ?")
            args.append(domain)
        clause = (" WHERE " + " AND ".join(where)) if where else ""
        with self._lock:
            letters = self._conn.execute(
                f"SELECT crawl, domain, os_name FROM dead_letters{clause}", args
            ).fetchall()
            for letter_crawl, letter_domain, letter_os in letters:
                self._conn.execute(
                    "DELETE FROM local_requests WHERE visit_id IN "
                    "(SELECT visit_id FROM visits "
                    " WHERE crawl = ? AND domain = ? AND os_name = ?)",
                    (letter_crawl, letter_domain, letter_os),
                )
                self._conn.execute(
                    "DELETE FROM visits "
                    "WHERE crawl = ? AND domain = ? AND os_name = ?",
                    (letter_crawl, letter_domain, letter_os),
                )
            self._conn.execute(f"DELETE FROM dead_letters{clause}", args)
            self._conn.commit()
            self._pending_writes = 0
        return len(letters)

    # -- queries ----------------------------------------------------------

    def visit_count(self, crawl: str | None = None) -> int:
        if crawl is None:
            row = self._execute("SELECT COUNT(*) FROM visits").fetchone()
        else:
            row = self._execute(
                "SELECT COUNT(*) FROM visits WHERE crawl = ?", (crawl,)
            ).fetchone()
        return int(row[0])

    def success_counts(self, crawl: str) -> dict[str, tuple[int, int]]:
        """Per-OS (successes, failures) for one crawl.

        Connectivity-skipped rows are excluded on both sides — the paper
        never attributes a measurement-side outage to a website.
        """
        out: dict[str, tuple[int, int]] = {}
        for os_name, successes, failures in self._execute(
            "SELECT os_name, SUM(success), SUM(1 - success) "
            "FROM visits WHERE crawl = ? AND skipped = 0 GROUP BY os_name",
            (crawl,),
        ):
            out[os_name] = (int(successes or 0), int(failures or 0))
        return out

    def completed_domains(self, crawl: str, os_name: str) -> set[str]:
        """Domains with a recorded outcome for (crawl, OS) — the
        checkpoint a resumed campaign skips past.  Skipped rows count as
        completed: re-crawling them would let a resumed run diverge from
        the uninterrupted one it must reproduce."""
        return {
            row[0]
            for row in self._execute(
                "SELECT domain FROM visits WHERE crawl = ? AND os_name = ?",
                (crawl, os_name),
            )
        }

    def domains_with_local_activity(
        self, crawl: str, locality: str, os_name: str | None = None
    ) -> list[str]:
        """Distinct domains with stored local requests of a locality."""
        sql = (
            "SELECT DISTINCT v.domain FROM visits v "
            "JOIN local_requests r ON r.visit_id = v.visit_id "
            "WHERE v.crawl = ? AND r.locality = ?"
        )
        args: list[object] = [crawl, locality]
        if os_name is not None:
            sql += " AND v.os_name = ?"
            args.append(os_name)
        return [row[0] for row in self._conn.execute(sql + " ORDER BY v.domain", args)]

    def local_requests_for(
        self, crawl: str, domain: str
    ) -> list[LocalRequestRow]:
        rows = self._conn.execute(
            "SELECT r.visit_id, v.crawl, v.domain, v.os_name, r.locality, "
            "r.scheme, r.host, r.port, r.path, r.time, r.via_redirect "
            "FROM local_requests r JOIN visits v ON v.visit_id = r.visit_id "
            "WHERE v.crawl = ? AND v.domain = ? ORDER BY r.time",
            (crawl, domain),
        ).fetchall()
        return [
            LocalRequestRow(
                visit_id=row[0], crawl=row[1], domain=row[2], os_name=row[3],
                locality=row[4], scheme=row[5], host=row[6], port=row[7],
                path=row[8], time=row[9], via_redirect=bool(row[10]),
            )
            for row in rows
        ]

    def detections_for(self, crawl: str, os_name: str) -> dict[str, DetectionResult]:
        """Reconstruct per-domain detections for one (crawl, OS) pass.

        Rows come back in insertion order (rowid), which is the detector's
        (time, source_id) order — so the rebuilt
        :class:`~repro.core.detector.DetectionResult` compares equal to
        the one the original crawl produced.  Only domains with stored
        local requests appear (the campaign persists detections for
        exactly those).
        """
        visit_rows = self._execute(
            "SELECT visit_id, domain, page_load_time, total_flows "
            "FROM visits WHERE crawl = ? AND os_name = ?",
            (crawl, os_name),
        ).fetchall()
        meta = {row[0]: (row[1], row[2], row[3]) for row in visit_rows}
        if not meta:
            return {}
        out: dict[str, DetectionResult] = {}
        placeholders = ",".join("?" * len(meta))
        for row in self._execute(
            "SELECT visit_id, locality, scheme, host, port, path, time, "
            "via_redirect, source_id, method, initiator "
            f"FROM local_requests WHERE visit_id IN ({placeholders}) "
            "ORDER BY rowid",
            tuple(meta),
        ):
            domain, page_load_time, total_flows = meta[row[0]]
            detection = out.get(domain)
            if detection is None:
                detection = DetectionResult(
                    page_load_time=page_load_time,
                    total_flows=int(total_flows or 0),
                )
                out[domain] = detection
            detection.requests.append(
                LocalRequest(
                    target=RequestTarget(
                        scheme=row[2],
                        host=row[3],
                        port=row[4],
                        path=row[5],
                        locality=Locality(row[1]),
                    ),
                    time=row[6],
                    source_id=row[8],
                    method=row[9],
                    via_redirect=bool(row[7]),
                    initiator=row[10],
                )
            )
        return out

    def visits(self, crawl: str, *, os_name: str | None = None) -> list[VisitRow]:
        sql = (
            "SELECT visit_id, crawl, domain, os_name, success, error, rank, "
            "category, skipped, attempts, webrtc_policy, digest "
            "FROM visits WHERE crawl = ?"
        )
        args: list[object] = [crawl]
        if os_name is not None:
            sql += " AND os_name = ?"
            args.append(os_name)
        return [
            VisitRow(
                visit_id=row[0], crawl=row[1], domain=row[2], os_name=row[3],
                success=bool(row[4]), error=row[5], rank=row[6], category=row[7],
                skipped=bool(row[8]), attempts=row[9], webrtc_policy=row[10],
                digest=row[11],
            )
            for row in self._execute(sql + " ORDER BY visit_id", args)
        ]

    def event_count(self, visit_id: int | None = None) -> int:
        if visit_id is None:
            row = self._conn.execute("SELECT COUNT(*) FROM events").fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM events WHERE visit_id = ?", (visit_id,)
            ).fetchone()
        return int(row[0])
