"""One work-sharing walk over archived NetLog documents.

``repro fsck`` and ``repro analyze`` are re-analysis workloads: many
independent documents, each parsed (and, for fsck, canonically
re-verified) in full.  The work is CPU-bound in the parser and
embarrassingly parallel, so by default every CPU this process may run on
takes a share — the paper's 11 TB re-parse is exactly this shape.

:class:`SharedWalk` cuts the documents into chunks of :data:`CHUNK`
(larger on an archive of more than :data:`MAX_CHUNKS` of them) and
forks ``jobs - 1`` helpers.  Every process, the caller included, claims
chunk numbers from one pipe, filled before the fork, and works its
chunks.  A helper sends all its results back in one write once the pipe
is empty.  The caller puts them in input order and works itself every
chunk no helper returned, so a helper that dies early or writes short
loses nothing, and every public entry point gives the serial results at
any ``jobs``.  The walk forks only where ``os.fork`` exists, ``jobs`` is
above 1, there is more than one chunk and the caller is the only live
thread (a fork copies no other thread, nor releases a lock one holds);
otherwise it is the same loop with the caller claiming every chunk.
Helpers verify with the library's own audit, so a verifying walk also
stays in this process while :func:`verify_document` is replaced (a
tracer's timing wrapper, a test double): the replacement then sees
every document, and nothing it records ends with a helper.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import struct
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .binary import _event_loop
from .codec import FORMAT_BINARY, sniff_format
from .parser import NetLogParseError, ParseStats, _audit_text, record_parse

#: Hard cap on the process count — parse workers are memory-light but
#: there is no benefit past the physical core count.
MAX_JOBS = 32

#: Documents per claim: enough to make a claim's pipe read negligible,
#: few enough that the last claims leave no process idle for long.
CHUNK = 32

#: Most chunks one walk cuts (chunks grow past :data:`CHUNK` to stay
#: under it).  Their 4-byte numbers then fill at most one 4 KB page, the
#: least a pipe holds, so filling the claim pipe never blocks.
MAX_CHUNKS = 1024

_CLAIM = struct.Struct("=I")


def resolve_jobs(jobs: int | None, task_count: int | None = None) -> int:
    """Normalise a ``--jobs`` value to a process count, this one included.

    ``None``, ``0`` and negative values mean every CPU this process may
    run on (its affinity mask where the platform has one, else the CPU
    count); ``1`` is serial.  The result never exceeds ``task_count`` —
    a process with no document to work is pure fork overhead.
    """
    if jobs is None or jobs <= 0:
        resolved = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
    else:
        resolved = jobs
    resolved = min(resolved, MAX_JOBS)
    if task_count is not None:
        resolved = min(resolved, max(task_count, 1))
    return max(resolved, 1)


def verify_document(path: str | Path) -> ParseStats:
    """Salvage-parse + fully verify one archived document by path.

    The standalone form of :meth:`NetLogArchive.verify` — what
    :func:`verify_paths` runs in the calling process, without
    materialising an archive object.  Returns exactly the
    :class:`ParseStats` of ``loads(raw, strict=False, verify="full")``
    over the file's bytes, and records the same parse metrics, but
    builds no event, event list or sink.  The file is read once and
    sniffed once: a binary document runs the frame loop's ``full``
    regime with event construction off, a JSON document the stats-only
    walk of its decoded ``events``
    (:func:`~repro.netlog.parser._audit_text`) with the parsers'
    :class:`~repro.netlog.parser.ChainVerifier` and record rules (text
    that is not valid JSON salvages through the streaming walker, as in
    a parse).  Both take a checksummed record of the writers' shape
    whose chain is in sync in one step.

    Never raises on document content: a document the parser rejects
    (not a NetLog object, no ``events`` array, a value shape the record
    walk cannot take) comes back as damage — one more malformed record,
    and divergence at record 0 unless the walk had already pinned it —
    so one foreign file is flagged by an audit instead of aborting it.
    """
    return _settle(_audit(path))


#: What the helpers' ``_audit`` + the caller's ``_settle`` amount to;
#: a :func:`verify_document` binding with other code is a replacement.
_OWN_VERIFY = verify_document.__code__


#: One audited document as a helper sends it back: its stats, format,
#: parse mode (None when the walk rejected the document) and seconds.
Audited = tuple[ParseStats, str, str | None, float]


def _audit(path: str | Path) -> Audited:
    """The audit of one document, recording nothing (see :func:`_settle`)."""
    with open(path, "rb", buffering=0) as fp:  # one read: no buffer layer
        raw = fp.read()
    stats = ParseStats()
    format_name = sniff_format(raw)
    binary = format_name == FORMAT_BINARY
    text = "" if binary else raw.decode("utf-8", errors="replace")
    start = time.perf_counter()
    try:
        mode = _audit_binary(raw, stats) if binary else _audit_text(text, stats)
    except Exception:  # noqa: BLE001 — content the walk cannot take is damage
        mode = None
    return stats, format_name, mode, time.perf_counter() - start


def _settle(audited: Audited) -> ParseStats:
    """Record an audited document's parse metrics in this process, as a
    parse records them, then count a rejected document as damage."""
    stats, format_name, mode, seconds = audited
    record_parse(format_name, mode or "lenient", seconds, stats)
    if mode is None:
        stats.dropped_malformed += 1
        if stats.first_divergence is None:
            stats.first_divergence = 0
    return stats


def _audit_binary(document: bytes, stats: ParseStats | None) -> str:
    """The binary audit; returns the parse mode.  With construction off
    the frame loop yields nothing: running it to the end is the audit."""
    for _ in _event_loop(document, False, stats, "full", False):
        pass
    return "lenient"


@dataclass(slots=True)
class DocumentSummary:
    """One document's analysis result, small enough to ship from a helper."""

    path: str
    stats: ParseStats
    total_flows: int = 0
    local_requests: int = 0
    behavior: str | None = None
    error: str | None = None


def _analyze_one(path_str: str) -> DocumentSummary:
    """Parse one document and run local-traffic detection over it."""
    from ..core.document import analyze_document

    try:
        with open(path_str, "rb") as fp:
            analysis = analyze_document(fp)
    except OSError as exc:
        error = f"cannot read: {exc}"
    except NetLogParseError as exc:
        error = f"not a NetLog document: {exc}"
    else:
        detection = analysis.detection
        return DocumentSummary(
            path=path_str,
            stats=analysis.stats,
            total_flows=detection.total_flows,
            local_requests=len(detection.requests),
            behavior=(
                analysis.verdict.behavior.value
                if detection.has_local_activity
                else None
            ),
        )
    return DocumentSummary(path=path_str, stats=ParseStats(), error=error)


class SharedWalk:
    """``work`` over ``items`` on ``jobs`` processes, results in input order.

    Creating the walk forks its helpers, which start claiming at once;
    :meth:`results` has the caller claim too, then gathers.  A helper
    runs ``remote`` (default ``work``) on each item, and the caller turns
    each value it returns into ``work``'s result with ``settle``
    (default: the value as is).  Leaving the walk as a context manager,
    on any exception too, kills and reaps every helper.
    """

    def __init__(
        self,
        work: Callable,
        items: Sequence,
        jobs: int,
        remote: Callable | None = None,
        settle: Callable | None = None,
    ) -> None:
        size = max(CHUNK, -(-len(items) // MAX_CHUNKS))
        self._chunks = [items[i:i + size] for i in range(0, len(items), size)]
        self._work = work
        self._settle = settle
        #: Each live helper's pid and the read end of its result pipe.
        self._helpers: dict[int, int] = {}
        self._queue: int | None = None
        self._claims: Iterable[int] = range(len(self._chunks))
        helpers = min(jobs, len(self._chunks)) - 1
        if helpers > 0 and hasattr(os, "fork") and threading.active_count() == 1:
            try:
                self._fork(helpers, remote or work)
            except BaseException:
                self.close()
                raise

    def __enter__(self) -> "SharedWalk":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _fork(self, helpers: int, remote: Callable) -> None:
        self._queue, fill = os.pipe()
        os.write(fill, b"".join(map(_CLAIM.pack, range(len(self._chunks)))))
        os.close(fill)
        self._claims = _claimed(self._queue)
        parent = os.getpid()
        # An interrupt waits until each helper is on the books, so the
        # caller can kill every helper it forked.
        unmasked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(helpers):
                results, sent = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: fewer helpers
                    os.close(results)
                    os.close(sent)
                    break
                if pid == 0:
                    _help(parent, self._queue, sent, self._chunks, remote)
                self._helpers[pid] = results
                os.close(sent)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, unmasked)

    def results(self) -> list:
        """Work the caller's share, join the helpers; every result, in order."""
        chunks, work, settle = self._chunks, self._work, self._settle
        done: list[list | None] = [None] * len(chunks)
        for index in self._claims:
            done[index] = [work(item) for item in chunks[index]]
        for pid in list(self._helpers):
            for index, values in self._gather(pid):
                if done[index] is None and len(values) == len(chunks[index]):
                    done[index] = list(map(settle, values)) if settle else values
        self.close()
        return [
            result
            for chunk, results in zip(chunks, done)
            for result in (map(work, chunk) if results is None else results)
        ]

    def _gather(self, pid: int) -> list:
        """One helper's results, read to EOF, and the helper reaped; a
        short or garbled write returns nothing."""
        fd = self._helpers[pid]
        parts = []
        while part := os.read(fd, 1 << 16):
            parts.append(part)
        os.waitpid(pid, 0)
        del self._helpers[pid]
        os.close(fd)
        try:
            return pickle.loads(b"".join(parts))
        except Exception:  # noqa: BLE001 — the caller works those chunks
            return []

    def close(self) -> None:
        """Kill and reap every helper still alive; close the pipes."""
        for pid, fd in self._helpers.items():
            os.close(fd)
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._helpers.clear()
        if self._queue is not None:
            os.close(self._queue)
            self._queue = None


def _claimed(queue: int) -> Iterator[int]:
    """Chunk numbers claimed from the queue until it is empty."""
    while claim := os.read(queue, _CLAIM.size):
        yield _CLAIM.unpack(claim)[0]


def _help(
    parent: int, queue: int, sent: int, chunks: list, remote: Callable
) -> NoReturn:
    """A helper's whole life.

    It ignores SIGINT (the caller handles the interrupt), collects none
    of the objects it inherited (so runs none of their finalizers, an
    inherited SQLite connection's say), stops at its next claim once its
    parent is gone, and sends its results in one write once the queue is
    empty: a helper writing as it went would stall on a full pipe while
    the caller is still working its own share.  It ends with
    ``os._exit``, flushing no inherited stdio buffer and running no
    atexit handler.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        gc.freeze()
        done = []
        for index in _claimed(queue):
            if os.getppid() != parent:
                return
            done.append((index, [remote(item) for item in chunks[index]]))
        view = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(sent, view):]
    finally:
        os._exit(0)


def verifying(paths: Iterable[str | Path], *, jobs: int | None = None) -> SharedWalk:
    """Start verifying documents on a :class:`SharedWalk`.

    Its :meth:`~SharedWalk.results` are each document's
    :func:`verify_document` stats, in input order.  The helpers start
    verifying at once: ``fsck`` scans rows meanwhile.  Every document's
    parse metrics are recorded in this process, once.  A replaced
    :func:`verify_document` runs on every document here, with no helper.
    """
    ordered = [os.fspath(path) for path in paths]
    work = verify_document
    own = getattr(work, "__code__", None) is _OWN_VERIFY
    return SharedWalk(
        work,
        ordered,
        resolve_jobs(jobs, len(ordered)) if own else 1,
        remote=_audit,
        settle=_settle,
    )


def verify_paths(
    paths: Iterable[str | Path], *, jobs: int | None = None
) -> list[tuple[str | Path, ParseStats]]:
    """Fully verify many archived documents on every CPU by default.

    Returns ``(path, stats)`` pairs, each path as given, in input order
    at any ``jobs``, so fsck reports are byte-stable under ``--jobs N``.
    """
    given = list(paths)
    with verifying(given, jobs=jobs) as walk:
        return list(zip(given, walk.results()))


def analyze_paths(
    paths: Iterable[str | Path], *, jobs: int | None = None
) -> list[DocumentSummary]:
    """Parse + detect over many documents on every CPU by default."""
    ordered = [str(path) for path in paths]
    with SharedWalk(_analyze_one, ordered, resolve_jobs(jobs, len(ordered))) as walk:
        return walk.results()
