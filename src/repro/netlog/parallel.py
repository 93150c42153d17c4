"""Multiprocess parse pool for archived NetLog documents.

``repro fsck`` and ``repro analyze`` are re-analysis workloads: many
independent documents, each parsed (and, for fsck, canonically
re-verified) in full.  The work is embarrassingly parallel and CPU-bound
in the parser, so a small process pool scales it across cores — the
paper's 11 TB re-parse is exactly this shape.

Workers are module-level functions over path strings (picklable under
the ``spawn`` start method, like the crawl fabric's shard workers), and
every public entry point preserves input order and falls back to a
plain in-process loop for ``jobs <= 1`` — so a parallel run and a
serial run of the same audit produce identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .binary import _event_loop
from .codec import FORMAT_BINARY, FORMAT_JSON, sniff_format
from .parser import NetLogParseError, ParseStats, _audit_text, _observed

#: Hard cap on pool size — parse workers are memory-light but there is
#: no benefit past the physical core count.
MAX_JOBS = 32


def resolve_jobs(jobs: int | None, task_count: int | None = None) -> int:
    """Normalise a ``--jobs`` value to an effective worker count.

    ``None``/``1`` mean serial; ``0`` and negative values mean "use the
    machine" (cpu count).  The result never exceeds ``task_count`` — a
    pool larger than the work list is pure spawn overhead.
    """
    if jobs is None:
        resolved = 1
    elif jobs <= 0:
        resolved = os.cpu_count() or 1
    else:
        resolved = jobs
    resolved = min(resolved, MAX_JOBS)
    if task_count is not None:
        resolved = min(resolved, max(task_count, 1))
    return max(resolved, 1)


def verify_document(path: str | Path) -> ParseStats:
    """Salvage-parse + fully verify one archived document by path.

    The standalone form of :meth:`NetLogArchive.verify` — importable by
    pool workers without materialising an archive object.  Returns
    exactly the :class:`ParseStats` of ``loads(raw, strict=False,
    verify="full")`` over the file's bytes, and records the same parse
    metrics, but builds no event, event list or sink.  The file is read
    once and sniffed once: a binary document runs the frame loop's
    ``full`` regime with event construction off, a JSON document the
    stats-only walk of its decoded ``events``
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
    with open(path, "rb", buffering=0) as fp:  # one read: no buffer layer
        raw = fp.read()
    stats = ParseStats()
    try:
        if sniff_format(raw) == FORMAT_BINARY:
            _observed(
                FORMAT_BINARY, False, stats, lambda own: (None, _audit_binary(raw, own))
            )
        else:
            text = raw.decode("utf-8", errors="replace")
            _observed(
                FORMAT_JSON, False, stats, lambda own: (None, _audit_text(text, own))
            )
    except Exception:  # noqa: BLE001 — content the walk cannot take is damage
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
    """One document's analysis result, small enough to ship from a worker."""

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


def _pool_map(worker, items: Sequence[str], jobs: int) -> list:
    """Order-preserving map over a spawn-based process pool.

    Items travel in chunks, about four per worker (the
    ``multiprocessing.Pool.map`` default), so a pool pays one round
    trip per chunk instead of one per document.
    """
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (jobs * 4))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=context
    ) as executor:
        return list(executor.map(worker, items, chunksize=chunksize))


def verify_paths(
    paths: Iterable[str | Path], *, jobs: int | None = None
) -> list[tuple[str | Path, ParseStats]]:
    """Fully verify many archived documents, optionally in parallel.

    Returns ``(path, stats)`` pairs, each path as given, in input order
    regardless of worker count, so fsck reports are byte-stable under
    ``--jobs N``.
    """
    given = list(paths)
    ordered = [os.fspath(path) for path in given]
    effective = resolve_jobs(jobs, len(ordered))
    results = _pool_map(verify_document, ordered, effective)
    return list(zip(given, results))


def analyze_paths(
    paths: Iterable[str | Path], *, jobs: int | None = None
) -> list[DocumentSummary]:
    """Parse + detect over many documents, optionally in parallel."""
    ordered = [str(path) for path in paths]
    effective = resolve_jobs(jobs, len(ordered))
    return _pool_map(_analyze_one, ordered, effective)
