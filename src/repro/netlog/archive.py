"""On-disk archive of per-visit NetLog documents.

The paper kept every capture ("11 TB across the study") so telemetry
could be re-parsed when the reduction pipeline changed.  This archive
reproduces that design at laptop scale: one checksummed NetLog document
per (crawl, OS, domain) visit, laid out as
``root/<crawl>/<os>/<domain>.json`` (or ``.nlbin`` for the binary
format — see :mod:`repro.netlog.codec`; a visit is stored in exactly one
format, and every read path auto-detects which by magic byte).

Every document is written with ``checksums=True`` (per-record CRC32s,
rolling hash chain, integrity trailer — see :mod:`repro.netlog.writer`)
and carries a ``visitMeta`` header block with the visit's row-level
metadata, so ``repro fsck`` can rebuild a damaged database row from the
archive alone.  Writes go through a temp file and an atomic rename
(:func:`repro.netlog.placer.place`), in process or, inside
:meth:`NetLogArchive.deferred`, from a writer process; the simulated
torn writes, bit flips and disk-full failures of the fault injector
enter through the ``corrupt`` / pre-write hooks instead of by racing the
real filesystem.
"""

from __future__ import annotations

import io
import json
import operator
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Union

from .. import obs
from .codec import (
    ARCHIVE_SUFFIXES,
    FORMAT_BINARY,
    get_codec,
    sniff_format,
)
from .events import NetLogEvent
from .parser import ParseStats
from .pipeline import EventSink, ListSink, feed
from .placer import PlacerProcess, place
from .streaming import iter_events_streaming
from .writer import (
    NetLogBuffer,
    write_document_head,
    write_document_tail,
)

_ENCODE_SECONDS = obs.histogram(
    "repro_netlog_encode_seconds",
    "NetLog document assembly time (buffered body to final document "
    "bytes) by format",
    ("format",),
)

#: The top-level key carrying visit metadata in archived documents.
META_KEY = "visitMeta"

#: A document-mangling hook applied to the serialised document before it
#: hits disk (the fault injector's ``corrupt_netlog``).  Receives text
#: for JSON documents and bytes for binary ones, and must return the
#: same kind.
CorruptHook = Callable[[Union[str, bytes], str], Union[str, bytes]]


def _safe_component(name: str) -> str:
    """A path-safe single component (domains may not traverse)."""
    return name.replace(os.sep, "_").replace("..", "_") or "_"


_entry_name = operator.attrgetter("name")


def _walk_documents(
    directory: str, folder: str, found: list[tuple[str, str, str]]
) -> None:
    """Append ``(folder, stem, path)`` for every document below ``directory``.

    Each directory's entries are visited in name order, descending into
    subdirectories where their names fall, which yields paths in the
    component-wise order ``sorted()`` gives ``Path`` objects.  Only
    regular files (or links to them) with an archive suffix count;
    symlinked directories are not followed, and a directory that cannot
    be listed is skipped, as ``os.walk`` does.  The stem is the file
    name up to its last dot, or the whole name when that dot leads it,
    as ``Path.stem`` has it.
    """
    try:
        with os.scandir(directory) as scan:
            entries = sorted(scan, key=_entry_name)
    except OSError:
        return
    for entry in entries:
        name = entry.name
        if entry.is_dir(follow_symlinks=False):
            _walk_documents(entry.path, name, found)
        elif name.endswith(ARCHIVE_SUFFIXES) and entry.is_file():
            found.append((folder, name[: name.rfind(".")] or name, entry.path))


class NetLogArchive:
    """Per-visit checksummed NetLog documents under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._writer: PlacerProcess | None = None

    # -- layout ------------------------------------------------------------

    def path_for(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        *,
        format: str | None = None,
    ) -> Path:
        """The document path for one visit.

        With ``format`` given, the path that format would occupy.
        Without it, the path of whichever format the visit is currently
        stored in — falling back to the JSON path for visits that do not
        exist yet (the archive's historical default).
        """
        os_part, stem = self.document_key(os_name, domain)
        directory = self.root / _safe_component(crawl) / os_part
        if format is not None:
            return directory / (stem + get_codec(format).suffix)
        for suffix in ARCHIVE_SUFFIXES:
            candidate = directory / (stem + suffix)
            if candidate.exists():
                return candidate
        return directory / (stem + ARCHIVE_SUFFIXES[0])

    @staticmethod
    def document_key(os_name: str, domain: str) -> tuple[str, str]:
        """The ``(path.parent.name, path.stem)`` of a visit's document.

        :meth:`path_for` builds its names from this pair, so a set of keys
        taken from one :meth:`documents` listing answers "is this visit
        archived?" without a ``stat`` per visit.
        """
        return _safe_component(os_name), _safe_component(domain)

    def exists(self, crawl: str, os_name: str, domain: str) -> bool:
        return self.path_for(crawl, os_name, domain).exists()

    def documents(self, crawl: str | None = None) -> list[tuple[str, str, str]]:
        """``(folder name, stem, path)`` of every archived document.

        One walk over path strings, optionally below one crawl: regular
        files with an archive suffix, at any depth, in :meth:`entries`
        order.  ``(folder name, stem)`` is the document's
        :meth:`document_key` (the name of the folder holding it, and its
        file name without the suffix), so fsck matches rows to documents
        and hands paths to the verifier without building a ``Path`` per
        document.
        """
        top = str(self.root)
        if crawl is not None:
            top = os.path.join(top, _safe_component(crawl))
        found: list[tuple[str, str, str]] = []
        _walk_documents(top, os.path.basename(top), found)
        return found

    def entries(self, crawl: str | None = None) -> Iterator[Path]:
        """All archived documents (optionally for one crawl), sorted."""
        for _, _, path in self.documents(crawl):
            yield Path(path)

    # -- write -------------------------------------------------------------

    def write(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        events: Iterable[NetLogEvent],
        *,
        meta: dict | None = None,
        corrupt: CorruptHook | None = None,
        format: str | None = None,
    ) -> Path:
        """Archive one visit's events; returns the document path.

        A convenience wrapper over :meth:`write_buffered` for callers
        that hold an event list; the crawl pipeline instead streams
        events into a capture buffer as the visit runs and hands the
        finished buffer here.  ``format`` picks the document encoding
        (None → the codec default, normally JSON).
        """
        from .codec import make_capture_buffer

        return self.write_buffered(
            crawl,
            os_name,
            domain,
            feed(events, make_capture_buffer(format, checksums=True)),
            meta=meta,
            corrupt=corrupt,
        )

    def write_buffered(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        buffer: NetLogBuffer,
        *,
        meta: dict | None = None,
        corrupt: CorruptHook | None = None,
    ) -> Path:
        """Archive a visit from its streamed record buffer.

        The buffer holds the serialised ``events`` body built while the
        visit ran — its type (text :class:`~repro.netlog.writer.NetLogBuffer`
        or binary :class:`~repro.netlog.binary.BinaryNetLogBuffer`)
        decides the document format.  This assembles the final document
        around it — the late-bound ``visitMeta`` head (attempt counts
        and success are only known once the visit settles) and the
        integrity trailer — producing bytes identical to a one-shot dump
        of the same events.  ``corrupt`` (the injector's netlog seam)
        mangles the serialised document before it reaches disk, keyed by
        ``crawl:os:domain`` — so the same fault plan damages the same
        files at any worker count.  Idempotent per buffer: retrying
        after a failed write re-uses the same body.  A rewrite in a
        different format removes the visit's stale other-format sibling
        after the atomic rename, preserving one-document-per-visit.
        Inside :meth:`deferred` the document is queued to the writer
        process instead of placed before this returns.
        """
        format_name = getattr(buffer, "format", "json")
        codec = get_codec(format_name)
        extra = {META_KEY: meta} if meta is not None else None
        started = time.perf_counter()
        document: str | bytes
        if codec.binary:
            from .binary import write_binary_head, write_binary_tail

            bout = io.BytesIO()
            write_binary_head(bout, extra=extra)
            bout.write(buffer.body)
            write_binary_tail(
                bout,
                checksums=buffer.checksums,
                count=buffer.count,
                chain=buffer.chain,
            )
            document = bout.getvalue()
        else:
            out = io.StringIO()
            write_document_head(out, extra=extra)
            out.write(buffer.body)
            write_document_tail(
                out,
                checksums=buffer.checksums,
                count=buffer.count,
                chain=buffer.chain,
            )
            document = out.getvalue()
        if _ENCODE_SECONDS.enabled:
            _ENCODE_SECONDS.observe(
                time.perf_counter() - started, labels=(format_name,)
            )
        if corrupt is not None:
            document = corrupt(document, f"{crawl}:{os_name}:{domain}")
        path = self.path_for(crawl, os_name, domain, format=format_name)
        if isinstance(document, str):
            document = document.encode("utf-8")
        if self._writer is not None:
            self._writer.submit(str(path), document)
        else:
            place(str(path), document, ARCHIVE_SUFFIXES)
        return path

    # -- deferred placement --------------------------------------------------

    @contextmanager
    def deferred(self) -> Iterator["NetLogArchive"]:
        """Place documents from a writer process for the block's duration.

        Inside the block :meth:`write_buffered` still builds each document
        (and applies ``corrupt``) in the caller, then queues it to a
        writer process (:mod:`repro.netlog.placer`) and returns; the
        path it returns is where the document *will* be.  :meth:`flush`
        is the barrier that waits until every queued document is on
        disk.  A full pipe blocks the caller until the writer catches
        up, so at most about 64 KB is ever in flight.  Nested blocks
        share the outer block's writer.

        Documents the writer cannot place (an ``OSError`` there) are not
        retried; the next :meth:`flush` returns them.  A writer that dies
        or whose pipe breaks makes the next write or flush raise
        :class:`~repro.netlog.placer.ArchiveWriterError`, never an
        ``OSError``.  Leaving the block closes the pipe and waits until
        the writer has placed everything queued; failures no
        :meth:`flush` claimed are not reported, and a writer that did
        not exit cleanly raises :class:`ArchiveWriterError` unless one
        was already raised.
        """
        if self._writer is not None:
            yield self
            return
        writer = self._writer = PlacerProcess(ARCHIVE_SUFFIXES)
        try:
            yield self
        finally:
            self._writer = None
            writer.close()

    def flush(self) -> list[Path]:
        """Wait until every queued document is placed; return the failures.

        The paths of the documents the writer could not place since the
        previous flush.  Outside :meth:`deferred` every write is already
        on disk when it returns, so this returns an empty list.
        """
        if self._writer is None:
            return []
        return [Path(path) for path in self._writer.barrier()]

    @property
    def writer_pid(self) -> int | None:
        """The writer process's pid inside :meth:`deferred`, else None."""
        return self._writer.pid if self._writer is not None else None

    # -- read --------------------------------------------------------------

    def read_events(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        *,
        stats: ParseStats | None = None,
    ) -> list[NetLogEvent] | None:
        """Salvage-parse one archived document; None when absent."""
        return self.stream_into(
            crawl, os_name, domain, ListSink(), stats=stats
        )

    def stream_into(
        self,
        crawl: str,
        os_name: str,
        domain: str,
        sink: EventSink,
        *,
        stats: ParseStats | None = None,
    ) -> Any | None:
        """Feed one archived document through a sink with bounded memory.

        Salvage-parses the document — whichever format it is stored in —
        and pushes each event into ``sink`` as it is decoded (fsck's
        reparse tier runs detection this way without materialising the
        event list); returns ``sink.finish()``, or None when the
        document is absent.
        """
        path = self.path_for(crawl, os_name, domain)
        if not path.exists():
            return None
        with path.open("rb") as fp:
            return feed(
                iter_events_streaming(fp, strict=False, stats=stats), sink
            )

    def read_meta(self, path: Path) -> dict | None:
        """The ``visitMeta`` block of a document, damage-tolerant.

        The block is written at the very front of the document in both
        formats, so it survives every tail-side damage shape; a document
        corrupted before its first few hundred bytes yields None.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if sniff_format(raw) == FORMAT_BINARY:
            from .binary import read_binary_header

            header = read_binary_header(raw)
            if header is None:
                return None
            extra = header.get("extra")
            if not isinstance(extra, dict):
                return None
            meta = extra.get(META_KEY)
            return meta if isinstance(meta, dict) else None
        head = raw.decode("utf-8", errors="replace")
        marker = f'"{META_KEY}": '
        start = head.find(marker)
        if start < 0:
            return None
        decoder = json.JSONDecoder()
        try:
            meta, _ = decoder.raw_decode(head, start + len(marker))
        except ValueError:
            return None
        return meta if isinstance(meta, dict) else None

    def verify(self, path: Path) -> ParseStats:
        """Parse one document in salvage mode, returning its stats.

        Binary documents get the ``full`` verification regime here —
        canonical crc32-chain-v1 re-derivation per record, the same
        contract the JSON parser always applies — because this is the
        audit path ``repro fsck`` trusts.
        """
        from .parallel import verify_document

        return verify_document(path)
