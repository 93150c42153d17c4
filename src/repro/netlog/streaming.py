"""Streaming NetLog parser for logs too large to hold in memory.

Real deployments of ``chrome --log-net-log`` produce multi-gigabyte
documents (the paper's study parsed 11 TB of telemetry).  ``json.load``
needs the whole document in memory; this module walks the ``events``
array incrementally, yielding one event at a time with bounded memory.

The scanner is a small hand-rolled JSON tokenizer specialised to the
NetLog layout: a top-level object whose ``events`` key holds an array of
objects.  Individual event objects are still decoded with the stdlib
``json`` module, so value semantics are identical to the whole-document
parser.

Damage tolerance: a NetLog from a killed browser ends mid-stream — no
closing ``]}``, sometimes a half-written record, sometimes a NUL-padded
tail (page-cache flush of a sparse file).  With ``strict=False`` the
walker yields every event up to the damage point and stops, recording
``truncated`` (and a dropped partial record, if any) in the optional
:class:`~repro.netlog.parser.ParseStats` instead of raising.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

from .constants import EventType
from .events import NetLogEvent
from .parser import (
    ChainVerifier,
    NetLogParseError,
    NetLogTruncationError,
    ParseStats,
    event_name_table,
    walk_records,
)

_CHUNK_SIZE = 64 * 1024


class _Scanner:
    """Incremental reader with pushback over a text stream.

    A NUL byte is treated as (sticky) end of input: real truncated
    NetLogs are often padded with NULs up to a block boundary, and no
    valid JSON contains a raw NUL outside an escape sequence.
    """

    def __init__(self, fp: IO[str]) -> None:
        self._fp = fp
        self._buffer = ""
        self._position = 0
        self._eof = False

    def read_char(self) -> str:
        """Next character, or '' at EOF (or at a NUL — see class doc)."""
        if self._eof:
            return ""
        if self._position >= len(self._buffer):
            self._buffer = self._fp.read(_CHUNK_SIZE)
            self._position = 0
            if not self._buffer:
                self._eof = True
                return ""
        ch = self._buffer[self._position]
        self._position += 1
        if ch == "\x00":
            self._eof = True
            return ""
        return ch

    def push_back(self, ch: str) -> None:
        """Return one just-read character to the stream."""
        if not ch:
            return
        self._buffer = ch + self._buffer[self._position :]
        self._position = 0

    def read_nonspace(self) -> str:
        ch = self.read_char()
        while ch and ch in " \t\r\n":
            ch = self.read_char()
        return ch


def _read_string(scanner: _Scanner) -> str:
    """Read a JSON string body (opening quote already consumed)."""
    parts: list[str] = []
    while True:
        ch = scanner.read_char()
        if not ch:
            raise NetLogTruncationError("unterminated string")
        if ch == "\\":
            escaped = scanner.read_char()
            if not escaped:
                raise NetLogTruncationError("unterminated escape")
            parts.append(ch + escaped)
            continue
        if ch == '"':
            try:
                return json.loads('"' + "".join(parts) + '"')
            except ValueError as exc:  # an invalid escape or control char
                raise NetLogParseError(f"malformed string: {exc}") from exc
        parts.append(ch)


def _read_balanced_object(scanner: _Scanner) -> str:
    """Read one {...} object as raw text (opening brace consumed)."""
    depth = 1
    parts: list[str] = ["{"]
    in_string = False
    while depth:
        ch = scanner.read_char()
        if not ch:
            raise NetLogTruncationError("unterminated object")
        parts.append(ch)
        if in_string:
            if ch == "\\":
                follow = scanner.read_char()
                if not follow:
                    raise NetLogTruncationError("unterminated escape")
                parts.append(follow)
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
    return "".join(parts)


def _skip_value(scanner: _Scanner, first: str) -> None:
    """Skip one JSON value whose first character is ``first``."""
    if first == '"':
        _read_string(scanner)
        return
    if first == "{":
        _read_balanced_object(scanner)
        return
    if first == "[":
        depth = 1
        in_string = False
        while depth:
            ch = scanner.read_char()
            if not ch:
                raise NetLogTruncationError("unterminated array")
            if in_string:
                if ch == "\\":
                    scanner.read_char()
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
        return
    # Scalar: consume until a delimiter.  A comma is the caller's to
    # tolerate, but a closing brace/bracket belongs to the enclosing
    # structure — push it back so `{"key": 1}` still reaches the
    # missing-events check instead of reading as truncated.
    while True:
        ch = scanner.read_char()
        if not ch or ch == ",":
            return
        if ch in "}]":
            scanner.push_back(ch)
            return


def iter_events_streaming(
    fp: "bytes | str | IO[str] | IO[bytes]",
    *,
    strict: bool = False,
    stats: ParseStats | None = None,
    require_events: bool = False,
) -> Iterator[NetLogEvent]:
    """Yield NetLog events from any document source with bounded memory.

    Accepts document text, document bytes, or a file object of either;
    the format is sniffed from the first byte.  Binary (``nlbin-v1``)
    documents take the frame loop in :mod:`repro.netlog.binary`, one
    frame resident at a time; JSON documents take the incremental
    tokenizer below, which reads the top-level object key by key — the
    ``constants`` block is decoded (for the event-type name table), every
    other non-``events`` key is skipped without materialisation, and the
    ``events`` array is fed record by record into the shared record walk
    (:func:`~repro.netlog.parser.walk_records`).

    Unknown event types are skipped when ``strict`` is False (the
    default here, unlike the whole-document parser, because real Chrome
    logs carry hundreds of event types beyond the modelled subset).
    Non-strict mode also tolerates physical damage: on a truncated or
    NUL-padded document the generator yields the intact event prefix,
    marks ``stats.truncated`` and stops instead of raising.

    ``require_events=True`` raises :class:`NetLogParseError` when a
    document *completes* without ever presenting an ``events`` array —
    matching the whole-document parser's rejection of arbitrary JSON
    objects — while still tolerating truncation as above (a cut-off
    document never reaches its closing brace, so the check cannot fire).
    """
    from .codec import FORMAT_BINARY, coerce_stream

    format_name, stream = coerce_stream(fp)
    if format_name == FORMAT_BINARY:
        from .binary import iter_events_binary

        yield from iter_events_binary(stream, strict=strict, stats=stats)
        return
    try:
        yield from _iter_document(
            _Scanner(stream), strict, stats, require_events
        )
    except NetLogTruncationError:
        if strict:
            raise
        if stats is not None:
            stats.truncated = True


def _iter_document(
    scanner: _Scanner,
    strict: bool,
    stats: ParseStats | None,
    require_events: bool = False,
) -> Iterator[NetLogEvent]:
    opener = scanner.read_nonspace()
    if opener != "{":
        if not opener:
            raise NetLogTruncationError("empty NetLog document")
        raise NetLogParseError("NetLog document must be a JSON object")

    event_names: dict[str, int] = {}
    verifier = ChainVerifier()
    saw_events = False
    while True:
        ch = scanner.read_nonspace()
        if ch == "}":
            if require_events and not saw_events:
                raise NetLogParseError(
                    "NetLog document missing 'events' array"
                )
            return
        if ch == ",":
            continue
        if ch != '"':
            if not ch:
                raise NetLogTruncationError("document ended before '}'")
            raise NetLogParseError(f"expected object key, got {ch!r}")
        key = _read_string(scanner)
        colon = scanner.read_nonspace()
        if colon != ":":
            if not colon:
                raise NetLogTruncationError("document ended after object key")
            raise NetLogParseError("expected ':' after object key")
        first = scanner.read_nonspace()
        if not first:
            raise NetLogTruncationError("document ended before a value")
        if key == "constants" and first == "{":
            raw = _read_balanced_object(scanner)
            try:
                constants = json.loads(raw)
            except ValueError as exc:  # not JSON, or an over-long int
                if strict:
                    raise NetLogParseError(
                        f"malformed constants block: {exc}"
                    ) from exc
                constants = None
            event_names = event_name_table(constants)
        elif key == "events" and first == "[":
            saw_events = True
            yield from walk_records(
                _iter_array_records(scanner, strict),
                event_names,
                verifier,
                strict=strict,
                stats=stats,
            )
        elif key == "integrity" and first == "{":
            raw = _read_balanced_object(scanner)
            try:
                trailer = json.loads(raw)
            except ValueError:  # not JSON, or an over-long int
                trailer = None
            verifier.check_trailer(trailer, strict=strict, stats=stats)
        else:
            _skip_value(scanner, first)


def _iter_array_records(scanner: _Scanner, strict: bool) -> Iterator[object]:
    """Yield each record of an ``events`` array as it is read.

    A record is yielded decoded, or as None when it cannot be decoded or
    is cut by the end of input (strict mode raises instead); the record
    walk counts None as a malformed record and a chain gap.  A cut record
    is followed by the truncation error.
    """
    while True:
        ch = scanner.read_nonspace()
        if ch == "]":
            return
        if ch == ",":
            continue
        if ch != "{":
            if not ch:
                raise NetLogTruncationError("events array unterminated")
            raise NetLogParseError(f"expected event object, got {ch!r}")
        try:
            raw = _read_balanced_object(scanner)
        except NetLogTruncationError:
            # The cut fell inside this record: its prefix is unusable.
            if not strict:
                yield None
            raise
        try:
            record = json.loads(raw)
        except ValueError as exc:  # not JSON, or an over-long int
            if strict:
                raise NetLogParseError(f"malformed event object: {exc}") from exc
            # Balanced but undecodable (in-place corruption): the stream
            # is still in sync after the closing brace, so keep walking.
            record = None
        yield record


def count_event_types(fp: IO[str]) -> dict[EventType, int]:
    """Histogram of event types in a log, computed streamingly."""
    counts: dict[EventType, int] = {}
    for event in iter_events_streaming(fp):
        counts[event.type] = counts.get(event.type, 0) + 1
    return counts
