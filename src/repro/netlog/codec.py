"""Format registry and sniffing for the two NetLog document encodings.

Everything above the record layer (archive, fsck, CLI, serve, fabric)
speaks in terms of a *codec* — a small descriptor for one on-disk
document format — and never branches on format names directly.  Two
codecs exist:

* ``json`` — the self-describing text document from
  :mod:`repro.netlog.writer`; greppable, diff-friendly, the default.
* ``binary`` — the length-prefixed ``nlbin-v1`` encoding from
  :mod:`repro.netlog.binary`; ~the same information at a fraction of the
  scan cost.

Both carry the identical ``crc32-chain-v1`` integrity contract, so the
choice is an operational knob (set per campaign via ``--netlog-format``
or globally via ``REPRO_NETLOG_FORMAT``), not a semantic one.

The module also owns the shared *source coercion* helpers: every parse
entry point (``loads``, ``iter_events_streaming``, archive reads, serve
uploads) accepts ``bytes | str | IO`` and routes on the document's first
byte — binary documents open with the non-ASCII ``nlbin-v1`` magic, JSON
documents with ``{`` — instead of each call site re-inventing str-only
assumptions.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, Callable, Union

from .binary import MAGIC

FORMAT_JSON = "json"
FORMAT_BINARY = "binary"

#: Environment knob for the capture-side default format.
FORMAT_ENV_VAR = "REPRO_NETLOG_FORMAT"

#: Anything a parse entry point accepts as a NetLog document.
DocumentSource = Union[bytes, bytearray, memoryview, str, IO[str], IO[bytes]]


@dataclass(frozen=True, slots=True)
class NetLogCodec:
    """One on-disk NetLog document encoding.

    ``suffix`` is the archive file suffix; ``binary`` tells callers
    whether documents are bytes (open ``"rb"``) or text;
    ``make_buffer`` builds the streaming capture sink
    (:class:`~repro.netlog.writer.NetLogBuffer` or
    :class:`~repro.netlog.binary.BinaryNetLogBuffer`) whose body the
    archive later wraps into a complete document.
    """

    name: str
    suffix: str
    binary: bool
    make_buffer: Callable[..., object]


def _make_json_buffer(*, checksums: bool = True):
    from .writer import NetLogBuffer

    return NetLogBuffer(checksums=checksums)


def _make_binary_buffer(*, checksums: bool = True):
    from .binary import BinaryNetLogBuffer

    return BinaryNetLogBuffer(checksums=checksums)


JSON_CODEC = NetLogCodec(
    name=FORMAT_JSON,
    suffix=".json",
    binary=False,
    make_buffer=_make_json_buffer,
)

BINARY_CODEC = NetLogCodec(
    name=FORMAT_BINARY,
    suffix=".nlbin",
    binary=True,
    make_buffer=_make_binary_buffer,
)

CODECS: dict[str, NetLogCodec] = {
    JSON_CODEC.name: JSON_CODEC,
    BINARY_CODEC.name: BINARY_CODEC,
}

#: Archive suffixes in read-dispatch order (JSON first: it predates the
#: binary format, so mixed archives skew JSON).
ARCHIVE_SUFFIXES = (JSON_CODEC.suffix, BINARY_CODEC.suffix)

_SUFFIX_TO_CODEC = {codec.suffix: codec for codec in CODECS.values()}


def get_codec(name: str | None) -> NetLogCodec:
    """Resolve a format name (None → environment default) to its codec."""
    if name is None:
        name = default_format()
    try:
        return CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown NetLog format {name!r}"
            f" (expected one of {sorted(CODECS)})"
        ) from None


def codec_for_suffix(suffix: str) -> NetLogCodec | None:
    """The codec that owns an archive file suffix, if any."""
    return _SUFFIX_TO_CODEC.get(suffix)


def default_format() -> str:
    """The capture-side default format (``REPRO_NETLOG_FORMAT`` or json)."""
    name = os.environ.get(FORMAT_ENV_VAR, "").strip().lower()
    if not name:
        return FORMAT_JSON
    if name not in CODECS:
        raise ValueError(
            f"{FORMAT_ENV_VAR}={name!r} is not a NetLog format"
            f" (expected one of {sorted(CODECS)})"
        )
    return name


def make_capture_buffer(format: str | None = None, *, checksums: bool = True):
    """Build the streaming capture sink for a format (None → default)."""
    return get_codec(format).make_buffer(checksums=checksums)


# ---------------------------------------------------------------------------
# Sniffing and source coercion
# ---------------------------------------------------------------------------


def sniff_format(head: bytes | bytearray | memoryview | str) -> str:
    """Classify a document by its first byte.

    Binary documents open with the ``nlbin-v1`` magic (first byte 0x89,
    deliberately outside ASCII); everything else — including damaged or
    empty documents — parses under the JSON salvage rules.
    """
    if isinstance(head, str):
        return FORMAT_JSON
    prefix = bytes(head[: len(MAGIC)])
    if prefix and prefix == MAGIC[: len(prefix)]:
        return FORMAT_BINARY
    return FORMAT_JSON


def coerce_document(source: DocumentSource) -> tuple[str, bytes | str]:
    """Materialise any document source and classify its format.

    Returns ``(format, document)`` where ``document`` is ``bytes`` for
    binary documents and ``str`` for JSON (decoded with replacement so a
    torn multibyte sequence degrades to salvageable text rather than an
    exception, matching how archives read damaged documents).
    """
    if isinstance(source, str):
        return FORMAT_JSON, source
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
    else:
        data = source.read()
        if isinstance(data, str):
            return FORMAT_JSON, data
    if sniff_format(data) == FORMAT_BINARY:
        return FORMAT_BINARY, data
    return FORMAT_JSON, data.decode("utf-8", errors="replace")


def coerce_stream(
    source: DocumentSource,
) -> tuple[str, IO[str] | IO[bytes]]:
    """Wrap any document source as a file object plus its format.

    File objects are sniffed by peeking (seekable streams rewind;
    non-seekable ones are wrapped so no bytes are lost).  JSON always
    comes back as a text stream, binary as a byte stream — the shape the
    two streaming parsers expect.
    """
    if isinstance(source, str):
        return FORMAT_JSON, io.StringIO(source)
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
        if sniff_format(data) == FORMAT_BINARY:
            return FORMAT_BINARY, io.BytesIO(data)
        return FORMAT_JSON, io.StringIO(data.decode("utf-8", errors="replace"))
    # File object: decide text vs bytes from what it yields.
    probe = source.read(0)
    if isinstance(probe, str):
        return FORMAT_JSON, source
    if source.seekable():
        start = source.tell()
        head = source.read(8)
        source.seek(start)
        remainder = source
    else:
        head = source.read(8)
        remainder = _PrefixedReader(head, source)
    if sniff_format(head) == FORMAT_BINARY:
        return FORMAT_BINARY, remainder
    return FORMAT_JSON, io.TextIOWrapper(
        remainder, encoding="utf-8", errors="replace"
    )


class _PrefixedReader(io.RawIOBase):
    """Replays sniffed head bytes ahead of a non-seekable byte stream."""

    def __init__(self, head: bytes, rest: IO[bytes]) -> None:
        self._head = head
        self._rest = rest

    def readable(self) -> bool:  # pragma: no cover - io protocol
        return True

    def read(self, size: int = -1) -> bytes:
        if self._head:
            if size is None or size < 0:
                data = self._head + self._rest.read()
                self._head = b""
                return data
            if size <= len(self._head):
                data = self._head[:size]
                self._head = self._head[size:]
                return data
            data = self._head
            self._head = b""
            return data + self._rest.read(size - len(data))
        return self._rest.read(size)
