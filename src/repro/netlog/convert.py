"""Lossless transcoding between the JSON and binary NetLog formats.

Both document formats carry the same information — extra head keys
(``visitMeta``), the constants block, the event records with their
stored ``crc``/``chain`` integrity fields, and the integrity trailer —
so a document can be moved between them without re-deriving anything:
stored checksums pass through verbatim (they are defined over canonical
JSON forms, which are format-independent), record order and the int-ness
of ``time`` are preserved, and unknown event types convert as opaque
numeric codes.

For documents produced by this package's own writers the round trip is
*byte*-identical in both directions (``json → binary → json`` and
``binary → json → binary``); foreign JSON documents (real Chrome logs)
round-trip at the record level — their constants block rides along
unchanged, but incidental whitespace does not survive.
"""

from __future__ import annotations

import io
import json
from typing import IO

from .binary import (
    BinaryRecordWriter,
    _frame,  # shared frame assembly; the trailer must pass through verbatim
    TAG_TRAILER,
    read_binary_document,
    write_binary_head,
)
from .codec import FORMAT_BINARY, FORMAT_JSON, coerce_document, get_codec
from .parser import NetLogParseError


def to_binary(source: "bytes | str | IO[str] | IO[bytes]") -> bytes:
    """Transcode any NetLog document to the binary format.

    A binary input is returned unchanged (already the target format); a
    JSON input must be a well-formed document — damaged documents should
    be repaired (``repro fsck``) before conversion, because a transcode
    of a salvaged prefix would silently launder the damage into a
    clean-looking document.
    """
    format_name, document = coerce_document(source)
    if format_name == FORMAT_BINARY:
        return document  # type: ignore[return-value]
    try:
        decoded = json.loads(document)
    except json.JSONDecodeError as exc:
        raise NetLogParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(decoded, dict):
        raise NetLogParseError("NetLog document must be a JSON object")
    records = decoded.get("events")
    if not isinstance(records, list):
        raise NetLogParseError("NetLog document missing 'events' array")
    constants = decoded.get("constants")
    if not isinstance(constants, dict):
        constants = None
    time_origin = 0.0
    if constants is not None:
        raw_origin = constants.get("timeTickOffset")
        if isinstance(raw_origin, (int, float)) and not isinstance(
            raw_origin, bool
        ):
            time_origin = raw_origin
    extra = {
        key: value
        for key, value in decoded.items()
        if key not in ("constants", "events", "integrity")
    }
    trailer = decoded.get("integrity")
    out = io.BytesIO()
    write_binary_head(
        out,
        time_origin_ms=time_origin,
        extra=extra or None,
        constants=constants,
    )
    writer = BinaryRecordWriter(out)
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise NetLogParseError(
                f"record {index}: event record must be an object"
            )
        try:
            writer.write_record(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise NetLogParseError(
                f"record {index}: not representable in binary form: {exc}"
            ) from exc
    if not isinstance(trailer, dict):
        trailer = {"events": writer.count}
    out.write(
        _frame(TAG_TRAILER, json.dumps(trailer).encode("utf-8"))
    )
    return out.getvalue()


def to_json(source: "bytes | str | IO[str] | IO[bytes]") -> str:
    """Transcode any NetLog document to the JSON format.

    A JSON input is returned unchanged.  The head is rebuilt in the JSON
    writer's exact shape (extras, then ``constants``, then the events
    array) from the binary header's preserved content, so documents our
    own capture path wrote round-trip byte for byte.
    """
    format_name, document = coerce_document(source)
    if format_name == FORMAT_JSON:
        return document  # type: ignore[return-value]
    header, records, trailer = read_binary_document(document)
    out = io.StringIO()
    out.write("{")
    extra = (header or {}).get("extra")
    if isinstance(extra, dict):
        for key, value in extra.items():
            out.write(json.dumps(key))
            out.write(": ")
            json.dump(value, out)
            out.write(", ")
    constants = (header or {}).get("constants")
    if not isinstance(constants, dict):
        from .writer import build_constants

        origin = (header or {}).get("timeTickOffset")
        constants = build_constants(
            origin if isinstance(origin, (int, float)) else 0.0
        )
    out.write('"constants": ')
    json.dump(constants, out)
    out.write(', "events": [')
    for index, record in enumerate(records):
        if index:
            out.write(",\n")
        json.dump(record, out)
    out.write("]")
    if trailer is not None and trailer.keys() != {"events"}:
        out.write(', "integrity": ')
        json.dump(trailer, out)
    out.write("}")
    return out.getvalue()


def convert(
    source: "bytes | str | IO[str] | IO[bytes]", to: str
) -> "bytes | str":
    """Transcode a document to the named format (bytes for binary)."""
    codec = get_codec(to)
    if codec.binary:
        return to_binary(source)
    return to_json(source)
