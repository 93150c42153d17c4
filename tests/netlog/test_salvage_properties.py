"""Salvage parsing over arbitrary field values: hypothesis properties.

A salvage parse (``strict=False``) turns a record it cannot read into
counted damage; it never raises on a NetLog object.  The JSON property
puts arbitrary JSON values (null, bools, lists, objects, NaN, ±Infinity,
400-digit ints, strings, or the key left out) into the fields the record
rules and the chain walk read (``time``, ``type``, ``source`` and its
``id``/``type``, ``phase``, ``params``, ``crc``, ``chain``) of plain and
checksummed JSON documents, and into their ``constants`` block and its
``logEventTypes`` name table; the binary property puts arbitrary short or
odd payloads, under a valid frame CRC, in place of or next to an event
frame of a plain or checksummed binary document.  Each document runs
through ``loads``, ``iter_events_streaming`` and the audit
(``parallel.verify_document``):

* nothing escapes a salvage parse;
* the audit reports the ``ParseStats`` of ``loads(raw, strict=False,
  verify="full")`` (its own catch-all would otherwise hide a crash);
* the two JSON readers count alike, and the binary streaming reader as
  the binary ``fast`` regime;
* a strict parse raises nothing but :class:`NetLogParseError`.

In a checksummed JSON document a record's ``crc`` and ``chain`` are the
values a writer would compute over its record form, unless the record
draws its own.
"""

import io
import json
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlog import (
    CHAIN_SEED,
    CHECKSUM_ALGORITHM,
    NetLogParseError,
    ParseStats,
    canonical_record_bytes,
    dumps_binary,
    iter_events_streaming,
    loads,
)
from repro.netlog.binary import _FRAME_HEAD, _INTEGRITY, _PRELUDE, TAG_EVENT, _frame
from repro.netlog.parallel import verify_document

from .test_binary import _event_frame_offsets, _events

#: The record fields the record rules and the chain walk read; dotted
#: names are source keys.
FIELDS = (
    "time",
    "type",
    "source",
    "source.id",
    "source.type",
    "phase",
    "params",
    "crc",
    "chain",
)

#: Stands for "leave the key out".
_ABSENT = object()

#: An event-type name the drawn name tables may define.
_NAME = "X"

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.integers(10**399, 10**400),
    st.integers(-(10**400), -(10**399)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.just(_NAME),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=5,
)
_values = st.one_of(st.just(_ABSENT), _json_values)

#: A ``constants`` block: left out, any value, or an object whose
#: ``logEventTypes`` is left out, any value, or a table naming ``_NAME``
#: a known code, an unknown one or any value.
_constants = st.one_of(
    _values,
    st.builds(
        lambda table: {} if table is _ABSENT else {"logEventTypes": table},
        st.one_of(
            _values,
            st.dictionaries(
                st.just(_NAME),
                st.one_of(st.sampled_from([2, 9999]), _json_values),
            ),
        ),
    ),
)


@st.composite
def _records(draw):
    """A well-formed record with up to three fields replaced or removed."""
    record = {
        "time": 1.5,
        "type": 2,
        "source": {"id": 3, "type": 1},
        "phase": 1,
        "params": {"url": "http://localhost/"},
    }
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True)):
        value = draw(_values)
        outer, _, inner = field.partition(".")
        target, key = (record, outer) if not inner else (record.get(outer), inner)
        if not isinstance(target, dict):
            continue  # the source was already replaced by a non-object
        if value is _ABSENT and key in ("crc", "chain"):
            record[key] = _ABSENT  # left out, of a checksummed record too
        elif value is _ABSENT:
            target.pop(key, None)
        else:
            target[key] = value
    return record


def _json_document(records, checksums, constants=_ABSENT):
    """The document of ``records`` after ``constants`` (unless left
    out); checksummed, each record gets the crc and chain a writer would
    compute unless it drew its own."""
    head = {} if constants is _ABSENT else {"constants": constants}
    chain = CHAIN_SEED
    stamped = []
    for record in records:
        canonical = canonical_record_bytes(record)
        chain = zlib.crc32(canonical, chain)
        written = {"crc": zlib.crc32(canonical), "chain": chain} if checksums else {}
        written.update(record)
        stamped.append({k: v for k, v in written.items() if v is not _ABSENT})
    if not checksums:
        return json.dumps({**head, "events": stamped})
    trailer = {
        "algorithm": CHECKSUM_ALGORITHM,
        "events": len(stamped),
        "chain": chain,
    }
    return json.dumps({**head, "events": stamped, "integrity": trailer})


def _audit(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "salvage-property.json"
    path.write_text(text, encoding="utf-8")
    return verify_document(path)


def _strict_raises_only_parse_errors(parse):
    try:
        parse()
    except NetLogParseError:
        pass


@settings(max_examples=250, deadline=None)
@given(
    records=st.lists(_records(), min_size=1, max_size=3),
    checksums=st.booleans(),
    constants=_constants,
)
def test_json_salvage_counts_every_odd_field(
    records, checksums, constants, tmp_path_factory
):
    text = _json_document(records, checksums, constants)
    parsed = ParseStats()
    loads(text, strict=False, stats=parsed)
    streamed = ParseStats()
    list(iter_events_streaming(io.StringIO(text), strict=False, stats=streamed))
    assert streamed == parsed
    assert _audit(text, tmp_path_factory) == parsed
    _strict_raises_only_parse_errors(lambda: loads(text, strict=True))
    _strict_raises_only_parse_errors(
        lambda: list(iter_events_streaming(io.StringIO(text), strict=True))
    )


@st.composite
def _event_payloads(draw):
    """An event-frame payload a buggy or foreign writer might emit:
    arbitrary bytes, or a prelude (any time, codes and flags) with or
    without a crc/chain pair and with odd params bytes, cut anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    body = _PRELUDE.pack(
        draw(st.integers(0, 4)),
        draw(st.floats(allow_nan=True, allow_infinity=True)),
        draw(st.sampled_from([2, 9999])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([1, 250])),
        draw(st.integers(0, 255)),
        draw(st.integers(0, 255)),
    )
    if draw(st.booleans()):
        body += _INTEGRITY.pack(
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
        )
    body += draw(
        st.sampled_from(
            [b"", b"{}", b"[]", b"0", b'""', b"null", b"{not json", b"\xff", b'{"url":"a"}']
        )
    )
    return body[: draw(st.integers(0, len(body)))]


@settings(max_examples=250, deadline=None)
@given(
    payload=_event_payloads(),
    position=st.integers(0, 2),
    insert=st.booleans(),
    checksums=st.booleans(),
)
def test_binary_salvage_counts_every_odd_frame(
    payload, position, insert, checksums, tmp_path_factory
):
    # The payload, under a valid frame CRC, replaces an event frame or
    # is inserted before it.
    data = dumps_binary(_events(3), checksums=checksums)
    offset, length = _event_frame_offsets(data)[position]
    end = offset if insert else offset + _FRAME_HEAD.size + length
    data = data[:offset] + _frame(TAG_EVENT, payload) + data[end:]
    fast = ParseStats()
    loads(data, strict=False, stats=fast)
    streamed = ParseStats()
    list(iter_events_streaming(data, strict=False, stats=streamed))
    assert streamed == fast
    full = ParseStats()
    loads(data, strict=False, stats=full, verify="full")
    path = tmp_path_factory.getbasetemp() / "salvage-property.nlbin"
    path.write_bytes(data)
    assert verify_document(path) == full
    for verify in ("fast", "full"):
        _strict_raises_only_parse_errors(
            lambda: loads(data, strict=True, verify=verify)
        )
    _strict_raises_only_parse_errors(
        lambda: list(iter_events_streaming(data, strict=True))
    )
