"""Salvage parsing over arbitrary field values: a hypothesis property.

A salvage parse (``strict=False``) turns a record it cannot read into
counted damage; it never raises on a NetLog object.  The property puts
arbitrary JSON values (null, bools, lists, objects, NaN, ±Infinity,
400-digit ints, strings, or the key left out) into the fields the record
rules read (``time``, ``type``, ``source`` and its ``id``/``type``,
``phase``, ``params``) of plain and checksummed JSON documents, and runs
each document through ``loads``, ``iter_events_streaming`` and the audit
(``parallel.verify_document``):

* nothing escapes a salvage parse;
* the audit reports the ``ParseStats`` of ``loads(raw, strict=False,
  verify="full")`` (its own catch-all would otherwise hide a crash);
* the two JSON readers count alike;
* a strict parse raises nothing but :class:`NetLogParseError`.

The integrity fields ``crc`` and ``chain`` are left to the writers here:
the checksummed documents carry the values a writer would compute over
each odd record.
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
    iter_events_streaming,
    loads,
)
from repro.netlog.parallel import verify_document

#: The record fields the record rules read; dotted names are source keys.
FIELDS = ("time", "type", "source", "source.id", "source.type", "phase", "params")

#: Stands for "leave the key out".
_ABSENT = object()

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.integers(10**399, 10**400),
    st.integers(-(10**400), -(10**399)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_values = st.one_of(
    st.just(_ABSENT),
    st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=3), children, max_size=3),
        ),
        max_leaves=5,
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
        if value is _ABSENT:
            target.pop(key, None)
        else:
            target[key] = value
    return record


def _json_document(records, checksums):
    if not checksums:
        return json.dumps({"events": records})
    chain = CHAIN_SEED
    stamped = []
    for record in records:
        canonical = canonical_record_bytes(record)
        chain = zlib.crc32(canonical, chain)
        stamped.append({**record, "crc": zlib.crc32(canonical), "chain": chain})
    trailer = {
        "algorithm": CHECKSUM_ALGORITHM,
        "events": len(stamped),
        "chain": chain,
    }
    return json.dumps({"events": stamped, "integrity": trailer})


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
)
def test_json_salvage_counts_every_odd_field(
    records, checksums, tmp_path_factory
):
    text = _json_document(records, checksums)
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
