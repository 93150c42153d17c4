"""Differential tests for the audit, ``parallel.verify_document``.

``repro fsck`` runs ``verify_document`` on every archived document.  It
returns the :class:`~repro.netlog.ParseStats` of a whole-document
salvage parse with full verification, ``loads(raw, strict=False,
verify="full")``, but builds no event: a binary document runs the frame
loop's ``full`` regime with event construction off, and a JSON document
runs a stats-only walk of its decoded ``events`` list with the parsers'
``ChainVerifier`` and record rules.  That walk formats the canonical
bytes of a record of the writers' shape from its fields
(``writer.canonical_fields_bytes``); any other record takes
``canonical_record_bytes``, as in a parse.  Both audits take the common
record (checksummed, of the writers' shape, chain in sync, crc and
chain matching) in one step (``ChainVerifier.advance``); every other
record leaves that step for ``ChainVerifier.verify_canonical`` and the
record rules.  Two references hold it:

* ``loads(raw, strict=False, verify="full")`` itself, with
  ``verify_document``'s accounting for a document the parser rejects.
  It runs over every corpus the decoders are pinned on (the byte-level
  corpora and the 43 record-level shapes of ``test_decoder_parity``, in
  both encodings), the cut/hole/flip/splice corpus below, a scale-0.001
  campaign archive in both formats, foreign-shaped records that take
  the ``canonical_record_bytes`` fallback, and records that enter the
  one-step path and must leave it (each also shown to leave it).
* The streaming walker over the same bytes, which fsck verified JSON
  documents with before it used the whole-document parser, over the
  cut/hole/flip/splice corpus.

A property test holds the audit to ``loads`` on arbitrary records under
the crc and chain a writer would give them, so a record formatted from
its fields to other bytes than ``canonical_record_bytes`` fails its
checksum there, and an obs test holds the audit to the parse metrics
``loads`` records.  Documents that are not NetLog objects at all are
pinned separately (``tests/storage/test_integrity.py``).
"""

import io
import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.netlog import (
    CHAIN_SEED,
    CHECKSUM_ALGORITHM,
    ChainVerifier,
    EventType,
    NetLogArchive,
    ParseStats,
    dumps,
    dumps_binary,
    iter_events_streaming,
    loads,
    to_binary,
)
from repro.netlog.binary import _FRAME_HEAD
from repro.netlog.parallel import verify_document
from repro.netlog.writer import canonical_record_bytes

from .test_binary import _event_frame_offsets, _events, _with_params
from .test_decoder_parity import (
    RECORD_VARIANTS,
    _binary_variants,
    _json_variants,
)

#: Size of an interior NUL hole (a torn multi-block write) and the
#: stride between hole positions.
HOLE = 64
HOLE_STRIDE = 7


@pytest.fixture(scope="module")
def checksummed():
    return dumps(_events(4), checksums=True)


def _reference(raw: bytes) -> ParseStats:
    """The streaming walk fsck verified JSON documents with before."""
    stats = ParseStats()
    text = raw.decode("utf-8", errors="replace")
    for _ in iter_events_streaming(
        io.StringIO(text), strict=False, stats=stats
    ):
        pass
    return stats


def _loads_reference(raw: bytes) -> ParseStats:
    """What fsck reported when ``verify_document`` was a full parse."""
    stats = ParseStats()
    try:
        loads(raw, strict=False, stats=stats, verify="full")
    except Exception:  # noqa: BLE001 — as verify_document counts it
        stats.dropped_malformed += 1
        if stats.first_divergence is None:
            stats.first_divergence = 0
    return stats


def _audit_mismatches(path, corpus):
    """Labels of the ``(label, raw)`` documents where the audit and the
    parse reference disagree."""
    mismatches = []
    for label, raw in corpus:
        path.write_bytes(raw)
        got, want = verify_document(path), _loads_reference(raw)
        if got != want:
            mismatches.append(f"{label}: {got} != {want}")
    return mismatches


def _hashed_as_records(monkeypatch, path, raw):
    """The records the JSON audit of ``raw`` hashed through
    ``canonical_record_bytes`` instead of formatting them from fields."""
    from repro.netlog import parser

    hashed = []

    def counting(record):
        hashed.append(record)
        return canonical_record_bytes(record)

    with monkeypatch.context() as patch:
        patch.setattr(parser, "canonical_record_bytes", counting)
        path.write_bytes(raw)
        verify_document(path)
    return hashed


def _left_the_one_step(monkeypatch, path, raw):
    """Positions (``ChainVerifier.index``) of the records the audit of
    ``raw`` handed to ``ChainVerifier.verify_canonical``: every record it
    did not take in one step."""
    original = ChainVerifier.verify_canonical
    positions = []

    def recording(self, *args, **kwargs):
        positions.append(self.index)
        return original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ChainVerifier, "verify_canonical", recording)
        path.write_bytes(raw)
        verify_document(path)
    return positions


def _cuts(doc):
    for cut in range(len(doc) + 1):
        yield f"cut at {cut}", doc[:cut]
        yield f"cut at {cut} + NUL tail", doc[:cut] + "\x00" * HOLE


def _holes(doc):
    for start in range(0, len(doc) - HOLE, HOLE_STRIDE):
        yield f"NUL hole at {start}", (
            doc[:start] + "\x00" * HOLE + doc[start + HOLE :]
        )


def _flips(doc):
    for position, char in enumerate(doc):
        if char.isdigit():
            flipped = str((int(char) + 1) % 10)
            yield f"digit flip at {position}", (
                doc[:position] + flipped + doc[position + 1 :]
            )


def _splices(doc):
    document = json.loads(doc)
    for index in range(len(document["events"])):
        spliced = dict(document)
        spliced["events"] = (
            document["events"][:index] + document["events"][index + 1 :]
        )
        yield f"record {index} spliced out", json.dumps(spliced)


def _verify_corpus(doc):
    for variants in (_cuts, _holes, _flips, _splices):
        for label, text in variants(doc):
            yield label, text.encode("utf-8")


#: ParseStats fields whose being set names a damage outcome.
_OUTCOMES = ("truncated", "dropped_malformed", "checksum_failures", "chain_breaks")


def test_verify_document_matches_streaming_walker(checksummed, tmp_path):
    path = tmp_path / "doc.json"
    mismatches = []
    outcomes = set()
    for label, raw in _verify_corpus(checksummed):
        path.write_bytes(raw)
        got, want = verify_document(path), _reference(raw)
        if got != want:
            mismatches.append(f"{label}: {got} != {want}")
        outcomes.update(name for name in _OUTCOMES if getattr(got, name))
        if not got.damaged:
            outcomes.add("clean")
    assert not mismatches, "\n".join(mismatches[:5])
    # The corpus reaches every damage outcome, and clean documents too.
    assert outcomes == {*_OUTCOMES, "clean"}


# ---------------------------------------------------------------------------
# The audit against the parse it replaces
# ---------------------------------------------------------------------------


def test_audit_matches_loads_on_verify_corpus(checksummed, tmp_path):
    mismatches = _audit_mismatches(tmp_path / "doc", _verify_corpus(checksummed))
    assert not mismatches, "\n".join(mismatches[:5])


@pytest.mark.parametrize("checksums", [False, True], ids=["plain", "checksummed"])
def test_audit_matches_loads_on_binary_byte_corpus(checksums, tmp_path):
    doc = dumps_binary(_events(4), checksums=checksums)
    corpus = ((f"variant {i}", raw) for i, raw in enumerate(_binary_variants(doc)))
    mismatches = _audit_mismatches(tmp_path / "doc", corpus)
    assert not mismatches, "\n".join(mismatches[:5])


@pytest.mark.parametrize("checksums", [False, True], ids=["plain", "checksummed"])
def test_audit_matches_loads_on_json_byte_corpus(checksums, tmp_path):
    doc = dumps(_events(4), checksums=checksums)
    corpus = (
        (f"variant {i}", text.encode("utf-8"))
        for i, text in enumerate(_json_variants(doc))
    )
    mismatches = _audit_mismatches(tmp_path / "doc", corpus)
    assert not mismatches, "\n".join(mismatches[:5])


def test_audit_matches_loads_on_record_corpus(tmp_path):
    corpus = []
    for label, text in RECORD_VARIANTS:
        corpus.append((f"{label} (json)", text.encode("utf-8")))
        corpus.append((f"{label} (binary)", to_binary(text)))
    assert len(corpus) == 86
    mismatches = _audit_mismatches(tmp_path / "doc", corpus)
    assert not mismatches, "\n".join(mismatches[:5])


@pytest.fixture(scope="module", params=["json", "binary"])
def campaign_documents(request, tmp_path_factory):
    """Every document of a scale-0.001 campaign archive in one format."""
    from repro.crawler.campaign import Campaign
    from repro.web.population import build_top_population

    population = build_top_population(2020, scale=0.001)
    archive = NetLogArchive(tmp_path_factory.mktemp(request.param))
    Campaign(netlog_archive=archive, netlog_format=request.param).run(population)
    return list(archive.entries(population.name))


def test_audit_matches_loads_on_campaign_archive(campaign_documents):
    assert len(campaign_documents) > 100
    mismatches = []
    for path in campaign_documents:
        got, want = verify_document(path), _loads_reference(path.read_bytes())
        if got != want:
            mismatches.append(f"{path.name}: {got} != {want}")
        elif got.damaged or got.verified != got.parsed:
            mismatches.append(f"{path.name}: not a clean audit: {got}")
    assert not mismatches, "\n".join(mismatches[:5])


#: Marks a key the foreign record leaves out.
_ABSENT = object()

#: Records the writers never produce, each next to writers'-shape
#: records in a checksummed document.  The audit formats none of them
#: from fields: they take the ``canonical_record_bytes`` fallback.
_FOREIGN_RECORDS = {
    "string type name": {"type": "URL_REQUEST_START_JOB"},
    "unknown string type name": {"type": "NOT_A_TYPE"},
    "bool type": {"type": True},
    "bool phase": {"phase": False},
    "bool source type": {"source": {"id": 1, "type": True}},
    "bool source id": {"source": {"id": True, "type": 1}},
    "bool time": {"time": True},
    "extra key": {"extra": 1},
    "extra source key": {"source": {"id": 1, "type": 1, "x": 0}},
    "source without type": {"source": {"id": 1}},
    "float source id": {"source": {"id": 1.0, "type": 1}},
    "string source id": {"source": {"id": "1", "type": 1}},
    "string source type": {"source": {"id": 1, "type": "1"}},
    "list source": {"source": [1, 1]},
    "int source": {"source": 5},
    "null source": {"source": None},
    "string time": {"time": "1.5"},
    "null time": {"time": None},
    "float type": {"type": 1.0},
    "string phase": {"phase": "1"},
    "null phase": {"phase": None},
    "no phase": {"phase": _ABSENT},
    "no time": {"time": _ABSENT},
}

#: Records the writers never produce that still have their shape, so the
#: audit formats them from fields.
_ODD_WRITER_SHAPES = {
    "list params": {"params": [1, 2]},
    "string params": {"params": "x"},
    "null params": {"params": None},
    "nested non-ascii params": {"params": {"zé": ["☃", {"b": 1, "a": None}]}},
    "int time": {"time": 7},
    "negative zero time": {"time": -0.0},
    "unknown type code": {"type": 9999},
    "unknown source type code": {"source": {"id": 1, "type": 250}},
    "negative phase": {"phase": -1},
}


def _foreign_document(name, *, tamper=False, strip=None):
    return _changed_document(
        {**_FOREIGN_RECORDS, **_ODD_WRITER_SHAPES}[name], tamper=tamper, strip=strip
    )


def _changed_document(changes, *, tamper=False, strip=None):
    """Record 1 of a 3-record checksummed document with ``changes``, and
    the document, every record under the crc and chain a writer would
    give its record form; ``strip`` then drops one integrity field of
    record 1 and ``tamper`` flips its crc."""
    base = json.loads(dumps(_events(3), checksums=True))
    records = [
        {k: v for k, v in record.items() if k not in ("crc", "chain")}
        for record in base["events"]
    ]
    for key, value in changes.items():
        if value is _ABSENT:
            del records[1][key]
        else:
            records[1][key] = value
    constants = {
        **base["constants"],
        "logEventTypes": {
            "URL_REQUEST_START_JOB": int(EventType.URL_REQUEST_START_JOB)
        },
    }
    chain = CHAIN_SEED
    out = []
    for record in records:
        payload = canonical_record_bytes(record)
        chain = zlib.crc32(payload, chain)
        out.append({**record, "crc": zlib.crc32(payload), "chain": chain})
    if strip is not None:
        del out[1][strip]
    if tamper:
        out[1]["crc"] ^= 1
    trailer = {"algorithm": CHECKSUM_ALGORITHM, "events": len(out), "chain": chain}
    document = {"constants": constants, "events": out, "integrity": trailer}
    return out[1], json.dumps(document).encode("utf-8")


@pytest.mark.parametrize("name", sorted({**_FOREIGN_RECORDS, **_ODD_WRITER_SHAPES}))
def test_audit_matches_loads_on_foreign_records(name, tmp_path, monkeypatch):
    corpus = []
    for variant, kwargs in (
        ("as checksummed", {}),
        ("crc wrong", {"tamper": True}),
        ("crc stripped", {"strip": "crc"}),
        ("chain stripped", {"strip": "chain"}),
    ):
        record, raw = _foreign_document(name, **kwargs)
        # Only a foreign record is hashed in its record form.
        hashed = _hashed_as_records(monkeypatch, tmp_path / "doc", raw)
        assert hashed == ([record] if name in _FOREIGN_RECORDS else []), variant
        corpus.append((variant, raw))
    mismatches = _audit_mismatches(tmp_path / "doc", corpus)
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize(
    "slot", [5, "x", None, True, [1, 2], []], ids=repr
)
def test_audit_matches_loads_on_non_object_slots(slot, tmp_path):
    # A slot that is not an object has nothing to hash: a chain gap and
    # one malformed record, wherever it sits.
    document = json.loads(dumps(_events(4), checksums=True))
    corpus = []
    for index in range(4):
        events = list(document["events"])
        events[index] = slot
        corpus.append(
            (f"slot {index}", json.dumps({**document, "events": events}).encode())
        )
    mismatches = _audit_mismatches(tmp_path / "doc", corpus)
    assert not mismatches, "\n".join(mismatches)


def test_audit_formats_writer_records_from_fields(monkeypatch, tmp_path):
    # The JSON audit hashes a record of the writers' shape through the
    # field formatter and only a foreign one through the record form.
    from repro.netlog import parser

    hashed = []

    def counting(record):
        hashed.append(record)
        return canonical_record_bytes(record)

    monkeypatch.setattr(parser, "canonical_record_bytes", counting)
    path = tmp_path / "doc.json"
    path.write_text(dumps(_events(4), checksums=True))
    assert verify_document(path) == ParseStats(parsed=4, verified=4)
    assert hashed == []
    record, raw = _foreign_document("extra key")
    path.write_bytes(raw)
    assert verify_document(path) == ParseStats(parsed=3, verified=3)
    assert hashed == [record]


# ---------------------------------------------------------------------------
# The field formatter and the one-step path
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
#: ``time``, ``type``, ``phase``, source ``id``/``type``: mostly what the
#: writers emit, sometimes anything.
_codes = st.one_of(st.integers(min_value=-5, max_value=2**40), _json_values)
_times = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(), _json_values)


@st.composite
def _records(draw):
    record = {}
    for key, values in (("time", _times), ("type", _codes), ("phase", _codes)):
        if draw(st.integers(0, 9)):  # usually present
            record[key] = draw(values)
    if draw(st.integers(0, 9)):
        if draw(st.integers(0, 4)):
            source = {}
            for key in ("id", "type"):
                if draw(st.integers(0, 9)):
                    source[key] = draw(_codes)
            if not draw(st.integers(0, 9)):
                source[draw(st.text(max_size=3))] = draw(_json_values)
            record["source"] = source
        else:
            record["source"] = draw(_json_values)
    if draw(st.booleans()):
        record["params"] = draw(_json_values)
    for key in ("crc", "chain"):
        if draw(st.integers(0, 3)):
            record[key] = draw(st.one_of(st.integers(0, 2**32 - 1), _json_values))
    if not draw(st.integers(0, 9)):
        record[draw(st.text(max_size=6))] = draw(_json_values)
    return record


@settings(max_examples=600, deadline=None)
@given(record=_records(), honest=st.booleans())
def test_field_formatter_matches_record_reference(record, honest, tmp_path_factory):
    # The drawn record sits between two writers' records.  Honest, its
    # crc and chain keys hold what a writer would compute over its record
    # form, so a record the audit formats from its fields to other bytes
    # fails its checksum there and not in ``loads``; otherwise it keeps
    # the drawn values.
    writer_records = [
        {k: v for k, v in item.items() if k not in ("crc", "chain")}
        for item in json.loads(dumps(_events(2), checksums=True))["events"]
    ]
    chain = CHAIN_SEED
    events = []
    for item in (writer_records[0], record, writer_records[1]):
        payload = canonical_record_bytes(item)
        chain = zlib.crc32(payload, chain)
        stamped = dict(item)
        if item is not record:
            stamped.update(crc=zlib.crc32(payload), chain=chain)
        elif honest:
            for key, value in (("crc", zlib.crc32(payload)), ("chain", chain)):
                if key in stamped:
                    stamped[key] = value
        events.append(stamped)
    trailer = {"algorithm": CHECKSUM_ALGORITHM, "events": 3, "chain": chain}
    raw = json.dumps({"events": events, "integrity": trailer}).encode("utf-8")
    path = tmp_path_factory.getbasetemp() / "formatter-property.json"
    path.write_bytes(raw)
    assert verify_document(path) == _loads_reference(raw)


def test_field_formatter_takes_the_writers_records(checksummed, tmp_path, monkeypatch):
    # The property above is not vacuous: every record our writers emit
    # is formatted from its fields and taken in one step, in both
    # encodings.
    path = tmp_path / "doc"
    raw = checksummed.encode("utf-8")
    assert _hashed_as_records(monkeypatch, path, raw) == []
    assert _left_the_one_step(monkeypatch, path, raw) == []
    binary = dumps_binary(_events(4), checksums=True)
    assert _left_the_one_step(monkeypatch, path, binary) == []
    # Any params value keeps the writers' shape; only an object stays in
    # the one step.
    for params in (None, {}, [], 0, "", False, {"b": [1.5, None], "a": "é"}):
        _, raw = _changed_document({"params": params})
        assert _hashed_as_records(monkeypatch, path, raw) == [], params
        left = _left_the_one_step(monkeypatch, path, raw)
        assert left == ([] if isinstance(params, dict) else [1]), params
        assert not _audit_mismatches(path, [(repr(params), raw)])


#: Records that enter the one-step path and must leave it for the
#: general rules: ``(changes to record 1, what is done to the stamped
#: document, encodings that can express it)``.
_BOTH = ("json", "binary")
_ONE_STEP_EXITS = {
    "unknown type code": ({"type": 9999}, None, _BOTH),
    "unknown source type code": ({"source": {"id": 2, "type": 250}}, None, _BOTH),
    "int time beyond float range": ({"time": 10**309}, None, ("json",)),
    "infinite time": ({"time": float("inf")}, None, _BOTH),
    "nan time": ({"time": float("nan")}, None, _BOTH),
    "bool type": ({"type": True}, None, ("json",)),
    "bool phase": ({"phase": True}, None, ("json",)),
    "bool source id": ({"source": {"id": True, "type": 1}}, None, ("json",)),
    "empty list params": ({"params": []}, None, _BOTH),
    "zero params": ({"params": 0}, None, _BOTH),
    "empty string params": ({"params": ""}, None, _BOTH),
    "list params": ({"params": [1]}, None, _BOTH),
    "wrong crc": ({}, "crc wrong", _BOTH),
    "wrong chain": ({}, "chain wrong", _BOTH),
    "crc without chain": ({}, "chain stripped", ("json",)),
    "float crc": ({}, "float crc", ("json",)),
    "float chain": ({}, "float chain", ("json",)),
    "right after a gap": ({}, "gap", _BOTH),
}


def _with_gap_frame(data):
    """``data`` with an undecodable copy of event frame 1 spliced in
    before it: a record the walk drops, outside the chain."""
    damaged = _with_params(data, 1, b"{not json")
    offset, _ = _event_frame_offsets(data)[1]
    start, length = _event_frame_offsets(damaged)[1]
    frame = damaged[start : start + _FRAME_HEAD.size + length]
    return data[:offset] + frame + data[offset:]


def _exit_document(name, encoding):
    """The ``_ONE_STEP_EXITS`` document in one encoding, and the
    position (``ChainVerifier.index``) of the record that must leave."""
    changes, after, _ = _ONE_STEP_EXITS[name]
    _, raw = _changed_document(changes)
    document = json.loads(raw)
    record = document["events"][1]
    position = 1
    if after == "crc wrong":
        record["crc"] ^= 1
    elif after == "chain wrong":
        record["chain"] ^= 1
    elif after == "chain stripped":
        del record["chain"]
    elif after in ("float crc", "float chain"):
        key = after.split()[1]
        record[key] = float(record[key])
    elif after == "gap":
        document["events"].insert(1, 5)
        position = 2
    if encoding == "json":
        return position, json.dumps(document).encode("utf-8")
    if after == "gap":
        return position, _with_gap_frame(to_binary(raw))
    return position, to_binary(json.dumps(document))


@pytest.mark.parametrize(
    "name, encoding",
    [
        (name, encoding)
        for name, (_, _, encodings) in _ONE_STEP_EXITS.items()
        for encoding in encodings
    ],
    ids=lambda value: value.replace(" ", "-"),
)
def test_one_step_exits_take_the_general_rules(name, encoding, tmp_path, monkeypatch):
    position, raw = _exit_document(name, encoding)
    path = tmp_path / "doc"
    left = _left_the_one_step(monkeypatch, path, raw)
    # The record leaves the one step; the writers' record before it
    # does not.
    assert position in left and 0 not in left, left
    mismatches = _audit_mismatches(path, [(name, raw)])
    assert not mismatches, "\n".join(mismatches)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def _parse_metrics(registry):
    seconds = registry.get("repro_netlog_parse_seconds")
    records = registry.get("repro_netlog_records_total")
    return (
        {labels: value.count for labels, value in seconds.values().items()},
        records.values(),
    )


@pytest.fixture()
def obs_on():
    obs.disable()
    yield
    obs.disable()


@pytest.mark.parametrize(
    "name", ["binary", "json", "json cut", "json spliced", "not a netlog"]
)
def test_audit_records_the_parse_metrics(name, obs_on, checksummed, tmp_path):
    raw = {
        "binary": dumps_binary(_events(4), checksums=True),
        "json": checksummed.encode("utf-8"),
        "json cut": checksummed[: len(checksummed) // 2].encode("utf-8"),
        "json spliced": next(_splices(checksummed))[1].encode("utf-8"),
        "not a netlog": b'{"events": 5}',
    }[name]
    from repro.obs.metrics import MetricsRegistry

    obs.enable(MetricsRegistry())
    _loads_reference(raw)
    want = _parse_metrics(obs.registry())
    obs.enable(MetricsRegistry())
    path = tmp_path / "doc"
    path.write_bytes(raw)
    verify_document(path)
    got = _parse_metrics(obs.registry())
    assert got == want
    # One parse-seconds sample, under the parse's mode and format.
    assert sum(want[0].values()) == 1
