"""Differential tests for the two NetLog decoders.

Each encoding has one decoder: the binary frame loop in
:mod:`repro.netlog.binary` serves ``verify="fast"`` and ``verify="full"``
over bytes and file input, and the record walk in
:mod:`repro.netlog.parser` serves both the whole-document JSON parser and
the streaming scanner.

* **Byte-level corpora.** Every cut, every cut plus a NUL tail, and
  either a low- and a high-bit flip at every byte (binary) or every digit
  incremented (JSON), over a plain and a checksummed 4-event document.
  Every variant runs through every entry point in salvage and strict
  mode, and the outcomes (events, :class:`ParseStats`, exception class)
  are hashed.  The pinned digests were recorded from the implementation
  that still had a separate fused fast-path loop for in-memory binary
  documents and a second frame scanner, so the single loops are held to
  exactly the outcomes of the code they replaced.  The binary digest was
  re-pinned once since, for two salvage fixes and nothing else (3,718 of
  its 9,788 variants changed outcome, each by one of them): a header
  frame that fails its CRC is one chain break at record 0 in salvage
  (3,710 variants, salvage cells only; strict mode raised before and
  still does), and a CRC-valid event frame shorter than its prelude is
  one malformed record instead of a ``struct.error`` (8 variants, each a
  cut just after an event frame's tag byte plus the NUL tail, in all
  four regime and strictness cells).
* **Record-level corpus.** 43 splice, strip, tamper, reorder and trailer
  shapes of one checksummed 6-event document: JSON ``loads``, JSON
  streaming and the binary full regime (bytes and file) must report
  identical events and :class:`ParseStats`, and the audit
  (``parallel.verify_document``, over either encoding) identical
  :class:`ParseStats`.
* **Falsy params.** One record of the same document carries ``params``
  ``null``, ``[]``, ``0``, ``""``, ``false`` or ``{}`` under a valid
  checksum: both encodings take it as an event with empty params
  (``parser.event_params``), in every entry point and both binary
  regimes.
"""

import dataclasses
import hashlib
import io
import json
import zlib

import pytest

from repro.netlog import (
    CHAIN_SEED,
    CHECKSUM_ALGORITHM,
    ParseStats,
    canonical_record_bytes,
    dumps,
    dumps_binary,
    iter_events_binary,
    iter_events_streaming,
    loads,
    to_binary,
)
from repro.netlog.parallel import verify_document

from .test_binary import _events

#: sha256 over the canonical JSON of every outcome, per corpus.
BINARY_CORPUS_DIGEST = (
    "b5eddf469788c486e4fbd8cc5104c4e1897139cea92ecb66c6334c59ef3a9f66"
)
JSON_CORPUS_DIGEST = (
    "31db16d5ce806ea7100a408b9337eff1bf9741223d3ee980fc1d0c2307c5f212"
)

#: Length of the NUL tail appended after each cut.
NUL_TAIL = 16


def _render(event):
    return [
        event.time,
        int(event.type),
        event.source.id,
        int(event.source.type),
        int(event.phase),
        event.params,
    ]


def _outcome(parse):
    """``[events, stats, exception class]`` of one parse.

    ``parse(stats)`` returns an event iterable; events yielded before an
    exception are kept, so a strict parse pins where it raises too.
    """
    stats = ParseStats()
    events = []
    error = None
    try:
        for event in parse(stats):
            events.append(_render(event))
    except Exception as exc:  # noqa: BLE001 — the class is the outcome
        error = type(exc).__name__
    return [events, dataclasses.asdict(stats), error]


def _digest(outcomes):
    blob = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _binary_variants(doc):
    for cut in range(len(doc) + 1):
        yield doc[:cut]
        yield doc[:cut] + b"\x00" * NUL_TAIL
    for position in range(len(doc)):
        for bit in (0x01, 0x80):
            mutated = bytearray(doc)
            mutated[position] ^= bit
            yield bytes(mutated)


def _json_variants(doc):
    for cut in range(len(doc) + 1):
        yield doc[:cut]
        yield doc[:cut] + "\x00" * NUL_TAIL
    for position, char in enumerate(doc):
        if char.isdigit():
            bumped = str((int(char) + 1) % 10)
            yield doc[:position] + bumped + doc[position + 1 :]


def _binary_outcomes(data, verify, strict):
    """The outcome from bytes input; file input must give the same."""

    def parse(source):
        return lambda stats: iter_events_binary(
            source, strict=strict, stats=stats, verify=verify
        )

    from_bytes = _outcome(parse(data))
    from_file = _outcome(parse(io.BytesIO(data)))
    assert from_bytes == from_file, (verify, strict, data)
    return from_bytes


def binary_corpus_outcomes():
    outcomes = []
    for checksums in (False, True):
        doc = dumps_binary(_events(4), checksums=checksums)
        for data in _binary_variants(doc):
            row = {
                (verify, strict): _binary_outcomes(data, verify, strict)
                for verify in ("fast", "full")
                for strict in (False, True)
            }
            # The regimes differ in what they count, never in the
            # events a salvage parse recovers.
            assert row["fast", False][0] == row["full", False][0], data
            outcomes.append([row[key] for key in sorted(row)])
    return outcomes


def json_corpus_outcomes():
    outcomes = []
    for checksums in (False, True):
        doc = dumps(_events(4), checksums=checksums)
        for text in _json_variants(doc):
            row = []
            for strict in (False, True):
                row.append(
                    _outcome(
                        lambda stats: loads(text, strict=strict, stats=stats)
                    )
                )
                row.append(
                    _outcome(
                        lambda stats: iter_events_streaming(
                            text, strict=strict, stats=stats
                        )
                    )
                )
            outcomes.append(row)
    return outcomes


def test_binary_corpus_matches_recorded_digest():
    outcomes = binary_corpus_outcomes()
    assert len(outcomes) == 9788
    assert _digest(outcomes) == BINARY_CORPUS_DIGEST


def test_json_corpus_matches_recorded_digest():
    outcomes = json_corpus_outcomes()
    assert len(outcomes) == 6018
    assert _digest(outcomes) == JSON_CORPUS_DIGEST


# ---------------------------------------------------------------------------
# Record level: the encodings agree with each other
# ---------------------------------------------------------------------------


def _rechecksum(records):
    """Re-derive crc/chain over ``records`` as a writer would."""
    chain = CHAIN_SEED
    out = []
    for record in records:
        record = {k: v for k, v in record.items() if k not in ("crc", "chain")}
        payload = canonical_record_bytes(record)
        chain = zlib.crc32(payload, chain)
        out.append({**record, "crc": zlib.crc32(payload), "chain": chain})
    trailer = {
        "algorithm": CHECKSUM_ALGORITHM,
        "events": len(out),
        "chain": chain,
    }
    return out, trailer


def _record_variants():
    base = json.loads(dumps(_events(6), checksums=True))
    records = base["events"]
    trailer = base["integrity"]

    def document(events, integrity=trailer):
        doc = {"constants": base["constants"], "events": events}
        if integrity is not None:
            doc["integrity"] = integrity
        return json.dumps(doc)

    count = len(records)
    yield "pristine", document(records)
    for i in range(count):
        yield f"record {i} spliced out", document(
            records[:i] + records[i + 1 :]
        )
    for i in range(count):
        stripped = {
            k: v for k, v in records[i].items() if k not in ("crc", "chain")
        }
        yield f"record {i} crc/chain stripped", document(
            records[:i] + [stripped] + records[i + 1 :]
        )
    for i in range(count):
        tampered = {**records[i], "time": records[i]["time"] + 0.5}
        yield f"record {i} time tampered", document(
            records[:i] + [tampered] + records[i + 1 :]
        )
    for keep in range(1, count):
        yield f"tail dropped after {keep}", document(records[:keep])
    for i in range(count):
        foreign = [dict(record) for record in records]
        foreign[i]["type"] = 9999
        rechecksummed, foreign_trailer = _rechecksum(foreign)
        yield f"record {i} unknown type", document(
            rechecksummed, foreign_trailer
        )
    for i in range(count - 1):
        swapped = list(records)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        yield f"records {i} and {i + 1} swapped", document(swapped)
    for i in range(count):
        yield f"record {i} duplicated", document(
            records[: i + 1] + [records[i]] + records[i + 1 :]
        )
    yield "no trailer", document(records, None)
    yield "events emptied", document([])


RECORD_VARIANTS = list(_record_variants())


def test_record_corpus_size():
    assert len(RECORD_VARIANTS) == 43


@pytest.mark.parametrize(
    "text", [text for _, text in RECORD_VARIANTS],
    ids=[label for label, _ in RECORD_VARIANTS],
)
def test_encodings_agree_record_by_record(text, tmp_path):
    data = to_binary(text)
    want = _outcome(lambda stats: loads(text, strict=False, stats=stats))
    assert want[2] is None
    paths = {
        "json streaming": lambda stats: iter_events_streaming(
            text, strict=False, stats=stats
        ),
        "binary full, bytes": lambda stats: iter_events_binary(
            data, strict=False, stats=stats, verify="full"
        ),
        "binary full, file": lambda stats: iter_events_binary(
            io.BytesIO(data), strict=False, stats=stats, verify="full"
        ),
    }
    for name, parse in paths.items():
        assert _outcome(parse) == want, name
    _assert_audit_agrees(text, data, want, tmp_path)


def _assert_audit_agrees(text, data, want, tmp_path):
    """The audit of either encoding reports the parse's ParseStats."""
    for name, raw in (("json", text.encode("utf-8")), ("binary", data)):
        path = tmp_path / f"doc.{name}"
        path.write_bytes(raw)
        assert dataclasses.asdict(verify_document(path)) == want[1], name


def _falsy_params_variants():
    base = json.loads(dumps(_events(6), checksums=True))
    for value in (None, [], 0, "", False, {}):
        records = [dict(record) for record in base["events"]]
        records[2]["params"] = value
        rechecksummed, trailer = _rechecksum(records)
        yield json.dumps(value), json.dumps(
            {
                "constants": base["constants"],
                "events": rechecksummed,
                "integrity": trailer,
            }
        )


FALSY_PARAMS_VARIANTS = list(_falsy_params_variants())


@pytest.mark.parametrize(
    "text", [text for _, text in FALSY_PARAMS_VARIANTS],
    ids=[label for label, _ in FALSY_PARAMS_VARIANTS],
)
def test_falsy_params_are_empty_params_everywhere(text, tmp_path):
    data = to_binary(text)
    want = _outcome(lambda stats: loads(text, strict=False, stats=stats))
    assert want[2] is None
    assert want[1] == dataclasses.asdict(ParseStats(parsed=6, verified=6))
    assert want[0][2][5] == {}
    paths = {
        "json streaming": lambda stats: iter_events_streaming(
            text, strict=False, stats=stats
        ),
    }
    for verify in ("fast", "full"):
        for source, wrap in (("bytes", bytes), ("file", io.BytesIO)):
            paths[f"binary {verify}, {source}"] = (
                lambda stats, verify=verify, wrap=wrap: iter_events_binary(
                    wrap(data), strict=False, stats=stats, verify=verify
                )
            )
    for name, parse in paths.items():
        assert _outcome(parse) == want, name
    _assert_audit_agrees(text, data, want, tmp_path)
