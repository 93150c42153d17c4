"""Differential test: whole-document verify vs the streaming walker.

``parallel.verify_document`` (what ``repro fsck`` runs per archived
document) verifies JSON through the whole-document parser — C
``json.loads`` plus the shared record walk — and leaves the incremental
streaming walker only the text that is not valid JSON.  The streaming
walker over the same bytes is kept here as the reference: over one
checksummed salvage corpus both must report identical
:class:`~repro.netlog.ParseStats`, so the swap cannot change what an
audit sees.  Documents that are not NetLog objects at all are pinned
separately (``tests/storage/test_integrity.py``).
"""

import io
import json

import pytest

from repro.netlog import ParseStats, dumps, iter_events_streaming
from repro.netlog.parallel import verify_document

from .test_binary import _events

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


#: ParseStats fields whose being set names a damage outcome.
_OUTCOMES = ("truncated", "dropped_malformed", "checksum_failures", "chain_breaks")


def test_verify_document_matches_streaming_walker(checksummed, tmp_path):
    path = tmp_path / "doc.json"
    mismatches = []
    outcomes = set()
    for variants in (_cuts, _holes, _flips, _splices):
        for label, text in variants(checksummed):
            raw = text.encode("utf-8")
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
