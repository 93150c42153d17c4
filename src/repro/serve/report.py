"""The canonical analysis-report document — the service's unit of truth.

One upload (a serialised NetLog document, possibly damaged) maps to one
JSON report carrying the paper's three research questions: does the page
talk to the local network (RQ1), to which ports/schemes (RQ2), and what
behaviour class does the traffic signature match (RQ3).

The rendering is **byte-stable**: sorted keys, compact separators, a
trailing newline, and only deterministic content (the upload's own
digest, parse accounting, detection output) — never a timestamp or
hostname.  ``repro analyze --json`` and every serve path (fresh
analysis, cache hit, journal recovery after a kill -9) emit this exact
byte sequence for the same upload, which is what lets the chaos bench
assert the service never returns a wrong or partial report: any
divergence is a content difference, not formatting noise.

Salvage semantics follow the batch CLI: a damaged document (truncated
upload, NUL-padded tail, checksum failures) is parsed for whatever is
recoverable and reported with its damage accounted in ``parse``; only a
well-formed document that is not a NetLog at all raises
:class:`ReportError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from ..core.document import CHECKPOINT_EVERY as CHECKPOINT_EVERY  # re-exported
from ..core.document import analyze_document
from ..netlog import NetLogParseError

#: Format tag embedded in (and required of) every report document.
REPORT_FORMAT = "repro-report-v1"

#: Digest algorithm prefix for upload content addresses.
DIGEST_ALGORITHM = "sha256"


class ReportError(ValueError):
    """The upload cannot produce a report (not a NetLog document)."""


def upload_digest(data: bytes) -> str:
    """Content address of an upload: ``sha256:<hex>``.

    This is the result-cache key and the journal's digest column;
    repeat submissions of the same bytes are free and byte-identical.
    """
    return f"{DIGEST_ALGORITHM}:{hashlib.sha256(data).hexdigest()}"


def job_id_for(digest: str) -> str:
    """Deterministic job id for an upload digest.

    Digest-derived so resubmitting the same bytes lands on the same
    journal row (idempotent submission) and a restarted server computes
    identical ids for the jobs it recovers.
    """
    return "j" + digest.split(":", 1)[1][:16]


def analyze_report(
    data: bytes, *, checkpoint: Callable[[], None] | None = None
) -> dict:
    """Analyze one upload into the canonical report document.

    ``checkpoint`` is called every :data:`CHECKPOINT_EVERY` parsed
    events; the serve worker passes its cancel token's ``checkpoint`` so
    a wedged or oversized parse is abandoned at the wall deadline
    instead of starving the pool.
    """
    try:
        # Reports are content-addressed by the upload bytes, so the same
        # events uploaded in the two formats are two cache entries with
        # identical analysis sections.
        analysis = analyze_document(data, checkpoint=checkpoint)
    except NetLogParseError as exc:
        raise ReportError(f"not a NetLog document: {exc}") from exc
    stats, detection, verdict = analysis.stats, analysis.detection, analysis.verdict
    return {
        "format": REPORT_FORMAT,
        "digest": upload_digest(data),
        "bytes": len(data),
        "parse": {
            "events": stats.parsed,
            "dropped_unknown_type": stats.dropped_unknown_type,
            "dropped_malformed": stats.dropped_malformed,
            "checksum_failures": stats.checksum_failures,
            "chain_breaks": stats.chain_breaks,
            "truncated": stats.truncated,
            "damaged": stats.damaged,
        },
        "flows": detection.total_flows,
        "page_load_time": detection.page_load_time,
        "rq1": {
            "local_activity": detection.has_local_activity,
            "localhost_requests": len(detection.localhost_requests),
            "lan_requests": len(detection.lan_requests),
        },
        "rq2": {
            "ports": sorted(detection.ports()),
            "schemes": sorted(detection.schemes()),
        },
        "rq3": {
            "behavior": verdict.behavior.value,
            "signature": verdict.signature_name,
            "confidence": (
                verdict.match.confidence if verdict.match is not None else None
            ),
            "detail": verdict.match.detail if verdict.match is not None else None,
        },
        "requests": [
            {
                "locality": request.locality.value,
                "scheme": request.scheme,
                "host": request.host,
                "port": request.port,
                "path": request.path,
                "time": request.time,
                "method": request.method,
                "via_redirect": request.via_redirect,
                "initiator": request.initiator,
                "source_id": request.source_id,
            }
            for request in detection.requests
        ],
    }


def render_report(document: dict) -> str:
    """Serialise a report document to its canonical byte-stable text."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def analyze_report_text(
    data: bytes, *, checkpoint: Callable[[], None] | None = None
) -> str:
    """``analyze_report`` + ``render_report`` in one step."""
    return render_report(analyze_report(data, checkpoint=checkpoint))
