"""One NetLog document's analysis: parse → detect → classify.

Every re-analysis surface runs this one function and keeps only its own
rendering: ``repro analyze`` prints it as text, the ``--jobs`` workers
fold it into one summary line, and the canonical report behind
``repro analyze --json`` and ``repro serve`` serialises it as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable

from ..netlog.parser import ParseStats
from ..netlog.streaming import iter_events_streaming
from .classifier import BehaviorClassifier, Classification
from .detector import DetectionResult, LocalTrafficDetector

#: How many parsed events between cancellation checkpoints: small enough
#: that a watchdog-cancelled worker reacts within its poll interval on
#: any realistic document, large enough to stay off the hot path.
CHECKPOINT_EVERY = 256


@dataclass(slots=True)
class DocumentAnalysis:
    """What one document says about local traffic, and how it parsed."""

    stats: ParseStats
    detection: DetectionResult
    verdict: Classification


def analyze_document(
    source: bytes | IO[bytes],
    *,
    checkpoint: Callable[[], None] | None = None,
) -> DocumentAnalysis:
    """Salvage-parse one document and detect and classify its traffic.

    ``source`` is the document's bytes or a binary file; the streaming
    layer sniffs JSON or binary from the first byte, and events fold
    into flows as they decode, so memory is bounded by the open flows,
    not the document size.  A damaged document yields whatever is
    recoverable, accounted in ``stats``.  Well-formed JSON that is not
    a NetLog document raises
    :class:`~repro.netlog.parser.NetLogParseError`; a file's ``OSError``
    passes through.  ``checkpoint`` is called every
    :data:`CHECKPOINT_EVERY` events, so a cancelled worker abandons a
    wedged or oversized parse.
    """
    stats = ParseStats()
    sink = LocalTrafficDetector().sink()
    events = iter_events_streaming(
        source, strict=False, stats=stats, require_events=True
    )
    for seen, event in enumerate(events, 1):
        sink.accept(event)
        if checkpoint is not None and seen % CHECKPOINT_EVERY == 0:
            checkpoint()
    detection = sink.finish()
    verdict = BehaviorClassifier().classify(detection.requests)
    return DocumentAnalysis(stats, detection, verdict)
