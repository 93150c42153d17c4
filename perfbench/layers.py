"""Layer attribution from outside the library: wrap, time, unwrap.

:class:`LayerTrace` replaces the public functions and methods listed in
:data:`WRAPPED` with timing wrappers.  Each call records one span (what
was called, start, end, enclosing span) in a buffer owned by the calling
thread, and folds the span's self time (its duration minus the part its
same-thread child spans cover) into per-kind totals.  Spans stay in
memory until :meth:`LayerTrace.write` saves them; :meth:`LayerTrace.
uninstall` puts every original back, so no wrapper outlives the traced
phase of one workload.

Nothing under ``src/`` is edited: module-level functions are replaced in
every loaded ``repro`` module that bound them by name (``from .addresses
import parse_target`` makes a second reference the defining module
cannot reach), methods on their defining class.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

#: Marker attribute set on every wrapper, so a leftover is detectable.
WRAPPER_MARK = "__perfbench_layer__"


@dataclass(frozen=True)
class Wrapped:
    """One public entry point to time, and the span kind it records."""

    module: str
    qualname: str
    kind: str
    #: Optional per-call count: ``measure(args, result) -> (counter, n)``.
    measure: Callable | None = None
    #: Optional per-call kind choice (replaces ``kind``): ``pick(args)``.
    pick: Callable | None = None


def _body_bytes(args, buffer):
    return "capture.body_bytes", len(buffer.body)


def _local_requests(args, detection):
    return "detect.local_requests", len(detection.requests)


def _parse_bytes(args, stats):
    return "parse.bytes", os.path.getsize(args[0])


def _parse_kind(args):
    return "parse.binary" if str(args[0]).endswith(".nlbin") else "parse.json"


#: Every wrapped entry point.  Kinds map to table layers by their first
#: dotted component, except ``executor.wait`` (the main thread blocked in
#: the supervised pass while worker threads do the visits), which is
#: reported by no layer: the worker threads' spans account for that time.
WRAPPED: tuple[Wrapped, ...] = (
    Wrapped("repro.crawler.campaign", "Campaign.run", "crawler"),
    Wrapped("repro.crawler.crawl", "Crawler.crawl_site", "crawler"),
    Wrapped("repro.crawler.executor", "SupervisedExecutor.run_pass", "executor.wait"),
    Wrapped("repro.browser.chrome", "SimulatedChrome.visit", "browser"),
    Wrapped("repro.netlog.writer", "NetLogBuffer.accept", "capture.accept"),
    Wrapped("repro.netlog.writer", "NetLogBuffer.finish", "capture.finish", _body_bytes),
    Wrapped("repro.netlog.binary", "BinaryNetLogBuffer.accept", "capture.accept"),
    Wrapped(
        "repro.netlog.binary", "BinaryNetLogBuffer.finish", "capture.finish", _body_bytes
    ),
    Wrapped("repro.core.detector", "DetectionSink.accept", "detect.accept"),
    Wrapped("repro.core.detector", "DetectionSink.finish", "detect.finish", _local_requests),
    Wrapped("repro.core.addresses", "parse_ip", "addresses"),
    Wrapped("repro.core.addresses", "classify_host", "addresses"),
    Wrapped("repro.core.addresses", "parse_target", "addresses"),
    Wrapped("repro.core.addresses", "classify_url", "addresses"),
    Wrapped("repro.core.classifier", "BehaviorClassifier.classify_per_os", "classify"),
    Wrapped("repro.netlog.archive", "NetLogArchive.write_buffered", "archive.write"),
    Wrapped("repro.netlog.archive", "NetLogArchive.exists", "archive.lookup"),
    Wrapped("repro.storage.db", "TelemetryStore.record_visit", "store.record"),
    Wrapped("repro.storage.db", "TelemetryStore.commit", "store.commit"),
    # close() flushes a batched store's tail and checkpoints a WAL store.
    Wrapped("repro.storage.db", "TelemetryStore.close", "store.close"),
    Wrapped("repro.storage.integrity", "visit_digest", "integrity.digest"),
    Wrapped(
        "repro.netlog.parallel", "verify_document", "parse", _parse_bytes,
        pick=_parse_kind,
    ),
    Wrapped("repro.storage.integrity", "fsck", "fsck"),
)

#: Rows of the layer table, in pipeline order; ``other`` is the residual.
LAYERS = (
    "browser", "capture", "detect", "addresses", "classify", "archive",
    "store", "integrity", "parse", "crawler", "fsck",
)

_KINDS: tuple[str, ...] = tuple(
    dict.fromkeys(
        kind
        for spec in WRAPPED
        for kind in (
            ("parse.json", "parse.binary") if spec.pick is not None else (spec.kind,)
        )
    )
)


def layer_of(kind: str) -> str | None:
    """The table layer a span kind belongs to (None: not a layer)."""
    if kind == "executor.wait":
        return None
    return kind.split(".", 1)[0]


class _ThreadSpans:
    """One thread's spans (columns) and running totals."""

    __slots__ = (
        "name", "kind", "parent", "start", "end", "stack",
        "self_s", "calls", "counts",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open spans: [span id, seconds covered by finished children].
        self.stack: list[list] = []
        self.self_s = [0.0] * len(_KINDS)
        self.calls = [0] * len(_KINDS)
        self.counts: dict[str, int] = {}


class LayerTrace:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- per-thread buffers -------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = _ThreadSpans(threading.current_thread().name)
        with self._lock:
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _wrap(self, original: Callable, spec: Wrapped) -> Callable:
        local = self._local
        new_spans = self._spans
        perf = time.perf_counter
        fixed = _KINDS.index(spec.kind) if spec.pick is None else -1
        pick = spec.pick
        measure = spec.measure

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = new_spans()
            kind = fixed if pick is None else _KINDS.index(pick(args))
            stack = spans.stack
            span_id = len(spans.kind)
            spans.kind.append(kind)
            spans.parent.append(stack[-1][0] if stack else -1)
            spans.start.append(0.0)
            spans.end.append(0.0)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                spans.start[span_id] = start
                spans.end[span_id] = end
                spans.self_s[kind] += duration - frame[1]
                spans.calls[kind] += 1
                if stack:
                    stack[-1][1] += duration
            if measure is not None:
                counter, amount = measure(args, result)
                spans.counts[counter] = spans.counts.get(counter, 0) + amount
            return result

        setattr(traced, WRAPPER_MARK, spec.kind)
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPPED`."""
        if self._patches:
            raise RuntimeError("layer trace is already installed")
        try:
            for spec in WRAPPED:
                module = import_module(spec.module)
                owner_name, _, attr = spec.qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[attr]
                    self._patch(owner, attr, self._wrap(original, spec))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, spec)
                for name, loaded in list(sys.modules.items()):
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for binding, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, binding, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return sum(len(spans.kind) for spans in self._threads)

    def kind_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Self seconds and calls per span kind, plus measured counts."""
        self_s = dict.fromkeys(_KINDS, 0.0)
        calls = dict.fromkeys(_KINDS, 0)
        counts: dict[str, int] = {}
        for spans in self._threads:
            for index, kind in enumerate(_KINDS):
                self_s[kind] += spans.self_s[index]
                calls[kind] += spans.calls[index]
            for counter, amount in spans.counts.items():
                counts[counter] = counts.get(counter, 0) + amount
        return self_s, calls, counts

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per table layer (``executor.wait`` excluded)."""
        self_s, _, _ = self.kind_totals()
        layers = dict.fromkeys(LAYERS, 0.0)
        for kind, seconds in self_s.items():
            layer = layer_of(kind)
            if layer is not None:
                layers[layer] += seconds
        return layers

    def write(self, path, meta: dict) -> None:
        """Save every span (times in µs from trace creation) as JSON."""
        threads = []
        for spans in self._threads:
            starts = [round((t - self.origin) * 1e6, 3) for t in spans.start]
            threads.append(
                {
                    "name": spans.name,
                    "kind": list(spans.kind),
                    "parent": list(spans.parent),
                    "start_us": starts,
                    "dur_us": [
                        round((end - start) * 1e6, 3)
                        for start, end in zip(spans.start, spans.end)
                    ],
                }
            )
        document = {"meta": meta, "kinds": list(_KINDS), "threads": threads}
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(document, fp, separators=(",", ":"))


def surviving_wrappers() -> list[str]:
    """Wrapped entry points still in place (empty after uninstall)."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, None) is not None:
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for method, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, None) is not None:
                        found.append(f"{name}.{attr}.{method}")
    return sorted(set(found))
