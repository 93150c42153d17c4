"""Throughput benches for the measurement pipeline itself.

Not a paper table — these quantify the cost of the harness: pages crawled
per second (browser + NetLog + detection), NetLog parse throughput, and
detection throughput over a scanner-heavy event stream.

``test_format_matrix_throughput`` is the dual-format trajectory bench:
it times the codec spine (encode, parse, streaming scan, roundtrip) for
the JSON and ``nlbin-v1`` encodings over the same corpus and writes a
``repro-metrics-v1`` snapshot to ``benchmarks/output/BENCH_pipeline.json``
(committed trajectory point: ``benchmarks/BENCH_pipeline.json``).  The
binary parse path must beat JSON by ``REPRO_PIPELINE_SPEEDUP_FLOOR``
(default 3x).
"""

import json
import os
import time

from repro import obs
from repro.browser.chrome import SimulatedChrome
from repro.browser.useragent import identity_for
from repro.core.detector import LocalTrafficDetector
from repro.crawler.campaign import run_campaign
from repro.netlog import (
    dumps,
    dumps_binary,
    iter_events_streaming,
    loads,
    to_binary,
    to_json,
)
from repro.obs.export import snapshot
from repro.web.population import build_top_population

from .conftest import write_artifact

CRAWL_SCALE = 0.002  # 200 sites incl. all seeded ones

SPEEDUP_FLOOR = float(os.environ.get("REPRO_PIPELINE_SPEEDUP_FLOOR", "3.0"))
TIMING_REPS = 7
CORPUS_SITES = 40


def test_crawl_throughput(benchmark):
    population = build_top_population(2020, scale=CRAWL_SCALE)

    def crawl():
        result = run_campaign(population)
        return len(result.findings)

    findings = benchmark(crawl)
    assert findings == 116  # 107 localhost + 9 LAN


def test_netlog_roundtrip_throughput(benchmark):
    chrome = SimulatedChrome(identity_for("windows"))
    population = build_top_population(2020, scale=CRAWL_SCALE)
    site = population.website("ebay.com")
    text = dumps(chrome.visit(site.page()).events)

    def roundtrip():
        return len(loads(text))

    assert benchmark(roundtrip) > 0


def test_detection_throughput(benchmark):
    chrome = SimulatedChrome(identity_for("windows"))
    population = build_top_population(2020, scale=CRAWL_SCALE)
    events = chrome.visit(population.website("ebay.com").page()).events
    detector = LocalTrafficDetector()

    def detect():
        return len(detector.detect(events).requests)

    assert benchmark(detect) == 14


def _min_seconds(fn, reps=TIMING_REPS):
    """Min-of-N wall time: the least-interfered-with pass."""
    fn()  # warm caches and dispatch tables outside the timed reps
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _alternating_min_seconds(fns, reps=TIMING_REPS):
    """Min-of-N wall time for each function, with their reps interleaved.

    After one warm-up each, the functions run in turn (a, b, a, b, ...):
    a host that changes speed mid-bench slows both sides alike, so the
    ratio of the minimums does not straddle the change.
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for slot, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            best[slot] = min(best[slot], time.perf_counter() - started)
    return best


def test_format_matrix_throughput():
    chrome = SimulatedChrome(identity_for("windows"))
    population = build_top_population(2020, scale=CRAWL_SCALE)
    events = []
    for website in population.websites[:CORPUS_SITES]:
        events.extend(chrome.visit(website.page()).events)

    text = dumps(events, checksums=True)
    data = dumps_binary(events, checksums=True)
    # The timing comparison is only meaningful if both encodings carry
    # the identical stream — and transcode losslessly into each other.
    assert loads(text) == loads(data)
    assert to_json(to_binary(text)) == text
    assert to_binary(to_json(data)) == data

    obs.enable()
    try:
        # The gated ratio: both parses timed in alternating reps.
        json_parse_s, binary_parse_s = _alternating_min_seconds(
            (lambda: loads(text), lambda: loads(data))
        )
        parse_s = {"json": json_parse_s, "binary": binary_parse_s}
        matrix = {}
        for name, document, encode in (
            ("json", text, lambda: dumps(events, checksums=True)),
            ("binary", data, lambda: dumps_binary(events, checksums=True)),
        ):
            matrix[name] = {
                "document_bytes": len(document),
                "encode_s": round(_min_seconds(encode), 6),
                "parse_s": round(parse_s[name], 6),
                "scan_s": round(
                    _min_seconds(
                        lambda: sum(1 for _ in iter_events_streaming(document))
                    ),
                    6,
                ),
                "roundtrip_s": round(
                    _min_seconds(lambda: loads(encode())), 6
                ),
            }
        speedup = {
            metric: round(
                matrix["json"][metric] / matrix["binary"][metric], 2
            )
            for metric in ("encode_s", "parse_s", "scan_s", "roundtrip_s")
        }
        compression = round(
            matrix["json"]["document_bytes"]
            / matrix["binary"]["document_bytes"],
            2,
        )
        assert speedup["parse_s"] >= SPEEDUP_FLOOR, (
            f"binary parse is only {speedup['parse_s']}x JSON "
            f"(floor: {SPEEDUP_FLOOR}x)"
        )
        snapshot_doc = snapshot(
            obs.registry(),
            meta={
                "bench": "pipeline-throughput",
                "corpus_sites": CORPUS_SITES,
                "events": len(events),
                "formats": matrix,
                "speedup_json_over_binary": speedup,
                "speedup_floor": SPEEDUP_FLOOR,
                "compression_ratio": compression,
            },
        )
        write_artifact("BENCH_pipeline.json", json.dumps(snapshot_doc, indent=2))
    finally:
        obs.disable()
