#!/usr/bin/env python3
"""Layer-attributed end-to-end benchmark: persisted campaigns and fsck.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-binary --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` runs the workload's operation (one campaign, or one fsck
pass) back to back for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` splits the time between an untraced phase (the overhead
baseline) and a traced phase with every layer entry point wrapped (see
``layers.py``), prints the layer table, writes the spans to
``perfbench/_work/``, and reports the per-layer metrics.  Every operation of both phases passes
the correctness gate or counts as failed.  The last stdout line is the
result object; the line before it stamps the run's environment.
README.md maps each metric to the workload it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEFAULT_SEED = 1

END_TO_END = {
    "visits_per_s": "visits/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "archive_bytes_per_visit": "bytes",
    "store_bytes_per_visit": "bytes",
}

#: Per-layer metrics.  ``*_s`` are self seconds per operation (campaign
#: or fsck pass) and ``*.share`` the share of traced wall time (times the
#: worker count under the supervised executor); counts are per operation.
PER_LAYER = {
    "browser.self_s": "s",
    "browser.share": "fraction",
    "browser.visits": "count",
    "browser.events_per_visit": "count",
    "capture.encode_s": "s",
    "capture.share": "fraction",
    "capture.events": "count",
    "capture.us_per_event": "us",
    "capture.body_bytes": "bytes",
    "detect.s": "s",
    "detect.share": "fraction",
    "detect.local_requests": "count",
    "addresses.s": "s",
    "addresses.share": "fraction",
    "addresses.calls_per_visit": "count",
    "classify.s": "s",
    "classify.share": "fraction",
    "archive.write_s": "s",
    "archive.share": "fraction",
    "archive.docs": "count",
    "archive.files_per_visit": "count",
    "archive.write_failures": "count",
    "archive.lookup_s": "s",
    "archive.lookups": "count",
    "store.record_s": "s",
    "store.commit_s": "s",
    "store.share": "fraction",
    "store.commits": "count",
    "integrity.digest_s": "s",
    "integrity.share": "fraction",
    "parse.json_s": "s",
    "parse.binary_s": "s",
    "parse.share": "fraction",
    "parse.docs": "count",
    "parse.bytes": "bytes",
    "crawler.self_s": "s",
    "crawler.share": "fraction",
    "crawler.visit_interval_p50_ms": "ms",
    "crawler.visit_interval_p99_ms": "ms",
    "fsck.self_s": "s",
    "fsck.share": "fraction",
    "executor.busy_share": "fraction",
    "executor.dispatched": "count",
    "executor.deadline_cancelled": "count",
    "executor.quarantined": "count",
    "other.share": "fraction",
    "trace.overhead_share": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment stamp -----------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fp:
            mounts = [line.split() for line in fp]
    except OSError:
        return fstype
    for fields in mounts:
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def stamp(workload: str, seed: int, seconds: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "archive_fs": filesystem(WORK),
    }


# -- memory --------------------------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fp:
            fp.write("5")
    except OSError:
        pass  # the peak then covers set-up too


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- per-layer metrics and the layer table -----------------------------------


def intervals_ms(operations) -> list[float]:
    gaps = []
    for operation in operations:
        stamps = sorted(operation.visit_stamps)
        gaps.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
    return gaps


def layer_metrics(trace, traced, untraced, capacity: int) -> tuple[dict, dict]:
    """Per-layer metrics, and the layer table's (seconds/op, share) rows."""
    from layers import LAYERS
    from workloads import fast_quartile

    count = len(traced)
    budget = sum(op.wall_s for op in traced) * capacity
    self_s, calls, counts = trace.kind_totals()
    layer_s = trace.layer_seconds()
    share = {layer: seconds / budget for layer, seconds in layer_s.items()}
    other = 1.0 - sum(share.values())
    visits = calls["browser"]
    events = calls["capture.accept"]
    gaps = intervals_ms(traced)
    p99 = statistics.quantiles(gaps, n=100)[98] if len(gaps) > 1 else 0.0

    def per_op(value: float) -> float:
        return value / count

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    total = {
        key: sum(getattr(op, key) for op in traced)
        for key in ("visits", "archive_files", "archive_failures")
    }
    executor = {
        key: per_op(sum(op.executor.get(key, 0) for op in traced))
        for key in ("dispatched", "deadline_cancelled", "quarantined")
    }
    metrics = {
        "browser.self_s": per_op(layer_s["browser"]),
        "browser.share": share["browser"],
        "browser.visits": per_op(visits),
        "browser.events_per_visit": ratio(calls["detect.accept"], visits),
        "capture.encode_s": per_op(layer_s["capture"]),
        "capture.share": share["capture"],
        "capture.events": per_op(events),
        "capture.us_per_event": ratio(layer_s["capture"] * 1e6, events),
        "capture.body_bytes": per_op(counts.get("capture.body_bytes", 0)),
        "detect.s": per_op(layer_s["detect"]),
        "detect.share": share["detect"],
        "detect.local_requests": per_op(counts.get("detect.local_requests", 0)),
        "addresses.s": per_op(layer_s["addresses"]),
        "addresses.share": share["addresses"],
        "addresses.calls_per_visit": ratio(calls["addresses"], visits),
        "classify.s": per_op(layer_s["classify"]),
        "classify.share": share["classify"],
        "archive.write_s": per_op(self_s["archive.write"]),
        "archive.share": share["archive"],
        "archive.docs": per_op(calls["archive.write"]),
        "archive.files_per_visit": ratio(total["archive_files"], total["visits"]),
        "archive.write_failures": per_op(total["archive_failures"]),
        "archive.lookup_s": per_op(self_s["archive.lookup"]),
        "archive.lookups": per_op(calls["archive.lookup"]),
        "store.record_s": per_op(self_s["store.record"]),
        "store.commit_s": per_op(self_s["store.commit"] + self_s["store.close"]),
        "store.share": share["store"],
        "store.commits": per_op(calls["store.commit"]),
        "integrity.digest_s": per_op(layer_s["integrity"]),
        "integrity.share": share["integrity"],
        "parse.json_s": per_op(self_s["parse.json"]),
        "parse.binary_s": per_op(self_s["parse.binary"]),
        "parse.share": share["parse"],
        "parse.docs": per_op(calls["parse.json"] + calls["parse.binary"]),
        "parse.bytes": per_op(counts.get("parse.bytes", 0)),
        "crawler.self_s": per_op(layer_s["crawler"]),
        "crawler.share": share["crawler"],
        "crawler.visit_interval_p50_ms": statistics.median(gaps) if gaps else 0.0,
        "crawler.visit_interval_p99_ms": p99,
        "fsck.self_s": per_op(layer_s["fsck"]),
        "fsck.share": share["fsck"],
        "executor.busy_share": 1.0 - other,
        "executor.dispatched": executor["dispatched"],
        "executor.deadline_cancelled": executor["deadline_cancelled"],
        "executor.quarantined": executor["quarantined"],
        "other.share": other,
        "trace.overhead_share": fast_quartile(op.wall_s for op in traced)
        / fast_quartile(op.wall_s for op in untraced)
        - 1.0,
    }
    rows = {layer: (per_op(layer_s[layer]), share[layer]) for layer in LAYERS}
    rows["other"] = (per_op(other * budget), other)
    return metrics, rows


def render_table(name: str, rows: dict, traced, capacity: int, overhead: float) -> str:
    wall = sum(op.wall_s for op in traced)
    lines = [
        f"layer table: {name}, traced phase of {len(traced)} operation(s), "
        f"{wall:.3f} s wall, capacity {capacity} x wall",
        f"  {'layer':<11}{'self s/op':>11}{'share':>9}",
    ]
    for layer, (seconds, share) in rows.items():
        lines.append(f"  {layer:<11}{seconds:>11.4f}{share:>9.1%}")
    lines.append(
        f"  {'total':<11}{sum(s for s, _ in rows.values()):>11.4f}"
        f"{sum(share for _, share in rows.values()):>9.1%}"
    )
    lines.append(f"  trace.overhead_share {overhead:.4f}")
    return "\n".join(lines)


# -- one benchmark run -------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """Set up, measure, and check one workload; returns (result, table)."""
    import workloads as wl
    from layers import LayerTrace, surviving_wrappers

    reference = json.loads((HERE / "reference.json").read_text())
    workload = wl.WORKLOADS[workload_name]
    scale = reference["scale"]
    work = wl.fresh_dir(WORK / workload_name)
    checked: list = []

    if workload.fsck:
        setups = []
        for index in range(wl.FSCK_SETUPS):
            corpus = work / f"corpus-{index}"
            setups.append(wl.build_fsck_corpus(scale, seed, corpus, reference))
            if index:
                shutil.rmtree(work / f"corpus-{index - 1}")
        setup_s = statistics.median(seconds for seconds, _ in setups)
        checked.extend(operation for _, operation in setups)
        setup = setups[-1][1]

        def operation(index: int, layer_trace=None):
            with layer_trace if layer_trace is not None else nullcontext():
                wall, report = wl.fsck_once(corpus)
            return wl.check_fsck(wall, report, corpus, setup, reference)

    else:
        builds: list[float] = []

        def operation(index: int, layer_trace=None):
            # Set-up is sampled before every operation, so its median
            # spans the whole run rather than one moment of it.
            for _ in range(wl.BUILDS_PER_OPERATION):
                gc.collect()
                start = time.perf_counter()
                population = wl.build_population(scale, seed)
                builds.append(time.perf_counter() - start)
            directory = work / f"op-{index}"
            try:
                with layer_trace if layer_trace is not None else nullcontext():
                    crawl = wl.crawl_once(workload, population, directory)
                return wl.check_campaign(crawl, reference)
            finally:
                shutil.rmtree(directory, ignore_errors=True)

    # One untimed operation first: the file system and the allocator
    # reach the state a long crawl runs in before anything is timed.
    checked.append(operation(0))
    # A traced run splits its time: untraced (the overhead baseline),
    # then traced, so it costs no more than an untraced run.
    phase = seconds / 2 if trace else seconds
    reset_peak_rss()
    untraced = wl.timed_loop(phase, operation, first=1)
    peak = peak_rss_mb()
    checked.extend(untraced)
    table = ""
    if trace:
        layer_trace = LayerTrace()
        traced = wl.timed_loop(
            phase,
            lambda index: operation(index, layer_trace),
            first=1 + len(untraced),
        )
        checked.extend(traced)
        leftovers = surviving_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers survived the traced phase: {leftovers}")
        capacity = max(workload.workers, 1)
        values, rows = layer_metrics(layer_trace, traced, untraced, capacity)
        table = render_table(
            workload_name, rows, traced, capacity, values["trace.overhead_share"]
        )
        layer_trace.write(
            WORK / f"trace-{workload_name}.json",
            {**stamp(workload_name, seed, seconds), "operations": len(traced)},
        )
        units = PER_LAYER
    else:
        values = {
            "visits_per_s": statistics.median(op.visits for op in untraced)
            / wl.fast_quartile(op.wall_s for op in untraced),
            "setup_s": setup_s if workload.fsck else statistics.median(builds),
            "peak_rss_mb": peak,
            "archive_bytes_per_visit": statistics.median(
                op.archive_bytes / op.visits for op in untraced
            ),
            "store_bytes_per_visit": statistics.median(
                op.store_bytes / op.visits for op in untraced
            ),
        }
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in checked if op.problems]
    for op in failed:
        print("correctness: " + "; ".join(op.problems), file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return result, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result, table = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if table:
        print(table)
    print("stamp " + json.dumps(stamp(args.workload, args.seed, args.seconds)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
