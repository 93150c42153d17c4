"""The four workloads: what each runs, measures, and checks.

Every workload crawls (or audits a crawl of) the ``top2020`` population
on its three OSes with the NetLog archive and the SQLite store on — the
paper's configuration — wired the way ``repro study`` wires them.  The
workload seed permutes the crawl order; it changes source ids, archive
bytes and row order, but by the library's order/format/worker invariance
contract never the findings or the campaign digest, so one committed
reference (``reference.json``) checks every seed.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.crawler.campaign import Campaign
from repro.crawler.executor import ExecutorConfig
from repro.crawler.retry import RetryPolicy
from repro.netlog.archive import NetLogArchive
from repro.netlog.convert import to_json
from repro.storage import integrity
from repro.storage.db import TelemetryStore
from repro.web.population import CrawlPopulation, build_top_population

#: ``repro study`` commits every 100 visits (serial checkpoint cadence,
#: or the serialized store's batch size under ``--workers``).
CHECKPOINT_EVERY = 100
#: Set-up repetitions: population builds before each campaign, and
#: corpus builds per fsck-mixed run; ``setup_s`` is their median.
BUILDS_PER_OPERATION = 3
FSCK_SETUPS = 3
DB_NAME = "crawl.db"
ARCHIVE_NAME = "netlogs"


@dataclass(frozen=True)
class Workload:
    name: str
    netlog_format: str
    #: 0 = the plain serial loop; N = SupervisedExecutor with N threads.
    workers: int = 0
    fsck: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("campaign-binary", "binary"),
        Workload("campaign-json", "json"),
        Workload("campaign-workers2", "binary", workers=2),
        Workload("fsck-mixed", "binary", fsck=True),
    )
}


@dataclass
class Operation:
    """One timed campaign or fsck pass and its correctness verdict."""

    wall_s: float
    visits: int
    archive_bytes: int
    archive_files: int
    store_bytes: int
    problems: list[str] = field(default_factory=list)
    #: perf_counter stamps of the campaign's on_visit callbacks.
    visit_stamps: list[float] = field(default_factory=list)
    archive_failures: int = 0
    executor: dict[str, int] = field(default_factory=dict)


def build_population(scale: float, seed: int) -> CrawlPopulation:
    """The ``top2020`` population at ``scale``, in a seeded crawl order."""
    population = build_top_population(2020, scale=scale)
    websites = list(population.websites)
    random.Random(seed).shuffle(websites)
    return dataclasses.replace(population, websites=websites)


def tree_size(root: Path) -> tuple[int, int]:
    """(logical bytes, file count) of every file under ``root``."""
    total = files = 0
    for directory, _, names in os.walk(root):
        for name in names:
            total += os.stat(os.path.join(directory, name)).st_size
            files += 1
    return total, files


def store_size(path: Path) -> int:
    """SQLite bytes on disk, counting a ``-wal`` file if one is left."""
    wal = Path(str(path) + "-wal")
    return path.stat().st_size + (wal.stat().st_size if wal.exists() else 0)


def stored_digest(path: Path, crawl: str) -> str:
    with TelemetryStore(str(path)) as store:
        return integrity.campaign_digest(store, crawl)


@dataclass
class CampaignRun:
    """What one timed campaign left behind, before it is checked."""

    wall_s: float
    directory: Path
    crawl: str
    campaign: Campaign
    findings: int
    visits: int
    visit_stamps: list[float]


def crawl_once(
    workload: Workload, population: CrawlPopulation, directory: Path
) -> CampaignRun:
    """Crawl once into a fresh store and archive under ``directory``.

    Timed from opening the store to closing it, as ``repro study --db
    --netlog-dir`` spends it.
    """
    directory.mkdir(parents=True)
    supervised = workload.workers > 0
    stamps: list[float] = []
    perf = time.perf_counter
    start = perf()
    store = TelemetryStore(
        str(directory / DB_NAME),
        serialized=supervised,
        commit_every=CHECKPOINT_EVERY if supervised else 0,
    )
    try:
        campaign = Campaign(
            store=store,
            retry_policy=RetryPolicy(max_attempts=1),
            checkpoint_every=0 if supervised else CHECKPOINT_EVERY,
            executor=ExecutorConfig(workers=workload.workers) if supervised else None,
            netlog_archive=NetLogArchive(directory / ARCHIVE_NAME),
            netlog_format=workload.netlog_format,
            on_visit=lambda record: stamps.append(perf()),
        )
        result = campaign.run(population)
        store.commit()
    finally:
        store.close()
    return CampaignRun(
        wall_s=perf() - start,
        directory=directory,
        crawl=population.name,
        campaign=campaign,
        findings=len(result.findings),
        visits=sum(s.total + s.skipped for s in result.stats.values()),
        visit_stamps=stamps,
    )


def check_campaign(run: CampaignRun, reference: dict) -> Operation:
    """Measure a finished campaign's output and gate it on the reference."""
    db_path = run.directory / DB_NAME
    archive_bytes, archive_files = tree_size(run.directory / ARCHIVE_NAME)
    campaign = run.campaign
    executor = {}
    if campaign.last_executor is not None:
        stats = campaign.last_executor.stats
        executor = {
            "dispatched": stats.dispatched,
            "deadline_cancelled": stats.deadline_cancelled,
            "quarantined": stats.quarantined,
        }
    operation = Operation(
        wall_s=run.wall_s,
        visits=run.visits,
        archive_bytes=archive_bytes,
        archive_files=archive_files,
        store_bytes=store_size(db_path),
        visit_stamps=run.visit_stamps,
        archive_failures=campaign.archive_failures,
        executor=executor,
    )
    problems = operation.problems
    if run.visits != reference["visits"]:
        problems.append(f"{run.visits} visits, expected {reference['visits']}")
    if run.findings != reference["findings"]:
        problems.append(f"{run.findings} findings, expected {reference['findings']}")
    digest = stored_digest(db_path, run.crawl)
    if digest != reference["campaign_digest"]:
        problems.append(f"campaign digest {digest[:16]}… differs from the reference")
    if campaign.archive_failures:
        problems.append(f"{campaign.archive_failures} archive write failures")
    for counter in ("deadline_cancelled", "quarantined"):
        if executor.get(counter):
            problems.append(f"executor {counter} = {executor[counter]}")
    return operation


def transcode_every_other(archive_root: Path) -> int:
    """Rewrite every other document (sorted order, from the first) as JSON."""
    converted = 0
    for index, path in enumerate(sorted(NetLogArchive(archive_root).entries())):
        if index % 2:
            continue
        path.with_suffix(".json").write_text(
            to_json(path.read_bytes()), encoding="utf-8"
        )
        path.unlink()
        converted += 1
    return converted


def build_fsck_corpus(
    scale: float, seed: int, directory: Path, reference: dict
) -> tuple[float, Operation]:
    """fsck-mixed set-up: build the population, crawl, transcode half.

    Returns the set-up seconds and the checked set-up campaign.
    """
    start = time.perf_counter()
    population = build_population(scale, seed)
    run = crawl_once(WORKLOADS["campaign-binary"], population, directory)
    transcode_every_other(directory / ARCHIVE_NAME)
    seconds = time.perf_counter() - start
    return seconds, check_campaign(run, reference)


def fsck_once(directory: Path) -> tuple[float, integrity.FsckReport]:
    """One read-only audit of the corpus, as ``repro fsck`` runs it."""
    start = time.perf_counter()
    with TelemetryStore(str(directory / DB_NAME)) as store:
        report = integrity.fsck(store, NetLogArchive(directory / ARCHIVE_NAME))
    return time.perf_counter() - start, report


def check_fsck(
    wall_s: float, report: integrity.FsckReport, directory: Path,
    setup: Operation, reference: dict,
) -> Operation:
    """Gate one audit: clean, complete, and the set-up campaign's digest."""
    operation = Operation(
        wall_s=wall_s,
        visits=report.scanned_visits,
        archive_bytes=setup.archive_bytes,
        archive_files=setup.archive_files,
        store_bytes=store_size(directory / DB_NAME),
    )
    problems = operation.problems
    if not report.clean:
        problems.append(f"fsck reported {len(report.findings)} finding(s)")
    if report.scanned_visits != reference["visits"]:
        problems.append(f"fsck scanned {report.scanned_visits} visits")
    if report.scanned_archives != setup.archive_files:
        problems.append(
            f"fsck scanned {report.scanned_archives} documents, "
            f"the archive holds {setup.archive_files}"
        )
    if report.campaign_digests != {reference["crawl"]: reference["campaign_digest"]}:
        problems.append("fsck campaign digest differs from the set-up digest")
    return operation


def timed_loop(seconds: float, operation, first: int = 0) -> list[Operation]:
    """Run ``operation(i)`` until ``seconds`` have passed (at least once).

    A full collection before each operation starts every one from the
    same heap state, so a collection the previous one left pending is
    not charged to the next.
    """
    done: list[Operation] = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        gc.collect()
        done.append(operation(first + len(done)))
    return done


def fast_quartile(walls) -> float:
    """Lower quartile of operation wall times.

    On a shared host the CPU alternates between a fast and a slow regime
    (the same fsck pass measured 1.3 s and 2.3 s, in stretches of 10-20 s),
    so a run's median lands in whichever regime held most of the run; the
    lower quartile needs only a quarter of the operations in the fast one.
    """
    walls = list(walls)
    if len(walls) < 2:
        return walls[0]
    return statistics.quantiles(walls, n=4)[0]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
