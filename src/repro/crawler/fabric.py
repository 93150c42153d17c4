"""Crash-tolerant sharded multi-process crawl fabric.

The paper ran its 100K+-site crawls from a single orchestrator; the
ROADMAP's north star is million-domain campaigns, which makes the
harness itself the availability problem: a crawl that dies with one
worker process — or silently drops that worker's slice — skews every
measured table.  The fabric makes partial process failure a non-event:

* the coordinator partitions the toplist into domain **chunks** and runs
  N **shard** worker processes (:mod:`repro.crawler.shard`), each with
  its own WAL-mode telemetry store and NetLog archive directory;
* shards are supervised by **heartbeat liveness**: a crashed process
  (non-zero exit, SIGKILL) or a stalled one (no heartbeat inside the
  timeout) is killed and restarted — bounded per shard — and the new
  generation *resumes* from the dead one's committed rows;
* dispatch is pull-based with **work stealing**: an idle shard takes
  pending chunks from the most-loaded peer, so a restarted or slow shard
  sheds surplus work instead of dragging the campaign;
* a **merge** stage folds every shard store into one rollup store,
  deduplicating by (crawl, domain, OS) and *proving* convergence row by
  row: a duplicate's content digest must match what the rollup already
  holds, and every merged row's digest is recomputed on insert — so the
  rollup's campaign digest (and the findings' fingerprints) are
  byte-identical to a serial single-process run, even when shards were
  SIGKILLed mid-visit and resumed.

The merge is idempotent (re-running it converges), which also makes the
fabric itself resumable: ``run(resume=True)`` first folds any leftover
shard stores from an interrupted run into the rollup, then crawls only
what the rollup is still missing.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import queue
import shutil
import time
from dataclasses import dataclass, field

from .. import obs
from ..netlog.archive import NetLogArchive
from ..netlog.codec import codec_for_suffix
from ..storage.db import TelemetryStore
from ..faults.plan import FaultPlan
from .campaign import Campaign, CampaignResult
from .crawl import CrawlRecord
from .executor import CampaignInterrupted, drain_on_signals
from . import shard as shard_proto
from .shard import PopulationSpec, ShardConfig, run_shard

_LIVE_SHARDS = obs.gauge(
    "repro_fabric_live_shards",
    "shard worker processes currently believed alive",
)
_STEALS = obs.counter(
    "repro_fabric_steals_total",
    "chunks stolen by an idle shard from a loaded peer",
)
_RESTARTS = obs.counter(
    "repro_fabric_restarts_total",
    "shard worker restarts by cause",
    ("reason",),
)
_RESTART_SECONDS = obs.histogram(
    "repro_fabric_restart_seconds",
    "time to replace a dead or stalled shard process",
)
_MERGE_SECONDS = obs.histogram(
    "repro_fabric_merge_seconds",
    "time to fold one shard store into the campaign rollup",
)

#: A spawned process must report ready within this budget.
_SPAWN_TIMEOUT_S = 60.0
#: Coordinator sleep between supervision passes that made no progress.
_POLL_INTERVAL_S = 0.02
#: How long to wait for drained shards to exit before killing them.
_DRAIN_TIMEOUT_S = 30.0


class FabricError(RuntimeError):
    """The fabric cannot make progress (e.g. every shard is dead)."""


class MergeDivergenceError(FabricError):
    """Two stores hold different content for the same visit.

    This is the invariant the whole design rests on — visits are
    deterministic functions of the population, so duplicated work from
    crash/steal overlap must be byte-identical.  Divergence means a bug
    (or at-rest corruption), never something to paper over.
    """


def resolve_shards(shards: int) -> int:
    """Resolve the CLI's 0-sentinel: auto-size from the CPU count."""
    if shards < 0:
        raise ValueError("shards must be >= 0 (0 = auto from os.cpu_count())")
    return shards if shards > 0 else (os.cpu_count() or 1)


@dataclass(frozen=True, slots=True)
class FabricConfig:
    """Coordinator tuning knobs (defaults suit tests and laptop runs)."""

    shards: int
    #: Domains per chunk; 0 auto-sizes to ~4 chunks per shard so there
    #: is always surplus to steal.
    chunk_size: int = 0
    retries: int = 1
    check_connectivity: bool = False
    checkpoint_every: int = 1
    #: No heartbeat for this long (while a chunk is in flight) = stalled.
    heartbeat_timeout_s: float = 10.0
    #: Restart budget per shard; exhausted = the shard is abandoned and
    #: its work is reassigned to surviving peers.
    max_restarts: int = 2
    #: Archive document encoding ("json"/"binary"; None = codec default).
    netlog_format: str | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1 once resolved")
        if self.chunk_size < 0:
            raise ValueError("chunk_size must be >= 0 (0 = auto)")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass(frozen=True, slots=True)
class _Chunk:
    chunk_id: int
    domains: tuple[str, ...]


@dataclass(slots=True)
class _ShardHandle:
    """Coordinator-side view of one shard worker."""

    shard_id: int
    store_path: str
    archive_dir: str | None
    process: multiprocessing.process.BaseProcess | None = None
    tasks: object = None
    events: object = None
    generation: int = 0
    pending: collections.deque = field(default_factory=collections.deque)
    inflight: _Chunk | None = None
    ready: bool = False
    drained: bool = False
    dead: bool = False
    restarts: int = 0
    visits: int = 0
    last_seen: float = 0.0
    spawned_at: float = 0.0
    last_error: str = ""


@dataclass(slots=True)
class FabricReport:
    """What the fabric did to finish the campaign (for benches/tests)."""

    shards: int
    chunks: int = 0
    steals: int = 0
    restarts: dict[int, list[str]] = field(default_factory=dict)
    dead_shards: list[int] = field(default_factory=list)
    rows_merged: int = 0
    #: Rows a second store also held — crash/steal overlap, proven
    #: content-identical during the merge.
    duplicate_rows: int = 0
    dead_letters_merged: int = 0
    archive_docs_merged: int = 0
    merge_seconds: float = 0.0
    visits: int = 0
    interrupted: bool = False

    @property
    def total_restarts(self) -> int:
        return sum(len(reasons) for reasons in self.restarts.values())


@dataclass(slots=True)
class FabricResult:
    result: CampaignResult
    report: FabricReport


class CrawlFabric:
    """Coordinator: shard the population, supervise, merge, prove.

    ``workdir`` holds the per-shard stores (``shard-NN.db``), per-shard
    NetLog archive directories, and (by default) the rollup store; it is
    the unit of fabric resume — keep it to resume an interrupted run,
    delete it to start over.
    """

    def __init__(
        self,
        spec: PopulationSpec,
        config: FabricConfig,
        *,
        workdir: str,
        rollup_path: str | None = None,
        archive_root: str | None = None,
        fault_plan: FaultPlan | None = None,
        on_visit=None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.workdir = workdir
        self.rollup_path = rollup_path or os.path.join(workdir, "rollup.db")
        self.archive_root = archive_root
        self.fault_plan = fault_plan
        #: Coarse live-progress hook: called with the per-shard visit
        #: total whenever a heartbeat or chunk completion arrives.
        self.on_visit = on_visit
        self.report = FabricReport(shards=config.shards)
        os.makedirs(workdir, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def _store_path(self, shard_id: int) -> str:
        return os.path.join(self.workdir, f"shard-{shard_id:02d}.db")

    def _archive_dir(self, shard_id: int) -> str | None:
        if self.archive_root is None:
            return None
        return os.path.join(self.workdir, f"netlog-{shard_id:02d}")

    def _shard_store_paths(self) -> list[str]:
        return sorted(
            os.path.join(self.workdir, name)
            for name in os.listdir(self.workdir)
            if name.startswith("shard-") and name.endswith(".db")
        )

    # -- the run -----------------------------------------------------------

    def run(self, *, resume: bool = False) -> FabricResult:
        population = self.spec.build()
        crawl = population.name

        if resume:
            # Fold whatever an interrupted run left behind first, so the
            # remaining-work computation sees every committed row.
            self._merge_all(crawl)

        remaining = self._remaining_domains(population, resume=resume)
        chunks = self._partition(remaining)
        self.report.chunks = len(chunks)

        interrupted = False
        if chunks:
            interrupted = self._supervise(chunks)
        self._merge_all(crawl)
        if interrupted:
            self.report.interrupted = True
            raise CampaignInterrupted(
                "sharded campaign drained on signal; shard stores merged — "
                "rerun with resume to finish"
            )
        result = self._assemble(population)
        return FabricResult(result=result, report=self.report)

    # -- planning ----------------------------------------------------------

    def _remaining_domains(
        self, population, *, resume: bool
    ) -> list[str]:
        if not resume or not os.path.exists(self.rollup_path):
            return [w.domain for w in population.websites]
        with TelemetryStore(self.rollup_path, wal=True) as rollup:
            done: set[str] | None = None
            for os_name in population.oses:
                completed = rollup.completed_domains(population.name, os_name)
                done = completed if done is None else (done & completed)
        done = done or set()
        # Domains recorded for only *some* OSes are re-crawled whole: the
        # duplicate rows are content-identical and the merge dedupes them.
        return [w.domain for w in population.websites if w.domain not in done]

    def _partition(self, domains: list[str]) -> list[_Chunk]:
        if not domains:
            return []
        size = self.config.chunk_size
        if size <= 0:
            size = max(1, -(-len(domains) // (self.config.shards * 4)))
        return [
            _Chunk(chunk_id=index, domains=tuple(domains[start:start + size]))
            for index, start in enumerate(range(0, len(domains), size))
        ]

    # -- supervision loop --------------------------------------------------

    def _supervise(self, chunks: list[_Chunk]) -> bool:
        """Run the worker fleet until every chunk completes.

        Returns True if a signal interrupted the run (after draining the
        children), False on normal completion.
        """
        ctx = multiprocessing.get_context("spawn")
        self._ctx = ctx
        self._stop = ctx.Event()
        shards: dict[int, _ShardHandle] = {
            shard_id: _ShardHandle(
                shard_id=shard_id,
                store_path=self._store_path(shard_id),
                archive_dir=self._archive_dir(shard_id),
            )
            for shard_id in range(self.config.shards)
        }
        # Home assignment stripes chunks round-robin across shards;
        # stealing rebalances from there.
        for index, chunk in enumerate(chunks):
            shards[index % self.config.shards].pending.append(chunk)

        completed: set[int] = set()
        interrupted = False
        self._handles = list(shards.values())
        try:
            # A signal drains every shard through the shared stop event;
            # children flush their stores before exiting, and the
            # coordinator checkpoints by merging what they committed.
            with drain_on_signals(self._stop.set):
                for handle in shards.values():
                    self._spawn(handle)
                while len(completed) < len(chunks):
                    if self._stop.is_set():
                        interrupted = True
                        break
                    progressed = self._pump_events(shards, completed)
                    self._check_liveness(shards)
                    if not any(
                        not handle.dead for handle in shards.values()
                    ):
                        raise FabricError(
                            "every shard exhausted its restart budget; "
                            f"last error: {self._last_error(shards)!r}"
                        )
                    if not progressed:
                        time.sleep(_POLL_INTERVAL_S)
                self._drain(shards, interrupted=interrupted)
        finally:
            for handle in shards.values():
                self._reap(handle)
            _LIVE_SHARDS.set(0)
        return interrupted

    def _spawn(self, handle: _ShardHandle) -> None:
        config = ShardConfig(
            shard_id=handle.shard_id,
            generation=handle.generation,
            spec=self.spec,
            store_path=handle.store_path,
            archive_dir=handle.archive_dir,
            fault_plan=self.fault_plan,
            retries=self.config.retries,
            check_connectivity=self.config.check_connectivity,
            checkpoint_every=self.config.checkpoint_every,
            netlog_format=self.config.netlog_format,
        )
        handle.tasks = self._ctx.Queue()
        handle.events = self._ctx.Queue()
        # Daemon workers: if the coordinator dies anyway, the runtime
        # reaps them instead of leaving orphans holding the stores.
        process = self._ctx.Process(
            target=run_shard,
            args=(config, handle.tasks, handle.events, self._stop),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.ready = False
        handle.drained = False
        handle.spawned_at = time.monotonic()
        handle.last_seen = handle.spawned_at
        self._update_live_gauge()

    def _update_live_gauge(self) -> None:
        # The gauge reflects processes with a live OS pid.
        live = 0
        for handle in getattr(self, "_handles", ()):
            if handle.process is not None and handle.process.is_alive():
                live += 1
        _LIVE_SHARDS.set(live)

    def _pump_events(
        self, shards: dict[int, _ShardHandle], completed: set[int]
    ) -> bool:
        progressed = False
        now = time.monotonic()
        for handle in shards.values():
            if handle.events is None or handle.dead:
                continue
            while True:
                try:
                    event = handle.events.get_nowait()
                except queue.Empty:
                    break
                except (EOFError, OSError):
                    break  # channel torn by a killed producer
                progressed = True
                kind = event[0]
                if event[2] != handle.generation:
                    continue  # stale: a previous incarnation's tail
                handle.last_seen = now
                if kind == shard_proto.EVENT_READY:
                    handle.ready = True
                    self._dispatch(handle, shards)
                elif kind == shard_proto.EVENT_HEARTBEAT:
                    handle.visits = event[3]
                    self._report_progress(shards)
                elif kind == shard_proto.EVENT_CHUNK_DONE:
                    _, _, _, chunk_id, visits = event
                    handle.visits = visits
                    if (
                        handle.inflight is not None
                        and handle.inflight.chunk_id == chunk_id
                    ):
                        handle.inflight = None
                    completed.add(chunk_id)
                    self._report_progress(shards)
                    self._dispatch(handle, shards)
                elif kind == shard_proto.EVENT_DRAINED:
                    handle.drained = True
                    handle.visits = event[3]
                elif kind == shard_proto.EVENT_ERROR:
                    handle.last_error = event[3]
        self._update_live_gauge()
        return progressed

    def _report_progress(self, shards: dict[int, _ShardHandle]) -> None:
        if self.on_visit is not None:
            self.on_visit(sum(h.visits for h in shards.values()))

    def _dispatch(
        self, handle: _ShardHandle, shards: dict[int, _ShardHandle]
    ) -> None:
        if handle.dead or not handle.ready or handle.tasks is None:
            return
        if handle.inflight is not None:
            # A restarted generation re-runs its in-flight chunk; resume
            # skips whatever the dead generation already committed.
            self._send_chunk(handle, handle.inflight)
            return
        if handle.pending:
            chunk = handle.pending.popleft()
        else:
            victim = max(
                (
                    peer
                    for peer in shards.values()
                    if peer is not handle and not peer.dead and peer.pending
                ),
                key=lambda peer: len(peer.pending),
                default=None,
            )
            if victim is None:
                return  # nothing to do: stay idle until drain
            # Steal from the tail: the victim's furthest-future work.
            chunk = victim.pending.pop()
            self.report.steals += 1
            _STEALS.inc()
        handle.inflight = chunk
        self._send_chunk(handle, chunk)

    def _send_chunk(self, handle: _ShardHandle, chunk: _Chunk) -> None:
        handle.tasks.put(
            (shard_proto.TASK_CHUNK, chunk.chunk_id, chunk.domains)
        )

    def _check_liveness(self, shards: dict[int, _ShardHandle]) -> None:
        now = time.monotonic()
        for handle in shards.values():
            if handle.dead or handle.process is None:
                continue
            exitcode = handle.process.exitcode
            if exitcode is not None and not handle.drained:
                self._restart(handle, shards, reason="crash")
                continue
            if not handle.ready:
                if now - handle.spawned_at > _SPAWN_TIMEOUT_S:
                    self._restart(handle, shards, reason="spawn-timeout")
                continue
            if (
                handle.inflight is not None
                and now - handle.last_seen > self.config.heartbeat_timeout_s
            ):
                self._restart(handle, shards, reason="stall")

    def _restart(
        self,
        handle: _ShardHandle,
        shards: dict[int, _ShardHandle],
        *,
        reason: str,
    ) -> None:
        started = time.monotonic()
        self.report.restarts.setdefault(handle.shard_id, []).append(reason)
        _RESTARTS.inc(labels=(reason,))
        self._reap(handle)
        if handle.restarts >= self.config.max_restarts:
            # Budget exhausted: abandon the shard, reassign its work.
            # Its committed rows still reach the rollup at merge time.
            handle.dead = True
            self.report.dead_shards.append(handle.shard_id)
            orphans = list(handle.pending)
            if handle.inflight is not None:
                orphans.insert(0, handle.inflight)
                handle.inflight = None
            handle.pending.clear()
            survivors = [h for h in shards.values() if not h.dead]
            for index, chunk in enumerate(orphans):
                if survivors:
                    survivors[index % len(survivors)].pending.append(chunk)
            for survivor in survivors:
                self._dispatch(survivor, shards)
            return
        handle.restarts += 1
        handle.generation += 1
        self._spawn(handle)
        _RESTART_SECONDS.observe(time.monotonic() - started)

    def _reap(self, handle: _ShardHandle) -> None:
        """Kill the process (if needed) and tear down its queues."""
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
        for channel in (handle.tasks, handle.events):
            if channel is None:
                continue
            try:
                channel.close()
                channel.cancel_join_thread()
            except (OSError, AttributeError):
                pass
        handle.tasks = None
        handle.events = None

    def _drain(
        self, shards: dict[int, _ShardHandle], *, interrupted: bool
    ) -> None:
        """Ask every live shard to flush and exit; wait, then reap."""
        if interrupted:
            self._stop.set()
        for handle in shards.values():
            if handle.dead or handle.process is None or handle.tasks is None:
                continue
            try:
                handle.tasks.put((shard_proto.TASK_DRAIN,))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        waiting = [
            h for h in shards.values()
            if not h.dead and h.process is not None
        ]
        while waiting and time.monotonic() < deadline:
            self._pump_events(shards, set())
            waiting = [
                h for h in waiting
                if h.process.exitcode is None and not h.drained
            ]
            if waiting:
                time.sleep(_POLL_INTERVAL_S)
        for handle in shards.values():
            self._reap(handle)
        self.report.visits = sum(h.visits for h in shards.values())

    def _last_error(self, shards: dict[int, _ShardHandle]) -> str:
        for handle in shards.values():
            if handle.last_error:
                return handle.last_error
        return ""

    # -- merge -------------------------------------------------------------

    def _merge_all(self, crawl: str) -> None:
        """Fold every shard store (and archive) into the rollup.

        Idempotent: already-merged rows are verified (digest equality)
        and skipped, so a merge interrupted at any point — even killed
        mid-fold — converges when re-run.
        """
        started = time.monotonic()
        with TelemetryStore(self.rollup_path, wal=True) as rollup:
            for path in self._shard_store_paths():
                fold_started = time.monotonic()
                with TelemetryStore(path, wal=True) as source:
                    self._merge_store(source, rollup, crawl)
                _MERGE_SECONDS.observe(time.monotonic() - fold_started)
            rollup.commit()
        if self.archive_root is not None:
            self._merge_archives(crawl)
        self.report.merge_seconds += time.monotonic() - started

    def _merge_store(
        self, source: TelemetryStore, rollup: TelemetryStore, crawl: str
    ) -> None:
        rows = source.visits(crawl)
        if not rows:
            return
        held = {
            (row.domain, row.os_name): row.digest for row in rollup.visits(crawl)
        }
        detections = {
            os_name: source.detections_for(crawl, os_name)
            for os_name in {row.os_name for row in rows}
        }
        for row in rows:
            key = (row.domain, row.os_name)
            if key in held:
                if held[key] != row.digest:
                    raise MergeDivergenceError(
                        f"visit {crawl}:{row.domain}:{row.os_name} differs "
                        f"between shard store and rollup "
                        f"({row.digest!s:.12}… vs {held[key]!s:.12}…)"
                    )
                self.report.duplicate_rows += 1
                continue
            record = CrawlRecord.from_row(
                row, detections[row.os_name].get(row.domain)
            )
            visit_id = record.record_into(
                rollup, crawl, row.os_name, row.webrtc_policy
            )
            written = rollup.connection.execute(
                "SELECT digest FROM visits WHERE visit_id = ?", (visit_id,)
            ).fetchone()[0]
            if written != row.digest:
                # The rollup recomputed the digest from the merged facts;
                # disagreement means the shard row was damaged in flight.
                raise MergeDivergenceError(
                    f"visit {crawl}:{row.domain}:{row.os_name} failed "
                    f"digest re-verification on merge "
                    f"({row.digest!s:.12}… vs {written!s:.12}…)"
                )
            held[key] = row.digest
            self.report.rows_merged += 1
        for letter in source.dead_letters(crawl):
            rollup.record_dead_letter(
                letter.crawl,
                letter.domain,
                letter.os_name,
                error=letter.error,
                failures=letter.failures,
                reason=letter.reason,
            )
            self.report.dead_letters_merged += 1

    def _merge_archives(self, crawl: str) -> None:
        assert self.archive_root is not None
        destination = NetLogArchive(self.archive_root)
        for shard_id in range(self.config.shards):
            shard_dir = self._archive_dir(shard_id)
            if shard_dir is None or not os.path.isdir(shard_dir):
                continue
            source = NetLogArchive(shard_dir)
            for path in source.entries(crawl):
                os_name, domain_file = path.parts[-2], path.parts[-1]
                codec = codec_for_suffix(path.suffix)
                if codec is None:  # pragma: no cover - entries() filters
                    continue
                target = destination.path_for(
                    crawl,
                    os_name,
                    domain_file[: -len(codec.suffix)],
                    format=codec.name,
                )
                if target.exists():
                    continue  # checksummed duplicates are identical
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target)
                self.report.archive_docs_merged += 1

    # -- result assembly ---------------------------------------------------

    def _assemble(self, population) -> CampaignResult:
        """Rebuild the exact serial CampaignResult from the rollup.

        A resumed campaign over a store that already holds every visit
        crawls nothing: it restores stats and findings from the rows,
        classifies, and sorts — the identical code path a single-process
        run finishes with, which is why the output is byte-identical.
        (If a row is somehow missing it is crawled here, serially —
        self-healing, and still deterministic.)
        """
        with TelemetryStore(self.rollup_path, wal=True) as rollup:
            campaign = Campaign(store=rollup)
            result = campaign.run(population, resume=True)
        return result
