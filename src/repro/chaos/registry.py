"""Seam registry: every fault kind mapped to its injection seam.

A *seam* is the point where a `FaultKind` enters the pipeline: the
`FaultInjector` hook that fires it, the pipeline layer that calls the hook,
the conformance driver that can exercise it end to end, and the chaos
tests/benches that already cover it.  The registry is the engine's source
of truth for coverage accounting, and `registry_problems()` turns it into a
drift lint: adding a new `FaultKind` or a new `*_hook` on the injector
without registering a seam fails the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind

#: Hooks that exist on `FaultInjector` but do not themselves fire a fault —
#: they are plumbing shared by every seam.
_UTILITY_HOOKS = frozenset({"write_fault_hook"})


class SeamDriftError(RuntimeError):
    """The seam registry no longer matches the fault-injection surface."""


@dataclass(frozen=True, slots=True)
class Seam:
    """One registered fault seam."""

    kind: FaultKind
    #: `FaultInjector` attribute that fires this kind.
    hook: str
    #: Pipeline layer that calls the hook, dotted-module style.
    layer: str
    #: Conformance driver able to exercise the seam end to end
    #: ("campaign" | "supervised" | "fabric" | "serve").
    driver: str
    #: What `repro fsck` must say after a faulted run: "clean" (the fault is
    #: masked upstream) or "detects" (persisted damage fsck must find and
    #: repair).
    fsck: str = "clean"
    #: Repo-relative chaos tests/benches that exercise the seam today.
    exercised_by: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.driver not in ("campaign", "supervised", "fabric", "serve"):
            raise ValueError(f"unknown driver {self.driver!r} for seam {self.kind.value}")
        if self.fsck not in ("clean", "detects"):
            raise ValueError(f"unknown fsck expectation {self.fsck!r} for seam {self.kind.value}")


SEAM_REGISTRY: dict[FaultKind, Seam] = {
    seam.kind: seam
    for seam in (
        Seam(
            FaultKind.DNS,
            hook="dns_hook",
            layer="browser.dns",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/faults/test_injector.py",
                "tests/crawler/test_campaign_resilience.py",
            ),
            description="resolution returns ERR_NAME_NOT_RESOLVED for selected hosts",
        ),
        Seam(
            FaultKind.CONNECTION_RESET,
            hook="connect_hook",
            layer="browser.chrome",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/faults/test_injector.py",
            ),
            description="TCP connect aborts with ERR_CONNECTION_RESET",
        ),
        Seam(
            FaultKind.TLS,
            hook="connect_hook",
            layer="browser.chrome",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/faults/test_injector.py",
            ),
            description="TLS handshake fails on port 443",
        ),
        Seam(
            FaultKind.OUTAGE,
            hook="connectivity_hook",
            layer="crawler.crawl",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/crawler/test_retry.py",
            ),
            description="whole-network outage window gated by the connectivity check",
        ),
        Seam(
            FaultKind.NETLOG_TRUNCATION,
            hook="corrupt_netlog",
            layer="netlog.archive",
            driver="campaign",
            fsck="detects",
            exercised_by=("tests/faults/test_injector.py",),
            description="archived NetLog document truncated mid-record",
        ),
        Seam(
            FaultKind.TORN_WRITE,
            hook="corrupt_netlog",
            layer="netlog.archive",
            driver="campaign",
            fsck="detects",
            exercised_by=(
                "benchmarks/test_ablation_integrity.py",
                "tests/faults/test_injector.py",
            ),
            description="a window of archived bytes replaced with NULs",
        ),
        Seam(
            FaultKind.BIT_FLIP,
            hook="corrupt_netlog",
            layer="netlog.archive",
            driver="campaign",
            fsck="detects",
            exercised_by=(
                "benchmarks/test_ablation_integrity.py",
                "tests/faults/test_injector.py",
            ),
            description="single archived byte flipped, breaking the CRC chain",
        ),
        Seam(
            FaultKind.DISK_FULL,
            hook="archive_write_hook",
            layer="netlog.archive",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_integrity.py",
                "tests/faults/test_injector.py",
            ),
            description="archive writes raise ENOSPC until retried",
        ),
        Seam(
            FaultKind.STORAGE_WRITE,
            hook="storage_hook",
            layer="storage.telemetry",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/crawler/test_campaign_resilience.py",
            ),
            description="telemetry-store writes fail transiently",
        ),
        Seam(
            FaultKind.CRASH,
            hook="on_visit",
            layer="crawler.campaign",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/crawler/test_campaign_resilience.py",
            ),
            description="hard process crash after N visits; run resumes from checkpoint",
        ),
        Seam(
            FaultKind.HANG,
            hook="hang_hook",
            layer="crawler.executor",
            driver="supervised",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/crawler/test_executor.py",
                "tests/faults/test_injector.py",
            ),
            description="visit wedges until its wall deadline cancels it",
        ),
        Seam(
            FaultKind.SLOW,
            hook="slow_hook",
            layer="crawler.executor",
            driver="supervised",
            exercised_by=(
                "benchmarks/test_ablation_fault_tolerance.py",
                "tests/crawler/test_executor.py",
                "tests/faults/test_injector.py",
            ),
            description="visit stalls on the simulated clock, eating deadline budget",
        ),
        Seam(
            FaultKind.SHARD_CRASH,
            hook="shard_crash_hook",
            layer="crawler.fabric",
            driver="fabric",
            exercised_by=(
                "benchmarks/test_ablation_sharding.py",
                "tests/crawler/test_fabric.py",
            ),
            description="shard process SIGKILLed mid-visit; coordinator restarts it",
        ),
        Seam(
            FaultKind.SHARD_STALL,
            hook="shard_stall_hook",
            layer="crawler.fabric",
            driver="fabric",
            exercised_by=("tests/crawler/test_fabric.py",),
            description="shard stops heartbeating; coordinator detects and restarts",
        ),
        Seam(
            FaultKind.SLOW_CLIENT,
            hook="slow_client_hook",
            layer="serve.http",
            driver="serve",
            exercised_by=(
                "benchmarks/test_ablation_serve.py",
                "tests/serve/test_http.py",
            ),
            description="client trickles its upload, exercising read timeouts",
        ),
        Seam(
            FaultKind.TORN_UPLOAD,
            hook="torn_upload_hook",
            layer="serve.http",
            driver="serve",
            exercised_by=(
                "benchmarks/test_ablation_serve.py",
                "tests/serve/test_http.py",
            ),
            description="upload body truncated in flight; client must resubmit",
        ),
        Seam(
            FaultKind.WORKER_CRASH,
            hook="worker_crash_hook",
            layer="serve.engine",
            driver="serve",
            exercised_by=(
                "benchmarks/test_ablation_serve.py",
                "tests/serve/test_engine.py",
            ),
            description="analysis worker dies mid-job; engine retries from spool",
        ),
        Seam(
            FaultKind.STUN_TIMEOUT,
            hook="stun_hook",
            layer="browser.webrtc",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_webrtc.py",
                "tests/webrtc/test_faults.py",
            ),
            description="STUN binding check to an explicit peer times out; the request was already on the wire, so leak counts hold",
        ),
        Seam(
            FaultKind.MDNS_RESOLVE_FAIL,
            hook="mdns_hook",
            layer="browser.webrtc",
            driver="campaign",
            exercised_by=(
                "benchmarks/test_ablation_webrtc.py",
                "tests/webrtc/test_faults.py",
            ),
            description="mDNS candidate registration fails; the (non-leaking) candidate is withheld, never the raw address",
        ),
        Seam(
            FaultKind.JOURNAL_DISK_FULL,
            hook="journal_write_hook",
            layer="storage.jobs",
            driver="serve",
            exercised_by=(
                "benchmarks/test_ablation_serve.py",
                "tests/serve/test_engine.py",
            ),
            description="job-journal writes dropped; engine absorbs the desync",
        ),
    )
}


def seam_for(kind: FaultKind) -> Seam:
    try:
        return SEAM_REGISTRY[kind]
    except KeyError:
        raise SeamDriftError(
            f"fault kind '{kind.value}' has no registered seam; add it to "
            "repro.chaos.registry.SEAM_REGISTRY"
        ) from None


def injector_hooks() -> tuple[str, ...]:
    """Every `*_hook` method on `FaultInjector`, sorted."""
    return tuple(
        sorted(
            name
            for name in dir(FaultInjector)
            if name.endswith("_hook") and callable(getattr(FaultInjector, name))
        )
    )


def registry_problems() -> list[str]:
    """Drift between the registry and the fault surface, one line each."""
    problems: list[str] = []
    for kind in FaultKind:
        seam = SEAM_REGISTRY.get(kind)
        if seam is None:
            problems.append(f"fault kind '{kind.value}' has no registered seam")
            continue
        if not hasattr(FaultInjector, seam.hook):
            problems.append(
                f"seam '{kind.value}' names hook '{seam.hook}' which does not "
                "exist on FaultInjector"
            )
        if not seam.exercised_by:
            problems.append(f"seam '{kind.value}' lists no exercising chaos test or bench")
    registered_hooks = {seam.hook for seam in SEAM_REGISTRY.values()}
    for hook in injector_hooks():
        if hook in _UTILITY_HOOKS:
            continue
        if hook not in registered_hooks:
            problems.append(
                f"FaultInjector.{hook} maps back to no registered FaultKind seam"
            )
    for kind in SEAM_REGISTRY:
        if kind not in FaultKind:
            problems.append(f"registry entry {kind!r} is not a FaultKind")
    return problems


def check_registry() -> None:
    """Raise `SeamDriftError` if the registry has drifted from the code."""
    problems = registry_problems()
    if problems:
        raise SeamDriftError("; ".join(problems))
