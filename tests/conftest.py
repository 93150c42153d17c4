"""Shared fixtures: small-scale campaigns and event-building helpers.

Campaign fixtures are session-scoped — the populations are deterministic,
so every test sees identical findings without re-crawling per test.
"""

from __future__ import annotations

import os

import pytest

from repro.crawler.campaign import run_campaign
from repro.netlog.constants import EventPhase, EventType, SourceType
from repro.netlog.events import NetLogEvent, NetLogSource
from repro.web.population import (
    build_malicious_population,
    build_top_population,
)

#: Scale factors small enough for quick tests but large enough that every
#: seeded site is present (populations always keep all seeds).
TOP_SCALE = 0.005
MALICIOUS_SCALE = 0.002


@pytest.fixture(scope="session")
def top2020_population():
    return build_top_population(2020, scale=TOP_SCALE)


@pytest.fixture(scope="session")
def top2021_population(top2020_population):
    return build_top_population(
        2021, scale=TOP_SCALE, base_list=top2020_population.top_list
    )


@pytest.fixture(scope="session")
def malicious_population():
    return build_malicious_population(scale=MALICIOUS_SCALE)


@pytest.fixture(scope="session")
def top2020_result(top2020_population):
    return run_campaign(top2020_population)


@pytest.fixture(scope="session")
def top2021_result(top2021_population):
    return run_campaign(top2021_population)


@pytest.fixture(scope="session")
def malicious_result(malicious_population):
    return run_campaign(malicious_population)


class EventBuilder:
    """Fluent helper for constructing NetLog event streams in tests."""

    def __init__(self) -> None:
        self.events: list[NetLogEvent] = []
        self._next_source = 1

    def source(self, type: SourceType = SourceType.URL_REQUEST) -> NetLogSource:
        source = NetLogSource(id=self._next_source, type=type)
        self._next_source += 1
        return source

    def add(
        self,
        time: float,
        type: EventType,
        source: NetLogSource,
        phase: EventPhase = EventPhase.NONE,
        **params,
    ) -> NetLogEvent:
        event = NetLogEvent(
            time=time, type=type, source=source, phase=phase, params=params
        )
        self.events.append(event)
        return event

    def request(
        self,
        url: str,
        *,
        time: float = 0.0,
        method: str = "GET",
        redirects: tuple[str, ...] = (),
        source_type: SourceType = SourceType.URL_REQUEST,
    ) -> NetLogSource:
        """A complete simple request flow."""
        source = self.source(source_type)
        self.add(time, EventType.REQUEST_ALIVE, source, EventPhase.BEGIN)
        if source_type is SourceType.WEB_SOCKET:
            self.add(
                time,
                EventType.WEB_SOCKET_SEND_HANDSHAKE_REQUEST,
                source,
                EventPhase.BEGIN,
                url=url,
                method=method,
            )
        else:
            self.add(
                time,
                EventType.URL_REQUEST_START_JOB,
                source,
                EventPhase.BEGIN,
                url=url,
                method=method,
            )
        for hop in redirects:
            self.add(
                time + 1.0,
                EventType.URL_REQUEST_REDIRECTED,
                source,
                location=hop,
            )
        self.add(time + 2.0, EventType.REQUEST_ALIVE, source, EventPhase.END)
        return source

    def page_commit(self, url: str, *, time: float = 0.0) -> None:
        source = self.source()
        self.add(time, EventType.PAGE_LOAD_COMMITTED, source, url=url)


@pytest.fixture
def events() -> EventBuilder:
    return EventBuilder()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes this test forks; each must be reaped by
    the end of the test.

    (Each pid is checked on its own: ``waitpid(-1)`` would also see
    children of other tests, such as multiprocessing's resource tracker.)
    """
    pids: list[int] = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
