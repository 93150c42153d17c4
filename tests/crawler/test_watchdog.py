"""Watchdog unit tests: cancellation latency, abandonment, lifecycle."""

import threading
import time

import pytest

from repro.crawler.watchdog import CancelToken, VisitCancelled, Watchdog


def test_cancel_token_checkpoint():
    token = CancelToken()
    token.checkpoint()  # not cancelled: no-op
    assert not token.cancelled
    token.cancel()
    assert token.cancelled
    with pytest.raises(VisitCancelled):
        token.checkpoint()


def test_watchdog_cancels_past_deadline():
    token = CancelToken()
    with Watchdog(poll_interval_s=0.01) as watchdog:
        with watchdog.watch(0, "windows:example.com", 0.05, token):
            # Wait cooperatively, like the executor's hang wedge does.
            started = time.monotonic()
            assert token.wait(2.0), "watchdog never cancelled the visit"
            elapsed = time.monotonic() - started
        # Cancelled after the deadline, within about one poll interval
        # (generous slack for slow CI hosts).
        assert 0.05 <= elapsed < 0.5
        assert watchdog.cancelled == 1
        assert watchdog.abandoned == 0


def test_watchdog_ignores_cleared_guards():
    token = CancelToken()
    with Watchdog(poll_interval_s=0.01) as watchdog:
        with watchdog.watch(0, "windows:fast.example", 10.0, token):
            pass  # attempt finished well inside its deadline
        time.sleep(0.05)
        assert watchdog.cancelled == 0
        assert not token.cancelled


def test_watchdog_abandons_uncooperative_visit():
    guards = []

    def uncooperative(token: CancelToken, watchdog: Watchdog) -> None:
        with watchdog.watch(7, "linux:wedged.example", 0.02, token) as guard:
            guards.append(guard)
            # Ignore the cancellation entirely — a true wedge — until the
            # watchdog writes the attempt off (grace: five 0.01 s polls).
            deadline = time.monotonic() + 5.0
            while not watchdog.abandoned and time.monotonic() < deadline:
                time.sleep(0.005)

    token = CancelToken()
    with Watchdog(poll_interval_s=0.01) as watchdog:
        thread = threading.Thread(
            target=uncooperative, args=(token, watchdog), daemon=True
        )
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert watchdog.abandoned == 1, "watchdog never abandoned the wedged visit"
        assert watchdog.cancelled == 1
    (guard,) = guards
    assert guard.worker_id == 7
    assert guard.abandoned
    assert token.cancelled


def test_watchdog_start_stop_idempotent():
    watchdog = Watchdog(poll_interval_s=0.01)
    watchdog.start()
    watchdog.start()  # second start is a no-op
    watchdog.stop()
    watchdog.stop()  # second stop is a no-op
    assert watchdog.active_guards() == []


def test_watchdog_rejects_bad_poll_interval():
    with pytest.raises(ValueError):
        Watchdog(poll_interval_s=0.0)


def test_cancellation_latency_recorded_within_one_poll_interval():
    # Satellite invariant: the watchdog cancels at most one poll interval
    # after the deadline, and the histogram records exactly that latency.
    from repro import obs

    registry = obs.enable()
    poll = 0.25
    try:
        token = CancelToken()
        with Watchdog(poll_interval_s=poll) as watchdog:
            with watchdog.watch(0, "windows:slow.example", 0.05, token):
                assert token.wait(5.0), "watchdog never cancelled the visit"
        hist = registry.get("repro_watchdog_cancel_latency_seconds")
        value = hist.value()
        assert value.count == 1
        # Bounded by construction: deadline -> cancel takes at most one
        # poll interval (plus scheduling slack for loaded CI hosts).
        assert 0.0 <= value.sum <= poll + 0.25
    finally:
        obs.disable()
