"""Facade tests: the off-by-default switch and instrument binding."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestDisabledDefault:
    def test_instruments_are_noops_when_disabled(self):
        counter = obs.counter("test_noop_total", "help")
        hist = obs.histogram("test_noop_seconds", "help")
        assert not counter.enabled
        counter.inc()
        hist.observe(0.5)  # silently dropped, never raises
        assert obs.registry() is None
        assert not obs.enabled()

    def test_span_is_shared_null_object(self):
        assert obs.span("a") is obs.span("b") is obs.NULL_SPAN
        with obs.span("a") as args:
            args["ignored"] = True  # writable, discarded


class TestEnableDisable:
    def test_enable_binds_declared_instruments(self):
        counter = obs.counter("test_bind_total", "help", ("k",))
        registry = obs.enable()
        counter.inc(labels=("v",))
        assert counter.enabled
        assert registry.get("test_bind_total").value(("v",)) == 1

    def test_instruments_declared_after_enable_are_live(self):
        registry = obs.enable()
        counter = obs.counter("test_late_total", "help")
        counter.inc(2)
        assert registry.get("test_late_total").value() == 2

    def test_disable_unbinds_and_drops_state(self):
        counter = obs.counter("test_unbind_total", "help")
        obs.enable()
        counter.inc()
        obs.disable()
        assert not counter.enabled
        counter.inc()  # back to a no-op
        # A fresh enable starts from a fresh registry.
        registry = obs.enable()
        assert registry.get("test_unbind_total").value() == 0

    def test_enable_is_idempotent(self):
        first = obs.enable()
        second = obs.enable()
        assert first is second

    def test_explicit_registry_honoured(self):
        from repro.obs.metrics import MetricsRegistry

        mine = MetricsRegistry()
        assert obs.enable(mine) is mine
        assert obs.registry() is mine

    def test_tracer_lifecycle(self):
        assert obs.tracer() is None
        obs.enable(trace_capacity=8)
        tracer = obs.tracer()
        assert tracer is not None and tracer.capacity == 8
        with obs.span("live") as args:
            args["k"] = 1
        assert [s.name for s in tracer.spans()] == ["live"]
        obs.disable()
        assert obs.tracer() is None


class TestDeclarationDiscipline:
    def test_redeclaration_returns_same_proxy(self):
        a = obs.counter("test_dup_total", "help")
        b = obs.counter("test_dup_total", "help")
        assert a is b

    def test_kind_mismatch_rejected(self):
        obs.counter("test_kind_total", "help")
        with pytest.raises(ValueError, match="already declared"):
            obs.gauge("test_kind_total", "help")

    def test_label_mismatch_rejected(self):
        obs.counter("test_labels_total", "help", ("a",))
        with pytest.raises(ValueError, match="already declared"):
            obs.counter("test_labels_total", "help", ("b",))

    def test_pipeline_instruments_all_registered(self):
        # Importing the pipeline must have declared the headline
        # instruments — a rename here breaks dashboards downstream.
        import repro.crawler.campaign  # noqa: F401
        import repro.crawler.executor  # noqa: F401
        import repro.crawler.watchdog  # noqa: F401
        import repro.netlog.parser  # noqa: F401
        import repro.storage.db  # noqa: F401
        import repro.storage.integrity  # noqa: F401

        registry = obs.enable()
        names = {family.name for family in registry.collect()}
        assert {
            "repro_visits_total",
            "repro_executor_dispatched_total",
            "repro_watchdog_cancellations_total",
            "repro_watchdog_cancel_latency_seconds",
            "repro_visit_retries_total",
            "repro_netlog_parse_seconds",
            "repro_store_commit_seconds",
            "repro_fsck_repairs_total",
        } <= names
