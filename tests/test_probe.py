"""The per-run instrumentation seam (:mod:`repro.obs.probe`)."""

from __future__ import annotations

import pytest

from repro.analysis import Sanitizer
from repro.core.config import ClusterConfig
from repro.core.metrics import Breakdown
from repro.obs import Tracer
from repro.obs.probe import NULL_PROBE, open_probe
from repro.obs.tracer import TID_CPU, TID_ENGINE, TID_JOB
from repro.sim.engine import Simulator
from repro.sim.resources import CoreBank


def _spans(probe, sim):
    metrics = Breakdown()
    cores = CoreBank(sim, 2)
    return metrics, probe.engine_spans(0, sim, metrics, cores)


def _run_spans(sim, spans, kill_at=None):
    def body():
        spans.begin("outer")
        spans.begin("load", cat="copy")
        yield sim.timeout(1.0)
        spans.end()
        spans.begin("wait", cat="barrier")
        yield sim.timeout(2.0)
        spans.end()
        spans.end()

    process = sim.process(body(), name="engine0")
    if kill_at is not None:
        sim.schedule(kill_at, process.kill)
    sim.run()


class TestNullProbe:
    def test_plain_run_gets_the_null_probe(self):
        sim = Simulator()
        assert open_probe(None, None, sim, ClusterConfig(), "PR") is NULL_PROBE
        assert sim.process_hook is None

    def test_hooks_record_nothing(self):
        assert NULL_PROBE.mark("x") is None
        assert NULL_PROBE.causal_head(0) is None
        NULL_PROBE.access(("vertex", 0), 0, write=True, label="x")
        NULL_PROBE.job_instant("x")
        NULL_PROBE.end_run({})

    def test_spans_charge_their_category_when_they_end(self):
        sim = Simulator()
        metrics, spans = _spans(NULL_PROBE, sim)
        _run_spans(sim, spans)
        assert metrics.copy == pytest.approx(1.0)
        assert metrics.barrier == pytest.approx(2.0)
        assert metrics.total() == pytest.approx(3.0)


class TestSpans:
    def test_a_killed_span_charges_nothing(self):
        sim = Simulator()
        tracer = Tracer(sample_interval=None)
        probe = open_probe(tracer, None, sim, ClusterConfig(machines=1), "PR")
        metrics, spans = _spans(probe, sim)
        _run_spans(sim, spans, kill_at=1.5)
        assert metrics.copy == pytest.approx(1.0)
        assert metrics.barrier == 0.0
        # The trace keeps the cut spans open, as the kill left them.
        assert tracer.open_span_count() == 2

    def test_traced_spans_reconcile_with_the_breakdown(self):
        sim = Simulator()
        tracer = Tracer(sample_interval=None)
        probe = open_probe(tracer, None, sim, ClusterConfig(machines=1), "PR")
        metrics, spans = _spans(probe, sim)
        _run_spans(sim, spans)
        ends = {}
        for event in tracer.events:
            if event["tid"] == TID_ENGINE and event.get("cat"):
                ends.setdefault(event["cat"], []).append(event["ts"])
        assert ends["copy"][1] - ends["copy"][0] == pytest.approx(metrics.copy)
        assert ends["barrier"][1] - ends["barrier"][0] == pytest.approx(
            metrics.barrier
        )
        assert tracer.threads[(0, TID_ENGINE)] == "engine"
        assert tracer.threads[(0, TID_CPU)] == "cpu"
        assert tracer.threads[(1, TID_JOB)] == "job"


class TestInstrumentedProbe:
    def test_sanitizer_only_probe_feeds_the_sanitizer(self):
        sim = Simulator()
        sanitizer = Sanitizer()
        probe = open_probe(
            None, sanitizer, sim, ClusterConfig(machines=2), "PR"
        )
        probe.access(("vertex", 0), 0, write=True, label="a")
        probe.access(("vertex", 0), 1, write=True, label="b")
        assert len(sanitizer.races) == 1
        assert probe.mark("x") is None  # no tracer, no causal DAG
