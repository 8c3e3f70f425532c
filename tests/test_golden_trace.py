"""Golden traces: pin the exact bytes of two traced runs and one
sanitizer summary.

The instrumentation must observe a run without perturbing it, and the
trace itself must stay stable across refactors of the instrumentation
plumbing.  A change that alters a trace on purpose updates the digest
here and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

from repro import WCC, PageRank, rmat_graph, run_algorithm
from repro.analysis import Sanitizer
from repro.faults import FaultPlan
from repro.obs import Tracer, dumps_chrome_trace

PR_DIGEST = "f79d5347a37d81d9c96052dd06992463b53104c939e233a5d3023c544a383af6"
WCC_FAULT_DIGEST = (
    "b26dfc1faf2332abec95b9ef7713bdce7bc5b3f647a33a15f567652ebc6207b5"
)


def _traced(algorithm, **options):
    tracer = Tracer(sample_interval=1e-3)
    run_algorithm(
        algorithm, rmat_graph(10, seed=1), chunk_bytes=4096, tracer=tracer,
        **options,
    )
    digest = hashlib.sha256(dumps_chrome_trace(tracer).encode()).hexdigest()
    return digest, len(tracer.events)


def test_pagerank_checkpointed_trace_is_pinned():
    digest, events = _traced(
        PageRank(iterations=3), machines=3, checkpointing=True
    )
    assert events == 3542
    assert digest == PR_DIGEST


def test_wcc_crash_recovery_trace_is_pinned():
    digest, events = _traced(
        WCC(),
        machines=4,
        checkpointing=True,
        fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
    )
    assert events == 6969
    assert digest == WCC_FAULT_DIGEST


def test_sanitizer_summary_is_pinned():
    sanitizer = Sanitizer()
    run_algorithm(
        PageRank(iterations=3), rmat_graph(10, seed=1), machines=3,
        chunk_bytes=4096, sanitizer=sanitizer,
    )
    assert sanitizer.summary() == (
        "sanitizer: 0 race(s), 856 tracked accesses, 79 sync edges"
    )
