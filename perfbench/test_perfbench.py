"""Self-tests of the benchmark: run ``python3 -m pytest perfbench``.

They use small graphs, so they check the instrument, not the timings.
"""

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.core.workload
from ledger import LAYER_NAMES, Ledger
from repro import SSSP, PageRank, rmat_graph
from run import run_job
from workloads import Workload, check_values, digest, undirected_weighted

SMALL_PR = Workload(
    name="small-pr", make_graph=lambda seed: rmat_graph(10, seed=seed),
    make_algorithm=lambda: PageRank(iterations=3), machines=2, chunk_kib=4,
)
SMALL_SSSP = Workload(
    name="small-sssp", make_graph=undirected_weighted(10),
    make_algorithm=lambda: SSSP(root=0), machines=2, chunk_kib=4, graph_seed=3,
    checkpointing=True, faults=("crash:1@iter=2",),
)
PLANT_S = 0.05


def traced(workload, graph):
    ledger = Ledger()
    job = run_job(workload, graph, seed=0, ledger=ledger)
    return ledger, job


def totals(ledger):
    return {name: float(v.sum()) for name, v in ledger.self_times().items()}


def test_planted_slowdown_is_attributed_to_reduce(monkeypatch):
    graph = SMALL_PR.graph(1)
    base = totals(traced(SMALL_PR, graph)[0])
    real = repro.core.workload.canonical_update_order

    def slow(dst_local, values):
        time.sleep(PLANT_S)
        return real(dst_local, values)

    monkeypatch.setattr(repro.core.workload, "canonical_update_order", slow)
    ledger, _ = traced(SMALL_PR, graph)
    planted = PLANT_S * ledger.call_counts()["core.reduce"]
    slowed = totals(ledger)
    assert planted >= 0.2
    assert slowed["core.reduce"] - base["core.reduce"] >= 0.95 * planted
    for name in LAYER_NAMES:
        if name != "core.reduce":
            assert slowed[name] - base[name] < 0.1 * planted, name


@pytest.mark.parametrize("workload", [SMALL_PR, SMALL_SSSP], ids=lambda w: w.name)
def test_traced_job_equals_untraced_and_oracle(workload):
    graph = workload.graph(1)
    plain = run_job(workload, graph, seed=0)
    ledger, job = traced(workload, graph)
    assert job.digest == plain.digest
    assert job.result.runtime == plain.result.runtime
    assert check_values(workload, graph, job.result.values) is None
    # The ledger closes: self times add up to the job's wall time.
    assert sum(totals(ledger).values()) == pytest.approx(job.wall, rel=0.02)


def test_sssp_recovery_path_runs():
    graph = SMALL_SSSP.graph(1)
    ledger, _ = traced(SMALL_SSSP, graph)
    assert ledger.call_counts()["sim.dispatch"] > 1  # recovery epochs


def test_oracle_catches_a_wrong_value():
    graph = SMALL_PR.graph(1)
    values = dict(run_job(SMALL_PR, graph, seed=0).result.values)
    values["rank"] = values["rank"].copy()
    values["rank"][7] *= 1 + 1e-6
    assert "1 values off" in check_values(SMALL_PR, graph, values)


def test_instrumentation_is_removed_even_when_the_job_raises():
    import repro.core.runtime
    import repro.sim.engine

    def bindings():
        return (vars(repro.core.workload.DataWorkload)["scatter_chunk"],
                repro.core.workload.canonical_update_order,
                repro.sim.engine.Simulator.run_until,
                repro.core.runtime.partition_edges,
                vars(PageRank)["scatter"])

    before = bindings()
    with pytest.raises(RuntimeError):
        with Ledger().instrumented(PageRank(iterations=1)):
            assert bindings() != before
            raise RuntimeError("job failed")
    assert bindings() == before


def test_digest_depends_on_every_array():
    a = {"x": np.arange(4.0), "y": np.zeros(2)}
    b = {"x": np.arange(4.0), "y": np.ones(2)}
    assert digest(a) != digest(b)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and this directory: exit non-zero, no result."""
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr-fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
