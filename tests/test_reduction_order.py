"""Final values do not depend on the schedule, whatever the reduction.

The master gathers min, max and integer-sum reductions in arrival order
and replays float sums in canonical order (``needs_canonical_order``).
Either way the bits of the final vertex values must be the same under
any machine count, steal bias and chunk size, since those move the
order in which update chunks arrive.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from repro.algorithms import BFS, MIS, SSSP, WCC, KCore, PageRank, run_scc
from repro.core.runtime import run_algorithm
from repro.graph import rmat_graph, to_undirected

from tests.conftest import fast_config

MACHINES = (1, 2, 3, 4)
ALPHAS = (0.0, 1.0, math.inf)
CHUNK_BYTES = (1024, 4096)


@pytest.fixture(scope="module")
def directed():
    return rmat_graph(6, seed=11, weighted=True)


@pytest.fixture(scope="module")
def undirected(directed):
    return to_undirected(directed)


def _digest(values):
    h = hashlib.sha256()
    for name in sorted(values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(values[name]).tobytes())
    return h.hexdigest()


def _single_job(factory, graph_name):
    def run(graphs, config):
        return run_algorithm(factory(), graphs[graph_name], config).values

    return run


def _scc(graphs, config):
    return run_scc(graphs["directed"], config).values


CASES = {
    "SSSP": (_single_job(lambda: SSSP(root=0), "undirected"), {}),
    "BFS": (_single_job(lambda: BFS(root=0), "undirected"), {}),
    "WCC": (_single_job(WCC, "undirected"), {}),
    "MIS": (_single_job(MIS, "undirected"), {}),
    "KCore": (_single_job(lambda: KCore(3), "undirected"), {}),
    "PR": (_single_job(lambda: PageRank(iterations=3), "directed"), {}),
    "SCC": (_scc, {}),
    "SCC-aggregated": (_scc, {"aggregate_updates": True}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_values_byte_identical_across_schedules(case, directed, undirected):
    run, overrides = CASES[case]
    graphs = {"directed": directed, "undirected": undirected}
    digests = {
        (machines, alpha, chunk): _digest(
            run(
                graphs,
                fast_config(
                    machines,
                    partitions_per_machine=1,
                    steal_alpha=alpha,
                    chunk_bytes=chunk,
                    **overrides,
                ),
            )
        )
        for machines, alpha, chunk in itertools.product(
            MACHINES, ALPHAS, CHUNK_BYTES
        )
    }
    assert len(set(digests.values())) == 1, digests
