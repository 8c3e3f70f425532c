"""The three benchmark workloads and their output oracles.

Each workload is a public-API job: a graph from ``rmat_graph`` (and
``to_undirected``), an algorithm, a :class:`~repro.ClusterConfig` in the
paper regime of ``benchmarks/harness.py`` (``SSD_BENCH`` devices on a
``GIGE_40_BENCH`` network, default ``batch_factor``), and optionally a
fault plan.  The oracles are independent numpy/scipy computations that
run outside the timed region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro import PageRank, SSSP, ClusterConfig, rmat_graph, to_undirected
from repro.faults import FaultPlan
from repro.net.topology import GIGE_40_BENCH
from repro.store.device import SSD_BENCH

#: A value passes if ``|got - oracle| <= RTOL * max(|oracle|, 1)``.  Both
#: sides are float64 and differ only in the order of additions, so they
#: agree to a few ulps.
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    make_graph: Callable[[int], object]  # seed -> EdgeList
    make_algorithm: Callable[[], object]
    machines: int
    chunk_kib: int
    #: Graph seed, or None to take the run's ``--seed``.
    graph_seed: Optional[int] = None
    checkpointing: bool = False
    faults: tuple = ()

    def graph(self, seed: int):
        return self.make_graph(seed if self.graph_seed is None else self.graph_seed)

    def config(self, seed: int) -> ClusterConfig:
        # With a fixed graph the run's seed moves to the cluster (chunk
        # placement, steal and retry randomness); otherwise seed 0.
        return ClusterConfig(
            machines=self.machines,
            chunk_bytes=self.chunk_kib * 1024,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
            checkpointing=self.checkpointing,
            seed=0 if self.graph_seed is None else seed,
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        return FaultPlan.parse(self.faults) if self.faults else None


def undirected_weighted(scale: int) -> Callable[[int], object]:
    return lambda seed: to_undirected(rmat_graph(scale, seed=seed, weighted=True))


#: Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="pr-bulk",
        make_graph=lambda seed: rmat_graph(17, seed=seed),
        make_algorithm=lambda: PageRank(iterations=5),
        machines=4,
        chunk_kib=64,
    ),
    Workload(
        name="pr-fine",
        make_graph=lambda seed: rmat_graph(15, seed=seed),
        make_algorithm=lambda: PageRank(iterations=5),
        machines=8,
        chunk_kib=4,
    ),
    Workload(
        name="sssp-ckpt",
        make_graph=undirected_weighted(16),
        make_algorithm=lambda: SSSP(root=0),
        machines=4,
        chunk_kib=64,
        graph_seed=5,
        checkpointing=True,
        faults=("crash:1@iter=6",),
    ),
)}


def digest(arrays: Dict[str, np.ndarray]) -> str:
    """sha256 over named arrays: name, dtype, shape and raw bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def graph_digest(edges) -> str:
    arrays = {"src": edges.src, "dst": edges.dst}
    if edges.weight is not None:
        arrays["weight"] = edges.weight
    return digest(arrays)


# -- oracles ---------------------------------------------------------------


def reference_pagerank(edges, iterations: int, damping: float = 0.85) -> np.ndarray:
    """The paper's non-normalized power iteration; rank of sinks leaks."""
    n = edges.num_vertices
    degree = np.bincount(edges.src, minlength=n).astype(np.float64)
    share = 1.0 / degree[edges.src]
    transfer = sparse.csr_matrix((share, (edges.dst, edges.src)), shape=(n, n))
    rank = np.ones(n)
    for _ in range(iterations):
        rank = (1.0 - damping) + damping * (transfer @ rank)
    return rank


def reference_sssp(edges, root: int) -> np.ndarray:
    """Dijkstra over the minimum weight of each (src, dst) pair."""
    n = edges.num_vertices
    key = edges.src * n + edges.dst
    order = np.lexsort((edges.weight, key))
    key, weight = key[order], edges.weight[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    key, weight = key[first], weight[first]  # lexsort put the minimum first
    matrix = sparse.csr_matrix((weight, (key // n, key % n)), shape=(n, n))
    return csgraph.dijkstra(matrix, directed=True, indices=root)


def check_values(workload: Workload, edges, values) -> Optional[str]:
    """None if ``values`` match the oracle, else what is wrong."""
    algorithm = workload.make_algorithm()
    if isinstance(algorithm, PageRank):
        name = "rank"
        expected = reference_pagerank(edges, algorithm.max_iterations, algorithm.damping)
    elif isinstance(algorithm, SSSP):
        name = "distance"
        expected = reference_sssp(edges, algorithm.root)
    else:
        raise TypeError(f"no oracle for {type(algorithm).__name__}")
    got = np.asarray(values[name])
    if got.shape != expected.shape:
        return f"{name}: shape {got.shape}, oracle {expected.shape}"
    finite = np.isfinite(expected)
    if not np.array_equal(finite, np.isfinite(got)):
        return f"{name}: {int((finite != np.isfinite(got)).sum())} reachability mismatches"
    error = np.abs(got[finite] - expected[finite])
    limit = RTOL * np.maximum(np.abs(expected[finite]), 1.0)
    bad = int((error > limit).sum())
    if bad:
        return f"{name}: {bad} values off by up to {float(error.max()):.3g} (rtol {RTOL})"
    return None
