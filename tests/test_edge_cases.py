"""Degenerate-shape edge cases: tiny graphs, empty partitions, more
machines than vertices, single-vertex graphs, and inputs that break an
algorithm's weight preconditions."""

import signal
import time

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank, WCC, run_mcst, run_scc
from repro.baselines import run_giraph, run_xstream
from repro.core.runtime import run_algorithm
from repro.graph.edgelist import EdgeList

from tests.conftest import fast_config


def _tiny(num_vertices, src, dst, weight=None):
    return EdgeList(
        num_vertices=num_vertices,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        weight=weight,
    )


class TestTinyGraphs:
    def test_more_machines_than_vertices(self):
        graph = _tiny(3, [0, 1, 2, 1, 2, 0], [1, 0, 1, 2, 0, 2])
        result = run_algorithm(WCC(), graph, fast_config(4))
        assert (result.values["label"] == 0).all()

    def test_single_vertex_graph(self):
        graph = _tiny(1, [], [])
        result = run_algorithm(PageRank(iterations=2), graph, fast_config(2))
        assert result.values["rank"][0] == pytest.approx(0.15)

    def test_single_edge(self):
        graph = _tiny(2, [0], [1])
        result = run_algorithm(BFS(root=0), _tiny(2, [0, 1], [1, 0]), fast_config(2))
        assert list(result.values["distance"]) == [0, 1]

    def test_self_loops_only(self):
        graph = _tiny(3, [0, 1, 2], [0, 1, 2])
        result = run_algorithm(PageRank(iterations=3), graph, fast_config(2))
        # Self-loops feed rank back: r = 0.15 + 0.85 r -> r = 1.
        assert np.allclose(result.values["rank"], 1.0)

    def test_two_vertex_cycle_scc(self):
        graph = _tiny(2, [0, 1], [1, 0])
        result = run_scc(graph, fast_config(2))
        assert (result.values["scc"] == 1).all()

    def test_mcst_single_edge(self):
        graph = _tiny(2, [0, 1], [1, 0], weight=np.array([3.0, 3.0]))
        result = run_mcst(graph, fast_config(2))
        assert result.values["mst_weight"] == pytest.approx(3.0)
        assert result.values["tree_edges"] == 1

    def test_star_bfs_distances(self):
        n = 9
        spokes = np.arange(1, n)
        src = np.concatenate([np.zeros(n - 1, dtype=np.int64), spokes])
        dst = np.concatenate([spokes, np.zeros(n - 1, dtype=np.int64)])
        graph = _tiny(n, src, dst)
        result = run_algorithm(BFS(root=0), graph, fast_config(3))
        assert result.values["distance"][0] == 0
        assert (result.values["distance"][1:] == 1).all()

    def test_long_chain_many_iterations(self):
        """A path graph forces one BFS level per iteration — exercises
        many short phases and the quiescence path."""
        n = 40
        forward = np.arange(n - 1)
        src = np.concatenate([forward, forward + 1])
        dst = np.concatenate([forward + 1, forward])
        graph = _tiny(n, src, dst)
        result = run_algorithm(BFS(root=0), graph, fast_config(2))
        assert np.array_equal(result.values["distance"], np.arange(n))
        # n-1 discovery rounds, one round where the tail's update is
        # absorbed, and one final empty scatter.
        assert result.iterations == n + 1


class TestConfigPlumbing:
    def test_run_algorithm_with_kwargs_only(self, small_graph):
        result = run_algorithm(
            PageRank(iterations=1),
            small_graph,
            machines=2,
            chunk_bytes=4096,
        )
        assert result.machines == 2

    def test_run_algorithm_config_plus_overrides(self, small_graph):
        config = fast_config(2)
        result = run_algorithm(
            PageRank(iterations=1), small_graph, config, machines=3
        )
        assert result.machines == 3


def _triangle(weights):
    """A weighted 3-vertex cycle in both directions (undirected)."""
    return _tiny(
        3, [0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2],
        weight=np.repeat(np.asarray(weights, dtype=np.float64), 2),
    )


def _run_chaos(algorithm, graph):
    return run_algorithm(algorithm, graph, fast_config(2))


def _rejected_within_one_second(algorithm, graph, run=_run_chaos):
    """Run ``algorithm`` expecting a fast ``ValueError``; a SIGALRM
    guard turns a regression into a hang-free failure."""

    def _hung(signum, frame):
        raise AssertionError("run did not fail fast: still running at 10 s")

    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError) as raised:
            run(algorithm, graph)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1.0
    return str(raised.value)


class TestWeightContract:
    def test_negative_cycle_rejected(self):
        """A negative cycle would keep SSSP relaxing forever."""
        message = _rejected_within_one_second(
            SSSP(root=0), _triangle([1.0, -3.0, 1.0])
        )
        assert "non-negative" in message

    def test_nan_weight_rejected(self):
        """A NaN weight would silently leave reachable vertices at inf."""
        message = _rejected_within_one_second(
            SSSP(root=0), _triangle([1.0, np.nan, 1.0])
        )
        assert "finite" in message

    @pytest.mark.parametrize("run", [run_xstream, run_giraph])
    @pytest.mark.parametrize(
        "weights, expected",
        [([1.0, -3.0, 1.0], "non-negative"), ([1.0, np.nan, 1.0], "finite")],
        ids=["negative", "nan"],
    )
    def test_baselines_share_the_contract(self, run, weights, expected):
        """The X-Stream and Giraph baselines validate weights through
        the same check as the Chaos runtime (no hang, no silent NaN)."""
        message = _rejected_within_one_second(
            SSSP(root=0), _triangle(weights), run=run
        )
        assert expected in message
