"""Tests for the optional extensions: update aggregation (Section 11.1)
and vertex-set replication (Section 6.6)."""

import numpy as np
import pytest

from repro.algorithms import BFS, MIS, SSSP, PageRank, WCC
from repro.algorithms.scc import _ForwardColor
from repro.core.gas import GraphContext
from repro.core.runtime import run_algorithm
from repro.graph import rmat_graph, to_undirected

from tests.conftest import fast_config
from tests.references import reference_pagerank


class TestUpdateAggregation:
    def test_pagerank_results_unchanged(self, medium_graph):
        plain = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4)
        )
        aggregated = run_algorithm(
            PageRank(iterations=3),
            medium_graph,
            fast_config(4, aggregate_updates=True),
        )
        assert np.allclose(plain.values["rank"], aggregated.values["rank"])

    def test_aggregation_reduces_written_updates(self, medium_graph):
        plain = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4)
        )
        aggregated = run_algorithm(
            PageRank(iterations=3),
            medium_graph,
            fast_config(4, aggregate_updates=True),
        )
        assert (
            aggregated.updates_written_records < plain.updates_written_records
        )
        assert aggregated.updates_written_bytes < plain.updates_written_bytes

    def test_bfs_with_min_combiner_correct(self):
        graph = to_undirected(rmat_graph(9, seed=8, weighted=True))
        plain = run_algorithm(BFS(root=0), graph, fast_config(4))
        aggregated = run_algorithm(
            BFS(root=0), graph, fast_config(4, aggregate_updates=True)
        )
        assert np.array_equal(
            plain.values["distance"], aggregated.values["distance"]
        )

    def test_written_counts_match_produced_without_aggregation(
        self, small_graph
    ):
        result = run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(2)
        )
        produced = sum(s.updates_produced for s in result.iteration_stats)
        assert result.updates_written_records == produced


class TestVertexReplication:
    def test_results_unchanged(self, small_graph):
        plain = run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(4)
        )
        replicated = run_algorithm(
            PageRank(iterations=2),
            small_graph,
            fast_config(4, vertex_replicas=2),
        )
        assert np.allclose(plain.values["rank"], replicated.values["rank"])

    def test_replication_costs_extra_writes(self, small_graph):
        plain = run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(4)
        )
        replicated = run_algorithm(
            PageRank(iterations=2),
            small_graph,
            fast_config(4, vertex_replicas=3),
        )
        assert replicated.storage_bytes > plain.storage_bytes
        assert replicated.runtime >= plain.runtime

    def test_invalid_replica_counts(self):
        with pytest.raises(ValueError):
            fast_config(2, vertex_replicas=0)
        with pytest.raises(ValueError):
            fast_config(2, vertex_replicas=3)

    def test_placement_returns_distinct_machines(self):
        from repro.store.placement import HashedVertexPlacement

        placement = HashedVertexPlacement(8)
        for partition in range(4):
            machines = placement.machines_for(partition, 0, 3)
            assert len(set(machines)) == 3
        with pytest.raises(ValueError):
            placement.machines_for(0, 0, 9)


class TestCombinerGatherConsistency:
    """gather(combine(updates)) must equal gather(updates) — the
    algebraic requirement for safe pre-aggregation.  Every combiner is
    the one ``GasAlgorithm`` derives from the declared reduction."""

    FACTORIES = {
        "PR": lambda: PageRank(),
        "BFS": lambda: BFS(),
        "WCC": lambda: WCC(),
        "SSSP": lambda: SSSP(),
        "MIS": lambda: MIS(),
        "SCC/forward": lambda: _ForwardColor(
            np.zeros(16, dtype=bool), np.arange(16)
        ),
    }

    @pytest.mark.parametrize("name", list(FACTORIES))
    def test_combined_gather_matches_raw(self, name):
        algorithm = self.FACTORIES[name]()
        ctx = GraphContext(
            num_vertices=16,
            num_edges=0,
            weighted=False,
            out_degrees=np.ones(16, dtype=np.int64),
        )
        algorithm.init_values(ctx)
        rng = np.random.default_rng(7)
        dst = rng.integers(0, 16, size=50)
        if np.issubdtype(algorithm.make_accumulator(0).dtype, np.integer):
            values = rng.integers(0, 1000, size=50)
        else:
            values = rng.random(50)

        raw = algorithm.make_accumulator(16)
        algorithm.gather(raw, dst, values)

        combined_dst, combined_values = algorithm.combine_updates(dst, values)
        assert len(combined_dst) <= len(dst)
        combined = algorithm.make_accumulator(16)
        algorithm.gather(combined, combined_dst, combined_values)

        assert np.array_equal(raw, combined)

    @pytest.mark.parametrize(
        "name, dst, values, expected_dst, expected_values",
        [
            ("PR", [3, 1, 3, 1, 2], [1.0, 2.0, 3.0, 4.0, 5.0],
             [1, 2, 3], [6.0, 5.0, 4.0]),
            ("SSSP", [3, 1, 3, 1], [7.0, 2.0, 3.0, 4.0], [1, 3], [2.0, 3.0]),
            ("SCC/forward", [0, 0, 1], [1, 9, 5], [0, 1], [9, 5]),
            ("PR", [5], [1.5], [5], [1.5]),
        ],
        ids=["sum", "min", "max", "singleton"],
    )
    def test_one_update_per_destination(
        self, name, dst, values, expected_dst, expected_values
    ):
        algorithm = self.FACTORIES[name]()
        out_dst, out_values = algorithm.combine_updates(
            np.array(dst), np.array(values)
        )
        assert out_dst.tolist() == expected_dst
        assert out_values.tolist() == expected_values
