"""Tests for checkpoint resume (Section 6.6).

Live crash recovery, which restores the last checkpoint inside the
simulation and re-executes, is covered by ``tests/test_faults.py``.
"""

import numpy as np
import pytest

from repro.algorithms import BFS, BeliefPropagation, KCore, PageRank, WCC
from repro.core.runtime import ChaosCluster
from repro.graph import rmat_graph, to_undirected

from tests.conftest import BoundedIterations, fast_config
from tests.references import reference_pagerank


class TestResumeFromValues:
    def test_split_pagerank_equals_straight_run(self, small_graph):
        """3 iterations, then resume for 2 == 5 straight iterations."""
        config = fast_config(2)
        first = ChaosCluster(config).run(PageRank(iterations=3), small_graph)
        checkpoint = {k: np.copy(v) for k, v in first.values.items()}
        second = ChaosCluster(config).run(
            PageRank(iterations=2), small_graph, initial_values=checkpoint
        )
        straight = reference_pagerank(small_graph, iterations=5)
        assert np.allclose(second.values["rank"], straight)

    def test_resume_quiescent_algorithm_finishes_quickly(self):
        """Resuming WCC from its own fixpoint converges immediately."""
        graph = to_undirected(rmat_graph(8, seed=3, weighted=True))
        config = fast_config(2)
        done = ChaosCluster(config).run(WCC(), graph)
        resumed = ChaosCluster(config).run(
            WCC(), graph, initial_values=done.values
        )
        assert np.array_equal(resumed.values["label"], done.values["label"])
        assert resumed.iterations <= 2

    def test_missing_state_array_rejected(self, small_graph):
        config = fast_config(2)
        with pytest.raises(ValueError, match="missing state array"):
            ChaosCluster(config).run(
                PageRank(iterations=1),
                small_graph,
                initial_values={"rank": np.ones(small_graph.num_vertices)},
            )

    def test_wrong_shape_rejected(self, small_graph):
        config = fast_config(2)
        with pytest.raises(ValueError, match="shape"):
            ChaosCluster(config).run(
                PageRank(iterations=1),
                small_graph,
                initial_values={"rank": np.ones(3), "degree": np.ones(3)},
            )


class TestStartIterationResume:
    """Checkpoint-resume with ``start_iteration`` on iteration-stamped
    algorithms: the resumed run must continue the iteration numbering,
    so its values equal the undisturbed run's — not just for
    PageRank-style algorithms whose update ignores the iteration."""

    def test_bp_split_equals_straight_run(self, small_graph):
        config = fast_config(2)
        straight = ChaosCluster(config).run(
            BeliefPropagation(iterations=4), small_graph
        )
        first = ChaosCluster(config).run(
            BeliefPropagation(iterations=2), small_graph
        )
        resumed = ChaosCluster(config).run(
            BeliefPropagation(iterations=4),
            small_graph,
            initial_values={k: np.copy(v) for k, v in first.values.items()},
            start_iteration=2,
        )
        for name in straight.values:
            assert np.array_equal(resumed.values[name], straight.values[name])

    def test_kcore_split_equals_straight_run(self, small_undirected_graph):
        config = fast_config(2)
        straight = ChaosCluster(config).run(KCore(2), small_undirected_graph)
        bounded = BoundedIterations(KCore(2), 2)
        first = ChaosCluster(config).run(bounded, small_undirected_graph)
        resumed = ChaosCluster(config).run(
            KCore(2),
            small_undirected_graph,
            initial_values={k: np.copy(v) for k, v in first.values.items()},
            start_iteration=2,
        )
        for name in straight.values:
            assert np.array_equal(resumed.values[name], straight.values[name])

    def test_bfs_resume_preserves_distance_stamps(self):
        """BFS stamps distances with the iteration number, so a resume
        that restarted the numbering would corrupt every distance
        discovered after the checkpoint."""
        graph = to_undirected(rmat_graph(8, seed=3, weighted=True))
        config = fast_config(2)
        straight = ChaosCluster(config).run(BFS(root=0), graph)
        bounded = BoundedIterations(BFS(root=0), 2)
        first = ChaosCluster(config).run(bounded, graph)
        resumed = ChaosCluster(config).run(
            BFS(root=0),
            graph,
            initial_values={k: np.copy(v) for k, v in first.values.items()},
            start_iteration=2,
        )
        assert np.array_equal(
            resumed.values["distance"], straight.values["distance"]
        )


class TestBoundedIterationsForwarding:
    def test_forwards_unknown_hooks_to_inner(self):
        inner = PageRank(iterations=5)
        bounded = BoundedIterations(inner, 2)
        # Delegation is generic: any hook the engine probes for reaches
        # the wrapped algorithm without a hand-written stub.
        assert bounded.scatter == inner.scatter
        assert bounded.combine_updates == inner.combine_updates
        assert bounded.max_iterations == 2
        assert bounded.name == inner.name
        with pytest.raises(AttributeError):
            bounded.not_a_hook

    def test_finished_stops_at_bound(self, small_graph):
        config = fast_config(2)
        result = ChaosCluster(config).run(
            BoundedIterations(PageRank(iterations=5), 2), small_graph
        )
        assert result.iterations == 2
