"""Unit tests for the GAS model base class and algorithm metadata."""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    KCore,
    PageRank,
    SpMV,
)
from repro.algorithms.mcst import _HookPropagate, _MinEdgePick
from repro.algorithms.scc import _BackwardConfirm, _ForwardColor
from repro.core.gas import GasAlgorithm, GraphContext
from repro.core.workload import (
    DataWorkload,
    GatherBuffer,
    canonical_update_order,
    needs_canonical_order,
)
from repro.partition.streaming import PartitionLayout


ALL_SINGLE_JOB = [
    BFS(),
    WCC(),
    MIS(),
    SSSP(),
    PageRank(),
    Conductance(),
    SpMV(),
    BeliefPropagation(),
]


class TestMetadata:
    @pytest.mark.parametrize("algorithm", ALL_SINGLE_JOB, ids=lambda a: a.name)
    def test_wire_sizes_positive(self, algorithm):
        assert algorithm.update_bytes > 0
        assert algorithm.vertex_bytes > 0
        assert algorithm.accum_bytes > 0
        assert algorithm.vertex_state_bytes() >= algorithm.vertex_bytes

    def test_undirected_flags(self):
        assert BFS().needs_undirected
        assert WCC().needs_undirected
        assert MIS().needs_undirected
        assert SSSP().needs_undirected
        assert not PageRank().needs_undirected
        assert not SpMV().needs_undirected

    def test_iteration_modes(self):
        assert BFS().max_iterations is None  # quiescence
        assert PageRank(iterations=7).max_iterations == 7
        assert Conductance().max_iterations == 1
        assert SpMV().max_iterations == 1

    def test_repr_contains_name(self):
        assert "PR" in repr(PageRank())


class TestFinishedDefault:
    class _Stats:
        def __init__(self, updates):
            self.updates_produced = updates
            self.vertices_changed = 0

    def test_fixed_iteration_policy(self):
        algorithm = PageRank(iterations=3)
        assert not algorithm.finished(0, self._Stats(100))
        assert not algorithm.finished(1, self._Stats(100))
        assert algorithm.finished(2, self._Stats(100))

    def test_quiescence_policy(self):
        algorithm = WCC()
        assert not algorithm.finished(0, self._Stats(5))
        assert algorithm.finished(0, self._Stats(0))


class TestConstructorValidation:
    def test_pagerank(self):
        with pytest.raises(ValueError):
            PageRank(iterations=0)
        with pytest.raises(ValueError):
            PageRank(damping=1.0)

    def test_bfs_sssp_roots(self):
        with pytest.raises(ValueError):
            BFS(root=-1)
        with pytest.raises(ValueError):
            SSSP(root=-1)

    def test_conductance_split(self):
        with pytest.raises(ValueError):
            Conductance(split_fraction=0.0)
        with pytest.raises(ValueError):
            Conductance(split_fraction=1.0)

    def test_bp(self):
        with pytest.raises(ValueError):
            BeliefPropagation(iterations=0)

    def test_spmv_wrong_vector_length(self):
        algorithm = SpMV(x=np.ones(3))
        ctx = GraphContext(num_vertices=5, num_edges=0, weighted=False)
        with pytest.raises(ValueError, match="length"):
            algorithm.init_values(ctx)


def _random_updates(algorithm, rng, size):
    """Update values of the algorithm's accumulator kind."""
    if np.issubdtype(algorithm.make_accumulator(0).dtype, np.integer):
        return rng.integers(-1, 100, size=size)
    return rng.random(size)


#: Every declared reduction that is exact in any order.
ORDER_INSENSITIVE = [
    BFS(),
    WCC(),
    SSSP(),
    MIS(),
    KCore(2),
    _ForwardColor(np.zeros(8, dtype=bool), np.arange(8)),
]


class TestGatherMergeConsistency:
    """Merging a stealer's buffered updates into the master's and
    replaying them in canonical order must equal gathering every
    update into one accumulator — the algebraic requirement behind
    stealer-accumulator merging."""

    @pytest.mark.parametrize(
        "algorithm",
        [
            BFS(),
            WCC(),
            PageRank(),
            SpMV(),
            BeliefPropagation(),
            KCore(2),
            SSSP(),
            MIS(),
        ],
        ids=lambda a: a.name,
    )
    def test_merge_equals_combined_gather(self, algorithm):
        ctx = GraphContext(
            num_vertices=8,
            num_edges=0,
            weighted=False,
            out_degrees=np.ones(8, dtype=np.int64),
        )
        algorithm.init_values(ctx)
        rng = np.random.default_rng(0)
        dst_a = rng.integers(0, 8, size=20)
        dst_b = rng.integers(0, 8, size=20)
        values_a = _random_updates(algorithm, rng, 20)
        values_b = _random_updates(algorithm, rng, 20)

        combined = algorithm.make_accumulator(8)
        algorithm.gather(combined, dst_a, values_a)
        algorithm.gather(combined, dst_b, values_b)

        master = GatherBuffer()
        master.append(dst_a, values_a)
        stealer = GatherBuffer()
        stealer.append(dst_b, values_b)
        master.extend(stealer)
        merged = master.merged()
        order = canonical_update_order(merged["dst"], merged["value"])
        replayed = algorithm.make_accumulator(8)
        algorithm.gather(replayed, merged["dst"][order], merged["value"][order])

        assert np.allclose(
            np.asarray(replayed, dtype=np.float64),
            np.asarray(combined, dtype=np.float64),
        )

    @pytest.mark.parametrize("algorithm", ORDER_INSENSITIVE, ids=lambda a: a.name)
    def test_arrival_order_equals_canonical_order(self, algorithm):
        """The runtime skips the canonical sort for these reductions, so
        gathering in arrival order must give the same bits."""
        assert not needs_canonical_order(algorithm)
        rng = np.random.default_rng(1)
        dst = rng.integers(0, 8, size=200)
        values = _random_updates(algorithm, rng, 200)
        arrival = algorithm.make_accumulator(8)
        algorithm.gather(arrival, dst, values)
        order = canonical_update_order(dst, values)
        canonical = algorithm.make_accumulator(8)
        algorithm.gather(canonical, dst[order], values[order])
        assert np.array_equal(arrival, canonical)


class TestReductionDeclaration:
    @pytest.mark.parametrize(
        "algorithm",
        [
            PageRank(),
            SpMV(),
            BeliefPropagation(),
            Conductance(),
            _BackwardConfirm(np.zeros(8, dtype=bool), np.arange(8)),
            _MinEdgePick(),
            _HookPropagate(np.full(8, -1)),
        ],
        ids=lambda a: a.name,
    )
    def test_float_sums_and_custom_gathers_keep_canonical_order(
        self, algorithm
    ):
        assert needs_canonical_order(algorithm)

    def test_custom_gathers_declare_no_reduction(self):
        for algorithm in (Conductance(), _MinEdgePick()):
            assert algorithm.reduction is None
            assert algorithm.combine_updates(np.arange(3), np.ones(3)) is None

    def _workload(self, algorithm):
        ctx = GraphContext(num_vertices=4, num_edges=0, weighted=False)
        return DataWorkload(algorithm, PartitionLayout.even(4, 1), ctx)

    def test_neither_reduction_nor_gather_rejected(self):
        class NoGather(GasAlgorithm):
            def init_values(self, ctx):
                return {"x": np.zeros(ctx.num_vertices)}

            def scatter(self, values, src_local, dst, weight, iteration):
                return None

            def make_accumulator(self, n):
                return np.zeros(n)

            def apply(self, values, accum, iteration):
                return 0

        with pytest.raises(TypeError, match="NoGather"):
            self._workload(NoGather())

        class Product(NoGather):
            reduction = np.multiply

        with pytest.raises(TypeError, match="Product"):
            self._workload(Product())

        class Sum(NoGather):
            reduction = np.add

        assert needs_canonical_order(self._workload(Sum()).algorithm)
