"""Shared fixtures: small graphs and fast cluster configurations.

Functional tests run on small RMAT graphs with small chunks so that the
simulated cluster still exercises multi-chunk streaming, multi-partition
layouts and work stealing, while each test stays sub-second.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.core import ClusterConfig, GasAlgorithm

# Property tests run real cluster simulations; wall-clock deadlines make
# them flaky under load (e.g. while the benchmark suite runs next door).
hypothesis_settings.register_profile("repro", deadline=None)
hypothesis_settings.load_profile("repro")
from repro.graph import rmat_graph, to_undirected
from repro.net.topology import GIGE_40_SCALED
from repro.store.device import SSD_SCALED


@pytest.fixture(scope="session")
def small_graph():
    """Directed RMAT-8: 256 vertices, 4096 edges."""
    return rmat_graph(8, seed=5)


@pytest.fixture(scope="session")
def small_weighted_graph():
    return rmat_graph(8, seed=5, weighted=True)


@pytest.fixture(scope="session")
def small_undirected_graph(small_weighted_graph):
    return to_undirected(small_weighted_graph)


@pytest.fixture(scope="session")
def medium_graph():
    """Directed RMAT-11: 2048 vertices, 32768 edges."""
    return rmat_graph(11, seed=9)


def fast_config(machines: int = 4, **overrides) -> ClusterConfig:
    """A cluster config tuned for fast functional tests."""
    defaults = dict(
        machines=machines,
        chunk_bytes=2048,
        partitions_per_machine=2,
        device=SSD_SCALED,
        network=GIGE_40_SCALED,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture
def config4():
    return fast_config(4)


@pytest.fixture
def config1():
    return fast_config(1)


class BoundedIterations:
    """Wrapper that stops a quiescence-based algorithm after N iterations
    (used to capture the vertex values a checkpoint would hold at that
    barrier).

    Duck-typed rather than a :class:`GasAlgorithm` subclass: everything
    except ``finished`` — including any algorithm-specific extension
    hooks the engine probes for — forwards to the wrapped instance.
    """

    def __init__(self, inner: GasAlgorithm, iterations: int):
        self._inner = inner
        self.name = inner.name
        self.needs_undirected = inner.needs_undirected
        self.needs_weights = inner.needs_weights
        self.needs_out_degrees = inner.needs_out_degrees
        self.update_bytes = inner.update_bytes
        self.vertex_bytes = inner.vertex_bytes
        self.accum_bytes = inner.accum_bytes
        self.max_iterations = iterations

    def __getattr__(self, name):
        # Only reached for attributes not set on the wrapper itself
        # (the bound/overridden ones above and ``finished`` below).
        return getattr(self._inner, name)

    def finished(self, iteration, stats):
        # Stop at the bound OR when the inner algorithm converges.
        if self._inner.finished(iteration, stats):
            return True
        return iteration + 1 >= self.max_iterations
