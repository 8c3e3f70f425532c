"""Out-of-core Giraph baseline (Figure 19).

Giraph (the open-source Pregel) partitions *vertices* randomly across
machines; each machine owns its vertices, their out-edges and their
incoming message queues, all spilled to local disk in the out-of-core
mode the paper evaluates.  The properties that matter for Figure 19:

* **static partitions, strictly local I/O** — a machine streams only
  its own store at its own device bandwidth.  A straggler (the machine
  that drew the hub vertices) cannot be helped: no work stealing, and no
  access to the aggregate bandwidth of the cluster;
* **per-superstep coordination overhead** (master/ZooKeeper barrier and
  worker coordination) that does not shrink with the cluster;
* **JVM object overhead** on both compute and message serialization —
  the paper attributes Giraph's order-of-magnitude absolute slowdown
  "largely [to] engineering issues (in particular, JVM overheads)".

Figure 19 normalizes each system to its own single-machine runtime, so
the constant software overheads cancel and what remains is exactly the
scaling gap caused by static partitioning — which this model reproduces
mechanistically via the straggler max over per-machine I/O times.

The vertex program executes functionally (the same GAS algorithm
implementations, hash-partitioned), so iteration counts and message
volumes are real, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, check_weights
from repro.core.metrics import IterationStats, JobResult
from repro.core.workload import DataWorkload
from repro.graph.edgelist import EdgeList, bytes_per_edge
from repro.graph.stats import out_degrees as compute_out_degrees
from repro.partition.streaming import PartitionLayout
from repro.store.chunk import Chunk, ChunkKind
from repro.store.device import SSD_480GB, DeviceSpec

_HASH_MIX = 2654435761  # Knuth multiplicative hash


@dataclass(frozen=True)
class GiraphConfig:
    """Out-of-core Giraph deployment model."""

    machines: int = 1
    device: DeviceSpec = SSD_480GB
    cores: int = 16
    #: JVM compute overhead relative to the C++ cost model.
    software_overhead: float = 8.0
    #: Serialized message size multiplier (Writable object overhead).
    message_bytes_factor: float = 4.0
    #: Master/ZooKeeper coordination cost per superstep (seconds).
    superstep_overhead: float = 1.0
    cpu_seconds_per_edge: float = 100e-9
    cpu_seconds_per_update: float = 80e-9
    cpu_seconds_per_vertex: float = 30e-9
    seed: int = 0


def vertex_owners(num_vertices: int, machines: int) -> np.ndarray:
    """Random (hashed) vertex -> machine assignment, Giraph's default."""
    vids = np.arange(num_vertices, dtype=np.uint64)
    mixed = (vids * np.uint64(_HASH_MIX)) & np.uint64(0xFFFFFFFF)
    return (mixed % np.uint64(machines)).astype(np.int64)


def run_giraph(
    algorithm: GasAlgorithm,
    edges: EdgeList,
    config: Optional[GiraphConfig] = None,
    **overrides,
) -> JobResult:
    """Execute ``algorithm`` under the out-of-core Giraph cost model."""
    if config is None:
        config = GiraphConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    check_weights(algorithm, edges.weight)

    machines = config.machines
    bandwidth = config.device.bandwidth
    owners = vertex_owners(edges.num_vertices, machines)

    # Static per-machine stores: owned vertices and their out-edges.
    vertices_per_machine = np.bincount(owners, minlength=machines)
    edges_per_machine = np.bincount(owners[edges.src], minlength=machines)
    edge_bytes = bytes_per_edge(edges.num_vertices, edges.weighted)
    vertex_bytes = algorithm.vertex_bytes
    message_bytes = algorithm.update_bytes * config.message_bytes_factor

    # Functional execution through the shared GAS implementations, with
    # a single logical partition (Giraph has no streaming partitions).
    layout = PartitionLayout.even(edges.num_vertices, 1)
    ctx = GraphContext(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        weighted=edges.weighted,
        out_degrees=(
            compute_out_degrees(edges) if algorithm.needs_out_degrees else None
        ),
    )
    workload = DataWorkload(algorithm, layout, ctx)
    payload = {"src": edges.src, "dst": edges.dst}
    if edges.weighted:
        payload["weight"] = edges.weight
    edge_chunk = Chunk(
        partition=0,
        kind=ChunkKind.EDGES,
        size=edges.num_edges * edge_bytes,
        payload=payload,
        records=edges.num_edges,
    )

    # Input loading: each machine ingests its share of the input and
    # writes its local store.
    clock = 2.0 * edges.storage_bytes() / (bandwidth * machines)
    preprocessing = clock
    storage_bytes = 2 * edges.storage_bytes()

    iteration_stats: List[IterationStats] = []
    iteration = 0
    # Messages pending delivery (per owner machine), from last superstep.
    inbound_messages = np.zeros(machines, dtype=np.int64)

    while True:
        stats = IterationStats(iteration=iteration)
        batches = workload.scatter_chunk(0, edge_chunk, iteration)
        outbound = np.zeros(machines, dtype=np.int64)
        all_dst = []
        all_values = []
        for batch in batches:
            outbound += np.bincount(
                owners[batch.payload["dst"]], minlength=machines
            )
            stats.updates_produced += batch.count
            stats.update_bytes += batch.nbytes
            all_dst.append(batch.payload["dst"])
            all_values.append(batch.payload["value"])
        stats.edges_streamed = edges.num_edges

        # Superstep cost: every machine streams its whole local store
        # (out-of-core), reads last superstep's spilled inbox, writes
        # this superstep's outbox spill; straggler max, plus the
        # coordination overhead.
        io_seconds = (
            vertices_per_machine * vertex_bytes * 2  # read + write state
            + edges_per_machine * edge_bytes  # stream local edges
            + inbound_messages * message_bytes  # read spilled inbox
            + outbound * message_bytes  # spill outbox
        ) / bandwidth
        cpu_seconds = (
            (
                edges_per_machine * config.cpu_seconds_per_edge
                + inbound_messages * config.cpu_seconds_per_update
                + vertices_per_machine * config.cpu_seconds_per_vertex
            )
            * config.software_overhead
            / config.cores
        )
        clock += float(np.max(io_seconds + cpu_seconds))
        clock += config.superstep_overhead
        storage_bytes += int(
            (vertices_per_machine * vertex_bytes * 2).sum()
            + (edges_per_machine * edge_bytes).sum()
            + ((inbound_messages + outbound) * message_bytes).sum()
        )

        # Deliver messages functionally (gather + apply).
        accum = workload.begin_gather(0)
        if all_dst:
            update_chunk = Chunk(
                partition=0,
                kind=ChunkKind.UPDATES,
                size=int(stats.update_bytes),
                payload={
                    "dst": np.concatenate(all_dst),
                    "value": np.concatenate(all_values),
                },
                records=stats.updates_produced,
            )
            workload.gather_chunk(0, accum, update_chunk)
        stats.vertices_changed = workload.apply_partition(0, accum, iteration)
        iteration_stats.append(stats)

        if algorithm.max_iterations is None and stats.updates_produced == 0:
            break
        if workload.finished(iteration, stats):
            break
        inbound_messages = outbound
        iteration += 1

    return JobResult(
        algorithm=f"Giraph/{algorithm.name}",
        machines=machines,
        runtime=clock,
        preprocessing_seconds=preprocessing,
        iterations=len(iteration_stats),
        iteration_stats=iteration_stats,
        breakdowns=[],
        storage_bytes=storage_bytes,
        network_bytes=0,
        values=workload.final_values(),
    )
