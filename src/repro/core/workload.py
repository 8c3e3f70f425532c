"""Workloads: what flows through the engines.

The computation engine (:mod:`repro.core.compute`) is written against a
small workload interface so the same scheduling/stealing/batching logic
drives two execution modes:

:class:`DataWorkload`
    Functional mode: chunks carry real numpy edge/update payloads and
    the user algorithm's vectorized scatter/gather/apply run on them.
    Results are exact.

:class:`ModelWorkload`
    Capacity mode: chunks are phantoms (sizes only) and per-iteration
    update volumes come from an :class:`~repro.perf.profiles.ActivityProfile`.
    Used for paper-scale projections (RMAT-36) that no machine could
    materialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State, state_slice
from repro.partition.streaming import PartitionLayout
from repro.store.chunk import Chunk


@dataclass
class UpdateBatch:
    """Updates destined for one partition, produced by one scatter chunk."""

    partition: int
    count: int
    nbytes: int
    payload: Optional[Dict[str, np.ndarray]]  # {"dst": ..., "value": ...}


class GatherBuffer:
    """Deferred gather input for one partition, one worker.

    The simulated schedule delivers update chunks in an order that
    depends on device queues, stealing and (under fault injection) on
    recovery timing.  Floating-point reduction is not associative, so
    applying updates in arrival order would make the *bits* of the final
    vertex values schedule-dependent — fatal for the recovery invariant
    that a fault-injected run equals an undisturbed run byte for byte.

    Workers therefore buffer the raw ``(dst_local, value)`` pairs while
    streaming and the master gathers the union once, at apply time: in
    the canonical order of :func:`canonical_update_order` for float sums
    and hand-written gathers, in arrival order for the reductions that
    are exact in any order (:func:`needs_canonical_order`).  Either way
    the replay is host-side only: the simulated timing (per-chunk CPU
    charges, accumulator ship sizes, merge costs) is untouched.
    """

    __slots__ = ("_dst", "_values")

    def __init__(self):
        self._dst: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def append(self, dst_local: np.ndarray, values: np.ndarray) -> None:
        if len(dst_local) == 0:
            return
        self._dst.append(dst_local)
        self._values.append(values)

    def extend(self, other: "GatherBuffer") -> None:
        self._dst.extend(other._dst)
        self._values.extend(other._values)

    def merged(self) -> Optional[Dict[str, np.ndarray]]:
        """All buffered updates concatenated, or ``None`` if empty."""
        if not self._dst:
            return None
        return {
            "dst": np.concatenate(self._dst),
            "value": np.concatenate(self._values),
        }


def canonical_update_order(
    dst_local: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """A schedule-independent total order over gather updates.

    Sorts by destination vertex, breaking ties by the raw bytes of the
    update value — a total order over the update *multiset*, so any two
    runs that produce the same updates (in any arrival order) replay
    them identically.  The byte comparison is arbitrary but total (it
    distinguishes NaN payloads and -0.0/0.0, which compare equal
    numerically) and works for structured update dtypes too.
    """
    if len(values) == 0:
        return np.arange(0)
    raw = np.ascontiguousarray(values).view(np.uint8)
    raw = raw.reshape(len(values), -1)
    keys = [raw[:, i] for i in range(raw.shape[1] - 1, -1, -1)]
    keys.append(np.asarray(dst_local))
    return np.lexsort(keys)


def needs_canonical_order(algorithm: GasAlgorithm) -> bool:
    """Whether ``algorithm``'s gather must replay updates canonically.

    A min, a max or an integer sum gives the same bits in any order, so
    those reductions fold updates in arrival order.  A float sum rounds
    differently per order, and a hand-written gather (``reduction is
    None``) promises nothing, so both keep the canonical replay.  Also
    rejects a class that neither declares a supported reduction nor
    overrides ``gather``.
    """
    reduction = algorithm.reduction
    if reduction is None:
        if getattr(algorithm.gather, "__func__", None) is GasAlgorithm.gather:
            raise TypeError(
                f"{type(algorithm).__name__} must declare a reduction "
                f"or override gather"
            )
        return True
    if reduction not in (np.add, np.minimum, np.maximum):
        raise TypeError(
            f"{type(algorithm).__name__} declares reduction {reduction!r}; "
            f"expected np.add, np.minimum, np.maximum or None"
        )
    accum_dtype = algorithm.make_accumulator(0).dtype
    return reduction is np.add and np.issubdtype(accum_dtype, np.inexact)


class Workload:
    """Interface between the computation engine and the data plane."""

    algorithm: GasAlgorithm
    layout: PartitionLayout

    def vertex_set_bytes(self, partition: int) -> int:
        raise NotImplementedError

    def accum_bytes(self, partition: int) -> int:
        raise NotImplementedError

    def scatter_chunk(
        self, partition: int, chunk: Chunk, iteration: int
    ) -> List[UpdateBatch]:
        raise NotImplementedError

    def begin_gather(self, partition: int):
        """Create a fresh (identity) accumulator handle for ``partition``."""
        raise NotImplementedError

    def gather_chunk(self, partition: int, accum, chunk: Chunk) -> None:
        raise NotImplementedError

    def merge_accumulators(self, partition: int, master_accum, other) -> None:
        raise NotImplementedError

    def apply_partition(self, partition: int, accum, iteration: int) -> int:
        """Fold ``accum`` into the vertex values; return #changed."""
        raise NotImplementedError

    def finished(self, iteration: int, stats) -> bool:
        raise NotImplementedError

    def final_values(self) -> Optional[State]:
        return None


class DataWorkload(Workload):
    """Functional execution over real numpy payloads."""

    def __init__(
        self,
        algorithm: GasAlgorithm,
        layout: PartitionLayout,
        ctx: GraphContext,
        initial_values: Optional[State] = None,
    ):
        self.algorithm = algorithm
        self.layout = layout
        self.ctx = ctx
        self._canonical_order = needs_canonical_order(algorithm)
        self.values: State = algorithm.init_values(ctx)
        for name, array in self.values.items():
            if len(array) != ctx.num_vertices:
                raise ValueError(
                    f"state array {name!r} has length {len(array)}, "
                    f"expected {ctx.num_vertices}"
                )
        if initial_values is not None:
            # Resume from a checkpoint: overwrite the freshly initialized
            # state with the restored vertex values (Section 6.6 — all
            # computation state lives in the vertex values).
            for name, array in self.values.items():
                if name not in initial_values:
                    raise ValueError(f"checkpoint missing state array {name!r}")
                restored = np.asarray(initial_values[name])
                if restored.shape != array.shape:
                    raise ValueError(
                        f"checkpoint array {name!r} has shape "
                        f"{restored.shape}, expected {array.shape}"
                    )
                array[:] = restored

    # -- sizes ----------------------------------------------------------

    def vertex_set_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.vertex_bytes

    def accum_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.accum_bytes

    # -- scatter ----------------------------------------------------------

    def _partition_state(self, partition: int) -> State:
        start = self.layout.start(partition)
        stop = start + self.layout.vertex_count(partition)
        return state_slice(self.values, start, stop)

    def scatter_chunk(
        self, partition: int, chunk: Chunk, iteration: int
    ) -> List[UpdateBatch]:
        payload = chunk.payload
        if payload is None:
            raise ValueError("DataWorkload requires chunk payloads")
        src = payload["src"]
        dst = payload["dst"]
        weight = payload.get("weight")
        src_local = self.layout.to_local(partition, src)
        state = self._partition_state(partition)
        result = self.algorithm.scatter(state, src_local, dst, weight, iteration)
        if result is None:
            return []
        out_dst, out_values = result
        if len(out_dst) == 0:
            return []
        target = self.layout.partition_of(out_dst)
        order = np.argsort(target, kind="stable")
        sorted_targets = target[order]
        boundaries = np.searchsorted(
            sorted_targets, np.arange(self.layout.num_partitions + 1)
        )
        batches: List[UpdateBatch] = []
        for p in range(self.layout.num_partitions):
            lo, hi = boundaries[p], boundaries[p + 1]
            if lo == hi:
                continue
            index = order[lo:hi]
            count = int(hi - lo)
            batches.append(
                UpdateBatch(
                    partition=p,
                    count=count,
                    nbytes=count * self.algorithm.update_bytes,
                    payload={
                        "dst": out_dst[index],
                        "value": out_values[index],
                    },
                )
            )
        return batches

    # -- gather / apply ------------------------------------------------------
    #
    # The accumulator handle workers pass around is a GatherBuffer of
    # raw updates, not the algorithm's numeric accumulator: the numeric
    # reduction happens exactly once per partition per iteration, at
    # apply time — in canonical update order where the reduction is
    # order-sensitive (see needs_canonical_order).  The simulated costs
    # are unchanged — chunk CPU is charged on receipt, the shipped
    # "accumulator" keeps its accum_bytes wire size, and merge/apply CPU
    # is charged by the master as before.

    def begin_gather(self, partition: int):
        return GatherBuffer()

    def gather_chunk(self, partition: int, accum, chunk: Chunk) -> None:
        payload = chunk.payload
        if payload is None:
            raise ValueError("DataWorkload requires chunk payloads")
        dst_local = self.layout.to_local(partition, payload["dst"])
        accum.append(dst_local, payload["value"])

    def merge_accumulators(self, partition: int, master_accum, other) -> None:
        master_accum.extend(other)

    def apply_partition(self, partition: int, accum, iteration: int) -> int:
        state = self._partition_state(partition)
        numeric = self.algorithm.make_accumulator(
            self.layout.vertex_count(partition)
        )
        merged = accum.merged() if accum is not None else None
        if merged is not None:
            dst, values = merged["dst"], merged["value"]
            if self._canonical_order:
                order = canonical_update_order(dst, values)
                dst, values = dst[order], values[order]
            self.algorithm.gather(numeric, dst, values, state)
        return int(self.algorithm.apply(state, numeric, iteration))

    def finished(self, iteration: int, stats) -> bool:
        return self.algorithm.finished(iteration, stats)

    def final_values(self) -> Optional[State]:
        return self.values

    # -- checkpoint snapshots (fault tolerance) --------------------------

    def snapshot_partition(self, partition: int) -> State:
        """Deep copy of one partition's vertex state (checkpoint payload)."""
        return {
            name: np.copy(array)
            for name, array in self._partition_state(partition).items()
        }

    def restore_partition(self, partition: int, snapshot: State) -> None:
        """Overwrite one partition's vertex state from a checkpoint."""
        state = self._partition_state(partition)
        for name, array in state.items():
            if name not in snapshot:
                raise ValueError(f"checkpoint missing state array {name!r}")
            array[:] = snapshot[name]

    def reset_to_initial(self) -> None:
        """Roll all vertex state back to the algorithm's initial values.

        Used when a failure strikes before the first checkpoint becomes
        durable: recovery restarts the computation from scratch.
        """
        fresh = self.algorithm.init_values(self.ctx)
        for name, array in self.values.items():
            array[:] = fresh[name]


class ModelWorkload(Workload):
    """Phantom execution driven by an activity profile.

    ``profile`` supplies, per iteration, the expected number of updates
    produced per edge *streamed* (the whole edge set is streamed every
    scatter — the X-Stream/Chaos design) and the iteration count.
    Updates are routed to partitions proportionally to their vertex
    counts (uniform mixing), which matches random-destination skew well
    enough for capacity projections.
    """

    def __init__(self, algorithm: GasAlgorithm, layout: PartitionLayout, profile):
        self.algorithm = algorithm
        self.layout = layout
        self.profile = profile
        self._partition_weights = np.array(
            [layout.vertex_count(p) for p in range(layout.num_partitions)],
            dtype=np.float64,
        )
        total = self._partition_weights.sum()
        if total > 0:
            self._partition_weights /= total

    def vertex_set_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.vertex_bytes

    def accum_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.accum_bytes

    def scatter_chunk(
        self, partition: int, chunk: Chunk, iteration: int
    ) -> List[UpdateBatch]:
        factor = self.profile.update_factor(iteration)
        produced = int(round(chunk.records * factor))
        if produced <= 0:
            return []
        batches: List[UpdateBatch] = []
        # Deterministic proportional split (largest-remainder not needed
        # at chunk granularity; rounding noise is negligible).
        for p in range(self.layout.num_partitions):
            count = int(round(produced * self._partition_weights[p]))
            if count <= 0:
                continue
            batches.append(
                UpdateBatch(
                    partition=p,
                    count=count,
                    nbytes=count * self.algorithm.update_bytes,
                    payload=None,
                )
            )
        return batches

    def begin_gather(self, partition: int):
        return None  # phantom accumulator

    def gather_chunk(self, partition: int, accum, chunk: Chunk) -> None:
        pass

    def merge_accumulators(self, partition: int, master_accum, other) -> None:
        pass

    def apply_partition(self, partition: int, accum, iteration: int) -> int:
        return 0

    def finished(self, iteration: int, stats) -> bool:
        return iteration + 1 >= self.profile.iterations
