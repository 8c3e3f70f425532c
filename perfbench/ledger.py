"""Outside-in host-time ledger for one Chaos job.

The program is not edited: :class:`Ledger` replaces the public
functions of each layer (see :data:`LAYERS`) with timing wrappers for
the duration of a ``with ledger.instrumented(algorithm):`` block and
puts the originals back afterwards.  Every call of a wrapped function
becomes a span ``(name, start, end, parent, job)``; the parent is the
innermost wrapped call that was still open, so a layer's *self* time is
its span's duration minus the durations of its child spans.  Spans are
kept in flat in-memory arrays and written out once, by :meth:`save`.

The root span of a job is ``run_algorithm`` itself (layer
``runtime.other``), so the self times of one job add up to the root's
duration by construction: the ledger *closes*.  Whatever runs inside
``Simulator.run_until`` without crossing another wrapped boundary --
the event loop, engine and store control code -- is ``sim.dispatch``.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (layer, module, attribute owner inside the module or None, attribute).
#: ``owner`` names a class whose method is wrapped; ``None`` wraps a
#: module-level name *as bound in that module*, which is where callers
#: look it up.
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("partition.edges", "repro.core.runtime", None, "partition_edges"),
    ("core.scatter", "repro.core.workload", "DataWorkload", "scatter_chunk"),
    ("core.reduce", "repro.core.workload", None, "canonical_update_order"),
    ("core.gather", "repro.core.workload", "DataWorkload", "gather_chunk"),
    ("core.apply", "repro.core.workload", "DataWorkload", "apply_partition"),
    ("store.seal", "repro.core.compute", None, "seal_chunk"),
    ("store.seal", "repro.store.engine", None, "seal_chunk"),
    ("store.verify", "repro.core.compute", None, "verify_chunk"),
    ("store.verify", "repro.store.engine", None, "verify_chunk"),
    ("store.verify", "repro.faults.supervisor", None, "verify_chunk"),
    ("store.preload", "repro.store.engine", "StorageEngine", "preload_chunk"),
    ("net.send", "repro.net.transport", "Network", "send"),
    ("sim.dispatch", "repro.sim.engine", "Simulator", "run_until"),
)

#: The algorithm's own kernels, wrapped on the algorithm's class.
ALGO_LAYERS = (("algo.scatter", "scatter"), ("algo.gather", "gather"),
               ("algo.apply", "apply"))

#: Layer of the job's root span (the ``run_algorithm`` call).
ROOT = "runtime.other"

#: Extra work counted at a boundary: layer -> f(args) -> count.
#: ``canonical_update_order(dst_local, values)`` orders len(values) updates.
WORK = {"core.reduce": lambda args: len(args[1])}

#: Every layer, in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [name for name, *_ in LAYERS] + [name for name, _ in ALGO_LAYERS] + [ROOT]
))


class Ledger:
    """Span recorder plus the layer wrappers that feed it."""

    def __init__(self):
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(LAYER_NAMES)}
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.jobs = array("H")
        self.work: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        self._job = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, func: Callable) -> Callable:
        nid = self._ids[name]
        names, parents, starts, ends, jobs = (
            self.names, self.parents, self.starts, self.ends, self.jobs)
        stack = self._stack
        clock = time.perf_counter
        work = WORK.get(name)
        ledger = self

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(ledger._job)
            ends.append(0.0)
            stack.append(index)
            if work is not None:
                ledger.work[name] = ledger.work.get(name, 0) + work(args)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = func
        return wrapper

    @contextmanager
    def instrumented(self, algorithm) -> Iterator[Callable]:
        """Wrap every layer; yield a traced ``run_algorithm``.

        The originals are restored on exit, also when the job raises.
        """
        patched = []  # (owner, attribute, original or None if inherited)
        targets = []
        for name, module, owner, attr in LAYERS:
            mod = importlib.import_module(module)
            targets.append((name, getattr(mod, owner) if owner else mod, attr))
        for name, attr in ALGO_LAYERS:
            targets.append((name, type(algorithm), attr))
        try:
            for name, owner, attr in targets:
                original = vars(owner).get(attr)
                current = getattr(owner, attr)
                patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, current))
            runtime = importlib.import_module("repro.core.runtime")
            yield self._wrap(ROOT, runtime.run_algorithm)
        finally:
            for owner, attr, original in reversed(patched):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._job += 1

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[str, np.ndarray]:
        """Per layer, its self seconds in each job (array indexed by job)."""
        n = len(self.starts)
        jobs = max(self._job, 1)
        if n == 0:
            return {name: np.zeros(jobs) for name in LAYER_NAMES}
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        name = np.frombuffer(self.names, dtype=np.uint16)
        job = np.frombuffer(self.jobs, dtype=np.uint16)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - child
        return {
            layer: np.bincount(job[name == i], weights=own[name == i],
                               minlength=jobs)
            for i, layer in enumerate(LAYER_NAMES)
        }

    def call_counts(self) -> Dict[str, int]:
        name = np.frombuffer(self.names, dtype=np.uint16)
        counts = np.bincount(name, minlength=len(LAYER_NAMES))
        return {layer: int(counts[i]) for i, layer in enumerate(LAYER_NAMES)}

    def save(self, path: str) -> None:
        """Write every span, once, as numpy arrays (``.npz``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            layer_names=np.array(LAYER_NAMES),
            name=np.frombuffer(self.names, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            job=np.frombuffer(self.jobs, dtype=np.uint16),
        )
