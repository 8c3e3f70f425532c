"""The per-run instrumentation seam.

Every component of a run (network, storage and computation engines,
barriers, checkpoint registry, fault supervisor) holds one
:class:`Probe` and reports each event to it once.  The probe owns what
no component decides any more: which instruments are on (the
:class:`~repro.obs.tracer.Tracer`, its causal recorder, the
happens-before sanitizer), the trace track layout (each component's
``(pid, tid)`` lane and name), and run binding (attaching the
instruments to a fresh simulation, the resource sampler, and the job
markers that open and close the run).

A plain run holds :data:`NULL_PROBE`, whose hooks are no-op methods, so
the engines carry no instrumentation branch.  :func:`open_probe` builds
the probe of a traced or sanitized run: a hook served by one instrument
is that instrument's own bound method, and a hook that feeds two (a
send stamps the sanitizer clock and the causal context; a delivery
joins both) does both in one call.  A new hook is added here, once.

:class:`EngineSpans` is an engine's span stack: a span opened with a
Figure 17 category charges it to the engine's Breakdown when it ends.
Spans are explicit begin/end pairs with no ``finally``, so when the
fault supervisor kills an engine its open span charges nothing.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Tuple

from repro.obs.counters import ResourceSampler
from repro.obs.tracer import (
    TID_CPU,
    TID_DEVICE,
    TID_ENGINE,
    TID_JOB,
    TID_NIC_RX,
    TID_NIC_TX,
)

__all__ = ["EngineSpans", "NULL_PROBE", "Probe", "open_probe"]


class EngineSpans:
    """One engine's span stack, charging Breakdown categories (the
    traced form also records each span on the machine's engine track)."""

    __slots__ = ("_sim", "_metrics", "_open")

    def __init__(self, sim, metrics):
        self._sim = sim
        self._metrics = metrics
        self._open: List[Tuple[Optional[str], float]] = []

    def begin(self, name: str, cat: Optional[str] = None, args=None) -> None:
        """Open a span; ``cat`` is the Breakdown category it charges."""
        self._open.append((cat, self._sim.now))

    def end(self, args=None) -> float:
        """Close the innermost span; returns its simulated duration."""
        cat, start = self._open.pop()
        elapsed = self._sim.now - start
        if cat is not None:
            self._metrics.add(cat, elapsed)
        return elapsed

    def instant(self, name: str, args=None) -> None:
        """A marker on the engine track."""

    def complete(self, name, start, duration, cat=None, args=None) -> None:
        """A span of known extent; charges nothing, and an empty one is
        not recorded."""


class _TracedSpans(EngineSpans):
    __slots__ = ("_track",)

    def __init__(self, sim, metrics, track):
        super().__init__(sim, metrics)
        self._track = track

    def begin(self, name, cat=None, args=None):
        self._open.append((cat, self._sim.now))
        self._track.begin(name, cat=cat, args=args)

    def end(self, args=None):
        elapsed = EngineSpans.end(self)
        self._track.end(args=args)
        return elapsed

    def instant(self, name, args=None):
        self._track.instant(name, args=args)

    def complete(self, name, start, duration, cat=None, args=None):
        if duration > 0:
            self._track.complete(name, start, duration, cat=cat, args=args)


class Probe:
    """The hooks a run's components call; here, all no-ops."""

    # -- run binding -------------------------------------------------------

    def start_sampling(self, add_meters) -> None:
        """Start the resource sampler, if the tracer samples, after
        ``add_meters(sampler)`` registers the run's meters."""

    def end_run(self, integrity: dict, check_spans: bool = True) -> None:
        """Last sample, job markers, and the leaked-span check."""

    # -- track layout ------------------------------------------------------

    def trace_nics(self, nics) -> None:
        """Record every NIC's egress and ingress service intervals."""

    def trace_device(self, machine: int, device, name: str) -> None:
        """Record a storage device's service intervals."""

    def engine_spans(self, machine: int, sim, metrics, cores) -> EngineSpans:
        """The span stack of ``machine``'s computation engine."""
        return EngineSpans(sim, metrics)

    def job_instant(self, name, cat=None, args=None) -> None:
        """A marker on the cluster job track."""

    def job_span(self, name, start, duration, cat=None, args=None) -> None:
        """A span of known extent on the cluster job track."""

    # -- sanitizer and message edges ---------------------------------------

    def access(self, key, machine: int, write: bool = False, label: str = ""):
        """``machine`` touched cross-machine shared state ``key``."""

    def on_barrier(self, parties) -> None:
        """A barrier released ``parties`` together."""

    def on_send(self, message, parent=None, attempt: int = 0) -> None:
        """Stamp an outgoing message (sanitizer clock, causal context)."""

    def on_deliver(self, message) -> None:
        """A message reached its mailbox."""

    def on_dispatch(self, machine: int, message) -> None:
        """``machine``'s engine started handling ``message``."""

    # -- causal DAG ----------------------------------------------------------

    def causal_head(self, machine: int) -> Optional[int]:
        """Id of the last causal event that affected ``machine``."""
        return None

    def barrier_arrive(self, machine, epoch, label, phase) -> None:
        """``machine`` reached the barrier ``(epoch, label, phase)``."""

    def barrier_release(self, machine, epoch, label, phase) -> None:
        """``machine`` resumed from the barrier ``(epoch, label, phase)``."""

    def mark(self, cat, machine=None, parent=None, parents=None, args=None):
        """A protocol milestone in the causal DAG; returns its event."""
        return None


NULL_PROBE = Probe()

#: Hooks one instrument serves alone: probe hook -> the instrument's
#: method that replaces it (no forwarding call).
_CAUSAL_HOOKS = {
    "causal_head": "head",
    "barrier_arrive": "barrier_arrive",
    "barrier_release": "barrier_release",
    "mark": "mark",
}
_JOB_TRACK_HOOKS = {"job_instant": "instant", "job_span": "complete"}
_SANITIZER_HOOKS = {"access": "access", "on_barrier": "on_barrier"}


class _InstrumentedProbe(Probe):
    """A probe with a tracer, a sanitizer, or both, bound to one run."""

    def __init__(self, tracer, sanitizer, sim, config, algorithm: str):
        self.tracer = tracer
        self.sanitizer = sanitizer
        self._sim = sim
        self._algorithm = algorithm
        self._causal = None
        self._sampler: Optional[ResourceSampler] = None
        job = None
        if tracer is not None:
            self._causal = tracer.causal
            self._bind(tracer.causal, _CAUSAL_HOOKS)
            tracer.bind_run(lambda: sim.now)
            for m in range(config.machines):
                tracer.set_process(m, f"machine{m}")
            tracer.set_process(config.machines, "cluster")
            job = tracer.thread(config.machines, TID_JOB, "job")
            self._bind(job, _JOB_TRACK_HOOKS)
            sim.process_hook = lambda process, phase: job.instant(
                f"process.{phase}", args={"name": process.name}
            )
            # Self-describing trace: the attribution analyzer
            # (repro.obs.critpath) reads the cluster shape from this
            # marker so saved traces can be analyzed without the config.
            job.instant(
                "job.config",
                args={
                    "machines": config.machines,
                    "cores": config.cores,
                    "chunk_bytes": config.chunk_bytes,
                    "batch_factor": config.batch_factor,
                    "steal_alpha": config.steal_alpha,
                    "request_window": config.effective_request_window(),
                    "algorithm": algorithm,
                },
            )
        if sanitizer is not None:
            self._bind(sanitizer, _SANITIZER_HOOKS)
            # Races land on the job track as spans when tracing too.
            sanitizer.bind_run(config.machines, now=lambda: sim.now, track=job)

    def _bind(self, instrument, hooks) -> None:
        for hook, method in hooks.items():
            setattr(self, hook, getattr(instrument, method))

    def start_sampling(self, add_meters):
        tracer = self.tracer
        if tracer is None or tracer.sample_interval is None:
            return
        sampler = ResourceSampler(self._sim, tracer, tracer.sample_interval)
        add_meters(sampler)
        sampler.start()
        self._sampler = sampler

    def end_run(self, integrity, check_spans=True):
        if self._sampler is not None:
            self._sampler.sample()  # close the timelines at the finish line
        self.job_instant("job.integrity", args=dict(integrity))
        self.job_instant("job.done", args={"algorithm": self._algorithm})
        if check_spans and self.tracer is not None:
            _check_open_spans(self.tracer)

    def trace_nics(self, nics):
        if self.tracer is None:
            return
        for machine, nic in enumerate(nics):
            nic.egress.enable_trace(
                self.tracer.thread(machine, TID_NIC_TX, "nic.tx"), label="tx"
            )
            nic.ingress.enable_trace(
                self.tracer.thread(machine, TID_NIC_RX, "nic.rx"), label="rx"
            )

    def trace_device(self, machine, device, name):
        if self.tracer is not None:
            device.enable_trace(
                self.tracer.thread(machine, TID_DEVICE, name), label="io"
            )

    def engine_spans(self, machine, sim, metrics, cores):
        if self.tracer is None:
            return EngineSpans(sim, metrics)
        # Each span carries the Breakdown category it charges, so a
        # trace's category totals reconcile with Figure 17.
        track = self.tracer.thread(machine, TID_ENGINE, "engine")
        # Chunk-processing CPU occupancy on its own track: the
        # attribution analyzer unions these spans into the machine's
        # CPU-busy timeline.
        cores.enable_trace(
            self.tracer.thread(machine, TID_CPU, "cpu"), label="exec"
        )
        return _TracedSpans(sim, metrics, track)

    def on_send(self, message, parent=None, attempt=0):
        if self.sanitizer is not None:
            message.clock = self.sanitizer.on_send(message.src, message.kind)
        if self._causal is not None:
            message.ctx = self._causal.on_send(
                message.kind, message.src, message.dst, message.size,
                parent=parent, attempt=attempt,
            )

    def on_deliver(self, message):
        if message.clock is not None:
            # A synchronization message joins the sender's vector clock
            # into the destination machine (happens-before).
            self.sanitizer.on_receive(message.dst, message.clock)
        if message.ctx is not None:
            self._causal.on_deliver(message.ctx)

    def on_dispatch(self, machine, message):
        if message.ctx is not None:
            # The handled message becomes the machine's chain head, so
            # replies and later sends inherit the right causal parent.
            self._causal.on_dispatch(machine, message.ctx)


def open_probe(tracer, sanitizer, sim, config, algorithm: str) -> Probe:
    """One run's probe: :data:`NULL_PROBE` without instruments."""
    if tracer is None and sanitizer is None:
        return NULL_PROBE
    return _InstrumentedProbe(tracer, sanitizer, sim, config, algorithm)


def _check_open_spans(tracer) -> None:
    """Warn if a clean run ends with spans still open (leaked begin()).

    A leaked span skews every downstream analysis (critpath sees an
    interval that never closes; durations go negative at export), so it
    is worth surfacing loudly, but not worth failing the job over.
    """
    leaked = tracer.open_span_count()
    if leaked:
        warnings.warn(
            f"run finished with {leaked} trace span(s) still open; "
            f"the trace's durations are unreliable (leaked begin()?)",
            RuntimeWarning,
            stacklevel=4,
        )
