"""Bottleneck attribution: exact wall-clock decomposition of a trace.

The analyzer replays a recorded trace (live :class:`~repro.obs.tracer.Tracer`
or a saved Chrome-trace document) and attributes every simulated second
of every machine to exactly one of :data:`ATTRIBUTION_CATEGORIES`:

* ``storage_busy``  — the local device was serving a request;
* ``storage_queue`` — the device was serving a *backlogged* request
  (one that waited behind another), the queueing share of busy time;
* ``nic_busy``      — a NIC direction was moving bytes while the
  engine demanded progress;
* ``net_wait``      — the engine waited with no local resource busy
  (remote service time, protocol round trips);
* ``cpu``           — cores were executing chunk processing or Apply;
* ``barrier``       — idle at a global phase barrier;
* ``steal``         — work-stealing overhead: vertex-set copies on the
  stealer side, accumulator shipping, masters waiting for stealer
  accumulators, and steal-proposal round trips;
* ``recovery``      — inside a rollback window (work discarded by a
  fault plus checkpoint-restore time).

The decomposition is built from an elementary-interval sweep over every
machine's timeline, so the category seconds of one machine sum to the
trace duration *by construction* (closure is asserted to float
precision by :meth:`AttributionReport.closure_error`).

Classification priority per elementary interval: recovery window >
engine barrier state > steal state > Apply/merge CPU > demand states,
with demand time refined by which local resource was busy (device,
then NIC, then cores, else ``net_wait``).

Beyond the decomposition the report names the binding resource, checks
the measured steady-state storage utilization against the analytic
rho(m, k) of Eq. 4 (:func:`repro.core.batching.utilization`), and flags
stragglers: machines whose barrier wait in an iteration exceeds the
Section 5.4 stealing bound ``(1 + alpha) * max(vertex load) +
max(chunk service)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import (
    TID_CPU,
    TID_DEVICE,
    TID_ENGINE,
    TID_JOB,
    TID_NIC_RX,
    TID_NIC_TX,
    Tracer,
)

ATTRIBUTION_CATEGORIES = (
    "storage_busy",
    "storage_queue",
    "nic_busy",
    "net_wait",
    "cpu",
    "barrier",
    "steal",
    "recovery",
)

#: Engine spans that are pure stealing overhead wherever they appear.
_STEAL_SPANS = frozenset({"merge_wait", "ship_accum", "steal_pass"})

#: Engine spans that are pure computation (the Apply/merge phase runs
#: on the calling engine's cores).
_CPU_SPANS = frozenset({"merge_apply"})

_BARRIER_SPANS = frozenset({"barrier", "preprocess.barrier"})

#: Job-track span categories marking rollback windows.
_RECOVERY_CATS = frozenset({"lost", "restore"})

#: Trace Event Format microseconds -> simulated seconds.
_SECONDS = 1e-6

#: Tolerance for "this device span started exactly when the previous
#: one finished", i.e. the request had queued (relative to timestamps).
_QUEUE_EPS = 1e-9


class AttributionError(ValueError):
    """Raised when a trace cannot be attributed (e.g. spans disabled)."""


# ---------------------------------------------------------------------------
# Interval helpers
# ---------------------------------------------------------------------------


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping intervals, as sorted disjoint ones."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _intersect(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Intersection of two sorted disjoint interval lists."""
    out: List[Tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _measure(intervals: List[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


class _Cursor:
    """Monotone membership test over a sorted disjoint interval list.

    The sweep only asks about elementary intervals whose endpoints are
    drawn from the union of all interval boundaries, so each query
    interval is entirely inside or entirely outside every interval.
    """

    __slots__ = ("intervals", "index")

    def __init__(self, intervals: List[Tuple[float, float]]):
        self.intervals = intervals
        self.index = 0

    def covers(self, start: float, end: float) -> bool:
        intervals = self.intervals
        while self.index < len(intervals) and intervals[self.index][1] <= start:
            self.index += 1
        if self.index >= len(intervals):
            return False
        s, e = intervals[self.index]
        return s <= start and end <= e


class _SpanCursor:
    """Like :class:`_Cursor` but returns the covering span's payload."""

    __slots__ = ("spans", "index")

    def __init__(self, spans: List[Tuple[float, float, bool]]):
        self.spans = spans
        self.index = 0

    def lookup(self, start: float, end: float) -> Optional[bool]:
        spans = self.spans
        while self.index < len(spans) and spans[self.index][1] <= start:
            self.index += 1
        if self.index >= len(spans):
            return None
        s, e, queued = spans[self.index]
        if s <= start and end <= e:
            return queued
        return None


# ---------------------------------------------------------------------------
# Engine timeline replay
# ---------------------------------------------------------------------------


@dataclass
class _Segment:
    start: float
    end: float
    state: str  # "barrier" | "steal" | "cpu" | "demand"
    label: str  # "preprocess" or the iteration number as a string
    phase: str  # "preprocess" | "scatter" | "gather"
    #: Engine innermost span is a ``stream`` (windowed chunk streaming,
    #: the regime Eq. 4 models).
    streaming: bool = False


def _replay_engine(
    events: List[dict],
    duration: float,
    recovery: List[Tuple[float, float]] = (),
) -> Tuple[List[_Segment], Dict[Tuple[str, str], float]]:
    """Replay one engine track's B/E events into state segments.

    ``recovery`` is the sorted list of rollback windows: every engine of
    the pre-fault epoch is killed during a window, so spans still open
    when a window closes will never see their E event.

    Returns the segments covering ``[0, duration]`` and the maximum
    ``vertex_load`` span duration per (iteration label, phase) — the V
    term of the Section 5.4 straggler bound.
    """
    segments: List[_Segment] = []
    vertex_load_max: Dict[Tuple[str, str], float] = {}
    # B events whose E never arrives: spans held open by an engine that
    # was killed (or still open at trace end).  LIFO matching is exact
    # because killed epochs only ever *leak* opens — they never emit an
    # unmatched E.
    match_stack: List[int] = []
    for index, event in enumerate(events):
        if event["ph"] == "B":
            match_stack.append(index)
        elif event["ph"] == "E" and match_stack:
            match_stack.pop()
    unclosed = frozenset(match_stack)
    # Stack entries: (name, cat, args, push_ts, event_index).  The
    # restarted epoch's spans stack above the dead epoch's unclosed
    # entries, so pops (LIFO) still match the live pushes; the stale
    # entries themselves are truncated when their rollback window
    # closes (below) so they can never leak into post-restart state
    # classification.
    stack: List[Tuple[str, Optional[str], dict, float, int]] = []
    rec_index = 0
    prev = 0.0
    last_label = "preprocess"
    last_phase = "preprocess"

    def current_state() -> Tuple[str, str, str, bool]:
        label = None
        phase = None
        for name, _cat, args, _ts, _idx in reversed(stack):
            if name in ("scatter", "gather"):
                label = str(args.get("iteration", "?"))
                phase = name
                break
        state = "demand"
        streaming = bool(stack) and stack[-1][0] == "stream"
        if stack:
            name, _cat, args, _ts, _idx = stack[-1]
            if name in _BARRIER_SPANS:
                state = "barrier"
            elif name in _STEAL_SPANS:
                state = "steal"
            elif name in _CPU_SPANS:
                state = "cpu"
            elif name == "vertex_load":
                for pname, _pc, pargs, _pt, _pi in reversed(stack[:-1]):
                    if pname.startswith("partition"):
                        if pargs.get("role") == "stealer":
                            state = "steal"
                        break
        return state, label or last_label, phase or last_phase, streaming

    def emit(until: float) -> None:
        nonlocal prev
        if until > prev:
            state, label, phase, streaming = current_state()
            segments.append(
                _Segment(prev, until, state, label, phase, streaming)
            )
            prev = until

    def close_windows(until: float) -> None:
        # A span still open when a rollback window closes and whose E
        # event never arrives was held by a killed engine: flush the
        # pre-window segment, then drop the stale entries so
        # post-restart time is never classified by a dead epoch's
        # innermost span.  (Spans that do close later — an engine that
        # survived the window — are kept.)
        nonlocal rec_index
        while rec_index < len(recovery) and recovery[rec_index][1] <= until:
            window_end = recovery[rec_index][1]
            emit(window_end)
            stack[:] = [
                entry
                for entry in stack
                if entry[4] not in unclosed or entry[3] >= window_end
            ]
            rec_index += 1

    for index, event in enumerate(events):
        ph = event["ph"]
        if ph not in ("B", "E"):
            continue
        ts = event["ts"]
        close_windows(ts)
        emit(ts)
        if ph == "B":
            stack.append(
                (
                    event["name"],
                    event.get("cat"),
                    event.get("args") or {},
                    ts,
                    index,
                )
            )
            if event["name"] in ("scatter", "gather"):
                last_label = str(event.get("args", {}).get("iteration", "?"))
                last_phase = event["name"]
        elif stack:
            name, _cat, _args, t0, _idx = stack.pop()
            if name == "vertex_load":
                _state, label, phase, _streaming = current_state()
                key = (label, phase)
                span = ts - t0
                if span > vertex_load_max.get(key, 0.0):
                    vertex_load_max[key] = span
    close_windows(duration)
    emit(duration)
    return segments, vertex_load_max


# ---------------------------------------------------------------------------
# Report dataclasses
# ---------------------------------------------------------------------------


@dataclass
class MachineAttribution:
    """One machine's wall clock, split across the categories."""

    machine: int
    seconds: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.seconds.get(c, 0.0) for c in ATTRIBUTION_CATEGORIES)


@dataclass
class IterationAttribution:
    """Cluster engine-seconds per category for one iteration label."""

    label: str
    seconds: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.seconds.get(c, 0.0) for c in ATTRIBUTION_CATEGORIES)


@dataclass
class ResourceUtilization:
    """Busy fraction of one resource (``machine is None`` = cluster)."""

    resource: str  # "storage" | "nic" | "cpu"
    machine: Optional[int]
    busy_seconds: float
    utilization: float

    @property
    def slack(self) -> float:
        return max(0.0, 1.0 - self.utilization)


@dataclass
class StragglerFlag:
    """A machine whose barrier wait broke the Section 5.4 bound."""

    machine: int
    iteration: str
    phase: str
    wait: float
    bound: float


@dataclass
class AttributionReport:
    """Everything the bottleneck analyzer derives from one trace."""

    duration: float
    machines: int
    config: Dict[str, object] = field(default_factory=dict)
    per_machine: List[MachineAttribution] = field(default_factory=list)
    per_iteration: List[IterationAttribution] = field(default_factory=list)
    utilization: List[ResourceUtilization] = field(default_factory=list)
    #: Aggregate engine-seconds per category over all machines.
    cluster_seconds: Dict[str, float] = field(default_factory=dict)
    #: The binding resource: "storage", "network" or "cpu".
    bottleneck: str = ""
    #: The single largest attribution category.
    dominant_category: str = ""
    #: Steady-state storage utilization vs the Eq. 4 prediction.
    measured_rho: Optional[float] = None
    analytic_rho: Optional[float] = None
    stragglers: List[StragglerFlag] = field(default_factory=list)
    #: Per-machine engine-seconds idle at each phase barrier, keyed by
    #: ``(machine, iteration_label, phase)`` and summed over epochs.
    #: The causal slowest-chain analyzer cross-checks its chains
    #: against this decomposition (repro.obs.causal.cross_check).
    barrier_waits: Dict[Tuple[int, str, str], float] = field(
        default_factory=dict
    )

    def closure_error(self) -> float:
        """Worst |machine total - duration| over all machines (seconds)."""
        if not self.per_machine:
            return 0.0
        return max(abs(m.total() - self.duration) for m in self.per_machine)

    def rho_error(self) -> Optional[float]:
        """Relative error of measured vs analytic utilization."""
        if self.measured_rho is None or not self.analytic_rho:
            return None
        return abs(self.measured_rho - self.analytic_rho) / self.analytic_rho

    def category_fractions(self) -> Dict[str, float]:
        total = sum(self.cluster_seconds.get(c, 0.0) for c in ATTRIBUTION_CATEGORIES)
        if total <= 0:
            return {c: 0.0 for c in ATTRIBUTION_CATEGORIES}
        return {
            c: self.cluster_seconds.get(c, 0.0) / total
            for c in ATTRIBUTION_CATEGORIES
        }

    def to_dict(self) -> dict:
        return {
            "duration": self.duration,
            "machines": self.machines,
            "config": dict(self.config),
            "cluster_seconds": {
                c: self.cluster_seconds.get(c, 0.0)
                for c in ATTRIBUTION_CATEGORIES
            },
            "bottleneck": self.bottleneck,
            "dominant_category": self.dominant_category,
            "measured_rho": self.measured_rho,
            "analytic_rho": self.analytic_rho,
            "closure_error": self.closure_error(),
            "per_machine": [
                {"machine": m.machine, "seconds": dict(m.seconds)}
                for m in self.per_machine
            ],
            "per_iteration": [
                {"label": it.label, "seconds": dict(it.seconds)}
                for it in self.per_iteration
            ],
            "utilization": [
                {
                    "resource": u.resource,
                    "machine": u.machine,
                    "busy_seconds": u.busy_seconds,
                    "utilization": u.utilization,
                }
                for u in self.utilization
            ],
            "stragglers": [
                {
                    "machine": s.machine,
                    "iteration": s.iteration,
                    "phase": s.phase,
                    "wait": s.wait,
                    "bound": s.bound,
                }
                for s in self.stragglers
            ],
            "barrier_waits": [
                {
                    "machine": machine,
                    "label": label,
                    "phase": phase,
                    "wait": wait,
                }
                for (machine, label, phase), wait in sorted(
                    self.barrier_waits.items()
                )
            ],
        }


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _iteration_sort_key(label: str) -> Tuple[int, int, str]:
    if label == "preprocess":
        return (0, 0, label)
    if label.isdigit():
        return (1, int(label), label)
    return (2, 0, label)


def _device_spans(events: List[dict]) -> List[Tuple[float, float, bool]]:
    """Device busy spans with a queued flag (back-to-back service)."""
    raw = sorted(
        (e["ts"], e["ts"] + e.get("dur", 0.0)) for e in events if e["ph"] == "X"
    )
    spans: List[Tuple[float, float, bool]] = []
    prev_end = None
    for start, end in raw:
        if end <= start:
            continue
        queued = (
            prev_end is not None
            and abs(start - prev_end) <= _QUEUE_EPS * max(1.0, prev_end)
        )
        spans.append((start, end, queued))
        prev_end = end
    return spans


def _x_intervals(events: List[dict]) -> List[Tuple[float, float]]:
    return _merge(
        [(e["ts"], e["ts"] + e.get("dur", 0.0)) for e in events if e["ph"] == "X"]
    )


def analyze_events(
    events: List[dict],
    duration: Optional[float] = None,
    config: Optional[Dict[str, object]] = None,
) -> AttributionReport:
    """Attribute a normalized event list (timestamps in seconds).

    ``config`` overrides/augments the ``job.config`` marker the runtime
    embeds in traces; ``duration`` defaults to the largest event end.
    """
    by_track: Dict[Tuple[int, int], List[dict]] = {}
    trace_config: Dict[str, object] = {}
    max_ts = 0.0
    for event in events:
        ph = event.get("ph")
        if ph not in ("B", "E", "X", "i"):
            continue
        end = event["ts"] + event.get("dur", 0.0)
        if end > max_ts:
            max_ts = end
        if ph == "i" and event["name"] == "job.config" and not trace_config:
            trace_config = dict(event.get("args") or {})
        by_track.setdefault((event["pid"], event["tid"]), []).append(event)

    if config:
        trace_config.update(config)
    machines = int(trace_config.get("machines", 0))
    if not machines:
        machines = len(
            [key for key in by_track if key[1] == TID_ENGINE]
        )
    if not machines:
        raise AttributionError(
            "trace has no engine spans; record it with tracing enabled"
        )
    if duration is None:
        duration = max_ts
    if duration <= 0:
        raise AttributionError("trace duration is zero")

    # Rollback windows (cluster-wide: every machine stalls or loses
    # work during a recovery).
    recovery = _merge(
        [
            (e["ts"], e["ts"] + e.get("dur", 0.0))
            for e in by_track.get((machines, TID_JOB), [])
            if e["ph"] == "X" and e.get("cat") in _RECOVERY_CATS
        ]
    )

    report = AttributionReport(
        duration=duration, machines=machines, config=trace_config
    )
    iteration_seconds: Dict[str, Dict[str, float]] = {}
    barrier_waits: Dict[Tuple[int, str, str], float] = {}
    vertex_load_max: Dict[Tuple[str, str], float] = {}
    demand_by_machine: List[List[Tuple[float, float]]] = []
    device_busy_by_machine: List[List[Tuple[float, float]]] = []
    max_device_span = 0.0

    for machine in range(machines):
        engine_events = by_track.get((machine, TID_ENGINE), [])
        segments, vl_max = _replay_engine(engine_events, duration, recovery)
        for key, value in vl_max.items():
            if value > vertex_load_max.get(key, 0.0):
                vertex_load_max[key] = value

        dev_spans = _device_spans(by_track.get((machine, TID_DEVICE), []))
        for start, end, _q in dev_spans:
            if end - start > max_device_span:
                max_device_span = end - start
        device_busy = _merge([(s, e) for s, e, _q in dev_spans])
        device_busy_by_machine.append(device_busy)
        nic_busy = _merge(
            _x_intervals(by_track.get((machine, TID_NIC_TX), []))
            + _x_intervals(by_track.get((machine, TID_NIC_RX), []))
        )
        cpu_busy = _x_intervals(by_track.get((machine, TID_CPU), []))

        bounds = {0.0, duration}
        for seg in segments:
            bounds.add(seg.start)
            bounds.add(seg.end)
        for start, end, _q in dev_spans:
            bounds.add(start)
            bounds.add(end)
        for start, end in nic_busy + cpu_busy + recovery:
            bounds.add(start)
            bounds.add(end)
        edges = sorted(t for t in bounds if 0.0 <= t <= duration)

        seconds = {c: 0.0 for c in ATTRIBUTION_CATEGORIES}
        demand: List[Tuple[float, float]] = []
        dev_cursor = _SpanCursor(dev_spans)
        nic_cursor = _Cursor(nic_busy)
        cpu_cursor = _Cursor(cpu_busy)
        rec_cursor = _Cursor(recovery)
        seg_index = 0

        for a, b in zip(edges, edges[1:]):
            width = b - a
            # Advance to the engine segment containing [a, b).
            while seg_index < len(segments) and segments[seg_index].end <= a:
                seg_index += 1
            seg = segments[seg_index] if seg_index < len(segments) else None
            label = seg.label if seg is not None else "preprocess"
            state = seg.state if seg is not None else "demand"
            phase = seg.phase if seg is not None else "preprocess"

            if rec_cursor.covers(a, b):
                category = "recovery"
            elif state == "barrier":
                category = "barrier"
            elif state == "steal":
                category = "steal"
            elif state == "cpu":
                category = "cpu"
            else:
                queued = dev_cursor.lookup(a, b)
                if queued is not None:
                    category = "storage_queue" if queued else "storage_busy"
                elif nic_cursor.covers(a, b):
                    category = "nic_busy"
                elif cpu_cursor.covers(a, b):
                    category = "cpu"
                else:
                    category = "net_wait"
                # Steady-state sample for the Eq. 4 check: the engine
                # is inside windowed chunk streaming of a numbered
                # iteration (the regime the batching model describes).
                if label.isdigit() and seg is not None and seg.streaming:
                    demand.append((a, b))

            seconds[category] += width
            bucket = iteration_seconds.setdefault(
                label, {c: 0.0 for c in ATTRIBUTION_CATEGORIES}
            )
            bucket[category] += width
            if category == "barrier" and phase in ("scatter", "gather"):
                key = (machine, label, phase)
                barrier_waits[key] = barrier_waits.get(key, 0.0) + width

        report.per_machine.append(
            MachineAttribution(machine=machine, seconds=seconds)
        )
        demand_by_machine.append(_merge(demand))

        dev_busy_s = _measure(device_busy)
        nic_busy_s = _measure(nic_busy)
        cpu_busy_s = _measure(cpu_busy)
        report.utilization.append(
            ResourceUtilization("storage", machine, dev_busy_s, dev_busy_s / duration)
        )
        report.utilization.append(
            ResourceUtilization("nic", machine, nic_busy_s, nic_busy_s / duration)
        )
        report.utilization.append(
            ResourceUtilization("cpu", machine, cpu_busy_s, cpu_busy_s / duration)
        )

    # Cluster aggregates -----------------------------------------------------
    for category in ATTRIBUTION_CATEGORIES:
        report.cluster_seconds[category] = sum(
            m.seconds.get(category, 0.0) for m in report.per_machine
        )
    for resource in ("storage", "nic", "cpu"):
        busy = sum(
            u.busy_seconds
            for u in report.utilization
            if u.resource == resource and u.machine is not None
        )
        report.utilization.append(
            ResourceUtilization(
                resource, None, busy, busy / (machines * duration)
            )
        )

    report.per_iteration = [
        IterationAttribution(label=label, seconds=iteration_seconds[label])
        for label in sorted(iteration_seconds, key=_iteration_sort_key)
    ]

    cs = report.cluster_seconds
    resource_seconds = {
        "storage": cs["storage_busy"] + cs["storage_queue"],
        "network": cs["nic_busy"] + cs["net_wait"],
        "cpu": cs["cpu"],
    }
    report.bottleneck = max(
        sorted(resource_seconds), key=lambda r: resource_seconds[r]
    )
    report.dominant_category = max(
        ATTRIBUTION_CATEGORIES, key=lambda c: cs[c]
    )

    # Steady-state utilization vs Eq. 4 --------------------------------------
    window = demand_by_machine[0] if demand_by_machine else []
    for intervals in demand_by_machine[1:]:
        window = _intersect(window, intervals)
    window_len = _measure(window)
    if window_len > 0:
        busy_in_window = sum(
            _measure(_intersect(device_busy_by_machine[m], window))
            for m in range(machines)
        )
        report.measured_rho = busy_in_window / (machines * window_len)
    batch_factor = trace_config.get("batch_factor")
    if batch_factor:
        from repro.core.batching import utilization as analytic_utilization

        report.analytic_rho = analytic_utilization(machines, int(batch_factor))

    # Straggler detection (Section 5.4 bound) --------------------------------
    # With stealing on, the residual imbalance at a phase barrier is
    # bounded by the cost of the last steal that could not happen: the
    # vertex-set copy (V, inflated by the Eq. 2 acceptance factor
    # alpha) plus the drain of the request window already in flight.
    alpha = float(trace_config.get("steal_alpha") or 0.0) or 1.0
    window = int(trace_config.get("request_window") or 10)
    for (machine, label, phase), wait in sorted(barrier_waits.items()):
        if not label.isdigit():
            continue
        bound = (1.0 + alpha) * vertex_load_max.get(
            (label, phase), 0.0
        ) + window * max_device_span
        if wait > bound:
            report.stragglers.append(
                StragglerFlag(machine, label, phase, wait, bound)
            )
    report.barrier_waits = barrier_waits

    return report


def analyze_tracer(
    tracer: Tracer, config: Optional[Dict[str, object]] = None
) -> AttributionReport:
    """Attribute a live (in-process) trace recording."""
    return analyze_events(
        tracer.events, duration=tracer.end_time, config=config
    )


def analyze_chrome_trace(
    trace: dict, config: Optional[Dict[str, object]] = None
) -> AttributionReport:
    """Attribute a loaded Chrome-trace document (timestamps in us)."""
    events = []
    for raw in trace.get("traceEvents", []):
        if raw.get("ph") == "M":
            continue
        event = dict(raw)
        event["ts"] = raw["ts"] * _SECONDS
        if "dur" in event:
            event["dur"] = raw["dur"] * _SECONDS
        events.append(event)
    return analyze_events(events, config=config)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SHORT = {
    "storage_busy": "st.busy",
    "storage_queue": "st.queue",
    "nic_busy": "nic",
    "net_wait": "net.wait",
    "cpu": "cpu",
    "barrier": "barrier",
    "steal": "steal",
    "recovery": "recov",
}


def _row(label: str, seconds: Dict[str, float], width: int = 10) -> str:
    cells = "".join(
        f"{seconds.get(c, 0.0):>{width}.4f}" for c in ATTRIBUTION_CATEGORIES
    )
    return f"  {label:<12}{cells}"


def _header(width: int = 10) -> str:
    cells = "".join(f"{_SHORT[c]:>{width}}" for c in ATTRIBUTION_CATEGORIES)
    return f"  {'':<12}{cells}"


def format_iteration_table(report: AttributionReport) -> List[str]:
    """Per-iteration attribution rows (shared with ``trace-report``)."""
    lines = ["per-iteration attribution (engine-seconds):", _header()]
    for it in report.per_iteration:
        lines.append(_row(it.label, it.seconds))
    return lines


def format_attribution_report(report: AttributionReport) -> str:
    """Human-readable rendering of an :class:`AttributionReport`."""
    lines = [
        "== bottleneck attribution ==",
        f"duration          {report.duration:.6f}s x {report.machines} machines",
        f"binding resource  {report.bottleneck} "
        f"(dominant category: {report.dominant_category})",
        f"closure error     {report.closure_error():.3e}s",
    ]
    if report.measured_rho is not None:
        line = f"storage rho       measured={report.measured_rho:.4f}"
        if report.analytic_rho is not None:
            line += (
                f" analytic={report.analytic_rho:.4f}"
                f" (rel err {report.rho_error():.2%})"
            )
        lines.append(line)
    lines.append("")
    lines.append("cluster attribution (engine-seconds; share of total):")
    fractions = report.category_fractions()
    for category in ATTRIBUTION_CATEGORIES:
        lines.append(
            f"  {category:<14}{report.cluster_seconds.get(category, 0.0):>12.4f}s"
            f"  {fractions[category]:>7.1%}"
        )
    lines.append("")
    lines.extend(format_iteration_table(report))
    lines.append("")
    lines.append("per-machine attribution (seconds):")
    lines.append(_header())
    for m in report.per_machine:
        lines.append(_row(f"machine{m.machine}", m.seconds))
    lines.append("")
    lines.append("resource utilization:")
    for u in report.utilization:
        scope = "cluster" if u.machine is None else f"machine{u.machine}"
        lines.append(
            f"  {scope:<10}{u.resource:<9}busy={u.busy_seconds:10.4f}s"
            f"  util={u.utilization:7.1%}  slack={u.slack:7.1%}"
        )
    if report.stragglers:
        lines.append("")
        lines.append("stragglers (barrier wait above Section 5.4 bound):")
        for s in report.stragglers:
            lines.append(
                f"  machine{s.machine} iter {s.iteration} {s.phase}: "
                f"wait={s.wait:.6f}s bound={s.bound:.6f}s"
            )
    return "\n".join(lines)
