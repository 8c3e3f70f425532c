"""Host-side profiling: real wall/CPU time per engine phase.

Everything else in ``repro.obs`` measures *simulated* time.  This
module measures what the interpreter actually spends executing the
engine's synchronous kernels — the scatter/gather/apply user functions,
chunk serialize/deserialize, message copies — so simulated spans and
host cost line up span-for-span.  Phases whose host share exceeds
their sim share are exactly the vectorization targets of ROADMAP
item 1.

Design constraints:

* Host clocks are only read through :mod:`repro.obs.hostclock` (the
  single CHX001/CHX008 exemption in the sim packages).
* Measured sections must be synchronous leaf regions.  The simulator
  interleaves all machines on one thread, so wrapping a sim *span*
  (begin ... yield ... end) would attribute other machines' host time
  to it; the engines therefore wrap only plain function calls that
  never yield.
* Profiling must not perturb the simulation: the profiler only reads
  clocks and accumulates into its own registry, so final vertex values
  are byte-identical with and without ``--host-profile`` (tested).

The registry is keyed ``(machine, phase, iteration)``.  Measured
intervals never nest (leaf regions), but a depth guard makes the
region total robust anyway: only depth-0 intervals accumulate into
``region_wall_ns``, so the per-phase wall times sum to the profiled
region total by construction.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.obs import hostclock

#: Version of the host metrics JSON document.
HOST_SCHEMA_VERSION = 1

#: The GAS kernel phases (mirrors ``repro.core.gas.GAS_PHASES``; kept
#: literal here so ``obs`` does not import ``core`` at module load).
GAS_HOST_PHASES = ("scatter", "gather", "apply")

#: Every phase the engines instrument.
ENGINE_PHASES = GAS_HOST_PHASES + ("serialize", "deserialize", "msg_copy")

#: Sim-time span name that corresponds to each host phase (for the
#: sim-to-host skew table).  Phases without an entry have no single
#: sim-span counterpart (their sim cost lives on device/NIC tracks).
SIM_SPAN_FOR_PHASE = {
    "scatter": "scatter",
    "gather": "gather",
    "apply": "merge_apply",
}


class _PhaseEntry:
    """Accumulated host cost of one (machine, phase, iteration) cell."""

    __slots__ = ("wall_ns", "cpu_ns", "calls", "records", "alloc_bytes")

    def __init__(self) -> None:
        self.wall_ns = 0
        self.cpu_ns = 0
        self.calls = 0
        self.records = 0
        self.alloc_bytes = 0


class HostMetricsRegistry:
    """Structured host metrics keyed by (machine, phase, iteration)."""

    def __init__(self, trace_allocations: bool = False):
        self.trace_allocations = trace_allocations
        #: Stable join keys identifying the run that produced these
        #: metrics (``{"algorithm": …, "machines": …, "seed": …}``), so
        #: downstream tools never have to guess which run a metrics
        #: file belongs to.
        self.job: Optional[dict] = None
        self._entries: Dict[Tuple[int, str, int], _PhaseEntry] = {}
        #: Wall/CPU nanoseconds of the profiled region: the sum of all
        #: *top-level* measured intervals.  Because measured sections
        #: are leaves, per-phase wall times sum to this by construction.
        self.region_wall_ns = 0
        self.region_cpu_ns = 0
        self.region_intervals = 0
        #: Wall nanoseconds of the whole profiler session (run setup,
        #: sim bookkeeping, and the measured region together).
        self.session_wall_ns = 0

    def record(
        self,
        machine: int,
        phase: str,
        iteration: int,
        wall_ns: int,
        cpu_ns: int,
        records: int = 0,
        alloc_bytes: int = 0,
        top_level: bool = True,
    ) -> None:
        key = (machine, phase, iteration)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _PhaseEntry()
        entry.wall_ns += wall_ns
        entry.cpu_ns += cpu_ns
        entry.calls += 1
        entry.records += records
        entry.alloc_bytes += alloc_bytes
        if top_level:
            self.region_wall_ns += wall_ns
            self.region_cpu_ns += cpu_ns
            self.region_intervals += 1

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[Tuple[int, str, int]]:
        return sorted(self._entries)

    def to_dict(self) -> dict:
        """The canonical JSON document (exporters all read this form)."""
        phases = []
        for key in sorted(self._entries):
            machine, phase, iteration = key
            entry = self._entries[key]
            row = {
                "machine": machine,
                "phase": phase,
                "iteration": iteration,
                "wall_seconds": entry.wall_ns / 1e9,
                "cpu_seconds": entry.cpu_ns / 1e9,
                "calls": entry.calls,
                "records": entry.records,
            }
            if self.trace_allocations:
                row["alloc_bytes"] = entry.alloc_bytes
            phases.append(row)

        by_phase: Dict[str, Dict[str, float]] = {}
        iteration_cells: Dict[int, Dict[str, float]] = {}
        for (machine, phase, iteration), entry in sorted(
            self._entries.items()
        ):
            agg = by_phase.setdefault(
                phase, {"wall_seconds": 0.0, "cpu_seconds": 0.0, "calls": 0}
            )
            agg["wall_seconds"] += entry.wall_ns / 1e9
            agg["cpu_seconds"] += entry.cpu_ns / 1e9
            agg["calls"] += entry.calls
            if phase == "scatter":
                cell = iteration_cells.setdefault(
                    iteration, {"edges": 0, "wall_seconds": 0.0}
                )
                cell["edges"] += entry.records
                cell["wall_seconds"] += entry.wall_ns / 1e9

        iterations = []
        total_edges = 0
        for iteration in sorted(iteration_cells):
            cell = iteration_cells[iteration]
            edges = int(cell["edges"])
            wall = cell["wall_seconds"]
            total_edges += edges
            iterations.append(
                {
                    "iteration": iteration,
                    "edges": edges,
                    "scatter_wall_seconds": wall,
                    "edges_per_sec": edges / wall if wall > 0 else 0.0,
                }
            )

        scatter_wall = by_phase.get("scatter", {}).get("wall_seconds", 0.0)
        region_wall = self.region_wall_ns / 1e9
        session_wall = self.session_wall_ns / 1e9
        doc = {
            "host_schema_version": HOST_SCHEMA_VERSION,
            "tracemalloc": self.trace_allocations,
            "region": {
                "wall_seconds": region_wall,
                "cpu_seconds": self.region_cpu_ns / 1e9,
                "intervals": self.region_intervals,
            },
            "session_wall_seconds": session_wall,
            "coverage": region_wall / session_wall if session_wall > 0 else 0.0,
            "phases": phases,
            "iterations": iterations,
            "totals": {
                "by_phase": {
                    phase: by_phase[phase] for phase in sorted(by_phase)
                },
                "edges": total_edges,
                "edges_per_sec": (
                    total_edges / scatter_wall if scatter_wall > 0 else 0.0
                ),
            },
        }
        if self.job is not None:
            doc["job"] = dict(self.job)
        return doc


class _Measurement:
    """Context manager timing one synchronous leaf section."""

    __slots__ = (
        "_profiler",
        "_machine",
        "_phase",
        "_iteration",
        "_records",
        "_top",
        "_wall0",
        "_cpu0",
        "_alloc0",
    )

    def __init__(self, profiler, machine, phase, iteration, records):
        self._profiler = profiler
        self._machine = machine
        self._phase = phase
        self._iteration = iteration
        self._records = records

    def __enter__(self):
        profiler = self._profiler
        profiler._depth += 1
        self._top = profiler._depth == 1
        if profiler.trace_allocations:
            self._alloc0 = hostclock.allocated_bytes()
        else:
            self._alloc0 = 0
        self._cpu0 = hostclock.cpu_ns()
        self._wall0 = hostclock.wall_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall = hostclock.wall_ns() - self._wall0
        cpu = hostclock.cpu_ns() - self._cpu0
        profiler = self._profiler
        if profiler.trace_allocations:
            alloc = hostclock.allocated_bytes() - self._alloc0
        else:
            alloc = 0
        profiler._depth -= 1
        profiler.registry.record(
            self._machine,
            self._phase,
            self._iteration,
            wall_ns=wall,
            cpu_ns=cpu,
            records=self._records,
            alloc_bytes=alloc,
            top_level=self._top,
        )
        return False


class _NullMeasurement:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_MEASUREMENT = _NullMeasurement()


class HostProfiler:
    """Measures real wall/CPU time of engine phases during a run.

    One profiler serves the whole cluster (the simulator runs every
    machine on one thread); engines attribute measurements to their own
    machine id.  Store/net handlers carry no iteration, so the compute
    engines publish the current one via :meth:`set_iteration` — safe
    because execution is single-threaded and barrier-aligned.
    """

    enabled = True

    def __init__(self, trace_allocations: bool = False):
        self.trace_allocations = trace_allocations
        self.registry = HostMetricsRegistry(
            trace_allocations=trace_allocations
        )
        self.iteration = 0
        self._depth = 0
        if trace_allocations:
            hostclock.start_allocation_tracing()
        self._session_start = hostclock.wall_ns()

    def set_iteration(self, iteration: int) -> None:
        self.iteration = iteration

    def measure(
        self,
        machine: int,
        phase: str,
        iteration: Optional[int] = None,
        records: int = 0,
    ) -> _Measurement:
        if iteration is None:
            iteration = self.iteration
        return _Measurement(self, machine, phase, iteration, records)

    def finalize(self) -> HostMetricsRegistry:
        """Close the session window; returns the registry."""
        self.registry.session_wall_ns = (
            hostclock.wall_ns() - self._session_start
        )
        if self.trace_allocations:
            hostclock.stop_allocation_tracing()
        return self.registry


class NullHostProfiler:
    """Zero-cost stand-in when host profiling is off."""

    enabled = False
    iteration = 0

    def set_iteration(self, iteration: int) -> None:
        return None

    def measure(
        self,
        machine: int,
        phase: str,
        iteration: Optional[int] = None,
        records: int = 0,
    ) -> _NullMeasurement:
        return _NULL_MEASUREMENT

    def finalize(self) -> None:
        return None


NULL_HOST_PROFILER = NullHostProfiler()


def resolve_host_profiler(host) -> "HostProfiler | NullHostProfiler":
    """The constructor-side guard every engine applies to ``host=``."""
    if host is not None and host.enabled:
        return host
    return NULL_HOST_PROFILER


# -- exporters -----------------------------------------------------------
#
# All exporters read the canonical JSON document (`registry.to_dict()`)
# and return strings; printing is the CLI's job (CHX007).


def to_collapsed_stack(doc: dict) -> str:
    """Collapsed-stack flamegraph text: ``machineM;phase;iterI <us>``.

    One line per (machine, phase, iteration) cell, weight = host wall
    time in integer microseconds (flamegraph.pl-compatible).
    """
    lines = []
    for row in doc["phases"]:
        weight = int(round(row["wall_seconds"] * 1e6))
        lines.append(
            f"machine{row['machine']};{row['phase']};"
            f"iter{row['iteration']} {weight}"
        )
    return "\n".join(lines) + "\n" if lines else ""


def parse_collapsed_stack(text: str) -> Dict[Tuple[int, str, int], int]:
    """Inverse of :func:`to_collapsed_stack` (round-trip tests)."""
    tree: Dict[Tuple[int, str, int], int] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        stack, weight = line.rsplit(" ", 1)
        frames = stack.split(";")
        if len(frames) != 3:
            raise ValueError(f"collapsed stack line has {len(frames)} frames: "
                             f"{line!r}")
        machine = int(frames[0].removeprefix("machine"))
        iteration = int(frames[2].removeprefix("iter"))
        key = (machine, frames[1], iteration)
        tree[key] = tree.get(key, 0) + int(weight)
    return tree


def to_prometheus(doc: dict, integrity: Optional[Dict[str, int]] = None) -> str:
    """Prometheus text exposition format (0.0.4).

    ``integrity`` (``JobResult.integrity``) adds the run's
    integrity/byzantine counters as one labelled family, so fleet
    dashboards see injected-fault pressure next to host cost.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    def labels(row: dict) -> str:
        return (
            f'{{machine="{row["machine"]}",phase="{row["phase"]}",'
            f'iteration="{row["iteration"]}"}}'
        )

    family(
        "chaos_host_phase_wall_seconds",
        "counter",
        "Host wall-clock seconds spent in an engine phase.",
    )
    for row in doc["phases"]:
        lines.append(
            f"chaos_host_phase_wall_seconds{labels(row)} "
            f"{row['wall_seconds']:.9f}"
        )
    family(
        "chaos_host_phase_cpu_seconds",
        "counter",
        "Host process CPU seconds spent in an engine phase.",
    )
    for row in doc["phases"]:
        lines.append(
            f"chaos_host_phase_cpu_seconds{labels(row)} "
            f"{row['cpu_seconds']:.9f}"
        )
    family(
        "chaos_host_phase_calls",
        "counter",
        "Measured intervals per engine phase.",
    )
    for row in doc["phases"]:
        lines.append(f"chaos_host_phase_calls{labels(row)} {row['calls']}")
    if doc.get("tracemalloc"):
        family(
            "chaos_host_phase_alloc_bytes",
            "gauge",
            "Net tracemalloc allocation delta per engine phase.",
        )
        for row in doc["phases"]:
            lines.append(
                f"chaos_host_phase_alloc_bytes{labels(row)} "
                f"{row['alloc_bytes']}"
            )
    family(
        "chaos_host_region_wall_seconds",
        "counter",
        "Host wall seconds of the whole profiled region.",
    )
    lines.append(
        f"chaos_host_region_wall_seconds "
        f"{doc['region']['wall_seconds']:.9f}"
    )
    family(
        "chaos_host_region_cpu_seconds",
        "counter",
        "Host CPU seconds of the whole profiled region.",
    )
    lines.append(
        f"chaos_host_region_cpu_seconds {doc['region']['cpu_seconds']:.9f}"
    )
    family(
        "chaos_host_edges_per_sec",
        "gauge",
        "Host scatter throughput over the whole run.",
    )
    lines.append(
        f"chaos_host_edges_per_sec {doc['totals']['edges_per_sec']:.3f}"
    )
    if integrity:
        family(
            "chaos_integrity_events_total",
            "counter",
            "Integrity/byzantine events by kind (injected message faults "
            "and their transport/storage-level suppression).",
        )
        for kind in sorted(integrity):
            lines.append(
                f'chaos_integrity_events_total{{kind="{kind}"}} '
                f"{int(integrity[kind])}"
            )
    return "\n".join(lines) + "\n"


_PROM_COMMENT = re.compile(
    r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$"
)
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?'
    r" [0-9eE.+-]+$"
)


def validate_prometheus(text: str) -> List[str]:
    """Line-format check of a text exposition; returns error strings."""
    errors: List[str] = []
    declared: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT.match(line):
                errors.append(f"line {number}: malformed comment: {line!r}")
            elif line.startswith("# TYPE "):
                _hash, _type, name, kind = line.split(" ", 3)
                declared[name] = kind
            continue
        if not _PROM_SAMPLE.match(line):
            errors.append(f"line {number}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        if name not in declared:
            errors.append(
                f"line {number}: sample before # TYPE declaration: {name}"
            )
    return errors


#: (key, required type) pairs of the host metrics JSON document.
_SCHEMA_TOP = (
    ("host_schema_version", int),
    ("tracemalloc", bool),
    ("region", dict),
    ("session_wall_seconds", (int, float)),
    ("coverage", (int, float)),
    ("phases", list),
    ("iterations", list),
    ("totals", dict),
)
_SCHEMA_PHASE = (
    ("machine", int),
    ("phase", str),
    ("iteration", int),
    ("wall_seconds", (int, float)),
    ("cpu_seconds", (int, float)),
    ("calls", int),
    ("records", int),
)


def check_host_schema(doc: dict) -> List[str]:
    """Schema-check a host metrics document; returns error strings."""
    errors: List[str] = []
    for key, kind in _SCHEMA_TOP:
        if key not in doc:
            errors.append(f"missing top-level key: {key}")
        elif not isinstance(doc[key], kind):
            errors.append(f"{key}: expected {kind}, got {type(doc[key])}")
    if errors:
        return errors
    if doc["host_schema_version"] != HOST_SCHEMA_VERSION:
        errors.append(
            f"host_schema_version {doc['host_schema_version']} != "
            f"{HOST_SCHEMA_VERSION}"
        )
    for index, row in enumerate(doc["phases"]):
        for key, kind in _SCHEMA_PHASE:
            if key not in row:
                errors.append(f"phases[{index}]: missing {key}")
            elif not isinstance(row[key], kind):
                errors.append(f"phases[{index}].{key}: bad type")
        if doc["tracemalloc"] and "alloc_bytes" not in row:
            errors.append(f"phases[{index}]: missing alloc_bytes")
    for key in ("by_phase", "edges", "edges_per_sec"):
        if key not in doc["totals"]:
            errors.append(f"totals: missing {key}")
    if "job" in doc:  # optional stable join keys (see registry.job)
        job = doc["job"]
        if not isinstance(job, dict):
            errors.append("job: expected dict")
        else:
            if not isinstance(job.get("algorithm"), str):
                errors.append("job.algorithm: expected str")
            if not isinstance(job.get("machines"), int):
                errors.append("job.machines: expected int")
    return errors


# -- terminal report -----------------------------------------------------


def format_host_report(
    doc: dict,
    sim_spans: Optional[Dict[str, float]] = None,
    top: int = 10,
) -> str:
    """Render the host-profile section of ``trace-report`` / ``run``.

    ``sim_spans`` maps sim span names to total simulated seconds (from
    a :class:`repro.obs.report.TraceSummary`); when given, the report
    includes the sim-to-host skew table — phases whose host share
    exceeds their sim share are the vectorization targets.
    """
    lines: List[str] = []
    region = doc["region"]
    lines.append(
        f"host profile: region {region['wall_seconds']:.3f}s wall / "
        f"{region['cpu_seconds']:.3f}s cpu "
        f"({doc['coverage']:.1%} of session wall)"
    )
    lines.append(
        f"host throughput: {doc['totals']['edges_per_sec']:,.0f} edges/sec "
        f"({doc['totals']['edges']} edges scattered)"
    )

    by_phase = doc["totals"]["by_phase"]
    ranked = sorted(
        by_phase.items(), key=lambda kv: (-kv[1]["cpu_seconds"], kv[0])
    )[:top]
    host_wall_total = sum(agg["wall_seconds"] for agg in by_phase.values())
    sim_spans = sim_spans or {}
    mapped_sim_total = sum(
        sim_spans.get(span, 0.0) for span in SIM_SPAN_FOR_PHASE.values()
    )

    lines.append("")
    lines.append(f"hottest host phases by CPU time (top {len(ranked)}):")
    header = (
        f"  {'phase':<12s} {'host cpu':>10s} {'host wall':>10s} "
        f"{'calls':>8s} {'host%':>7s}  {'sim span':<12s} {'sim%':>7s} "
        f"{'skew':>7s}"
    )
    lines.append(header)
    for phase, agg in ranked:
        host_share = (
            agg["wall_seconds"] / host_wall_total if host_wall_total else 0.0
        )
        span = SIM_SPAN_FOR_PHASE.get(phase)
        if span is not None and mapped_sim_total > 0:
            sim_share = sim_spans.get(span, 0.0) / mapped_sim_total
            skew = host_share - sim_share
            sim_cols = f"{span:<12s} {sim_share:7.1%} {skew:+7.1%}"
        else:
            sim_cols = f"{'-':<12s} {'-':>7s} {'-':>7s}"
        lines.append(
            f"  {phase:<12s} {agg['cpu_seconds']:9.4f}s "
            f"{agg['wall_seconds']:9.4f}s {agg['calls']:8d} "
            f"{host_share:7.1%}  {sim_cols}"
        )
    if mapped_sim_total > 0:
        lines.append(
            "  (positive skew = host share exceeds sim share: "
            "vectorization target)"
        )

    if doc["iterations"]:
        lines.append("")
        lines.append("per-iteration host throughput (scatter):")
        for cell in doc["iterations"]:
            lines.append(
                f"  iter {cell['iteration']:<3d} {cell['edges']:>10d} edges "
                f"in {cell['scatter_wall_seconds']:.4f}s  "
                f"-> {cell['edges_per_sec']:,.0f} edges/sec"
            )
    return "\n".join(lines)
