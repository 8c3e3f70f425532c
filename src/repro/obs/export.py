"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and flat CSV.

The JSON exporter emits the Trace Event Format that both the legacy
``chrome://tracing`` viewer and Perfetto (https://ui.perfetto.dev) load
directly: a ``traceEvents`` list whose entries carry ``ph`` (phase),
``ts`` (microseconds), ``pid``/``tid`` (track), ``name`` and optional
``cat``/``dur``/``args``.  Process and thread naming uses the standard
``M`` metadata events.

Output is deterministic: events are ordered by timestamp with a stable
tie-break on recording order (itself deterministic for a fixed seed),
object keys are sorted, and no wall-clock data is embedded — two runs
with the same seed serialize to byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.tracer import TID_NIC_RX, TID_NIC_TX, Tracer

#: Seconds → Trace Event Format microseconds.
_US = 1e6


def _flow_events(causal_events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Chrome ``flow`` event pairs (ph ``s``/``f``) for delivered messages.

    One arrow per message: the start binds to the sender's NIC-TX track
    at dispatch time, the finish to the receiver's NIC-RX track at
    delivery, matched by ``id``.  Perfetto draws these as arrows across
    tracks, making the causal DAG visible in the timeline view.
    """
    flows: List[Dict[str, Any]] = []
    for event in causal_events:
        if event.get("kind") != "msg" or event.get("t1") is None:
            continue
        name = event.get("cat") or "msg"
        common = {"cat": "causal", "name": name, "id": event["id"]}
        flows.append(
            {
                "ph": "s",
                "pid": event["src"],
                "tid": TID_NIC_TX,
                "ts": event["t0"] * _US,
                **common,
            }
        )
        flows.append(
            {
                "ph": "f",
                "bp": "e",  # bind to the enclosing slice's end
                "pid": event["dst"],
                "tid": TID_NIC_RX,
                "ts": event["t1"] * _US,
                **common,
            }
        )
    return flows


def chrome_trace_dict(tracer: Tracer) -> Dict[str, Any]:
    """Build the Trace Event Format document for a recorded trace."""
    events: List[Dict[str, Any]] = []
    for pid in sorted(tracer.processes):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": tracer.processes[pid]},
            }
        )
    for pid, tid in sorted(tracer.threads):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": tracer.threads[(pid, tid)]},
            }
        )
    timed: List[Dict[str, Any]] = []
    for raw in tracer.events:
        event = dict(raw)
        event["ts"] = raw["ts"] * _US
        if "dur" in event:
            event["dur"] = raw["dur"] * _US
        if event["ph"] == "i":
            event["s"] = "t"  # thread-scoped instant
        timed.append(event)
    causal_events = list(getattr(tracer.causal, "events", []))
    timed.extend(_flow_events(causal_events))
    events.extend(sorted(timed, key=lambda e: e["ts"]))
    document: Dict[str, Any] = {"displayTimeUnit": "ms", "traceEvents": events}
    if causal_events:
        # Lossless causal DAG (times in seconds): flow events only carry
        # the delivered-message edges; analyses (slowest chains, trace
        # query) need parents, barriers and marks too.
        document["causalEvents"] = causal_events
    return document


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize deterministically (sorted keys, compact separators)."""
    return json.dumps(
        chrome_trace_dict(tracer), sort_keys=True, separators=(",", ":")
    )


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the trace JSON to ``path``; returns the byte count."""
    text = dumps_chrome_trace(tracer)
    with open(path, "w") as handle:
        handle.write(text)
    return len(text)


def write_counters_csv(tracer: Tracer, path: str) -> int:
    """Flatten every counter time series to ``series,ts,value`` rows.

    Timestamps are simulated seconds.  Rows are grouped by series (name
    order) and time-ordered within a series, ready for a one-line
    pivot/plot in pandas, gnuplot or a spreadsheet.
    """
    lines = ["series,ts,value"]
    for name, ts, value in tracer.registry.rows():
        lines.append(f"{name},{ts!r},{value!r}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return len(lines) - 1
