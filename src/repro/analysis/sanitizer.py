"""Happens-before sanitizer for the emulated cluster.

A TSan-style dynamic race detector: every emulated machine carries a
vector clock, advanced by the synchronization edges the Chaos protocol
actually provides — steal-protocol messages, accumulator handoffs and
global barriers.  Components report accesses to cross-machine shared
state (vertex values, accumulators, steal queues, chunk stores) and the
sanitizer flags any conflicting pair of accesses from two machines that
is *not* ordered by happens-before.

Why it matters: the emulation shares Python objects between "machines"
for speed, so a compute path that mutates another machine's state
without a protocol edge is invisible to the functional tests (the sum
still comes out right) yet would be a data race — and a nondeterminism
source — on real hardware.  ``repro run --sanitize`` turns this on.

Deliberately conservative in what creates an edge: only *protocol*
synchronization (steal request/reply, accumulator shipment, barriers)
joins clocks.  Data-plane storage traffic does not, because reading a
chunk from a storage engine says nothing about whose writes you are
ordered with.  This is what lets the detector see a planted
unsynchronized mutation even though the buggy machine still exchanges
storage messages with everyone else.

Races integrate with the tracer (PR 1): each race is recorded as a
complete span on the cluster track covering the simulated-time interval
between its two accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: Message kinds that are genuine synchronization edges (the steal
#: protocol and the gather accumulator handoff).  Everything else is
#: data-plane traffic and does not order shared-state accesses.
SYNC_MESSAGE_KINDS = frozenset({"steal_request", "steal_reply", "accum"})


@dataclass(frozen=True)
class RaceAccess:
    """One side of a race: which machine touched the state, and how."""

    machine: int
    time: float
    label: str
    write: bool

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return f"{self.label} ({kind} by m{self.machine} at t={self.time:.6f})"


@dataclass(frozen=True)
class Race:
    """Two accesses to the same state not ordered by happens-before."""

    key: Hashable
    first: RaceAccess
    second: RaceAccess

    def describe(self) -> str:
        return (
            f"race on {self.key!r}: {self.first.describe()} || "
            f"{self.second.describe()}"
        )


class _Record:
    """Last access to a key by one machine (scalar clock component)."""

    __slots__ = ("component", "time", "label", "write")

    def __init__(self, component: int, time: float, label: str, write: bool):
        self.component = component
        self.time = time
        self.label = label
        self.write = write


class Sanitizer:
    """Vector clocks + access history + race reports.

    The run's :class:`~repro.obs.probe.Probe` calls :meth:`bind_run`
    per simulation; the network, barrier and engines then feed it
    synchronization edges and shared-state accesses through the probe.
    """

    def __init__(self):
        self.machines = 0
        self.races: List[Race] = []
        self._clocks: List[List[int]] = []
        self._now: Callable[[], float] = lambda: 0.0
        self._track = None
        #: key -> {"r": {machine: _Record}, "w": {machine: _Record}}
        self._history: Dict[Hashable, Dict[str, Dict[int, _Record]]] = {}
        self._seen_pairs: set = set()
        self.accesses = 0
        self.sync_edges = 0
        #: When set, only keys of these kinds are tracked (CHX012 focus).
        self._focus: Optional[frozenset] = None

    # -- lifecycle ------------------------------------------------------

    def bind_run(
        self,
        machines: int,
        now: Optional[Callable[[], float]] = None,
        track=None,
    ) -> None:
        """Attach to a (new) simulation run of ``machines`` machines.

        Clocks and the access history reset (multi-run drivers reuse one
        sanitizer); detected races accumulate across runs.
        """
        if machines < 1:
            raise ValueError("machines must be >= 1")
        self.machines = machines
        self._clocks = [[0] * machines for _ in range(machines)]
        self._history = {}
        if now is not None:
            self._now = now
        self._track = track

    def clock_of(self, machine: int) -> Tuple[int, ...]:
        """Snapshot of one machine's vector clock (tests/debugging)."""
        return tuple(self._clocks[machine])

    def set_focus(self, kinds: Optional[Sequence[str]]) -> None:
        """Restrict access tracking to keys of the given *kinds*.

        A key's kind is its first tuple element (``("vertex", 0)`` ->
        ``"vertex"``) or the key itself for scalar keys.  ``check
        --deep``'s CHX012 pass produces the kind list; ``run --sanitize
        --focus-from-check`` feeds it here so dynamic instrumentation
        concentrates on statically flagged state.  ``None`` clears the
        focus (track everything).
        """
        self._focus = frozenset(kinds) if kinds is not None else None

    # -- synchronization edges -----------------------------------------

    def _tick(self, machine: int) -> None:
        self._clocks[machine][machine] += 1

    def on_send(self, src: int, kind: str) -> Optional[Tuple[int, ...]]:
        """Stamp an outgoing message; returns the clock to attach.

        Only protocol synchronization messages carry clocks (see
        :data:`SYNC_MESSAGE_KINDS`).
        """
        if kind not in SYNC_MESSAGE_KINDS:
            return None
        self._tick(src)
        self.sync_edges += 1
        return tuple(self._clocks[src])

    def on_receive(self, dst: int, clock: Optional[Sequence[int]]) -> None:
        """Join a received message's clock into the destination machine."""
        if clock is None:
            return
        own = self._clocks[dst]
        for i, value in enumerate(clock):
            if value > own[i]:
                own[i] = value
        self._tick(dst)

    def on_barrier(self, parties: Sequence[int]) -> None:
        """A barrier release: all parties join to the pairwise maximum."""
        members = [p for p in parties if p is not None]
        if not members:
            return
        joined = [0] * self.machines
        for party in members:
            for i, value in enumerate(self._clocks[party]):
                if value > joined[i]:
                    joined[i] = value
        for party in members:
            self._clocks[party] = list(joined)
            self._tick(party)
        self.sync_edges += 1

    # -- shared-state accesses -----------------------------------------

    def access(
        self,
        key: Hashable,
        machine: int,
        write: bool = False,
        label: str = "",
    ) -> None:
        """Record an access to shared state ``key`` by ``machine``.

        Flags a race when a conflicting prior access by another machine
        (write/write, write/read or read/write) is not happens-before
        this one, i.e. the prior machine's clock component at its access
        exceeds what ``machine`` has observed of that machine.
        """
        if self._focus is not None:
            kind = key[0] if isinstance(key, tuple) and key else key
            if kind not in self._focus:
                return
        self._tick(machine)
        self.accesses += 1
        clock = self._clocks[machine]
        history = self._history.setdefault(key, {"r": {}, "w": {}})

        conflicting = list(history["w"].items())
        if write:
            conflicting += list(history["r"].items())
        for other, record in conflicting:
            if other == machine:
                continue
            if record.component <= clock[other]:
                continue  # ordered: the prior access happens-before us
            self._report(
                key,
                RaceAccess(other, record.time, record.label, record.write),
                RaceAccess(machine, self._now(), label, write),
            )

        bucket = history["w"] if write else history["r"]
        bucket[machine] = _Record(
            component=clock[machine],
            time=self._now(),
            label=label,
            write=write,
        )

    def _report(self, key: Hashable, first: RaceAccess, second: RaceAccess) -> None:
        pair = (key, frozenset((first.machine, second.machine)))
        if pair in self._seen_pairs:
            return
        self._seen_pairs.add(pair)
        race = Race(key=key, first=first, second=second)
        self.races.append(race)
        if self._track is not None:
            start = min(first.time, second.time)
            duration = abs(second.time - first.time)
            self._track.complete(
                f"race:{first.label}||{second.label}",
                start=start,
                duration=duration,
                cat="race",
                args={
                    "key": repr(key),
                    "first": first.describe(),
                    "second": second.describe(),
                },
            )

    # -- reporting ------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"sanitizer: {len(self.races)} race(s), "
            f"{self.accesses} tracked accesses, "
            f"{self.sync_edges} sync edges"
        ]
        for race in self.races:
            lines.append(f"  {race.describe()}")
        return "\n".join(lines)
