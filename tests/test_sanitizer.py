"""Tests for the happens-before sanitizer (``repro run --sanitize``).

Unit tests pin down the vector-clock algebra (message edges, barrier
joins, conflict detection, dedup); the end-to-end tests prove the two
acceptance properties: a clean 2-machine PageRank reports zero races,
and a planted unsynchronized cross-machine write is reported exactly
once, with the race visible on the tracer timeline.
"""

import numpy as np

from repro.algorithms import PageRank
from repro.analysis import Sanitizer
from repro.analysis.sanitizer import SYNC_MESSAGE_KINDS
from repro.cli import main
from repro.core.compute import ComputationEngine
from repro.core.runtime import run_algorithm
from repro.graph import rmat_graph

from tests.conftest import fast_config
from tests.references import reference_pagerank


def make(machines=2):
    sanitizer = Sanitizer()
    sanitizer.bind_run(machines)
    return sanitizer


# ---------------------------------------------------------------------------
# Vector-clock unit tests


class TestVectorClocks:
    def test_unsynchronized_writes_race(self):
        san = make()
        san.access("x", 0, write=True, label="a")
        san.access("x", 1, write=True, label="b")
        assert len(san.races) == 1
        race = san.races[0]
        assert race.key == "x"
        assert {race.first.machine, race.second.machine} == {0, 1}

    def test_write_read_conflict_races(self):
        san = make()
        san.access("x", 0, write=True)
        san.access("x", 1, write=False)
        assert len(san.races) == 1

    def test_read_read_never_races(self):
        san = make()
        san.access("x", 0, write=False)
        san.access("x", 1, write=False)
        assert san.races == []

    def test_same_machine_never_races(self):
        san = make()
        san.access("x", 0, write=True)
        san.access("x", 0, write=True)
        assert san.races == []

    def test_message_edge_orders_accesses(self):
        san = make()
        san.access("x", 0, write=True)
        clock = san.on_send(0, "steal_reply")
        san.on_receive(1, clock)
        san.access("x", 1, write=True)
        assert san.races == []

    def test_non_sync_message_carries_no_clock(self):
        san = make()
        san.access("x", 0, write=True)
        assert san.on_send(0, "read") is None  # data-plane: no edge
        san.access("x", 1, write=True)
        assert len(san.races) == 1

    def test_barrier_orders_all_parties(self):
        san = make()
        san.access("x", 0, write=True)
        san.on_barrier([0, 1])
        san.access("x", 1, write=True)
        assert san.races == []

    def test_race_pair_deduplicated(self):
        san = make()
        san.access("x", 0, write=True)
        san.access("x", 1, write=True)
        san.access("x", 1, write=True)
        san.access("x", 0, write=True)
        assert len(san.races) == 1

    def test_distinct_keys_report_separately(self):
        san = make()
        for key in ("x", "y"):
            san.access(key, 0, write=True)
            san.access(key, 1, write=True)
        assert len(san.races) == 2

    def test_clock_snapshot_and_edge_counters(self):
        san = make()
        clock = san.on_send(0, "accum")
        san.on_receive(1, clock)
        assert san.clock_of(1)[0] == clock[0]
        assert san.sync_edges == 1

    def test_sync_kinds_cover_the_protocol(self):
        assert SYNC_MESSAGE_KINDS == {"steal_request", "steal_reply", "accum"}

    def test_bind_run_resets_state_keeps_races(self):
        san = make()
        san.access("x", 0, write=True)
        san.access("x", 1, write=True)
        san.bind_run(2)
        assert san.clock_of(0) == (0, 0)
        san.access("x", 0, write=True)  # fresh history: no stale conflict
        assert len(san.races) == 1


# ---------------------------------------------------------------------------
# End-to-end: clean runs


class TestCleanRuns:
    def test_two_machine_pagerank_zero_races(self, small_graph):
        san = Sanitizer()
        result = run_algorithm(
            PageRank(iterations=3), small_graph, fast_config(2), sanitizer=san
        )
        assert san.races == []
        assert san.accesses > 0 and san.sync_edges > 0
        expected = reference_pagerank(small_graph, iterations=3)
        assert np.allclose(result.values["rank"], expected)

    def test_forced_stealing_still_zero_races(self, small_graph):
        san = Sanitizer()
        config = fast_config(2, steal_alpha=float("inf"))
        result = run_algorithm(
            PageRank(iterations=3), small_graph, config, sanitizer=san
        )
        assert san.races == []
        assert result.steals_accepted > 0  # the protocol was exercised

    def test_sanitized_run_matches_unsanitized(self, small_graph):
        config = fast_config(2)
        plain = run_algorithm(PageRank(iterations=2), small_graph, config)
        checked = run_algorithm(
            PageRank(iterations=2), small_graph, config, sanitizer=Sanitizer()
        )
        assert plain.runtime == checked.runtime  # observation, not perturbation
        assert np.array_equal(plain.values["rank"], checked.values["rank"])


# ---------------------------------------------------------------------------
# End-to-end: a planted race is caught


def plant_cross_machine_write(monkeypatch):
    """Make machine 1 mutate partition 0's vertex state with no protocol
    edge — the bug class the sanitizer exists to catch."""
    original = ComputationEngine._process_chunk

    def planted(self, state, chunk, iteration):
        if self.machine == 1:
            self.probe.access(
                ("vertex", 0), 1, write=True, label="injected.write"
            )
        return original(self, state, chunk, iteration)

    monkeypatch.setattr(ComputationEngine, "_process_chunk", planted)


class TestInjectedRace:
    def test_exactly_the_planted_race_is_reported(
        self, small_graph, monkeypatch
    ):
        plant_cross_machine_write(monkeypatch)
        san = Sanitizer()
        config = fast_config(2, partitions_per_machine=1)
        run_algorithm(
            PageRank(iterations=2), small_graph, config, sanitizer=san
        )
        assert len(san.races) == 1
        race = san.races[0]
        assert race.key == ("vertex", 0)
        assert {race.first.machine, race.second.machine} == {0, 1}
        assert "injected.write" in (race.first.label, race.second.label)
        assert "injected.write" in san.summary()

    def test_race_lands_on_the_tracer_timeline(
        self, small_graph, monkeypatch
    ):
        from repro.obs import Tracer

        plant_cross_machine_write(monkeypatch)
        san = Sanitizer()
        tracer = Tracer(sample_interval=None)
        config = fast_config(2, partitions_per_machine=1)
        run_algorithm(
            PageRank(iterations=2), small_graph, config,
            tracer=tracer, sanitizer=san,
        )
        race_events = [
            e for e in tracer.events if e.get("cat") == "race"
        ]
        assert len(race_events) == len(san.races) == 1
        assert race_events[0]["name"].startswith("race:")
        assert "injected.write" in race_events[0]["name"]


# ---------------------------------------------------------------------------
# CLI integration


class TestSanitizeFlag:
    def test_clean_run_exits_zero_and_reports(self, capsys):
        code = main([
            "run", "--algorithm", "PR", "--machines", "2", "--scale", "7",
            "--iterations", "1", "--sanitize",
        ])
        assert code == 0
        assert "sanitizer: 0 race(s)" in capsys.readouterr().out

    def test_racy_run_exits_nonzero(self, monkeypatch, capsys):
        plant_cross_machine_write(monkeypatch)
        code = main([
            "run", "--algorithm", "PR", "--machines", "2", "--scale", "7",
            "--iterations", "1", "--partitions-per-machine", "1",
            "--sanitize",
        ])
        assert code == 1
        assert "race on ('vertex', 0)" in capsys.readouterr().out
