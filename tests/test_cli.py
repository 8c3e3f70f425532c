"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graph import read_edges


class TestGenerate:
    def test_rmat_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        assert main(["generate", "--scale", "8", "--out", out]) == 0
        graph = read_edges(out, 256, weighted=False)
        assert graph.num_edges == 4096
        assert "wrote" in capsys.readouterr().out

    def test_weighted_rmat(self, tmp_path):
        out = str(tmp_path / "g.bin")
        main(["generate", "--scale", "7", "--weighted", "--out", out])
        graph = read_edges(out, 128, weighted=True)
        assert graph.weighted

    def test_web_graph(self, tmp_path):
        out = str(tmp_path / "web.bin")
        main(["generate", "--kind", "web", "--pages", "500", "--out", out])
        graph = read_edges(out, 500, weighted=False)
        assert graph.num_edges > 0


class TestRun:
    def _run(self, capsys, *extra):
        code = main(
            [
                "run",
                "--scale",
                "8",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_pagerank(self, capsys):
        out = self._run(capsys, "--algorithm", "PR", "--iterations", "3")
        assert "PR: m=2" in out
        assert "breakdown" in out

    def test_bfs_defaults_root_to_hub(self, capsys):
        out = self._run(capsys, "--algorithm", "BFS")
        assert "BFS: m=2" in out

    def test_sssp_auto_weights(self, capsys):
        out = self._run(capsys, "--algorithm", "SSSP")
        assert "SSSP" in out

    def test_mcst_driver(self, capsys):
        out = self._run(capsys, "--algorithm", "MCST")
        assert "MCST" in out and "rounds" in out

    def test_scc_driver(self, capsys):
        out = self._run(capsys, "--algorithm", "SCC")
        assert "SCC" in out

    def test_stealing_and_checkpoint_flags(self, capsys):
        out = self._run(
            capsys,
            "--algorithm",
            "PR",
            "--alpha",
            "0",
            "--checkpoint",
        )
        assert "0 accepted" in out

    def test_run_from_file(self, tmp_path, capsys):
        graph_path = str(tmp_path / "in.bin")
        main(["generate", "--scale", "8", "--out", graph_path])
        code = main(
            [
                "run",
                "--algorithm",
                "WCC",
                "--input",
                graph_path,
                "--vertices",
                "256",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
            ]
        )
        assert code == 0
        assert "WCC" in capsys.readouterr().out

    def test_input_requires_vertices(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "PR", "--input", "x.bin"])

    def test_json_output(self, capsys):
        out = self._run(capsys, "--algorithm", "PR", "--iterations", "2",
                        "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "PR"
        assert payload["machines"] == 2
        assert payload["network_bytes"] > 0
        assert "breakdown" in payload

    def test_json_output_driver(self, capsys):
        out = self._run(capsys, "--algorithm", "SCC", "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "SCC"
        assert payload["rounds"] >= 1


class TestInjectFault:
    def _run(self, capsys, *extra):
        code = main(
            [
                "run", "--algorithm", "PR", "--scale", "8",
                "--machines", "4", "--chunk-kb", "4", "--checkpoint",
                *extra,
            ]
        )
        out = capsys.readouterr().out
        return code, out

    def test_crash_with_verification(self, capsys):
        code, out = self._run(
            capsys, "--inject-fault", "crash:1@iter=2", "--verify-recovery"
        )
        assert code == 0
        assert "fault timeline" in out
        assert "recoveries: 1" in out
        assert "final values identical to undisturbed run" in out

    def test_multiple_faults(self, capsys):
        code, out = self._run(
            capsys,
            "--inject-fault", "crash-restart:1@iter=1,down=0.01",
            "--inject-fault", "partition:2@iter=3,for=0.05",
        )
        assert code == 0
        assert "faults injected: 2" in out

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --inject-fault"):
            main(["run", "--algorithm", "PR", "--scale", "8",
                  "--inject-fault", "nope:1@iter=2"])

    def test_driver_algorithms_rejected(self):
        with pytest.raises(SystemExit, match="MCST"):
            main(["run", "--algorithm", "MCST", "--scale", "8",
                  "--inject-fault", "crash:1@iter=2"])

    def test_sanitize_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["run", "--algorithm", "PR", "--scale", "8", "--sanitize",
                  "--inject-fault", "crash:1@iter=2"])

    def test_verify_requires_inject(self):
        with pytest.raises(SystemExit, match="requires --inject-fault"):
            main(["run", "--algorithm", "PR", "--scale", "8",
                  "--verify-recovery"])


class TestTrace:
    def _run_traced(self, capsys, trace_path, *extra):
        code = main(
            [
                "run",
                "--algorithm",
                "PR",
                "--iterations",
                "3",
                "--scale",
                "8",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
                "--trace",
                trace_path,
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_trace_file_is_valid_and_deterministic(self, tmp_path, capsys):
        path_a = str(tmp_path / "a.json")
        path_b = str(tmp_path / "b.json")
        self._run_traced(capsys, path_a)
        self._run_traced(capsys, path_b)
        bytes_a = open(path_a, "rb").read()
        bytes_b = open(path_b, "rb").read()
        assert bytes_a == bytes_b
        trace = json.loads(bytes_a)
        events = trace["traceEvents"]
        assert events
        data = [e for e in events if e["ph"] != "M"]
        assert all("ts" in e and "pid" in e and "tid" in e and "name" in e
                   for e in data)

    def test_trace_report(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        self._run_traced(capsys, path)
        assert main(["trace-report", path]) == 0
        out = capsys.readouterr().out
        assert "per-device utilization" in out
        assert "breakdown categories" in out
        assert "top spans" in out

    def test_trace_csv(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        csv = str(tmp_path / "t.csv")
        self._run_traced(capsys, trace, "--trace-csv", csv)
        lines = open(csv).read().splitlines()
        assert lines[0] == "series,ts,value"
        assert len(lines) > 1

    def test_trace_report_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace-report", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize("interval", ["-1", "-0.001", "nan", "inf"])
    def test_bad_sample_interval_rejected(self, tmp_path, interval, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--algorithm", "PR", "--scale", "7", "--machines",
                "2", "--iterations", "1", "--trace",
                str(tmp_path / "t.json"), "--trace-sample-interval", interval,
            ])
        assert exc.value.code == 2
        assert "--trace-sample-interval" in capsys.readouterr().err

    def test_zero_sample_interval_disables_sampling(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        self._run_traced(capsys, path, "--trace-sample-interval", "0")
        events = json.loads(open(path).read())["traceEvents"]
        assert events
        assert not [e for e in events if e["ph"] == "C"]


class TestSanitizeFocus:
    ARGS = [
        "run", "--algorithm", "PR", "--scale", "7", "--machines", "2",
        "--iterations", "1", "--sanitize", "--focus-from-check",
    ]

    def test_focus_is_independent_of_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        # A foreign src/ tree with no sanitizer sites must not shadow the
        # package's own source.
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "other.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert (
            "sanitizer focus (from CHX012 candidates): "
            "accum, chunks, steal, vertex" in out
        )
        summary = [
            line for line in out.splitlines() if line.startswith("sanitizer:")
        ]
        assert summary and summary[0].startswith("sanitizer: 0 race(s), ")
        tracked = int(summary[0].split(", ")[1].split()[0])
        assert tracked > 0

    def test_empty_focus_set_is_an_error(self, monkeypatch):
        import repro.analysis.flow as flow

        monkeypatch.setattr(flow, "collect_focus_kinds", lambda paths: [])
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS)
        assert "no sanitizer access sites" in str(exc.value.code)


class TestCapacity:
    def test_small_projection(self, capsys):
        code = main(
            [
                "capacity",
                "--algorithm",
                "PR",
                "--scale",
                "20",
                "--machines",
                "4",
                "--iterations",
                "2",
                "--chunk-mb",
                "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PR:" in out and "TB I/O" in out


class TestUtilization:
    def test_table_matches_formula(self, capsys):
        assert main(["utilization"]) == 0
        out = capsys.readouterr().out
        assert "0.9956" in out  # rho(32, 5), the paper's 99.56%
        assert "0.9933" in out  # the k=5 limit, the paper's 99.3%
