#!/usr/bin/env python3
"""Host-time benchmark of the Chaos reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload pr-bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run, in this process, single-threaded:

1. set-up, ``SETUP_ROUNDS`` times: ``import repro`` in a fresh
   interpreter plus building the workload's graph here;
2. one untimed warm-up job;
3. jobs for ``--seconds`` (at least ``MIN_REPEATS``), each after a
   ``gc.collect()``.  With ``--trace 1`` every timed job is an untraced
   job followed by a traced one (see ``ledger.py``);
4. checks: every job's value digest and simulated runtime equal the
   first job's, and the values match an independent oracle.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  See README.md in
this directory for what each metric means.  ``--workload all`` runs each
workload in its own fresh process and prefixes the metric names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import median

# ledger, workloads and repro import numpy, so they are imported inside
# functions, after main() has pinned the BLAS/OpenMP thread variables.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("pr-bulk", "pr-fine", "sssp-ckpt")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_ROUNDS = 3
MIN_REPEATS = 3
SPANS_DIR = os.path.join(ROOT, ".perfbench")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import repro; "
                "print(time.perf_counter() - t)")


@dataclass
class Job:
    wall: float
    cpu: float
    result: object
    digest: str


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up ------------------------------------------------------------------


def time_import() -> float:
    """Seconds ``import repro`` takes in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT, env=os.environ,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload, seed):
    """Build the graph ``SETUP_ROUNDS`` times; return it and the timings."""
    from workloads import graph_digest

    imports, builds, digests = [], [], set()
    graph = None
    for _ in range(SETUP_ROUNDS):
        imports.append(time_import())
        graph = None
        gc.collect()
        start = time.perf_counter()
        graph = workload.graph(seed)
        builds.append(time.perf_counter() - start)
        digests.add(graph_digest(graph))
    if len(digests) != 1:
        raise RuntimeError("graph build is not deterministic")
    return graph, imports, builds


# -- jobs --------------------------------------------------------------------


def run_job(workload, graph, seed, ledger=None) -> Job:
    from repro import run_algorithm
    from workloads import digest

    algorithm = workload.make_algorithm()
    config = workload.config(seed)
    plan = workload.fault_plan()
    gc.collect()
    if ledger is None:
        start, cpu = time.perf_counter(), time.process_time()
        result = run_algorithm(algorithm, graph, config, fault_plan=plan)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    else:
        with ledger.instrumented(algorithm) as traced_run_algorithm:
            start, cpu = time.perf_counter(), time.process_time()
            result = traced_run_algorithm(algorithm, graph, config, fault_plan=plan)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return Job(wall, cpu, result, digest(result.values))


class Tally:
    """Counts attempted and failed jobs; a job that raises is a failure."""

    def __init__(self, workload, graph, seed):
        self.workload, self.graph, self.seed = workload, graph, seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def job(self, ledger=None):
        self.attempted += 1
        try:
            return run_job(self.workload, self.graph, self.seed, ledger)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            self.problems.append(traceback.format_exc())
            return None

    def check(self, jobs):
        """Count jobs whose digest or sim runtime differs from the first."""
        jobs = [j for j in jobs if j is not None]
        if not jobs:
            return None
        first = jobs[0]
        for job in jobs[1:]:
            if job.digest != first.digest or job.result.runtime != first.result.runtime:
                self.failed += 1
                self.problems.append(
                    f"job differs from the first: digest {job.digest[:12]} vs "
                    f"{first.digest[:12]}, sim runtime {job.result.runtime!r} vs "
                    f"{first.result.runtime!r}")
        return first

    def oracle(self, first):
        from workloads import check_values

        problem = check_values(self.workload, self.graph, first.result.values)
        if problem is not None:
            # check() left only jobs that gave these values: all fail.
            self.failed = self.attempted
            self.problems.append(f"oracle: {problem}")


def timed_loop(seconds, step):
    """Call ``step()`` MIN_REPEATS times, then while one more fits in ``seconds``.

    A step is predicted to take as long as the mean step so far, so a run
    ends close to ``seconds`` instead of overrunning by up to one job.
    """
    start = time.perf_counter()
    count = 0
    while count < MIN_REPEATS or (time.perf_counter() - start) * (count + 1) / count <= seconds:
        step()
        count += 1


# -- reports -----------------------------------------------------------------


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(tally, ok, imports, builds, peak_rss_mb):
    walls = [j.wall for j in ok]
    edges = tally.graph.num_edges
    return {
        "job_s": metric(median(walls), "s"),
        "job_cpu_s": metric(median([j.cpu for j in ok]), "s"),
        "edges_per_s": metric(
            median([edges * j.result.iterations / j.wall for j in ok]), "1/s"),
        "setup_s": metric(median([i + b for i, b in zip(imports, builds)]), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "sim_runtime_s": metric(ok[0].result.runtime, "s"),
    }


def count_name(layer):
    """Metric name of a layer's call count; the root is called once a job."""
    from ledger import ROOT as ROOT_LAYER

    if layer == ROOT_LAYER:
        return None
    return "sim.epochs" if layer == "sim.dispatch" else f"{layer}_n"


def per_layer(ledger, plain, ok, imports, builds):
    """Ledger of the traced jobs ``ok``, per job; ``plain`` are untraced."""
    from ledger import LAYER_NAMES

    jobs = len(ok)
    totals = {name: float(v.sum()) for name, v in ledger.self_times().items()}
    self_s = {name: total / jobs for name, total in totals.items()}
    calls = {name: n / jobs for name, n in ledger.call_counts().items()}
    out = {
        "setup.import_s": metric(median(imports), "s"),
        "setup.graph_s": metric(median(builds), "s"),
    }
    for name in LAYER_NAMES:
        out[f"{name}_s"] = metric(self_s[name], "s")
        if count_name(name):
            out[count_name(name)] = metric(calls[name], "count")
    updates = ledger.work.get("core.reduce", 0) / jobs
    reduce_s = self_s["core.reduce"]
    out["core.reduce_updates"] = metric(updates, "count")
    out["core.reduce_updates_per_s"] = metric(updates / reduce_s if reduce_s else 0.0, "1/s")
    result = ok[0].result
    steals = result.steals_accepted + result.steals_rejected
    out["core.steal_accept_ratio"] = metric(
        result.steals_accepted / steals if steals else 0.0, "ratio")
    out["store.integrity_rereads"] = metric(result.integrity.get("integrity_rereads", 0), "count")
    out["sim.bytes_moved"] = metric(result.storage_bytes + result.network_bytes, "bytes")
    out["sim.iterations"] = metric(result.iterations, "count")
    out["ledger.closure"] = metric(sum(totals.values()) / sum(j.wall for j in ok), "ratio")
    out["trace.overhead"] = metric(
        median([j.wall for j in ok]) / median([j.wall for j in plain]) - 1.0, "ratio")
    return out


def print_ledger(metrics, traced_job_s):
    from ledger import LAYER_NAMES

    print(f"  {'layer':<16}{'self s':>10}{'share':>9}{'calls':>10}")
    for name in LAYER_NAMES:
        seconds = metrics[f"{name}_s"]["value"]
        count = metrics[count_name(name)]["value"] if count_name(name) else 1
        print(f"  {name:<16}{seconds:>10.4f}{seconds / traced_job_s:>9.1%}{count:>10.0f}")


def run_one(args) -> int:
    from ledger import Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    graph, imports, builds = set_up(workload, args.seed)
    tally = Tally(workload, graph, args.seed)
    warm = tally.job()
    # Peak through set-up and one job: later repeats only add allocator
    # fragmentation, which varies with how many jobs fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain, traced = [], []
    ledger = Ledger() if args.trace else None

    def step():
        plain.append(tally.job())
        if ledger is not None:
            traced.append(tally.job(ledger))

    timed_loop(args.seconds, step)
    ok_plain = [j for j in plain if j is not None]
    ok_traced = [j for j in traced if j is not None]
    metrics = None
    if ok_plain and ledger is None:
        metrics = end_to_end(tally, ok_plain, imports, builds, peak_rss_mb)
    elif ok_plain and ok_traced:
        metrics = per_layer(ledger, ok_plain, ok_traced, imports, builds)
    first = tally.check([warm] + plain + traced)
    if first is not None:
        tally.oracle(first)
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    if metrics is None:
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1

    walls = sorted(j.wall for j in ok_plain)
    print(f"perfbench {workload.name} seed={args.seed}: |V|={graph.num_vertices} "
          f"|E|={graph.num_edges}; {len(walls)} timed jobs (+1 warm-up), untraced "
          f"wall {walls[0]:.3f}..{walls[-1]:.3f} s; attempted={tally.attempted} "
          f"failed_share={tally.failed / tally.attempted:.4f}")
    if ledger is not None:
        ledger.save(os.path.join(SPANS_DIR, f"spans-{workload.name}-seed{args.seed}.npz"))
        print_ledger(metrics, sum(j.wall for j in ok_traced) / len(ok_traced))
    for name, m in metrics.items():
        print(f"  {name:<28}{m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; metric names get a prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=os.environ, stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if child.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        report = json.loads(lines[-1])
        merged["correct"] &= report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for key, value in report["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
