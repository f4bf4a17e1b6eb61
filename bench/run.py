"""subcomp benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload kt-structured --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src. Each
operation is one in-process `subcomp.cli.main(argv)` call on generated
graph6 or DIMACS files (see workloads.py), issued only after the previous
one has finished, from one thread. Rounds of operations run until
--seconds have passed (and, untraced, at least MIN_SAMPLES operations are
done); a started round always finishes, so every run has the same
composition.

--trace 0 reports the end-to-end metrics: ops_per_s, latency_p50_ms and
latency_p90_ms over the per-operation wall times, setup_s (median wall time
of a fresh interpreter importing subcomp.cli, sampled between operations
about every --seconds / SETUP_SAMPLES seconds, so the samples span the whole
run) and peak_rss_mb.

--trace 1 runs every operation twice, once plain and once traced, in
alternating order, and reports the per-layer metrics: per-operation call
counts and seconds from the spans (spans.py), the exact solver counters
summed over round 0 from the plain runs' reports, and trace.overhead_frac.
The spans are written to .bench_out/spans-<workload>.bin.

Every operation is checked (workloads.py). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SAMPLES = 110  # p90 then has at least ten samples beyond it
HARD_LIMIT_S = 120.0
SETUP_SAMPLES = 25


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing subcomp.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import subcomp.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_op(op):
    """(wall seconds, outcome or None, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # an exception is a failed operation, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        reason = op.check(outcome)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, outcome, reason


class Run:
    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def rounds(self, min_samples: int = 0):
        """Round r's operations, inputs drawn from a generator seeded by
        (workload, seed, r), until the time and sample targets are met."""
        start = time.perf_counter()
        r = 0
        done = 0
        while True:
            rng = random.Random(f"{self.workload.name}:{self.seed}:{r}")
            ops = self.workload.round(rng, self.workdir)
            yield r, ops
            done += len(ops)
            r += 1
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_LIMIT_S or (elapsed >= self.seconds and done >= min_samples):
                return

    def record(self, op, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv[:-1])}: {reason}")

    def plain(self) -> dict:
        latencies = []
        measure_setup()  # may compile bytecode; discarded
        setup = []
        next_setup = time.perf_counter()
        for _, ops in self.rounds(MIN_SAMPLES):
            for op in ops:
                elapsed, _, reason = run_op(op)
                self.record(op, reason)
                latencies.append(elapsed)
                if time.perf_counter() >= next_setup:
                    setup.append(measure_setup())
                    next_setup = time.perf_counter() + self.seconds / SETUP_SAMPLES
        deciles = statistics.quantiles(latencies, n=10)
        print(f"{len(latencies)} latency samples, {sum(x > deciles[8] for x in latencies)} beyond p90, "
              f"{len(setup)} setup samples")
        return {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (deciles[4] * 1e3, "ms"),
            "latency_p90_ms": (deciles[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }

    def traced(self, tracer) -> dict:
        plain_s = traced_s = 0.0
        exact = {"subsets_examined": 0, "pairs_examined": 0}
        n_ops = 0
        for r, ops in self.rounds():
            for op in ops:
                for traced_turn in ((False, True) if n_ops % 2 == 0 else (True, False)):
                    if traced_turn:
                        with tracer.patched(n_ops):
                            elapsed, outcome, reason = run_op(op)
                        traced_s += elapsed
                    else:
                        elapsed, outcome, reason = run_op(op)
                        plain_s += elapsed
                        if r == 0 and reason is None:
                            for key, count in op.counts(outcome).items():
                                exact[key] += count
                    self.record(op, reason)
                n_ops += 1
        return per_layer(tracer, n_ops, exact, plain_s, traced_s)


def per_layer(tracer, n_ops: int, exact: dict, plain_s: float, traced_s: float) -> dict:
    t = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0}

    def get(name):
        return t.get(name, zero)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def calls(name):
        m[f"{name}.calls"] = (get(name)["calls"] / n_ops, "calls/op")

    def seconds(name, kind="s"):
        m[f"{name}.{kind}"] = (get(name)[kind] / n_ops, "s/op")

    m["cli.self_s"] = (get("cli.main")["self_s"] / n_ops, "s/op")
    for name in ("graphs.g6_decode", "graphs.subgraph_complement", "graphs.induced", "graphs.is_pattern_free"):
        calls(name)
        seconds(name)
    seconds("graphs.g6_encode")
    pf = get("graphs.is_pattern_free")
    m["graphs.is_pattern_free.copy_found_ratio"] = (ratio(pf["value"], pf["calls"]), "ratio")
    for name in ("split.find_split_partition", "split.enumerate_split_partitions", "split.is_split_partition"):
        calls(name)
        seconds(name)
    fsp = get("split.find_split_partition")
    m["split.find_split_partition.none_ratio"] = (ratio(fsp["value"], fsp["calls"]), "ratio")
    returned = get("split.enumerate_split_partitions")["value"]
    m["split.partitions_returned"] = (returned / n_ops, "partitions/op")
    m["split.enum_yield_ratio"] = (ratio(returned, get("split.is_split_partition")["calls"]), "ratio")
    calls("solvers.solve_kt_free")
    seconds("solvers.solve_kt_free", "self_s")
    m["solvers.subsets_examined"] = (exact["subsets_examined"], "count")
    m["solvers.pairs_examined"] = (exact["pairs_examined"], "count")
    m["solvers.candidate_distinct_ratio"] = (
        ratio(tracer.candidates_distinct, tracer.candidates_tried), "ratio")
    calls("solvers.brute_solve")
    seconds("solvers.brute_solve", "self_s")
    for name in ("solvers.solve_complement_class", "sat.parse_dimacs", "gadgets.build"):
        calls(name)
        seconds(name)
    m["gadgets.build.vertices"] = (get("gadgets.build")["value"] / n_ops, "vertices/op")
    seconds("gadgets.certificate_json")
    layers = get("<top-level>")["s"] - get("cli.main")["self_s"]
    m["trace.layer_coverage"] = (ratio(layers, traced_s), "ratio")
    m["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subcomp" / "cli.py").is_file():
        print(f"error: no subcomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports subcomp from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed, args.seconds, workdir)
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            metrics = run.traced(tracer)
            tracer.write(out_dir / f"spans-{args.workload}.bin")
        else:
            metrics = run.plain()
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
            metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in run.failures[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
