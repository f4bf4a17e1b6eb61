"""Run every workload over several seeds and record medians and spreads.

    python3 bench/baseline.py --label <commit> --out bench/BASELINE.json

For each workload in BENCHMARK.json: one untraced run for each of the seeds
1 to 10, then one traced run on seed 1. Per end-to-end metric it records the ten
values, their median, and the spread (distance between the first and third
quartile from statistics.quantiles(values, n=4), as a share of the median)
next to the metric's bound. The traced run gives the per-layer breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {
        "label": args.label,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "ru_maxrss_unit": "KiB (Linux getrusage)",
        },
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result = run(bench, name, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            end_to_end[m["name"]] = {
                "unit": m["unit"],
                "median": median,
                "spread": (q3 - q1) / median,
                "bound": m["bound"],
                "values": vals,
            }
            print(f"  {m['name']:16s} median {median:10.4f} spread {(q3 - q1) / median:.3f} bound {m['bound']}")
        traced = run(bench, name, SEEDS[0], 1)
        summary["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
