"""Run the benchmark on every workload over several seeds and summarise.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--json FILE]

Each run is its own process, one after another, with the settings in
BENCHMARK.json.  For every metric the summary gives the median, the first
and third quartiles and their distance as a share of the median (the
spread), over the seeds.
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


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(config, workload, seed, trace):
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results):
    """Median, quartiles, spread and values of each metric over a list of
    results."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE", help="also write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    out = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}",
        "run_seconds": config["run_seconds"],
        "trace": args.trace,
    }
    for workload in args.workload or names:
        results = [run(config, workload, seed, args.trace) for seed in args.seeds]
        summary = summarise(results)
        out[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": summary,
        }
        print(f"{workload}: correct={out[workload]['correct']} "
              f"attempted={out[workload]['attempted']} failed={out[workload]['failed']}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER" if s["spread"] > bound else "")
            print(f"  {name:28} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
