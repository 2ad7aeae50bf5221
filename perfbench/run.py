"""Benchmark of the subwordcount package: one workload per invocation.

    python3 perfbench/run.py --workload closed-multi --seed 1 --seconds 10 --trace 0

A single client calls the package's public entry points in a closed loop
on one thread: each call starts when the previous one has returned.  The
calls go through whole passes over the workload's 25 generated inputs
until ``--seconds`` have passed and at least 100 calls were made.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then exactly one traced pass, and reports the
per-layer metrics of that pass, whose counters depend only on the workload
table.
Every count is checked after the timed loop against a reference computed
by another method.  The last line of stdout is one JSON object.

``setup_s`` is the median of ``SETUPS`` set-ups, each in a fresh process
(this script with ``--setup-only``) timed from its start to the point
where a run makes its first timed call.

On the 2-CPU machine where the baseline was taken, the speed of a fixed
piece of Python code drifted by 10 to 20% from one second to the next and
by tens of percent over minutes, which no amount of work per run averages
out, so the end-to-end times and rates are scaled.  A fixed calibration
probe runs after every call, outside its timing.  Each pass has a
slowdown, the median probe time of the pass over
``CALIBRATION_NOMINAL_S``; the pass's call times are divided by it and its
rate is multiplied by it.  Process start-up drifts apart from that, so
``setup_s`` is scaled by bare interpreter starts made between the set-ups
instead: divided by their median over ``BARE_START_NOMINAL_S``.  Neither
yardstick runs package code, so a change to the package moves the scaled
metrics in the same proportion as the raw ones, which are printed next to
them.
"""

import argparse
import collections
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("core", "overlap", "combinatorics", "closed_form", "automaton", "cli")
SETUPS = 21  # cold set-ups per run, each in a fresh process; setup_s is their median
MIN_CALLS = 100  # so that at least ten latency samples lie beyond p90
WRONG = "wrong count"
CALIBRATION_INT = 3**12000  # operand of the probe's big-int products
CALIBRATION_NOMINAL_S = 0.002
BARE_START = ("-c", "pass")  # interpreter arguments of the set-up's yardstick
BARE_START_NOMINAL_S = 0.05


def set_up(workload, seed, workdir):
    """Import of the package, then the run's inputs from the seed."""
    pkg = types.SimpleNamespace(
        **{name: importlib.import_module(f"subwordcount.{name}") for name in MODULES}
    )
    if not Path(pkg.core.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"subwordcount was imported from {pkg.core.__file__}, not {SRC}")
    return pkg, workloads.build(workloads.generate(workload, seed), pkg, workdir)


def timed_call(call, case, reported):
    """One call: its output or failure kind, and its wall time."""
    begin = perf_counter()
    try:
        return call(case), None, perf_counter() - begin
    except workloads.CallFailed as exc:
        return None, str(exc).partition(":")[0], perf_counter() - begin
    except Exception as exc:  # a failed call is counted, not fatal
        seconds = perf_counter() - begin
        kind = type(exc).__name__
        if kind not in reported:
            reported.add(kind)
            traceback.print_exception(exc, file=sys.stderr)
        return None, kind, seconds


def calibration_s():
    """Time of the calibration probe: the kinds of work the package's calls
    do (an interpreter loop, big-int products and dict inserts), each for
    0.5 to 1 ms on the machine where the baseline was taken."""
    begin = perf_counter()
    sum(range(50_000))
    for _ in range(4):
        CALIBRATION_INT * CALIBRATION_INT
    table = {}
    for i in range(8000):
        table[i * 7919] = i
    return perf_counter() - begin


def started_s(argv):
    """Wall time from starting the interpreter on ``argv`` to its first
    line of output, or to its exit if it prints nothing; and that line."""
    begin = perf_counter()
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = perf_counter() - begin
        child.stdout.read()
    if child.returncode != 0:
        raise SystemExit(f"{argv} exited with code {child.returncode}")
    return seconds, line


def cold_setups(args):
    """Median time of ``SETUPS`` fresh processes running this script with
    ``--setup-only``, each from its start to its "ready" line, which it
    prints where a run would make its first timed call; and the median time
    of as many bare interpreter starts, made in turn with them."""
    argv = [__file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"]
    setups, bare = [], []
    for _ in range(SETUPS):
        bare.append(started_s(BARE_START)[0])
        seconds, line = started_s(argv)
        if line != "ready\n":
            raise SystemExit(f"set-up in a fresh process printed {line!r}, not 'ready'")
        setups.append(seconds)
    return statistics.median(setups), statistics.median(bare)


def run_passes(cases, call, seconds, min_calls, tracer=None):
    """Whole passes over ``cases`` until ``seconds`` and ``min_calls`` are
    reached.  Returns (time spent in calls, slowdown) for each pass, and
    one (case index, output, failure, latency) record per call, in call
    order."""
    passes, records, reported = [], [], set()
    start = perf_counter()
    while True:
        busy, probes = 0.0, []
        for index, case in enumerate(cases):
            if tracer is not None:
                tracer.call = len(records)
            records.append((index, *timed_call(call, case, reported)))
            busy += records[-1][3]
            probes.append(calibration_s())
        passes.append((busy, statistics.median(probes) / CALIBRATION_NOMINAL_S))
        if perf_counter() - start >= seconds and len(records) >= min_calls:
            return passes, records


def check(workload, pkg, cases, records, references):
    """Compare every returned count with its reference, computing missing
    references into ``references`` (case index -> count).

    Returns each call's outcome (None when the count is right, else the
    failure kind) and the most decimal digits of any returned count.
    """
    outcomes = []
    digits_max = 0
    for index, output, failure, _ in records:
        if failure is None:
            try:
                value, digits = workloads.count_of(workload, output)
            except (ValueError, KeyError, TypeError):
                value, digits = None, 0
            if index not in references:
                references[index] = workloads.reference(workload, pkg, cases[index])
            if value is None or value != references[index]:
                failure = WRONG
            digits_max = max(digits_max, digits or 0)
        outcomes.append(failure)
    return outcomes, digits_max


def pass_rates(passes, outcomes):
    """Correct calls per second of each pass, raw and scaled."""
    size = len(outcomes) // len(passes)
    rates = [
        sum(o is None for o in outcomes[p * size : (p + 1) * size]) / seconds
        for p, (seconds, _) in enumerate(passes)
    ]
    return rates, [rate * slowdown for rate, (_, slowdown) in zip(rates, passes)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit; a run times this to report setup_s")
    args = parser.parse_args(argv)

    if not (SRC / "subwordcount").is_dir():
        raise SystemExit(f"no package source at {SRC / 'subwordcount'}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="docs-", dir=OUT)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    pkg, cases = set_up(args.workload, args.seed, workdir)
    call = workloads.caller(args.workload, pkg)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} inputs per pass, "
          "1 client, closed loop, single thread")
    print(f"inputs: {workloads.size_summary(cases, pkg)}")

    references = {}
    if not args.trace:
        setup_s, bare_start_s = cold_setups(args)
        passes, records = run_passes(cases, call, args.seconds, MIN_CALLS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes, _ = check(args.workload, pkg, cases, records, references)
        n = len(records)
        latencies = [r[3] for r in records]
        scaled = [r[3] / passes[k // len(cases)][1] for k, r in enumerate(records)]
        rates, scaled_rates = pass_rates(passes, outcomes)
        failures = collections.Counter(o for o in outcomes if o is not None)
        failed = sum(failures.values())
        slowdowns = sorted(slowdown for _, slowdown in passes)
        print(f"{n} calls in {len(passes)} passes, {sum(busy for busy, _ in passes):.2f} s "
              f"of calls; latency samples n={n}; instances_per_s is the median of "
              f"{len(passes)} passes; setup_s is the median of {SETUPS} set-ups in fresh processes")
        print(f"error_rate {failed / n:.4f} ({failed} of {n} calls failed: "
              f"{dict(failures) or 'none'})")
        print(f"slowdown per pass {slowdowns[0]:.4f}..{slowdowns[-1]:.4f} (probe over "
              f"{CALIBRATION_NOMINAL_S} s), in set-up {bare_start_s / BARE_START_NOMINAL_S:.4f} "
              f"(bare interpreter start over {BARE_START_NOMINAL_S} s); raw: "
              f"instances_per_s {statistics.median(rates):.6g}, "
              f"latency_p50_ms {statistics.median(latencies) * 1000:.6g}, "
              f"latency_p90_ms {statistics.quantiles(latencies, n=10)[8] * 1000:.6g}, "
              f"setup_s {setup_s:.6g}")
        metrics = {
            "instances_per_s": (statistics.median(scaled_rates), "1/s"),
            "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "latency_p90_ms": (statistics.quantiles(scaled, n=10)[8] * 1000, "ms"),
            "setup_s": (setup_s * BARE_START_NOMINAL_S / bare_start_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return report(metrics, WRONG not in failures, n, failed)

    passes, plain = run_passes(cases, call, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    with tracer.installed(pkg):
        traced_passes, traced = run_passes(cases, call, 0, 0, tracer)
    outcomes, _ = check(args.workload, pkg, cases, plain, references)
    traced_outcomes, digits_max = check(args.workload, pkg, cases, traced, references)
    first = {r[0]: r[1:3] for r in plain[: len(cases)]}
    same = all(first[r[0]] == r[1:3] for r in traced)
    if not same:
        print("traced and untraced runs returned different outputs", file=sys.stderr)
    overhead = pass_rates(traced_passes, traced_outcomes)[1][0] / statistics.median(
        pass_rates(passes, outcomes)[1]
    )
    metrics = tracing.layer_metrics(tracer.spans, digits_max, overhead)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace_file)
    print(f"{len(plain)} untraced calls, then one traced pass of {len(traced)} calls "
          f"({len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)})")
    failures = collections.Counter(o for o in outcomes + traced_outcomes if o is not None)
    print(f"failures: {dict(failures) or 'none'}")
    correct = WRONG not in failures and same
    return report(metrics, correct, len(plain) + len(traced), sum(failures.values()))


def report(metrics, correct, attempted, failed):
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
