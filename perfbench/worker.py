"""The workload process: one client thread sending jobs back-to-back.

Started by run.py, which passes the monotonic time at which it spawned
this process; set-up time runs from then until the first timed job can be
sent.  Set-up covers interpreter start, importing qorigami with numpy and
scipy, building the catalog and the job list, and a warm-up pass (see
`workloads`) so that lazily filled caches and first-call costs fall in
set-up rather than in the first round.

The timed phase repeats whole rounds until at least `--seconds` of job
time has passed and the run holds enough jobs for its tail percentile to
have ten jobs beyond it.  Each job's output is checked right after it
returns.  Job time is the sum of job latencies, so checking is excluded
from both latency and throughput.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

import workloads
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
MIN_JOBS = 40
JOBS_BEYOND_TAIL = 10


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def load_program():
    """Import the qorigami layers from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "qorigami", "__init__.py")):
        raise SetupError(f"no qorigami sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"qorigami.{layer}")
    origin = os.path.abspath(modules["cli"].__file__)
    if not origin.startswith(os.path.join(SRC, "")):
        raise SetupError(f"qorigami imported from {origin}, not {SRC}")
    return modules


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def min_jobs(pct: int) -> int:
    """Fewest jobs for which the pct-th percentile has ten jobs beyond."""
    n = MIN_JOBS
    while n - math.ceil(pct / 100 * n) < JOBS_BEYOND_TAIL:
        n += 1
    return n


def attempt(workload, job):
    """Run and check one job: (latency s, ran without error, check ok)."""
    start = time.perf_counter()
    try:
        output = workload.run(job)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, False, True
    latency = time.perf_counter() - start
    return latency, True, bool(workload.check(job, output))


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop, recorded beside each run's
    figures so that a slow phase of a shared machine can be told apart from
    a slower program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def timed_phase(workload, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds until `seconds` of job time have passed and the
    tail percentile has ten jobs beyond it."""
    need = min_jobs(workload.tail_percentile)
    latencies, kinds, wrong, failed, round_s = [], {}, [], 0, []
    while sum(round_s) < seconds or len(latencies) < need:
        round_s.append(0.0)
        for job in workload.round_jobs:
            if tracer:
                tracer.job = len(latencies)
            latency, ran, ok = attempt(workload, job)
            latencies.append(latency)
            round_s[-1] += latency
            kinds.setdefault(job.kind, []).append(latency)
            if not (ran and ok):
                failed += 1
            if ran and not ok:
                wrong.append(f"round {len(round_s)} {job.label}")
    return {"latencies": latencies, "kinds": kinds, "wrong": wrong,
            "failed": failed, "rounds": len(round_s), "round_s": round_s}


def run(args) -> dict:
    modules = load_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](
            SimpleNamespace(**modules), args.seed, workdir)
        # Wrong outputs, warm-up errors and post-run check failures; any of
        # them makes the run incorrect.
        wrong = []
        for job in workload.warmup:
            _, ran, ok = attempt(workload, job)
            if not (ran and ok):
                wrong.append(f"warm-up {job.label}")
        ready = time.monotonic()

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(modules)
        phase = timed_phase(workload, args.seconds, tracer)
        wrong += phase["wrong"]
        latencies, rounds = phase["latencies"], phase["rounds"]
        if tracer:
            tracer.uninstall()
        if workload.post_check:
            wrong += workload.post_check()

        # Throughput of the median round: a burst of machine load in one
        # round does not move it.
        jobs_per_s = len(workload.round_jobs) / statistics.median(
            phase["round_s"])
        if tracer:
            metrics = tracer.layer_metrics(rounds, jobs_per_s)
            tracer.write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            values = {
                "setup_s": ready - args.spawned_at,
                "jobs_per_s": jobs_per_s,
                "job_p50_ms": 1e3 * percentile(latencies, 50),
                "job_tail_ms": 1e3 * percentile(latencies,
                                                workload.tail_percentile),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        result = {"correct": not wrong, "attempted": len(latencies),
                  "failed": phase["failed"], "metrics": metrics}
        details = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "rounds": rounds,
                   "round_s": phase["round_s"],
                   "host_speed_ms": host_speed_ms(),
                   "jobs_per_round": len(workload.round_jobs),
                   "tail_percentile": workload.tail_percentile,
                   "kind_p50_ms": {kind: 1e3 * percentile(values, 50)
                                   for kind, values in phase["kinds"].items()},
                   "kind_jobs": {kind: len(values)
                                 for kind, values in phase["kinds"].items()},
                   "wrong": wrong, **result}
        with open(os.path.join(
                OUT, f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json"), "w") as fh:
            json.dump(details, fh, indent=1, sort_keys=True)
        for message in wrong:
            print(f"check failed: {message}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog_trace", "stabilizer_oracle",
                                 "measurement"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", dest="spawned_at", type=float,
                        required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
