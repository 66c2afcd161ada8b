"""Job-level benchmark of qorigami.

    python3 perfbench/run.py --workload catalog_trace --seed 1 \\
        --seconds 15 --trace 0

Starts one workload process (worker.py), which imports qorigami from this
checkout's src/, sends jobs from a single client thread back-to-back and
checks every output against `reference`.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Result and trace files are written under perfbench/out/.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")
TIMEOUT_S = 170
# One client thread and one BLAS thread: the dense kernels work on matrices
# of dimension below a few hundred, where OpenBLAS's default threads on a
# small shared machine made job latencies several times slower and spread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv, "--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE, timeout=TIMEOUT_S,
            env={**os.environ, **SINGLE_THREAD})
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: workload printed no result", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
