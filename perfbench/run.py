"""Benchmark of the icmor pipeline, one workload per process.

    python3 perfbench/run.py --workload case1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ``src/``.  The
BLAS thread count is fixed before numpy is imported.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when the
outputs match the reference.  ``--workload all`` runs the four workloads
in their own processes, one after the other.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# BLAS threads, capped by the CPUs this process may use; two workload
# processes must never run side by side
BLAS_THREADS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BENCHMARK.json lists the first three; online latency follows the host's
# speed phases too closely for a bound (see README.md)
ALL_WORKLOADS = ("case1", "case2", "msd600-bt", "online")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    status = 0
    for name in ALL_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode != 0
    return int(status)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "icmor", "__init__.py")):
        print(f"perfbench: no icmor sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         time.perf_counter() - _START, threads)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
