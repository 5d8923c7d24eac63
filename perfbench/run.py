"""grpleg benchmark: demo, train and eval through the CLI, in-process.

    python3 perfbench/run.py --workload {demo,train,eval} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; grpleg is imported from the
checkout's src/ and nowhere else. One process, one compute thread: the
BLAS/OpenMP pools are pinned to 1 before numpy loads. See bench.py for what
each mode measures. The last line of standard output is the JSON result;
failed calls or output checks make the exit code 1, a broken checkout 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("demo", "train", "eval")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in its own process in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="call wall to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="stage into DIR and exit (times set-up in a fresh process)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_all(args) -> int:
    """Every workload in its own process, one after another: their tables,
    then one result line with the metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print(f"== {name}", *lines[:-1], sep="\n", flush=True)
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        worst = max(worst, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for this process and the set-up processes it starts, so the
    # contention correction measures the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "grpleg" / "__init__.py").is_file():
        print(f"perfbench: no grpleg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grpleg
    if Path(grpleg.__file__).resolve().parent != SRC / "grpleg":
        print(f"perfbench: grpleg imported from {grpleg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(args, ROOT, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
