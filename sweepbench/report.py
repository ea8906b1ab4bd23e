"""Print every metric, end-to-end and per layer, for every workload.

    python3 sweepbench/report.py [--seed N] [--seconds S]

Run from the root of a narrowgap checkout.  Makes one untraced and one
traced run.py invocation per workload (about 2 minutes each) and prints
their metric lines, environment and run records.  The JSON result lines are
replaced by one line with their correct/attempted/failed counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode == 0:
                result = json.loads(lines[-1])
                print("\n".join(lines[:-1]))
                print(f"# result {name} trace {trace}: correct {result['correct']}, "
                      f"attempted {result['attempted']}, failed {result['failed']}",
                      flush=True)
            else:
                print(proc.stderr, file=sys.stderr)
                status = proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
