"""Sweep benchmark for narrowgap: time to verdict, memory and layer spans.

    python3 sweepbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a narrowgap checkout; it imports the package from
``src/`` there and reads ``configs/``.  A run makes whole passes over the
workload, each in a fresh process (sweepbench/worker.py), until ``--seconds``
would be exceeded; it always makes at least one.  Every metric is the median
over the passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  It first
times the set-up in ``SETUP_PROBES`` fresh processes.  Its pass times are
given in reference-LU units: an untraced pass carries the host-speed gauge
of gauge.py, and its wall time is divided by the gauge's mean sample, so
that the host's drifting load cancels out.  ``--trace 1`` reports the
per-layer metrics: each pass is an untraced process followed by a traced
one, so the tracing overhead is their difference in wall time.  The
untraced half also gives the raw wall time in seconds and the gauge's mean.

The last line of standard output is the JSON result.  The lines before it
record the environment and print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class PassError(RuntimeError):
    """A worker process failed or ran past the deadline."""


def child_env(root: Path):
    """Environment of every worker: this checkout's package, one BLAS thread.

    The configs sweep with ``threads = 1``; one BLAS/OpenMP thread keeps a
    pass on one core, which is no more than any machine's nproc.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def call_worker(root, env, deadline, *args):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassError("no time left for another pass")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise PassError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(list(values))


def end_to_end(passes, setups):
    return {
        "verdict_ref": median(p["wall_s"] / p["ref_lu_s"] for p in passes),
        "clean_points_per_ref": median((p["points_total"] - p["points_flagged"])
                                       * p["ref_lu_s"] / p["wall_s"] for p in passes),
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(pairs):
    traced = [t for _, t in pairs]
    out = {key: median(t["layers"][key] for t in traced) for key in traced[0]["layers"]}
    out.update({
        "config.parse_s": median(t["parse_s"] for t in traced),
        "experiments.points_total": median(t["points_total"] for t in traced),
        "experiments.points_flagged": median(t["points_flagged"] for t in traced),
        "cli.run_wall_s": median(u["wall_s"] for u, _ in pairs),
        "host.ref_lu_s": median(u["ref_lu_s"] for u, _ in pairs),
        "trace.overhead_s": median(t["wall_s"] - u["wall_s"] for u, t in pairs),
        "trace.coverage": median(t["top_level_s"] / t["wall_s"] for t in traced),
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "narrowgap" / "__init__.py").is_file() \
            or not (root / "configs").is_dir() or args.seconds < 1:
        print("sweepbench: run from the root of a narrowgap checkout "
              "(needs src/narrowgap and configs/) with --seconds >= 1",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = child_env(root)
    bench_dir = root / ".sweepbench"
    work = bench_dir / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    runs = []
    try:
        setups = [] if args.trace else [
            call_worker(root, env, deadline, *common, "--setup-only",
                        "--out", str(work / "setup"))
            for _ in range(SETUP_PROBES)]
        passes = []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            out = str(work / f"pass{len(passes)}")
            untraced = call_worker(root, env, deadline, *common, "--out", out + "u")
            runs.append(untraced)
            if args.trace:
                traced = call_worker(root, env, deadline, *common, "--trace",
                                     "--out", out + "t")
                runs.append(traced)
                shutil.copyfile(Path(out + "t") / "spans.jsonl",
                                bench_dir / f"spans-{args.workload}-{args.seed}.jsonl")
                passes.append((untraced, traced))
            else:
                passes.append(untraced)
            now = time.monotonic()
            if now - measure_start + (now - t0) > args.seconds or now + (now - t0) > deadline:
                break
    except PassError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced_passes = [u for u, _ in passes] if args.trace else passes
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setups)
    if metrics.keys() != units.keys():
        print("sweepbench: metrics differ from BENCHMARK.json: "
              f"{sorted(metrics.keys() ^ units.keys())}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = sorted({p for r in runs for p in r["problems"]})

    print("# environment " + json.dumps({
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), **runs[0]["versions"],
        "threads": {var: env[var] for var in THREAD_VARS}}))
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "eps_shift_decades": workloads.shift_decades(args.workload, args.seed),
        "passes": len(passes), "setup_probes": len(setups),
        "pass_wall_s": [round(u["wall_s"], 3) for u in untraced_passes],
        "pass_ref_lu_s": [round(u["ref_lu_s"], 6) for u in untraced_passes],
        "pass_ref_samples": [u["ref_samples"] for u in untraced_passes],
        "seconds": round(time.monotonic() - start, 3), "problems": problems}))
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
