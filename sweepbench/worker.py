"""One benchmark pass in a fresh process: set up, run, check, measure.

    python3 sweepbench/worker.py --root CHECKOUT --workload W --seed S \
        --out DIR [--trace] [--setup-only] [--write-golden]

Prints one JSON object as its last line.  ``--setup-only`` stops after the
set-up (import narrowgap, parse the configs, apply the overrides) and
reports its time.  Without ``--trace`` the pass runs under the host-speed
gauge (gauge.py): ``wall_s`` excludes the gauge's own time and ``ref_lu_s``
is its mean reference-LU time.  ``--trace`` wraps the layers in spans
instead, writes them to DIR/spans.jsonl and adds the per-layer metrics.
``--write-golden`` stores this pass's verdicts as the seed-0 reference in
golden.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def verdict_record(verdict):
    """Status and every numeric or boolean detail, numbers rounded to 4 dp."""
    details = {}

    def walk(obj, key):
        if isinstance(obj, dict):
            for k, v in sorted(obj.items()):
                walk(v, f"{key}.{k}" if key else str(k))
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{key}.{i}")
        elif obj is None or isinstance(obj, bool):
            details[key] = obj
        elif not isinstance(obj, str):
            details[key] = round(float(obj), 4)

    walk(verdict.details, "")
    return {"status": verdict.status, "details": details}


def judge(records: dict, expected: dict | None = None):
    """(attempted, failed, problems) over the verdicts of one pass.

    ``records`` maps config name -> check name -> ``verdict_record``.  A
    verdict fails when it is not PASS, when it is missing, or, given the
    golden ``expected`` records, when its record differs from them.
    """
    attempted = failed = 0
    problems = []
    for cfg in sorted(records.keys() | (expected or {}).keys()):
        got = records.get(cfg, {})
        want = None if expected is None else expected.get(cfg, {})
        for check in sorted(got.keys() | (want or {}).keys()):
            attempted += 1
            rec = got.get(check)
            if rec is None:
                problem = "not run"
            elif rec["status"] != "PASS":
                problem = rec["status"]
            elif want is not None and want.get(check) != rec:
                problem = "differs from golden.json"
            else:
                continue
            failed += 1
            problems.append(f"{cfg}/{check}: {problem}")
    return attempted, failed, problems


def count_points(outdir: Path):
    """(rows, flagged rows) over the sweep CSVs a run wrote."""
    total = flagged = 0
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if rows and "flagged" in rows[0] and "eps" in rows[0]:
            total += len(rows)
            flagged += sum(row["flagged"] != "0" for row in rows)
    return total, flagged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.write_golden and (args.seed != 0 or args.trace):
        ap.error("golden.json holds untraced seed-0 verdicts only")

    t_start = time.perf_counter()
    import narrowgap
    from narrowgap import cli
    t_import = time.perf_counter()
    configs = workloads.build_configs(args.root, args.workload, args.seed)
    t_setup = time.perf_counter()
    src = (args.root / "src").resolve()
    if src not in Path(narrowgap.__file__).resolve().parents:
        raise SystemExit(f"narrowgap imported from {narrowgap.__file__}, not {src}")
    result = {"setup_s": t_setup - t_start, "parse_s": t_setup - t_import}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if any(cfg.experiment.threads != 1 for _, cfg in configs):
        raise SystemExit("spans and gauge samples need the sweep on the main "
                         "thread: configs need threads = 1")
    tracer = factors = written = None
    if args.trace:
        import layers
        import spans
        tracer = spans.Tracer()
        factors, written = layers.install(tracer)
        meter = contextlib.nullcontext()
    else:
        import gauge
        meter = gauge.Gauge()

    wall = 0.0
    records = {}
    points = flagged = 0
    for name, cfg in configs:
        outdir = args.out / name
        if tracer is not None:
            tracer.run = name
        with meter:
            t0 = time.perf_counter()
            report = cli.run(cfg, "all", outdir=outdir)
            wall += time.perf_counter() - t0
        records[name] = {v.name: verdict_record(v) for v in report.verdicts}
        p, f = count_points(outdir)
        points, flagged = points + p, flagged + f

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    expected = None
    if args.seed == 0 and not args.write_golden:
        if args.workload not in golden:
            raise SystemExit(f"golden.json has no record for {args.workload}")
        expected = golden[args.workload]
    attempted, failed, problems = judge(records, expected)

    if args.write_golden:
        golden[args.workload] = records
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    import numpy
    import scipy
    if tracer is None:
        wall -= meter.spent
        result.update({"ref_lu_s": meter.mean, "ref_samples": len(meter.samples)})
    result.update({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points_total": points,
        "points_flagged": flagged,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "narrowgap": narrowgap.__version__},
    })
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer.spans, factors, written)
        result["top_level_s"] = spans.top_level_cover(tracer.spans)
        tracer.dump(args.out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
