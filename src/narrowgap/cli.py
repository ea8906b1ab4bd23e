"""Command-line driver: one subcommand per claim, deterministic artifacts.

Subcommands: validate (hypothesis checks only), ansatz (emit leading-term
samples), solve (single boundary-value solve), one per check in
``experiments.CHECKS`` (thm11, remark13, decay, cor41, residual, energy),
and all (every check named in the configuration).  Checks run together
make one sweep: the matrix at each (eps, grid) is factored once, and each
distinct check config solves against it once.

Every run writes to the output directory:
  config_echo.json   the parsed configuration with defaults filled
  <check>_<stat>.csv sweep tables (full float precision; the clean points
                     are the rows with flagged 0)
  fits.json          fit summaries as structured records
  report.txt         human-readable report: validation, verdicts, the
                     flagged points (check, statistic, eps, grid, reason,
                     rel_change), a digest manifest and, last, a timings
                     block: the solve events' stage times summed per check
                     and grid
  runlog.jsonl       solve events (check, case, eps, grid, assemble_s,
                     factor_s, solve_s, stats_s, reused, residual, fill; a
                     point's times are on its first event, with reused
                     false, and every other event there reads 0 and reused
                     true; a check that read another's solve names it in
                     shared_with) and check events with wall-clock
                     timings; an ABORTED check names its error

report.txt up to its timings block and the CSV/JSON artifacts are
byte-reproducible for a given configuration, package version and BLAS thread
count (one per OpenBLAS pool unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
is set; another count moved sweep values by up to 1.4e-13 relative);
runlog.jsonl carries the timings and is the only other non-deterministic
file (the manifest lists it without a digest).

Exit status: 0 when every verdict is PASS or SKIPPED, 1 otherwise, 2 for
configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import build_ansatz
from .coefficients import (HypothesisViolationError, check_ann,
                           check_pointwise_ellipticity)
from .config import ConfigError, OutputConfig, RunConfig, parse_config, validate_config
from .discretize import grid_for
from .experiments import CHECKS, Verdict, run_checks, solve_point
from .geometry import validate_profiles

COMMANDS = ("validate", "ansatz", "solve", *CHECKS, "all")


@dataclass
class RunReport:
    version: str
    command: str
    verdicts: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    solve_events: list = field(default_factory=list)    # runlog records, for the timings

    @property
    def all_passed(self):
        return all(v.passed for v in self.verdicts)

    def render(self):
        """Text report, deterministic up to its closing timings block."""
        lines = [
            "narrowgap run report",
            f"version: {self.version}",
            f"command: {self.command}",
            "",
            "hypothesis validation:",
        ]
        lines += [f"  {s}" for s in self.validation] or ["  (none)"]
        lines.append("")
        lines.append("verdicts:")
        if self.verdicts:
            for v in self.verdicts:
                lines += ["  " + ln for ln in v.summary().splitlines()]
        else:
            lines.append("  (none)")
        lines.append("")
        lines.append("flagged points (left out of every fit):")
        lines += [f"  {v.name} {key}: eps {p.eps!r}, grid {'x'.join(map(str, p.grid))}, "
                  f"{p.reason}, rel_change {p.rel_change:.4g}"
                  for v in self.verdicts for key, sr in sorted(v.sweeps.items())
                  for p in sr.points if p.flagged] or ["  (none)"]
        lines.append("")
        lines.append("file manifest (sha256):")
        for name in sorted(self.manifest):
            lines.append(f"  {name}  {self.manifest[name]}")
        lines.append("")
        status = 0 if self.all_passed else 1
        lines.append(f"exit status: {status}")
        lines.append("")
        lines.append("timings (s, solve events summed per check and grid; "
                     "they vary from run to run):")
        lines += [f"  {check} {grid}: " + ", ".join(f"{stage} {t:.4f}"
                                                    for stage, t in zip(_STAGES, sums))
                  for (check, grid), sums in _stage_times(self.solve_events).items()
                  ] or ["  (none)"]
        return "\n".join(lines) + "\n"


_STAGES = ("assemble", "factor", "solve", "stats")


def _stage_times(events) -> dict:
    """{(check, grid): the sums of assemble_s, factor_s, solve_s and stats_s}
    over the solve events, in the order the runlog first meets each pair."""
    sums = {}
    for ev in events:
        row = sums.setdefault((ev["check"], ev["grid"]), [0.0] * len(_STAGES))
        for i, stage in enumerate(_STAGES):
            row[i] += ev[f"{stage}_s"]
    return sums


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Emitter:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.manifest = {}
        outdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str):
        data = text.encode("utf-8")
        (self.outdir / name).write_bytes(data)
        self.manifest[name] = _digest(data)


def _float_csv(rows, header):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _hypothesis_summary(cfg: RunConfig):
    """Profile and tensor hypothesis checks at the widest configured gap."""
    eps = (cfg.experiment.eps_list or (1e-1,))[0]
    out = []
    pair = cfg.geometry.build_pair()
    rep = validate_profiles(pair)
    out.append(f"profiles ((A1)-(A3)): {'pass' if rep.passed else 'FAIL'}")
    out += ["  " + ln.strip() for ln in str(rep).splitlines()]
    region = cfg.geometry.build_region(eps)
    tensor = cfg.build_tensor()
    ell = check_pointwise_ellipticity(tensor, region)
    out.append(str(ell))
    try:
        ann = check_ann(tensor, region)
    except HypothesisViolationError as exc:
        out.append(f"[FAIL] {exc}")
        return out, False
    out.append(str(ann))
    all_ok = rep.passed and ell.passed and ann.passed
    return out, all_ok


def _emit_verdict_files(em: _Emitter, verdict: Verdict):
    for stat, sr in sorted(verdict.sweeps.items()):
        em.write(f"{verdict.name}_{stat}.csv", sr.to_csv())


def _fits_record(verdicts):
    rec = {}
    for v in verdicts:
        rec[v.name] = {
            name: {"model": f.model, "slope": f.slope, "intercept": f.intercept,
                   "r_squared": f.r_squared, "npoints": f.npoints,
                   "decay_constant": f.decay_constant}
            for name, f in sorted(v.fits.items())}
        rec[v.name]["status"] = v.status
        rec[v.name]["details"] = _jsonable(v.details)
    return rec


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _single_eps(cfg: RunConfig) -> float:
    """Gap width for single-solve commands: geometry.epsilon, else the sweep head."""
    if cfg.geometry.epsilon is not None:
        return cfg.geometry.epsilon
    return (cfg.experiment.eps_list or (1e-2,))[0]


def _run_ansatz_emit(cfg: RunConfig, em: _Emitter):
    """Sample ubar and its gradient on the solver grid and write them out."""
    eps = _single_eps(cfg)
    region = cfg.geometry.build_region(eps)
    tensor = cfg.build_tensor()
    traces = cfg.build_traces()
    af = build_ansatz(tensor, region, traces)
    grid = grid_for(region, *cfg.solver.scaled_nodes())
    X1, T = grid.node_coords()
    x = region.from_box(X1, T)
    u = af.value(X1[:, :1], T)
    g = af.gradient(X1[:, :1], T)
    N, n = u.shape[-1], g.shape[-1]
    cols = (["xprime0", "t", "xn"] + ["u%d" % i for i in range(N)]
            + ["du%d_dx%d" % (i, a) for i in range(N) for a in range(n)])
    flat = np.concatenate([X1.reshape(-1, 1), T.reshape(-1, 1),
                           x[..., -1].reshape(-1, 1), u.reshape(-1, N),
                           g.reshape(-1, N * n)], axis=-1)
    em.write("ansatz_field.csv", _float_csv(flat, ",".join(cols)))


def _run_single_solve(cfg: RunConfig, em: _Emitter, log):
    """One solve at ``_single_eps``, set up and solved as a sweep point is."""
    eps = _single_eps(cfg)
    (b,), times = solve_point([cfg], eps, cfg.solver.scaled_nodes())
    if isinstance(b, Exception):
        raise b
    df, rep = b.field, b.report
    log(b.event("solve", "", times=times))
    X1, T = b.grid.node_coords()
    u = np.moveaxis(df.values, 0, -1)
    flat = np.concatenate([X1.reshape(-1, 1), T.reshape(-1, 1),
                           u.reshape(-1, df.N)], axis=-1)
    cols = ["xprime0", "t"] + ["u%d" % i for i in range(df.N)]
    em.write("solution.csv", _float_csv(flat, ",".join(cols)))
    note = (f"single solve at eps {eps:g}: method {rep.method}, "
            f"{rep.unknowns} unknowns, residual {rep.residual:.3e}")
    return [Verdict("solve", "PASS", {"note": note})]


def run(cfg: RunConfig, command: str = "all", outdir=None) -> RunReport:
    """Execute a command against a parsed configuration; write artifacts."""
    outdir = Path(outdir if outdir is not None else cfg.output.dir)
    em = _Emitter(outdir)
    events = []

    def log(record):
        events.append(record)

    report = RunReport(__version__, command)
    t_start = time.perf_counter()

    validation, hyp_ok = _hypothesis_summary(cfg)
    report.validation = validation

    if command == "validate":
        if not hyp_ok:
            report.verdicts.append(Verdict("validate", "FAIL",
                                           {"note": "hypothesis checks failed"}))
        else:
            report.verdicts.append(Verdict("validate", "PASS",
                                           {"note": "profiles and tensor pass "
                                                    "their declared hypotheses"}))
    elif command == "ansatz":
        _run_ansatz_emit(cfg, em)
        report.verdicts.append(Verdict("ansatz", "PASS",
                                       {"note": "field samples written to "
                                                "ansatz_field.csv"}))
    elif command == "solve":
        try:
            report.verdicts.extend(_run_single_solve(cfg, em, log))
        except Exception as exc:
            report.verdicts.append(
                Verdict("solve", "ABORTED",
                        {"error": f"{type(exc).__name__}: {exc}"}))
    else:
        names = cfg.experiment.checks if command == "all" else (command,)
        for verdict in run_checks(cfg, names):
            name = verdict.name
            report.verdicts.append(verdict)
            _emit_verdict_files(em, verdict)
            events.extend(verdict.solver_events)
            event = {"event": "check", "name": name, "status": verdict.status,
                     "elapsed": verdict.elapsed}
            if verdict.status == "ABORTED":
                event["error"] = verdict.details.get("error")
            log(event)

    em.write("config_echo.json", cfg.to_json() + "\n")
    em.write("fits.json", json.dumps(_fits_record(report.verdicts), indent=2,
                                     sort_keys=True) + "\n")

    total = time.perf_counter() - t_start
    report.solve_events = [e for e in events if e["event"] == "solve"]
    report.manifest = dict(em.manifest)
    report.manifest["runlog.jsonl"] = "(timing log, excluded from digests)"
    em.write("report.txt", report.render())
    report.manifest["report.txt"] = em.manifest["report.txt"]

    log({"event": "total", "elapsed": total})
    runlog = "\n".join(json.dumps(_jsonable(e), sort_keys=True) for e in events)
    (outdir / "runlog.jsonl").write_text(runlog + "\n", encoding="utf-8")
    return report


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.grid_scale is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, grid_scale=args.grid_scale))
    if args.out is not None:
        cfg = replace(cfg, output=OutputConfig(dir=args.out))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narrowgap",
        description="Numerical experiments for gradient asymptotics of "
                    "elliptic systems in narrow regions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, metavar="PATH")
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--grid-scale", type=float, default=None, metavar="F",
                       dest="grid_scale")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        cfg = _apply_overrides(parse_config(args.config), args)
        violations = validate_config(cfg)           # the overrides are checked too
        if violations:
            raise ConfigError(violations)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return 2

    report = run(cfg, args.command)
    outdir = Path(cfg.output.dir)
    print(report.render(), end="")
    print(f"artifacts written to {outdir}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
