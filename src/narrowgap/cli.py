"""Command-line driver: one subcommand per claim, deterministic artifacts.

Subcommands: validate (hypothesis checks only), ansatz (emit leading-term
samples), solve (single boundary-value solve), one per check in
``experiments.CHECKS`` (thm11, remark13, decay, cor41, residual, energy),
and all (every check named in the configuration).  Checks run together
make one sweep per tensor, geometry and grid: the matrix at each (eps, grid)
is factored once, and each distinct check config solves against it once.

Each command takes the hypothesis record (``_hypotheses``) at the gap it
solves: validate at ``RunConfig.widest_eps()``, ansatz and solve at
``_single_eps``, a check at ``RunConfig.sweep_head()``.  If one fails, validate
FAILs and any other command is ABORTED, naming it, before any plan or solve.

Every run writes to the output directory:
  config_echo.json   the parsed configuration with defaults filled
  <check>_<stat>.csv sweep tables (full float precision; the clean points
                     are the rows with flagged 0)
  fits.json          fit summaries as structured records
  report.txt         human-readable report: the hypothesis record and its
                     gap, verdicts, the flagged points (check, statistic,
                     eps, grid, reason, rel_change), a digest manifest and,
                     last, the solve events' stage times per check and grid
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
is set; another count moved sweep values by up to 1.4e-13 relative).  The
factorization's two threads do not break this: the column that splits each
band is fixed, and so is the arithmetic of each thread;
runlog.jsonl carries the timings and is the only other non-deterministic
file (the manifest lists it without a digest).

Exit status: 0 when every verdict is PASS or SKIPPED, 1 otherwise (a
failed hypothesis included), 2 for configuration errors.
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
from .experiments import CHECKS, PointSetup, Verdict, run_checks, solve_point
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
        for v in self.verdicts:         # every command appends at least one
            lines += ["  " + ln for ln in v.summary().splitlines()]
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


class _Emitter:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.manifest = {}
        outdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str):
        data = text.encode("utf-8")
        (self.outdir / name).write_bytes(data)
        self.manifest[name] = hashlib.sha256(data).hexdigest()


def _float_csv(rows, header):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _hypotheses(cfg: RunConfig, eps: float):
    """The hypothesis record at gap ``eps``: (its lines, the first failed line or None).

    In the order a failure is named: (A1)-(A3) on the profiles, a positive
    definite A^nn (each correction vector G_l is solved with it), then
    pointwise Legendre ellipticity.
    """
    rep = validate_profiles(cfg.geometry.build_pair())
    region, tensor = cfg.geometry.build_region(eps), cfg.build_tensor()
    out = [f"at eps {eps!r}", f"profiles ((A1)-(A3)): {'pass' if rep.passed else 'FAIL'}"]
    out += ["  " + ln.strip() for ln in str(rep).splitlines()]
    try:
        out.append(str(check_ann(tensor, region)))
    except HypothesisViolationError as exc:
        out.append(f"[FAIL] {exc}")
    out.append(str(check_pointwise_ellipticity(tensor, region)))
    return out, next((ln.strip() for ln in out if ln.lstrip().startswith("[FAIL]")), None)


def _fits_record(verdicts):
    rec = {}
    for v in verdicts:
        rec[v.name] = {
            name: {"model": f.model, "slope": f.slope, "intercept": f.intercept,
                   "r_squared": f.r_squared, "npoints": f.npoints,
                   "decay_constant": f.decay_constant}
            for name, f in sorted(v.fits.items())}
        rec[v.name]["status"] = v.status
        rec[v.name]["details"] = v.details
    return rec


def _single_eps(cfg: RunConfig) -> float:
    """Gap width for single-solve commands: geometry.epsilon, else eps_list[0], else 1e-2."""
    if cfg.geometry.epsilon is not None:
        return cfg.geometry.epsilon
    return (cfg.experiment.eps_list or (1e-2,))[0]


def _run_ansatz_emit(cfg: RunConfig, em: _Emitter) -> str:
    """Sample ubar and its gradient on the solver grid and write them out."""
    point = PointSetup.build(cfg, _single_eps(cfg), cfg.solver.scaled_nodes())
    af = build_ansatz(point.tensor, point.region, cfg.build_traces())
    X1, T = point.coords
    x = point.region.from_box(X1, T)
    u = af.value(X1[:, :1], T)
    g = af.gradient(X1[:, :1], T)
    N, n = u.shape[-1], g.shape[-1]
    cols = (["xprime0", "t", "xn"] + ["u%d" % i for i in range(N)]
            + ["du%d_dx%d" % (i, a) for i in range(N) for a in range(n)])
    flat = np.concatenate([X1.reshape(-1, 1), T.reshape(-1, 1),
                           x[..., -1].reshape(-1, 1), u.reshape(-1, N),
                           g.reshape(-1, N * n)], axis=-1)
    em.write("ansatz_field.csv", _float_csv(flat, ",".join(cols)))
    return "field samples written to ansatz_field.csv"


def _run_single_solve(cfg: RunConfig, em: _Emitter, log) -> str:
    """One solve at ``_single_eps``, set up and solved as a sweep point is."""
    eps = _single_eps(cfg)
    (b,), times = solve_point([cfg], eps, cfg.solver.scaled_nodes())
    if isinstance(b, Exception):
        raise b
    df, rep = b.field, b.report
    log(b.event("solve", "", times=times))
    X1, T = b.coords
    flat = np.concatenate([X1.reshape(-1, 1), T.reshape(-1, 1),
                           df.values.reshape(-1, df.N)], axis=-1)
    cols = ["xprime0", "t"] + ["u%d" % i for i in range(df.N)]
    em.write("solution.csv", _float_csv(flat, ",".join(cols)))
    return (f"single solve at eps {eps:g}: method {rep.method}, "
            f"{rep.unknowns} unknowns, residual {rep.residual:.3e}")


def run(cfg: RunConfig, command: str = "all", outdir=None) -> RunReport:
    """Execute a command against a parsed configuration; write artifacts."""
    outdir = Path(outdir if outdir is not None else cfg.output.dir)
    em = _Emitter(outdir)
    events = []
    report = RunReport(__version__, command)
    t_start = time.perf_counter()

    names = cfg.experiment.checks if command == "all" else (command,)
    eps = (cfg.widest_eps() if command == "validate" else
           _single_eps(cfg) if command in ("ansatz", "solve") else cfg.sweep_head())
    report.validation, failed = _hypotheses(cfg, eps)
    failure = failed and f"hypothesis fails at eps {eps!r}: {failed}"

    if command == "validate":
        report.verdicts = [Verdict("validate", "FAIL" if failure else "PASS", {"note": failure or
                                   "profiles and tensor pass their declared hypotheses"})]
    elif failure:           # nothing is planned or solved at a gap that fails a hypothesis
        report.verdicts = [Verdict(name, "ABORTED", {"error": failure}) for name in names]
    elif command in ("ansatz", "solve"):
        try:
            note = (_run_ansatz_emit(cfg, em) if command == "ansatz"
                    else _run_single_solve(cfg, em, events.append))
            report.verdicts.append(Verdict(command, "PASS", {"note": note}))
        except Exception as exc:
            report.verdicts.append(Verdict(command, "ABORTED",
                                           {"error": f"{type(exc).__name__}: {exc}"}))
    else:
        report.verdicts = run_checks(cfg, names)
    if command not in ("validate", "ansatz", "solve"):
        for verdict in report.verdicts:
            for stat, sr in sorted(verdict.sweeps.items()):
                em.write(f"{verdict.name}_{stat}.csv", sr.to_csv())
            events.extend(verdict.solver_events)
            event = {"event": "check", "name": verdict.name, "status": verdict.status,
                     "elapsed": verdict.elapsed}
            if verdict.status == "ABORTED":
                event["error"] = verdict.details.get("error")
            events.append(event)

    em.write("config_echo.json", cfg.to_json() + "\n")
    em.write("fits.json", json.dumps(_fits_record(report.verdicts), indent=2,
                                     sort_keys=True) + "\n")

    total = time.perf_counter() - t_start
    report.solve_events = [e for e in events if e["event"] == "solve"]
    report.manifest = dict(em.manifest)
    report.manifest["runlog.jsonl"] = "(timing log, excluded from digests)"
    em.write("report.txt", report.render())
    report.manifest["report.txt"] = em.manifest["report.txt"]

    events.append({"event": "total", "elapsed": total})
    runlog = "\n".join(json.dumps(e, sort_keys=True) for e in events)
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
