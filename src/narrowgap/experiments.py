"""Epsilon sweeps, rate fits and verdicts for the narrow-region claims.

Every check follows the same pattern: sweep the gap width over a decreasing
list, measure a gradient statistic per width on the base grid and once more
on a doubled grid (points whose statistic moves by more than the Richardson
tolerance are flagged grid-limited and excluded from fits), then fit a rate
and compare against the predicted band.

A check declares its sweeps as SweepRequests and judges its own results.
The matrix depends only on tensor, geometry, eps and grid, so checks run
together (``run_checks``) share one sweep per matrix: its outer loop is
(eps, grid), the operator is factored once per point, and the right-hand
sides of the distinct request configs there are solved against that
factorization in one pass.

The bounded-remainder checks fit the asymptotic tail of the sweep (default
eps <= 1e-2) rather than the full window: the remainder approaches its O(1)
plateau like C (1 - c eps^{1-1/m}), so the leading sweep points still carry
the approach transient even though the quantity is uniformly bounded.  Both
the tail fit and the full-window fit are recorded.

Deterministic by construction: no randomness enters a sweep, so identical
configurations produce identical CSV bytes at one BLAS thread count (another
moved values by up to 1.4e-13 relative).  The package pins one per OpenBLAS
pool unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import ansatz as _ans
from . import discretize as _disc
from .coefficients import HypothesisViolationError, check_ann
from .config import DECAY_EPS, DEFAULT_EPS, ConfigError, RunConfig
from .geometry import DIM, GeometryError

EPS_FIT_MAX = 1e-2          # default tail cut for bounded-remainder fits
NOISE_FLOOR = 1e-12         # relative floor before a point counts as solver noise

THM11_BAND = 0.15
REMARK13_BANDS = {"i": 0.15, "ii": 0.10, "iii": 0.15}
COR41_BAND = 0.20
RESIDUAL_BAND = 0.20
ENERGY_BAND = 0.30
DECAY_MIN_R2 = 0.98


class DataError(ValueError):
    """Fit input is unusable (too few points, non-finite or non-positive statistics)."""


# ---------------------------------------------------------------------------
# sweep containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    eps: float
    value: float
    refined_value: float | None
    rel_change: float | None
    flagged: bool
    grid: tuple
    reason: str = ""


@dataclass
class SweepResult:
    statistic: str
    points: list

    def clean(self):
        return [p for p in self.points if not p.flagged]

    def values(self, clean=True):
        return np.array([p.value for p in (self.clean() if clean else self.points)])

    def to_csv(self):
        lines = ["eps,value,refined_value,rel_change,grid,flagged,reason"]
        for p in self.points:
            ref = "" if p.refined_value is None else repr(p.refined_value)
            rel = "" if p.rel_change is None else repr(p.rel_change)
            g = "x".join(str(k) for k in p.grid)
            lines.append(f"{p.eps!r},{p.value!r},{ref},{rel},{g},"
                         f"{int(p.flagged)},{p.reason}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RateFit:
    model: str                  # "power" | "stretched_exponential"
    slope: float
    intercept: float
    r_squared: float
    npoints: int
    m: int = 2

    @property
    def decay_constant(self):
        """C of exp(-1/(2C eps^{1-1/m})) for the stretched model."""
        if self.model != "stretched_exponential" or self.slope >= 0:
            return None
        return -1.0 / (2.0 * self.slope)

    def summary(self):
        s = (f"{self.model}: slope {self.slope:+.4f}, intercept "
             f"{self.intercept:+.4f}, R^2 {self.r_squared:.5f}, "
             f"{self.npoints} points")
        if self.decay_constant is not None:
            s += f", fitted C {self.decay_constant:.4f}"
        return s


def fit_rate(sr: SweepResult, model: str = "power", m: int = 2,
             eps_max: float | None = None) -> RateFit:
    """Least-squares rate fit over the unflagged sweep points.

    power: log s against log eps.  stretched_exponential: log(s eps)
    against eps^{-(1-1/m)}, i.e. the decay-rate model with the dimensional
    prefactor eps^{n/2} = eps of the plane removed.
    """
    if model not in ("power", "stretched_exponential"):
        raise DataError(f"unknown fit model {model!r}")
    pts = [p for p in sr.clean()
           if eps_max is None or p.eps <= eps_max * (1 + 1e-12)]
    if len(pts) < 4:
        raise DataError(f"fit requires >= 4 clean points, have {len(pts)} "
                        f"(statistic {sr.statistic!r})")
    eps = np.array([p.eps for p in pts])
    val = np.array([p.value for p in pts])
    bad = np.flatnonzero(~np.isfinite(val) | (val <= 0))
    if bad.size:
        raise DataError(f"non-finite or non-positive statistic {val[bad[0]]:g} at eps = "
                        f"{eps[bad[0]]:g} (statistic {sr.statistic!r})")
    if model == "power":
        X, Y = np.log(eps), np.log(val)
    else:
        X = eps ** (-(1.0 - 1.0 / m))
        Y = np.log(val * eps)
    slope, intercept = np.polyfit(X, Y, 1)
    resid = Y - (slope * X + intercept)
    ss_tot = float(np.sum((Y - Y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(model, float(slope), float(intercept),
                   float(min(max(r2, 0.0), 1.0)), len(pts), m)


# ---------------------------------------------------------------------------
# one solve, lazily post-processed
# ---------------------------------------------------------------------------

class SolveBundle:
    """Everything the statistics need about one (eps, grid) solve."""

    def __init__(self, cfg: RunConfig, eps: float, nodes: tuple, point: dict):
        """Set up the solve at (eps, nodes) against ``point["system"]``.

        ``point`` holds the system of every bundle at this (eps, grid); the
        first bundle to find it empty transforms and assembles it.  The
        bundle stops at its boundary data, whose lateral faces its own
        ansatz gives: ``solve_point`` solves every bundle of the point in
        one pass and sets ``field`` and ``report``.
        """
        self.cfg = cfg
        self.eps = eps
        self.region = cfg.geometry.build_region(eps)
        self.tensor = cfg.build_tensor()
        self.traces = cfg.build_traces()
        self.ansatz = _ans.build_ansatz(self.tensor, self.region, self.traces)
        self.grid = _disc.grid_for(self.region, *nodes)
        self.assemble_s = 0.0
        if "system" not in point:
            t0 = time.perf_counter()
            point["system"] = _disc.assemble(
                _disc.transform_operator(self.tensor, self.region, self.grid))
            self.assemble_s = time.perf_counter() - t0
        self.field = self.report = None
        self._cache = {}

    def _get(self, key, fn):
        """fn() once; its arrays are made read-only, as requests share the bundle."""
        if key not in self._cache:
            value = self._cache[key] = fn()
            for a in value if isinstance(value, tuple) else (value,):
                np.asarray(a).flags.writeable = False      # a float gives a throwaway copy
        return self._cache[key]

    @property
    def coords(self):
        return self._get("coords", self.grid.node_coords)

    @property
    def inner(self):
        def make():
            XP, T = self.coords
            r = np.sqrt(np.sum(XP * XP, axis=-1))
            return (r < self.region.R0) & (T > 0) & (T < 1)
        return self._get("inner", make)

    @property
    def grad_num(self):
        """Numeric gradients as (*shape, N, n)."""
        return self._get("grad_num", lambda: np.moveaxis(
            self.field.gradient_nodes(), (0, 1), (-2, -1)))

    def grad_ansatz(self, corrected=True):
        key = f"grad_ans_{corrected}"

        def make():
            XP, T = self.coords
            return self.ansatz.gradient(XP[..., :1, :], T, corrected)
        return self._get(key, make)

    def remainder_inner(self, corrected=True):
        key = f"rem_{corrected}"

        def make():
            E = self.grad_num - self.grad_ansatz(corrected)
            return np.sqrt(np.sum(E * E, axis=(-2, -1)))[self.inner]
        return self._get(key, make)

    @property
    def c2_norms(self):
        return self._get("c2n", lambda: self.traces.c2_total(2 * self.region.R0))

    def at_inner(self, column_values):
        """Per-column values (..., 1) spread over the inner nodes."""
        return np.broadcast_to(column_values, self.inner.shape)[self.inner]

    def normalizer(self, bar=False):
        """Theta, or Theta_bar when ``bar``, plus delta * C2 norms at the inner nodes."""
        xp = self.coords[0][..., :1, :]
        gauge = (_ans.theta_bar_delta(self.traces, self.region, xp) if bar
                 else _ans.theta(self.traces, xp))
        return self.at_inner(gauge + self.region.delta(xp) * self.c2_norms)

    def column_max(self, E, xprime):
        """max |E| over the interior of the vertical column nearest x'.

        ``E`` is a gradient field of shape (*shape, N, n), such as ``grad_num``.
        """
        col = E[int(np.argmin(np.abs(self.grid.axes[0] - xprime)))]
        return float(np.sqrt(np.sum(col * col, axis=(-2, -1)))[1:-1].max())


def solve_point(bundles, system) -> list:
    """Solve the bundles of one (eps, grid) in one pass against ``system``.

    Every bundle's right-hand side is built first, then all are solved
    together (``discretize.solve_bvp`` on their boundary data).  Each solved
    bundle gets its field and report.  Returns, per bundle, None or the
    exception that stopped it alone; a failed factorization stops them all.
    Kept errors drop their tracebacks, whose frames hold the system.
    """
    try:
        solved = _disc.solve_bvp(
            system, bundles[0].region,
            [(b.traces, b.cfg.solver.closure, b.ansatz, b.cfg.solver.lateral_value)
             for b in bundles],
            [b.cfg.solver.tol for b in bundles])
    except Exception as exc:
        return [exc.with_traceback(None)] * len(bundles)
    for b, got in zip(bundles, solved):
        if not isinstance(got, Exception):
            b.field, b.report = got
    return [got if isinstance(got, Exception) else None for got in solved]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _stat_thm11_sup(b: SolveBundle):
    return float(b.remainder_inner().max())


def _stat_thm11_sup_uncorrected(b: SolveBundle):
    return float(b.remainder_inner(corrected=False).max())


def _stat_sup_normalized(b: SolveBundle):
    return float((b.remainder_inner() / b.normalizer()).max())


def _stat_sup_grad(b: SolveBundle):
    E = np.sqrt(np.sum(b.grad_num ** 2, axis=(-2, -1)))[b.inner]
    return float(E.max())


def _stat_shortest_segment(b: SolveBundle):
    return b.column_max(b.grad_num, 0.0)


def _stat_monomial_point(b: SolveBundle):
    return b.column_max(b.grad_num, b.eps ** (1.0 / b.region.profiles.m))


def _stat_decay_normalized(b: SolveBundle):
    return b.column_max(b.grad_num, 0.0) / b.field.l2_norm()


def _stat_cor41_thetabar(b: SolveBundle):
    return float((b.remainder_inner() / b.normalizer(bar=True)).max())


def _stat_gauge_margin(b: SolveBundle):
    """min over inner x' of Theta - Theta_bar_delta (>= 0 expected)."""
    xp = b.coords[0][..., :1, :]
    return float(b.at_inner(_ans.theta(b.traces, xp)
                            - _ans.theta_bar_delta(b.traces, b.region, xp)).min())


def _stat_energy_ratio(b: SolveBundle):
    """Window energy over delta(0)^2 (Theta(0)^2 + delta(0)^2 C2^2) at z' = 0.

    Blind to the correction: ``_judge_energy`` says why.
    """
    dlt0 = float(b.region.delta(np.zeros((1, 1)))[0])
    E = local_energy(b.field, b.ansatz, 0.0, dlt0, nq=b.cfg.experiment.energy_quad)
    th0 = float(_ans.theta(b.traces, np.zeros((1, 1)))[0])
    denom = dlt0 ** 2 * (th0 ** 2 + dlt0 ** 2 * b.c2_norms ** 2)
    return float(E / denom)


STATISTICS = {
    "thm11_sup": _stat_thm11_sup,
    "thm11_sup_uncorrected": _stat_thm11_sup_uncorrected,
    "thm11_sup_normalized": _stat_sup_normalized,
    "sup_grad": _stat_sup_grad,
    "shortest_segment_max": _stat_shortest_segment,
    "monomial_point_max": _stat_monomial_point,
    "decay_normalized": _stat_decay_normalized,
    "cor41_sup_thetabar": _stat_cor41_thetabar,
    "cor41_sup_theta": _stat_sup_normalized,
    "gauge_margin": _stat_gauge_margin,
    "energy_ratio": _stat_energy_ratio,
}


# ---------------------------------------------------------------------------
# windowed energy (spot check of the localized estimate)
# ---------------------------------------------------------------------------

def local_energy(df: _disc.DiscreteField, ansatz: _ans.AnsatzField, zprime,
                 radius: float, nq=(24, 48)) -> float:
    """Integral of |grad(u - ubar)|^2 over the window |x1 - zprime| < radius.

    Midpoint quadrature in mapped coordinates with Jacobian delta(x').  The
    remainder gradient is formed at the grid nodes first (so the huge common
    1/delta parts of both gradients cancel exactly there) and then
    interpolated; this keeps sub-cell windows meaningful, which the smallest
    gap widths need because the window radius delta(0') shrinks below the
    tangential spacing.
    """
    region = df.region
    z = float(zprime)
    if radius <= 0:
        raise GeometryError("window radius must be positive")
    if abs(z) + radius > 2 * region.R0 * (1 + 1e-12):
        raise GeometryError("energy window outside the grid")

    nqy, nqt = nq
    yq = z + (np.arange(nqy) + 0.5) / nqy * 2 * radius - radius
    tq = (np.arange(nqt) + 0.5) / nqt
    YQ, TQ = (m.ravel() for m in np.meshgrid(yq, tq, indexing="ij"))
    keep = (YQ - z) ** 2 <= radius ** 2 * (1 + 1e-12)
    YQ, TQ = YQ[keep, None], TQ[keep]

    # the remainder on the columns the interpolation reads (one spare each
    # side), interpolated from those columns alone
    x1, t = df.grid.axes
    f = (YQ[:, 0] - x1[0]) / (x1[1] - x1[0])
    cols = slice(max(int(np.floor(f.min())) - 1, 0),
                 min(int(np.floor(f.max())) + 3, len(x1)))
    gw = df.gradient_nodes()[:, :, cols] - np.moveaxis(
        ansatz.gradient(x1[cols, None, None], t), (-2, -1), (0, 1))
    nodal = np.moveaxis(gw.reshape((-1,) + gw.shape[2:]), 0, -1)
    vals = df._interpolate(nodal, YQ, TQ, first=cols.start)
    w2 = np.sum(vals * vals, axis=-1) * region.delta(YQ)
    cell = (2 * radius / nqy) * (1.0 / nqt)
    return float(w2.sum() * cell)


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRequest:
    """One case of a check: the configuration it solves and the statistics it reads.

    Requests with the same ``matrix_key`` share their sweep matrices; only
    the boundary data, and so the right-hand sides, differ between them.
    """

    cfg: RunConfig
    stats: tuple
    eps_list: tuple
    case: str = ""
    check: str = ""             # the check that planned it, for the runlog

    def __post_init__(self):
        for s in self.stats:
            if s not in STATISTICS:
                raise ConfigError([f"unknown statistic {s!r}"])
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError(["eps_list must be strictly decreasing"])

    @property
    def matrix_key(self):
        """Tensor, geometry and grid: all the matrices depend on besides eps."""
        return self.cfg.tensor, self.cfg.geometry, self.cfg.solver.scaled_nodes()


@dataclass
class SweepOutcome:
    """One request's sweep: statistic -> SweepResult, or the first error."""

    results: dict = field(default_factory=dict)
    events: list = field(default_factory=list)     # solve records
    elapsed: float = 0.0                           # its solves and statistics
    error: Exception | None = None


def _eps_list(cfg: RunConfig, default=DEFAULT_EPS):
    return tuple(cfg.experiment.eps_list or default)


def run_sweeps(requests) -> list:
    """Sweep every request; one SweepOutcome per request, in order.

    Requests that share a matrix key share one sweep whose outer loop is
    (eps, grid): at each point the operator is transformed, assembled and
    factored once, the right-hand sides of the distinct configs there are
    solved against that factorization in one pass, each once for all its
    requests, and the factorization is freed before the next point.
    """
    outcomes = [SweepOutcome() for _ in requests]
    groups = {}
    for i, req in enumerate(requests):
        groups.setdefault(req.matrix_key, []).append(i)
    for idx in groups.values():
        _sweep_group([requests[i] for i in idx], [outcomes[i] for i in idx])
    return outcomes


def _sweep_group(reqs, outs):
    """Sweep requests that share a matrix key, one (eps, grid) point at a time.

    Eps runs from the largest down, so every request meets its points in
    its own order.  Requests with equal configs read one SolveBundle per
    point.  Every bundle of a point is set up first and all are solved in
    one pass; then each runs its statistics and is dropped before the next.
    The first request of a config logs its solve, and the others log a
    shared solve naming its check and case.  A request stops at its first
    error, kept without its traceback, whose frames hold the system.
    """
    nodes = reqs[0].cfg.solver.scaled_nodes()
    refined = tuple(2 * (k - 1) + 1 for k in nodes)
    rows = [[] for _ in reqs]           # per request: [eps, values, refined values]
    for eps in sorted({e for r in reqs for e in r.eps_list}, reverse=True):
        for grid_nodes in (nodes, refined):
            point = {}          # this grid's system: the base one is freed here
            groups = {}
            for i, req in enumerate(reqs):
                if eps in req.eps_list and outs[i].error is None:
                    groups.setdefault(req.cfg, []).append(i)
            t0 = time.perf_counter()
            bundles = []
            for members in groups.values():
                try:
                    bundles.append((members, SolveBundle(reqs[members[0]].cfg, eps,
                                                         grid_nodes, point)))
                except Exception as exc:     # its requests fail, not the sweep
                    for i in members:
                        outs[i].error = exc.with_traceback(None)
            errors = solve_point([b for _, b in bundles], point["system"]) if bundles else []
            for error in errors:
                members, b = bundles.pop(0)
                if error is not None:
                    for i in members:
                        outs[i].error = error
                    continue
                solver = reqs[members[0]]
                solved = {**b.report.record(), "assemble_s": b.assemble_s}
                shared = {**solved, "reused": True, "elapsed": 0.0, "factor_s": 0.0,
                          "solve_s": 0.0, "assemble_s": 0.0,
                          "shared_with": "/".join(filter(None, (solver.check, solver.case)))}
                for i in members:
                    t1 = time.perf_counter()
                    try:
                        vals = {s: STATISTICS[s](b) for s in reqs[i].stats}
                    except Exception as exc:
                        outs[i].error = exc.with_traceback(None)
                        continue
                    t2 = time.perf_counter()
                    if grid_nodes == nodes:
                        rows[i].append([eps, vals, {}])
                    else:
                        rows[i][-1][2] = vals
                    outs[i].events.append({"case": reqs[i].case, "eps": eps, **solved,
                                           "stats_s": t2 - t1})
                    outs[i].elapsed += t2 - t0
                    solved, t0 = shared, t2          # the rest read this solve
                del b                        # before the next bundle's statistics
    for req, out, got in zip(reqs, outs, rows):
        if out.error is None:
            out.results = _sweep_results(req.cfg, req.stats, nodes, got)


def _richardson_point(eps, value, refined, tol, grid, reason):
    """SweepPoint of a value and its refined one.

    Flagged ``reason`` when they differ, relative to the larger, by more than ``tol``.
    """
    rel = abs(refined - value) / max(abs(value), abs(refined), 1e-300)
    flagged = rel > tol
    return SweepPoint(eps, value, refined, rel, flagged, grid, reason if flagged else "")


def _sweep_results(cfg, stat_names, nodes, rows):
    """One SweepResult per statistic from (eps, values, refined values) rows.

    Points whose base/refined values differ by more than the Richardson
    tolerance are flagged grid-limited; values under the noise floor are
    flagged as solver noise.
    """
    out = {}
    for s in stat_names:
        pts = [_richardson_point(eps, vals[s], ref_vals[s],
                                 cfg.experiment.richardson_tol, nodes, "grid-limited")
               for eps, vals, ref_vals in rows]
        vmax = max((abs(p.value) for p in pts), default=0.0)
        cleaned = []
        for p in pts:
            if not p.flagged and vmax > 0 and abs(p.value) < vmax * NOISE_FLOOR:
                p = replace(p, flagged=True, reason="noise-floor")
            cleaned.append(p)
        out[s] = SweepResult(s, cleaned)
    return out


_RESIDUAL_SAMPLES = (199, 31)      # (x1, t) interior samples of the base measurement


def residual_sweep(cfg: RunConfig, eps_list=None) -> dict:
    """Analytic-residual sweep (no PDE solves).

    Statistics over an interior sample grid of Omega_{R0}:
      residual_normalized   = max |f| delta / (Theta + delta * C2 norms)
      residual_uncorrected  = max |f0| delta^2 / Theta  (correction dropped)
    Refinement doubles the sampling density; maxima that move more than the
    Richardson tolerance are flagged sampling-limited.
    """
    eps_list = tuple(eps_list) if eps_list is not None else _eps_list(cfg)
    tensor = cfg.build_tensor()
    traces = cfg.build_traces()
    c2n = traces.c2_total(2 * cfg.geometry.R0)

    def measure(af, ns):
        region = af.region
        xq = np.linspace(-region.R0, region.R0, ns[0] + 2)[1:-1, None, None]  # x1 columns
        ts = np.linspace(0.0, 1.0, ns[1] + 2)[1:-1]
        dlt = region.delta(xq)
        th = _ans.theta(traces, xq)
        f = np.linalg.norm(af.residual(xq, ts), axis=-1)
        f0 = np.linalg.norm(af.residual(xq, ts, corrected=False), axis=-1)
        corr = float((f * dlt / (th + dlt * c2n)).max())
        unc = float((f0 * dlt ** 2 / np.maximum(th, 1e-300)).max())
        return corr, unc

    pts = {"residual_normalized": [], "residual_uncorrected": []}
    fine = tuple(2 * s + 1 for s in _RESIDUAL_SAMPLES)
    for eps in eps_list:
        af = _ans.build_ansatz(tensor, cfg.geometry.build_region(eps), traces)
        base = measure(af, _RESIDUAL_SAMPLES)
        ref = measure(af, fine)
        for name, v, rv in (("residual_normalized", base[0], ref[0]),
                            ("residual_uncorrected", base[1], ref[1])):
            pts[name].append(_richardson_point(eps, v, rv, cfg.experiment.richardson_tol,
                                               _RESIDUAL_SAMPLES, "sampling-limited"))
    return {name: SweepResult(name, p) for name, p in pts.items()}


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    name: str
    status: str            # PASS | FAIL | SKIPPED | ABORTED
    details: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    sweeps: dict = field(default_factory=dict)
    elapsed: float = 0.0
    solver_events: list = field(default_factory=list)

    @property
    def passed(self):
        return self.status in ("PASS", "SKIPPED")

    def summary(self):
        lines = [f"[{self.status}] {self.name}"]
        for key, val in sorted(self.details.items()):
            lines.append(f"    {key}: {val}")
        for key, fit in sorted(self.fits.items()):
            lines.append(f"    fit {key}: {fit.summary()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Check:
    """A claim's verdict, formed in two steps around the shared sweeps.

    ``plan(cfg)`` returns the SweepRequests the check solves, or a finished
    Verdict when there is nothing to sweep.  ``judge(cfg, results)`` forms
    the verdict from those requests' SweepResults, in request order.
    Calling a Check runs it on its own; ``run_checks`` runs several so that
    they share their sweeps.
    """

    name: str
    plan: Callable
    judge: Callable

    def __call__(self, cfg: RunConfig) -> Verdict:
        verdict, = _run([self], cfg)
        if isinstance(verdict, Exception):
            raise verdict
        return verdict


def _run(checks, cfg):
    """Verdict, or the exception that stopped it, per check."""
    plans = []
    for check in checks:
        t0 = time.perf_counter()
        try:
            plan = check.plan(cfg)
        except Exception as exc:
            plan = exc
        plans.append((plan, time.perf_counter() - t0))
    outcomes = iter(run_sweeps([replace(r, check=check.name)
                                for check, (plan, _) in zip(checks, plans)
                                if isinstance(plan, list) for r in plan]))
    out = []
    for check, (plan, plan_s) in zip(checks, plans):
        if not isinstance(plan, list):
            if isinstance(plan, Verdict):
                plan.elapsed = plan_s
            out.append(plan)
            continue
        mine = [next(outcomes) for _ in plan]
        t0 = time.perf_counter()
        try:
            for o in mine:
                if o.error is not None:
                    raise o.error
            verdict = check.judge(cfg, [o.results for o in mine])
        except Exception as exc:
            out.append(exc)
            continue
        verdict.elapsed = plan_s + sum(o.elapsed for o in mine) + time.perf_counter() - t0
        verdict.solver_events = [ev for o in mine for ev in o.events]
        out.append(verdict)
    return out


def run_checks(cfg: RunConfig, names) -> list:
    """One Verdict per named check; checks that share a matrix share its sweep.

    A check stopped by an exception gets an ABORTED verdict naming it.
    """
    verdicts = _run([CHECKS[name] for name in names], cfg)
    return [v if isinstance(v, Verdict) else
            Verdict(name, "ABORTED", {"error": f"{type(v).__name__}: {v}"})
            for name, v in zip(names, verdicts)]


def _within(value, center, band):
    return abs(value - center) <= band


def _traces_are_zero(cfg):
    traces = cfg.build_traces()
    return not any(c for tr in (traces.phi, traces.psi) for row in tr.rows for c in row)


def _tail_fit(sr, cfg, default_tail, **kw):
    """(tail fit, full fit, eps_max used).  Falls back to the full window."""
    eps_max = cfg.experiment.eps_fit_max or default_tail
    full = fit_rate(sr, **kw)
    try:
        tail = fit_rate(sr, eps_max=eps_max, **kw)
    except DataError:
        return full, full, None
    return tail, full, eps_max


def _plan_thm11(cfg: RunConfig):
    if _traces_are_zero(cfg):
        return Verdict("thm11", "SKIPPED",
                       {"note": "zero boundary data: theorem hypothesis needs "
                                "phi or psi nonzero"})
    return [SweepRequest(cfg, ("thm11_sup", "thm11_sup_uncorrected",
                               "thm11_sup_normalized"), _eps_list(cfg))]


def _judge_thm11(cfg: RunConfig, results) -> Verdict:
    """Bounded corrected remainder vs eps^{-1/m} uncorrected remainder.

    The expected blow-up rate of the uncorrected interpolant's error is
    eps^{-1/m}: the dropped correction gradient scales like delta^{-1/m}
    pointwise and its supremum is attained where delta is comparable to eps
    (for m = 2 this is the classical eps^{-1/2}).
    """
    srs, = results
    m = cfg.geometry.m
    try:
        fit_c, full_c, used = _tail_fit(srs["thm11_sup"], cfg, EPS_FIT_MAX)
        fit_u, full_u, _ = _tail_fit(srs["thm11_sup_uncorrected"], cfg, EPS_FIT_MAX)
    except DataError as exc:
        return Verdict("thm11", "ABORTED", {"error": str(exc)}, sweeps=srs)
    expected_unc = -1.0 / m
    ok_c = _within(fit_c.slope, 0.0, THM11_BAND)
    ok_u = _within(fit_u.slope, expected_unc, THM11_BAND)
    details = {
        "corrected_slope": round(fit_c.slope, 4),
        "uncorrected_slope": round(fit_u.slope, 4),
        "expected": f"corrected 0 +/- {THM11_BAND}, uncorrected "
                    f"{expected_unc} +/- {THM11_BAND}",
        "full_window_slopes": (round(full_c.slope, 4), round(full_u.slope, 4)),
        "fit_eps_max": used,
    }
    fits = {"corrected": fit_c, "uncorrected": fit_u,
            "corrected_full": full_c, "uncorrected_full": full_u}
    return Verdict("thm11", "PASS" if ok_c and ok_u else "FAIL", details,
                   fits, srs)


def _remark13_case_cfg(cfg, case):
    from .config import TracesConfig
    if case == "i":
        tr = TracesConfig(family="poly",
                          poly_phi=((1.0, 0.0, 1.0),) + ((0.0,),) * (cfg.N - 1),
                          poly_psi=((1.0, 0.0, 1.0),) + ((0.0,),) * (cfg.N - 1))
    elif case == "ii":
        gap = [0.0] * cfg.N
        gap[min(DIM, cfg.N) - 1] = 1.0
        tr = TracesConfig(family="constant", phi=tuple(gap),
                          psi=(0.0,) * cfg.N)
    else:
        tr = TracesConfig(family="poly",
                          poly_phi=((0.0,) * cfg.experiment.monomial_k + (1.0,),)
                          + ((0.0,),) * (cfg.N - 1),
                          poly_psi=((0.0,),) * cfg.N)
    return replace(cfg, traces=tr)


REMARK13_STATS = {"i": "sup_grad", "ii": "shortest_segment_max",
                  "iii": "monomial_point_max"}


def _plan_remark13(cfg: RunConfig):
    m, k = cfg.geometry.m, cfg.experiment.monomial_k
    cases = cfg.experiment.remark13_cases
    if "iii" in cases and m <= k:
        raise ConfigError([f"remark 1.3(iii) requires m > k (m = {m}, k = {k})"])
    return [SweepRequest(_remark13_case_cfg(cfg, case), (REMARK13_STATS[case],),
                         _eps_list(cfg), case=case)
            for case in cases]


def _judge_remark13(cfg: RunConfig, results) -> Verdict:
    """Blow-up taxonomy: (i) bounded, (ii) eps^-1, (iii) eps^{k/m-1}."""
    m, k = cfg.geometry.m, cfg.experiment.monomial_k
    sub = {}
    fits, sweeps, statuses = {}, {}, []
    for case, srs in zip(cfg.experiment.remark13_cases, results):
        expected = {"i": 0.0, "ii": -1.0, "iii": k / m - 1.0}[case]
        band = REMARK13_BANDS[case]
        sr = srs[REMARK13_STATS[case]]
        sweeps[f"case_{case}"] = sr
        vmax = float(np.abs(sr.values(clean=False)).max())
        if case == "i" and vmax < 1e-10:
            sub[case] = {"status": "PASS", "note": "gradient numerically zero"}
            statuses.append(True)
            continue
        try:
            fit = fit_rate(sr)
        except DataError as exc:
            sub[case] = {"status": "ABORTED", "error": str(exc)}
            statuses.append(False)
            continue
        fits[f"case_{case}"] = fit
        ok = _within(fit.slope, expected, band)
        sub[case] = {"status": "PASS" if ok else "FAIL",
                     "slope": round(fit.slope, 4),
                     "expected": f"{expected} +/- {band}"}
        statuses.append(ok)
    status = "PASS" if statuses and all(statuses) else "FAIL"
    return Verdict("remark13", status, {f"case_{c}": sub[c] for c in sub},
                   fits, sweeps)


def _plan_decay(cfg: RunConfig):
    from .config import TracesConfig
    N = cfg.N
    lateral = cfg.solver.lateral_value
    if lateral is None:
        lateral = (1.0,) * N
    if max(abs(float(v)) for v in lateral) == 0:
        return Verdict("decay", "SKIPPED",
                       {"note": "zero solution: top/bottom and lateral data "
                                "all vanish"})
    eps_list = _eps_list(cfg, DECAY_EPS)
    try:                      # decay never meets A^nn through the ansatz
        check_ann(cfg.build_tensor(), region=cfg.geometry.build_region(eps_list[0]))
    except HypothesisViolationError as exc:
        raise HypothesisViolationError(f"A^nn numerically singular: {exc}") from None
    dcfg = replace(cfg,
                   traces=TracesConfig(family="constant", phi=(0.0,) * N,
                                       psi=(0.0,) * N),
                   solver=replace(cfg.solver, closure="constant",
                                  lateral_value=tuple(lateral)))
    return [SweepRequest(dcfg, ("decay_normalized",), eps_list)]


def _judge_decay(cfg: RunConfig, results) -> Verdict:
    """Super-polynomial gradient decay under zero top/bottom data."""
    srs, = results
    try:
        fit = fit_rate(srs["decay_normalized"], model="stretched_exponential",
                       m=cfg.geometry.m)
    except DataError as exc:
        return Verdict("decay", "ABORTED", {"error": str(exc)}, sweeps=srs)
    ok = fit.slope < 0 and fit.r_squared >= DECAY_MIN_R2
    details = {"slope": round(fit.slope, 4), "r_squared": round(fit.r_squared, 6),
               "fitted_decay_constant": None if fit.decay_constant is None
               else round(fit.decay_constant, 5),
               "expected": f"slope < 0 and R^2 >= {DECAY_MIN_R2}"}
    return Verdict("decay", "PASS" if ok else "FAIL", details,
                   {"stretched": fit}, srs)


def _plan_cor41(cfg: RunConfig):
    if cfg.tensor.kind != "lame":
        return Verdict("cor41", "SKIPPED",
                       {"note": f"requires the elasticity tensor, got "
                                f"{cfg.tensor.kind!r}"})
    if _traces_are_zero(cfg):
        return Verdict("cor41", "SKIPPED", {"note": "zero boundary data"})
    return [SweepRequest(cfg, ("cor41_sup_thetabar", "cor41_sup_theta",
                               "gauge_margin"), _eps_list(cfg))]


def _judge_cor41(cfg: RunConfig, results) -> Verdict:
    """Elasticity gauge: Theta_bar-normalized remainder bounded, gauge smaller."""
    srs, = results
    try:
        fit_tb, full_tb, used = _tail_fit(srs["cor41_sup_thetabar"], cfg,
                                          EPS_FIT_MAX)
    except DataError as exc:
        return Verdict("cor41", "ABORTED", {"error": str(exc)}, sweeps=srs)
    margin = srs["gauge_margin"].values(clean=False)
    gauge_ok = bool(margin.min() >= -1e-12)
    ok = _within(fit_tb.slope, 0.0, COR41_BAND) and gauge_ok
    details = {"thetabar_slope": round(fit_tb.slope, 4),
               "full_window_slope": round(full_tb.slope, 4),
               "fit_eps_max": used,
               "gauge_min_margin": float(margin.min()),
               "gauge_pointwise_ok": gauge_ok,
               "expected": f"slope 0 +/- {COR41_BAND} and "
                           "Theta_bar <= Theta at every sampled x'"}
    return Verdict("cor41", "PASS" if ok else "FAIL", details,
                   {"thetabar": fit_tb, "thetabar_full": full_tb}, srs)


def _plan_residual(cfg: RunConfig):
    if _traces_are_zero(cfg):
        return Verdict("residual", "SKIPPED", {"note": "zero boundary data"})
    return []


def _judge_residual(cfg: RunConfig, results) -> Verdict:
    """The delta^{-2} residual part cancels; without the correction it stays."""
    srs = residual_sweep(cfg)
    try:
        fit_c = fit_rate(srs["residual_normalized"])
        fit_u = fit_rate(srs["residual_uncorrected"])
    except DataError as exc:
        return Verdict("residual", "ABORTED", {"error": str(exc)}, sweeps=srs)
    umin = float(srs["residual_uncorrected"].values().min())
    ok = (_within(fit_c.slope, 0.0, RESIDUAL_BAND)
          and umin > 0 and fit_u.slope >= -0.1)
    details = {"normalized_slope": round(fit_c.slope, 4),
               "uncorrected_min": round(umin, 6),
               "uncorrected_slope": round(fit_u.slope, 4),
               "expected": f"slope 0 +/- {RESIDUAL_BAND}; uncorrected "
                           "bounded below by a positive constant"}
    return Verdict("residual", "PASS" if ok else "FAIL", details,
                   {"normalized": fit_c, "uncorrected": fit_u}, srs)


def _plan_energy(cfg: RunConfig):
    if _traces_are_zero(cfg):
        return Verdict("energy", "SKIPPED", {"note": "zero boundary data"})
    return [SweepRequest(cfg, ("energy_ratio",), _eps_list(cfg))]


def _judge_energy(cfg: RunConfig, results) -> Verdict:
    """Windowed energy of grad(u - ubar) at z' = 0 scales like delta^n Theta^2.

    This verdict does not test the correction.  The window |x1| < delta(0)
    = eps is centred where d_1 delta = 0, so G_l = O(eps Theta) on it, and
    the gradient of the dropped term r(v) sum G_l is O(Theta): its energy
    over the window is O(delta^n Theta^2), the normaliser's own order.
    With the kernel zeroed, energy still PASSes on all_m2 at grid scale
    0.5 (slope -0.0596 against -0.0737), where thm11, cor41 and residual
    FAIL.
    """
    srs, = results
    try:
        fit = fit_rate(srs["energy_ratio"])
    except DataError as exc:
        return Verdict("energy", "ABORTED", {"error": str(exc)}, sweeps=srs)
    ok = _within(fit.slope, 0.0, ENERGY_BAND)
    details = {"slope": round(fit.slope, 4),
               "expected": f"0 +/- {ENERGY_BAND}"}
    return Verdict("energy", "PASS" if ok else "FAIL", details,
                   {"energy": fit}, srs)


CHECKS = {c.name: c for c in (
    Check("thm11", _plan_thm11, _judge_thm11),
    Check("remark13", _plan_remark13, _judge_remark13),
    Check("decay", _plan_decay, _judge_decay),
    Check("cor41", _plan_cor41, _judge_cor41),
    Check("residual", _plan_residual, _judge_residual),
    Check("energy", _plan_energy, _judge_energy))}
