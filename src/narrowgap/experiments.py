"""Epsilon sweeps, rate fits and verdicts for the narrow-region claims.

Every check follows the same pattern: sweep the gap width over a decreasing
list, measure a statistic per width on a base grid and once more on a
refined grid, then fit a rate and compare against the predicted band.  One
comparison (``_sweep_results``) turns the two values into a sweep point for
the solve sweeps (doubled solver grid) and the residual sweep (doubled
sample grid) alike: a point whose value moves by more than the Richardson
tolerance is flagged grid- or sampling-limited, one under the noise floor
is flagged as solver noise, and flagged points are excluded from fits.

A check declares its sweeps as SweepRequests and its rates as Claims, each
a statistic's fit model, expected slope and band; one judge
(``_judge_claims``) fits and tests them beside the check's own predicates.
A skip is decided in one of two places: a plan returns a SKIPPED verdict
for a reason of its own check (decay's zero lateral data, cor41's tensor
kind), and ``run_checks`` skips each check that ``needs_data`` when
phi - psi = 0.  The matrix depends only on tensor, geometry, eps and grid,
so the requests of checks run together (``run_checks``) make one sweep per
sweep key (``_sweep_key``): its outer loop is (eps, grid),
and at each point ``solve_point`` factors the operator once and solves the
right-hand sides of the distinct request configs there in one pass.  The
configs at a point share one set-up (``PointSetup``: region, tensor, grid,
node coordinates, box Jacobian, inner mask), built once per point; each
config has one SolveBundle there, with its traces, right-hand side, ansatz
field (which computes kernel rows only for a corrected jet) and one memo,
the remainder grad u - grad ubar per ``corrected`` flag, which thm11, cor41
and energy read alike.

The bounded-remainder claims fit the asymptotic tail of the sweep
(eps <= EPS_FIT_MAX) rather than the full window: the remainder approaches
its O(1) plateau like C (1 - c eps^{1-1/m}), so the leading sweep points
still carry the approach transient even though the quantity is uniformly
bounded.  Both the tail fit and the full-window fit are recorded.

Deterministic by construction: no randomness enters a sweep, so identical
configurations produce identical CSV bytes at one BLAS thread count (another
moved values by up to 1.4e-13 relative).  The package pins one per OpenBLAS
pool unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.  The
two threads that factor each band split it at a fixed column, and each
thread's arithmetic is fixed, so they leave the bytes as they are.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import zip_longest

import numpy as np

from . import ansatz as _ans
from . import discretize as _disc
from .coefficients import CoefficientTensor
from .config import DECAY_EPS, DEFAULT_EPS, ConfigError, RunConfig, TracesConfig
from .geometry import DIM, GeometryError, NarrowRegion

EPS_FIT_MAX = 1e-2          # tail cut for bounded-remainder fits
NOISE_FLOOR = 1e-12         # relative floor before a point counts as solver noise
RICHARDSON_TOL = 0.1        # relative base-to-refined change that flags a point
ENERGY_QUAD = (24, 48)      # (x1, t) midpoint nodes of the energy window

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
    refined_value: float
    rel_change: float
    flagged: bool
    grid: tuple
    reason: str = ""


# the two grids of a sweep: each value on ``base`` is compared with its value
# on ``refined``, which halves every spacing
ComparisonGrids = namedtuple("ComparisonGrids", "base refined")


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
            g = "x".join(str(k) for k in p.grid)
            lines.append(f"{p.eps!r},{p.value!r},{p.refined_value!r},{p.rel_change!r},"
                         f"{g},{int(p.flagged)},{p.reason}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RateFit:
    model: str                  # "power" | "stretched_exponential"
    slope: float
    intercept: float
    r_squared: float
    npoints: int

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
                   float(min(max(r2, 0.0), 1.0)), len(pts))


# ---------------------------------------------------------------------------
# one solve, lazily post-processed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSetup:
    """What every config at one (eps, grid) reads alike: one build per point.

    The configs of a point share tensor, geometry and grid and differ only
    in traces and closure (one sweep per sweep key), so one set-up
    serves them all: the region, the tensor, the BoxGrid, its node
    coordinates, the box Jacobian (the transform and every gradient
    recovery read it) and the inner-node mask.  The arrays are read-only, as
    every bundle of the point reads them; each config's evaluation state
    (traces, ansatz field, gradients) is its bundle's own.
    """

    eps: float
    region: NarrowRegion
    tensor: CoefficientTensor
    grid: _disc.BoxGrid
    coords: tuple
    jacobian: np.ndarray
    inner: np.ndarray

    @classmethod
    def build(cls, cfg: RunConfig, eps: float, nodes: tuple) -> PointSetup:
        region, tensor = cfg.geometry.build_region(eps), cfg.build_tensor()
        grid = _disc.grid_for(region, *nodes)
        X1, T = coords = grid.node_coords()
        jacobian = _disc.box_jacobian(region, grid)
        inner = (np.abs(X1) < region.R0) & (T > 0) & (T < 1)
        for a in (*coords, jacobian, inner):
            a.flags.writeable = False
        return cls(eps, region, tensor, grid, coords, jacobian, inner)


def _norm(E):
    """|E| per node of a gradient field E of shape (..., N, n)."""
    return np.sqrt(np.sum(E * E, axis=(-2, -1)))


class SolveBundle:
    """Everything the statistics need about one (eps, grid) solve; ``remainder`` is its memo."""

    def __init__(self, cfg: RunConfig, point: PointSetup, system=None):
        """Set up the solve of ``cfg`` at ``point`` against ``system``.

        Region, grid, coordinates and inner mask are the point's; the
        bundle builds its own traces and its ansatz.
        Given no system, the bundle transforms and assembles its own, and
        ``assemble_s`` is that time (0 otherwise).  ``solve_point`` builds
        its right-hand side, solves it, drops ``system`` and sets ``field``
        and ``report``.
        """
        self.eps, self.region, self.grid = point.eps, point.region, point.grid
        self.coords, self.inner = point.coords, point.inner
        self.traces = cfg.build_traces()
        self.ansatz = _ans.build_ansatz(point.tensor, self.region, self.traces)
        self.assemble_s = 0.0
        if system is None:
            t0 = time.perf_counter()
            system = _disc.assemble(_disc.transform_operator(point.tensor, self.region,
                                                             self.grid, point.jacobian))
            self.assemble_s = time.perf_counter() - t0
        self.system = system
        self.field = self.report = None
        self._remainder = {}

    def event(self, check: str, case: str, stats_s: float = 0.0, shared_with=None,
              times=None) -> dict:
        """The runlog record of this solve, as read by the request (check, case).

        ``times`` are the point's times (``solve_point``), which the caller
        passes to the first event logged at the point only: that event
        carries them with ``reused`` false, and every other reads 0 and
        ``reused`` true.  A request that reads a solve another request of
        its config logged names that one in ``shared_with`` ("check/case").
        """
        ev = {"event": "solve", "check": check, "case": case, "eps": self.eps,
              **asdict(self.report), "reused": times is None,
              **dict.fromkeys(("elapsed", "assemble_s", "factor_s", "solve_s"), 0.0),
              **(times or {}), "stats_s": stats_s}
        if shared_with is not None:
            ev["shared_with"] = shared_with
        return ev

    def remainder(self, corrected=True):
        """grad u - grad ubar at every node, (*shape, N, n); the bundle's memo, read-only."""
        if corrected not in self._remainder:
            X1, T = self.coords
            r = self.field.gradient_nodes() - self.ansatz.gradient(X1[:, :1], T, corrected)
            r.flags.writeable = False
            self._remainder[corrected] = r
        return self._remainder[corrected]

    def remainder_inner(self, corrected=True):
        """|grad u - grad ubar| at the inner nodes."""
        return _norm(self.remainder(corrected))[self.inner]

    @cached_property
    def c2_norms(self):
        return self.traces.c2_total(self.region.profiles.patch_radius)

    def at_inner(self, column_values):
        """Per-column values (tangential nodes, 1) spread over the inner nodes."""
        return np.broadcast_to(column_values, self.inner.shape)[self.inner]

    def gauge(self, bar=False):
        """Theta, or Theta_bar when ``bar``, per tangential column."""
        x1 = self.coords[0][:, :1]
        return (_ans.theta_bar_delta(self.traces, self.region, x1) if bar
                else _ans.theta(self.traces, x1))

    def normalizer(self, bar=False):
        """Theta, or Theta_bar when ``bar``, plus delta * C2 norms at the inner nodes."""
        x1 = self.coords[0][:, :1]
        return self.at_inner(self.gauge(bar) + self.region.delta(x1) * self.c2_norms)

    def column_max(self, E, xprime):
        """max |E| over the interior of the vertical column nearest x'.

        ``E`` is a gradient field of shape (*shape, N, n), such as the
        field's ``gradient_nodes()``.
        """
        col = E[int(np.argmin(np.abs(self.grid.axes[0] - xprime)))]
        return float(_norm(col)[1:-1].max())


def solve_point(cfgs, eps: float, nodes: tuple):
    """Set up, solve and time the distinct configs ``cfgs`` at one (eps, grid).

    The configs share tensor, geometry and grid (one sweep per sweep
    key), so they share one PointSetup, built from the first config; an
    error there fails every config at the point.  The first config whose
    bundle completes transforms and assembles the system with the point's
    box Jacobian, and the rest reuse it.  Each right-hand side is built
    after its bundle's set-up, so boundary data that fail stop that config
    alone and still pass its system on.  The right-hand sides, a lone one
    too, are stacked with np.stack and solved in one pass
    (``discretize.solve_bvp``), and each solved bundle gets its ``field``
    and ``report`` and drops the system.  Returns (got, times): per config
    the solved SolveBundle or the error that stopped it, and the point's
    ``assemble_s``, ``factor_s``, ``solve_s`` and ``elapsed``.  A failed
    factorization stops every config.  Kept errors drop their tracebacks,
    whose frames hold the system.
    """
    got, rhs, system, times = [], [], None, {"assemble_s": 0.0}
    if not cfgs:
        return got, times
    try:
        point = PointSetup.build(cfgs[0], eps, nodes)
    except Exception as exc:         # no config at this point can be set up
        return [exc.with_traceback(None)] * len(cfgs), times
    for cfg in cfgs:
        try:
            b = SolveBundle(cfg, point, system)
            system = b.system
            times["assemble_s"] += b.assemble_s
            rhs.append(_disc.right_hand_side(system, _disc.dirichlet_values(
                b.grid, b.traces, cfg.solver.closure, b.ansatz, cfg.solver.lateral_value)))
            got.append(b)
        except Exception as exc:     # its config fails, not the point
            got.append(exc.with_traceback(None))
    bundles = [b for b in got if isinstance(b, SolveBundle)]
    if not bundles:
        return got, times
    B = np.stack(rhs)
    del rhs
    try:
        solved, pass_times = _disc.solve_bvp(system, point.region, B, point.jacobian)
        times.update(pass_times)
    except Exception as exc:
        solved = [exc.with_traceback(None)] * len(bundles)
    for b, one in zip(bundles, solved):
        b.system = None
        if isinstance(one, Exception):
            got[got.index(b)] = one
        else:
            b.field, b.report = one
    return got, times


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
    return float(_norm(b.field.gradient_nodes())[b.inner].max())


def _stat_shortest_segment(b: SolveBundle):
    return b.column_max(b.field.gradient_nodes(), 0.0)


def _stat_monomial_point(b: SolveBundle):
    return b.column_max(b.field.gradient_nodes(), b.eps ** (1.0 / b.region.profiles.m))


def _stat_decay_normalized(b: SolveBundle):
    return b.column_max(b.field.gradient_nodes(), 0.0) / b.field.l2_norm()


def _stat_cor41_thetabar(b: SolveBundle):
    return float((b.remainder_inner() / b.normalizer(bar=True)).max())


def _stat_gauge_margin(b: SolveBundle):
    """min over inner x' of Theta - Theta_bar_delta (>= 0 expected)."""
    return float(b.at_inner(b.gauge() - b.gauge(bar=True)).min())


def _stat_energy_ratio(b: SolveBundle):
    """Window energy over delta(0)^2 (Theta(0)^2 + delta(0)^2 C2^2) at z' = 0.

    Blind to the correction: ``_judge_energy`` says why.
    """
    dlt0 = float(b.region.delta(0.0))
    E = local_energy(b.field, b.remainder(), 0.0, dlt0)
    th0 = float(_ans.theta(b.traces, 0.0))
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

def local_energy(df: _disc.DiscreteField, remainder, zprime, radius: float,
                 nq=ENERGY_QUAD) -> float:
    """Integral of |remainder|^2 over the window |x1 - zprime| < radius.

    ``remainder`` is a field (*shape, N, n) on the grid of ``df``, such as
    ``SolveBundle.remainder``.  Midpoint quadrature in mapped coordinates
    with Jacobian delta(x') of the interpolated nodal grad(u - ubar): formed
    at the nodes, the huge common 1/delta parts of both gradients cancel
    exactly, which keeps sub-cell windows meaningful; the smallest gap widths
    need them because the window radius delta(0') shrinks below the spacing.
    """
    region = df.region
    z = float(zprime)
    if radius <= 0:
        raise GeometryError("window radius must be positive")
    if abs(z) + radius > df.grid.half_width * (1 + 1e-12):
        raise GeometryError("energy window outside the grid")

    nqy, nqt = nq
    yq = z + (np.arange(nqy) + 0.5) / nqy * 2 * radius - radius
    tq = (np.arange(nqt) + 0.5) / nqt
    YQ, TQ = (m.ravel() for m in np.meshgrid(yq, tq, indexing="ij"))
    keep = (YQ - z) ** 2 <= radius ** 2 * (1 + 1e-12)
    YQ, TQ = YQ[keep], TQ[keep]
    vals = df._interpolate(remainder, YQ, TQ)
    w2 = np.sum(vals * vals, axis=(-2, -1)) * region.delta(YQ)
    cell = (2 * radius / nqy) * (1.0 / nqt)
    return float(w2.sum() * cell)


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRequest:
    """One case of a check: the configuration it solves and the statistics it reads.

    The config states the request's tensor, geometry (m included) and grid.
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


@dataclass
class SweepOutcome:
    """One request's sweep: statistic -> SweepResult, or the first error."""

    results: dict = field(default_factory=dict)
    events: list = field(default_factory=list)     # solve records
    elapsed: float = 0.0                           # its solves and statistics
    error: Exception | None = None


def _eps_list(cfg: RunConfig, default=DEFAULT_EPS):
    return tuple(cfg.experiment.eps_list or default)


def _sweep_key(cfg: RunConfig) -> tuple:
    """Tensor, geometry and grid: all the matrices of a sweep depend on besides eps."""
    return cfg.tensor, cfg.geometry, cfg.solver.scaled_nodes()


def run_sweeps(requests) -> list:
    """One SweepOutcome per request, in order: one sweep per sweep key.

    The requests are grouped by ``_sweep_key`` in first-seen order, and
    each group is swept (``_sweep``) before the next, so one system is
    alive at a time.
    """
    groups, outs = {}, [None] * len(requests)
    for i, req in enumerate(requests):
        groups.setdefault(_sweep_key(req.cfg), []).append(i)
    for (_, _, base), members in groups.items():
        for i, out in zip(members, _sweep([requests[i] for i in members], base)):
            outs[i] = out
    return outs


def _sweep(requests, base) -> list:
    """Sweep the requests of one sweep key on the ``base`` grid and its refinement.

    The outer loop is (eps, grid), eps from the largest down, so every
    request meets its points in its own order.  At each point
    ``solve_point`` sets up, solves and times the distinct configs of the
    requests still running there, on one PointSetup built there; nothing is
    kept from one point to the next, and a set-up that fails stops every
    request at the point.  Then each request runs its statistics on its
    config's bundle, which is dropped before the next config's.  The first
    request of a config to read its bundle logs the solve and the others
    name it in ``shared_with``; the first event logged at the point takes
    the point's times.  A request stops at its first error, kept without
    its traceback, whose frames hold the system.
    """
    outs = [SweepOutcome() for _ in requests]
    grids = ComparisonGrids(base, tuple(2 * (k - 1) + 1 for k in base))
    rows = [{} for _ in requests]       # per request: eps -> one value dict per grid
    for eps in sorted({e for r in requests for e in r.eps_list}, reverse=True):
        for nodes in grids:
            groups = {}
            for i, req in enumerate(requests):
                if eps in req.eps_list and outs[i].error is None:
                    groups.setdefault(req.cfg, []).append(i)
            t0 = time.perf_counter()
            got, times = solve_point(list(groups), eps, nodes)
            for members in groups.values():
                b = got.pop(0)
                if isinstance(b, Exception):
                    for i in members:
                        outs[i].error = b
                    continue
                first = None                 # the request that logs this solve
                for i in members:
                    req, t1 = requests[i], time.perf_counter()
                    try:
                        vals = {s: STATISTICS[s](b) for s in req.stats}
                    except Exception as exc:
                        outs[i].error = exc.with_traceback(None)
                        continue
                    t2 = time.perf_counter()
                    rows[i].setdefault(eps, []).append(vals)
                    outs[i].events.append(b.event(req.check, req.case, t2 - t1, first, times))
                    times = None             # the point's times are logged
                    outs[i].elapsed += t2 - t0
                    if first is None:        # the rest read this solve
                        first = "/".join(filter(None, (req.check, req.case)))
                    t0 = t2
                del b                        # before the next bundle's statistics
    for req, out, row in zip(requests, outs, rows):
        if out.error is None:
            out.results = _sweep_results(req.stats, grids, row, "grid-limited")
    return outs


def _sweep_results(stat_names, grids: ComparisonGrids, rows, reason):
    """One SweepResult per statistic from rows {eps: one value dict per grid}.

    Each value on the base grid is compared with its value on the refined
    grid: a point whose two values differ, relative to the larger, by more
    than RICHARDSON_TOL is flagged ``reason``.  Of the rest, a
    value under the noise floor times the sweep's largest is flagged as
    solver noise.
    """
    out = {}
    for s in stat_names:
        vmax = max((abs(vals[0][s]) for vals in rows.values()), default=0.0)
        pts = []
        for eps, (base, refined) in rows.items():
            v, rv = base[s], refined[s]
            rel = abs(rv - v) / max(abs(v), abs(rv), 1e-300)
            why = (reason if rel > RICHARDSON_TOL else
                   "noise-floor" if abs(v) < vmax * NOISE_FLOOR else "")
            pts.append(SweepPoint(eps, v, rv, rel, bool(why), grids.base, why))
        out[s] = SweepResult(s, pts)
    return out


_RESIDUAL_SAMPLES = (199, 31)      # (x1, t) interior samples of the base measurement


def residual_sweep(cfg: RunConfig) -> dict:
    """Analytic-residual sweep (no PDE solves).

    Statistics over an interior sample grid of Omega_{R0}:
      residual_normalized   = max |f| delta / (Theta + delta * C2 norms)
      residual_uncorrected  = max |f0| delta^2 / Theta  (correction dropped)
    The refined sample grid doubles the density, and its maxima go through
    the solve sweeps' comparison: moving more than the Richardson tolerance
    flags a point sampling-limited.
    """
    tensor = cfg.build_tensor()
    traces = cfg.build_traces()
    c2n = traces.c2_total(cfg.geometry.build_pair().patch_radius)

    def measure(af, ns):
        region = af.region
        xq = np.linspace(-region.R0, region.R0, ns[0] + 2)[1:-1, None]   # x1 columns
        ts = np.linspace(0.0, 1.0, ns[1] + 2)[1:-1]
        dlt = region.delta(xq)
        th = _ans.theta(traces, xq)
        f, f0 = (np.linalg.norm(g, axis=-1) for g in af.residual(xq, ts))
        return {"residual_normalized": float((f * dlt / (th + dlt * c2n)).max()),
                "residual_uncorrected": float((f0 * dlt ** 2 / np.maximum(th, 1e-300)).max())}

    grids = ComparisonGrids(_RESIDUAL_SAMPLES, tuple(2 * s + 1 for s in _RESIDUAL_SAMPLES))
    rows = {}
    for eps in _eps_list(cfg):
        af = _ans.build_ansatz(tensor, cfg.geometry.build_region(eps), traces)
        rows[eps] = [measure(af, ns) for ns in grids]
    return _sweep_results(("residual_normalized", "residual_uncorrected"), grids, rows,
                          "sampling-limited")


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
    the verdict from those requests' SweepResults, in request order; a rate
    check hands its Claims and its own predicate to ``_judge_claims``.
    A check whose claim is about a nonzero trace difference sets
    ``needs_data``: ``run_checks`` skips it when phi - psi = 0 and its plan
    returned requests, so a skip of the plan's own (cor41's tensor kind)
    comes first.
    """

    name: str
    plan: Callable
    judge: Callable
    needs_data: bool = False


ZERO_DATA = "no trace difference: phi - psi = 0"


def _zero_traces(cfg: RunConfig) -> bool:
    """phi - psi = 0: the first N rows of the traces agree, each pair of rows
    (a missing row is empty) compared after zero-padding to one length."""
    phi, psi = cfg.traces.phi[:cfg.N], cfg.traces.psi[:cfg.N]
    return all(p == q for a, b in zip_longest(phi, psi, fillvalue=())
               for p, q in zip_longest(a, b, fillvalue=0.0))


def run_checks(cfg: RunConfig, names) -> list:
    """One Verdict per named check; their requests make one sweep per sweep key.

    A check stopped by an exception gets an ABORTED verdict naming it.  The
    hypotheses are not checked here; ``cli.run`` checks them at the sweep head.
    """
    checks, plans = [CHECKS[name] for name in names], []
    for check in checks:
        t0 = time.perf_counter()
        try:
            plan = check.plan(cfg)
            if check.needs_data and isinstance(plan, list) and _zero_traces(cfg):
                plan = Verdict(check.name, "SKIPPED", {"note": ZERO_DATA})
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
    return [v if isinstance(v, Verdict) else
            Verdict(name, "ABORTED", {"error": f"{type(v).__name__}: {v}"})
            for name, v in zip(names, out)]


@dataclass(frozen=True)
class Claim:
    """A rate a check asserts: the slope of ``stat`` in the ``fit_rate`` ``model``.

    It holds when the slope is within ``band`` of ``expected``; with no band
    it is only fitted and reported.  A ``tail`` claim fits eps <= EPS_FIT_MAX
    (all of it when the tail is short) and keeps the full fit as ``<fit>_full``.
    """

    stat: str
    fit: str
    key: str
    expected: float = 0.0
    band: float | None = None
    tail: bool = False
    model: str = "power"


def _judge_claims(name, srs, claims, expected, extra=None, m=2) -> Verdict:
    """The verdict ``name`` on a check's claims over its sweeps ``srs``.

    Each claim's fit (at the geometry's ``m``) goes to ``fits[claim.fit]``,
    its slope to ``details[claim.key]`` and its band test to the status.
    ``extra(fits)`` returns the check's own (ok, details).  The first tail
    claim's window is ``fit_eps_max`` (None: it fell back).  A fit that its
    data cannot support ABORTs the verdict, which keeps the sweeps.
    """
    fits, details, ok = {}, {}, True
    try:
        for c in claims:
            fit = fit_rate(srs[c.stat], c.model, m)
            if c.tail:
                fits[f"{c.fit}_full"] = fit
                try:
                    fit = fit_rate(srs[c.stat], c.model, m, eps_max=EPS_FIT_MAX)
                    details.setdefault("fit_eps_max", EPS_FIT_MAX)
                except DataError:
                    details.setdefault("fit_eps_max", None)
            fits[c.fit] = fit
            details[c.key] = round(fit.slope, 4)
            ok = ok and (c.band is None or abs(fit.slope - c.expected) <= c.band)
    except DataError as exc:
        return Verdict(name, "ABORTED", {"error": str(exc)}, sweeps=srs)
    extra_ok, more = extra(fits) if extra else (True, {})
    return Verdict(name, "PASS" if ok and extra_ok else "FAIL",
                   {**details, **more, "expected": expected}, fits, srs)


def _plan_thm11(cfg: RunConfig):
    return [SweepRequest(cfg, ("thm11_sup", "thm11_sup_uncorrected",
                               "thm11_sup_normalized"), _eps_list(cfg))]


def _correction_vanishes(tensor: CoefficientTensor) -> bool:
    """A^{12} + A^{21} = 0 in A0 and any perturbation direction: every kernel row is 0."""
    return not any(np.any(A[..., 0, 1] + A[..., 1, 0])
                   for A in (tensor.A0, tensor.perturb_dir) if A is not None)


def _judge_thm11(cfg: RunConfig, results) -> Verdict:
    """Bounded corrected remainder vs eps^{-1/m} uncorrected remainder.

    The expected blow-up rate of the uncorrected interpolant's error is
    eps^{-1/m}: the dropped correction gradient scales like delta^{-1/m}
    pointwise and its supremum is attained where delta is comparable to eps
    (for m = 2 this is the classical eps^{-1/2}).  When the correction
    vanishes (every laplace tensor) nothing is dropped, so the uncorrected
    slope is only fitted and reported.
    """
    srs, = results
    unc, band = -1.0 / cfg.geometry.m, THM11_BAND
    unc_expected = f"uncorrected {unc} +/- {THM11_BAND}"
    if _correction_vanishes(cfg.build_tensor()):
        band, unc_expected = None, "uncorrected fitted only: A^12 + A^21 = 0, no correction"
    return _judge_claims(
        "thm11", srs,
        (Claim("thm11_sup", "corrected", "corrected_slope", 0.0, THM11_BAND, tail=True),
         Claim("thm11_sup_uncorrected", "uncorrected", "uncorrected_slope", unc, band,
               tail=True)),
        f"corrected 0 +/- {THM11_BAND}, {unc_expected}",
        lambda fits: (True, {"full_window_slopes": (round(fits["corrected_full"].slope, 4),
                                                    round(fits["uncorrected_full"].slope, 4))}))


def _remark13_case_cfg(cfg, case):
    """Traces (i) phi = psi = 1 + x1^2, (ii) a constant gap in the last
    component, (iii) phi = x1^k in the first, each as N coefficient rows."""
    zero = ((0.0,),) * cfg.N
    if case == "i":
        phi = psi = ((1.0, 0.0, 1.0),) + zero[1:]
    elif case == "ii":
        last = min(DIM, cfg.N) - 1
        phi, psi = zero[:last] + ((1.0,),) + zero[last + 1:], zero
    else:
        phi, psi = ((0.0,) * cfg.experiment.monomial_k + (1.0,),) + zero[1:], zero
    return replace(cfg, traces=TracesConfig(phi, psi))


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
    sub, fits, sweeps = {}, {}, {}
    for case, srs in zip(cfg.experiment.remark13_cases, results):
        expected = {"i": 0.0, "ii": -1.0, "iii": k / m - 1.0}[case]
        band = REMARK13_BANDS[case]
        stat = REMARK13_STATS[case]
        sweeps[f"case_{case}"] = srs[stat]
        v = _judge_claims(case, srs, (Claim(stat, f"case_{case}", "slope", expected, band),),
                          f"{expected} +/- {band}")
        sub[f"case_{case}"] = {"status": v.status, **v.details}
        fits.update(v.fits)
    status = "PASS" if sub and all(s["status"] == "PASS" for s in sub.values()) else "FAIL"
    return Verdict("remark13", status, sub, fits, sweeps)


def _plan_decay(cfg: RunConfig):
    N = cfg.N
    lateral = cfg.solver.lateral_value
    if lateral is None:
        lateral = (1.0,) * N
    if max(abs(float(v)) for v in lateral) == 0:
        return Verdict("decay", "SKIPPED",
                       {"note": "zero solution: top/bottom and lateral data "
                                "all vanish"})
    dcfg = replace(cfg,
                   traces=TracesConfig(((0.0,),) * N, ((0.0,),) * N),
                   solver=replace(cfg.solver, closure="constant",
                                  lateral_value=tuple(lateral)))
    return [SweepRequest(dcfg, ("decay_normalized",), _eps_list(cfg, DECAY_EPS))]


def _judge_decay(cfg: RunConfig, results) -> Verdict:
    """Super-polynomial gradient decay under zero top/bottom data."""
    srs, = results

    def stretched(fits):
        fit = fits["stretched"]
        return (fit.slope < 0 and fit.r_squared >= DECAY_MIN_R2,
                {"r_squared": round(fit.r_squared, 6),
                 "fitted_decay_constant": None if fit.decay_constant is None
                 else round(fit.decay_constant, 5)})
    return _judge_claims(
        "decay", srs,
        (Claim("decay_normalized", "stretched", "slope", model="stretched_exponential"),),
        f"slope < 0 and R^2 >= {DECAY_MIN_R2}", stretched, cfg.geometry.m)


def _plan_cor41(cfg: RunConfig):
    if cfg.tensor.kind != "lame":
        return Verdict("cor41", "SKIPPED",
                       {"note": f"requires the elasticity tensor, got "
                                f"{cfg.tensor.kind!r}"})
    return [SweepRequest(cfg, ("cor41_sup_thetabar", "cor41_sup_theta",
                               "gauge_margin"), _eps_list(cfg))]


def _judge_cor41(cfg: RunConfig, results) -> Verdict:
    """Elasticity gauge: Theta_bar-normalized remainder bounded, gauge smaller."""
    srs, = results

    def gauge(fits):
        margin = float(srs["gauge_margin"].values(clean=False).min())
        ok = margin >= -1e-12
        return ok, {"full_window_slope": round(fits["thetabar_full"].slope, 4),
                    "gauge_min_margin": margin, "gauge_pointwise_ok": ok}
    return _judge_claims(
        "cor41", srs,
        (Claim("cor41_sup_thetabar", "thetabar", "thetabar_slope", 0.0, COR41_BAND, tail=True),),
        f"slope 0 +/- {COR41_BAND} and Theta_bar <= Theta at every sampled x'", gauge)


def _plan_residual(cfg: RunConfig):
    return []                   # no solves: the judge sweeps the analytic residual


def _judge_residual(cfg: RunConfig, results) -> Verdict:
    """The delta^{-2} residual part cancels; without the correction it stays."""
    srs = residual_sweep(cfg)

    def floor(fits):
        umin = float(srs["residual_uncorrected"].values().min())
        return (umin > 0 and fits["uncorrected"].slope >= -0.1,
                {"uncorrected_min": round(umin, 6)})
    return _judge_claims(
        "residual", srs,
        (Claim("residual_normalized", "normalized", "normalized_slope", 0.0, RESIDUAL_BAND),
         Claim("residual_uncorrected", "uncorrected", "uncorrected_slope")),
        f"slope 0 +/- {RESIDUAL_BAND}; uncorrected bounded below by a positive constant",
        floor)


def _plan_energy(cfg: RunConfig):
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
    return _judge_claims("energy", srs,
                         (Claim("energy_ratio", "energy", "slope", 0.0, ENERGY_BAND),),
                         f"0 +/- {ENERGY_BAND}")


CHECKS = {c.name: c for c in (
    Check("thm11", _plan_thm11, _judge_thm11, needs_data=True),
    Check("remark13", _plan_remark13, _judge_remark13),
    Check("decay", _plan_decay, _judge_decay),
    Check("cor41", _plan_cor41, _judge_cor41, needs_data=True),
    Check("residual", _plan_residual, _judge_residual, needs_data=True),
    Check("energy", _plan_energy, _judge_energy, needs_data=True))}
