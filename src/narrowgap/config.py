"""Run configuration: strict schema, documented defaults, builders.

A run is described by five blocks (geometry, tensor, traces, solver,
experiment) plus an output block.  Parsing is strict: unknown keys anywhere
are errors, all violations are collected and reported together, and
cross-field constraints (closed-form ansatz needs an elasticity tensor,
the monomial blow-up case needs m > k, ...) are enforced at parse time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ansatz as _ansatz
from . import coefficients as _coeff
from . import geometry as _geom


class ConfigError(ValueError):
    """One or more schema violations; the message lists all of them."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.violations))


DEFAULT_EPS = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
DECAY_EPS = (0.1, 0.06, 0.04, 0.025, 0.015)

CHECK_NAMES = ("thm11", "remark13", "decay", "cor41", "residual", "energy")


@dataclass(frozen=True)
class GeometryConfig:
    n: int = 2
    family: str = "power"            # "power" | "poly"
    m: int = 2
    upper_coef: float = 1.0          # h1 = upper_coef |x'|^m
    lower_coef: float = 0.0          # h2 = -lower_coef |x'|^m
    R0: float = 0.5
    epsilon: float | None = None     # gap at x' = 0 for single-solve commands
    poly_upper: tuple | None = None  # poly family: h1 coefficients in x1
    poly_lower: tuple | None = None
    kappa1: float | None = None      # None: exact constants of the power family
    kappa2: float | None = None
    kappa3: float | None = None
    kappa4: float | None = None

    def build_pair(self) -> _geom.ProfilePair:
        if self.family == "power":
            kappas = None
            if self.kappa1 is not None:
                kappas = (self.kappa1, self.kappa2, self.kappa3, self.kappa4)
            return _geom.power_pair(self.m, self.upper_coef, self.lower_coef,
                                    self.R0, kappas)
        return _geom.ProfilePair(_geom.PolyProfile(self.poly_upper),
                                 _geom.PolyProfile(self.poly_lower),
                                 self.m, self.kappa1, self.kappa2,
                                 self.kappa3, self.kappa4, self.R0)

    def build_region(self, eps: float) -> _geom.NarrowRegion:
        return _geom.NarrowRegion(self.build_pair(), eps, self.n)


@dataclass(frozen=True)
class TensorConfig:
    kind: str = "lame"               # "laplace" | "lame" | "lame_perturbed" | "custom_poly"
    lam: float = 1.0
    mu: float = 1.0
    N: int = 1                       # laplace only; systems take N = n
    perturb_scale: float = 0.1
    perturb_poly: tuple = ((1.0, (1, 0)),)   # terms (coef, exponents)
    custom_A: tuple | None = None    # custom_poly: flat A entries, shape (N,N,n,n)
    custom_N: int = 1

    def build(self, n: int):
        """Returns (tensor, lame_params_or_None)."""
        if self.kind == "laplace":
            return _coeff.make_laplace(n, self.N), None
        params = _coeff.LameParameters(self.lam, self.mu)
        if self.kind == "lame":
            return _coeff.make_lame(params, n), params
        if self.kind == "lame_perturbed":
            base = _coeff.make_lame(params, n)
            poly = _coeff.MultiPoly(self.perturb_poly)
            return _coeff.make_perturbed(base, poly, self.perturb_scale), params
        A0 = np.array(self.custom_A, dtype=float).reshape(
            self.custom_N, self.custom_N, n, n)
        tensor = _coeff.make_custom(n, self.custom_N, A0)
        if self.perturb_scale:
            poly = _coeff.MultiPoly(self.perturb_poly)
            tensor = _coeff.make_perturbed(tensor, poly, self.perturb_scale)
        return tensor, None


@dataclass(frozen=True)
class TracesConfig:
    family: str = "constant"         # "constant" | "monomial" | "poly"
    phi: tuple = (1.0, 0.0)
    psi: tuple = (0.0, 0.0)
    k: int = 1                       # monomial: phi - psi = (x1^k, 0, ...)
    component: int = 0
    scale: float = 1.0
    poly_phi: tuple | None = None    # poly: per-component coefficient rows
    poly_psi: tuple | None = None

    def build(self, N: int) -> _ansatz.BoundaryTraces:
        """phi and psi as N coefficient rows in x1 each; missing rows are zero."""
        if self.family == "constant":
            phi, psi = ([(v,) for v in vec] for vec in (self.phi, self.psi))
        elif self.family == "monomial":
            phi, psi = _pad_rows((), N), ()
            phi[self.component] = (0.0,) * self.k + (self.scale,)
        else:
            phi, psi = self.poly_phi, self.poly_psi
        return _ansatz.BoundaryTraces(_ansatz.PolyTrace(_pad_rows(phi, N)),
                                      _ansatz.PolyTrace(_pad_rows(psi, N)))


def _pad_rows(rows, N):
    rows = [tuple(r) for r in (rows or ())][:N]
    return rows + [(0.0,)] * (N - len(rows))


@dataclass(frozen=True)
class SolverConfig:
    tangential_nodes: int = 257
    vertical_nodes: int = 65
    tol: float = 1e-10
    closure: str = "ansatz"          # "ansatz" | "constant"
    lateral_value: tuple | None = None
    ansatz_mode: str = "generic"     # "generic" | "lame_closed_form"
    grid_scale: float = 1.0

    def scaled_nodes(self):
        f = self.grid_scale
        return (int(round((self.tangential_nodes - 1) * f)) + 1,
                int(round((self.vertical_nodes - 1) * f)) + 1)


@dataclass(frozen=True)
class ExperimentConfig:
    checks: tuple = CHECK_NAMES
    eps_list: tuple | None = None    # None: per-check default
    eps_fit_max: float | None = None  # None: per-check default tail cut
    richardson_tol: float = 0.1
    seed: int = 0
    monomial_k: int = 1
    remark13_cases: tuple = ("i", "ii", "iii")
    energy_quad: tuple = (24, 48)

    @property
    def threads(self):
        """1: sweeps run on the calling thread.  Read only by the check in
        ``sweepbench/worker.py``, and goes with it (ROADMAP item 3)."""
        return 1


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "runs/out"


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    tensor: TensorConfig = field(default_factory=TensorConfig)
    traces: TracesConfig = field(default_factory=TracesConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @property
    def N(self):
        if self.tensor.kind == "laplace":
            return self.tensor.N
        if self.tensor.kind == "custom_poly":
            return self.tensor.custom_N
        return self.geometry.n

    def build_traces(self):
        return self.traces.build(self.N)

    def build_tensor(self):
        return self.tensor.build(self.geometry.n)

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

_BLOCKS = {
    "geometry": GeometryConfig,
    "tensor": TensorConfig,
    "traces": TracesConfig,
    "solver": SolverConfig,
    "experiment": ExperimentConfig,
    "output": OutputConfig,
}

_TUPLE_KEYS = {
    "checks", "eps_list", "phi", "psi", "poly_phi", "poly_psi", "poly_upper",
    "poly_lower", "perturb_poly", "custom_A", "remark13_cases", "energy_quad",
    "lateral_value",
}


def _coerce(value, key):
    if key in _TUPLE_KEYS and isinstance(value, list):
        return tuple(_coerce(v, key) if isinstance(v, list) else
                     (tuple(v) if isinstance(v, (list, tuple)) else v)
                     for v in value)
    return value


def _non_finite(value, where):
    """Paths of the NaN/Infinity numbers inside a parsed JSON value."""
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return [where] if isinstance(value, float) and not math.isfinite(value) else []


def _parse_block(cls, data, block, violations):
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            violations.append(f"{block}: unknown key {key!r}")
            continue
        violations += [f"{block}: {path} is not a finite number"
                       for path in _non_finite(value, key)]
        kwargs[key] = _coerce(value, key)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        violations.append(f"{block}: {exc}")
        return cls()


def _type_violations(cfg: RunConfig):
    """Each int or float field (None where allowed) that holds anything else."""
    v = []
    for block in _BLOCKS:
        obj = getattr(cfg, block)
        for f in fields(obj):
            kind, value = f.type.removesuffix(" | None"), getattr(obj, f.name)
            if kind not in ("int", "float") or (value is None and kind != f.type):
                continue
            if isinstance(value, bool) or not isinstance(
                    value, int if kind == "int" else (int, float)):
                what = "an integer" if kind == "int" else "a number"
                v.append(f"{block}: {f.name} must be {what}, got {value!r}")
    return v


def _numbers(value, where, block="traces"):
    """Violations unless ``value`` is a list of numbers (a bool is not one)."""
    if not isinstance(value, tuple):
        return [f"{block}: {where} must be a list of numbers, got {value!r}"]
    return [f"{block}: {where}[{i}] must be a number, got {x!r}"
            for i, x in enumerate(value)
            if isinstance(x, bool) or not isinstance(x, (int, float))]


def _coefficient_violations(tr: TracesConfig):
    """Each trace value or coefficient row that cannot build a trace."""
    v = _numbers(tr.phi, "phi") + _numbers(tr.psi, "psi")
    for key in ("poly_phi", "poly_psi"):
        rows = getattr(tr, key)
        if rows is None:
            continue
        if not isinstance(rows, tuple):
            v.append(f"traces: {key} must be a list of coefficient rows, got {rows!r}")
            continue
        for i, row in enumerate(rows):
            v += _numbers(row, f"{key}[{i}]")
            if row == ():
                v.append(f"traces: {key}[{i}] is an empty coefficient row")
    return v


def _beyond_n(tr: TracesConfig, N):
    """Traces with nonzero data beyond N; zeros let phi (1, 0) serve N = 1."""
    if tr.family == "constant":
        return [f"traces: {key} has a nonzero entry beyond N = {N}"
                for key in ("phi", "psi") if any(getattr(tr, key)[N:])]
    if tr.family == "poly":
        return [f"traces: {key} has a nonzero row beyond N = {N}"
                for key in ("poly_phi", "poly_psi")
                if any(any(row) for row in (getattr(tr, key) or ())[N:])]
    return []


def validate_config(cfg: RunConfig):
    """Cross-field constraint checks; returns a list of violations.

    A field of the wrong type is reported alone: the value checks below
    would compare it.
    """
    v = _type_violations(cfg)
    if v:
        return v
    g, t, tr, s, e = (cfg.geometry, cfg.tensor, cfg.traces, cfg.solver,
                      cfg.experiment)
    if g.n < 2:
        v.append("geometry: n must be >= 2")
    if g.family not in ("power", "poly"):
        v.append(f"geometry: unknown family {g.family!r}")
    if g.family == "power" and g.upper_coef + g.lower_coef <= 0:
        v.append("geometry: upper_coef + lower_coef must be positive")
    if g.family == "poly":
        if g.poly_upper is None or g.poly_lower is None:
            v.append("geometry: poly family requires poly_upper and poly_lower")
        if None in (g.kappa1, g.kappa2, g.kappa3, g.kappa4):
            v.append("geometry: poly family requires explicit kappa1..kappa4")
        if g.n != 2:
            v.append("geometry: poly profiles are defined for n = 2")
    if g.m < 2:
        v.append("geometry: m must be >= 2")
    if g.R0 <= 0:
        v.append("geometry: R0 must be positive")
    if g.epsilon is not None and g.epsilon <= 0:
        v.append("geometry: epsilon must be positive")
    if t.kind not in ("laplace", "lame", "lame_perturbed", "custom_poly"):
        v.append(f"tensor: unknown kind {t.kind!r}")
    if t.kind in ("lame", "lame_perturbed"):
        if t.mu <= 0:
            v.append("tensor: mu must be positive")
        if g.n * t.lam + 2 * t.mu <= 0:
            v.append("tensor: n*lam + 2*mu must be positive")
    if t.kind == "laplace" and t.N < 1:
        v.append("tensor: N must be >= 1")
    if tr.family not in ("constant", "monomial", "poly"):
        v.append(f"traces: unknown family {tr.family!r}")
    if tr.family == "poly" and (tr.poly_phi is None or tr.poly_psi is None):
        v.append("traces: poly family requires poly_phi and poly_psi")
    if tr.family == "monomial" and tr.k < 0:
        v.append("traces: monomial degree k must be >= 0")
    if tr.family == "monomial" and not 0 <= tr.component < cfg.N:
        v.append(f"traces: monomial component must be in [0, {cfg.N}), "
                 f"got {tr.component}")
    v += _coefficient_violations(tr) or _beyond_n(tr, cfg.N)
    if s.closure == "exact":        # only the Python API can pass the exact field
        v.append("solver: the exact closure needs an exact field, which a config "
                 "cannot supply")
    elif s.closure not in ("ansatz", "constant"):
        v.append(f"solver: unknown closure {s.closure!r}")
    if s.closure == "constant" and s.lateral_value is None:
        v.append("solver: constant closure requires lateral_value")
    if s.lateral_value is not None:
        v += _numbers(s.lateral_value, "lateral_value", "solver") or (
            [] if len(s.lateral_value) == cfg.N else
            [f"solver: lateral_value must have N = {cfg.N} entries, "
             f"got {len(s.lateral_value)}"])
    if s.ansatz_mode not in ("generic", "lame_closed_form"):
        v.append(f"solver: unknown ansatz_mode {s.ansatz_mode!r}")
    if s.ansatz_mode == "lame_closed_form" and t.kind != "lame":
        v.append("solver: lame_closed_form ansatz requires tensor kind 'lame'")
    if s.tangential_nodes < 3 or s.vertical_nodes < 3:
        v.append("solver: need at least 3 nodes per axis")
    if s.tol <= 0:
        v.append("solver: tol must be positive")
    if s.grid_scale <= 0:
        v.append("solver: grid_scale must be positive")
    for c in e.checks:
        if c not in CHECK_NAMES:
            v.append(f"experiment: unknown check {c!r}")
    for c in e.remark13_cases:
        if c not in ("i", "ii", "iii"):
            v.append(f"experiment: unknown remark13 case {c!r}")
    wants_iii = "remark13" in e.checks and "iii" in e.remark13_cases
    if wants_iii and g.m <= e.monomial_k:
        v.append("experiment: remark 1.3(iii) requires m > k "
                 f"(got m = {g.m}, k = {e.monomial_k})")
    if e.eps_list is not None:
        eps = tuple(e.eps_list)
        if len(eps) < 1 or any(x <= 0 for x in eps):
            v.append("experiment: eps_list entries must be positive")
        elif any(a <= b for a, b in zip(eps, eps[1:])):
            v.append("experiment: eps_list must be strictly decreasing")
    if e.eps_fit_max is not None and not e.eps_fit_max > 0:
        v.append("experiment: eps_fit_max must be positive")
    q = e.energy_quad
    if not (isinstance(q, tuple) and len(q) == 2
            and all(type(k) is int and k > 0 for k in q)):
        v.append("experiment: energy_quad must be two positive integers")
    if not 0 < e.richardson_tol < 1:
        v.append("experiment: richardson_tol must be in (0, 1)")
    return v


def config_from_dict(data: dict) -> RunConfig:
    violations = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])
    blocks = {}
    for key, value in data.items():
        if key not in _BLOCKS:
            violations.append(f"unknown top-level block {key!r}")
            continue
        if not isinstance(value, dict):
            violations.append(f"{key}: must be an object")
            continue
        blocks[key] = _parse_block(_BLOCKS[key], value, key, violations)
    cfg = RunConfig(**{name: blocks.get(name, cls())
                       for name, cls in _BLOCKS.items()})
    violations.extend(validate_config(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def parse_config(path) -> RunConfig:
    """Load, validate and default-fill a JSON run configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from None
    return config_from_dict(data)
