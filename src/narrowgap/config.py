"""Run configuration: strict schema, documented defaults, builders.

A run is described by five blocks (geometry, tensor, traces, solver,
experiment) plus an output block.  Parsing is strict: unknown keys anywhere
are errors, all violations are collected and reported together, and
cross-field constraints (custom_A holds the N^2 * 4 entries of a planar A,
the monomial blow-up case needs m > k, ...) are enforced at parse time.
Each concept has one spelling: a trace is a list of coefficient rows in
x1, one per component, and a nonzero ``perturb_scale`` perturbs a tensor
of any kind.  A key that the rest of its block leaves unread is refused:
one that defaults to None when it is given (poly_upper under the power
family, custom_A under another kind), any other when it differs from its
default (lam and mu under laplace or custom, N under lame, upper_coef and
lower_coef under the poly family, perturb_poly under a zero perturb_scale).
A key at its default is let pass, so that every config echo parses back.
The dimension is not a key: every block is planar (``geometry.DIM``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ansatz as _ansatz
from . import coefficients as _coeff
from . import geometry as _geom
from .discretize import CLOSURES


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
        return _geom.NarrowRegion(self.build_pair(), eps)


@dataclass(frozen=True)
class TensorConfig:
    kind: str = "lame"               # "laplace" | "lame" | "custom"
    lam: float = 1.0
    mu: float = 1.0
    N: int = 1                       # laplace and custom; lame takes N = 2
    perturb_scale: float = 0.0       # s: A(x) = (1 + s p(x)) A0 when nonzero, any kind
    perturb_poly: tuple = ((1.0, (1, 0)),)   # p: terms (coef, exponents)
    custom_A: tuple | None = None    # custom: flat A entries, shape (N, N, 2, 2)

    def build(self) -> _coeff.CoefficientTensor:
        if self.kind == "laplace":
            tensor = _coeff.make_laplace(self.N)
        elif self.kind == "lame":
            tensor = _coeff.make_lame(_coeff.LameParameters(self.lam, self.mu))
        else:
            dim = _geom.DIM
            A0 = np.array(self.custom_A, dtype=float).reshape(self.N, self.N, dim, dim)
            tensor = _coeff.make_custom(self.N, A0)
        if self.perturb_scale:
            poly = _coeff.MultiPoly(self.perturb_poly)
            tensor = _coeff.make_perturbed(tensor, poly, self.perturb_scale)
        return tensor


@dataclass(frozen=True)
class TracesConfig:
    phi: tuple = ((1.0,), (0.0,))    # per component, row[k] multiplies x1^k
    psi: tuple = ((0.0,), (0.0,))

    def build(self, N: int) -> _ansatz.BoundaryTraces:
        """phi and psi as N coefficient rows in x1 each; missing rows are zero."""
        return _ansatz.BoundaryTraces(_ansatz.PolyTrace(_pad_rows(self.phi, N)),
                                      _ansatz.PolyTrace(_pad_rows(self.psi, N)))


def _pad_rows(rows, N):
    return tuple(rows[:N]) + ((0.0,),) * (N - len(rows))


@dataclass(frozen=True)
class SolverConfig:
    tangential_nodes: int = 257
    vertical_nodes: int = 65
    closure: str = "ansatz"          # one of discretize.CLOSURES
    lateral_value: tuple | None = None
    grid_scale: float = 1.0

    def scaled_nodes(self):
        f = self.grid_scale
        return (int(round((self.tangential_nodes - 1) * f)) + 1,
                int(round((self.vertical_nodes - 1) * f)) + 1)


@dataclass(frozen=True)
class ExperimentConfig:
    checks: tuple = CHECK_NAMES
    eps_list: tuple | None = None    # None: per-check default
    monomial_k: int = 1
    remark13_cases: tuple = ("i", "ii", "iii")

    @property
    def threads(self):
        """1: sweeps run on the calling thread.  Read only by the check in
        ``sweepbench/worker.py``, and goes with it (ROADMAP item 1)."""
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
        if self.tensor.kind in ("laplace", "custom"):
            return self.tensor.N
        return _geom.DIM

    def build_traces(self):
        return self.traces.build(self.N)

    def sweep_head(self):
        """The widest gap any check sweeps: the head of ``eps_list`` or of the defaults."""
        return max(self.experiment.eps_list or DEFAULT_EPS + DECAY_EPS)

    def widest_eps(self):
        """The widest gap of any sweep or single solve: the sweep head or ``geometry.epsilon``."""
        return max(self.sweep_head(), self.geometry.epsilon or 0.0)

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

_BLOCKS = {f.name: f.default_factory for f in fields(RunConfig)}   # name -> block class


def _coerce(value):
    """A JSON list, and each list inside it, as a tuple."""
    if isinstance(value, list):
        return tuple(_coerce(v) for v in value)
    return value


def _non_finite(value, where):
    """Paths of the NaN/Infinity numbers inside a parsed JSON value."""
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return [where] if isinstance(value, float) and not math.isfinite(value) else []


def _parse_block(cls, data, block, violations):
    known = {f.name for f in fields(cls)}
    tuples = {f.name for f in fields(cls) if f.type.startswith("tuple")}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            violations.append(f"{block}: unknown key {key!r}")
            continue
        violations += [f"{block}: {path} is not a finite number"
                       for path in _non_finite(value, key)]
        kwargs[key] = _coerce(value) if key in tuples else value
    return cls(**kwargs)        # declared names only, each with a default


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


def _perturb_poly_violations(terms):
    """Each perturb_poly term that is not [coef, exponents] with 2 exponents >= 0."""
    if not isinstance(terms, tuple):
        return [f"tensor: perturb_poly must be a list of [coef, exponents] terms, "
                f"got {terms!r}"]
    return [f"tensor: perturb_poly[{i}] must be [coef, exponents] with {_geom.DIM} "
            f"non-negative integer exponents, got {term!r}"
            for i, term in enumerate(terms)
            if not (isinstance(term, tuple) and len(term) == 2
                    and not isinstance(term[0], bool) and isinstance(term[0], (int, float))
                    and isinstance(term[1], tuple) and len(term[1]) == _geom.DIM
                    and all(type(e) is int and e >= 0 for e in term[1]))]


def _coefficient_violations(tr: TracesConfig):
    """Each trace or coefficient row that cannot build a trace."""
    v = []
    for key in ("phi", "psi"):
        rows = getattr(tr, key)
        if not isinstance(rows, tuple):
            v.append(f"traces: {key} must be a list of coefficient rows, got {rows!r}")
            continue
        for i, row in enumerate(rows):
            v += _numbers(row, f"{key}[{i}]")
            if row == ():
                v.append(f"traces: {key}[{i}] is an empty coefficient row")
    return v


def _beyond_n(tr: TracesConfig, N):
    """Traces with a nonzero row beyond N; zero rows let phi [[1], [0]] serve N = 1."""
    return [f"traces: {key} has a nonzero row beyond N = {N}"
            for key in ("phi", "psi") if any(any(row) for row in getattr(tr, key)[N:])]


def _unread(obj, keys, block, reader):
    """Each of ``keys`` that ``reader`` ignores but that differs from its default."""
    return [f"{block}: {key} is not read by {reader}"
            for key in keys if getattr(obj, key) != getattr(type(obj), key)]


def _profile_violations(g: GeometryConfig):
    """Why the profile pair cannot be built or evaluated finitely, if it cannot."""
    try:
        with np.errstate(all="ignore"):
            _geom.validate_profiles(g.build_pair())
    except (_geom.GeometryError, _geom.EvaluationError) as exc:
        return [f"geometry: {exc}"]
    except OverflowError:
        return [f"geometry: the profile constants overflow (m = {g.m}, R0 = {g.R0!r})"]
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
    if g.family not in ("power", "poly"):
        v.append(f"geometry: unknown family {g.family!r}")
    if g.family == "power":
        if g.upper_coef + g.lower_coef <= 0:
            v.append("geometry: upper_coef + lower_coef must be positive")
        v += [f"geometry: {key} is read only by the poly family"
              for key in ("poly_upper", "poly_lower") if getattr(g, key) is not None]
    kappas = (g.kappa1, g.kappa2, g.kappa3, g.kappa4)
    if g.family == "poly":
        v += _unread(g, ("upper_coef", "lower_coef"), "geometry", "the poly family")
        for key in ("poly_upper", "poly_lower"):
            coeffs = getattr(g, key)
            if coeffs is None:
                v.append(f"geometry: poly family requires {key}")
            elif coeffs == ():
                v.append(f"geometry: {key} is an empty coefficient list")
            else:
                v += _numbers(coeffs, key, "geometry")
        if None in kappas:
            v.append("geometry: poly family requires explicit kappa1..kappa4")
    elif None in kappas and kappas != (None,) * 4:
        v.append("geometry: kappa1..kappa4 must be given together or not at all")
    if g.m < 2:
        v.append("geometry: m must be >= 2")
    if g.R0 <= 0:
        v.append("geometry: R0 must be positive")
    if g.epsilon is not None and g.epsilon <= 0:
        v.append("geometry: epsilon must be positive")
    if not v:       # the fields are sound: the profiles must build and evaluate
        v += _profile_violations(g)
    if t.kind not in ("laplace", "lame", "custom"):
        v.append(f"tensor: unknown kind {t.kind!r}")
    if t.kind == "lame":
        if t.mu <= 0:
            v.append("tensor: mu must be positive")
        if _geom.DIM * t.lam + 2 * t.mu <= 0:
            v.append("tensor: n*lam + 2*mu must be positive")
        if t.N not in (TensorConfig.N, 2):        # the default or the N it takes
            v.append(f"tensor: N is 2 under the lame kind, not {t.N}")
    if t.kind in ("laplace", "custom"):
        if t.N < 1:
            v.append("tensor: N must be >= 1")
        v += _unread(t, ("lam", "mu"), "tensor", f"the {t.kind} kind")
    if t.kind == "custom":
        size = t.N ** 2 * _geom.DIM ** 2
        if t.custom_A is None:
            v.append("tensor: custom requires custom_A")
        else:
            v += _numbers(t.custom_A, "custom_A", "tensor") or (
                [] if len(t.custom_A) == size else
                [f"tensor: custom_A must hold N^2 * 4 = {size} numbers, "
                 f"got {len(t.custom_A)}"])
    elif t.custom_A is not None:
        v.append("tensor: custom_A is read only by the custom kind")
    if t.perturb_scale:
        v += _perturb_poly_violations(t.perturb_poly)
    else:
        v += _unread(t, ("perturb_poly",), "tensor", "an unperturbed tensor (perturb_scale 0)")
    v += _coefficient_violations(tr) or _beyond_n(tr, cfg.N)
    if s.closure not in CLOSURES:
        v.append(f"solver: unknown closure {s.closure!r}")
    if s.closure == "constant" and s.lateral_value is None:
        v.append("solver: constant closure requires lateral_value")
    if s.lateral_value is not None:
        v += _numbers(s.lateral_value, "lateral_value", "solver") or (
            [] if len(s.lateral_value) == cfg.N else
            [f"solver: lateral_value must have N = {cfg.N} entries, "
             f"got {len(s.lateral_value)}"])
    if s.tangential_nodes < 3 or s.vertical_nodes < 3:
        v.append("solver: need at least 3 nodes per axis")
    if not math.isfinite(s.grid_scale):
        v.append("solver: grid_scale must be finite")
    elif s.grid_scale <= 0:
        v.append("solver: grid_scale must be positive")
    elif min(s.scaled_nodes()) < 3 <= min(s.tangential_nodes, s.vertical_nodes):
        v.append(f"solver: grid_scale {s.grid_scale!r} leaves {s.scaled_nodes()} "
                 "nodes; need at least 3 per axis")
    lists = True
    for key, known, what in (("checks", CHECK_NAMES, "check"),
                             ("remark13_cases", ("i", "ii", "iii"), "remark13 case")):
        items = getattr(e, key)
        if not isinstance(items, tuple):
            v.append(f"experiment: {key} must be a list")
            lists = False
            continue
        if not items:           # a run that judges nothing would pass with no reason
            v.append(f"experiment: {key} must name at least one {what}")
        v += [f"experiment: unknown {what} {c!r}" for c in items if c not in known]
        v += [f"experiment: {what} {c!r} is named more than once"     # judged twice
              for i, c in enumerate(items) if c not in items[:i] and c in items[i + 1:]]
    if e.monomial_k < 0:
        v.append("experiment: monomial_k must be >= 0")
    wants_iii = lists and "remark13" in e.checks and "iii" in e.remark13_cases
    if wants_iii and g.m <= e.monomial_k:
        v.append("experiment: remark 1.3(iii) requires m > k "
                 f"(got m = {g.m}, k = {e.monomial_k})")
    if e.eps_list is not None:
        eps = e.eps_list
        not_numbers = _numbers(eps, "eps_list", "experiment")
        if not_numbers:
            v += not_numbers
        elif len(eps) < 1 or any(x <= 0 for x in eps):
            v.append("experiment: eps_list entries must be positive")
        elif any(a <= b for a, b in zip(eps, eps[1:])):
            v.append("experiment: eps_list must be strictly decreasing")
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
