"""Narrow-region geometry: gap profiles, the gap function and the box map.

The region of interest sits between two graphs over a tangential ball,

    bottom:  x_n = h2(x'),        top:  x_n = eps + h1(x'),      |x'| < 2*R0,

with gap function

    delta(x') = eps + h1(x') - h2(x') > 0.

The normalized vertical coordinate

    v(x) = (x_n - h2(x')) / delta(x')

equals 0 on the bottom boundary, 1 on the top one, and maps the curved region
onto the box B'_{2R0} x [0, 1].  Everything downstream (ansatz evaluation,
finite differences on the mapped box) relies on exact derivatives of the
profiles, so profiles are supplied analytically, never tabulated.

Conventions: tangential points ``xp`` have shape (..., d) with d = n - 1,
full points ``x`` have shape (..., n); all evaluators broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Point outside the validated patch, or an inconsistent geometry."""


class EvaluationError(RuntimeError):
    """A profile produced a non-finite value."""


def require_planar(n: int):
    """Refuse n != 2 before a grid or an ansatz is built.

    For n > 2 the corners of the box [-2R0, 2R0]^(n-1) leave the round patch
    |x'| <= 2R0 on which the gap is defined, and sample grids grow with the
    (n-1)-th power of the tangential node count.  The ansatz is written for
    the axes (x1, t) alone.
    """
    if n != 2:
        raise GeometryError(f"grids need n = 2, got n = {n}")


def _as_points(xp, d):
    xp = np.asarray(xp, dtype=float)
    if xp.ndim == 0:
        if d != 1:
            raise GeometryError(f"scalar point given for a {d}-dimensional tangential space")
        xp = xp.reshape(1)
    if xp.shape[-1] != d:
        raise GeometryError(f"expected points with last axis {d}, got shape {xp.shape}")
    return xp


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerProfile:
    """Radial profile  h(x') = coef * |x'|^power  with power >= 2.

    Exact derivatives up to third order.  At the origin the derivative
    formulas below have removable singularities; they are defined by their
    limits (zero for power >= 3, constant Hessian for power == 2).
    """

    coef: float
    power: int

    def __post_init__(self):
        if self.power < 2:
            raise GeometryError("profile power must be >= 2")

    def value(self, xp):
        xp = np.asarray(xp, dtype=float)
        r2 = np.sum(xp * xp, axis=-1)
        return self.coef * r2 ** (self.power / 2.0)

    def grad(self, xp):
        xp = np.asarray(xp, dtype=float)
        m = self.power
        r2 = np.sum(xp * xp, axis=-1)
        # m r^{m-2} x,  with r^{m-2} := 0 at the origin for m > 2 and 1 for m == 2
        fac = self.coef * m * _safe_pow(r2, (m - 2) / 2.0)
        return fac[..., None] * xp

    def hess(self, xp):
        xp = np.asarray(xp, dtype=float)
        m = self.power
        d = xp.shape[-1]
        r2 = np.sum(xp * xp, axis=-1)
        eye = np.eye(d)
        f1 = self.coef * m * (m - 2) * _safe_pow(r2, (m - 4) / 2.0)
        f2 = self.coef * m * _safe_pow(r2, (m - 2) / 2.0)
        return (f1[..., None, None] * xp[..., :, None] * xp[..., None, :]
                + f2[..., None, None] * eye)

    def third(self, xp):
        xp = np.asarray(xp, dtype=float)
        m = self.power
        d = xp.shape[-1]
        r2 = np.sum(xp * xp, axis=-1)
        eye = np.eye(d)
        f1 = self.coef * m * (m - 2) * (m - 4) * _safe_pow(r2, (m - 6) / 2.0)
        f2 = self.coef * m * (m - 2) * _safe_pow(r2, (m - 4) / 2.0)
        xxx = xp[..., :, None, None] * xp[..., None, :, None] * xp[..., None, None, :]
        sym = (eye[:, :, None] * xp[..., None, None, :]
               + eye[:, None, :] * xp[..., None, :, None]
               + eye[None, :, :] * xp[..., :, None, None])
        return f1[..., None, None, None] * xxx + f2[..., None, None, None] * sym


def _safe_pow(r2, exponent):
    """r^{2*exponent} with the r -> 0 limit (0 for negative powers of r at 0)."""
    if exponent == 0:
        return np.ones_like(r2)
    if exponent > 0:
        return r2 ** exponent
    out = np.zeros_like(r2)
    mask = r2 > 0
    out[mask] = r2[mask] ** exponent
    return out


@dataclass(frozen=True)
class PolyProfile:
    """Polynomial profile h(x1) = sum_k coeffs[k] * x1^k for a 1-d tangential space."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))

    def _poly(self, xp, deriv):
        xp = np.asarray(xp, dtype=float)
        if xp.shape[-1] != 1:
            raise GeometryError("PolyProfile is defined for a 1-d tangential space")
        p = np.polynomial.Polynomial(self.coeffs)
        return p.deriv(deriv)(xp[..., 0]) if deriv else p(xp[..., 0])

    def value(self, xp):
        return self._poly(xp, 0)

    def grad(self, xp):
        return self._poly(xp, 1)[..., None]

    def hess(self, xp):
        return self._poly(xp, 2)[..., None, None]

    def third(self, xp):
        return self._poly(xp, 3)[..., None, None, None]


FLAT = PowerProfile(0.0, 2)


# ---------------------------------------------------------------------------
# profile pair and hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfilePair:
    """Upper/lower profiles with the convexity-order constants they claim.

    The constants assert, on the patch B'_{2R0},
      (A1)  kappa1 |x'|^m <= h1 - h2 <= kappa2 |x'|^m
      (A2)  |grad^j h_i|  <= kappa3 |x'|^{m-j},  j = 1, 2
      (A3)  C2 norms of h1, h2 summed <= kappa4
    Construction does not enforce them; ``validate_profiles`` reports.
    """

    h1: object
    h2: object
    m: int
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    R0: float

    def __post_init__(self):
        if self.m < 2:
            raise GeometryError("convexity order m must be >= 2")
        for name in ("kappa1", "kappa2", "kappa3", "kappa4", "R0"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")

    def gap(self, xp):
        return self.h1.value(xp) - self.h2.value(xp)


def power_pair(m, upper_coef=1.0, lower_coef=0.0, R0=0.5, kappas=None):
    """Standard pair h1 = a|x'|^m, h2 = -b|x'|^m with exact hypothesis constants."""
    a, b = float(upper_coef), float(lower_coef)
    if a + b <= 0:
        raise GeometryError("upper_coef + lower_coef must be positive for a genuine gap")
    if kappas is None:
        cmax = max(abs(a), abs(b), 1e-300)
        k3 = cmax * m * max(1, m - 1)
        r = 2.0 * R0
        c2 = (abs(a) + abs(b)) * (r ** m + m * r ** (m - 1) + m * max(1, m - 1) * r ** (m - 2))
        kappas = (a + b, a + b, k3, c2)
    k1, k2, k3, k4 = kappas
    return ProfilePair(PowerProfile(a, m), PowerProfile(-b, m), m, k1, k2, k3, k4, R0)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst: float          # tightest ratio (or norm) observed
    bound: float          # the constant it is checked against
    at: tuple             # sample point realizing the worst value


@dataclass(frozen=True)
class ProfileReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: worst {c.worst:.6g} vs bound {c.bound:.6g} at {c.at}")
        return "\n".join(lines)


_ORIGIN_GUARD = 1e-8       # (A1)/(A2) ratios are checked outside this ball
_LIMIT_RADIUS = 1e-6       # Taylor-ratio probes near the origin
_REL_SLACK = 1e-9          # absorbs round-off in equality cases


def _pt(p):
    return tuple(round(float(v), 12) for v in np.atleast_1d(p))


def _sample_patch(d, radius, samples):
    axes = [np.linspace(-radius, radius, samples)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[np.sum(grid * grid, axis=-1) <= radius * radius * (1 + 1e-12)]
    probes = np.concatenate([np.eye(d) * _LIMIT_RADIUS, -np.eye(d) * _LIMIT_RADIUS])
    return np.concatenate([grid, probes])


def _spectral(h):
    """Spectral norm of stacked symmetric matrices (..., d, d)."""
    if h.shape[-1] == 1:
        return np.abs(h[..., 0, 0])
    return np.abs(np.linalg.eigvalsh(h)).max(axis=-1)


def validate_profiles(pair: ProfilePair, samples: int = 201, dim: int = 1) -> ProfileReport:
    """Check (A1)-(A3) on a uniform sample grid over B'_{2R0}.

    Ratio checks exclude a tiny ball around the origin, where the pointwise
    inequalities are trivially 0 <= 0; the origin limit is probed at radius
    1e-6 instead.  Raises EvaluationError on non-finite profile values.
    """
    if samples < 2:
        raise GeometryError("need at least 2 samples per axis")
    d = dim
    pts = _sample_patch(d, 2.0 * pair.R0, samples)
    r = np.sqrt(np.sum(pts * pts, axis=-1))

    vals = {}
    for name, prof in (("h1", pair.h1), ("h2", pair.h2)):
        v, g, h = prof.value(pts), prof.grad(pts), prof.hess(pts)
        for arr, what in ((v, "value"), (g, "gradient"), (h, "Hessian")):
            if not np.all(np.isfinite(arr)):
                bad = pts[~np.isfinite(arr.reshape(len(pts), -1)).all(axis=1)][0]
                raise EvaluationError(f"non-finite {name} {what} at x' = {tuple(bad)}")
        vals[name] = (v, g, h)

    away = r > _ORIGIN_GUARD
    ra, pa = r[away], pts[away]
    gap = vals["h1"][0][away] - vals["h2"][0][away]
    rm = ra ** pair.m
    ratio = gap / rm

    checks = []
    i_lo, i_hi = int(np.argmin(ratio)), int(np.argmax(ratio))
    checks.append(HypothesisCheck("(A1) lower", ratio[i_lo] >= pair.kappa1 * (1 - _REL_SLACK),
                                  float(ratio[i_lo]), pair.kappa1, _pt(pa[i_lo])))
    checks.append(HypothesisCheck("(A1) upper", ratio[i_hi] <= pair.kappa2 * (1 + _REL_SLACK),
                                  float(ratio[i_hi]), pair.kappa2, _pt(pa[i_hi])))

    for name in ("h1", "h2"):
        _, g, h = vals[name]
        for j, mag in ((1, np.linalg.norm(g[away], axis=-1)), (2, _spectral(h[away]))):
            rj = mag / ra ** (pair.m - j)
            i = int(np.argmax(rj))
            checks.append(HypothesisCheck(f"(A2) {name} order {j}",
                                          rj[i] <= pair.kappa3 * (1 + _REL_SLACK),
                                          float(rj[i]), pair.kappa3, _pt(pa[i])))

    c2 = 0.0
    at = (0.0,) * d
    for name in ("h1", "h2"):
        v, g, h = vals[name]
        total = np.abs(v) + np.linalg.norm(g, axis=-1) + _spectral(h)
        i = int(np.argmax(total))
        if total[i] > c2:
            at = _pt(pts[i])
        c2 += float(total[i])
    checks.append(HypothesisCheck("(A3) C2 norms", c2 <= pair.kappa4 * (1 + _REL_SLACK),
                                  c2, pair.kappa4, at))
    return ProfileReport(tuple(checks))


# ---------------------------------------------------------------------------
# the region and its box map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NarrowRegion:
    """The set  { h2(x') < x_n < eps + h1(x'),  |x'| < 2 R0 }.

    Immutable; all evaluators are pure.
    """

    profiles: ProfilePair
    epsilon: float
    n: int = 2
    _patch_tol: float = field(default=1e-12, repr=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise GeometryError("epsilon must be positive (touching boundaries unsupported)")
        if self.n < 2:
            raise GeometryError("spatial dimension must be >= 2")

    @property
    def d(self):
        return self.n - 1

    @property
    def R0(self):
        return self.profiles.R0

    # -- gap function ------------------------------------------------------

    def _check_patch(self, xp):
        r2 = np.sum(xp * xp, axis=-1)
        lim = (2.0 * self.R0) ** 2 * (1 + self._patch_tol)
        if np.any(r2 > lim):
            bad = np.asarray(xp).reshape(-1, self.d)[np.argmax(r2.reshape(-1))]
            raise GeometryError(f"tangential point {tuple(map(float, bad))} outside the patch "
                                f"|x'| <= {2 * self.R0}")

    def delta(self, xp):
        xp = _as_points(xp, self.d)
        self._check_patch(xp)
        return self.epsilon + self.profiles.gap(xp)

    def delta_grad(self, xp):
        xp = _as_points(xp, self.d)
        return self.profiles.h1.grad(xp) - self.profiles.h2.grad(xp)

    def delta_hess(self, xp):
        xp = _as_points(xp, self.d)
        return self.profiles.h1.hess(xp) - self.profiles.h2.hess(xp)

    def delta_third(self, xp):
        xp = _as_points(xp, self.d)
        return self.profiles.h1.third(xp) - self.profiles.h2.third(xp)

    def bottom(self, xp):
        xp = _as_points(xp, self.d)
        return self.profiles.h2.value(xp)

    def top(self, xp):
        xp = _as_points(xp, self.d)
        return self.epsilon + self.profiles.h1.value(xp)

    def contains(self, x, closed=True):
        x = _as_points(x, self.n)
        xp, xn = x[..., :-1], x[..., -1]
        r2 = np.sum(xp * xp, axis=-1)
        inside = r2 <= (2 * self.R0) ** 2 * (1 + self._patch_tol)
        lo, hi = self.bottom(xp), self.top(xp)
        slack = self._patch_tol * (self.epsilon + np.abs(hi) + np.abs(lo))
        if closed:
            return inside & (xn >= lo - slack) & (xn <= hi + slack)
        return inside & (xn > lo) & (xn < hi)

    # -- normalized vertical coordinate ------------------------------------

    def _box(self, xp, t):
        """(x', t) checked: x' (..., d) on the patch, t (...) in [0, 1]; they broadcast."""
        xp = _as_points(xp, self.d)
        self._check_patch(xp)
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
            bad = t.flat[np.argmax(np.abs(t - 0.5))]
            raise GeometryError(f"box coordinate t = {float(bad):.3g} outside [0, 1]")
        return xp, t

    def vbar(self, x):
        x = _as_points(x, self.n)
        xp, xn = x[..., :-1], x[..., -1]
        t = (xn - self.bottom(xp)) / self.delta(xp)
        if np.any(t < -1e-10) or np.any(t > 1 + 1e-10):
            bad = x.reshape(-1, self.n)[np.argmax(np.abs(t - 0.5).reshape(-1))]
            raise GeometryError(f"point {tuple(map(float, bad))} outside the closed region")
        return t

    def vbar_grad(self, xp, t):
        """Gradient of v at (x', t), shape (..., n): (-(d h2 + t d delta), 1) / delta."""
        xp, t = self._box(xp, t)
        dlt = self.delta(xp)
        out = np.empty(np.broadcast_shapes(xp.shape[:-1], t.shape) + (self.n,))
        out[..., :-1] = -(self.profiles.h2.grad(xp)
                          + t[..., None] * self.delta_grad(xp)) / dlt[..., None]
        out[..., -1] = 1.0 / dlt
        return out

    # -- box map ------------------------------------------------------------

    def to_box(self, x):
        """Map a physical point to (x', t) with t = v(x) in [0, 1]."""
        x = _as_points(x, self.n)
        return x[..., :-1].copy(), self.vbar(x)

    def from_box(self, xp, t):
        """Inverse map x_n = h2(x') + t * delta(x'); requires t in [0, 1]."""
        xp, t = self._box(xp, t)
        xn = self.bottom(xp) + t * self.delta(xp)
        xp_full = np.broadcast_to(xp, xn.shape + (self.d,))
        return np.concatenate([xp_full, xn[..., None]], axis=-1)
