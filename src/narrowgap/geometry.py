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

The region is planar: x' = x1, and every layer below (grids, the box
Jacobian, the ansatz, the traces) is written for the axes (x1, t).
A tangential point is its x1 value: ``x1`` arrays have shape (...), full
points ``x`` have shape (..., 2); all evaluators broadcast.  A function of
x1 gives its derivatives as one jet [f, d_1 f, d_11 f, d_111 f] cut at
``order``, each entry of shape (...), as ``ansatz.PolyTrace.jet`` does for
the traces: each profile has ``jet`` and the region has ``delta_jet``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


DIM = 2    # the spatial dimension n: the region lies in the (x1, x2) plane


class GeometryError(ValueError):
    """Point outside the validated patch, or an inconsistent geometry."""


class EvaluationError(RuntimeError):
    """A profile produced a non-finite value."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerProfile:
    """Radial profile  h(x1) = coef * |x1|^power  with power >= 2.

    Exact derivatives up to third order.  At the origin the derivative
    formulas below have removable singularities; they are defined by their
    limits (zero for power >= 3, constant h'' for power == 2).
    """

    coef: float
    power: int

    def __post_init__(self):
        if self.power < 2:
            raise GeometryError("profile power must be >= 2")

    def jet(self, x1, order=2):
        """[h, d_1 h, d_11 h, d_111 h] at x1 up to ``order``, each of x1's shape."""
        x = np.asarray(x1, dtype=float)
        c, m = self.coef, self.power
        r2 = x * x
        out = [c * r2 ** (m / 2.0)]
        if order >= 1:
            # m r^{m-2} x,  with r^{m-2} := 0 at the origin for m > 2 and 1 for m == 2
            out.append(c * m * _safe_pow(r2, (m - 2) / 2.0) * x)
        if order >= 2:
            f1 = c * m * (m - 2) * _safe_pow(r2, (m - 4) / 2.0)
            out.append(f1 * x * x + c * m * _safe_pow(r2, (m - 2) / 2.0))
        if order >= 3:
            f1 = c * m * (m - 2) * (m - 4) * _safe_pow(r2, (m - 6) / 2.0)
            f2 = c * m * (m - 2) * _safe_pow(r2, (m - 4) / 2.0)
            out.append(f1 * (x * x * x) + f2 * (x + x + x))
        return out

    def bound(self, r):
        """The largest |h| on |x1| <= r."""
        return abs(self.coef) * r ** self.power


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
    """Polynomial profile h(x1) = sum_k coeffs[k] * x1^k."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))

    def jet(self, x1, order=2):
        """[h, d_1 h, d_11 h, d_111 h] at x1 up to ``order``, each of x1's shape."""
        x = np.asarray(x1, dtype=float)
        p = np.polynomial.Polynomial(self.coeffs)
        return [p(x)] + [p.deriv(k)(x) for k in range(1, order + 1)]

    def bound(self, r):
        """sum_k |coeffs[k]| r^k, a bound of |h| on |x1| <= r."""
        return sum(abs(c) * r ** k for k, c in enumerate(self.coeffs))


# ---------------------------------------------------------------------------
# profile pair and hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfilePair:
    """Upper/lower profiles with the convexity-order constants they claim.

    The constants assert, on the patch B'_{2R0},
      (A1)  kappa1 |x'|^m <= h1 - h2 <= kappa2 |x'|^m
      (A2)  |d_1^j h_i|   <= kappa3 |x'|^{m-j},  j = 1, 2
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


def power_pair(m, upper_coef=1.0, lower_coef=0.0, R0=0.5, kappas=None):
    """Standard pair h1 = a|x'|^m, h2 = -b|x'|^m with exact hypothesis constants.

    For a large m every term of the (A3) constant can underflow; it is then
    floored at the smallest normal float, still an upper bound on the C2
    norms, whose samples underflow as well.
    """
    a, b = float(upper_coef), float(lower_coef)
    if a + b <= 0:
        raise GeometryError("upper_coef + lower_coef must be positive for a genuine gap")
    if kappas is None:
        cmax = max(abs(a), abs(b), 1e-300)
        k3 = cmax * m * max(1, m - 1)
        r = 2.0 * R0
        c2 = (abs(a) + abs(b)) * (r ** m + m * r ** (m - 1) + m * max(1, m - 1) * r ** (m - 2))
        c2 = max(c2, np.finfo(float).tiny)
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
    reason: str = ""      # why the check failed without a worst value


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
            if c.reason:
                lines.append(f"  [{status}] {c.name}: {c.reason}")
                continue
            lines.append(f"  [{status}] {c.name}: worst {c.worst:.6g} vs bound {c.bound:.6g} at {c.at}")
        return "\n".join(lines)


_ORIGIN_GUARD = 1e-8       # (A1)/(A2) ratios are checked outside this ball
_LIMIT_RADIUS = 1e-6       # Taylor-ratio probes near the origin
_REL_SLACK = 1e-9          # absorbs round-off in equality cases
_SAMPLES = 201             # uniform samples over the patch [-2 R0, 2 R0]
_PATCH_TOL = 1e-12         # relative slack of the patch test |x'| <= 2 R0


def _pt(x1):
    return (round(float(x1), 12),)


def _sample_patch(radius):
    """(P,) x1 values: the uniform samples of [-radius, radius], then the origin probes."""
    x = np.linspace(-radius, radius, _SAMPLES)
    return np.concatenate([x, [_LIMIT_RADIUS, -_LIMIT_RADIUS]])


def _no_normal_sample(name, power, bound):
    """The failed check when |x'|^power underflows on every sample kept."""
    return HypothesisCheck(name, False, 0.0, bound, (),
                           f"no sample has |x'|^{power} above the smallest normal float")


def _ratio_check(name, mag, r, pts, power, bound, lower=False):
    """mag / r**power at its greatest (its least when ``lower``) against ``bound``.

    Points inside the origin guard are skipped, and so are points where
    r**power is below the smallest normal float: there the ratio is 0/0,
    or has lost the digits that the relative slack assumes.
    """
    rp = r ** power
    keep = (r > _ORIGIN_GUARD) & (rp >= np.finfo(float).tiny)
    if not keep.any():
        return _no_normal_sample(name, power, bound)
    ratio = mag[keep] / rp[keep]
    i = int(np.argmin(ratio) if lower else np.argmax(ratio))
    worst = float(ratio[i])
    passed = worst >= bound * (1 - _REL_SLACK) if lower else worst <= bound * (1 + _REL_SLACK)
    return HypothesisCheck(name, passed, worst, bound, _pt(pts[keep][i]))


def validate_profiles(pair: ProfilePair) -> ProfileReport:
    """Check (A1)-(A3) on a uniform sample grid over B'_{2R0}.

    Ratio checks exclude a tiny ball around the origin, where the pointwise
    inequalities are trivially 0 <= 0; the origin limit is probed at radius
    1e-6 instead.  They also skip samples where the power of |x'| they
    divide by underflows (``_ratio_check``), and fail with that reason when
    none is left.  The (A3) norms count only the samples where |x'|^(m-2),
    the order-2 divisor of (A2), is normal: where it underflows, so do the
    norms of a power profile, and a sum of such zeros proves nothing.
    Raises EvaluationError on non-finite profile values.
    """
    pts = _sample_patch(2.0 * pair.R0)
    r = np.abs(pts)

    jets = {}
    for name, prof in (("h1", pair.h1), ("h2", pair.h2)):
        jets[name] = prof.jet(pts, 2)
        for arr, what in zip(jets[name], ("value", "gradient", "Hessian")):
            if not np.all(np.isfinite(arr)):
                bad = pts[~np.isfinite(arr)][0]
                raise EvaluationError(f"non-finite {name} {what} at x' = {_pt(bad)}")

    gap = jets["h1"][0] - jets["h2"][0]
    checks = [_ratio_check("(A1) lower", gap, r, pts, pair.m, pair.kappa1, lower=True),
              _ratio_check("(A1) upper", gap, r, pts, pair.m, pair.kappa2)]
    for name in ("h1", "h2"):
        for j in (1, 2):
            checks.append(_ratio_check(f"(A2) {name} order {j}", np.abs(jets[name][j]), r,
                                       pts, pair.m - j, pair.kappa3))

    keep = r ** (pair.m - 2) >= np.finfo(float).tiny
    if not keep.any():
        checks.append(_no_normal_sample("(A3) C2 norms", pair.m - 2, pair.kappa4))
        return ProfileReport(tuple(checks))
    c2 = 0.0
    at = (0.0,)
    for name in ("h1", "h2"):
        v, g, h = (arr[keep] for arr in jets[name])
        total = np.abs(v) + np.abs(g) + np.abs(h)
        i = int(np.argmax(total))
        if total[i] > c2:
            at = _pt(pts[keep][i])
        c2 += float(total[i])
    checks.append(HypothesisCheck("(A3) C2 norms", c2 <= pair.kappa4 * (1 + _REL_SLACK),
                                  c2, pair.kappa4, at))
    return ProfileReport(tuple(checks))


# ---------------------------------------------------------------------------
# the region and its box map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NarrowRegion:
    """The set  { h2(x1) < x2 < eps + h1(x1),  |x1| < 2 R0 }.

    Immutable; all evaluators are pure.
    """

    profiles: ProfilePair
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise GeometryError("epsilon must be positive (touching boundaries unsupported)")

    @property
    def R0(self):
        return self.profiles.R0

    # -- gap function ------------------------------------------------------

    def _check_patch(self, x1):
        r2 = x1 * x1
        lim = (2.0 * self.R0) ** 2 * (1 + _PATCH_TOL)
        if np.any(r2 > lim):
            bad = x1.flat[np.argmax(r2)]
            raise GeometryError(f"tangential point {(float(bad),)} outside the patch "
                                f"|x'| <= {2 * self.R0}")

    def delta_jet(self, x1, order=2):
        """[delta, d_1 delta, d_11 delta, d_111 delta] at x1 up to ``order``, each (...)."""
        x1 = np.asarray(x1, dtype=float)
        self._check_patch(x1)
        out = [f1 - f2 for f1, f2 in zip(self.profiles.h1.jet(x1, order),
                                          self.profiles.h2.jet(x1, order))]
        out[0] = self.epsilon + out[0]
        return out

    def delta(self, x1):
        return self.delta_jet(x1, 0)[0]

    # -- normalized vertical coordinate ------------------------------------

    def _box(self, x1, t):
        """(x1, t) checked: x1 on the patch, t in [0, 1]; they broadcast."""
        x1 = np.asarray(x1, dtype=float)
        self._check_patch(x1)
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
            bad = t.flat[np.argmax(np.abs(t - 0.5))]
            raise GeometryError(f"box coordinate t = {float(bad):.3g} outside [0, 1]")
        return x1, t

    def vbar_grad(self, x1, t):
        """Gradient of v at (x1, t), shape (..., 2): (-(h2' + t delta'), 1) / delta."""
        x1, t = self._box(x1, t)
        dlt, d1 = self.delta_jet(x1, 1)
        out = np.empty(np.broadcast_shapes(dlt.shape, t.shape) + (2,))
        out[..., 0] = -(self.profiles.h2.jet(x1, 1)[1] + t * d1) / dlt
        out[..., 1] = 1.0 / dlt
        return out

    # -- box map ------------------------------------------------------------

    def from_box(self, x1, t):
        """Inverse map x2 = h2(x1) + t * delta(x1); requires t in [0, 1]."""
        x1, t = self._box(x1, t)
        x2 = self.profiles.h2.jet(x1, 0)[0] + t * self.delta(x1)
        return np.stack(np.broadcast_arrays(x1, x2), axis=-1)
