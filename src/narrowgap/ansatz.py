"""Corrected leading term for the narrow-region system and its residual.

With v the normalized vertical coordinate and delta the gap function, the
leading term is

    ubar(x) = phi(x') * v + psi(x') * (1 - v) + r(v) * sum_l G_l(x'),

where phi, psi are the top/bottom Dirichlet traces written as functions of
x', the smoother

    r(t) = (t - 1/2)^2 / 2 - 1/8,        r(0) = r(1) = 0,

keeps the boundary data untouched, and for each l the correction vector
G_l in R^N solves

    A^{nn}_{ij} g^j_l = (sum_{a<n} (A^{an}_{il} + A^{na}_{il}) d_a delta)
                        * (phi^l - psi^l)(x').

The vertical block A^{nn} is positive definite by hypothesis, so G_l is
unique.  The correction is exactly what cancels the delta^{-2} part of the
residual of ubar under the full operator; without it the remainder of the
gradient approximation picks up an extra negative power of the gap.

For the isotropic elasticity tensor the solve collapses to closed forms

    G_l = (lam+mu)/(lam+2mu) * (phi^l - psi^l) d_l delta * e_n     (l < n)
    G_n = (lam+mu)/mu * (phi^n - psi^n) * sum_{l<n} d_l delta e_l,

available as ``mode="lame_closed_form"``.

All derivatives here are analytic: the correction's first and second
derivatives come from differentiating the linear system (reusing the same
matrix), never from finite differences, so convergence-rate measurements
are not polluted by evaluation noise.  When the tensor varies with x_n the
system is evaluated at the mid-gap height x_n = h2 + delta/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (CoefficientTensor, ConstructionError,
                           HypothesisViolationError, LameParameters,
                           estimate_c2_norms)
from .geometry import NarrowRegion, _as_points


# ---------------------------------------------------------------------------
# smoother
# ---------------------------------------------------------------------------

def smoother(t):
    """r(t) = (t - 1/2)^2 / 2 - 1/8; vanishes at t = 0 and t = 1."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (t - 0.5) ** 2 - 0.125


def smoother_prime(t):
    t = np.asarray(t, dtype=float)
    return t - 0.5


SMOOTHER_SECOND = 1.0


# ---------------------------------------------------------------------------
# boundary traces as functions of x'
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantTrace:
    vec: tuple

    def __init__(self, vec):
        object.__setattr__(self, "vec", tuple(float(v) for v in np.atleast_1d(vec)))

    @property
    def N(self):
        return len(self.vec)

    def value(self, xp):
        xp = np.asarray(xp, dtype=float)
        return np.broadcast_to(np.array(self.vec), xp.shape[:-1] + (self.N,)).copy()

    def grad(self, xp):
        xp = np.asarray(xp, dtype=float)
        return np.zeros(xp.shape[:-1] + (self.N, xp.shape[-1]))

    def hess(self, xp):
        xp = np.asarray(xp, dtype=float)
        d = xp.shape[-1]
        return np.zeros(xp.shape[:-1] + (self.N, d, d))


def zero_trace(N):
    return ConstantTrace([0.0] * N)


@dataclass(frozen=True)
class MonomialTrace:
    """scale * x_1^degree in one component, zero elsewhere."""

    N: int
    component: int = 0
    degree: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.component < self.N:
            raise ConstructionError("monomial trace component out of range")
        if self.degree < 0:
            raise ConstructionError("monomial degree must be >= 0")

    def _x1pow(self, xp, drop):
        k = self.degree
        x1 = np.asarray(xp, dtype=float)[..., 0]
        if k - drop < 0:
            return np.zeros_like(x1)
        c = self.scale * np.prod([k - i for i in range(drop)]) if drop else self.scale
        return c * x1 ** (k - drop)

    def value(self, xp):
        xp = np.asarray(xp, dtype=float)
        out = np.zeros(xp.shape[:-1] + (self.N,))
        out[..., self.component] = self._x1pow(xp, 0)
        return out

    def grad(self, xp):
        xp = np.asarray(xp, dtype=float)
        out = np.zeros(xp.shape[:-1] + (self.N, xp.shape[-1]))
        out[..., self.component, 0] = self._x1pow(xp, 1)
        return out

    def hess(self, xp):
        xp = np.asarray(xp, dtype=float)
        d = xp.shape[-1]
        out = np.zeros(xp.shape[:-1] + (self.N, d, d))
        out[..., self.component, 0, 0] = self._x1pow(xp, 2)
        return out


@dataclass(frozen=True)
class PolyTrace:
    """Per-component polynomials in x_1: coeffs[c][k] multiplies x_1^k."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs",
                           tuple(tuple(float(c) for c in row) for row in coeffs))

    @property
    def N(self):
        return len(self.coeffs)

    def _eval(self, xp, deriv):
        x1 = np.asarray(xp, dtype=float)[..., 0]
        cols = []
        for row in self.coeffs:
            p = np.polynomial.Polynomial(row)
            cols.append(p.deriv(deriv)(x1) if deriv else p(x1))
        return np.stack(cols, axis=-1)

    def value(self, xp):
        return self._eval(xp, 0)

    def grad(self, xp):
        xp = np.asarray(xp, dtype=float)
        out = np.zeros(xp.shape[:-1] + (self.N, xp.shape[-1]))
        out[..., 0] = self._eval(xp, 1)
        return out

    def hess(self, xp):
        xp = np.asarray(xp, dtype=float)
        d = xp.shape[-1]
        out = np.zeros(xp.shape[:-1] + (self.N, d, d))
        out[..., 0, 0] = self._eval(xp, 2)
        return out


@dataclass(frozen=True)
class BoundaryTraces:
    """Top trace phi and bottom trace psi with exact tangential derivatives."""

    phi: object
    psi: object

    @property
    def N(self):
        return self.phi.N

    def __post_init__(self):
        if self.phi.N != self.psi.N:
            raise ConstructionError("phi and psi must have the same number of components")

    def diff_value(self, xp):
        return self.phi.value(xp) - self.psi.value(xp)

    def diff_grad(self, xp):
        return self.phi.grad(xp) - self.psi.grad(xp)

    def diff_hess(self, xp):
        return self.phi.hess(xp) - self.psi.hess(xp)

    def c2_total(self, radius, dim=1, samples=201):
        """‖phi‖_C2 + ‖psi‖_C2 sampled on the tangential patch of given radius."""
        lo, hi = [-radius] * dim, [radius] * dim
        return (estimate_c2_norms(self.phi, lo, hi, samples=samples)
                + estimate_c2_norms(self.psi, lo, hi, samples=samples))


# ---------------------------------------------------------------------------
# data gauges
# ---------------------------------------------------------------------------

def theta(traces: BoundaryTraces, xp):
    """|phi - psi| + |grad_{x'}(phi - psi)| at x'."""
    xp = np.asarray(xp, dtype=float)
    dv = traces.diff_value(xp)
    dg = traces.diff_grad(xp)
    return (np.linalg.norm(dv, axis=-1)
            + np.sqrt(np.sum(dg * dg, axis=(-2, -1))))


def theta_component(traces: BoundaryTraces, xp, l: int):
    """Single-component variant |phi^l - psi^l| + |grad(phi^l - psi^l)|."""
    xp = np.asarray(xp, dtype=float)
    dv = traces.diff_value(xp)[..., l]
    dg = traces.diff_grad(xp)[..., l, :]
    return np.abs(dv) + np.linalg.norm(dg, axis=-1)


def theta_bar_delta(traces: BoundaryTraces, region: NarrowRegion, xp):
    """Elasticity gauge |phi - psi| delta^{1 - 2/m} + |grad(phi - psi)|.

    For m = 2 the exponent vanishes and this coincides with ``theta``; for
    m > 2 it is pointwise smaller whenever delta <= 1.
    """
    xp = _as_points(xp, region.d)
    dv = traces.diff_value(xp)
    dg = traces.diff_grad(xp)
    expo = 1.0 - 2.0 / region.profiles.m
    return (np.linalg.norm(dv, axis=-1) * region.delta(xp) ** expo
            + np.sqrt(np.sum(dg * dg, axis=(-2, -1))))


# ---------------------------------------------------------------------------
# correction coefficients
# ---------------------------------------------------------------------------

def _midpoint_tensor_derivs(tensor, region, xp, order):
    """A and its first/second total tangential derivatives at the mid-gap line.

    The evaluation height is x_n = h2(x') + delta(x')/2; the chain rule folds
    the height's x'-dependence into the returned tangential derivatives.
    """
    d = region.d
    dlt = region.delta(xp)
    h2g = region.profiles.h2.grad(xp)
    h2h = region.profiles.h2.hess(xp)
    ddlt = region.delta_grad(xp)
    d2dlt = region.delta_hess(xp)
    x_mid = region.from_box(xp, np.full(xp.shape[:-1], 0.5))
    ms = h2g + 0.5 * ddlt                                    # d_a (mid height)
    m2s = h2h + 0.5 * d2dlt

    Av = tensor.A(x_mid)
    nn = region.n - 1
    out = [Av]
    if order >= 1:
        if tensor.is_constant:
            dA = np.zeros(Av.shape + (d,))
        else:
            Ag = tensor.A_grad(x_mid)
            dA = (Ag[..., :d]
                  + np.einsum("...ijab,...g->...ijabg", Ag[..., nn], ms))
        out.append(dA)
    if order >= 2:
        if tensor.is_constant:
            d2A = np.zeros(Av.shape + (d, d))
        else:
            Ag = tensor.A_grad(x_mid)
            Ah = tensor.A_hess(x_mid)
            d2A = (Ah[..., :d, :d]
                   + np.einsum("...ijabg,...h->...ijabgh", Ah[..., :d, nn], ms)
                   + np.einsum("...ijabh,...g->...ijabgh", Ah[..., nn, :d], ms)
                   + np.einsum("...ijab,...g,...h->...ijabgh", Ah[..., nn, nn], ms, ms)
                   + np.einsum("...ijab,...gh->...ijabgh", Ag[..., nn], m2s))
        out.append(d2A)
    return out, dlt, ddlt, d2dlt


def _mixed_row(A, d, nn):
    """mixed[..., i, l, c] = A^{cn}_{il} + A^{nc}_{il} for c < n."""
    return A[..., :d, nn] + A[..., nn, :d]


def correction_coeffs(tensor: CoefficientTensor, region: NarrowRegion,
                      traces: BoundaryTraces, xp):
    """All correction vectors at x': rows l of the returned (..., N, N) array.

    Solves the N x N vertical-block system per l; raises
    HypothesisViolationError if that block is numerically singular.
    """
    xp = _as_points(xp, region.d)
    nn = region.n - 1
    (Av,), dlt, ddlt, _ = _midpoint_tensor_derivs(tensor, region, xp, 0)
    M = Av[..., nn, nn]
    s = np.einsum("...ilc,...c->...il", _mixed_row(Av, region.d, nn), ddlt)
    diff = traces.diff_value(xp)
    rhs = s * diff[..., None, :]                              # columns l
    try:
        cols = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise HypothesisViolationError(
            f"A^nn numerically singular at x' = {_worst_point(M, xp, region.d)}"
        ) from exc
    return np.swapaxes(cols, -1, -2)


def _worst_point(M, xp, d):
    """Tangential point whose vertical block is closest to singular."""
    det = np.abs(np.linalg.det(np.asarray(M).reshape(-1, *M.shape[-2:])))
    k = int(np.argmin(det))
    return tuple(float(v) for v in np.asarray(xp).reshape(-1, d)[k])


def lame_correction(params: LameParameters, region: NarrowRegion,
                    traces: BoundaryTraces, xp):
    """Closed-form correction rows for the isotropic elasticity tensor."""
    params.validate(region.n)
    xp = _as_points(xp, region.d)
    d, n = region.d, region.n
    c1 = (params.lam + params.mu) / (params.lam + 2 * params.mu)
    c2 = (params.lam + params.mu) / params.mu
    diff = traces.diff_value(xp)
    if diff.shape[-1] != n:
        raise ConstructionError("elasticity requires N == n traces")
    ddlt = region.delta_grad(xp)
    G = np.zeros(xp.shape[:-1] + (n, n))
    for l in range(d):
        G[..., l, n - 1] = c1 * diff[..., l] * ddlt[..., l]
    G[..., n - 1, :d] = c2 * diff[..., n - 1, None] * ddlt
    return G


class _GenericCorrection:
    """Correction sum S = sum_l G_l with first/second tangential derivatives.

    Derivatives are obtained by differentiating  M S = R  twice:
        M dS  = dR  - dM S,
        M d2S = d2R - dM dS - (dM dS)^T_sym - d2M S.
    """

    def __init__(self, tensor, region, traces):
        self.tensor, self.region, self.traces = tensor, region, traces

    def __call__(self, xp):
        region, traces = self.region, self.traces
        d, nn = region.d, region.n - 1
        (Av, dA, d2A), dlt, ddlt, d2dlt = _midpoint_tensor_derivs(
            self.tensor, region, xp, 2)
        d3dlt = region.delta_third(xp)

        M = Av[..., nn, nn]
        dM = dA[..., nn, nn, :]
        d2M = d2A[..., nn, nn, :, :]

        mixed = _mixed_row(Av, d, nn)                              # (..., N, N, c)
        dmixed = dA[..., :d, nn, :] + dA[..., nn, :d, :]           # (..., N, N, c, a)
        d2mixed = d2A[..., :d, nn, :, :] + d2A[..., nn, :d, :, :]  # (..., N, N, c, a, b)

        s = np.einsum("...ilc,...c->...il", mixed, ddlt)
        ds = (np.einsum("...ilca,...c->...ila", dmixed, ddlt)
              + np.einsum("...ilc,...ca->...ila", mixed, d2dlt))
        d2s = (np.einsum("...ilcab,...c->...ilab", d2mixed, ddlt)
               + np.einsum("...ilca,...cb->...ilab", dmixed, d2dlt)
               + np.einsum("...ilcb,...ca->...ilab", dmixed, d2dlt)
               + np.einsum("...ilc,...cab->...ilab", mixed, d3dlt))

        diff = traces.diff_value(xp)
        ddiff = traces.diff_grad(xp)
        d2diff = traces.diff_hess(xp)

        R = np.einsum("...il,...l->...i", s, diff)
        dR = (np.einsum("...ila,...l->...ia", ds, diff)
              + np.einsum("...il,...la->...ia", s, ddiff))
        d2R = (np.einsum("...ilab,...l->...iab", d2s, diff)
               + np.einsum("...ila,...lb->...iab", ds, ddiff)
               + np.einsum("...ilb,...la->...iab", ds, ddiff)
               + np.einsum("...il,...lab->...iab", s, d2diff))

        try:
            S = np.linalg.solve(M, R[..., None])[..., 0]
            rhs1 = dR - np.einsum("...ija,...j->...ia", dM, S)
            dS = np.linalg.solve(M, rhs1)
            rhs2 = (d2R
                    - np.einsum("...ija,...jb->...iab", dM, dS)
                    - np.einsum("...ijb,...ja->...iab", dM, dS)
                    - np.einsum("...ijab,...j->...iab", d2M, S))
            d2S = np.linalg.solve(M, rhs2.reshape(rhs2.shape[:-2] + (d * d,))
                                  ).reshape(rhs2.shape)
        except np.linalg.LinAlgError as exc:
            raise HypothesisViolationError(
                f"A^nn numerically singular at x' = {_worst_point(M, xp, d)}"
            ) from exc
        return S, dS, d2S


class _LameCorrection:
    def __init__(self, params, region, traces):
        self.params, self.region, self.traces = params, region, traces

    def __call__(self, xp):
        region, traces = self.region, self.traces
        d, n = region.d, region.n
        c1 = (self.params.lam + self.params.mu) / (self.params.lam + 2 * self.params.mu)
        c2 = (self.params.lam + self.params.mu) / self.params.mu
        diff = traces.diff_value(xp)
        ddiff = traces.diff_grad(xp)
        d2diff = traces.diff_hess(xp)
        ddlt = region.delta_grad(xp)
        d2dlt = region.delta_hess(xp)
        d3dlt = region.delta_third(xp)

        S = np.zeros(xp.shape[:-1] + (n,))
        dS = np.zeros(xp.shape[:-1] + (n, d))
        d2S = np.zeros(xp.shape[:-1] + (n, d, d))

        fn = diff[..., n - 1]
        dfn = ddiff[..., n - 1, :]
        d2fn = d2diff[..., n - 1, :, :]
        S[..., :d] = c2 * fn[..., None] * ddlt
        dS[..., :d, :] = c2 * (dfn[..., None, :] * ddlt[..., :, None]
                               + fn[..., None, None] * d2dlt)
        d2S[..., :d, :, :] = c2 * (d2fn[..., None, :, :] * ddlt[..., :, None, None]
                                   + dfn[..., None, :, None] * d2dlt[..., :, None, :]
                                   + dfn[..., None, None, :] * d2dlt[..., :, :, None]
                                   + fn[..., None, None, None] * d3dlt)

        w = np.einsum("...c,...c->...", diff[..., :d], ddlt)
        dw = (np.einsum("...ca,...c->...a", ddiff[..., :d, :], ddlt)
              + np.einsum("...c,...ca->...a", diff[..., :d], d2dlt))
        d2w = (np.einsum("...cab,...c->...ab", d2diff[..., :d, :, :], ddlt)
               + np.einsum("...ca,...cb->...ab", ddiff[..., :d, :], d2dlt)
               + np.einsum("...cb,...ca->...ab", ddiff[..., :d, :], d2dlt)
               + np.einsum("...c,...cab->...ab", diff[..., :d], d3dlt))
        S[..., n - 1] = c1 * w
        dS[..., n - 1, :] = c1 * dw
        d2S[..., n - 1, :, :] = c1 * d2w
        return S, dS, d2S


class _ZeroCorrection:
    def __init__(self, N, d):
        self.N, self.d = N, d

    def __call__(self, xp):
        lead = np.asarray(xp).shape[:-1]
        return (np.zeros(lead + (self.N,)),
                np.zeros(lead + (self.N, self.d)),
                np.zeros(lead + (self.N, self.d, self.d)))


# ---------------------------------------------------------------------------
# the ansatz field
# ---------------------------------------------------------------------------

MODES = ("generic", "lame_closed_form")


@dataclass(frozen=True)
class AnsatzField:
    """Per-point evaluation of ubar, its gradient/Hessian and its residual.

    Immutable and pure: sweep workers may share one instance per epsilon.
    ``include_correction=False`` drops the r(v) * sum G_l term and yields the
    plain two-point interpolant (the quantity the correction improves on).
    """

    region: NarrowRegion
    tensor: CoefficientTensor
    traces: BoundaryTraces
    mode: str = "generic"
    include_correction: bool = True
    lame: LameParameters | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConstructionError(f"unknown ansatz mode {self.mode!r}")
        if self.mode == "lame_closed_form":
            if self.tensor.kind != "lame" or self.lame is None:
                raise ConstructionError(
                    "lame_closed_form mode requires a lame tensor and its parameters")
        if self.traces.N != self.tensor.N:
            raise ConstructionError("trace components must match tensor N")
        object.__setattr__(self, "_corr", self._make_correction())

    def _make_correction(self):
        if not self.include_correction:
            return _ZeroCorrection(self.tensor.N, self.region.d)
        if self.mode == "lame_closed_form":
            return _LameCorrection(self.lame, self.region, self.traces)
        return _GenericCorrection(self.tensor, self.region, self.traces)

    @property
    def N(self):
        return self.tensor.N

    def correction_sum(self, xp):
        """(S, dS, d2S): the summed correction and tangential derivatives."""
        xp = _as_points(xp, self.region.d)
        return self._corr(xp)

    def value(self, x):
        x = _as_points(x, self.region.n)
        xp = x[..., :-1]
        v = self.region.vbar(x)
        phi = self.traces.phi.value(xp)
        psi = self.traces.psi.value(xp)
        S, _, _ = self._corr(xp)
        return (phi * v[..., None] + psi * (1 - v)[..., None]
                + smoother(v)[..., None] * S)

    def gradient(self, x):
        """Full spatial gradient, shape (..., N, n)."""
        x = _as_points(x, self.region.n)
        xp = x[..., :-1]
        d, n = self.region.d, self.region.n
        v = self.region.vbar(x)
        dv = self.region.vbar_grad(x)                          # (..., n)
        phi, psi = self.traces.phi.value(xp), self.traces.psi.value(xp)
        dphi, dpsi = self.traces.phi.grad(xp), self.traces.psi.grad(xp)
        S, dS, _ = self._corr(xp)

        out = np.zeros(x.shape[:-1] + (self.N, n))
        out[..., :d] = dphi * v[..., None, None] + dpsi * (1 - v)[..., None, None]
        out[..., :d] += smoother(v)[..., None, None] * dS
        out += ((phi - psi + smoother_prime(v)[..., None] * S)[..., :, None]
                * dv[..., None, :])
        return out

    def hessian(self, x):
        """Full spatial Hessian, shape (..., N, n, n)."""
        x = _as_points(x, self.region.n)
        xp = x[..., :-1]
        d, n = self.region.d, self.region.n
        v = self.region.vbar(x)
        dv = self.region.vbar_grad(x)
        d2v = self.region.vbar_hess(x)
        phi, psi = self.traces.phi.value(xp), self.traces.psi.value(xp)
        dphi, dpsi = self.traces.phi.grad(xp), self.traces.psi.grad(xp)
        d2phi, d2psi = self.traces.phi.hess(xp), self.traces.psi.hess(xp)
        S, dS, d2S = self._corr(xp)

        r, rp = smoother(v), smoother_prime(v)
        out = np.zeros(x.shape[:-1] + (self.N, n, n))
        # tangential-tangential block from the x'-dependent factors
        out[..., :d, :d] = (d2phi * v[..., None, None, None]
                            + d2psi * (1 - v)[..., None, None, None]
                            + r[..., None, None, None] * d2S)
        # cross terms between x'-factors and v
        fac = dphi - dpsi + rp[..., None, None] * dS           # (..., N, d)
        out[..., :d, :] += fac[..., :, None] * dv[..., None, None, :]
        out[..., :, :d] += fac[..., None, :] * dv[..., None, :, None]
        # terms from differentiating v twice / the smoother twice
        coef = phi - psi + rp[..., None] * S                   # (..., N)
        out += coef[..., None, None] * d2v[..., None, :, :]
        out += (SMOOTHER_SECOND * S)[..., None, None] * (dv[..., None, :, None]
                                                         * dv[..., None, None, :])
        return out

    def component(self, l: int, x):
        """The l-th summand: (phi^l v + psi^l (1 - v)) e_l + r(v) G_l."""
        x = _as_points(x, self.region.n)
        xp = x[..., :-1]
        v = self.region.vbar(x)
        phi = self.traces.phi.value(xp)[..., l]
        psi = self.traces.psi.value(xp)[..., l]
        out = np.zeros(x.shape[:-1] + (self.N,))
        out[..., l] = phi * v + psi * (1 - v)
        if self.include_correction:
            if self.mode == "lame_closed_form":
                G = lame_correction(self.lame, self.region, self.traces, xp)
            else:
                G = correction_coeffs(self.tensor, self.region, self.traces, xp)
            out += smoother(v)[..., None] * G[..., l, :]
        return out

    def residual(self, x):
        """f = L[ubar] with the full operator applied analytically."""
        x = _as_points(x, self.region.n)
        return apply_operator(self.tensor, x, self.value(x),
                              self.gradient(x), self.hessian(x))


def build_ansatz(tensor: CoefficientTensor, region: NarrowRegion,
                 traces: BoundaryTraces, mode: str = "generic",
                 include_correction: bool = True,
                 lame: LameParameters | None = None) -> AnsatzField:
    if mode == "lame_closed_form" and lame is None and tensor.kind == "lame":
        raise ConstructionError("pass the LameParameters used to build the tensor")
    return AnsatzField(region, tensor, traces, mode, include_correction, lame)


# ---------------------------------------------------------------------------
# the operator, applied to any analytically differentiable field
# ---------------------------------------------------------------------------

def apply_operator(tensor: CoefficientTensor, x, value, grad, hess):
    """d_a(A d_b u + B u) + C d_b u + D u expanded by the product rule.

    ``value, grad, hess`` are the field and its derivatives at x, shapes
    (..., N), (..., N, n), (..., N, n, n).
    """
    x = np.asarray(x, dtype=float)
    A = tensor.A(x)
    f = np.einsum("...ijab,...jab->...i", A, hess)
    if not tensor.is_constant:
        Ag = tensor.A_grad(x)
        divA = np.einsum("...ijaba->...ijb", Ag)
        f += np.einsum("...ijb,...jb->...i", divA, grad)
    B = tensor.B(x)
    if np.any(tensor.B0):
        Bg = tensor.B_grad(x)
        f += np.einsum("...ijaa,...j->...i", Bg, value)
        f += np.einsum("...ija,...ja->...i", B, grad)
    if np.any(tensor.C0):
        f += np.einsum("...ijb,...jb->...i", tensor.C(x), grad)
    if np.any(tensor.D0):
        f += np.einsum("...ij,...j->...i", tensor.D(x), value)
    return f
