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
derivatives come from differentiating the linear system (one inverse of
A^{nn} per point serves every order), never from finite differences, so
convergence-rate measurements are not polluted by evaluation noise.  Each
evaluation computes derivatives only to the order it needs.  When the
tensor varies with x_n the system is evaluated at the mid-gap height
x_n = h2 + delta/2.
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
# correction rows
# ---------------------------------------------------------------------------
#
# Each correction vector factors as G_l = (phi^l - psi^l) Q_l, where the
# kernel row Q_l solves  A^nn Q_l = sum_{c<n} (A^{cn} + A^{nc})_{:l} d_c delta
# and depends on the tensor and the gap alone.  Quantities travel as lists
# [f, df, d2f] cut at the order the caller needs; tangential derivative axes
# come last.

def _leibniz(spec, F, G, order):
    """einsum(spec, f, g) and its derivatives up to ``order`` (product rule)."""
    ins, out = spec.split("->")
    f, g = ins.split(",")
    res = [np.einsum(spec, F[0], G[0])]
    if order >= 1:
        res.append(np.einsum(f"{f}y,{g}->{out}y", F[1], G[0])
                   + np.einsum(f"{f},{g}y->{out}y", F[0], G[1]))
    if order >= 2:
        res.append(np.einsum(f"{f}yz,{g}->{out}yz", F[2], G[0])
                   + np.einsum(f"{f}y,{g}z->{out}yz", F[1], G[1])
                   + np.einsum(f"{f}z,{g}y->{out}yz", F[1], G[1])
                   + np.einsum(f"{f},{g}yz->{out}yz", F[0], G[2]))
    return res


def _gap_slopes(region, xp, order):
    """[d delta, d2 delta, d3 delta]: d delta and its derivatives to ``order``."""
    fns = (region.delta_grad, region.delta_hess, region.delta_third)
    return [fn(xp) for fn in fns[:order + 1]]


def _midpoint_tensor_derivs(tensor, region, xp, order):
    """[A, dA, d2A] up to ``order`` total tangential derivatives at mid-gap.

    The evaluation height is x_n = h2(x') + delta(x')/2; the chain rule folds
    the height's x'-dependence into the returned tangential derivatives.
    """
    d, nn = region.d, region.n - 1
    x_mid = region.from_box(xp, np.full(xp.shape[:-1], 0.5))
    Av = tensor.A(x_mid)
    out = [Av]
    if order >= 1 and tensor.is_constant:
        out += [np.zeros(Av.shape + (d,) * k) for k in range(1, order + 1)]
    elif order >= 1:
        ms = region.profiles.h2.grad(xp) + 0.5 * region.delta_grad(xp)
        Ag = tensor.A_grad(x_mid)
        out.append(Ag[..., :d]
                   + np.einsum("...ijab,...g->...ijabg", Ag[..., nn], ms))
        if order >= 2:
            m2s = region.profiles.h2.hess(xp) + 0.5 * region.delta_hess(xp)
            Ah = tensor.A_hess(x_mid)
            out.append(Ah[..., :d, :d]
                       + np.einsum("...ijabg,...h->...ijabgh", Ah[..., :d, nn], ms)
                       + np.einsum("...ijabh,...g->...ijabgh", Ah[..., nn, :d], ms)
                       + np.einsum("...ijab,...g,...h->...ijabgh",
                                   Ah[..., nn, nn], ms, ms)
                       + np.einsum("...ijab,...gh->...ijabgh", Ag[..., nn], m2s))
    return out


def _generic_kernel(tensor, region, xp, order):
    """Kernel rows Q[..., l, :] from the vertical-block solve, to ``order``.

    Differentiating  M Q = s  gives  M dQ = ds - dM Q  and
    M d2Q = d2s - dM_a dQ_b - dM_b dQ_a - d2M Q; one inverse of M per point
    serves all three.  Raises HypothesisViolationError if M is singular.
    """
    d, nn = region.d, region.n - 1
    As = _midpoint_tensor_derivs(tensor, region, xp, order)
    tails = [(slice(None),) * k for k in range(order + 1)]
    M = [A[(Ellipsis, nn, nn) + t] for A, t in zip(As, tails)]
    mixed = [A[(Ellipsis, slice(None, d), nn) + t]            # A^{cn} + A^{nc}
             + A[(Ellipsis, nn, slice(None, d)) + t] for A, t in zip(As, tails)]
    s = _leibniz("...ilc,...c->...il", mixed, _gap_slopes(region, xp, order), order)
    try:
        Minv = np.linalg.inv(M[0])
    except np.linalg.LinAlgError as exc:
        raise HypothesisViolationError(
            f"A^nn numerically singular at x' = {_worst_point(M[0], xp, d)}"
        ) from exc

    def apply(X):
        return (Minv @ X.reshape(Minv.shape[:-1] + (-1,))).reshape(X.shape)

    Q = [Minv @ s[0]]
    if order >= 1:
        rhs = s[1]
        if not tensor.is_constant:                      # else dM = d2M = 0
            rhs = rhs - np.einsum("...ija,...jl->...ila", M[1], Q[0])
        Q.append(apply(rhs))
    if order >= 2:
        rhs = s[2]
        if not tensor.is_constant:
            rhs = rhs - (np.einsum("...ija,...jlb->...ilab", M[1], Q[1])
                         + np.einsum("...ijb,...jla->...ilab", M[1], Q[1])
                         + np.einsum("...ijab,...jl->...ilab", M[2], Q[0]))
        Q.append(apply(rhs))
    return [np.swapaxes(q, -2 - k, -1 - k) for k, q in enumerate(Q)]


def _worst_point(M, xp, d):
    """Tangential point whose vertical block is closest to singular."""
    det = np.abs(np.linalg.det(np.asarray(M).reshape(-1, *M.shape[-2:])))
    k = int(np.argmin(det))
    return tuple(float(v) for v in np.asarray(xp).reshape(-1, d)[k])


def _lame_kernel(params, region, xp, order):
    """Closed-form kernel rows for the isotropic elasticity tensor:

        Q_l = (lam+mu)/(lam+2mu) d_l delta e_n   (l < n),
        Q_n = (lam+mu)/mu sum_{c<n} d_c delta e_c,

    linear in d delta, so each derivative order just differentiates it.
    """
    d, n = region.d, region.n
    coef = np.zeros((n, n, d))                     # coef[l, i, c]
    for c in range(d):
        coef[c, n - 1, c] = (params.lam + params.mu) / (params.lam + 2 * params.mu)
        coef[n - 1, c, c] = (params.lam + params.mu) / params.mu
    specs = ("lic,...c->...li", "lic,...ca->...lia", "lic,...cab->...liab")
    return [np.einsum(spec, coef, D)
            for spec, D in zip(specs, _gap_slopes(region, xp, order))]


def _correction_rows(kernel, traces, xp, order, summed=False):
    """G_l = (phi^l - psi^l) Q_l and its derivatives: rows l, to ``order``.

    ``summed`` contracts the rows into S = sum_l G_l on the way.
    """
    diff = [traces.diff_value, traces.diff_grad, traces.diff_hess]
    spec = "...l,...li->...i" if summed else "...l,...li->...li"
    return _leibniz(spec, [f(xp) for f in diff[:order + 1]], kernel, order)


def correction_coeffs(tensor: CoefficientTensor, region: NarrowRegion,
                      traces: BoundaryTraces, xp):
    """All correction vectors at x': rows l of the returned (..., N, N) array.

    Solves the N x N vertical-block system per l; raises
    HypothesisViolationError if that block is numerically singular.
    """
    xp = _as_points(xp, region.d)
    return _correction_rows(_generic_kernel(tensor, region, xp, 0), traces, xp, 0)[0]


def lame_correction(params: LameParameters, region: NarrowRegion,
                    traces: BoundaryTraces, xp):
    """Closed-form correction rows for the isotropic elasticity tensor."""
    params.validate(region.n)
    if traces.N != region.n:
        raise ConstructionError("elasticity requires N == n traces")
    xp = _as_points(xp, region.d)
    return _correction_rows(_lame_kernel(params, region, xp, 0), traces, xp, 0)[0]


# ---------------------------------------------------------------------------
# the ansatz field
# ---------------------------------------------------------------------------

MODES = ("generic", "lame_closed_form")


@dataclass(frozen=True)
class AnsatzField:
    """Evaluation of ubar, its gradient/Hessian and its residual on the box.

    Evaluators take box coordinates (x', t) that broadcast: a grid passed as
    XP[..., :1, :] and T evaluates every x'-only factor once per column.
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

    @property
    def N(self):
        return self.tensor.N

    def _kernel(self, xp, order):
        if self.mode == "lame_closed_form":
            return _lame_kernel(self.lame, self.region, xp, order)
        return _generic_kernel(self.tensor, self.region, xp, order)

    def correction_rows(self, xp, order: int = 0):
        """[G, dG, d2G] up to ``order``: row l of G is G_l at x'."""
        xp = _as_points(xp, self.region.d)
        return _correction_rows(self._kernel(xp, order), self.traces, xp, order)

    def correction_sum(self, xp, order: int = 2):
        """[S, dS, d2S] up to ``order`` with S = sum_l G_l; zeros when dropped."""
        xp = _as_points(xp, self.region.d)
        if not self.include_correction:
            lead = xp.shape[:-1] + (self.N,)
            return [np.zeros(lead + (self.region.d,) * k) for k in range(order + 1)]
        return _correction_rows(self._kernel(xp, order), self.traces, xp, order,
                                summed=True)

    def _jet(self, xp, t, order):
        """[ubar, grad ubar, Hessian] at (x', t) up to ``order``.

        Shapes (..., N), (..., N, n), (..., N, n, n).  The traces and the
        correction sum are evaluated once, at ``order``, for every entry.
        """
        xp, t = self.region._box(xp, t)
        fns = ("value", "grad", "hess")[:order + 1]
        phi = [getattr(self.traces.phi, f)(xp) for f in fns]
        psi = [getattr(self.traces.psi, f)(xp) for f in fns]
        S = self.correction_sum(xp, order)
        r, rp = smoother(t), smoother_prime(t)
        out = [phi[0] * t[..., None] + psi[0] * (1 - t)[..., None] + r[..., None] * S[0]]
        if order == 0:
            return out
        d, n = self.region.d, self.region.n
        dv = self.region.vbar_grad(xp, t)                      # (..., n)
        grad = np.zeros(dv.shape[:-1] + (self.N, n))
        grad[..., :d] = (phi[1] * t[..., None, None] + psi[1] * (1 - t)[..., None, None]
                         + r[..., None, None] * S[1])
        coef = phi[0] - psi[0] + rp[..., None] * S[0]          # (..., N)
        grad += coef[..., :, None] * dv[..., None, :]
        out.append(grad)
        if order == 1:
            return out
        d2v = self.region.vbar_hess(xp, t)
        hess = np.zeros(dv.shape[:-1] + (self.N, n, n))
        # tangential-tangential block from the x'-dependent factors
        hess[..., :d, :d] = (phi[2] * t[..., None, None, None]
                             + psi[2] * (1 - t)[..., None, None, None]
                             + r[..., None, None, None] * S[2])
        # cross terms between x'-factors and v
        fac = phi[1] - psi[1] + rp[..., None, None] * S[1]     # (..., N, d)
        hess[..., :d, :] += fac[..., :, None] * dv[..., None, None, :]
        hess[..., :, :d] += fac[..., None, :] * dv[..., None, :, None]
        # terms from differentiating v twice / the smoother twice
        hess += coef[..., None, None] * d2v[..., None, :, :]
        hess += (SMOOTHER_SECOND * S[0])[..., None, None] * (dv[..., None, :, None]
                                                             * dv[..., None, None, :])
        out.append(hess)
        return out

    def value(self, xp, t):
        """ubar at the box points (x', t), shape (..., N)."""
        return self._jet(xp, t, 0)[0]

    def gradient(self, xp, t):
        """Full spatial gradient at (x', t), shape (..., N, n)."""
        return self._jet(xp, t, 1)[1]

    def hessian(self, xp, t):
        """Full spatial Hessian at (x', t), shape (..., N, n, n)."""
        return self._jet(xp, t, 2)[2]

    def component(self, l: int, xp, t):
        """The l-th summand at (x', t): (phi^l v + psi^l (1 - v)) e_l + r(v) G_l."""
        xp, t = self.region._box(xp, t)
        phi = self.traces.phi.value(xp)[..., l]
        psi = self.traces.psi.value(xp)[..., l]
        out = np.zeros(np.broadcast_shapes(xp.shape[:-1], t.shape) + (self.N,))
        out[..., l] = phi * t + psi * (1 - t)
        if self.include_correction:
            G, = self.correction_rows(xp)
            out += smoother(t)[..., None] * G[..., l, :]
        return out

    def residual(self, xp, t):
        """f = L[ubar] at (x', t) with the full operator applied analytically."""
        return apply_operator(self.tensor, self.region.from_box(xp, t),
                              *self._jet(xp, t, 2))


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
