"""Corrected leading term for the narrow-region system and its residual.

With v the normalized vertical coordinate and delta the gap function, the
leading term is

    ubar(x) = phi(x') * v + psi(x') * (1 - v) + r(v) * sum_l G_l(x'),

where phi, psi are the top/bottom Dirichlet traces written as functions of
x', the smoother

    r(t) = (t - 1/2)^2 / 2 - 1/8,        r(0) = r(1) = 0,

keeps the boundary data untouched, and for each l the correction vector
G_l in R^N solves

    A^{22}_{ij} g^j_l = (A^{12}_{il} + A^{21}_{il}) d_1 delta * (phi^l - psi^l)(x1).

The vertical block A^{22} is positive definite by hypothesis, so G_l is
unique.  The correction is exactly what cancels the delta^{-2} part of the
residual of ubar under the full operator; without it the remainder of the
gradient approximation picks up an extra negative power of the gap.

For the isotropic elasticity tensor the solve collapses to closed forms

    G_1 = (lam+mu)/(lam+2mu) * (phi^1 - psi^1) * d_1 delta * e_2,
    G_2 = (lam+mu)/mu * (phi^2 - psi^2) * d_1 delta * e_1,

available as ``mode="lame_closed_form"``.

The box evaluators are written for n = 2, with x' = x1 and the axes
(x1, t); ``require_planar`` refuses any other n when a field is built.
Each trace is one ``PolyTrace``: a coefficient row in x1 per component
(a constant is a row of degree 0), whose ``jet`` returns the exact
x1-derivatives [f, d_1 f, d_11 f] that every evaluator here reads.

All derivatives here are analytic: the correction's first and second
derivatives come from differentiating the linear system (one inverse of
A^{22} per point serves every order), never from finite differences, so
convergence-rate measurements are not polluted by evaluation noise.  Each
evaluation computes derivatives only to the order it needs.  When the
tensor varies with x2 the system is evaluated at the mid-gap height
x2 = h2 + delta/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .coefficients import (CoefficientTensor, ConstructionError,
                           HypothesisViolationError, LameParameters)
from .geometry import NarrowRegion, _as_points, require_planar


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
class PolyTrace:
    """Per-component polynomials in x_1: rows[c][k] multiplies x_1^k.

    A constant trace has one row of degree 0 per component; scale * x_1^k in
    component c alone is the row [0] * k + [scale] there, with [0] elsewhere.
    Traces depend on x' through x_1 only, so the x1-jet is all of their
    derivatives.
    """

    rows: tuple

    def __init__(self, rows):
        rows = tuple(tuple(float(c) for c in row) for row in rows)
        if not rows or not all(rows):
            raise ConstructionError("a trace needs one non-empty coefficient row "
                                    "per component")
        if not np.isfinite([c for row in rows for c in row]).all():
            raise ConstructionError("trace coefficients must be finite")
        object.__setattr__(self, "rows", rows)
        # coefficient columns of f, d_1 f and d_11 f: C[k, c] multiplies x_1^k
        width = max(map(len, rows))
        derivs = []
        for order in range(3):
            C = np.zeros((width, len(rows)))
            for c, row in enumerate(rows):
                der = P.polyder(row, order)
                C[:len(der), c] = der
            derivs.append(C)
        object.__setattr__(self, "_derivs", tuple(derivs))

    @property
    def N(self):
        return len(self.rows)

    def jet(self, xp, order=2):
        """[f, d_1 f, d_11 f] at x' up to ``order``, each of shape (..., N)."""
        x1 = np.asarray(xp, dtype=float)[..., :1]
        return [P.polyval(x1, C, tensor=False) for C in self._derivs[:order + 1]]


@dataclass(frozen=True)
class BoundaryTraces:
    """Top trace phi and bottom trace psi with exact tangential derivatives."""

    phi: PolyTrace
    psi: PolyTrace

    @property
    def N(self):
        return self.phi.N

    def __post_init__(self):
        if self.phi.N != self.psi.N:
            raise ConstructionError("phi and psi must have the same number of components")

    def diff_jet(self, xp, order):
        """[f, d_1 f, d_11 f] of f = phi - psi up to ``order``, each (..., N)."""
        return [p - q for p, q in zip(self.phi.jet(xp, order), self.psi.jet(xp, order))]

    def c2_total(self, radius, samples=201):
        """‖phi‖_C2 + ‖psi‖_C2 sampled on the tangential interval of given radius.

        Each norm is the sample maximum of |f| + |d_1 f| + |d_11 f|.
        """
        xp = np.linspace(-radius, radius, samples)[:, None]
        total = 0.0
        for tr in (self.phi, self.psi):
            f, d1, d11 = (np.sqrt(np.sum(g ** 2, axis=-1)) for g in tr.jet(xp))
            total += float((f + d1 + d11).max())
        return total


# ---------------------------------------------------------------------------
# data gauges
# ---------------------------------------------------------------------------

def theta(traces: BoundaryTraces, xp):
    """|phi - psi| + |grad_{x'}(phi - psi)| at x'."""
    dv, dg = traces.diff_jet(xp, 1)
    return np.linalg.norm(dv, axis=-1) + np.sqrt(np.sum(dg * dg, axis=-1))


def theta_bar_delta(traces: BoundaryTraces, region: NarrowRegion, xp):
    """Elasticity gauge |phi - psi| delta^{1 - 2/m} + |grad(phi - psi)|.

    For m = 2 the exponent vanishes and this coincides with ``theta``; for
    m > 2 it is pointwise smaller whenever delta <= 1.
    """
    xp = _as_points(xp, 1)
    dv, dg = traces.diff_jet(xp, 1)
    expo = 1.0 - 2.0 / region.profiles.m
    return (np.linalg.norm(dv, axis=-1) * region.delta(xp) ** expo
            + np.sqrt(np.sum(dg * dg, axis=-1)))


# ---------------------------------------------------------------------------
# correction rows
# ---------------------------------------------------------------------------
#
# Each correction vector factors as G_l = (phi^l - psi^l) Q_l, where the
# kernel row Q_l solves  A^{22} Q_l = (A^{12} + A^{21})_{:l} d_1 delta
# and depends on the tensor and the gap alone.  The tangential space is the
# x1-axis, so every derivative is a plain x1-derivative: quantities travel as
# lists [f, d_1 f, d_11 f] cut at the order the caller needs, each entry of
# the shape of f.

def _leibniz(mul, F, G, order):
    """mul(f, g) and its x1-derivatives up to ``order`` (product rule)."""
    res = [mul(F[0], G[0])]
    if order >= 1:
        res.append(mul(F[1], G[0]) + mul(F[0], G[1]))
    if order >= 2:
        cross = mul(F[1], G[1])
        res.append(mul(F[2], G[0]) + cross + cross + mul(F[0], G[2]))
    return res


def _gap_slopes(region, xp, order):
    """[d_1 delta, d_11 delta, d_111 delta] up to ``order``, each of shape (...)."""
    fns = (region.delta_grad, region.delta_hess, region.delta_third)
    return [fn(xp).reshape(xp.shape[:-1]) for fn in fns[:order + 1]]


def _midpoint_tensor_derivs(tensor, region, xp, order):
    """[A, A', A''] up to ``order`` total x1-derivatives at mid-gap.

    The evaluation height is x2 = h2(x1) + delta(x1)/2, of slope
    m' = h2' + delta'/2.  The chain rule folds it into the returned
    x1-derivatives:  A' = A_{,1} + A_{,2} m'  and
    A'' = A_{,11} + A_{,12} m' + A_{,21} m' + A_{,22} m' m' + A_{,2} m''.
    """
    x_mid = region.from_box(xp, np.full(xp.shape[:-1], 0.5))
    Av = tensor.A(x_mid)
    out = [Av]
    if order >= 1 and tensor.is_constant:
        out += [np.zeros_like(Av) for _ in range(order)]
    elif order >= 1:
        # m' and m'' carry the tensor's four axes (i, j, a, b) as length 1
        ms = (region.profiles.h2.grad(xp)
              + 0.5 * region.delta_grad(xp))[..., 0, None, None, None, None]
        Ag = tensor.A_grad(x_mid)
        out.append(Ag[..., 0] + Ag[..., 1] * ms)
        if order >= 2:
            m2s = (region.profiles.h2.hess(xp)
                   + 0.5 * region.delta_hess(xp))[..., 0, 0, None, None, None, None]
            Ah = tensor.A_hess(x_mid)
            out.append(Ah[..., 0, 0] + Ah[..., 0, 1] * ms + Ah[..., 1, 0] * ms
                       + Ah[..., 1, 1] * ms * ms + Ag[..., 1] * m2s)
    return out


def _generic_kernel(tensor, region, xp, order):
    """Kernel rows Q[..., l, :] from the vertical-block solve, to ``order``.

    Differentiating  M Q = s  gives  M Q' = s' - M' Q  and
    M Q'' = s'' - 2 M' Q' - M'' Q; one inverse of M per point serves all
    three.  Raises HypothesisViolationError if M is singular.
    """
    As = _midpoint_tensor_derivs(tensor, region, xp, order)
    M = [A[..., 1, 1] for A in As]
    mixed = [A[..., 0, 1] + A[..., 1, 0] for A in As]           # A^{12} + A^{21}
    s = _leibniz(lambda f, g: f * g[..., None, None], mixed,
                 _gap_slopes(region, xp, order), order)
    try:
        Minv = np.linalg.inv(M[0])
    except np.linalg.LinAlgError as exc:
        raise HypothesisViolationError(
            f"A^nn numerically singular at x' = {_worst_point(M[0], xp)}"
        ) from exc

    Q = [Minv @ s[0]]
    if order >= 1:
        rhs = s[1]
        if not tensor.is_constant:                      # else M' = M'' = 0
            rhs = rhs - np.einsum("...ij,...jl->...il", M[1], Q[0])
        Q.append(Minv @ rhs)
    if order >= 2:
        rhs = s[2]
        if not tensor.is_constant:
            dM_dQ = np.einsum("...ij,...jl->...il", M[1], Q[1])
            rhs = rhs - (dM_dQ + dM_dQ + np.einsum("...ij,...jl->...il", M[2], Q[0]))
        Q.append(Minv @ rhs)
    return [np.swapaxes(q, -2, -1) for q in Q]


def _worst_point(M, xp):
    """Tangential point whose vertical block is closest to singular."""
    det = np.abs(np.linalg.det(np.asarray(M).reshape(-1, *M.shape[-2:])))
    k = int(np.argmin(det))
    return tuple(float(v) for v in np.asarray(xp).reshape(-1, 1)[k])


def _lame_kernel(params, region, xp, order):
    """Closed-form kernel rows for the isotropic elasticity tensor:

        Q_1 = k_t d_1 delta e_2,  k_t = (lam+mu)/(lam+2mu),
        Q_2 = k_n d_1 delta e_1,  k_n = (lam+mu)/mu,

    linear in d_1 delta, so each derivative order just differentiates it.
    """
    k_t = (params.lam + params.mu) / (params.lam + 2 * params.mu)
    k_n = (params.lam + params.mu) / params.mu
    out = []
    for D in _gap_slopes(region, xp, order):
        Q = np.zeros(D.shape + (2, 2))                 # Q[..., l, i]
        Q[..., 0, 1] = k_t * D
        Q[..., 1, 0] = k_n * D
        out.append(Q)
    return out


def _correction_rows(kernel, traces, xp):
    """Rows G_l = (phi^l - psi^l) Q_l at x', shape (..., N, N)."""
    return traces.diff_jet(xp, 0)[0][..., None] * kernel[0]


def correction_coeffs(tensor: CoefficientTensor, region: NarrowRegion,
                      traces: BoundaryTraces, xp):
    """All correction vectors at x': rows l of the returned (..., N, N) array.

    Solves the N x N vertical-block system per l; raises
    HypothesisViolationError if that block is numerically singular.
    """
    require_planar(region.n)
    xp = _as_points(xp, 1)
    return _correction_rows(_generic_kernel(tensor, region, xp, 0), traces, xp)


def lame_correction(params: LameParameters, region: NarrowRegion,
                    traces: BoundaryTraces, xp):
    """Closed-form correction rows for the isotropic elasticity tensor."""
    require_planar(region.n)
    params.validate(2)
    if traces.N != 2:
        raise ConstructionError("elasticity requires N == n traces")
    xp = _as_points(xp, 1)
    return _correction_rows(_lame_kernel(params, region, xp, 0), traces, xp)


# ---------------------------------------------------------------------------
# the ansatz field
# ---------------------------------------------------------------------------

MODES = ("generic", "lame_closed_form")


@dataclass(frozen=True)
class AnsatzField:
    """Evaluation of ubar, its gradient and its residual on the box.

    Evaluators take box coordinates (x1, t) that broadcast: a grid passed as
    XP[..., :1, :] and T evaluates every x1-only factor once per column.
    Immutable and pure.
    ``corrected=False`` on ``gradient`` and ``residual`` drops the
    r(v) * sum G_l term and yields the plain two-point interpolant (the
    quantity the correction improves on) without building the correction.
    The field is written for n = 2; construction refuses any other n.
    """

    region: NarrowRegion
    tensor: CoefficientTensor
    traces: BoundaryTraces
    mode: str = "generic"
    lame: LameParameters | None = None

    def __post_init__(self):
        require_planar(self.region.n)
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

    def _correction_sum(self, xp, diff, order):
        """[S, S', S''] from ``diff``, the x1-jet of phi - psi at x'."""
        return _leibniz(lambda f, Q: np.einsum("...l,...li->...i", f, Q),
                        diff, self._kernel(xp, order), order)

    def correction_sum(self, xp, order: int = 2):
        """[S, S', S''] up to ``order`` with S = sum_l G_l, each (..., N)."""
        xp = _as_points(xp, 1)
        return self._correction_sum(xp, self.traces.diff_jet(xp, order), order)

    def _jet(self, xp, t, order, corrected=True):
        """[ubar, grad ubar, Hessian] at (x1, t) up to ``order``.

        Shapes (..., N), (..., N, 2), (..., N, 2, 2).  The traces, the
        correction sum, delta and h2 are read once per column, as x1-jets at
        ``order``, and the t-factors t, r(t) and r'(t) once.  Each entry is
        written from them with grad v = (dv0, dv1) = (-(h2' + t delta'), 1)
        / delta; the x1-only factors are never spread over t.  Entries are
        written one component k at a time, so every product of a column
        factor and a t-factor runs over t rather than over the N components.
        With ``corrected=False``, S is the scalar 0.0: no kernel is built,
        and each r(v) * S term adds a zero to what the same formula gives.
        """
        xp, t = self.region._box(xp, t)
        phi = self.traces.phi.jet(xp, order)
        psi = self.traces.psi.jet(xp, order)
        diff = [p - q for p, q in zip(phi, psi)]
        S = self._correction_sum(xp, diff, order) if corrected else None
        s, r, rp = 1 - t, smoother(t), smoother_prime(t)
        shape = np.broadcast_shapes(xp.shape[:-1], t.shape) + (self.N,)
        val = np.empty(shape)
        if order >= 1:
            h2 = self.region.profiles.h2
            dlt = self.region.delta(xp)
            D = _gap_slopes(self.region, xp, order - 1)
            dv0 = -(h2.grad(xp)[..., 0] + t * D[0]) / dlt
            dv1 = 1.0 / dlt
            grad = np.empty(shape + (2,))
        if order >= 2:
            d2h = h2.hess(xp)[..., 0, 0] + t * D[1]
            d2v00 = (-(dv0 * D[0] + D[0] * dv0) - d2h) / dlt
            d2v01 = -(D[0] * dv1) / dlt                        # d2v11 = 0
            dv00, dv01, dv11 = dv0 * dv0, dv0 * dv1, dv1 * dv1
            hess = np.empty(shape + (2, 2))
        for k in range(self.N):
            pk, qk, dk = ([f[..., k] for f in jet] for jet in (phi, psi, diff))
            Sk = [f[..., k] for f in S] if corrected else [0.0] * (order + 1)
            val[..., k] = pk[0] * t + qk[0] * s + r * Sk[0]
            if order == 0:
                continue
            coef = dk[0] + rp * Sk[0]
            grad[..., k, 0] = pk[1] * t + qk[1] * s + r * Sk[1] + coef * dv0
            grad[..., k, 1] = coef * dv1
            if order == 1:
                continue
            fac = dk[1] + rp * Sk[1]
            rpp = SMOOTHER_SECOND * Sk[0]
            hess[..., k, 0, 0] = (pk[2] * t + qk[2] * s + r * Sk[2] + fac * dv0 + fac * dv0
                                  + coef * d2v00 + rpp * dv00)
            hess[..., k, 0, 1] = hess[..., k, 1, 0] = fac * dv1 + coef * d2v01 + rpp * dv01
            hess[..., k, 1, 1] = rpp * dv11
        return [val] if order == 0 else [val, grad] if order == 1 else [val, grad, hess]

    def value(self, xp, t):
        """ubar at the box points (x1, t), shape (..., N)."""
        return self._jet(xp, t, 0)[0]

    def gradient(self, xp, t, corrected=True):
        """Full spatial gradient at (x1, t), shape (..., N, 2)."""
        return self._jet(xp, t, 1, corrected)[1]

    def residual(self, xp, t, corrected=True):
        """f = L[ubar] at (x1, t) with the full operator applied analytically."""
        return apply_operator(self.tensor, self.region.from_box(xp, t),
                              *self._jet(xp, t, 2, corrected))


def build_ansatz(tensor: CoefficientTensor, region: NarrowRegion,
                 traces: BoundaryTraces, mode: str = "generic",
                 lame: LameParameters | None = None) -> AnsatzField:
    return AnsatzField(region, tensor, traces, mode, lame)


# ---------------------------------------------------------------------------
# the operator, applied to any analytically differentiable field
# ---------------------------------------------------------------------------

def apply_operator(tensor: CoefficientTensor, x, value, grad, hess):
    """d_a(A d_b u + B u) + C d_b u + D u expanded by the product rule.

    ``value, grad, hess`` are the field and its derivatives at x, shapes
    (..., N), (..., N, n), (..., N, n, n).
    """
    x = np.asarray(x, dtype=float)
    if tensor.is_constant:                  # A0 itself, not a copy per sample
        f = np.einsum("ijab,...jab->...i", tensor.A0, hess)
    else:
        f = np.einsum("...ijab,...jab->...i", tensor.A(x), hess)
        Ag = tensor.A_grad(x)
        divA = np.einsum("...ijaba->...ijb", Ag)
        f += np.einsum("...ijb,...jb->...i", divA, grad)
    if np.any(tensor.B0):
        Bg = tensor.B_grad(x)
        f += np.einsum("...ijaa,...j->...i", Bg, value)
        f += np.einsum("...ija,...ja->...i", tensor.B(x), grad)
    if np.any(tensor.C0):
        f += np.einsum("...ijb,...jb->...i", tensor.C(x), grad)
    if np.any(tensor.D0):
        f += np.einsum("...ij,...j->...i", tensor.D(x), value)
    return f
