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

The field always solves the block system; the tests check it against these
closed forms.

The region is planar (``geometry``), so the box evaluators are written
for the axes (x1, t) and every tangential derivative is an x1-derivative.
Each trace is one ``PolyTrace``: a coefficient row in x1 per component
(a constant is a row of degree 0), whose ``jet`` returns the exact
x1-derivatives [f, d_1 f, d_11 f] that every evaluator here reads; the
profiles and the gap give theirs the same way (``jet``, ``delta_jet``),
and the tensor gives [A, grad A, hess A] (``A_jet``).  B, C and D are
constant, so ``apply_operator`` contracts B0, C0 and D0 as they are.

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
                           HypothesisViolationError)
from .geometry import NarrowRegion


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
        # coefficient columns of f, d_1 f and d_11 f: C[k, c] multiplies x_1^k
        width = max(map(len, rows))
        C = np.zeros((width, len(rows)))
        for c, row in enumerate(rows):
            C[:len(row), c] = row
        if not np.isfinite(C).all():
            raise ConstructionError("trace coefficients must be finite")
        object.__setattr__(self, "rows", rows)
        derivs, k = [C], np.arange(1, width)[:, None]
        for _ in range(2):              # d_1 of x_1^k is k x_1^(k-1), as in polyder
            D = np.zeros_like(C)
            D[:-1] = derivs[-1][1:] * k
            derivs.append(D)
        object.__setattr__(self, "_derivs", tuple(derivs))

    @property
    def N(self):
        return len(self.rows)

    def jet(self, x1, order=2):
        """[f, d_1 f, d_11 f] at x1 up to ``order``, each of shape (..., N)."""
        x1 = np.asarray(x1, dtype=float)[..., None]
        return [P.polyval(x1, C, tensor=False) for C in self._derivs[:order + 1]]


_C2_SAMPLES = 201          # uniform samples of ``c2_total`` over the interval


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

    def diff_jet(self, x1, order):
        """[f, d_1 f, d_11 f] of f = phi - psi up to ``order``, each (..., N)."""
        return [p - q for p, q in zip(self.phi.jet(x1, order), self.psi.jet(x1, order))]

    def c2_total(self, radius):
        """‖phi‖_C2 + ‖psi‖_C2 sampled on the tangential interval of given radius.

        Each norm is the maximum of |f| + |d_1 f| + |d_11 f| over
        ``_C2_SAMPLES`` uniform samples.
        """
        x1 = np.linspace(-radius, radius, _C2_SAMPLES)
        total = 0.0
        for tr in (self.phi, self.psi):
            f, d1, d11 = (np.sqrt(np.sum(g ** 2, axis=-1)) for g in tr.jet(x1))
            total += float((f + d1 + d11).max())
        return total


# ---------------------------------------------------------------------------
# data gauges
# ---------------------------------------------------------------------------

def theta(traces: BoundaryTraces, x1):
    """|phi - psi| + |grad_{x'}(phi - psi)| at x1."""
    dv, dg = traces.diff_jet(x1, 1)
    return np.linalg.norm(dv, axis=-1) + np.sqrt(np.sum(dg * dg, axis=-1))


def theta_bar_delta(traces: BoundaryTraces, region: NarrowRegion, x1):
    """Elasticity gauge |phi - psi| delta^{1 - 2/m} + |grad(phi - psi)|.

    For m = 2 the exponent vanishes and this coincides with ``theta``; for
    m > 2 it is pointwise smaller whenever delta <= 1.
    """
    dv, dg = traces.diff_jet(x1, 1)
    expo = 1.0 - 2.0 / region.profiles.m
    return (np.linalg.norm(dv, axis=-1) * region.delta(x1) ** expo
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


def _midpoint_tensor_derivs(tensor, region, x1, order):
    """[A, A', A''] up to ``order`` total x1-derivatives at mid-gap.

    The evaluation height is x2 = h2(x1) + delta(x1)/2, of slope
    m' = h2' + delta'/2.  The chain rule folds it into the returned
    x1-derivatives:  A' = A_{,1} + A_{,2} m'  and
    A'' = A_{,11} + A_{,12} m' + A_{,21} m' + A_{,22} m' m' + A_{,2} m''.
    """
    x_mid = region.from_box(x1, np.full(np.shape(x1), 0.5))
    if tensor.is_constant:
        Av = tensor.A(x_mid)
        return [Av] + [np.zeros_like(Av) for _ in range(order)]
    Av, *dA = tensor.A_jet(x_mid, order)
    out = [Av]
    if order >= 1:
        # m' and m'' carry the tensor's four axes (i, j, a, b) as length 1
        h2 = region.profiles.h2.jet(x1, order)
        dlt = region.delta_jet(x1, order)
        ms = (h2[1] + 0.5 * dlt[1])[..., None, None, None, None]
        Ag = dA[0]
        out.append(Ag[..., 0] + Ag[..., 1] * ms)
        if order >= 2:
            m2s = (h2[2] + 0.5 * dlt[2])[..., None, None, None, None]
            Ah = dA[1]
            out.append(Ah[..., 0, 0] + Ah[..., 0, 1] * ms + Ah[..., 1, 0] * ms
                       + Ah[..., 1, 1] * ms * ms + Ag[..., 1] * m2s)
    return out


def _generic_kernel(tensor, region, x1, order):
    """Kernel rows Q[..., l, :] from the vertical-block solve, to ``order``.

    Differentiating  M Q = s  gives  M Q' = s' - M' Q  and
    M Q'' = s'' - 2 M' Q' - M'' Q; one inverse of M per point serves all
    three.  Raises HypothesisViolationError if M is singular.
    """
    As = _midpoint_tensor_derivs(tensor, region, x1, order)
    M = [A[..., 1, 1] for A in As]
    mixed = [A[..., 0, 1] + A[..., 1, 0] for A in As]           # A^{12} + A^{21}
    s = _leibniz(lambda f, g: f * g[..., None, None], mixed,
                 region.delta_jet(x1, order + 1)[1:], order)
    try:
        Minv = np.linalg.inv(M[0])
    except np.linalg.LinAlgError as exc:
        raise HypothesisViolationError(
            f"A^nn numerically singular at x' = {_worst_point(M[0], x1)}"
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


def _worst_point(M, x1):
    """Tangential point whose vertical block is closest to singular."""
    det = np.abs(np.linalg.det(np.asarray(M).reshape(-1, *M.shape[-2:])))
    return (float(np.ravel(x1)[np.argmin(det)]),)


# ---------------------------------------------------------------------------
# the ansatz field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzField:
    """Evaluation of ubar, its gradient and its residual on the box.

    Evaluators take box coordinates (x1, t) that broadcast: a grid passed as
    its column X1[:, :1] and T evaluates every x1-only factor once per column.
    Immutable and pure; the correction's kernel rows are computed by each
    corrected evaluation, at its columns and to its order (``_generic_kernel``).
    ``corrected=False`` on ``gradient`` drops the r(v) * sum G_l term and
    yields the plain two-point interpolant (the quantity the correction
    improves on) without building the correction; ``residual`` returns the
    corrected and the plain residual together.
    """

    region: NarrowRegion
    tensor: CoefficientTensor
    traces: BoundaryTraces

    def __post_init__(self):
        if self.traces.N != self.tensor.N:
            raise ConstructionError("trace components must match tensor N")

    @property
    def N(self):
        return self.tensor.N

    def _correction_sum(self, x1, diff, order):
        """[S, S', S''] from ``diff``, the x1-jet of phi - psi at x1."""
        Q = _generic_kernel(self.tensor, self.region, x1, order)
        return _leibniz(lambda f, q: np.einsum("...l,...li->...i", f, q), diff, Q, order)

    def _jets(self, x1, t, order, corrections=(True,)):
        """[ubar, grad ubar, Hessian] at (x1, t) up to ``order``, per ``corrections`` entry.

        Shapes (..., N), (..., N, 2), (..., N, 2, 2).  The traces, delta and
        h2 are read once per column, as x1-jets at ``order``, and the
        t-factors t, r(t) and r'(t) once.  Each entry is written from them
        with grad v = (dv0, dv1) = (-(h2' + t delta'), 1) / delta; the
        x1-only factors are never spread over t.  Entries are written one
        component k at a time, so every product of a column factor and a
        t-factor runs over t rather than over the N components.  The jets,
        grad v and its derivatives and each trace term p t + q s are formed
        once for every entry of ``corrections``: only the correction sum S
        differs.  An entry False takes S as the scalar 0.0: no kernel is
        built, and each r(v) * S term adds a zero to what the same formula
        gives.
        """
        x1, t = self.region._box(x1, t)
        phi = self.traces.phi.jet(x1, order)
        psi = self.traces.psi.jet(x1, order)
        diff = [p - q for p, q in zip(phi, psi)]
        s, r, rp = 1 - t, smoother(t), smoother_prime(t)
        shape = np.broadcast_shapes(x1.shape, t.shape) + (self.N,)
        if order >= 1:
            h2 = self.region.profiles.h2.jet(x1, order)
            dlt, *D = self.region.delta_jet(x1, order)
            dv0 = -(h2[1] + t * D[0]) / dlt
            dv1 = 1.0 / dlt
        if order >= 2:
            d2h = h2[2] + t * D[1]
            d2v00 = (-(dv0 * D[0] + D[0] * dv0) - d2h) / dlt
            d2v01 = -(D[0] * dv1) / dlt                        # d2v11 = 0
            dv00, dv01, dv11 = dv0 * dv0, dv0 * dv1, dv1 * dv1
        # per component k: its trace terms p t + q s, then the jet of phi - psi
        lin = [[p[..., k] * t + q[..., k] * s for p, q in zip(phi, psi)]
               for k in range(self.N)]
        dks = [[f[..., k] for f in diff] for k in range(self.N)]
        jets = []
        for corrected in corrections:
            S = self._correction_sum(x1, diff, order) if corrected else None
            out = [np.empty(shape + (2,) * j) for j in range(order + 1)]
            for k, (lk, dk) in enumerate(zip(lin, dks)):
                Sk = [f[..., k] for f in S] if corrected else [0.0] * (order + 1)
                out[0][..., k] = lk[0] + r * Sk[0]
                if order == 0:
                    continue
                coef = dk[0] + rp * Sk[0]
                out[1][..., k, 0] = lk[1] + r * Sk[1] + coef * dv0
                out[1][..., k, 1] = coef * dv1
                if order == 1:
                    continue
                fac = dk[1] + rp * Sk[1]
                rpp = SMOOTHER_SECOND * Sk[0]
                hess = out[2]
                hess[..., k, 0, 0] = (lk[2] + r * Sk[2] + fac * dv0 + fac * dv0
                                      + coef * d2v00 + rpp * dv00)
                hess[..., k, 0, 1] = hess[..., k, 1, 0] = fac * dv1 + coef * d2v01 + rpp * dv01
                hess[..., k, 1, 1] = rpp * dv11
            jets.append(out)
        return jets

    def value(self, x1, t):
        """ubar at the box points (x1, t), shape (..., N)."""
        return self._jets(x1, t, 0)[0][0]

    def gradient(self, x1, t, corrected=True):
        """Full spatial gradient at (x1, t), shape (..., N, 2)."""
        return self._jets(x1, t, 1, (corrected,))[0][1]

    def residual(self, x1, t):
        """(f, f0): f = L[ubar] at (x1, t) with the full operator applied
        analytically, and f0 the same for the plain interpolant, from one jet
        pass."""
        x = self.region.from_box(x1, t)
        return tuple(apply_operator(self.tensor, x, *jet)
                     for jet in self._jets(x1, t, 2, (True, False)))


def build_ansatz(tensor: CoefficientTensor, region: NarrowRegion,
                 traces: BoundaryTraces) -> AnsatzField:
    """The field of ``traces`` on ``region`` under ``tensor``."""
    return AnsatzField(region, tensor, traces)


# ---------------------------------------------------------------------------
# the operator, applied to any analytically differentiable field
# ---------------------------------------------------------------------------

def apply_operator(tensor: CoefficientTensor, x, value, grad, hess):
    """d_a(A d_b u + B u) + C d_b u + D u expanded by the product rule.

    ``value, grad, hess`` are the field and its derivatives at x, shapes
    (..., N), (..., N, 2), (..., N, 2, 2).  B, C and D are constant, so
    d_a(B u) = B d_a u, and B0, C0, D0 are contracted as they are.
    """
    if tensor.is_constant:                  # A0 itself, not a copy per sample
        f = np.einsum("ijab,...jab->...i", tensor.A0, hess)
    else:
        Av, Ag = tensor.A_jet(x, 1)
        f = np.einsum("...ijab,...jab->...i", Av, hess)
        divA = np.einsum("...ijaba->...ijb", Ag)
        f += np.einsum("...ijb,...jb->...i", divA, grad)
    if np.any(tensor.B0):
        f += np.einsum("ija,...ja->...i", tensor.B0, grad)
    if np.any(tensor.C0):
        f += np.einsum("ijb,...jb->...i", tensor.C0, grad)
    if np.any(tensor.D0):
        f += np.einsum("ij,...j->...i", tensor.D0, value)
    return f
