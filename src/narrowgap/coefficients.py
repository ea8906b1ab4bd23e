"""Coefficient fields of the divergence-form system and their hypotheses.

The operator is

    d_a ( A^{ab}_{ij}(x) d_b u^j )    (sum a, b = 1, 2;  i, j = 1..N),

with A bounded, the vertical block A^{22} uniformly elliptic (its positive
definiteness is what makes the correction coefficients uniquely solvable),
and A C2.  The region is planar (``geometry.DIM``), so every spatial axis
has length 2.  Array layout:  A(x)[..., i, j, a, b];  derivative axes are
appended last.

It has no lower-order terms (derived here, not quoted from the paper): in a
gap of width delta a first-order term adds B^n (phi - psi) / delta to the
residual of the corrected ubar, a zeroth-order one O(|u|), and a residual f
with zero data on both faces moves the remainder's gradient by about
delta f (A^{22} inverts d_t^2 / delta^2): by O(1) and O(delta), below the
delta^{-1/m} order the correction removes, so no judged rate would move.

Only A varies with x: it is a constant base A0 plus an optional polynomial
perturbation s * p(x) * T, which is enough to exercise every
variable-coefficient code path while keeping derivatives exact.  Whether A
has the major symmetry A^{ab}_{ij} = A^{ba}_{ji} is read exactly from A0
and T (``CoefficientTensor.symmetric``), and the solver's stencil table and
factorization follow it.  A tensor is a function of its config block alone
and declares the constants of A0; the checks take a perturbed tensor's
bounds over the region they check (``_ends``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import DIM


class HypothesisViolationError(RuntimeError):
    """A declared ellipticity/boundedness hypothesis fails at a sampled point."""


class ConstructionError(ValueError):
    """Inconsistent tensor construction parameters."""


# ---------------------------------------------------------------------------
# scalar polynomials on the plane (exact derivatives for perturbed tensors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiPoly:
    """p(x) = sum_k coef_k * prod_a x_a^{e_ka}; terms = ((coef, exponents), ...)."""

    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple((float(c), tuple(int(e) for e in ex))
                                                for c, ex in terms))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for c, ex in self.terms:
            term = np.full(x.shape[:-1], c)
            for a, e in enumerate(ex):
                if e:
                    term = term * x[..., a] ** e
            out += term
        return out

    def bound(self, reach):
        """sum_k |coef_k| prod_a reach_a^{e_ka}: a bound of |p| wherever |x_a| <= reach_a."""
        return sum(abs(c) * np.prod([r ** e for r, e in zip(reach, ex)]) for c, ex in self.terms)

    def diff(self, axis):
        terms = []
        for c, ex in self.terms:
            if ex[axis] > 0:
                new = list(ex)
                new[axis] -= 1
                terms.append((c * ex[axis], tuple(new)))
        return MultiPoly(terms or [(0.0, self.terms[0][1] if self.terms else (0,))])

    def jet(self, x, order):
        """[p, grad p, hess p] at x up to ``order``: shapes (...), (..., 2), (..., 2, 2)."""
        x = np.asarray(x, dtype=float)
        out = [self.value(x)]
        if order >= 1:
            out.append(np.stack([self.diff(a).value(x) for a in range(DIM)], axis=-1))
        if order >= 2:
            cols = [[self.diff(a).diff(b).value(x) for b in range(DIM)] for a in range(DIM)]
            out.append(np.stack([np.stack(row, axis=-1) for row in cols], axis=-2))
        return out


# ---------------------------------------------------------------------------
# the tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTensor:
    """Constant coefficients with an optional A-perturbation.

    ``lam`` is the declared (pointwise Legendre) coercivity constant and
    ``Lambda1 <= Lambda2`` the declared bounds on the symmetric part of
    A^{22}, those of A0; ``check_pointwise_ellipticity`` and ``check_ann``
    measure the fields against them (``_ends`` where A varies).
    """

    N: int
    A0: np.ndarray
    perturb_scale: float = 0.0
    perturb_poly: MultiPoly | None = None
    perturb_dir: np.ndarray | None = None
    lam: float = 0.0
    Lambda1: float = 0.0
    Lambda2: float = 0.0

    @property
    def is_constant(self):
        return self.perturb_scale == 0.0

    def _unchanged_by(self, *axes):
        """A0 and T equal their transposes by each of ``axes``, exactly."""
        return not any(np.any(A - np.transpose(A, ax)) for ax in axes
                       for A in (self.A0, self.perturb_dir) if A is not None)

    @property
    def symmetric(self):
        """A^{ab}_{ij} = A^{ba}_{ji} at every x: exactly, in A0 and in T."""
        return self._unchanged_by((1, 0, 3, 2))

    @property
    def is_elasticity(self):
        """N = 2 and A^{ab}_{ij} = A^{ba}_{ji} = A^{ib}_{aj} exactly, as for Lame."""
        return self.N == DIM and self._unchanged_by((1, 0, 3, 2), (2, 1, 0, 3))

    def A_jet(self, x, order):
        """[A, grad A, hess A] at x (..., 2) up to ``order``, derivative axes last.

        Shapes (..., N, N, 2, 2), then one more axis of length 2 per order;
        the derivatives of a constant tensor are zero.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != DIM:
            raise ConstructionError(f"points must have last axis {DIM}")
        lead = x.shape[:-1]
        out = [np.broadcast_to(self.A0, lead + self.A0.shape).copy()]
        out += [np.zeros(lead + self.A0.shape + (DIM,) * k) for k in range(1, order + 1)]
        if not self.is_constant:
            for k, p in enumerate(self.perturb_poly.jet(x, order)):
                f = self.perturb_scale * p
                out[k] += (self.perturb_dir[(...,) + (None,) * k]
                           * f[(..., None, None, None, None) + (slice(None),) * k])
        return out

    def A(self, x):
        return self.A_jet(x, 0)[0]


def _finish(N, A0, lam, Lambda1, Lambda2):
    A0 = np.asarray(A0, dtype=float)
    if A0.shape != (N, N, DIM, DIM):
        raise ConstructionError(f"A must have shape {(N, N, DIM, DIM)}, got {A0.shape}")
    return CoefficientTensor(N=N, A0=A0, lam=lam, Lambda1=Lambda1, Lambda2=Lambda2)


def make_laplace(N: int = 1) -> CoefficientTensor:
    """Decoupled Laplacians: A^{ab}_{ij} = delta_ij delta_ab."""
    A0 = np.einsum("ij,ab->ijab", np.eye(N), np.eye(DIM))
    return _finish(N, A0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class LameParameters:
    """Isotropic elasticity constants; requires mu > 0 and n*lam + 2*mu > 0 (n = 2)."""

    lam: float
    mu: float

    def validate(self):
        if self.mu <= 0:
            raise ConstructionError("mu must be positive")
        if DIM * self.lam + 2 * self.mu <= 0:
            raise ConstructionError("n*lam + 2*mu must be positive")


def make_lame(params: LameParameters) -> CoefficientTensor:
    """Isotropic elasticity tensor with N = 2.

    A^{ab}_{ij} = lam d_ia d_jb + mu (d_ib d_aj + d_ij d_ab); the vertical
    block is A^{22} = mu I + (lam + mu) e_2 e_2^T, so (Lambda1, Lambda2) =
    (mu, lam + 2 mu).  On symmetric matrices the Legendre constant is
    min(2 mu, 2 lam + 2 mu).
    """
    params.validate()
    lam, mu = params.lam, params.mu
    eye = np.eye(DIM)
    A0 = (lam * np.einsum("ia,jb->ijab", eye, eye)
          + mu * (np.einsum("ib,ja->ijab", eye, eye) + np.einsum("ij,ab->ijab", eye, eye)))
    return _finish(DIM, A0, min(2 * mu, DIM * lam + 2 * mu), mu, lam + 2 * mu)


def make_perturbed(base: CoefficientTensor, poly: MultiPoly, scale: float,
                   direction: np.ndarray | None = None) -> CoefficientTensor:
    """A(x) = A0 + scale * p(x) * T with T defaulting to the base A0 itself.

    It keeps the base's declared constants, those of A0 (``_ends``).
    """
    if direction is None:
        direction = base.A0
    direction = np.asarray(direction, dtype=float)
    if direction.shape != base.A0.shape:
        raise ConstructionError("perturbation direction must match A's shape")
    return replace(base, perturb_scale=float(scale), perturb_poly=poly, perturb_dir=direction)


def make_custom(N, A0):
    """A0 as given: lam 0, and (Lambda1, Lambda2) the extreme eigenvalues of sym(A0^{22})."""
    A0 = np.asarray(A0, dtype=float)
    ev = _sym_eigs(A0[None, :, :, 1, 1])[0]
    return _finish(N, A0, 0.0, float(ev[0]), float(ev[-1]))


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

def _ends(tensor: CoefficientTensor, region):
    """(f, the ends A0 - f T and A0 + f T) of a perturbed tensor over ``region``.

    f = |s| ``poly.bound(region.reach)`` bounds |s p| on the box |x_a| <=
    ``region.reach[a]``, which holds every point a command reads A at: the
    solver's nodes at each eps up to the region's, on both grids, the
    ansatz's mid-gap points and the residual samples.  A is affine in s p,
    the least eigenvalues of sym(A^{22}) and of the Legendre quotient are
    concave in it and the greatest convex, so the ends meet each extreme.
    """
    f = abs(tensor.perturb_scale) * tensor.perturb_poly.bound(region.reach)
    return f, tensor.A0 + np.multiply.outer([-f, f], tensor.perturb_dir)


def _floored(f, least):
    """(lower bound, clause) from the least values at the ends: the lesser and
    "", or, where it is not positive, 0 and the clause that fails its record
    line, naming the bound and its end."""
    k = int(np.argmin(least))
    if least[k] > 0:
        return float(least[k]), ""
    return 0.0, (f"; bound {least[k]:.6g} over the reach, met at "
                 f"A0 {'-+'[k]} {f:.6g} T, floored at 0")


@dataclass(frozen=True)
class EllipticityReport:
    min_quotient: float        # exact minimum over the sampled x (eigenvalue based)
    declared: float
    passed: bool
    symmetric_xi: bool
    at: tuple
    floored: str = ""          # ``_floored``

    def __str__(self):
        mode = "symmetric-xi" if self.symmetric_xi else "full-xi"
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] pointwise Legendre ({mode}): min quotient "
                f"{self.min_quotient:.6g} vs declared {self.declared:.6g} at {self.at}"
                f"{self.floored}")


# an orthonormal basis of the symmetric 2 x 2 matrices: two diagonal, one off
_SYMMETRIC_BASIS = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                             np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)])


def _sample_region_points(region, per_axis):
    """(P, 2) interior sample points of a NarrowRegion via its box map, (x1, t) order."""
    r = region.profiles.patch_radius
    X1, T = np.meshgrid(np.linspace(-r, r, per_axis + 2)[1:-1],
                        np.linspace(0.0, 1.0, per_axis + 2)[1:-1], indexing="ij")
    return region.from_box(X1, T).reshape(-1, DIM)


def check_pointwise_ellipticity(tensor: CoefficientTensor, region) -> EllipticityReport:
    """Minimum Rayleigh quotient of A over sampled x and all matrices xi.

    The integral coercivity hypothesis is untestable directly; this measures
    the pointwise Legendre surrogate  A^{ab}_{ij} xi^i_a xi^j_b >= lam |xi|^2
    at 5 interior samples per axis of ``region``, with a positive minimum
    even under a declared lam of 0.  The per-point minimum over xi is exact:
    the smallest eigenvalue of the flattened (2N) x (2N) symmetric part,
    restricted to symmetric xi for elasticity tensors.  A perturbed tensor
    declares the least quotient at the ends over ``region`` (``_ends``).
    """
    points, symmetric_xi = _sample_region_points(region, 5), tensor.is_elasticity
    quotients = _legendre_min(tensor.A(points), symmetric_xi)
    kmin = int(np.argmin(quotients))
    min_quotient = float(quotients[kmin])
    declared, floored = tensor.lam, ""
    if not tensor.is_constant:
        f, ends = _ends(tensor, region)
        declared, floored = _floored(f, _legendre_min(ends, symmetric_xi))
    passed = min_quotient > 0 and min_quotient >= declared * (1 - 1e-9) and not floored
    return EllipticityReport(min_quotient, declared, passed, symmetric_xi,
                             tuple(round(float(v), 12) for v in points[kmin]), floored)


def _legendre_min(A, symmetric_xi):
    """Least Legendre quotient of each A in (P, N, N, 2, 2), over all or symmetric xi."""
    P, N = A.shape[:2]
    Q = np.transpose(A, (0, 1, 3, 2, 4)).reshape(P, N * DIM, N * DIM)
    if symmetric_xi:                                           # then N = 2
        E = _SYMMETRIC_BASIS.reshape(-1, DIM * DIM)            # (3, 4) orthonormal
        Q = np.einsum("kx,pxy,ly->pkl", E, Q, E)
    return _sym_eigs(Q)[:, 0]


def _sym_eigs(M):
    """Ascending eigenvalues of the symmetric part of each matrix in (P, k, k)."""
    return np.linalg.eigvalsh(0.5 * (M + np.transpose(M, (0, 2, 1))))


@dataclass(frozen=True)
class AnnReport:
    lambda1_est: float
    lambda2_est: float
    declared: tuple
    passed: bool
    floored: str = ""          # ``_floored``

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] A^nn spectrum in [{self.lambda1_est:.6g}, {self.lambda2_est:.6g}]"
                f" vs declared {self.declared}{self.floored}")


def check_ann(tensor: CoefficientTensor, region) -> AnnReport:
    """Extreme eigenvalues of sym(A^{22}) at 5 samples per axis of ``region``.

    Raises HypothesisViolationError when the minimum is not positive, since
    the correction-coefficient solve would then be ill-posed.  A perturbed
    tensor declares the extremes at the ends over ``region`` (``_ends``).
    """
    points = _sample_region_points(region, 5)
    ev = _sym_eigs(tensor.A(points)[..., 1, 1])
    kmin = int(np.argmin(ev[:, 0]))
    lo, hi = float(ev[:, 0].min()), float(ev[:, -1].max())
    if lo <= 0:
        raise HypothesisViolationError(
            f"A^nn loses positive definiteness at x = "
            f"{tuple(float(v) for v in points[kmin])} (min eig {lo:.3g})")
    declared, floored = (tensor.Lambda1, tensor.Lambda2), ""
    if not tensor.is_constant:
        f, ends = _ends(tensor, region)
        ev = _sym_eigs(ends[..., 1, 1])
        lower, floored = _floored(f, ev[:, 0])
        declared = (lower, float(ev[:, -1].max()))
    passed = (bool(np.isfinite([lo, hi]).all()) and lo >= declared[0] * (1 - 1e-9)
              and hi <= declared[1] * (1 + 1e-9) and not floored)
    return AnnReport(lo, hi, declared, passed, floored)
