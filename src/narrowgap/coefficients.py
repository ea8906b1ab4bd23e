"""Coefficient fields of the divergence-form system and their hypotheses.

The operator is

    d_a ( A^{ab}_{ij}(x) d_b u^j + B^a_{ij} u^j ) + C^b_{ij} d_b u^j
        + D_{ij} u^j    (sum a, b = 1, 2;  i, j = 1..N),

with A bounded, the vertical block A^{22} uniformly elliptic (its positive
definiteness is what makes the correction coefficients uniquely solvable),
and A C2.  The region is planar (``geometry.DIM``), so every spatial axis
has length 2.  Array layout:  A(x)[..., i, j, a, b],  B0[i, j, a],
C0[i, j, b],  D0[i, j];  derivative axes are appended last.

Only A varies with x: it is a constant base A0 plus an optional polynomial
perturbation s * p(x) * T, which is enough to exercise every
variable-coefficient code path while keeping derivatives exact.  B, C and D
are the constants B0, C0 and D0, which callers read directly.
"""

from __future__ import annotations

from dataclasses import dataclass

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

def _elasticity_symmetric(A0):
    if A0.shape[0] != DIM:
        return False
    return (np.allclose(A0, np.transpose(A0, (1, 0, 3, 2)), atol=1e-12)
            and np.allclose(A0, np.transpose(A0, (2, 1, 0, 3)), atol=1e-12))


@dataclass(frozen=True)
class CoefficientTensor:
    """Constant coefficients with an optional A-perturbation.

    ``lam`` is the declared (pointwise Legendre) coercivity constant and
    ``Lambda1 <= Lambda2`` the declared bounds on the symmetric part of
    A^{22}; ``check_pointwise_ellipticity`` and ``check_ann`` measure the
    fields against them.
    """

    N: int
    A0: np.ndarray
    B0: np.ndarray
    C0: np.ndarray
    D0: np.ndarray
    perturb_scale: float = 0.0
    perturb_poly: MultiPoly | None = None
    perturb_dir: np.ndarray | None = None
    lam: float = 0.0
    Lambda1: float = 0.0
    Lambda2: float = 0.0
    is_elasticity: bool = False

    @property
    def is_constant(self):
        return self.perturb_scale == 0.0

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


def _finish(N, A0, B0, C0, D0, lam, Lambda1, Lambda2):
    A0 = np.asarray(A0, dtype=float)
    if A0.shape != (N, N, DIM, DIM):
        raise ConstructionError(f"A must have shape {(N, N, DIM, DIM)}, got {A0.shape}")
    B0 = np.zeros((N, N, DIM)) if B0 is None else np.asarray(B0, dtype=float)
    C0 = np.zeros((N, N, DIM)) if C0 is None else np.asarray(C0, dtype=float)
    D0 = np.zeros((N, N)) if D0 is None else np.asarray(D0, dtype=float)
    return CoefficientTensor(N=N, A0=A0, B0=B0, C0=C0, D0=D0,
                             lam=lam, Lambda1=Lambda1, Lambda2=Lambda2,
                             is_elasticity=_elasticity_symmetric(A0))


def make_laplace(N: int = 1) -> CoefficientTensor:
    """Decoupled Laplacians: A^{ab}_{ij} = delta_ij delta_ab, B = C = D = 0."""
    A0 = np.einsum("ij,ab->ijab", np.eye(N), np.eye(DIM))
    return _finish(N, A0, None, None, None, 1.0, 1.0, 1.0)


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
    return _finish(DIM, A0, None, None, None,
                   min(2 * mu, DIM * lam + 2 * mu), mu, lam + 2 * mu)


def make_perturbed(base: CoefficientTensor, poly: MultiPoly, scale: float, reach,
                   direction: np.ndarray | None = None) -> CoefficientTensor:
    """A(x) = A0 + scale * p(x) * T with T defaulting to the base A0 itself.

    ``reach`` holds the largest |x1| and |x2| the tensor is evaluated at, so
    |scale p| <= f = |scale| * ``poly.bound(reach)`` there.  A is affine in
    scale p, the least eigenvalues of sym(A^{22}) and of the Legendre
    quotient are concave in it and the greatest is convex, so each extreme
    over the box is met at A0 - f T or A0 + f T: those two tensors give the
    declared constants, floored at 0 (positivity only) where f can reach it.
    """
    if direction is None:
        direction = base.A0
    direction = np.asarray(direction, dtype=float)
    if direction.shape != base.A0.shape:
        raise ConstructionError("perturbation direction must match A's shape")
    f = abs(scale) * poly.bound(reach)
    ends = base.A0 + np.multiply.outer([-f, f], direction)
    is_elasticity = base.is_elasticity and _elasticity_symmetric(direction)
    ev = _sym_eigs(ends[..., 1, 1])
    return CoefficientTensor(
        N=base.N, A0=base.A0, B0=base.B0, C0=base.C0, D0=base.D0,
        perturb_scale=float(scale), perturb_poly=poly, perturb_dir=direction,
        lam=max(float(_legendre_min(ends, is_elasticity).min()), 0.0),
        Lambda1=max(float(ev[:, 0].min()), 0.0), Lambda2=float(ev[:, -1].max()),
        is_elasticity=is_elasticity)


def make_custom(N, A0, B0=None, C0=None, D0=None, lam=0.0, Lambda1=None, Lambda2=None):
    A0 = np.asarray(A0, dtype=float)
    ev = _sym_eigs(A0[None, :, :, 1, 1])[0]
    return _finish(N, A0, B0, C0, D0, lam,
                   float(ev[0]) if Lambda1 is None else Lambda1,
                   float(ev[-1]) if Lambda2 is None else Lambda2)


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticityReport:
    min_quotient: float        # exact minimum over the sampled x (eigenvalue based)
    declared: float
    passed: bool
    symmetric_xi: bool
    at: tuple

    def __str__(self):
        mode = "symmetric-xi" if self.symmetric_xi else "full-xi"
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] pointwise Legendre ({mode}): min quotient "
                f"{self.min_quotient:.6g} vs declared {self.declared:.6g} at {self.at}")


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
    restricted to symmetric xi for elasticity tensors.
    """
    points = _sample_region_points(region, 5)
    quotients = _legendre_min(tensor.A(points), tensor.is_elasticity)
    kmin = int(np.argmin(quotients))
    min_quotient = float(quotients[kmin])
    passed = min_quotient > 0 and min_quotient >= tensor.lam * (1 - 1e-9)
    return EllipticityReport(min_quotient, tensor.lam, passed, tensor.is_elasticity,
                             tuple(round(float(v), 12) for v in points[kmin]))


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

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] A^nn spectrum in [{self.lambda1_est:.6g}, {self.lambda2_est:.6g}]"
                f" vs declared {self.declared}")


def check_ann(tensor: CoefficientTensor, region) -> AnnReport:
    """Extreme eigenvalues of sym(A^{22}) at 5 samples per axis of ``region``.

    Raises HypothesisViolationError when the minimum is not positive, since
    the correction-coefficient solve would then be ill-posed.
    """
    points = _sample_region_points(region, 5)
    ev = _sym_eigs(tensor.A(points)[..., 1, 1])
    kmin = int(np.argmin(ev[:, 0]))
    lo, hi = float(ev[:, 0].min()), float(ev[:, -1].max())
    if lo <= 0:
        raise HypothesisViolationError(
            f"A^nn loses positive definiteness at x = "
            f"{tuple(float(v) for v in points[kmin])} (min eig {lo:.3g})")
    passed = (bool(np.isfinite([lo, hi]).all()) and lo >= tensor.Lambda1 * (1 - 1e-9)
              and hi <= tensor.Lambda2 * (1 + 1e-9))
    return AnnReport(lo, hi, (tensor.Lambda1, tensor.Lambda2), passed)
