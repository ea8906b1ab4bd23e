"""Coefficient fields of the divergence-form system and their hypotheses.

The operator is

    d_a ( A^{ab}_{ij}(x) d_b u^j + B^a_{ij}(x) u^j ) + C^b_{ij}(x) d_b u^j
        + D_{ij}(x) u^j    (sum a, b = 1..n;  i, j = 1..N),

with A bounded, the vertical block A^{nn} uniformly elliptic (its positive
definiteness is what makes the correction coefficients uniquely solvable),
and all fields C2.  Array layout:  A(x)[..., i, j, a, b],  B(x)[..., i, j, a],
C(x)[..., i, j, b],  D(x)[..., i, j];  derivative axes are appended last.

Tensors here are a constant base plus an optional polynomial perturbation
s * p(x) * T of the second-order block, which is enough to exercise every
variable-coefficient code path while keeping derivatives exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class HypothesisViolationError(RuntimeError):
    """A declared ellipticity/boundedness hypothesis fails at a sampled point."""


class ConstructionError(ValueError):
    """Inconsistent tensor construction parameters."""


# ---------------------------------------------------------------------------
# scalar polynomials on R^n (exact derivatives for perturbed tensors)
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

    def diff(self, axis):
        terms = []
        for c, ex in self.terms:
            if ex[axis] > 0:
                new = list(ex)
                new[axis] -= 1
                terms.append((c * ex[axis], tuple(new)))
        return MultiPoly(terms or [(0.0, self.terms[0][1] if self.terms else (0,))])

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return np.stack([self.diff(a).value(x) for a in range(n)], axis=-1)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        cols = [[self.diff(a).diff(b).value(x) for b in range(n)] for a in range(n)]
        return np.stack([np.stack(row, axis=-1) for row in cols], axis=-2)


# ---------------------------------------------------------------------------
# the tensor
# ---------------------------------------------------------------------------

def _elasticity_symmetric(A0, tol=1e-12):
    N, _, n, _ = A0.shape
    if N != n:
        return False
    return (np.allclose(A0, np.transpose(A0, (1, 0, 3, 2)), atol=tol)
            and np.allclose(A0, np.transpose(A0, (2, 1, 0, 3)), atol=tol))


@dataclass(frozen=True)
class CoefficientTensor:
    """Constant-base coefficient fields with an optional A-perturbation.

    ``lam`` is the declared (pointwise Legendre) coercivity constant and
    ``Lambda1 <= Lambda2`` the declared bounds on the symmetric part of
    A^{nn}; ``check_pointwise_ellipticity`` and ``check_ann`` measure the
    fields against them.
    """

    n: int
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

    def _lead(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ConstructionError(f"points must have last axis {self.n}")
        return x, x.shape[:-1]

    def _pfield(self, x, order):
        """Perturbation factor s * d^order p(x), or None for constant tensors."""
        if self.is_constant:
            return None
        p = self.perturb_poly
        fn = {0: p.value, 1: p.grad, 2: p.hess}[order]
        return self.perturb_scale * fn(x)

    def A(self, x):
        x, lead = self._lead(x)
        base = np.broadcast_to(self.A0, lead + self.A0.shape).copy()
        f = self._pfield(x, 0)
        if f is not None:
            base += f[..., None, None, None, None] * self.perturb_dir
        return base

    def A_grad(self, x):
        """d_g A, shape (..., N, N, n, n, n) with the derivative axis last."""
        x, lead = self._lead(x)
        out = np.zeros(lead + self.A0.shape + (self.n,))
        f = self._pfield(x, 1)
        if f is not None:
            out += (self.perturb_dir[..., None]
                    * f[..., None, None, None, None, :])
        return out

    def A_hess(self, x):
        x, lead = self._lead(x)
        out = np.zeros(lead + self.A0.shape + (self.n, self.n))
        f = self._pfield(x, 2)
        if f is not None:
            out += (self.perturb_dir[..., None, None]
                    * f[..., None, None, None, None, :, :])
        return out

    def B(self, x):
        x, lead = self._lead(x)
        return np.broadcast_to(self.B0, lead + self.B0.shape).copy()

    def B_grad(self, x):
        x, lead = self._lead(x)
        return np.zeros(lead + self.B0.shape + (self.n,))

    def C(self, x):
        x, lead = self._lead(x)
        return np.broadcast_to(self.C0, lead + self.C0.shape).copy()

    def D(self, x):
        x, lead = self._lead(x)
        return np.broadcast_to(self.D0, lead + self.D0.shape).copy()

    def Ann(self, x):
        return self.A(x)[..., :, :, self.n - 1, self.n - 1]


def _finish(n, N, A0, B0, C0, D0, lam, Lambda1, Lambda2):
    A0 = np.asarray(A0, dtype=float)
    if A0.shape != (N, N, n, n):
        raise ConstructionError(f"A must have shape {(N, N, n, n)}, got {A0.shape}")
    B0 = np.zeros((N, N, n)) if B0 is None else np.asarray(B0, dtype=float)
    C0 = np.zeros((N, N, n)) if C0 is None else np.asarray(C0, dtype=float)
    D0 = np.zeros((N, N)) if D0 is None else np.asarray(D0, dtype=float)
    return CoefficientTensor(n=n, N=N, A0=A0, B0=B0, C0=C0, D0=D0,
                             lam=lam, Lambda1=Lambda1, Lambda2=Lambda2,
                             is_elasticity=_elasticity_symmetric(A0))


def make_laplace(n: int, N: int = 1) -> CoefficientTensor:
    """Decoupled Laplacians: A^{ab}_{ij} = delta_ij delta_ab, B = C = D = 0."""
    eye_N, eye_n = np.eye(N), np.eye(n)
    A0 = np.einsum("ij,ab->ijab", eye_N, eye_n)
    return _finish(n, N, A0, None, None, None, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class LameParameters:
    """Isotropic elasticity constants; requires mu > 0 and n*lam + 2*mu > 0."""

    lam: float
    mu: float

    def validate(self, n):
        if self.mu <= 0:
            raise ConstructionError("mu must be positive")
        if n * self.lam + 2 * self.mu <= 0:
            raise ConstructionError("n*lam + 2*mu must be positive")


def make_lame(params: LameParameters, n: int) -> CoefficientTensor:
    """Isotropic elasticity tensor with N = n.

    A^{ab}_{ij} = lam d_ia d_jb + mu (d_ib d_aj + d_ij d_ab); the vertical
    block is A^{nn} = mu I + (lam + mu) e_n e_n^T, so (Lambda1, Lambda2) =
    (mu, lam + 2 mu).  On symmetric matrices the Legendre constant is
    min(2 mu, n lam + 2 mu).
    """
    params.validate(n)
    lam, mu = params.lam, params.mu
    eye = np.eye(n)
    A0 = (lam * np.einsum("ia,jb->ijab", eye, eye)
          + mu * (np.einsum("ib,ja->ijab", eye, eye) + np.einsum("ij,ab->ijab", eye, eye)))
    return _finish(n, n, A0, None, None, None,
                   min(2 * mu, n * lam + 2 * mu), mu, lam + 2 * mu)


def make_perturbed(base: CoefficientTensor, poly: MultiPoly, scale: float,
                   direction: np.ndarray | None = None,
                   lam: float = 0.0) -> CoefficientTensor:
    """A(x) = A0 + scale * p(x) * T with T defaulting to the base A0 itself.

    The scale must keep the sampled Legendre minimum positive; that is the
    caller's burden and is what check_pointwise_ellipticity verifies.  The
    declared coercivity constant defaults to 0 (positivity only) because the
    perturbation eats into the base constant by an amount that depends on
    the patch; pass a sharper ``lam`` when one is known.
    """
    if direction is None:
        direction = base.A0
    direction = np.asarray(direction, dtype=float)
    if direction.shape != base.A0.shape:
        raise ConstructionError("perturbation direction must match A's shape")
    return CoefficientTensor(
        n=base.n, N=base.N, A0=base.A0, B0=base.B0, C0=base.C0, D0=base.D0,
        perturb_scale=float(scale), perturb_poly=poly, perturb_dir=direction,
        lam=lam, Lambda1=base.Lambda1, Lambda2=base.Lambda2,
        is_elasticity=base.is_elasticity and _elasticity_symmetric(direction))


def make_custom(n, N, A0, B0=None, C0=None, D0=None, lam=0.0, Lambda1=None, Lambda2=None):
    A0 = np.asarray(A0, dtype=float)
    Ann = 0.5 * (A0[:, :, n - 1, n - 1] + A0[:, :, n - 1, n - 1].T)
    ev = np.linalg.eigvalsh(Ann)
    return _finish(n, N, A0, B0, C0, D0, lam,
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


def _symmetric_basis(n):
    basis = []
    for a in range(n):
        E = np.zeros((n, n))
        E[a, a] = 1.0
        basis.append(E)
    for a in range(n):
        for b in range(a + 1, n):
            E = np.zeros((n, n))
            E[a, b] = E[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(E)
    return np.array(basis)


def _sample_region_points(region, per_axis):
    """Interior sample grid of a NarrowRegion via its box map, (x1, t) order."""
    X1, T = np.meshgrid(np.linspace(-2 * region.R0, 2 * region.R0, per_axis + 2)[1:-1],
                        np.linspace(0.0, 1.0, per_axis + 2)[1:-1], indexing="ij")
    return region.from_box(X1.reshape(-1, 1), T.ravel())


def check_pointwise_ellipticity(tensor: CoefficientTensor, region,
                                symmetric_xi: bool | None = None) -> EllipticityReport:
    """Minimum Rayleigh quotient of A over sampled x and all matrices xi.

    The integral coercivity hypothesis is untestable directly; this measures
    the pointwise Legendre surrogate  A^{ab}_{ij} xi^i_a xi^j_b >= lam |xi|^2
    at 5 interior samples per axis of ``region``.  The per-point minimum
    over xi is exact: the smallest eigenvalue of the flattened (nN) x (nN)
    symmetric part, restricted to symmetric xi for elasticity tensors unless
    ``symmetric_xi`` says otherwise.
    """
    points = _sample_region_points(region, 5).reshape(-1, tensor.n)
    if symmetric_xi is None:
        symmetric_xi = tensor.is_elasticity

    n, N = tensor.n, tensor.N
    Avals = tensor.A(points)                                   # (P, N, N, n, n)
    Q = np.transpose(Avals, (0, 1, 3, 2, 4)).reshape(len(points), N * n, N * n)
    if symmetric_xi:
        if N != n:
            raise ConstructionError("symmetric-xi mode requires N == n")
        E = _symmetric_basis(n).reshape(-1, n * n)             # (K, n*n) orthonormal
        Q = np.einsum("kx,pxy,ly->pkl", E, Q, E)
    Qs = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
    ev = np.linalg.eigvalsh(Qs)
    kmin = int(np.argmin(ev[:, 0]))
    min_quotient = float(ev[kmin, 0])
    passed = min_quotient >= tensor.lam * (1 - 1e-9)
    return EllipticityReport(min_quotient, tensor.lam, passed, symmetric_xi,
                             tuple(round(float(v), 12) for v in points[kmin]))


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
    """Extreme eigenvalues of sym(A^{nn}) at 5 samples per axis of ``region``.

    Raises HypothesisViolationError when the minimum is not positive, since
    the correction-coefficient solve would then be ill-posed.
    """
    points = _sample_region_points(region, 5).reshape(-1, tensor.n)
    Ann = tensor.Ann(points)
    ev = np.linalg.eigvalsh(0.5 * (Ann + np.transpose(Ann, (0, 2, 1))))
    kmin = int(np.argmin(ev[:, 0]))
    lo, hi = float(ev[:, 0].min()), float(ev[:, -1].max())
    if lo <= 0:
        raise HypothesisViolationError(
            f"A^nn loses positive definiteness at x = "
            f"{tuple(float(v) for v in points[kmin])} (min eig {lo:.3g})")
    passed = (bool(np.isfinite([lo, hi]).all()) and lo >= tensor.Lambda1 * (1 - 1e-9)
              and hi <= tensor.Lambda2 * (1 + 1e-9))
    return AnnReport(lo, hi, (tensor.Lambda1, tensor.Lambda2), passed)
