"""References and fixtures that only the tests read.

The package computes each of these another way, or has no run that needs
it; the tests compare against them:
- the closed-form Lame correction (``lame_correction``, ``_lame_kernel``),
  against which the vertical-block solve of ``ansatz._generic_kernel`` is
  checked, and the correction rows and sums of a field;
- the coefficients as per-sample arrays (``per_sample``, ``ref_A_derivs``):
  A0 copied to every point, and A with its gradient and Hessian written
  out per derivative order, which the contraction over A0 and
  ``CoefficientTensor.A_jet`` must reproduce;
- the symmetry test of a stencil table (``_symmetric``): a run reads the
  symmetry from the tensor instead, since a symmetric tensor gives a
  symmetric table by construction;
- sampled C2 norms (``estimate_c2_norms``), the reference for
  ``BoundaryTraces.c2_total``;
- a manufactured solution, its forcing and a solver for the forced problem
  (``TrigSolution``, ``manufactured_forcing``, ``forced_right_hand_side``,
  ``solve_manufactured``): the package's problem carries no forcing;
- the inverse box map (``vbar``, ``to_box``) and region membership
  (``contains``);
- the profile derivatives as written for d = n - 1 tangential axes
  (``RefProfile``, ``ref_gap``: they are passed x1[..., None]), against
  which every entry of the profile and gap jets is checked bit for bit at
  d = 1;
- one boundary-value solve (``solve_one``) and one sweep (``sweep``)
  through the calls a run makes;
- the flat profile ``FLAT``, the Dirichlet mask of a system
  (``dirichlet_mask``) and the interpolant of a solution's values
  (``value_at``), which no run builds.
"""

from dataclasses import dataclass

import numpy as np

from narrowgap.ansatz import _generic_kernel, apply_operator, build_ansatz
from narrowgap.coefficients import ConstructionError
from narrowgap.discretize import (assemble, box_jacobian, dirichlet_values, right_hand_side,
                                  solve_bvp, transform_operator)
from narrowgap.experiments import SweepRequest, _eps_list, run_sweeps
from narrowgap.geometry import _PATCH_TOL, GeometryError, PowerProfile, _safe_pow


FLAT = PowerProfile(0.0, 2)          # h = 0: a flat strip from a pair of them


# ---------------------------------------------------------------------------
# correction rows
# ---------------------------------------------------------------------------

def _lame_kernel(params, region, x1, order):
    """Closed-form kernel rows for the isotropic elasticity tensor:

        Q_1 = k_t d_1 delta e_2,  k_t = (lam+mu)/(lam+2mu),
        Q_2 = k_n d_1 delta e_1,  k_n = (lam+mu)/mu,

    linear in d_1 delta, so each derivative order just differentiates it.
    """
    k_t = (params.lam + params.mu) / (params.lam + 2 * params.mu)
    k_n = (params.lam + params.mu) / params.mu
    out = []
    for D in region.delta_jet(x1, order + 1)[1:]:
        Q = np.zeros(D.shape + (2, 2))                 # Q[..., l, i]
        Q[..., 0, 1] = k_t * D
        Q[..., 1, 0] = k_n * D
        out.append(Q)
    return out


def _correction_rows(kernel, traces, x1):
    """Rows G_l = (phi^l - psi^l) Q_l at x1, shape (..., N, N)."""
    return traces.diff_jet(x1, 0)[0][..., None] * kernel[0]


def correction_coeffs(tensor, region, traces, x1):
    """All correction vectors at x1: rows l of the returned (..., N, N) array.

    Solves the N x N vertical-block system per l; raises
    HypothesisViolationError if that block is numerically singular.
    """
    return _correction_rows(_generic_kernel(tensor, region, x1, 0), traces, x1)


def lame_correction(params, region, traces, x1):
    """Closed-form correction rows for the isotropic elasticity tensor."""
    params.validate()
    if traces.N != 2:
        raise ConstructionError("elasticity requires N == n traces")
    return _correction_rows(_lame_kernel(params, region, x1, 0), traces, x1)


def correction_sum(af, x1):
    """[S, S', S''] of the field ``af`` with S = sum_l G_l, each (..., N)."""
    return af._correction_sum(x1, af.traces.diff_jet(x1, 2), 2)


# ---------------------------------------------------------------------------
# coefficients per sample
# ---------------------------------------------------------------------------

def per_sample(V0, x):
    """The constant coefficient V0 copied to every point of x (..., 2)."""
    return np.broadcast_to(V0, np.shape(x)[:-1] + np.shape(V0)).copy()


def ref_A_derivs(tensor, x):
    """A, grad A and hess A at x (..., 2) as one evaluator per order writes
    them, derivative axes last; zero derivatives for a constant tensor."""
    x = np.asarray(x, dtype=float)
    A = per_sample(tensor.A0, x)
    dA, d2A = np.zeros(A.shape + (2,)), np.zeros(A.shape + (2, 2))
    if not tensor.is_constant:
        p, s, T = tensor.perturb_poly, tensor.perturb_scale, tensor.perturb_dir
        g = np.stack([p.diff(a).value(x) for a in range(2)], axis=-1)
        h = np.stack([np.stack([p.diff(a).diff(b).value(x) for b in range(2)], axis=-1)
                      for a in range(2)], axis=-2)
        A += (s * p.value(x))[..., None, None, None, None] * T
        dA += T[..., None] * (s * g)[..., None, None, None, None, :]
        d2A += T[..., None, None] * (s * h)[..., None, None, None, None, :, :]
    return A, dA, d2A


# ---------------------------------------------------------------------------
# C2 norms
# ---------------------------------------------------------------------------

def estimate_c2_norms(field, lo, hi, samples: int = 21) -> float:
    """max over a sample grid of |f| + |grad f| + |hess f| on the box [lo, hi].

    ``field`` carries exact value/grad/hess methods.  Vector/tensor values
    are measured in the Frobenius norm.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = len(lo)
    axes = [np.linspace(lo[a], hi[a], samples) for a in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)

    v, g, h = field.value(pts), field.grad(pts), field.hess(pts)
    P = len(pts)
    total = (_frob(v, P) + _frob(g, P) + _frob(h, P))
    return float(total.max())


def _frob(arr, P):
    return np.sqrt(np.sum(np.asarray(arr, dtype=float).reshape(P, -1) ** 2, axis=-1))


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigSolution:
    """u_i = sin(x_1) x_n for even i, cos(x_1) x_n for odd i."""

    N: int
    n: int

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0], x[..., -1]

    def value(self, x):
        x1, xn = self._parts(x)
        cols = [np.sin(x1) * xn if i % 2 == 0 else np.cos(x1) * xn
                for i in range(self.N)]
        return np.stack(cols, axis=-1)

    def grad(self, x):
        x1, xn = self._parts(x)
        out = np.zeros(np.shape(x1) + (self.N, self.n))
        for i in range(self.N):
            f, fp = (np.sin, np.cos) if i % 2 == 0 else (np.cos, lambda z: -np.sin(z))
            out[..., i, 0] = fp(x1) * xn
            out[..., i, -1] = f(x1)
        return out

    def hess(self, x):
        x1, xn = self._parts(x)
        out = np.zeros(np.shape(x1) + (self.N, self.n, self.n))
        for i in range(self.N):
            f, fp = (np.sin, np.cos) if i % 2 == 0 else (np.cos, lambda z: -np.sin(z))
            out[..., i, 0, 0] = -f(x1) * xn
            out[..., i, 0, -1] = fp(x1)
            out[..., i, -1, 0] = fp(x1)
        return out


def manufactured_forcing(tensor, mms):
    """F with L[mms] = -F, so mms solves the forced problem exactly."""

    def F(x):
        x = np.asarray(x, dtype=float)
        return -apply_operator(tensor, x, mms.grad(x), mms.hess(x))

    return F


def _symmetric(W: dict, pairs: dict) -> bool:
    """K_ff == K_ff^T: each block against its mirror, W[o][p] == W[-o][p + o]^T.

    ``pairs`` is ``discretize._free_pairs`` of the table W.  The test for
    -o is that for o transposed, so each pair is tested once.
    """
    mirror = {o: tuple(-k for k in o) for o in pairs}
    return all(np.array_equal(W[o][src], np.swapaxes(W[mirror[o]][tgt], -1, -2))
               for o, (src, tgt, _) in pairs.items() if o >= mirror[o])


def dirichlet_mask(ls):
    """The Dirichlet unknowns of ls, a bool mask of length N * nodes.

    Unknown i * nodes + p is fixed when node p lies on the boundary of the
    grid, for every component i.
    """
    boundary = np.ones(ls.grid.shape, dtype=bool)
    boundary[1:-1, 1:-1] = False
    return np.tile(boundary.ravel(), ls.N)


def forced_right_hand_side(ls, boundary_values, Ftil):
    """Dirichlet values on the boundary rows, -Ftil (*shape, N) on the interior rows."""
    b = right_hand_side(ls, boundary_values)
    interior = ~dirichlet_mask(ls).reshape(b.shape)
    b[interior] = -np.moveaxis(Ftil, -1, 0)[interior]
    return b


def solve_manufactured(tensor, region, grid, mms):
    """(DiscreteField, SolveReport) of the problem that ``mms`` solves exactly.

    The system is assembled as a run assembles it.  The exact values go on
    the Dirichlet rows and -delta F, the transformed forcing of
    ``manufactured_forcing``, on the interior rows; ``solve_bvp`` solves it
    as a stack of one, and its SolverError raises.
    """
    jacobian = box_jacobian(region, grid)
    ls = assemble(transform_operator(tensor, region, grid, jacobian))
    X1, T = grid.node_coords()
    x = region.from_box(X1, T)
    Ftil = region.delta(X1)[..., None] * manufactured_forcing(tensor, mms)(x)
    (got,), _ = solve_bvp(ls, region, forced_right_hand_side(ls, mms.value(x), Ftil)[None],
                          jacobian)
    if isinstance(got, Exception):
        raise got
    return got


def value_at(df, x1, t):
    """(..., N) bilinear interpolant of the nodal solution of ``df`` at (x1, t)."""
    return df._interpolate(df.values, x1, t)


# ---------------------------------------------------------------------------
# the inverse box map
# ---------------------------------------------------------------------------

def _full_points(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise GeometryError(f"expected points with last axis 2, got shape {x.shape}")
    return x


def vbar(region, x):
    """v(x) = (x_2 - h2(x1)) / delta(x1) at physical points x (..., 2)."""
    x = _full_points(x)
    x1, x2 = x[..., 0], x[..., 1]
    t = (x2 - region.profiles.h2.jet(x1, 0)[0]) / region.delta(x1)
    if np.any(t < -1e-10) or np.any(t > 1 + 1e-10):
        bad = x.reshape(-1, 2)[np.argmax(np.abs(t - 0.5).reshape(-1))]
        raise GeometryError(f"point {tuple(map(float, bad))} outside the closed region")
    return t


def to_box(region, x):
    """Map a physical point to (x1, t) with t = v(x) in [0, 1]."""
    x = _full_points(x)
    return x[..., 0].copy(), vbar(region, x)


def contains(region, x):
    """Whether each physical point x (..., 2) lies in the closed region."""
    x = _full_points(x)
    x1, x2 = x[..., 0], x[..., 1]
    inside = x1 * x1 <= (2 * region.R0) ** 2 * (1 + _PATCH_TOL)
    lo = region.profiles.h2.jet(x1, 0)[0]
    hi = region.epsilon + region.profiles.h1.jet(x1, 0)[0]
    slack = _PATCH_TOL * (region.epsilon + np.abs(hi) + np.abs(lo))
    return inside & (x2 >= lo - slack) & (x2 <= hi + slack)


# ---------------------------------------------------------------------------
# profile derivatives with tangential axes
# ---------------------------------------------------------------------------

class RefProfile:
    """value/grad/hess/third of a profile over d tangential axes, shapes
    (...), (..., d), (..., d, d) and (..., d, d, d).

    The formulas hold for any n: a radial power coef |x'|^m, or a
    polynomial in x1 evaluated with ``np.polynomial``.  At d = 1 each entry
    of a profile's x1-jet must equal them bit for bit.
    """

    def __init__(self, profile):
        self.profile = profile

    def _poly(self, xp, deriv):
        xp = np.asarray(xp, dtype=float)
        if xp.shape[-1] != 1:
            raise GeometryError("PolyProfile is defined for a 1-d tangential space")
        p = np.polynomial.Polynomial(self.profile.coeffs)
        return p.deriv(deriv)(xp[..., 0]) if deriv else p(xp[..., 0])

    def value(self, xp):
        if not isinstance(self.profile, PowerProfile):
            return self._poly(xp, 0)
        xp = np.asarray(xp, dtype=float)
        r2 = np.sum(xp * xp, axis=-1)
        return self.profile.coef * r2 ** (self.profile.power / 2.0)

    def grad(self, xp):
        if not isinstance(self.profile, PowerProfile):
            return self._poly(xp, 1)[..., None]
        xp = np.asarray(xp, dtype=float)
        c, m = self.profile.coef, self.profile.power
        r2 = np.sum(xp * xp, axis=-1)
        fac = c * m * _safe_pow(r2, (m - 2) / 2.0)
        return fac[..., None] * xp

    def hess(self, xp):
        if not isinstance(self.profile, PowerProfile):
            return self._poly(xp, 2)[..., None, None]
        xp = np.asarray(xp, dtype=float)
        c, m = self.profile.coef, self.profile.power
        r2 = np.sum(xp * xp, axis=-1)
        eye = np.eye(xp.shape[-1])
        f1 = c * m * (m - 2) * _safe_pow(r2, (m - 4) / 2.0)
        f2 = c * m * _safe_pow(r2, (m - 2) / 2.0)
        return (f1[..., None, None] * xp[..., :, None] * xp[..., None, :]
                + f2[..., None, None] * eye)

    def third(self, xp):
        if not isinstance(self.profile, PowerProfile):
            return self._poly(xp, 3)[..., None, None, None]
        xp = np.asarray(xp, dtype=float)
        c, m = self.profile.coef, self.profile.power
        r2 = np.sum(xp * xp, axis=-1)
        eye = np.eye(xp.shape[-1])
        f1 = c * m * (m - 2) * (m - 4) * _safe_pow(r2, (m - 6) / 2.0)
        f2 = c * m * (m - 2) * _safe_pow(r2, (m - 4) / 2.0)
        xxx = xp[..., :, None, None] * xp[..., None, :, None] * xp[..., None, None, :]
        sym = (eye[:, :, None] * xp[..., None, None, :]
               + eye[:, None, :] * xp[..., None, :, None]
               + eye[None, :, :] * xp[..., :, None, None])
        return f1[..., None, None, None] * xxx + f2[..., None, None, None] * sym


REF_DERIVS = ("value", "grad", "hess", "third")


def ref_gap(region, fn, xp):
    """``fn`` (one of ``REF_DERIVS``) of h1 - h2 with tangential axes."""
    p = region.profiles
    return getattr(RefProfile(p.h1), fn)(xp) - getattr(RefProfile(p.h2), fn)(xp)


# ---------------------------------------------------------------------------
# one solve, one sweep
# ---------------------------------------------------------------------------

def solve_one(tensor, region, traces, grid):
    """(DiscreteField, SolveReport) of one set of boundary data; its error raises.

    The system is assembled, and the lateral faces come from the ansatz of
    (tensor, region, traces), as at a sweep point.
    """
    jacobian = box_jacobian(region, grid)
    system = assemble(transform_operator(tensor, region, grid, jacobian))
    rhs = right_hand_side(system, dirichlet_values(grid, traces, "ansatz",
                                                   build_ansatz(tensor, region, traces)))
    (got,), _ = solve_bvp(system, region, rhs[None], jacobian)
    if isinstance(got, Exception):
        raise got
    return got


def sweep(cfg, stat_names, eps_list=None) -> dict:
    """Solve per eps (base and refined grid) and evaluate named statistics.

    Returns one SweepResult per statistic; the solves are shared across
    statistics.  A failed solve raises.
    """
    req = SweepRequest(cfg, tuple(stat_names),
                       tuple(eps_list) if eps_list is not None else _eps_list(cfg))
    out, = run_sweeps([req])
    if out.error is not None:
        raise out.error
    return out.results
