"""Mapped-box finite differences: transform, assembly, solves, recovery."""

import gc
import threading
import time
import weakref
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp

from narrowgap.ansatz import (BoundaryTraces, PolyTrace, apply_operator,
                             build_ansatz)
from narrowgap.coefficients import (LameParameters, MultiPoly, make_custom, make_lame,
                                    make_laplace, make_perturbed)
from narrowgap.discretize import (AssemblyError, BoxGrid, DiscreteField, LinearSystem,
                                  SolverError, _free_pairs, assemble, box_jacobian,
                                  dirichlet_values, grid_for, right_hand_side, solve_bvp,
                                  solve_linear, transform_operator)
from narrowgap.geometry import GeometryError, NarrowRegion, ProfilePair, power_pair
from reference import (FLAT, TrigSolution, _symmetric, dirichlet_mask, forced_right_hand_side,
                       solve_manufactured, solve_one, value_at, vbar)


def const(*v):
    """A constant trace: one coefficient row of degree 0 per component."""
    return PolyTrace([[c] for c in v])


def flat_region(eps=1.0, R0=0.5):
    return NarrowRegion(ProfilePair(FLAT, FLAT, 2, 1, 1, 1, 1, R0), eps)


def curved_region(eps=0.05, m=2, upper=1.0, lower=0.0, R0=0.5):
    return NarrowRegion(power_pair(m, upper, lower, R0), eps)


LAP = make_laplace()
LAME = make_lame(LameParameters(1.0, 1.0))
THM11 = curved_region(eps=1e-2)                 # the thm11 geometry
_R = np.random.default_rng(0).normal(size=(2, 2, 2, 2))
# Lame plus a major-antisymmetric part, A^{ab}_{ij} = -A^{ba}_{ji}, which
# leaves the Legendre form as it is but makes the free block non-symmetric,
# so it factors by banded LU.  The perturbation runs along a second Lame
# direction, so A varies with x in a way A0 does not span.  Their cases
# keep the ids "bcd" and "perturbed_bcd", which they had when lower-order
# terms B, C and D made the block non-symmetric
SKEW = make_custom(2, LAME.A0 + 0.5 * (_R - np.transpose(_R, (1, 0, 3, 2))))
PERTURBED_SKEW = make_perturbed(
    SKEW, MultiPoly([(1.0, (1, 0)), (0.5, (0, 1)), (0.3, (1, 1))]), 0.1,
    (1.0, 1.1), direction=make_lame(LameParameters(2.0, 0.5)).A0)
# symmetric, but A^{12} = A^{21} = 3 > 1 leaves it not elliptic: its free
# block is indefinite
INDEFINITE = make_custom(1, np.reshape([1.0, 3.0, 3.0, 1.0], (1, 1, 2, 2)), lam=1.0)


def jacobian_matrix(region, x1, t):
    """G[a, A] = d y_a / d x_A: the identity row over grad v, shape (..., 2, 2)."""
    dv = region.vbar_grad(x1, t)
    G = np.zeros(dv.shape + (2,))
    G[..., 0, 0] = 1.0
    G[..., 1, :] = dv
    return G


def corner_loop_interpolant(grid, nodal, x1, t):
    """Interpolation at (x1, t) as the n-generic sum over the 2^n cell corners.

    Corner k takes bit a of k as its step along axis a; its weight is the
    product over the axes, axis 0 first.
    """
    coords = [np.asarray(x1, dtype=float), np.asarray(t, dtype=float)]
    fracs = [np.clip((c - ax[0]) / (ax[1] - ax[0]), 0.0, len(ax) - 1)
             for c, ax in zip(coords, grid.axes)]
    i0 = [np.minimum(np.floor(f).astype(int), s - 2) for f, s in zip(fracs, grid.shape)]
    w1 = [f - i for f, i in zip(fracs, i0)]
    n = len(fracs)
    out = 0.0
    for corner in range(1 << n):
        idx, w = [], 1.0
        for k in range(n):
            bit = (corner >> k) & 1
            idx.append(i0[k] + bit)
            w = w * (w1[k] if bit else (1.0 - w1[k]))
        out = out + nodal[tuple(idx)] * np.asarray(w)[..., None]
    return out


def _csr_reference(ls):
    """K scattered entry by entry from the block table into a CSR matrix.

    Entry (p, i, j) of W[o] sits at row i * nodes + p and column
    j * nodes + p + o, nodes numbered in C order over the whole grid; every
    Dirichlet unknown has an identity row.
    """
    shape, N, nodes = ls.grid.shape, ls.N, ls.grid.nodes
    interior = np.indices(tuple(s - 2 for s in shape)) + 1          # (n, *inner)
    rows, cols, vals = [], [], []
    for o, w in ls.blocks.items():
        p = np.ravel_multi_index(tuple(interior), shape).ravel()
        q = np.ravel_multi_index(tuple(interior + np.reshape(o, (-1,) + (1,) * len(shape))),
                                 shape).ravel()
        for i in range(N):
            for j in range(N):
                rows.append(i * nodes + p)
                cols.append(j * nodes + q)
                vals.append(w[..., i, j].ravel())
    fixed = np.flatnonzero(dirichlet_mask(ls))
    rows.append(fixed)
    cols.append(fixed)
    vals.append(np.ones(len(fixed)))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(N * nodes, N * nodes)).tocsr()


def _asymmetry(ls):
    """Relative Frobenius asymmetry of the reference free-free block."""
    free = ~dirichlet_mask(ls)
    K = _csr_reference(ls)[free][:, free]
    den = sp.linalg.norm(K)
    return float(sp.linalg.norm(K - K.T) / den) if den else 0.0


def _dirichlet_rows_are_identity(ls):
    """Every Dirichlet row is e_k, in the reference and through the operator.

    The operator is checked as (K x)_k = x_k for each Dirichlet unknown k on
    a random x, which an off-diagonal entry in row k would break.
    """
    idx = np.flatnonzero(dirichlet_mask(ls))
    sub = _csr_reference(ls)[idx]
    in_reference = (sub.nnz == len(idx)) and bool(np.all(sub[np.arange(len(idx)), idx] == 1.0))
    x = np.random.default_rng(2).normal(size=ls.matrix.shape[0])
    return in_reference and np.array_equal((ls.matrix @ x)[idx], x[idx])


# ---------------------------------------------------------------------------
# operator transform
# ---------------------------------------------------------------------------

class TestTransform:
    def test_flat_strip_is_pure_vertical_scaling(self):
        eps = 0.25
        reg = flat_region(eps=eps)
        grid = BoxGrid(9, 9, 1.0)
        tf = transform_operator(LAP, reg, grid, box_jacobian(reg, grid))
        # with the Jacobian convention Atil = delta G A G^T:
        # tangential block delta * A = eps, vertical block A^nn / eps
        assert np.allclose(tf.Atil[..., 0, 0, 0, 0], eps)
        assert np.allclose(tf.Atil[..., 0, 0, 1, 1], 1.0 / eps)
        assert np.allclose(tf.Atil[..., 0, 0, 0, 1], 0.0)

    @pytest.mark.parametrize("tensor, rel", [(LAME, 0.0), (LAP, 0.0),
                                             (PERTURBED_SKEW, 1e-15)],
                             ids=["lame", "laplace", "perturbed_bcd"])
    def test_contraction_matches_the_einsum_reference(self, tensor, rel):
        # delta * G A G^T as the three-operand einsum writes it; Lame and
        # Laplace agree bit for bit, an x-dependent A along another
        # direction to round-off
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(33, 17, 1.0)
        X1, T = grid.node_coords()
        X1 = X1[:, :1]
        G, x = jacobian_matrix(reg, X1, T), reg.from_box(X1, T)
        dlt = reg.delta(X1)[..., None, None, None, None]
        want = dlt * np.einsum("...aA,...ijAB,...bB->...ijab", G, tensor.A(x), G)
        tf = transform_operator(tensor, reg, grid, box_jacobian(reg, grid))
        if rel == 0.0:
            assert np.array_equal(tf.Atil, want)
        else:
            assert np.abs(tf.Atil - want).max() <= rel * np.abs(want).max()

    def test_ellipticity_inherited(self):
        # scalar case: the pulled-back form stays strictly positive definite;
        # the elasticity form keeps its PSD structure (it is only coercive on
        # the image of the symmetric cone, so 0 remains its exact floor)
        reg = curved_region(eps=1e-3, upper=1.0, lower=1.0)
        grid = BoxGrid(33, 9, 1.0)
        tf = transform_operator(LAP, reg, grid, box_jacobian(reg, grid))
        Qs = tf.Atil[..., 0, 0, :, :]
        ev = np.linalg.eigvalsh(0.5 * (Qs + np.swapaxes(Qs, -1, -2)))
        assert ev.min() > 0
        tfl = transform_operator(LAME, reg, grid, box_jacobian(reg, grid))
        Q = np.transpose(tfl.Atil, (0, 1, 2, 4, 3, 5)).reshape(grid.shape + (4, 4))
        evl = np.linalg.eigvalsh(0.5 * (Q + np.swapaxes(Q, -1, -2)))
        assert evl.min() >= -1e-12 * evl.max()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class TestAssemble:
    def test_matches_hand_coded_five_point_stencil(self):
        # unit flat strip: the interior rows must be the classical 5-point
        # Laplacian with the two mesh widths
        reg = flat_region(eps=1.0)
        grid = BoxGrid(17, 17, 1.0)
        tf = transform_operator(LAP, reg, grid, box_jacobian(reg, grid))
        ls = assemble(tf)
        hy, ht = grid.spacing
        ids = np.arange(grid.nodes).reshape(grid.shape)
        rows, cols, vals = [], [], []
        for i in range(1, 16):
            for j in range(1, 16):
                p = ids[i, j]
                for q, w in ((ids[i + 1, j], 1 / hy**2), (ids[i - 1, j], 1 / hy**2),
                             (ids[i, j + 1], 1 / ht**2), (ids[i, j - 1], 1 / ht**2),
                             (p, -2 / hy**2 - 2 / ht**2)):
                    rows.append(p)
                    cols.append(q)
                    vals.append(w)
        bmask = np.ones(grid.shape, bool)
        bmask[1:-1, 1:-1] = False
        for p in ids[bmask]:
            rows.append(p)
            cols.append(p)
            vals.append(1.0)
        K5 = sp.coo_matrix((vals, (rows, cols)),
                           shape=(grid.nodes, grid.nodes)).tocsr()
        assert abs(_csr_reference(ls) - K5).max() <= 1e-12
        dense = ls.matrix @ np.eye(grid.nodes)            # K through the operator
        assert np.abs(dense - K5.toarray()).max() <= 1e-12

    def test_dirichlet_rows_carry_trace_values(self):
        reg = curved_region()
        grid = BoxGrid(9, 7, 1.0)
        tr = BoundaryTraces(const(2.0), const(-0.5))
        af = build_ansatz(LAP, reg, tr)
        V = dirichlet_values(grid, tr, "ansatz", af)
        tf = transform_operator(LAP, reg, grid, box_jacobian(reg, grid))
        ls = assemble(tf)
        assert _dirichlet_rows_are_identity(ls)
        rhs = right_hand_side(ls, V)[0]
        assert np.allclose(rhs[:, -1], 2.0)
        assert np.allclose(rhs[:, 0], -0.5)

    def test_every_block_entry_matches_the_operator_on_quadratics(self):
        # constant coefficients: every centered stencil is exact on a
        # quadratic, so K u on the interior rows is L[u] to round-off.  A0
        # has no symmetry under i <-> j, a <-> b or both, so a block written
        # in the wrong orientation fails
        rng = np.random.default_rng(0)
        tensor = make_custom(2, rng.normal(size=(2, 2, 2, 2)))
        reg = flat_region(eps=1.0)
        grid = BoxGrid(9, 7, 1.0)
        X1, T = grid.node_coords()
        x = reg.from_box(X1, T)                   # unit flat strip: x = (x1, t)
        c, g, H = rng.normal(size=2), rng.normal(size=(2, 2)), rng.normal(size=(2, 2, 2))
        H = H + np.swapaxes(H, -1, -2)
        u = (c + np.einsum("ia,...a->...i", g, x)
             + 0.5 * np.einsum("iab,...a,...b->...i", H, x, x))
        grad = g + np.einsum("iab,...b->...ia", H, x)
        hess = np.broadcast_to(H, x.shape[:-1] + H.shape)
        want = np.moveaxis(apply_operator(tensor, x, u, grad, hess), -1, 0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        got = (ls.matrix @ np.moveaxis(u, -1, 0).ravel()).reshape(want.shape)
        interior = (slice(None), slice(1, -1), slice(1, -1))
        err = np.abs(got[interior] - want[interior]).max()
        assert err <= 1e-12 * np.abs(want[interior]).max()

    @pytest.mark.parametrize("closure", ["constant", "ansatz"])
    def test_lateral_faces_and_trace_corners(self, closure):
        # the faces x1 = +-1 carry the closure and t = 0, 1 the traces; the
        # traces are written last, so the four corners take them.  The
        # ansatz comes from other traces, so no lateral value equals a trace
        reg = curved_region()
        grid = BoxGrid(9, 7, 1.0)
        X1, T = grid.node_coords()
        tr = BoundaryTraces(const(2.0), const(-0.5))
        af = build_ansatz(LAP, reg, BoundaryTraces(const(5.0), const(7.0)))
        V = dirichlet_values(grid, tr, closure, af, lateral_value=[3.0])
        sides = [0, -1]
        lateral = (np.full((2, grid.shape[1], 1), 3.0) if closure == "constant"
                   else af.value(X1[sides], T[sides]))
        assert np.array_equal(V[sides, 1:-1], lateral[:, 1:-1])
        assert np.array_equal(V[:, 0], np.full((grid.shape[0], 1), -0.5))
        assert np.array_equal(V[:, -1], np.full((grid.shape[0], 1), 2.0))
        assert not np.any(lateral[:, [0, -1]] == V[sides][:, [0, -1]])

    @pytest.mark.parametrize("closure, message", [
        ("constant", "constant closure requires lateral_value"),
        ("ansatz", "ansatz closure requires an ansatz field"),
        ("exact", "unknown lateral closure 'exact'")])
    def test_a_closure_without_its_data_is_refused(self, closure, message):
        tr = BoundaryTraces(const(2.0), const(-0.5))
        with pytest.raises(AssemblyError, match=message):
            dirichlet_values(BoxGrid(9, 7, 1.0), tr, closure)

    def test_lame_matrix_numerically_symmetric(self):
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(33, 17, 1.0)
        tf = transform_operator(LAME, reg, grid, box_jacobian(reg, grid))
        ls = assemble(tf)
        assert _asymmetry(ls) <= 1e-12


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------

class TestSolveLinear:
    @staticmethod
    def _system(nodes_y=17, nodes_t=17):
        reg = flat_region(eps=1.0)
        grid = BoxGrid(nodes_y, nodes_t, 1.0)
        tf = transform_operator(LAP, reg, grid, box_jacobian(reg, grid))
        rng = np.random.default_rng(0)
        V = rng.normal(size=grid.shape + (1,))
        ls = assemble(tf)
        return ls, right_hand_side(ls, V)

    def test_identity_system(self):
        # identity Dirichlet rows and an identity stencil W[0] on the
        # interior: a symmetric table, but the free block's diagonal is
        # positive, so banded LU
        grid = BoxGrid(10, 5, 1.0)
        W0 = np.ones((grid.shape[0] - 2, grid.shape[1] - 2, 1, 1))
        ls = LinearSystem(grid, 1, {(0, 0): W0}, True)
        b = np.random.default_rng(1).normal(size=(1,) + grid.shape)
        (x,), (rep,), _ = solve_linear(ls, b[None])
        assert np.array_equal(x, b) and rep.method == "gbtrf"

    def test_direct_matches_dense_solve(self):
        ls, b = self._system()
        (x,), (rep,), _ = solve_linear(ls, b[None])
        dense = np.linalg.solve(_csr_reference(ls).toarray(), b.ravel())
        assert rep.method == "pbtrf"
        assert np.abs(x.ravel() - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())

    def test_residual_contract(self):
        ls, b = self._system()
        (x,), (rep,), _ = solve_linear(ls, b[None])
        x, b, K = x.ravel(), b.ravel(), _csr_reference(ls)
        back = np.linalg.norm(K @ x - b) / (sp.linalg.norm(K) * np.linalg.norm(x)
                                            + np.linalg.norm(b))
        assert back <= 1e-10 and rep.residual <= 1e-10

    def test_residual_above_tol_after_refinement_fails_its_row(self, monkeypatch):
        # no LU solve reaches a backward error of 1e-30, refined or not
        from narrowgap import discretize
        monkeypatch.setattr(discretize, "TOL", 1e-30)
        ls, b = self._system(33, 33)
        _, (err,), _ = solve_linear(ls, b[None])
        assert isinstance(err, SolverError) and str(err).endswith("above tol 1.0e-30")


class TestSharedFactorization:
    @staticmethod
    def _matches_spsolve(tensor, reg, grid):
        tf = transform_operator(tensor, reg, grid, box_jacobian(reg, grid))
        rng = np.random.default_rng(3)
        ls = assemble(tf)
        b = right_hand_side(ls, rng.normal(size=grid.shape + (tensor.N,)))
        (x,), (rep,), _ = solve_linear(ls, b[None])
        want = sp.linalg.spsolve(_csr_reference(ls).tocsc(), b.ravel())
        assert np.linalg.norm(x.ravel() - want) <= 1e-10 * np.linalg.norm(want)
        return ls, rep

    def test_lame_matches_full_system_spsolve(self):
        reg = curved_region(eps=1e-3, upper=1.0, lower=0.5)
        ls, rep = self._matches_spsolve(LAME, reg, BoxGrid(65, 17, 1.0))
        assert _asymmetry(ls) <= 1e-12
        assert rep.method == "pbtrf"

    def test_nonsymmetric_block_matches_full_system_spsolve(self):
        # A^{12} - A^{21} = 4 (1 + 0.5 x1) varies with x, which leaves a
        # first-order term: the free block is non-symmetric, so banded LU,
        # row pivoting.  A constant A^{12} - A^{21} would drop out
        tensor = make_perturbed(make_custom(1, np.reshape([1.0, 2.0, -2.0, 1.0], (1, 1, 2, 2))),
                                MultiPoly([(1.0, (1, 0))]), 0.5, (1.0, 1.1))
        ls, rep = self._matches_spsolve(tensor, curved_region(eps=0.05),
                                        BoxGrid(33, 17, 1.0))
        assert _asymmetry(ls) > 1e-3 and rep.method == "gbtrf"

    def test_indefinite_symmetric_block_falls_back_to_banded_lu(self):
        # a symmetric tensor that is not elliptic: the diagonal stays
        # negative but -K has positive eigenvalues, so Cholesky stops and
        # the same block is factored by banded LU
        ls, rep = self._matches_spsolve(INDEFINITE, flat_region(eps=1.0),
                                        BoxGrid(33, 17, 1.0))
        free = ~dirichlet_mask(ls)
        K = _csr_reference(ls).toarray()[free][:, free]
        assert _asymmetry(ls) == 0.0 and np.all(np.diag(K) < 0)
        assert np.linalg.eigvalsh(K).max() > 0 and rep.method == "gbtrf"

    def test_one_factorization_serves_every_right_hand_side(self, monkeypatch):
        from narrowgap import discretize
        calls = []
        for owner, entry in ((discretize._FreeBlockBand, "_cholesky"),
                             (discretize.lapack, "dgbtrf")):
            factor = getattr(owner, entry)
            monkeypatch.setattr(owner, entry,
                                lambda *a, _f=factor, **k: calls.append(1) or _f(*a, **k))
        reg = curved_region(eps=0.01)
        grid = BoxGrid(33, 9, 1.0)
        ls = assemble(transform_operator(LAME, reg, grid, box_jacobian(reg, grid)))
        B = np.random.default_rng(8).normal(size=(3, ls.N) + grid.shape)
        X, reports, times = solve_linear(ls, B)
        assert times["factor_s"] > 0 and len(reports) == 3
        for x, b in zip(X, B):
            assert np.linalg.norm(ls.matrix @ x.ravel() - b.ravel()) <= 1e-9 * np.linalg.norm(b)
        assert len(calls) == 1
        solve_linear(ls, B[:1])             # the system keeps no factorization
        assert len(calls) == 2


class TestStackedSolve:
    """Right-hand sides solved in one pass against one factorization."""

    @staticmethod
    def _stack(tensor, k, nodes=(33, 9)):
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(*nodes, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        rng = np.random.default_rng(11)
        return ls, np.stack([right_hand_side(ls, rng.normal(size=ls.grid.shape + (ls.N,)))
                             for _ in range(k)])

    @staticmethod
    def _without_rhs(report):
        return {k: v for k, v in asdict(report).items() if k != "rhs"}

    # dgbtrs with k columns swaps and updates all of them per pivot (dger),
    # yet each column still rounds as it does alone: equality, no tolerance
    @pytest.mark.parametrize("tensor, routine", [
        pytest.param(LAME, "pbtrf", id="pbtrf"),
        pytest.param(PERTURBED_SKEW, "gbtrf", id="gbtrf")])
    def test_stack_equals_single_solves(self, tensor, routine):
        ls, B = self._stack(tensor, 4)
        X, reports, times = solve_linear(ls, B)
        assert X.shape == B.shape
        assert [r.rhs for r in reports] == [4] * 4
        assert times["solve_s"] > 0 and times["factor_s"] > 0
        for x, rep, b in zip(X, reports, B):
            want_x, (want,), _ = solve_linear(ls, b[None])
            assert rep.method == routine and want.rhs == 1
            assert want_x.shape == (1,) + b.shape and np.array_equal(x, want_x[0])
            assert self._without_rhs(rep) == self._without_rhs(want)

    def test_a_row_past_its_tol_is_refined_and_fails_alone(self, monkeypatch):
        # under TOL 1e-30 only the zero rows 0 and 2 pass (backward error 0):
        # row 1 alone gets the refinement step and the SolverError, and rows
        # 0 and 2 are reported as their single solves are
        from narrowgap import discretize
        monkeypatch.setattr(discretize, "TOL", 1e-30)
        ls, B = self._stack(LAME, 3)
        B[[0, 2]] = 0.0
        sizes = []
        solve = discretize._FreeBlockBand.solve
        monkeypatch.setattr(discretize._FreeBlockBand, "solve",
                            lambda self, b: sizes.append(len(b)) or solve(self, b))
        X, reports, _ = solve_linear(ls, B)
        assert sizes == [3, 1]
        assert isinstance(reports[1], SolverError)
        assert str(reports[1]).endswith("above tol 1.0e-30")
        monkeypatch.setattr(discretize._FreeBlockBand, "solve", solve)
        for j in (0, 2):
            (want_x,), (want,), _ = solve_linear(ls, B[j:j + 1])
            assert np.array_equal(X[j], want_x)
            assert self._without_rhs(reports[j]) == self._without_rhs(want)
        _, (err,), _ = solve_linear(ls, B[1:2])
        assert isinstance(err, SolverError) and str(err).endswith("above tol 1.0e-30")

    def test_a_row_whose_solve_overflows_fails_alone(self, monkeypatch):
        # finite data near the float limit overflow in the triangular solves:
        # the backward error is NaN, which is not within TOL, so the row is
        # refined once and fails; row 0 is reported as its single solve is
        from narrowgap import discretize
        ls, B = self._stack(LAME, 2)
        B[1] *= 1e308 / np.abs(B[1]).max()
        assert np.all(np.isfinite(B))
        sizes = []
        solve = discretize._FreeBlockBand.solve
        monkeypatch.setattr(discretize._FreeBlockBand, "solve",
                            lambda self, b: sizes.append(len(b)) or solve(self, b))
        with np.errstate(all="ignore"):
            X, reports, _ = solve_linear(ls, B)
        assert sizes == [2, 1]
        assert isinstance(reports[1], SolverError)
        assert str(reports[1]) == "direct solve residual nan above tol 1.0e-10"
        (want_x,), (want,), _ = solve_linear(ls, B[:1])
        assert np.array_equal(X[0], want_x)
        assert self._without_rhs(reports[0]) == self._without_rhs(want)

    def test_solve_bvp_rows_equal_their_single_solves(self):
        # the rows of one stack are solved in one pass, each as it is alone
        reg = curved_region(eps=0.05)
        grid = grid_for(reg, 33, 9)
        jacobian = box_jacobian(reg, grid)
        ls = assemble(transform_operator(LAME, reg, grid, jacobian))
        one = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
        two = BoundaryTraces(const(0.0, 2.0), const(1.0, 1.0))
        B = np.stack([right_hand_side(ls, V) for V in (
            dirichlet_values(grid, one, "ansatz", build_ansatz(LAME, reg, one)),
            dirichlet_values(grid, two, "constant", lateral_value=[0.5, -1.0]))])
        out, _ = solve_bvp(ls, reg, B, jacobian)
        for j, (df, rep) in enumerate(out):
            ((want_df, want),), _ = solve_bvp(ls, reg, B[j:j + 1], jacobian)
            assert np.array_equal(df.values, want_df.values)
            assert rep.rhs == 2 and self._without_rhs(rep) == self._without_rhs(want)


def _node_major_free(ls):
    """Free unknowns numbered node-major, as the banded factorization orders them."""
    fixed = dirichlet_mask(ls)
    order = np.arange(len(fixed)).reshape(ls.N, -1).T.ravel()
    return order[~fixed[order]]


def _free_block(ls):
    """K_ff from the reference CSR, free unknowns numbered node-major."""
    free = _node_major_free(ls)
    return _csr_reference(ls)[free][:, free].tocoo()


def _captured_band(monkeypatch, ls):
    """What each factorization receives while ls is solved once.

    Banded LU receives its band.  The twisted Cholesky receives the band of
    its two halves, side by side in their one array (each half is copied
    as it enters ``dpbtrf``), and the separator's dense blocks: M_SS and
    the couplings of the columns left and right of it, as the table gives
    them in natural order.
    """
    from narrowgap import discretize
    bands, halves, blocks = {}, {}, []

    def keep_lu(ab, *a, _f=discretize.lapack.dgbtrf, **k):
        bands["dgbtrf"] = ab.copy(order="F")
        return _f(ab, *a, **k)

    def keep_half(ab, _f=discretize._pbtrf):
        halves[ab.ctypes.data] = ab.copy(order="F")
        return _f(ab)

    def keep_block(self, *a, _f=discretize._FreeBlockBand._coupling):
        blocks.append(_f(self, *a))
        return blocks[-1]

    monkeypatch.setattr(discretize.lapack, "dgbtrf", keep_lu)
    monkeypatch.setattr(discretize, "_pbtrf", keep_half)
    monkeypatch.setattr(discretize._FreeBlockBand, "_coupling", keep_block)
    rng = np.random.default_rng(5)
    solve_linear(ls, right_hand_side(ls, rng.normal(size=ls.grid.shape + (ls.N,)))[None])
    if halves:
        bands["dpbtrf"] = np.hstack([halves[k] for k in sorted(halves)])
        bands["separator"] = blocks
    return bands


def _lower_band(K, kd):
    """The lower band of the dense or sparse symmetric K in LAPACK storage."""
    K = sp.coo_matrix(K)
    lower = K.row >= K.col
    ab = np.zeros((kd + 1, K.shape[0]), order="F")
    ab[(K.row - K.col)[lower], K.col[lower]] = K.data[lower]
    return ab


def _twisted_parts(ls):
    """Free unknowns, node-major, of the left half A, the separator column S
    and the right half B in reversed order."""
    m1, m2 = (s - 2 for s in ls.grid.shape)
    c, s = ls.N * m2, m1 // 2
    n = m1 * c
    return (np.arange(s * c), np.arange(s * c, (s + 1) * c),
            np.arange((s + 1) * c, n)[::-1])


class TestFreeBand:
    CASES = [pytest.param(LAME, "dpbtrf", id="lame"),
             pytest.param(LAP, "dpbtrf", id="laplace"),
             pytest.param(SKEW, "dgbtrf", id="bcd")]

    @pytest.mark.parametrize("nodes", [(33, 9), (3, 9)], ids=["33x9", "3x9"])
    @pytest.mark.parametrize("tensor, routine", CASES)
    def test_band_from_the_stencil_equals_the_csr_scatter(self, monkeypatch,
                                                          tensor, routine, nodes):
        # reference: -K_ff's entries scattered into LAPACK band storage,
        # its lower band for Cholesky, its general band for LU.  With 3
        # tangential nodes one interior column is left, the separator alone,
        # and the tangential offsets couple it to Dirichlet nodes only
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(*nodes, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        bands = _captured_band(monkeypatch, ls)
        Kff = _free_block(ls)
        kd = int(np.abs(Kff.row - Kff.col).max())
        if routine == "dpbtrf":
            # the halves A and B (reversed) side by side; then the couplings
            # of A's last and B's first column to S, and M_SS
            M = -Kff.tocsr()
            a, s, b = _twisted_parts(ls)
            want = np.hstack([_lower_band(M[h][:, h], kd) for h in (a, b)])
            rows = [h for h in (a[len(a) - len(s):], b[::-1][:len(s)]) if len(h)] + [s]
            blocks = bands.pop("separator")
            assert len(blocks) == len(rows)
            for got, r in zip(blocks, rows):
                assert np.array_equal(got, M[r][:, s].toarray())
        else:
            want = np.zeros((3 * kd + 1, Kff.shape[0]), order="F")
            want[2 * kd + Kff.row - Kff.col, Kff.col] = -Kff.data
        assert list(bands) == [routine]
        assert np.array_equal(bands[routine], want)

    @pytest.mark.parametrize("tensor", [SKEW, PERTURBED_SKEW], ids=["bcd", "perturbed_bcd"])
    def test_lu_of_minus_kff_solves_to_the_byte_as_the_lu_of_kff(self, tensor):
        # banded LU factors M = -K_ff and solves with -b_f: negation is exact
        # and partial pivoting compares absolute values, so a stack solved
        # through solve_linear equals dgbtrf/dgbtrs of +K_ff's band, built
        # here from the reference CSR, to the byte
        from scipy.linalg import lapack
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(33, 9, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        rng = np.random.default_rng(11)
        draw = (3,) + ls.grid.shape + (ls.N,)
        B = np.stack([forced_right_hand_side(ls, v, f)
                      for v, f in zip(rng.normal(size=draw), rng.normal(size=draw))])
        X, reports, _ = solve_linear(ls, B)

        K, flat = _csr_reference(ls), B.reshape(len(B), -1)
        free, fixed = _node_major_free(ls), np.flatnonzero(dirichlet_mask(ls))
        Kff = K[free][:, free].tocoo()
        kd = int(np.abs(Kff.row - Kff.col).max())
        ab = np.zeros((3 * kd + 1, Kff.shape[0]), order="F")
        ab[2 * kd + Kff.row - Kff.col, Kff.col] = Kff.data
        lu, piv, info = lapack.dgbtrf(ab, kd, kd)
        assert info == 0
        bf = np.asfortranarray([b[free] - K[free][:, fixed] @ b[fixed] for b in flat]).T
        want = flat.copy()
        want[:, free] = lapack.dgbtrs(lu, kd, kd, bf, piv)[0].T
        assert np.array_equal(X.reshape(flat.shape), want)
        assert [r.method for r in reports] == ["gbtrf"] * len(B)

    @pytest.mark.parametrize("tensor, routine", CASES)
    def test_report_fill_and_nnz_come_from_the_matrix(self, tensor, routine):
        # fill = factor storage / nnz(K_ff), nnz = nnz(K) with its Dirichlet
        # rows, both counted from the table against the reference CSR.  The
        # twisted Cholesky stores its halves' band, c unknowns short of
        # K_ff's, and three dense c x c separator blocks
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(33, 9, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        b = np.random.default_rng(6).normal(size=(ls.N,) + ls.grid.shape)
        _, (rep,), _ = solve_linear(ls, b[None])
        Kff = _free_block(ls)
        kd = int(np.abs(Kff.row - Kff.col).max())
        c = ls.N * (ls.grid.shape[1] - 2)
        storage = ((kd + 1) * (Kff.shape[0] - c) + 3 * c * c if routine == "dpbtrf"
                   else (3 * kd + 1) * Kff.shape[0])
        assert rep.method == routine[1:]
        assert rep.nnz == _csr_reference(ls).nnz
        assert rep.fill == storage / Kff.nnz

    @pytest.mark.parametrize("tensor", [LAME, LAP, SKEW, PERTURBED_SKEW,
                                        make_perturbed(LAME, MultiPoly([(1.0, (1, 1))]), 0.2,
                                                       (1.0, 1.1))],
                             ids=["lame", "laplace", "bcd", "perturbed_bcd", "perturbed"])
    def test_stencil_symmetry_agrees_with_the_matrix(self, tensor):
        reg = curved_region(eps=0.05, upper=1.0, lower=0.5)
        grid = BoxGrid(17, 9, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        Kff = _free_block(ls).tocsr()
        pairs = _free_pairs(ls, 0, ls.grid.shape[0] - 2)
        assert _symmetric(ls.blocks, pairs) == ((Kff != Kff.T).nnz == 0)

    @pytest.mark.parametrize("o, p, mirrored, symmetric",
                             [((1, 0), (4, 3), False, False), ((1, 0), (4, 3), True, True),
                              ((1, 0), (14, 3), False, True),
                              ((-1, 0), (10, 3), False, False), ((-1, 0), (10, 3), True, True),
                              ((-1, 0), (0, 3), False, True)],
                             ids=["interior_pair", "interior_pair_and_mirror",
                                  "pair_reaching_the_boundary",
                                  "minus_o_interior_pair", "minus_o_interior_pair_and_mirror",
                                  "minus_o_pair_reaching_the_boundary"])
    def test_changed_entries_move_both_symmetry_tests(self, o, p, mirrored, symmetric):
        # entry (i, j) of W[o] at interior node p changed in the table, the
        # only representation of K, and with ``mirrored`` entry (j, i) of
        # W[-o] at p + o too.  Two interior nodes break the symmetry of K_ff
        # unless the mirror moves with them; from the last interior column
        # (14 of 0..14) the offset (1, 0) reaches the Dirichlet face x' = 2R0,
        # and from the first (0) the offset (-1, 0) reaches x' = -2R0, so the
        # entry belongs to K_fD instead.  Changing W[(-1, 0)] alone must be
        # caught although each mirror pair is tested from one side only.
        # The reference CSR is scattered from the changed table
        grid = BoxGrid(17, 9, 1.0)
        reg = curved_region(eps=0.05)
        ls = assemble(transform_operator(LAME, reg, grid, box_jacobian(reg, grid)))

        def change(o, p, i, j):
            ls.blocks[o][p + (i, j)] += 1.0

        change(o, p, 0, 1)
        if mirrored:
            change((-o[0], 0), (p[0] + o[0], p[1]), 1, 0)
        Kff = _free_block(ls).tocsr()
        assert ((Kff != Kff.T).nnz == 0) is symmetric
        assert _symmetric(ls.blocks, _free_pairs(ls, 0, ls.grid.shape[0] - 2)) is symmetric


class TestSymmetryByConstruction:
    """The tensor decides the factorization: a symmetric A gives an exactly
    symmetric table, factored by Cholesky, and any other A banded LU."""

    # (tensor, region, whether copying the mirrors moves an entry of Atil)
    SYMMETRIC = [
        *(pytest.param(make_lame(LameParameters(lam, 1.0)), THM11, True, id=f"lame_{lam:g}")
          for lam in (-0.9, 3.0, 10.0, 100.0)),
        pytest.param(make_lame(LameParameters(0.5, 2.0)), THM11, False, id="lame_0.5_2"),
        pytest.param(LAP, curved_region(eps=1e-2, lower=0.5), False, id="laplace_h2"),
        pytest.param(make_perturbed(LAME, MultiPoly([(1.0, (1, 0))]), 0.5, (1.0, 1.1)),
                     THM11, False, id="lame_perturbed"),
        pytest.param(LAME, THM11, False, id="lame_1")]

    @staticmethod
    def _system(tensor, reg, nodes=(65, 17)):
        grid = BoxGrid(*nodes, 1.0)
        return assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))

    @pytest.mark.parametrize("tensor, reg, moves", SYMMETRIC)
    def test_a_symmetric_tensor_factors_by_cholesky(self, tensor, reg, moves):
        from narrowgap import discretize
        ls = self._system(tensor, reg)
        assert tensor.symmetric and ls.symmetric
        assert _symmetric(ls.blocks, _free_pairs(ls, 0, ls.grid.shape[0] - 2))
        assert discretize._FreeBlockBand(ls).routine == "pbtrf"

    @pytest.mark.parametrize("tensor, reg, moves", SYMMETRIC)
    def test_only_the_vertical_block_needs_its_mirror_copied(self, monkeypatch, tensor, reg,
                                                             moves):
        # summed as (G A) G^T, Atil^{ab}_{ij} and Atil^{ba}_{ji} associate
        # alike unless a = b = 2, so only Atil^{22}'s copy can move an entry:
        # for Lame with lam = -0.9, 3, 10 and 100 it does, for the shipped
        # tensors it does not
        from narrowgap.coefficients import CoefficientTensor
        grid = BoxGrid(65, 17, 1.0)
        copied = transform_operator(tensor, reg, grid, box_jacobian(reg, grid)).Atil
        monkeypatch.setattr(CoefficientTensor, "symmetric", property(lambda self: False))
        summed = transform_operator(tensor, reg, grid, box_jacobian(reg, grid)).Atil
        moved = copied != summed
        assert not moved[..., 0, :].any() and not moved[..., :, 0].any()
        diagonal = np.arange(tensor.N)
        assert not moved[..., diagonal, diagonal, :, :].any()
        assert moved.any() == moves

    @pytest.mark.parametrize("tensor", [
        pytest.param(make_custom(1, np.reshape([1.0, 0.5, 0.0, 1.0], (1, 1, 2, 2))), id="N1"),
        pytest.param(SKEW, id="N2")])
    def test_a_major_non_symmetric_tensor_factors_by_lu(self, tensor):
        from narrowgap import discretize
        ls = self._system(tensor, THM11)
        assert not tensor.symmetric and not ls.symmetric
        assert discretize._FreeBlockBand(ls).routine == "gbtrf"

    def test_cholesky_solves_as_lu_does(self):
        # Lame with lam = 100 by pbtrf, and the same table taken as
        # non-symmetric by gbtrf
        ls = self._system(make_lame(LameParameters(100.0, 1.0)), THM11)
        b = right_hand_side(ls, np.random.default_rng(4).normal(size=ls.grid.shape + (2,)))
        (x,), (rep,), _ = solve_linear(ls, b[None])
        (y,), (lu,), _ = solve_linear(LinearSystem(ls.grid, ls.N, ls.blocks, False), b[None])
        assert (rep.method, lu.method) == ("pbtrf", "gbtrf")
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


class TestTwistedCholesky:
    """The two-sided banded Cholesky against one-band LAPACK, and its threads."""

    @staticmethod
    def _one_band_solve(ls, cols):
        """Reference: -K_ff's whole lower band by dpbtrf, the columns by dpbtrs."""
        from scipy.linalg import lapack
        Kff = _free_block(ls)
        kd = int(np.abs(Kff.row - Kff.col).max())
        ab, info = lapack.dpbtrf(_lower_band(-Kff, kd), lower=1)
        assert info == 0
        return lapack.dpbtrs(ab, -cols, lower=1)[0]

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("columns", [1, 2, 3, 4, 63])
    @pytest.mark.parametrize("tensor", [LAP, LAME], ids=["N1", "N2"])
    def test_agrees_with_one_band_cholesky(self, tensor, columns, k):
        # interior x1-columns: 1 leaves the separator alone, 2 an empty right
        # half, 3 and 63 equal halves, 4 a longer left half
        from narrowgap import discretize
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(columns + 2, 9, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        factor = discretize._FreeBlockBand(ls)
        assert factor.routine == "pbtrf"
        rng = np.random.default_rng(columns)
        cols = np.asfortranarray(rng.normal(size=(ls.N * columns * 7, k)))
        # _solve_free overwrites its columns, as LAPACK's solves do
        got, want = factor._solve_free(cols.copy()), self._one_band_solve(ls, cols)
        assert np.all(np.linalg.norm(got - want, axis=0)
                      <= 1e-12 * np.linalg.norm(want, axis=0))

    def test_repeated_solves_are_byte_identical(self):
        # the split and each thread's arithmetic are fixed
        ls, B = TestStackedSolve._stack(LAME, 2, nodes=(65, 9))
        first = solve_linear(ls, B)[0].tobytes()
        assert all(solve_linear(ls, B)[0].tobytes() == first for _ in range(49))

    def test_halves_are_views_of_one_array(self, monkeypatch):
        from narrowgap import discretize
        halves, pbtrf = [], discretize._pbtrf
        monkeypatch.setattr(discretize, "_pbtrf", lambda ab: halves.append(ab) or pbtrf(ab))
        ls, _ = TestStackedSolve._stack(LAME, 1)
        factor = discretize._FreeBlockBand(ls)
        a, b = sorted(halves, key=lambda h: h.ctypes.data)
        assert a.base is factor.ab and b.base is factor.ab
        assert a.ctypes.data == factor.ab.ctypes.data
        assert b.ctypes.data == factor.ab[:, a.shape[1]:].ctypes.data
        assert a.shape[1] + b.shape[1] == factor.ab.shape[1]

    @pytest.mark.parametrize("tensor, halves", [(INDEFINITE, False), (LAP, True)],
                             ids=["halves_indefinite", "separator_indefinite"])
    def test_indefinite_block_falls_back_to_banded_lu(self, monkeypatch, tensor, halves):
        # on the flat 2 x 1 box, the not elliptic INDEFINITE makes both
        # halves indefinite.  No tensor was found whose halves are positive
        # definite and whose whole block is not, so for the separator's
        # branch the Laplacian's dpotrf reports the info that such a block
        # would give
        from narrowgap import discretize
        infos, pbtrf, potrf = [], discretize._pbtrf, discretize.lapack.dpotrf
        monkeypatch.setattr(discretize, "_pbtrf",
                            lambda ab: infos.append(pbtrf(ab)) or infos[-1])

        def potrf_info(*a, **k):
            out = potrf(*a, **k)
            if halves:
                out = out[0], len(out[0])
            infos.append(out[1])
            return out

        monkeypatch.setattr(discretize.lapack, "dpotrf", potrf_info)
        _, rep = TestSharedFactorization._matches_spsolve(tensor, flat_region(eps=1.0),
                                                          BoxGrid(33, 17, 1.0))
        assert rep.method == "gbtrf"
        if halves:
            assert infos[:2] == [0, 0] and len(infos) == 3 and infos[2] > 0
        else:
            assert len(infos) == 2 and min(infos) > 0

    def test_helper_exception_is_raised_here_and_holds_no_band(self, monkeypatch):
        from narrowgap import discretize
        # the helper fails only after this thread's half has ended, so the
        # error is seen only if the helper is joined
        bands, pbtrf, main_half_done = [], discretize._pbtrf, threading.Event()

        def fail_on_the_helper(ab):
            bands.append(weakref.ref(ab.base))
            if threading.current_thread() is threading.main_thread():
                info = pbtrf(ab)
                main_half_done.set()
                return info
            assert main_half_done.wait(timeout=60)
            time.sleep(0.1)
            raise RuntimeError("helper half failed")

        monkeypatch.setattr(discretize, "_pbtrf", fail_on_the_helper)
        ls, B = TestStackedSolve._stack(LAME, 1)
        threads = threading.active_count()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(RuntimeError, match="helper half failed") as caught:
                solve_linear(ls, B)
            assert caught.value.__traceback__ is not None
            assert len(bands) == 2 and all(band() is None for band in bands)
            assert threading.active_count() == threads
        finally:
            if enabled:
                gc.enable()


def _captured_free_rhs(monkeypatch, ls, b):
    """b_f - K_fD b_D as the factorization's solve of the free block receives it
    (column 0)."""
    from narrowgap import discretize
    got = []
    solve_free = discretize._FreeBlockBand._solve_free

    def keep(self, cols):
        got.append(cols[:, 0].copy())
        return solve_free(self, cols)

    monkeypatch.setattr(discretize._FreeBlockBand, "_solve_free", keep)
    solve_linear(ls, b[None])
    return got[0]


class TestStencilOperator:
    PERTURBED = make_perturbed(LAME, MultiPoly([(1.0, (1, 1))]), 0.2, (1.0, 1.1))
    CASES = [pytest.param(LAME, "pbtrf", id="lame"),
             pytest.param(LAP, "pbtrf", id="laplace"),
             pytest.param(SKEW, "gbtrf", id="bcd"),
             pytest.param(PERTURBED, "pbtrf", id="perturbed")]

    @staticmethod
    def _system(tensor, nodes=(33, 9)):
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        grid = BoxGrid(*nodes, 1.0)
        ls = assemble(transform_operator(tensor, reg, grid, box_jacobian(reg, grid)))
        rng = np.random.default_rng(7)
        draw = ls.grid.shape + (ls.N,)
        return ls, forced_right_hand_side(ls, rng.normal(size=draw), rng.normal(size=draw))

    @pytest.mark.parametrize("tensor, routine", CASES)
    def test_free_right_hand_side_equals_the_csr_coupling(self, monkeypatch,
                                                          tensor, routine):
        # K_fD b_D from the stencil is summed in the CSR slice's column
        # order, so it rounds exactly as the sparse product does
        ls, b = self._system(tensor)
        K, flat = _csr_reference(ls), b.ravel()
        free, fixed = _node_major_free(ls), np.flatnonzero(dirichlet_mask(ls))
        want = flat[free] - K[free][:, fixed] @ flat[fixed]
        assert np.array_equal(_captured_free_rhs(monkeypatch, ls, b), want)
        assert solve_linear(ls, b[None])[1][0].method == routine

    @pytest.mark.parametrize("nodes", [(5, 4), (33, 9)], ids=["5x4", "33x9"])
    @pytest.mark.parametrize("tensor, routine", [
        pytest.param(LAME, "pbtrf", id="lame"),
        pytest.param(LAP, "pbtrf", id="laplace"),
        pytest.param(PERTURBED_SKEW, "gbtrf", id="perturbed_bcd")])
    def test_strip_coupling_equals_the_whole_grid_product(self, tensor, routine, nodes):
        # reference: x_D = b_D with zero free entries, K applied to it over
        # the whole grid (the reference CSR, which the operator rounds as),
        # and b_f - (K x)_f solved with the same factor.  On the 5x4 grid
        # every interior node lies on a boundary strip, and two strips meet
        # at each of its corners
        from narrowgap import discretize
        ls, b = self._system(tensor, nodes)
        factor = discretize._FreeBlockBand(ls)
        assert factor.routine == routine
        free, fixed = _node_major_free(ls), np.flatnonzero(dirichlet_mask(ls))
        flat = b.ravel()
        x = np.zeros(len(flat))
        x[fixed] = flat[fixed]
        bf = flat[free] - (_csr_reference(ls) @ x)[free]
        x[free] = factor._solve_free(bf[:, None])[:, 0]
        assert np.array_equal(factor.solve(b[None])[0], x.reshape(b.shape))

    @pytest.mark.parametrize("tensor", [LAME, LAP, SKEW, PERTURBED_SKEW],
                             ids=["lame", "laplace", "bcd", "perturbed_bcd"])
    def test_operator_matches_the_reference_csr(self, tensor):
        ls, _ = self._system(tensor)
        K = _csr_reference(ls)
        x = np.random.default_rng(9).normal(size=K.shape[0])
        want = K @ x
        assert ls.matrix.shape == K.shape
        assert np.abs(ls.matrix @ x - want).max() <= 1e-15 * np.abs(want).max()
        assert ls.frobenius == pytest.approx(sp.linalg.norm(K), rel=1e-15)
        assert ls.nnz == K.nnz

    def test_solve_bvp_builds_no_sparse_matrix(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("sparse matrix built on the solve path")

        for cls in (sp.coo_matrix, sp.csr_matrix):
            monkeypatch.setattr(cls, "__init__", refuse)
            monkeypatch.setattr(sp, cls.__name__, refuse)
        reg = curved_region(eps=0.05)
        tr = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
        df, rep = solve_one(LAME, reg, tr, grid_for(reg, 33, 9))
        assert rep.method == "pbtrf" and np.all(np.isfinite(df.values))

    def test_solve_linear_frees_its_factorization(self, monkeypatch):
        # reference counting alone must free the band when solve_linear
        # returns: neither the system nor the reports may hold the factor
        from narrowgap import discretize
        band, made = discretize._FreeBlockBand, []

        def factor(ls):
            f = band(ls)
            made.append(weakref.ref(f))
            return f

        monkeypatch.setattr(discretize, "_FreeBlockBand", factor)
        ls, b = self._system(LAME)
        enabled = gc.isenabled()
        gc.disable()
        try:
            _, (rep,), _ = solve_linear(ls, b[None])
            assert rep.method == "pbtrf" and len(made) == 1 and made[0]() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("solves", [1, 2], ids=["first_failure", "raised_again"])
    def test_failed_factorization_frees_its_system(self, solves):
        # a zero W[0], symmetric but with no negative diagonal, stops banded
        # LU at gbtrf info 1 on every solve, and neither the first nor a
        # later one may keep the system alive through a stored traceback
        grid = BoxGrid(10, 5, 1.0)
        W0 = np.zeros((grid.shape[0] - 2, grid.shape[1] - 2, 1, 1))
        ls = LinearSystem(grid, 1, {(0, 0): W0}, True)
        b = np.random.default_rng(1).normal(size=(1,) + grid.shape)
        system = weakref.ref(ls)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(solves):
                with pytest.raises(SolverError, match="gbtrf info 1"):
                    solve_linear(ls, b[None])
            del ls
            assert system() is None
        finally:
            if enabled:
                gc.enable()


# ---------------------------------------------------------------------------
# boundary value solves
# ---------------------------------------------------------------------------

class TestSolveBVP:
    def test_linear_solution_is_exact(self):
        # flat strip, phi = 1, psi = 0, lateral = interpolant: u = t in the
        # stencil kernel, reproduced to round-off
        reg = flat_region(eps=0.3)
        tr = BoundaryTraces(const(1.0), const(0.0))
        grid = BoxGrid(17, 9, 1.0)
        df, rep = solve_one(LAP, reg, tr, grid)
        _, T = grid.node_coords()
        assert np.abs(df.values[..., 0] - T).max() <= 1e-12

    def test_mms_convergence_second_order(self):
        assert _mms_order(LAME) == pytest.approx(2.0, abs=0.2)

    def test_independent_axis_refinement_both_reduce_error(self):
        reg = curved_region(eps=0.3, upper=0.5)
        mms = _SinSin()

        def err(ny, nt):
            grid = grid_for(reg, ny, nt)
            df, _ = solve_manufactured(LAP, reg, grid, mms)
            X1, T = grid.node_coords()
            x = reg.from_box(X1, T)
            return np.abs(df.values[..., 0] - mms.value(x)[..., 0]).max()

        base = err(17, 9)
        assert err(33, 9) < base
        assert err(17, 17) < base

    def test_discrete_maximum_principle_flat(self):
        reg = flat_region(eps=0.5)
        tr = BoundaryTraces(const(1.0), const(-1.0))
        grid = BoxGrid(17, 17, 1.0)
        df, _ = solve_one(LAP, reg, tr, grid)
        assert df.values.min() >= -1 - 1e-12
        assert df.values.max() <= 1 + 1e-12

    def test_self_convergence_on_constant_gap(self):
        reg = curved_region(eps=0.02)
        tr = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
        fine, _ = solve_one(LAME, reg, tr, grid_for(reg, 129, 33))
        diffs = []
        for ny, nt in ((17, 5), (33, 9), (65, 17)):
            df, _ = solve_one(LAME, reg, tr, grid_for(reg, ny, nt))
            step = (128 // (ny - 1), 32 // (nt - 1))
            coarse_on_fine = fine.values[::step[0], ::step[1]]
            diffs.append(np.abs(df.values - coarse_on_fine).max())
        assert diffs[2] < diffs[1] < diffs[0]


def _mms_order(tensor):
    """Observed order of the max nodal error for TrigSolution at eps = 0.05."""
    reg = curved_region(eps=0.05)
    mms = TrigSolution(2, 2)
    errs, hs = [], []
    for ny, nt in ((33, 17), (65, 33), (129, 65)):
        grid = grid_for(reg, ny, nt)
        df, _ = solve_manufactured(tensor, reg, grid, mms)
        X1, T = grid.node_coords()
        x = reg.from_box(X1, T)
        errs.append(np.abs(df.values - mms.value(x)).max())
        hs.append(grid.spacing[1])
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


class _SinSin:
    """Scalar manufactured field sin(x1) sin(xn) with genuine xn curvature."""

    def value(self, x):
        x = np.asarray(x)
        return (np.sin(x[..., 0]) * np.sin(x[..., -1]))[..., None]

    def grad(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = np.cos(x[..., 0]) * np.sin(x[..., -1])
        out[..., 0, 1] = np.sin(x[..., 0]) * np.cos(x[..., -1])
        return out

    def hess(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (1, 2, 2))
        s1, c1 = np.sin(x[..., 0]), np.cos(x[..., 0])
        sn, cn = np.sin(x[..., -1]), np.cos(x[..., -1])
        out[..., 0, 0, 0] = -s1 * sn
        out[..., 0, 0, 1] = c1 * cn
        out[..., 0, 1, 0] = c1 * cn
        out[..., 0, 1, 1] = -s1 * sn
        return out


# ---------------------------------------------------------------------------
# gradient recovery
# ---------------------------------------------------------------------------

class TestRecoverGradient:
    def test_linear_field_exact(self):
        reg = curved_region(eps=0.1)
        grid = grid_for(reg, 33, 9)
        X1, T = grid.node_coords()
        x = reg.from_box(X1, T)
        df = DiscreteField(grid, reg, x[..., -1:], box_jacobian(reg, grid))     # u = x_n
        rng = np.random.default_rng(4)
        pts = (rng.uniform(-0.9, 0.9, 50), rng.uniform(0.1, 0.9, 50))
        g = df.recover_gradient(*pts)
        assert np.abs(g[:, 0, 0]).max() <= 1e-11
        assert np.abs(g[:, 0, 1] - 1.0).max() <= 1e-11

    def test_vbar_gradient_second_order(self):
        reg = curved_region(eps=0.05, upper=0.7, lower=0.3)
        rng = np.random.default_rng(5)
        pts = (rng.uniform(-0.8, 0.8, 200), rng.uniform(0.1, 0.9, 200))
        want = reg.vbar_grad(*pts)
        errs, hs = [], []
        for ny, nt in ((33, 9), (65, 17), (129, 33), (257, 65)):
            grid = grid_for(reg, ny, nt)
            X1, T = grid.node_coords()
            df = DiscreteField(grid, reg, vbar(reg, reg.from_box(X1, T))[..., None],
                               box_jacobian(reg, grid))
            got = df.recover_gradient(*pts)[:, 0, :]
            errs.append(np.abs(got - want).max())
            hs.append(grid.spacing[0])
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 1.8

    @pytest.mark.parametrize("tensor", [LAME, LAP, make_perturbed(
        LAME, MultiPoly([(1.0, (1, 1))]), 0.2, (1.0, 1.1))],
        ids=["lame", "laplace", "perturbed"])
    def test_gradient_matches_the_einsum_reference(self, tensor):
        # G^T grad_y u as the generic einsum writes it, on a solved field
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        tr = BoundaryTraces(const(1.0, *[0.0] * (tensor.N - 1)),
                            const(*[0.0] * tensor.N))
        df, _ = solve_one(tensor, reg, tr, grid_for(reg, 33, 17))
        X1, T = df.grid.node_coords()
        G = jacobian_matrix(reg, X1[:, :1], T)
        want = np.einsum("...aA,...ia->...iA", G, df.mapped_gradient())
        got = df.gradient_nodes()
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_bilinear_sum_matches_the_corner_loop(self):
        # a curved-region Lame solve, read at random interior points, at
        # nodes and on all four edges: value and gradient keep the bits of
        # the 2^n corner loop
        reg = curved_region(eps=0.01, upper=1.0, lower=0.5)
        tr = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
        df, _ = solve_one(LAME, reg, tr, grid_for(reg, 33, 17))
        x1, t = df.grid.axes
        rng = np.random.default_rng(6)
        k = 12
        xs = np.concatenate([rng.uniform(-0.99, 0.99, 40), x1[rng.integers(0, len(x1), k)],
                             np.full(k, x1[0]), np.full(k, x1[-1]),
                             rng.uniform(-1.0, 1.0, 2 * k)])
        ts = np.concatenate([rng.uniform(0.01, 0.99, 40), t[rng.integers(0, len(t), k)],
                             rng.uniform(0.0, 1.0, 2 * k), np.repeat([0.0, 1.0], k)])
        pts = (xs, ts)
        assert np.array_equal(value_at(df, *pts),
                              corner_loop_interpolant(df.grid, df.values, *pts))
        nodal = df.gradient_nodes().reshape(df.grid.shape + (-1,))
        want = corner_loop_interpolant(df.grid, nodal, *pts).reshape(-1, 2, 2)
        assert np.array_equal(df.recover_gradient(*pts), want)

    def test_extrapolation_refused(self):
        reg = flat_region(eps=0.5)
        grid = BoxGrid(9, 9, 1.0)
        _, T = grid.node_coords()
        df = DiscreteField(grid, reg, T[..., None], box_jacobian(reg, grid))
        with pytest.raises(GeometryError):
            df.recover_gradient(np.array([1.7]), np.array([0.4]))


def test_l2_norm_against_exact_integral():
    # |u| = 1: the squared norm is the region volume int delta dx'
    reg = curved_region(eps=0.2, upper=1.0)
    grid = grid_for(reg, 257, 17)
    df = DiscreteField(grid, reg, np.ones(grid.shape + (1,)), box_jacobian(reg, grid))
    w = 2 * reg.R0
    exact = 2 * w * 0.2 + 2 * w**3 / 3          # int (eps + x^2) over [-w, w]
    assert df.l2_norm() == pytest.approx(np.sqrt(exact), rel=1e-4)


def test_grid_refinement_and_guards():
    with pytest.raises(Exception):
        BoxGrid(2, 17, 1.0)
