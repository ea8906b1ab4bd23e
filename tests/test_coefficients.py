"""Coefficient tensors: construction, ellipticity checks, C2 estimates."""

from dataclasses import replace

import numpy as np
import pytest

from narrowgap.coefficients import (ConstructionError, HypothesisViolationError,
                                    LameParameters, MultiPoly, check_ann,
                                    check_pointwise_ellipticity, make_custom,
                                    make_lame, make_laplace, make_perturbed)
from narrowgap.geometry import NarrowRegion, power_pair
from reference import estimate_c2_norms


@pytest.fixture
def reg():
    return NarrowRegion(power_pair(2, 1.0, 0.0, R0=0.5), 0.05)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TestMakeLame:
    def test_vertical_block(self):
        # lam = mu = 1, n = 2: A^nn = diag(mu, lam + 2 mu) = diag(1, 3)
        t = make_lame(LameParameters(1.0, 1.0))
        assert np.allclose(t.A(np.zeros((1, 2)))[0, ..., 1, 1], np.diag([1.0, 3.0]))
        assert (t.Lambda1, t.Lambda2) == (1.0, 3.0)

    def test_zero_lambda_reduces_to_symmetrized_gradient_form(self):
        t = make_lame(LameParameters(0.0, 0.5))
        eye = np.eye(2)
        expected = 0.5 * (np.einsum("ib,ja->ijab", eye, eye)
                          + np.einsum("ij,ab->ijab", eye, eye))
        assert np.array_equal(t.A0, expected)

    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (-0.3, 1.0), (2.5, 0.7)])
    def test_elasticity_symmetries_exact(self, lam, mu):
        A = make_lame(LameParameters(lam, mu)).A0
        assert np.array_equal(A, np.transpose(A, (1, 0, 3, 2)))   # A^{ab}_{ij} = A^{ba}_{ji}
        assert np.array_equal(A, np.transpose(A, (2, 1, 0, 3)))   # = A^{ib}_{aj}

    def test_parameter_constraints(self):
        with pytest.raises(ConstructionError):
            make_lame(LameParameters(1.0, -1.0))
        with pytest.raises(ConstructionError):
            make_lame(LameParameters(-2.0, 1.0))   # n lam + 2 mu = -2

    def test_accessors_are_pure(self, reg):
        t = make_lame(LameParameters(1.0, 2.0))
        x = np.array([[0.1, 0.2]])
        a1, a2 = t.A(x), t.A(x)
        assert a1.tobytes() == a2.tobytes()


# ---------------------------------------------------------------------------
# pointwise Legendre check
# ---------------------------------------------------------------------------

class TestEllipticity:
    def test_identity_tensor(self, reg):
        t = make_laplace()
        rep = check_pointwise_ellipticity(t, region=reg)
        assert rep.min_quotient == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_lame_symmetric_xi_bounds(self, reg):
        # on symmetric xi the minimum quotient is min(2mu, 2 lam+2mu)
        for lam, mu in [(1.0, 1.0), (-0.4, 1.0), (3.0, 0.5)]:
            t = make_lame(LameParameters(lam, mu))
            rep = check_pointwise_ellipticity(t, region=reg)
            assert rep.symmetric_xi
            assert rep.min_quotient == pytest.approx(min(2 * mu, 2 * lam + 2 * mu),
                                                     rel=1e-12)

    def test_random_tensor_matches_dense_eigen_oracle(self, reg):
        rng = np.random.default_rng(5)
        n = N = 2
        M = rng.normal(size=(N * n, N * n))
        M = M + M.T + 2 * N * n * np.eye(N * n)     # diagonally dominant
        A0 = M.reshape(N, n, N, n).transpose(0, 2, 1, 3)
        t = replace(make_custom(N, A0), lam=float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]))
        rep = check_pointwise_ellipticity(t, region=reg)
        assert not rep.symmetric_xi
        oracle = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        assert rep.min_quotient == pytest.approx(oracle, rel=1e-12)


class TestAnn:
    def test_lame_spectrum(self, reg):
        t = make_lame(LameParameters(1.0, 1.0))
        rep = check_ann(t, region=reg)
        assert (rep.lambda1_est, rep.lambda2_est) == pytest.approx((1.0, 3.0))
        assert rep.passed

    def test_identity(self, reg):
        rep = check_ann(make_laplace(), region=reg)
        assert (rep.lambda1_est, rep.lambda2_est) == pytest.approx((1.0, 1.0))

    def test_random_spd_blocks_match_eigen_oracle(self, reg):
        rng = np.random.default_rng(17)
        for _ in range(100):
            N = int(rng.integers(1, 4))
            B = rng.normal(size=(N, N))
            Ann = B @ B.T + N * np.eye(N)
            A0 = np.zeros((N, N, 2, 2))
            A0[:, :, 1, 1] = Ann
            A0[:, :, 0, 0] = np.eye(N)
            t = make_custom(N, A0)
            rep = check_ann(t, region=reg)
            ev = np.linalg.eigvalsh(Ann)
            assert rep.lambda1_est == pytest.approx(float(ev[0]), rel=1e-12)
            assert rep.lambda2_est == pytest.approx(float(ev[-1]), rel=1e-12)

    def test_indefinite_block_raises(self, reg):
        A0 = np.zeros((1, 1, 2, 2))
        A0[0, 0, 0, 0] = 1.0
        A0[0, 0, 1, 1] = -1.0
        t = replace(make_custom(1, A0), Lambda1=0.1, Lambda2=1.0)
        with pytest.raises(HypothesisViolationError):
            check_ann(t, region=reg)


# ---------------------------------------------------------------------------
# perturbed tensors
# ---------------------------------------------------------------------------

def test_perturbed_tensor_derivatives(reg):
    base = make_lame(LameParameters(1.0, 1.0))
    poly = MultiPoly([(0.7, (1, 0)), (-0.3, (0, 2))])     # 0.7 x1 - 0.3 xn^2
    t = make_perturbed(base, poly, 0.05)
    x = np.array([[0.2, 0.1]])
    A, dA, d2A = t.A_jet(x, 2)
    assert np.array_equal(A, t.A(x))
    h = 1e-6
    for g in range(2):
        dx = np.zeros((1, 2))
        dx[0, g] = h
        fd = (t.A(x + dx) - t.A(x - dx)) / (2 * h)
        assert np.abs(dA[..., g] - fd).max() <= 1e-8
    fd2 = (t.A_jet(x + [[h, 0]], 1)[1] - t.A_jet(x - [[h, 0]], 1)[1]) / (2 * h)
    assert np.abs(d2A[..., 0] - fd2).max() <= 1e-6
    rep = check_pointwise_ellipticity(t, region=reg)
    assert rep.passed and rep.min_quotient > 1.5    # stays uniformly elliptic


# p = x1 + 0.5 x2 + 0.3 x1 x2, so |p| <= 1 + 0.5 * 1.1 + 0.3 * 1.1 = 1.88 on
# |x1| <= 1, |x2| <= 1.1: the box of R0 = 0.5, h1 = x1^2, h2 = -0.5 x1^2 and
# eps <= 0.1
MIXED_POLY = MultiPoly([(1.0, (1, 0)), (0.5, (0, 1)), (0.3, (1, 1))])


@pytest.fixture
def wide_reg():
    return NarrowRegion(power_pair(2, 1.0, 0.5, R0=0.5), 0.1)


def test_perturbed_tensor_declares_the_scaled_base_constants(wide_reg):
    # A = (1 + 0.1 p) A0 with |0.1 p| <= 0.188 on wide_reg's box scales
    # every constant of A0; the tensor keeps A0's, and the record declares
    # the scaled ones over the region it checks
    lame = make_lame(LameParameters(1.0, 1.0))
    t = make_perturbed(lame, MIXED_POLY, 0.1)
    assert (t.lam, t.Lambda1, t.Lambda2) == (lame.lam, lame.Lambda1, lame.Lambda2)
    assert wide_reg.reach == pytest.approx((1.0, 1.1), rel=1e-15)
    assert MIXED_POLY.bound((1.0, 1.1)) == pytest.approx(1.88, rel=1e-15)
    ann, legendre = check_ann(t, wide_reg), check_pointwise_ellipticity(t, wide_reg)
    assert ann.declared == pytest.approx((0.812, 3 * 1.188), rel=1e-14)
    assert legendre.declared == pytest.approx(2 * 0.812, rel=1e-14)
    assert ann.passed and legendre.passed


def test_tensor_beyond_its_declared_bounds_fails_check_ann(wide_reg):
    # Lame's A^nn spectrum is [1, 3]; declared inside it, it fails on both ends
    t = replace(make_lame(LameParameters(1.0, 1.0)), Lambda1=1.1, Lambda2=2.9)
    rep = check_ann(t, wide_reg)
    assert not rep.passed and rep.declared == (1.1, 2.9)
    assert rep.lambda1_est < t.Lambda1 and rep.lambda2_est > t.Lambda2


def test_perturbation_that_makes_Ann_indefinite_still_raises(wide_reg):
    # 1 + 2 x1 < 0 for x1 < -0.5: at the end A0 - 2 T = -A0 the least
    # quotient is minus Lame's greatest, 2 lam + 2 mu = 4, so the record
    # floors the declared bound at 0, and the sampled spectrum leaves
    # positive definiteness
    t = make_perturbed(make_lame(LameParameters(1.0, 1.0)), MultiPoly([(1.0, (1, 0))]), 2.0)
    rep = check_pointwise_ellipticity(t, wide_reg)
    assert rep.declared == 0.0 and not rep.passed
    assert rep.floored == "; bound -4 over the reach, met at A0 - 2 T, floored at 0"
    with pytest.raises(HypothesisViolationError, match="positive definiteness"):
        check_ann(t, wide_reg)


# ---------------------------------------------------------------------------
# C2 norm estimation
# ---------------------------------------------------------------------------

class TestC2Norms:
    def test_exact_derivative_path(self):
        # x1^2 on [-1, 1]: sup|f| + sup|f'| + sup|f''| met at x = 1: 1 + 2 + 2
        class Quad:
            def value(self, x):
                return np.asarray(x)[..., 0] ** 2

            def grad(self, x):
                x = np.asarray(x)
                return 2 * x[..., :1]

            def hess(self, x):
                x = np.asarray(x)
                return np.full(x.shape[:-1] + (1, 1), 2.0)

        assert estimate_c2_norms(Quad(), [-1.0], [1.0]) == pytest.approx(5.0, abs=1e-12)
