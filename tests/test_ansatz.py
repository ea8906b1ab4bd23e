"""Corrected leading term: smoother, correction solves, gauges, residual."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowgap.ansatz import (SMOOTHER_SECOND, BoundaryTraces, PolyTrace,
                              _generic_kernel, apply_operator, build_ansatz,
                              smoother, smoother_prime, theta, theta_bar_delta)
from narrowgap.coefficients import (ConstructionError, HypothesisViolationError,
                                    LameParameters, MultiPoly, make_custom,
                                    make_lame, make_laplace, make_perturbed)
from narrowgap.config import config_from_dict
from narrowgap.geometry import NarrowRegion, ProfilePair, power_pair
from reference import (FLAT, REF_DERIVS, RefProfile, _lame_kernel, correction_coeffs,
                       correction_sum, estimate_c2_norms, lame_correction, ref_A_derivs,
                       ref_gap, to_box)
from test_pinned_outputs import THIN


def const(*v):
    """A constant trace: one coefficient row of degree 0 per component."""
    return PolyTrace([[c] for c in v])


class RefTrace:
    """value/grad/hess of a trace's coefficient rows, with one tangential axis.

    Each row is evaluated as a ``np.polynomial.Polynomial`` on its own, as
    an independent reference for ``PolyTrace.jet`` and the input that
    ``estimate_c2_norms`` reads.
    """

    def __init__(self, trace):
        self.polys = [np.polynomial.Polynomial(row) for row in trace.rows]

    def _eval(self, xp, order):
        x1 = np.asarray(xp, dtype=float)[..., 0]
        return np.stack([p.deriv(order)(x1) for p in self.polys], axis=-1)

    def value(self, xp):
        return self._eval(xp, 0)

    def grad(self, xp):
        return self._eval(xp, 1)[..., None]

    def hess(self, xp):
        return self._eval(xp, 2)[..., None, None]


def region(m=2, upper=1.0, lower=0.0, eps=0.01, R0=0.5):
    return NarrowRegion(power_pair(m, upper, lower, R0), eps)


LAME = make_lame(LameParameters(1.0, 1.0))
E1_GAP = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
# A(x) = A0 + 0.1 p(x) T with T not proportional to A0: a scalar factor
# c(x) A0 cancels from every correction row, so only a different direction
# exercises the x-dependent dA and d2A chain rule through the mid-gap height
PERTURBED = make_perturbed(LAME, MultiPoly([(1.0, (1, 0)), (0.5, (0, 1)),
                                            (0.3, (1, 1))]), 0.1,
                           direction=make_lame(LameParameters(2.0, 0.5)).A0)


def field_cases():
    """A constant tensor and an x-dependent A through the generic kernel."""
    return [pytest.param(LAME, id="generic"),
            pytest.param(PERTURBED, id="perturbed_generic")]


# ---------------------------------------------------------------------------
# smoother
# ---------------------------------------------------------------------------

class TestSmoother:
    def test_endpoints_vanish(self):
        assert smoother(0.0) == 0.0
        assert smoother(1.0) == 0.0

    def test_vertex(self):
        assert smoother(0.5) == -0.125

    def test_prime_matches_finite_differences(self):
        t = np.linspace(0, 1, 100)
        h = 1e-6
        fd = (smoother(t + h) - smoother(t - h)) / (2 * h)
        assert np.abs(smoother_prime(t) - fd).max() <= 1e-10

    @given(st.floats(0, 1))
    @settings(max_examples=50)
    def test_reflection_symmetry(self, t):
        assert smoother(t) == pytest.approx(smoother(1 - t), abs=1e-15)


# ---------------------------------------------------------------------------
# boundary traces
# ---------------------------------------------------------------------------

X1 = np.linspace(-0.9, 0.9, 19)[:, None]             # a column of x1 points


class TestPolyTrace:
    def test_constant_jet(self):
        f, d1, d11 = const(2.0, -0.5).jet(X1)
        assert f.shape == d1.shape == d11.shape == (19, 1, 2)
        assert np.all(f == [2.0, -0.5]) and np.all(d1 == 0.0) and np.all(d11 == 0.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_monomial_jet(self, k):
        # scale * x1^k in component 1 of 3; Horner's rule and x1**k agree
        # bit for bit below k = 2 and may round apart from k = 2 on
        scale, x = 1.7, X1
        tr = PolyTrace([[0.0], [0.0] * k + [scale], [0.0]])
        want = [scale * x ** k,
                scale * k * x ** max(k - 1, 0),
                scale * k * (k - 1) * x ** max(k - 2, 0)]
        for order in range(3):
            got = tr.jet(X1, order)
            assert len(got) == order + 1
            for f, w in zip(got, want):
                assert np.all(f[..., [0, 2]] == 0.0)
                np.testing.assert_allclose(f[..., 1], w, rtol=1e-15 if k >= 2 else 0, atol=0)

    def test_poly_jet(self):
        tr = PolyTrace([[1.0, -2.0, 0.5, 0.25], [3.0]])
        x = X1
        f, d1, d11 = tr.jet(X1)
        np.testing.assert_allclose(f[..., 0], 1.0 - 2.0 * x + 0.5 * x ** 2 + 0.25 * x ** 3,
                                   rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(d1[..., 0], -2.0 + x + 0.75 * x ** 2, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(d11[..., 0], 1.0 + 1.5 * x, rtol=1e-15, atol=1e-15)
        assert np.all(f[..., 1] == 3.0) and np.all(d1[..., 1] == 0.0) and np.all(d11[..., 1] == 0.0)

    def test_jet_equals_the_reference_bit_for_bit(self):
        # rows of lengths 4, 2 and 1 share one zero-padded coefficient
        # matrix, and each order's columns give every row's own derivative
        tr = PolyTrace([[1.0, -2.0, 0.5, 0.25], [3.0, -1.5], [-0.7]])
        ref = RefTrace(tr)
        for order in range(3):
            got = tr.jet(X1, order)
            assert len(got) == order + 1
            for j, f in enumerate(got):
                assert np.array_equal(f[:, 0], ref._eval(X1, j))

    @pytest.mark.parametrize("phi, psi", [
        ([[1.0], [0.0]], [[0.0], [0.0]]),
        ([[0.0, 0.0, 1.7], [0.0]], [[0.0], [0.0]]),
        ([[1.0, 0.2, -0.1, 0.3], [0.5, 0.4, 0.2]], [[0.0, -0.3, 0.1], [0.1, 0.0, -0.2]])],
        ids=["constant", "monomial", "poly"])
    def test_c2_total_equals_the_sampled_c2_norms(self, phi, psi):
        tr = BoundaryTraces(PolyTrace(phi), PolyTrace(psi))
        want = (estimate_c2_norms(RefTrace(tr.phi), [-1.0], [1.0], samples=201)
                + estimate_c2_norms(RefTrace(tr.psi), [-1.0], [1.0], samples=201))
        assert tr.c2_total(1.0) == want

    @pytest.mark.parametrize("rows", [[], [[]], [[1.0], []], [[1.0, np.nan]], [[np.inf]]],
                             ids=["no_rows", "empty_row", "one_empty_row", "nan", "inf"])
    def test_empty_or_non_finite_rows_refused(self, rows):
        with pytest.raises(ConstructionError):
            PolyTrace(rows)


# ---------------------------------------------------------------------------
# correction coefficients
# ---------------------------------------------------------------------------

class TestCorrection:
    def test_laplacian_correction_vanishes_exactly(self):
        r = region()
        tr = BoundaryTraces(const(1.0), const(0.0))
        G = correction_coeffs(make_laplace(), r, tr, np.array([0.3]))
        assert np.all(G == 0.0)

    def test_lame_tangential_row(self):
        # lam = mu = 1, phi^1 - psi^1 = 1, d1 delta = 0.2:
        # G_1 = (lam+mu)/(lam+2mu) * 0.2 * e_n = (0, 2/15...) = (0, 0.13333...)
        r = region(eps=0.01)
        G = correction_coeffs(LAME, r, E1_GAP, np.array([0.1]))[0]
        assert G[0] == pytest.approx([0.0, (2.0 / 3.0) * 0.2], abs=1e-15)
        assert np.all(G[1] == 0.0)

    def test_lame_normal_row(self):
        # phi^n - psi^n = 1, d1 delta = 0.2: G_n = (lam+mu)/mu * 0.2 * e_1
        r = region(eps=0.01)
        tr = BoundaryTraces(const(0.0, 1.0), const(0.0, 0.0))
        G = lame_correction(LameParameters(1.0, 1.0), r, tr, np.array([0.1]))[0]
        assert G[1] == pytest.approx([0.4, 0.0], abs=1e-15)
        assert np.all(G[0] == 0.0)

    def test_generic_equals_closed_form_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            mu = rng.uniform(0.1, 3.0)
            lam = rng.uniform(-mu + 0.05, 3.0)
            m = int(rng.choice([2, 3, 4]))
            r = region(m=m, upper=rng.uniform(0.2, 2), lower=rng.uniform(0, 2),
                       eps=rng.uniform(1e-3, 0.1))
            tr = BoundaryTraces(PolyTrace(rng.normal(size=(2, 3))),
                                PolyTrace(rng.normal(size=(2, 3))))
            x1 = rng.uniform(-0.9, 0.9, 5)
            params = LameParameters(lam, mu)
            got = correction_coeffs(make_lame(params), r, tr, x1)
            want = lame_correction(params, r, tr, x1)
            scale = max(np.abs(want).max(), 1e-30)
            assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3), (-0.5, 2.0)])
    def test_generic_kernel_equals_the_closed_form_kernel(self, lam, mu, m):
        # the block solve against the closed form at every derivative order
        # the ansatz reads: the closed form is linear in d_1 delta, so this
        # cross-checks the kernel's derivative chain too
        r = region(m=m, upper=1.1, lower=0.4, eps=5e-3)
        x1 = np.linspace(-0.9, 0.9, 37)
        params = LameParameters(lam, mu)
        got = _generic_kernel(make_lame(params), r, x1, 2)
        want = _lame_kernel(params, r, x1, 2)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_correction_vanishes_as_lam_approaches_minus_mu(self):
        r = region()
        for d in (1e-3, 1e-6, 1e-9):
            G = lame_correction(LameParameters(-1.0 + d, 1.0), r, E1_GAP,
                                np.array([0.1]))[0]
            assert np.abs(G).max() <= d * 0.21


# ---------------------------------------------------------------------------
# data gauges
# ---------------------------------------------------------------------------

class TestGauges:
    def test_equal_traces_vanish(self):
        tr = BoundaryTraces(const(2.0, -1.0), const(2.0, -1.0))
        x1 = np.linspace(-0.9, 0.9, 7)
        assert np.all(theta(tr, x1) == 0.0)
        assert np.all(theta_bar_delta(tr, region(), x1) == 0.0)

    def test_constant_gap_m2_gauges_coincide(self):
        tr = BoundaryTraces(const(3.0, 4.0), const(0.0, 0.0))
        r = region(m=2)
        x1 = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(theta(tr, x1), 5.0)
        assert np.allclose(theta_bar_delta(tr, r, x1), 5.0)

    def test_monomial_gap_at_origin(self):
        tr = BoundaryTraces(PolyTrace([[0.0, 1.0], [0.0]]), const(0.0, 0.0))
        assert theta(tr, 0.0) == pytest.approx(1.0)

    def test_thetabar_smaller_for_m4(self):
        tr = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
        r = region(m=4, eps=1e-3)
        x1 = np.linspace(-0.9, 0.9, 33)
        assert np.all(theta_bar_delta(tr, r, x1) <= theta(tr, x1))


# ---------------------------------------------------------------------------
# the ansatz field
# ---------------------------------------------------------------------------

class TestAnsatzField:
    def test_laplace_reduces_to_interpolant(self):
        r = region()
        tr = BoundaryTraces(const(2.0), const(-1.0))
        af = build_ansatz(make_laplace(), r, tr)
        x1 = np.linspace(-0.9, 0.9, 9)
        t = np.linspace(0.1, 0.9, 9)
        assert np.allclose(af.value(x1, t)[:, 0], 2.0 * t - 1.0 * (1 - t), atol=1e-14)

    def test_boundary_match_exact(self):
        r = region(m=3, upper=0.9, lower=0.7, eps=0.02)
        tr = BoundaryTraces(PolyTrace([[0.3, 1.0, -0.5], [1.0, 2.0]]),
                            PolyTrace([[0.1], [0.0, -1.0]]))
        af = build_ansatz(LAME, r, tr)
        x1 = np.linspace(-0.99, 0.99, 500)
        top = r.from_box(x1, np.ones(500))
        bot = r.from_box(x1, np.zeros(500))
        assert np.abs(af.value(*to_box(r, top)) - tr.phi.jet(x1, 0)[0]).max() <= 1e-14
        assert np.abs(af.value(*to_box(r, bot)) - tr.psi.jet(x1, 0)[0]).max() <= 1e-14

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_the_data(self, a, b):
        r = region(eps=0.05)
        tr1 = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.5))
        tr2 = BoundaryTraces(PolyTrace([[0.0, 1.0], [0.3]]), const(0.0, 0.0))
        mixed = BoundaryTraces(
            PolyTrace([[a, b], [0.3 * b]]),
            const(0.0, 0.5 * a))
        f1 = build_ansatz(LAME, r, tr1)
        f2 = build_ansatz(LAME, r, tr2)
        fm = build_ansatz(LAME, r, mixed)
        x = (np.array([0.2, -0.4]), np.array([0.3, 0.8]))
        want = a * f1.value(*x) + b * f2.value(*x)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(fm.value(*x) - want).max() <= 1e-12 * scale


class TestGradAnsatz:
    def test_vertical_derivative_of_interpolant(self):
        # Laplacian, constant data gap a: d_n ubar = a / delta exactly
        r = region(eps=0.01)
        tr = BoundaryTraces(const(3.0), const(0.0))
        af = build_ansatz(make_laplace(), r, tr)
        x1 = np.array([0.1])
        assert af.gradient(x1, np.array([0.25]))[0, 0, 1] == pytest.approx(3.0 / 0.02, rel=1e-14)

    @pytest.mark.parametrize("tensor", field_cases())
    def test_matches_central_differences(self, tensor):
        r = region(m=2, upper=1.0, lower=0.5, eps=5e-3)
        tr = BoundaryTraces(PolyTrace([[1.0, 0.2, -0.1], [0.5, 0.4]]),
                            PolyTrace([[0.0, -0.3], [0.1]]))
        af = build_ansatz(tensor, r, tr)
        rng = np.random.default_rng(2)
        x1 = rng.uniform(-0.9, 0.9, 1000)
        t = rng.uniform(0.05, 0.95, 1000)
        x = r.from_box(x1, t)
        g = af.gradient(x1, t)
        h = (1e-6 * r.delta(x1))[:, None]
        scale = np.abs(g).max()
        for a in range(2):
            dx = np.zeros((1000, 2))
            dx[:, a] = h[:, 0]
            fd = (af.value(*to_box(r, x + dx)) - af.value(*to_box(r, x - dx))) / (2 * h)
            assert np.abs(g[..., a] - fd).max() <= 1e-6 * scale

    def test_correction_singular_part_vanishes_at_origin(self):
        # radial profiles: d_l delta(0) = 0 kills the correction value there,
        # so its contribution to the singular vertical derivative drops out;
        # what survives is the bounded r(v) dS term driven by the curvature
        r = region(m=2, upper=1.0, lower=1.0, eps=0.01)
        af = build_ansatz(LAME, r, E1_GAP)
        x = (np.zeros(1), np.array([0.37]))
        S, dS, _ = correction_sum(af, np.zeros(1))
        assert np.abs(S).max() <= 1e-15
        diff = af.gradient(*x) - af.gradient(*x, corrected=False)
        assert np.abs(diff[0, :, 1]).max() <= 1e-14       # vertical slot clean
        assert np.abs(diff).max() <= 4.0                  # leftover is bounded

    def test_uncorrected_gradient_builds_no_correction(self):
        # a singular A^nn makes the correction kernel raise; the plain
        # interpolant never reaches it and matches the Laplacian's bit for bit
        r = region(m=2, upper=1.0, lower=0.5, eps=5e-3)
        tr = BoundaryTraces(PolyTrace([[1.0, 0.2, -0.1]]), PolyTrace([[0.0, -0.3]]))
        singular = build_ansatz(make_custom(1, [[[[1.0, 0.0], [0.0, 0.0]]]]), r, tr)
        x = (np.linspace(-0.9, 0.9, 17)[:, None], np.linspace(0.0, 1.0, 9))
        with pytest.raises(HypothesisViolationError):
            singular.gradient(*x)
        want = build_ansatz(make_laplace(), r, tr).gradient(*x, corrected=False)
        assert np.array_equal(singular.gradient(*x, corrected=False), want)

    def test_degenerate_equal_traces_stay_bounded(self):
        # phi == psi independent of x_n: ubar = phi and grad is eps-uniform
        tr = BoundaryTraces(PolyTrace([[1.0, 0.0, 1.0], [0.0]]),
                            PolyTrace([[1.0, 0.0, 1.0], [0.0]]))
        sups = []
        for eps in (1e-2, 1e-4, 1e-6):
            r = region(eps=eps)
            af = build_ansatz(LAME, r, tr)
            x1 = np.linspace(-0.9, 0.9, 101)
            t = np.full(101, 0.3)
            assert np.abs(af.value(x1, t) - tr.phi.jet(x1, 0)[0]).max() <= 1e-14
            sups.append(np.abs(af.gradient(x1, t)).max())
        assert max(sups) <= min(sups) * (1 + 1e-12)


class TestResidual:
    def test_exact_solution_case(self):
        # flat strip + Laplacian + data linear in x_n: the interpolant is
        # harmonic, so the residual vanishes identically
        flat = ProfilePair(FLAT, FLAT, 2, 1, 1, 1, 1, 0.5)
        r = NarrowRegion(flat, 1.0)
        tr = BoundaryTraces(const(2.0), const(-1.0))
        af = build_ansatz(make_laplace(), r, tr)
        rng = np.random.default_rng(3)
        x = (rng.uniform(-0.9, 0.9, 200), rng.uniform(0.05, 0.95, 200))
        f, f0 = af.residual(*x)
        assert np.abs(f).max() <= 1e-10 and np.abs(f0).max() <= 1e-10

    def test_residual_matches_operator_of_fd_hessian(self):
        # independent check: contract the tensor with FD second derivatives
        r = region(m=2, upper=0.8, lower=0.2, eps=0.05)
        tr = BoundaryTraces(PolyTrace([[0.5, 1.0], [0.0, 0.2]]), const(0.0, 0.0))
        af = build_ansatz(LAME, r, tr)
        x0 = r.from_box(np.array([0.21]), np.array([0.6]))[0]
        h = 2e-6
        hess = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                ea, eb = np.zeros(2), np.zeros(2)
                ea[a] = h
                eb[b] = h
                hess[:, a, b] = (af.value(*to_box(r, (x0 + ea + eb)[None]))[0]
                                 - af.value(*to_box(r, (x0 + ea - eb)[None]))[0]
                                 - af.value(*to_box(r, (x0 - ea + eb)[None]))[0]
                                 + af.value(*to_box(r, (x0 - ea - eb)[None]))[0]) / (4 * h * h)
        A = LAME.A(x0[None])[0]
        want = np.einsum("ijab,jab->i", A, hess)
        got = af.residual(*to_box(r, x0[None]))[0][0]
        assert np.abs(got - want).max() <= 1e-3 * max(1.0, np.abs(want).max())

    def test_scaled_residual_bounded_with_correction(self):
        # |f| delta / Theta stays O(1) while the uncorrected |f0| delta^2 / Theta
        # keeps a positive floor: the delta^{-2} part is what the correction kills
        tr = E1_GAP
        corr, unc = [], []
        for eps in (1e-2, 1e-3, 1e-4):
            r = region(eps=eps)
            af = build_ansatz(LAME, r, tr)
            x1 = np.linspace(-0.45, 0.45, 151)
            t = np.full(151, 0.35)
            dlt = r.delta(x1)
            th = theta(tr, x1)
            f, f0 = (np.linalg.norm(g, axis=-1) for g in af.residual(x1, t))
            corr.append((f * dlt / th).max())
            unc.append((f0 * dlt ** 2 / th).max())
        assert max(corr) <= 12.0                  # bounded, eps-uniform
        assert min(unc) >= 1.0                    # bounded below away from zero


def ref_apply_operator(tensor, x, grad, hess):
    """The operator with A copied to every sample, as for varying fields."""
    A, dA, _ = ref_A_derivs(tensor, x)
    f = np.einsum("...ijab,...jab->...i", A, hess)
    if not tensor.is_constant:
        f += np.einsum("...ijb,...jb->...i", np.einsum("...ijaba->...ijb", dA), grad)
    return f


class TestApplyOperator:
    # Lame plus a major-antisymmetric part, A^{ab}_{ij} = -A^{ba}_{ji}: a
    # general constant tensor (the id is the one its case has always had)
    _R = np.random.default_rng(11).normal(size=(2, 2, 2, 2))
    CUSTOM = make_custom(2, LAME.A0 + _R - np.transpose(_R, (1, 0, 3, 2)))

    @pytest.mark.parametrize("tensor", [make_laplace(), LAME, CUSTOM],
                             ids=["laplace", "lame", "custom_bcd"])
    def test_constant_tensor_matches_the_per_sample_contraction(self, tensor):
        # a constant tensor contracts A0 itself; the sums must round as
        # they do over a copy of A0 at every sample, on a column grid of
        # residual_sweep's size and at scattered points
        r = region(eps=0.01)
        rng = np.random.default_rng(12)
        xq = np.linspace(-0.45, 0.45, 399)[:, None]
        ts = np.linspace(0.0, 1.0, 65)[1:-1]
        scattered = (rng.uniform(-0.45, 0.45, 200), rng.uniform(0, 1, 200))
        for where, (x1, t) in {"columns": (xq, ts), "scattered": scattered}.items():
            x = r.from_box(x1, t)
            lead, N = x.shape[:-1], tensor.N
            jet = rng.normal(size=lead + (N, 2)), rng.normal(size=lead + (N, 2, 2))
            assert np.array_equal(apply_operator(tensor, x, *jet),
                                  ref_apply_operator(tensor, x, *jet)), where


# ---------------------------------------------------------------------------
# n-general reference for the planar evaluators
# ---------------------------------------------------------------------------
#
# The jet as it was written for any n: tangential derivative axes of length
# d = n - 1 travel with every factor and the product and chain rules are
# einsums over them.  The profile and gap derivatives come from the
# n-general formulas of ``reference.RefProfile``.  At n = 2 (d = 1, and x2
# is axis nn = 1) the planar evaluators must reproduce it bit for bit.  The
# reference takes x1 as the evaluators do and passes the n-general formulas
# xp = x1[..., None], the points with their d axis.

def ref_leibniz(spec, F, G, order):
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


def ref_gap_slopes(region, xp, order):
    return [ref_gap(region, fn, xp) for fn in REF_DERIVS[1:order + 2]]


def ref_midpoint_tensor_derivs(tensor, region, x1, order):
    d, nn = 1, 1
    xp = x1[..., None]
    h2 = RefProfile(region.profiles.h2)
    x_mid = region.from_box(x1, np.full(x1.shape, 0.5))
    Av, Ag, Ah = ref_A_derivs(tensor, x_mid)
    out = [Av]
    if order >= 1 and tensor.is_constant:
        out += [np.zeros(Av.shape + (d,) * k) for k in range(1, order + 1)]
    elif order >= 1:
        ms = h2.grad(xp) + 0.5 * ref_gap(region, "grad", xp)
        out.append(Ag[..., :d]
                   + np.einsum("...ijab,...g->...ijabg", Ag[..., nn], ms))
        if order >= 2:
            m2s = h2.hess(xp) + 0.5 * ref_gap(region, "hess", xp)
            out.append(Ah[..., :d, :d]
                       + np.einsum("...ijabg,...h->...ijabgh", Ah[..., :d, nn], ms)
                       + np.einsum("...ijabh,...g->...ijabgh", Ah[..., nn, :d], ms)
                       + np.einsum("...ijab,...g,...h->...ijabgh",
                                   Ah[..., nn, nn], ms, ms)
                       + np.einsum("...ijab,...gh->...ijabgh", Ag[..., nn], m2s))
    return out


def ref_generic_kernel(tensor, region, x1, order):
    d, nn = 1, 1
    As = ref_midpoint_tensor_derivs(tensor, region, x1, order)
    tails = [(slice(None),) * k for k in range(order + 1)]
    M = [A[(Ellipsis, nn, nn) + t] for A, t in zip(As, tails)]
    mixed = [A[(Ellipsis, slice(None, d), nn) + t]
             + A[(Ellipsis, nn, slice(None, d)) + t] for A, t in zip(As, tails)]
    s = ref_leibniz("...ilc,...c->...il", mixed, ref_gap_slopes(region, x1[..., None], order),
                    order)
    Minv = np.linalg.inv(M[0])

    def apply(X):
        return (Minv @ X.reshape(Minv.shape[:-1] + (-1,))).reshape(X.shape)

    Q = [Minv @ s[0]]
    if order >= 1:
        rhs = s[1]
        if not tensor.is_constant:
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


def ref_diff(traces, fn, xp):
    """``fn`` ("value", "grad" or "hess") of phi - psi with a tangential axis."""
    return getattr(RefTrace(traces.phi), fn)(xp) - getattr(RefTrace(traces.psi), fn)(xp)


def ref_vbar_hess(region, x1, t, dv):
    """Second derivatives of v at (x1, t), shape (..., n, n).

    With D = (grad delta, 0):  d2 v = -(H + dv D^T + D dv^T) / delta,
    where H is d2 h2 + t d2 delta in the tangential block and 0 elsewhere;
    ``dv`` is ``region.vbar_grad(x1, t)``.
    """
    x1, t = region._box(x1, t)
    xp = x1[..., None]
    D = np.zeros(x1.shape + (2,))
    D[..., :-1] = ref_gap(region, "grad", xp)
    out = -(dv[..., :, None] * D[..., None, :] + D[..., :, None] * dv[..., None, :])
    out[..., :-1, :-1] -= (RefProfile(region.profiles.h2).hess(xp)
                           + t[..., None, None] * ref_gap(region, "hess", xp))
    return out / region.delta(x1)[..., None, None]


def ref_correction_sum(af, x1, order, corrected):
    if not corrected:
        lead = x1.shape + (af.N,)
        return [np.zeros(lead + (1,) * k) for k in range(order + 1)]
    kernel = ref_generic_kernel(af.tensor, af.region, x1, order)
    diff = [ref_diff(af.traces, fn, x1[..., None])
            for fn in ("value", "grad", "hess")[:order + 1]]
    return ref_leibniz("...l,...li->...i", diff, kernel, order)


def ref_jet(af, x1, t, order, corrected=True):
    """[ubar, grad ubar, Hessian] with d tangential derivative axes."""
    region = af.region
    x1, t = region._box(x1, t)
    xp = x1[..., None]
    fns = ("value", "grad", "hess")[:order + 1]
    phi = [getattr(RefTrace(af.traces.phi), f)(xp) for f in fns]
    psi = [getattr(RefTrace(af.traces.psi), f)(xp) for f in fns]
    S = ref_correction_sum(af, x1, order, corrected)
    r, rp = smoother(t), smoother_prime(t)
    out = [phi[0] * t[..., None] + psi[0] * (1 - t)[..., None] + r[..., None] * S[0]]
    if order == 0:
        return out
    d, n = 1, 2
    dv = region.vbar_grad(x1, t)
    grad = np.zeros(dv.shape[:-1] + (af.N, n))
    grad[..., :d] = (phi[1] * t[..., None, None] + psi[1] * (1 - t)[..., None, None]
                     + r[..., None, None] * S[1])
    coef = phi[0] - psi[0] + rp[..., None] * S[0]
    grad += coef[..., :, None] * dv[..., None, :]
    out.append(grad)
    if order == 1:
        return out
    d2v = ref_vbar_hess(region, x1, t, dv)
    hess = np.zeros(dv.shape[:-1] + (af.N, n, n))
    hess[..., :d, :d] = (phi[2] * t[..., None, None, None]
                         + psi[2] * (1 - t)[..., None, None, None]
                         + r[..., None, None, None] * S[2])
    fac = phi[1] - psi[1] + rp[..., None, None] * S[1]
    hess[..., :d, :] += fac[..., :, None] * dv[..., None, None, :]
    hess[..., :, :d] += fac[..., None, :] * dv[..., None, :, None]
    hess += coef[..., None, None] * d2v[..., None, :, :]
    hess += (SMOOTHER_SECOND * S[0])[..., None, None] * (dv[..., None, :, None]
                                                         * dv[..., None, None, :])
    out.append(hess)
    return out


# A(x) = A0 + 0.1 p(x) T with an x2^2 term in p: PERTURBED is linear in x2,
# so its A_{,22} m' m' chain-rule term vanishes and could be dropped unseen
PERTURBED_X2SQ = make_perturbed(LAME, MultiPoly([(1.0, (1, 0)), (0.5, (0, 1)),
                                                 (0.3, (1, 1)), (0.4, (0, 2))]), 0.1,
                                direction=make_lame(LameParameters(2.0, 0.5)).A0)


class TestPlanarJetReference:
    @pytest.mark.parametrize("corrected", [True, False],
                             ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("tensor", [
        pytest.param(LAME, id="lame_generic"),
        pytest.param(make_laplace(), id="laplace"),
        pytest.param(PERTURBED_X2SQ, id="perturbed_x2_squared")])
    def test_value_gradient_residual_match_bit_for_bit(self, tensor, corrected):
        # h2 has a slope, so the mid-gap height moves and every chain-rule
        # term of the perturbed tensor is live
        r = region(m=2, upper=1.0, lower=0.5, eps=5e-3)
        phi = [[1.0, 0.2, -0.1, 0.3], [0.5, 0.4, 0.2]]
        psi = [[0.0, -0.3, 0.1], [0.1, 0.0, -0.2]]
        tr = BoundaryTraces(PolyTrace(phi[:tensor.N]), PolyTrace(psi[:tensor.N]))
        af = build_ansatz(tensor, r, tr)
        X1, T = np.meshgrid(np.linspace(-0.9, 0.9, 17), np.linspace(0.0, 1.0, 9),
                            indexing="ij")
        rng = np.random.default_rng(5)
        points = {"columns": (X1[:, :1], T),
                  "scattered": (rng.uniform(-0.9, 0.9, 200), rng.uniform(0, 1, 200))}
        for where, (x1, t) in points.items():
            if corrected:                   # the plain interpolant has no value evaluator
                assert np.array_equal(af.value(x1, t), ref_jet(af, x1, t, 0)[0]), where
            assert np.array_equal(af.gradient(x1, t, corrected),
                                  ref_jet(af, x1, t, 1, corrected)[1]), where
            want = apply_operator(tensor, r.from_box(x1, t), *ref_jet(af, x1, t, 2, corrected)[1:])
            assert np.array_equal(af.residual(x1, t)[0 if corrected else 1], want), where


class TestPairedResidual:
    @pytest.mark.parametrize("case", ["lame", "thin"])
    def test_paired_pass_equals_separate_evaluations(self, case):
        # residual() forms the corrected and the plain residual from one jet
        # pass; each must equal its own pass bit for bit.  THIN is the pinned
        # run's config: a perturbed tensor, h2 != 0 and polynomial traces
        if case == "lame":
            r, tensor, tr = region(eps=1e-2), LAME, E1_GAP
        else:
            cfg = config_from_dict(THIN)
            r, tensor, tr = (cfg.geometry.build_region(cfg.geometry.epsilon),
                             cfg.tensor.build(), cfg.build_traces())
            assert not tensor.is_constant and r.profiles.h2.coef != 0
        af = build_ansatz(tensor, r, tr)
        rng = np.random.default_rng(11)
        points = {"columns": (np.linspace(-0.9, 0.9, 33)[:, None], np.linspace(0.0, 1.0, 17)),
                  "scattered": (rng.uniform(-0.9, 0.9, 200), rng.uniform(0, 1, 200))}
        for where, (x1, t) in points.items():
            x = r.from_box(x1, t)
            separate = [apply_operator(tensor, x, *af._jets(x1, t, 2, (corrected,))[0][1:])
                        for corrected in (True, False)]
            paired = af.residual(x1, t)
            assert len(paired) == 2
            for got, want in zip(paired, separate):
                assert np.array_equal(got, want), where
            # the correction moves the residual: the pair is not one array twice
            assert not np.array_equal(paired[0], paired[1]), where
