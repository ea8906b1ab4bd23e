"""Geometry: profiles, hypothesis validation, gap function, box map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowgap.geometry import (EvaluationError, GeometryError, NarrowRegion, PolyProfile,
                                PowerProfile, ProfilePair, power_pair, validate_profiles)
from reference import FLAT, REF_DERIVS, RefProfile, contains, ref_gap, to_box, vbar
from test_ansatz import ref_vbar_hess


def region(m=2, upper=1.0, lower=0.0, eps=0.01, R0=0.5):
    return NarrowRegion(power_pair(m, upper, lower, R0), eps)


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

class TestValidateProfiles:
    def test_equality_case_passes(self):
        # h1 = |x'|^2, h2 = 0 meets (A1) with kappa1 = kappa2 = 1 exactly
        R0 = 0.5
        pair = power_pair(2, 1.0, 0.0, R0, kappas=(1.0, 1.0, 2.0, 2 + 4 * R0 + 4 * R0**2))
        report = validate_profiles(pair)
        assert report.passed, str(report)

    def test_zero_gap_fails_lower_bound(self):
        pair = ProfilePair(FLAT, FLAT, 2, 1.0, 1.0, 1.0, 1.0, 0.5)
        report = validate_profiles(pair)
        failed = {c.name for c in report.checks if not c.passed}
        assert "(A1) lower" in failed

    def test_quartic_pair_passes(self):
        # h1 = |x'|^4, h2 = -|x'|^4: direct evaluation gives gap = 2|x'|^4,
        # |h_i'| = 4|x'|^3, |h_i''| = 12|x'|^2 on the sample grid
        R0 = 0.5
        pts = np.linspace(-2 * R0, 2 * R0, 401)[:, None]
        gap = PowerProfile(1.0, 4).jet(pts, 0)[0] - PowerProfile(-1.0, 4).jet(pts, 0)[0]
        mask = np.abs(pts[:, 0]) > 1e-8
        ratio = gap[mask] / np.abs(pts[mask, 0]) ** 4
        assert np.allclose(ratio, 2.0)
        pair = power_pair(4, 1.0, 1.0, R0, kappas=(2.0, 2.0, 12.0, 50.0))
        report = validate_profiles(pair)
        assert report.passed, str(report)

    def test_nonfinite_profile_reports_point(self):
        class Bad:
            def jet(self, xp, order=2):
                x = np.asarray(xp)[..., 0]
                value = np.where(np.abs(x) > 0.5, np.nan, x * 0.0)
                return [value] + [np.zeros_like(x)] * order

        pair = ProfilePair(Bad(), FLAT, 2, 1, 1, 1, 1, 0.5)
        with pytest.raises(EvaluationError, match="h1"):
            validate_profiles(pair)

    @pytest.mark.parametrize("m", [2, 4, 53, 54, 60, 1000])
    def test_high_orders_pass_with_finite_ratios(self, m):
        # from m = 54 the origin probe's r^m underflows; such samples are
        # skipped as the origin guard's ball is, never divided 0 by 0
        report = validate_profiles(power_pair(m))
        assert report.passed, str(report)
        assert all(np.isfinite(c.worst) for c in report.checks), str(report)

    def test_no_normal_sample_fails_with_its_reason(self):
        # on |x'| <= 0.5, |x'|^1100 is below the smallest normal float
        # everywhere, and so is |x'|^1098, which the (A3) norms are counted by
        report = validate_profiles(power_pair(1100, R0=0.25, kappas=(1.0, 1.0, 1.0, 1.0)))
        checks = [c for c in report.checks if c.name.startswith(("(A1)", "(A2)", "(A3)"))]
        assert len(checks) == 7 and not any(c.passed for c in checks)
        assert all("above the smallest normal float" in c.reason for c in checks)
        assert report.checks[-1].reason == ("no sample has |x'|^1098 above the smallest "
                                            "normal float")
        assert "nan" not in str(report)


# ---------------------------------------------------------------------------
# gap function
# ---------------------------------------------------------------------------

class TestDelta:
    def test_at_origin_equals_eps(self):
        assert region(eps=0.037).delta(np.zeros((1, 1)))[0] == pytest.approx(0.037, abs=1e-15)

    def test_quadratic_example(self):
        # eps = 0.01, h1 = x^2 at x = 0.1 adds another 0.01
        r = region(eps=0.01)
        assert r.delta(np.array([[0.1]]))[0] == pytest.approx(0.02, abs=1e-15)

    def test_matches_raw_profile_calls(self):
        rng = np.random.default_rng(7)
        pair = power_pair(3, 1.3, 0.4, R0=0.4)
        r = NarrowRegion(pair, 0.05)
        xp = rng.uniform(-0.8, 0.8, (64, 1))
        expected = 0.05 + pair.h1.jet(xp, 0)[0] - pair.h2.jet(xp, 0)[0]
        assert np.allclose(r.delta(xp), expected, rtol=0, atol=1e-15)

    def test_out_of_patch_raises(self):
        with pytest.raises(GeometryError, match="patch"):
            region().delta(np.array([[1.5]]))

    @given(st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, c):
        # adding the same constant to both profiles leaves delta unchanged
        base = NarrowRegion(ProfilePair(PolyProfile([0, 0, 1.0]), PolyProfile([0.0]),
                                        2, 1, 1, 2, 6, 0.5), 0.01)
        shifted = NarrowRegion(ProfilePair(PolyProfile([c, 0, 1.0]), PolyProfile([c]),
                                           2, 1, 1, 2, 6, 0.5), 0.01)
        xp = np.linspace(-0.9, 0.9, 17)[:, None]
        assert np.allclose(base.delta(xp), shifted.delta(xp), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# normalized vertical coordinate
# ---------------------------------------------------------------------------

class TestVbar:
    def test_boundary_values(self):
        r = region()
        xp = np.linspace(-0.9, 0.9, 33)[:, None]
        bot = r.from_box(xp, np.zeros(33))
        top = r.from_box(xp, np.ones(33))
        assert np.abs(vbar(r, bot)).max() <= 1e-14
        assert np.abs(vbar(r, top) - 1).max() <= 1e-14

    def test_vertical_derivative_is_inverse_gap(self):
        # delta = 0.02 at x' = 0.1 with eps = 0.01, so d_n v = 50
        r = region(eps=0.01)
        g = r.vbar_grad(np.array([[0.1]]), np.array([0.3]))
        assert g[0, -1] == pytest.approx(50.0, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        r = region(m=3, upper=0.7, lower=0.5, eps=0.02)
        rng = np.random.default_rng(3)
        xp = rng.uniform(-0.8, 0.8, (200, 1))
        t = rng.uniform(0.05, 0.95, 200)
        x = r.from_box(xp, t)
        g = r.vbar_grad(xp, t)
        h = 1e-6 * r.delta(xp)
        for a in range(2):
            e = np.zeros(2)
            dx = np.zeros((200, 2))
            dx[:, a] = h
            fd = (vbar(r, x + dx) - vbar(r, x - dx)) / (2 * h)
            rel = np.abs(g[:, a] - fd) / np.maximum(np.abs(g[:, a]), 1.0)
            assert rel.max() <= 1e-6

    def test_hessian_matches_finite_differences(self):
        r = region(m=2, upper=1.0, lower=0.3, eps=0.05)
        x = r.from_box(np.array([[0.2]]), np.array([0.4]))[0]
        box = to_box(r, x[None])
        H = ref_vbar_hess(r, *box, r.vbar_grad(*box))[0]
        h = 1e-6
        for a in range(2):
            da = np.zeros(2)
            da[a] = h
            fd = (r.vbar_grad(*to_box(r, (x + da)[None]))[0]
                  - r.vbar_grad(*to_box(r, (x - da)[None]))[0]) / (2 * h)
            assert np.abs(H[:, a] - fd).max() <= 1e-5 * max(1.0, np.abs(H).max())

    def test_tangential_gradient_bound(self):
        # |grad_x' v| <= C delta^{-1/m} on sampled interior points
        r = region(m=2, upper=1.0, lower=1.0, eps=1e-3)
        xp = np.linspace(-0.9, 0.9, 301)[:, None]
        t = np.full(301, 0.7)
        g = np.abs(r.vbar_grad(xp, t)[:, 0])
        bound = r.delta(xp) ** -0.5
        assert np.all(g <= 4.0 * bound)

    def test_outside_closure_raises(self):
        r = region()
        with pytest.raises(GeometryError, match="closed region"):
            vbar(r, np.array([[0.0, 1.5]]))


# ---------------------------------------------------------------------------
# box map
# ---------------------------------------------------------------------------

class TestBoxMap:
    def test_roundtrip_1000_points(self):
        r = region(m=2, upper=0.8, lower=0.2, eps=0.02)
        rng = np.random.default_rng(11)
        xp = rng.uniform(-0.99, 0.99, (1000, 1))
        t = rng.uniform(0, 1, 1000)
        x = r.from_box(xp, t)
        xp2, t2 = to_box(r, x)
        assert np.abs(xp2 - xp).max() <= 1e-13
        assert np.abs(t2 - t).max() <= 1e-13

    @given(st.floats(-0.99, 0.99), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_vbar_after_from_box_is_t(self, xp, t):
        r = region(eps=0.05)
        x = r.from_box(np.array([[xp]]), np.array([t]))
        assert abs(vbar(r, x)[0] - t) <= 1e-13

    def test_t_outside_unit_interval_raises(self):
        with pytest.raises(GeometryError):
            region().from_box(np.array([[0.0]]), np.array([1.2]))

    def test_membership(self):
        r = region(eps=0.1)
        inside = r.from_box(np.array([[0.3]]), np.array([0.5]))
        assert bool(contains(r, inside)[0])
        assert not bool(contains(r, np.array([[0.3, 5.0]]))[0])


# ---------------------------------------------------------------------------
# profile derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_power_profile_third_derivative_vs_fd(m):
    p = PowerProfile(0.83, m)
    xp = np.array([[0.37], [-0.52], [0.9]])
    h = 1e-5
    fd = (p.jet(xp + h)[2] - p.jet(xp - h)[2]) / (2 * h)
    assert np.abs(p.jet(xp, 3)[3] - fd).max() <= 2e-4 * max(1.0, np.abs(fd).max())


def test_poly_profile_derivatives():
    p = PolyProfile([1.0, -2.0, 0.5, 3.0])       # 1 - 2x + x^2/2 + 3x^3
    f, d1, d11, d111 = p.jet(np.array([[0.4]]), 3)
    assert f[0] == pytest.approx(1 - 0.8 + 0.08 + 3 * 0.064)
    assert d1[0] == pytest.approx(-2 + 0.4 + 9 * 0.16)
    assert d11[0] == pytest.approx(1.0 + 18 * 0.4)
    assert d111[0] == pytest.approx(18.0)


# the jets keep the operation order of the formulas written for d = n - 1
# tangential axes (``reference.RefProfile``), so at d = 1 they agree bit for
# bit, also at the origin and its probes, where the removable singularities
# take their limits
JET_X = np.array([0.0, 1e-6, -1e-6, 0.5, -0.5, 1.0, -1.0])[:, None]      # R0 = 0.5
POLY_PAIR = ProfilePair(PolyProfile([0.3, -0.2, 1.1, 0.7]), PolyProfile([0.3, 0.1, -0.4]),
                        2, 1, 1, 1, 1, 0.5)


def assert_jet_matches_reference(jet, ref, order):
    assert len(jet) == order + 1
    for got, want in zip(jet, ref):
        assert got.shape == JET_X.shape[:-1]
        assert np.array_equal(got, want.reshape(got.shape))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_power_jet_equals_the_tangential_formulas(m, order):
    for coef in (0.83, -1.7):
        p = PowerProfile(coef, m)
        ref = [getattr(RefProfile(p), fn)(JET_X) for fn in REF_DERIVS]
        assert_jet_matches_reference(p.jet(JET_X, order), ref, order)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_poly_jet_equals_the_tangential_formulas(order):
    for p in (POLY_PAIR.h1, POLY_PAIR.h2):
        ref = [getattr(RefProfile(p), fn)(JET_X) for fn in REF_DERIVS]
        assert_jet_matches_reference(p.jet(JET_X, order), ref, order)


@pytest.mark.parametrize("pair", [power_pair(3, 1.3, 0.4, R0=0.5), POLY_PAIR],
                         ids=["power", "poly"])
def test_delta_jet_equals_the_tangential_formulas(pair):
    r = NarrowRegion(pair, 0.05)
    ref = [0.05 + ref_gap(r, "value", JET_X)] + [ref_gap(r, fn, JET_X) for fn in REF_DERIVS[1:]]
    assert_jet_matches_reference(r.delta_jet(JET_X, 3), ref, 3)
    assert np.array_equal(r.delta(JET_X), ref[0])
