"""Sweeps, rate fits, windowed energy, determinism."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowgap.ansatz import BoundaryTraces, PolyTrace, build_ansatz
from narrowgap.coefficients import LameParameters, make_lame
from narrowgap.config import ConfigError, config_from_dict
from narrowgap.discretize import DiscreteField, grid_for
from narrowgap.experiments import (CHECKS, STATISTICS, DataError, SolveBundle,
                                   SweepPoint, SweepRequest, SweepResult, fit_rate,
                                   local_energy, residual_sweep, run_sweeps,
                                   solve_point)
from narrowgap.geometry import GeometryError, NarrowRegion, power_pair
from reference import solve_one, sweep, value_at


def const(*v):
    """A constant trace: one coefficient row of degree 0 per component."""
    return PolyTrace([[c] for c in v])


def synthetic(eps, values, stat="s"):
    pts = [SweepPoint(e, v, None, None, False, (0, 0)) for e, v in zip(eps, values)]
    return SweepResult(stat, pts)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

class TestFitRate:
    EPS = np.array([1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3])

    def test_exact_inverse_power(self):
        fit = fit_rate(synthetic(self.EPS, 1.0 / self.EPS))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_lands_in_intercept(self):
        fit = fit_rate(synthetic(self.EPS, 3.0 * self.EPS ** -0.5))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_stretched_exponential_recovery(self):
        # s = eps^{-1} exp(-2 / sqrt(eps)): the plane's eps^{n/2} = eps removes
        # the prefactor
        vals = self.EPS ** -1.0 * np.exp(-2.0 / np.sqrt(self.EPS))
        fit = fit_rate(synthetic(self.EPS, vals), model="stretched_exponential", m=2)
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.r_squared >= 0.999
        assert fit.decay_constant == pytest.approx(0.25, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(DataError, match="4"):
            fit_rate(synthetic([0.1, 0.01, 0.001], [1, 2, 3]))

    def test_nonpositive_value_named(self):
        with pytest.raises(DataError, match="0.01"):
            fit_rate(synthetic(self.EPS, [1, 1, 1, 0.0, 1, 1, 1]))

    def test_non_finite_value_named(self):
        with pytest.raises(DataError, match="nan at eps = 0.02"):
            fit_rate(synthetic(self.EPS, [1, 1, np.nan, 1, 1, 1, 1]))

    def test_flagged_points_excluded(self):
        pts = [SweepPoint(e, v, None, None, False, (0, 0))
               for e, v in zip(self.EPS, 1.0 / self.EPS)]
        pts[0] = SweepPoint(self.EPS[0], 999.0, None, None, True, (0, 0), "grid-limited")
        fit = fit_rate(SweepResult("s", pts))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.npoints == 6

    @given(st.floats(-3, 3), st.floats(-2, 2))
    @settings(max_examples=40)
    def test_exact_power_recovery_property(self, slope, intercept):
        vals = np.exp(intercept) * self.EPS ** slope
        fit = fit_rate(synthetic(self.EPS, vals))
        assert abs(fit.slope - slope) <= 1e-10
        assert abs(fit.intercept - intercept) <= 1e-10


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def small_cfg(**extra):
    data = {
        "geometry": {"m": 2, "R0": 0.5},
        "tensor": {"kind": "lame", "lam": 1.0, "mu": 1.0},
        "traces": {"family": "constant", "phi": [1.0, 0.0], "psi": [0.0, 0.0]},
        "solver": {"tangential_nodes": 65, "vertical_nodes": 17},
        "experiment": {"eps_list": [0.1, 0.05, 0.02, 0.01, 0.005]},
    }
    for key, val in extra.items():
        data.setdefault(key, {}).update(val)
    return config_from_dict(data)


class TestSweep:
    def test_deterministic_csv_bytes(self):
        cfg = small_cfg()
        a = sweep(cfg, ["shortest_segment_max"], eps_list=[0.1, 0.05, 0.02, 0.01])
        b = sweep(cfg, ["shortest_segment_max"], eps_list=[0.1, 0.05, 0.02, 0.01])
        assert (a["shortest_segment_max"].to_csv().encode()
                == b["shortest_segment_max"].to_csv().encode())

    def test_eps_must_decrease(self):
        # the sweep visits eps from the largest down, so a request's points
        # and its first error come in its own order only when it decreases
        with pytest.raises(ConfigError, match="strictly decreasing"):
            sweep(small_cfg(), ["sup_grad"], eps_list=[0.01, 0.1])

    def test_statistic_linearity_under_trace_scaling(self):
        # remainder statistics scale linearly with the data, so fitted
        # slopes (and hence verdicts) are invariant under positive scaling
        base = small_cfg()
        scaled = small_cfg(traces={"phi": [3.0, 0.0]})
        a = sweep(base, ["thm11_sup"], eps_list=[0.05, 0.01])
        b = sweep(scaled, ["thm11_sup"], eps_list=[0.05, 0.01])
        ratio = b["thm11_sup"].values() / a["thm11_sup"].values()
        assert np.allclose(ratio, 3.0, rtol=1e-9)

    def test_richardson_metadata_present(self):
        cfg = small_cfg()
        out = sweep(cfg, ["thm11_sup"], eps_list=[0.1, 0.05, 0.02, 0.01])
        sr = out["thm11_sup"]
        assert all(p.refined_value is not None for p in sr.points)
        assert all(p.rel_change is not None for p in sr.points)

    def test_noise_floor_flagging(self):
        # decay statistic at a tight gap sits twelve decades under the head
        # of the sweep and must be excluded from fits
        pts = [SweepPoint(e, v, v, 0.0, False, (0, 0))
               for e, v in zip([0.1, 0.05, 0.02, 0.01], [1.0, 0.1, 1e-14, 1e-15])]
        sr = SweepResult("s", pts)
        # replicate the sweep-level flagging rule
        vmax = max(abs(p.value) for p in sr.points)
        from dataclasses import replace
        sr.points = [replace(p, flagged=abs(p.value) < vmax * 1e-12) for p in sr.points]
        assert [p.flagged for p in sr.points] == [False, False, True, True]


def test_checks_share_one_factorization_per_point(tmp_path, monkeypatch):
    # thm11, cor41, energy and the three remark13 cases share one matrix per
    # (eps, grid): one factorization each, and the same CSV bytes as alone
    from narrowgap import discretize
    from narrowgap.cli import run

    eps = [0.01, 0.005, 0.002, 0.001]
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                    experiment={"eps_list": eps,
                                "checks": ["thm11", "remark13", "cor41", "energy"]})
    calls = []
    for routine in ("dpbtrf", "dgbtrf"):
        def counted(*args, _f=getattr(discretize.lapack, routine), **kwargs):
            calls.append(args[0].shape)
            return _f(*args, **kwargs)

        monkeypatch.setattr(discretize.lapack, routine, counted)
    run(cfg, "all", outdir=tmp_path / "all")
    assert len(calls) == 2 * len(eps)
    together = {p.name: p.read_bytes() for p in (tmp_path / "all").glob("*.csv")}
    assert {name.split("_")[0] for name in together} == set(cfg.experiment.checks)
    for check in cfg.experiment.checks:
        run(cfg, check, outdir=tmp_path / check)
        alone = {p.name: p.read_bytes() for p in (tmp_path / check).glob("*.csv")}
        assert alone and alone == {k: v for k, v in together.items()
                                   if k.startswith(check + "_")}


def test_equal_configs_share_one_solve_and_change_nothing(tmp_path, monkeypatch):
    # thm11, cor41 and energy plan the same config: together they make one
    # solve per (eps, grid) and write what each writes alone
    from narrowgap import discretize
    from narrowgap.cli import run

    eps = [0.1, 0.05, 0.02, 0.01]
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                    experiment={"eps_list": eps, "richardson_tol": 0.99})
    systems = {}
    solve_linear = discretize.solve_linear

    def counted(ls, rhs, *args, **kwargs):
        # ls kept: ids stay unique
        systems.setdefault(id(ls), [ls, []])[1].append(len(np.atleast_2d(rhs)))
        return solve_linear(ls, rhs, *args, **kwargs)

    monkeypatch.setattr(discretize, "solve_linear", counted)
    run(cfg, "all", outdir=tmp_path / "all")
    # one pass per system with a right-hand side for each of {thm11, cor41,
    # energy}, the three remark13 cases and decay; residual solves nothing
    assert [rows for _, rows in systems.values()] == [[5]] * (2 * len(eps))
    monkeypatch.setattr(discretize, "solve_linear", solve_linear)

    def outputs(name, check):
        fits = json.loads((tmp_path / name / "fits.json").read_text())[check]
        csvs = {p.name: p.read_text().splitlines()
                for p in (tmp_path / name).glob(check + "_*.csv")}
        return fits, csvs

    for check in ("thm11", "cor41", "energy"):
        run(cfg, check, outdir=tmp_path / check)
        fits, csvs = outputs(check, check)
        assert set(fits) - {"status", "details"} and csvs      # fitted, not ABORTED
        assert (fits, csvs) == outputs("all", check)


def alive_after_failed_sweep(monkeypatch, requests):
    """(outcomes, systems alive, factored bands alive) with the outcomes held.

    The cyclic collector is off, so a system counts as alive when a kept
    error's traceback frames still reach it.
    """
    from narrowgap import discretize

    systems, bands = [], []
    assemble = discretize.assemble

    def recorded(tf):
        ls = assemble(tf)
        systems.append(weakref.ref(ls))
        return ls

    class RecordedBand(discretize._FreeBlockBand):
        def __init__(self, ls):
            super().__init__(ls)
            bands.append(weakref.ref(self))

    monkeypatch.setattr(discretize, "assemble", recorded)
    monkeypatch.setattr(discretize, "_FreeBlockBand", RecordedBand)
    gc.collect()
    gc.disable()
    try:
        outs = run_sweeps(requests)
        return (outs, sum(r() is not None for r in systems),
                sum(r() is not None for r in bands))
    finally:
        gc.enable()


def test_failed_factorizations_hold_no_system(monkeypatch):
    # Cholesky reports a non-positive pivot, then banded LU an exact zero one,
    # so each eps fails on its base grid, for the second config by reuse
    from narrowgap import discretize

    dgbtrf = discretize.lapack.dgbtrf
    monkeypatch.setattr(discretize.lapack, "dpbtrf", lambda ab, **k: (ab, 1))
    monkeypatch.setattr(discretize.lapack, "dgbtrf",
                        lambda *a, **k: dgbtrf(*a, **k)[:2] + (1,))
    eps = (0.01, 0.005, 0.002, 0.001)
    cfgs = [small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9}),
            small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                      traces={"phi": [2.0, 0.0]})]
    outs, systems, _ = alive_after_failed_sweep(
        monkeypatch, [SweepRequest(cfg, ("sup_grad",), eps) for cfg in cfgs])
    for out in outs:
        assert type(out.error) is discretize.SolverError
        assert str(out.error) == "banded LU factorization failed: gbtrf info 1"
    assert systems == 0


def test_failed_backward_errors_hold_no_band(monkeypatch):
    # no solve meets tol 1e-30, so every point fails after its factorization
    from narrowgap import discretize

    eps = (0.01, 0.005, 0.002, 0.001)
    outs, systems, bands = alive_after_failed_sweep(
        monkeypatch, [SweepRequest(small_cfg(solver={"tol": 1e-30}), ("sup_grad",), eps)])
    out, = outs
    assert type(out.error) is discretize.SolverError
    assert str(out.error).startswith("direct solve residual")
    assert str(out.error).endswith("above tol 1.0e-30")
    assert (systems, bands) == (0, 0)


def test_a_failed_column_fails_only_its_config(monkeypatch):
    # two configs differ only in tol: the one no solve can meet fails in the
    # first base-grid pass they share and is not solved again, and the other
    # sweeps as it does alone
    from narrowgap import discretize

    eps = (0.01, 0.005, 0.002, 0.001)
    requests = [SweepRequest(small_cfg(solver={"tol": tol}), ("sup_grad",), eps)
                for tol in (1e-30, 1e-10)]
    (failed, solved), systems, bands = alive_after_failed_sweep(monkeypatch, requests)
    assert type(failed.error) is discretize.SolverError
    assert str(failed.error).endswith("above tol 1.0e-30")
    assert solved.error is None
    assert [ev["rhs"] for ev in solved.events] == [2] + [1] * (2 * len(eps) - 1)
    alone, = run_sweeps(requests[1:])
    assert solved.results["sup_grad"].to_csv() == alone.results["sup_grad"].to_csv()
    assert (systems, bands) == (0, 0)


def test_cached_arrays_are_read_only(monkeypatch):
    # one bundle serves every request of its config, so a statistic that
    # wrote into a cached array would change the next request's numbers
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9})
    point = {}
    b = SolveBundle(cfg, 0.01, (17, 9), point)
    assert solve_point([b], point["system"]) == [None]
    cached = {"XP": b.coords[0], "T": b.coords[1], "inner": b.inner,
              "grad_num": b.grad_num, "gradient_nodes": b.field.gradient_nodes(),
              **{f"{name}_{c}": getattr(b, name)(c) for c in (True, False)
                 for name in ("grad_ansatz", "remainder_inner")}}
    assert not [name for name, a in cached.items() if a.flags.writeable]

    def writes(bundle):
        bundle.grad_num[..., 0, 0] = 0.0
        return 1.0

    monkeypatch.setitem(STATISTICS, "sup_grad", writes)
    with pytest.raises(ValueError, match="read-only"):
        sweep(cfg, ["sup_grad"], eps_list=[0.01])


class TestResidualSweep:
    def test_slopes_and_floor(self):
        cfg = small_cfg()
        out = residual_sweep(cfg, eps_list=(1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3))
        fit_c = fit_rate(out["residual_normalized"])
        assert abs(fit_c.slope) <= 0.2
        assert out["residual_uncorrected"].values().min() > 1.0

    def test_scaling_invariance(self):
        base = residual_sweep(small_cfg(), eps_list=(0.1, 0.05, 0.02, 0.01))
        scaled = residual_sweep(small_cfg(traces={"phi": [7.0, 0.0]}),
                                eps_list=(0.1, 0.05, 0.02, 0.01))
        r = scaled["residual_normalized"].values() / base["residual_normalized"].values()
        assert np.allclose(r, 1.0, rtol=1e-9)   # gauge-normalized: scale free


# ---------------------------------------------------------------------------
# local energy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def energy_setup():
    region = NarrowRegion(power_pair(2, 1.0, 0.0, R0=0.5), 0.02)
    tensor = make_lame(LameParameters(1.0, 1.0))
    traces = BoundaryTraces(const(1.0, 0.0), const(0.0, 0.0))
    af = build_ansatz(tensor, region, traces)
    df, _ = solve_one(tensor, region, traces, grid_for(region, 129, 33))
    return region, af, df


class TestLocalEnergy:

    def test_injected_ansatz_gives_zero(self, energy_setup):
        region, af, df = energy_setup
        grid = df.grid
        XP, T = grid.node_coords()
        exact = DiscreteField(grid, region,
                              np.moveaxis(af.value(XP, T), -1, 0).copy())
        # the carrier is the nodal difference, which vanishes identically
        val = local_energy(exact, af, 0.0, 0.05)
        assert val <= 1e-16

    @pytest.mark.parametrize("center, radius", [(0.0, 0.05), (0.3, 0.013), (-0.99, 0.01)])
    def test_window_columns_match_the_whole_grid_carrier(self, energy_setup,
                                                         center, radius):
        # the remainder is formed only on the columns the window reads; the
        # same quadrature over a carrier built on every column gives the
        # same bits
        region, af, df = energy_setup
        XP, T = df.grid.node_coords()
        gw = df.gradient_nodes() - np.moveaxis(af.gradient(XP[..., :1, :], T),
                                               (-2, -1), (0, 1))
        carrier = DiscreteField(df.grid, region, gw.reshape((-1,) + df.grid.shape))
        nqy, nqt = 24, 48
        yq = center + (np.arange(nqy) + 0.5) / nqy * 2 * radius - radius
        tq = (np.arange(nqt) + 0.5) / nqt
        YQ, TQ = (a.ravel() for a in np.meshgrid(yq, tq, indexing="ij"))
        keep = (YQ - center) ** 2 <= radius ** 2 * (1 + 1e-12)
        vals = value_at(carrier, YQ[keep, None], TQ[keep])
        w2 = np.sum(vals * vals, axis=-1) * region.delta(YQ[keep, None])
        want = float(w2.sum() * ((2 * radius / nqy) * (1.0 / nqt)))
        assert local_energy(df, af, center, radius, nq=(nqy, nqt)) == want

    def test_quadrature_refinement_agrees(self, energy_setup):
        region, af, df = energy_setup
        a = local_energy(df, af, 0.0, 0.05, nq=(16, 32))
        b = local_energy(df, af, 0.0, 0.05, nq=(48, 96))
        assert abs(a - b) <= 0.05 * abs(b)

    def test_window_outside_grid_refused(self, energy_setup):
        region, af, df = energy_setup
        with pytest.raises(GeometryError):
            local_energy(df, af, 0.95, 0.2)
        with pytest.raises(GeometryError):
            local_energy(df, af, 0.0, -0.1)


# ---------------------------------------------------------------------------
# decay check plumbing
# ---------------------------------------------------------------------------

def test_decay_zero_lateral_is_skipped():
    cfg = config_from_dict({
        "geometry": {"R0": 0.25},
        "tensor": {"kind": "laplace", "N": 1},
        "traces": {"family": "constant", "phi": [0.0], "psi": [0.0]},
        "solver": {"tangential_nodes": 33, "vertical_nodes": 9,
                   "closure": "constant", "lateral_value": [0.0]},
    })
    verdict = CHECKS["decay"](cfg)
    assert verdict.status == "SKIPPED"
    assert "zero solution" in verdict.details["note"]
    assert verdict.passed


# ---------------------------------------------------------------------------
# model selection, dual-path verdicts, the sharper shortest-segment remainder
# ---------------------------------------------------------------------------

def test_decay_exponent_model_selection_m3():
    # with m = 3 the decay is linear against eps^{-2/3}; refitting against the
    # m = 2 exponent eps^{-1/2} degrades the fit measurably
    cfg = config_from_dict({
        "geometry": {"m": 3, "R0": 0.25},
        "tensor": {"kind": "laplace", "N": 1},
        "traces": {"family": "constant", "phi": [0.0], "psi": [0.0]},
        "solver": {"tangential_nodes": 257, "vertical_nodes": 65,
                   "closure": "constant", "lateral_value": [1.0]},
        "experiment": {"eps_list": [0.1, 0.08, 0.06, 0.045, 0.035]},
    })
    srs = sweep(cfg, ["decay_normalized"])
    right = fit_rate(srs["decay_normalized"], model="stretched_exponential", m=3)
    wrong = fit_rate(srs["decay_normalized"], model="stretched_exponential", m=2)
    assert right.r_squared >= 0.9995
    assert wrong.r_squared < right.r_squared
    assert (1 - wrong.r_squared) > 5 * (1 - right.r_squared)


def test_shortest_segment_remainder_order_eps_when_gauge_vanishes(monkeypatch):
    # phi - psi = (x1^2, 0) has Theta(0') = 0, so the remainder on the
    # shortest segment drops to O(eps) instead of O(1).  No check plans
    # this statistic, max |grad(u - ubar)| on the shortest segment (Remark
    # 1.1), so the test registers it for the sweep.
    monkeypatch.setitem(STATISTICS, "shortest_remainder",
                        lambda b: b.column_max(b.grad_num - b.grad_ansatz(), 0.0))
    cfg = config_from_dict({
        "geometry": {"m": 2, "R0": 0.5},
        "tensor": {"kind": "lame", "lam": 1.0, "mu": 1.0},
        "traces": {"family": "poly", "poly_phi": [[0.0, 0.0, 1.0]], "poly_psi": [[0.0]]},
        "solver": {"tangential_nodes": 257, "vertical_nodes": 65},
        "experiment": {"eps_list": [0.02, 0.01, 0.005, 0.002]},
    })
    srs = sweep(cfg, ["shortest_remainder"])
    vals = srs["shortest_remainder"].values()
    slope = np.polyfit(np.log([0.02, 0.01, 0.005, 0.002]), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.25)


def test_remark13_case_iii_rejected_when_m_not_above_k():
    from narrowgap.config import ConfigError
    from dataclasses import replace
    cfg = small_cfg()
    broken = replace(cfg, experiment=replace(cfg.experiment, monomial_k=2,
                                             remark13_cases=("iii",)))
    with pytest.raises(ConfigError, match="m > k"):
        CHECKS["remark13"](broken)
