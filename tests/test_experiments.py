"""Sweeps, rate fits, windowed energy, determinism."""

import gc
import json
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowgap.ansatz import AnsatzField, BoundaryTraces, PolyTrace, build_ansatz, theta
from narrowgap.coefficients import LameParameters, make_lame
from narrowgap.config import ConfigError, config_from_dict, parse_config
from narrowgap.discretize import DiscreteField, grid_for
from narrowgap.experiments import (_RESIDUAL_SAMPLES, CHECKS, NOISE_FLOOR, STATISTICS, Claim,
                                   DataError, SolveBundle, SweepInputs, SweepPoint,
                                   SweepRequest, SweepResult, _judge_claims, fit_rate, local_energy,
                                   residual_sweep, run_sweeps, solve_point)
from narrowgap.geometry import GeometryError, NarrowRegion, power_pair
from reference import solve_one, sweep, value_at


def const(*v):
    """A constant trace: one coefficient row of degree 0 per component."""
    return PolyTrace([[c] for c in v])


def synthetic(eps, values, stat="s"):
    pts = [SweepPoint(e, v, v, 0.0, False, (0, 0)) for e, v in zip(eps, values)]
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
        pts = [SweepPoint(e, v, v, 0.0, False, (0, 0))
               for e, v in zip(self.EPS, 1.0 / self.EPS)]
        pts[0] = SweepPoint(self.EPS[0], 999.0, 1500.0, 0.334, True, (0, 0), "grid-limited")
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
        "traces": {"phi": [[1.0], [0.0]], "psi": [[0.0], [0.0]]},
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
        scaled = small_cfg(traces={"phi": [[3.0], [0.0]]})
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


# the base and refined value of one statistic at each eps: the first moves by
# more than RICHARDSON_TOL (0.1), the second by less, the third not at all,
# and the fourth sits under NOISE_FLOOR times the largest value
COMPARED = {0.1: (1.0, 1.2), 0.05: (1.0, 1.05), 0.02: (2.0, 2.0),
            0.01: (NOISE_FLOOR / 10, NOISE_FLOOR / 10)}


def _solve_sweep(monkeypatch, cfg):
    # sup_grad reads the table instead of the solve, on the 17x9 base grid
    # and its 33x17 refinement
    monkeypatch.setitem(STATISTICS, "sup_grad", lambda b: COMPARED[b.eps][
        b.grid.tangential_nodes != 17])
    return sweep(cfg, ["sup_grad"])["sup_grad"]


def _residual_sweep(monkeypatch, cfg):
    # each residual is the table's value times the inverse of its statistic's
    # gauge, so both statistics read the table on both sample grids
    def residual(af, xq, ts):
        dlt = af.region.delta(xq)
        th = theta(af.traces, xq)
        gauges = ((th + dlt * af.traces.c2_total(2 * af.region.R0)) / dlt,   # corrected
                  th / dlt ** 2)                                            # plain
        v = COMPARED[af.region.epsilon][xq.shape[0] != _RESIDUAL_SAMPLES[0]]
        return tuple(np.broadcast_to((v * g)[..., None], g.shape[:-1] + ts.shape + (1,))
                     for g in gauges)

    monkeypatch.setattr(AnsatzField, "residual", residual)
    out = residual_sweep(cfg)
    assert ([p.value for p in out["residual_uncorrected"].points]
            == pytest.approx([p.value for p in out["residual_normalized"].points], rel=1e-12))
    return out["residual_normalized"]


@pytest.mark.parametrize("run, reason", [(_solve_sweep, "grid-limited"),
                                         (_residual_sweep, "sampling-limited")],
                         ids=["solve", "residual"])
def test_one_comparison_flags_both_sweep_kinds(monkeypatch, run, reason):
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                    experiment={"eps_list": list(COMPARED)})
    sr = run(monkeypatch, cfg)
    assert [p.eps for p in sr.points] == list(COMPARED)
    assert np.allclose([(p.value, p.refined_value) for p in sr.points],
                       list(COMPARED.values()), rtol=1e-12, atol=0)
    assert [p.rel_change for p in sr.points] == pytest.approx([0.2 / 1.2, 0.05 / 1.05, 0, 0],
                                                             abs=1e-12)
    assert [(p.flagged, p.reason) for p in sr.points] == [
        (True, reason), (False, ""), (False, ""), (True, "noise-floor")]


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
    from narrowgap import discretize, experiments
    from narrowgap.cli import run

    monkeypatch.setattr(experiments, "RICHARDSON_TOL", 0.99)
    eps = [0.1, 0.05, 0.02, 0.01]
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                    experiment={"eps_list": eps})
    systems = {}
    solve_linear = discretize.solve_linear

    def counted(ls, rhs, *args, **kwargs):
        # ls kept: ids stay unique
        systems.setdefault(id(ls), [ls, []])[1].append(len(rhs))
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
                      traces={"phi": [[2.0], [0.0]]})]
    outs, systems, _ = alive_after_failed_sweep(
        monkeypatch, [SweepRequest(cfg, ("sup_grad",), eps) for cfg in cfgs])
    for out in outs:
        assert type(out.error) is discretize.SolverError
        assert str(out.error) == "banded LU factorization failed: gbtrf info 1"
    assert systems == 0


def test_failed_backward_errors_hold_no_band(monkeypatch):
    # no solve meets TOL 1e-30, so every point fails after its factorization
    from narrowgap import discretize

    monkeypatch.setattr(discretize, "TOL", 1e-30)
    eps = (0.01, 0.005, 0.002, 0.001)
    outs, systems, bands = alive_after_failed_sweep(
        monkeypatch, [SweepRequest(small_cfg(), ("sup_grad",), eps)])
    out, = outs
    assert type(out.error) is discretize.SolverError
    assert str(out.error).startswith("direct solve residual")
    assert str(out.error).endswith("above tol 1.0e-30")
    assert (systems, bands) == (0, 0)


def test_a_failed_column_fails_only_its_config(monkeypatch):
    # under TOL 1e-30 only the zero right-hand side of zero boundary data
    # (backward error 0) passes: the other config fails in the first
    # base-grid pass they share and is not solved again, and the zero one
    # sweeps as it does alone
    from narrowgap import discretize

    monkeypatch.setattr(discretize, "TOL", 1e-30)
    eps = (0.01, 0.005, 0.002, 0.001)
    requests = [SweepRequest(small_cfg(traces={"phi": phi}), ("sup_grad",), eps)
                for phi in ([[1.0], [0.0]], [[0.0], [0.0]])]
    (failed, solved), systems, bands = alive_after_failed_sweep(monkeypatch, requests)
    assert type(failed.error) is discretize.SolverError
    assert str(failed.error).endswith("above tol 1.0e-30")
    assert solved.error is None
    assert [ev["rhs"] for ev in solved.events] == [2] + [1] * (2 * len(eps) - 1)
    assert all(ev["assemble_s"] > 0 and not ev["reused"] for ev in solved.events)
    alone, = run_sweeps(requests[1:])
    assert solved.results["sup_grad"].to_csv() == alone.results["sup_grad"].to_csv()
    assert (systems, bands) == (0, 0)


def test_failed_boundary_data_fail_only_their_config(monkeypatch):
    # the first config assembles the system its boundary data then fail to
    # fill; its requests fail, and the other config sweeps as it does alone
    from narrowgap import discretize

    values = discretize.dirichlet_values

    def refuse_phi_two(grid, traces, *args):
        if traces.phi.rows[0][0] == 2.0:
            raise discretize.AssemblyError("no Dirichlet data for phi = 2")
        return values(grid, traces, *args)

    monkeypatch.setattr(discretize, "dirichlet_values", refuse_phi_two)
    eps = (0.01, 0.005, 0.002, 0.001)
    requests = [SweepRequest(small_cfg(traces={"phi": [[2.0], [0.0]]}), ("sup_grad",), eps,
                             case=case) for case in ("a", "b")]
    requests.append(SweepRequest(small_cfg(), ("sup_grad",), eps))
    (*failed, solved), systems, bands = alive_after_failed_sweep(monkeypatch, requests)
    for out in failed:
        assert type(out.error) is discretize.AssemblyError and not out.events
        assert str(out.error) == "no Dirichlet data for phi = 2"
        assert out.error.__traceback__ is None
    assert solved.error is None
    assert [ev["rhs"] for ev in solved.events] == [1] * (2 * len(eps))
    assert all(ev["assemble_s"] > 0 and not ev["reused"] for ev in solved.events)
    alone, = run_sweeps(requests[2:])
    assert solved.results["sup_grad"].to_csv() == alone.results["sup_grad"].to_csv()
    assert (systems, bands) == (0, 0)


def test_requests_of_other_tensors_are_refused():
    # a sweep factors one matrix per (eps, grid), so it cannot take requests
    # whose tensors differ
    requests = [SweepRequest(small_cfg(tensor={"lam": lam}), ("sup_grad",), (0.01,))
                for lam in (1.0, 2.0)]
    with pytest.raises(ValueError, match="the requests of one sweep differ in tensor$"):
        run_sweeps(requests)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.json")), ids=lambda p: p.name)
def test_every_shipped_run_is_one_sweep(path):
    # the checks of each shipped config plan requests of one tensor, geometry
    # and grid, which run_sweeps takes as one sweep; planning solves nothing
    cfg = parse_config(path)
    plans = [CHECKS[name].plan(cfg) for name in cfg.experiment.checks]
    requests = [r for plan in plans if isinstance(plan, list) for r in plan]
    keys = {(r.cfg.tensor, r.cfg.geometry, r.cfg.solver.scaled_nodes()) for r in requests}
    assert len(keys) == min(len(requests), 1)


def test_a_points_times_survive_a_failed_first_statistic(monkeypatch):
    # phi = 2 is solved first and its statistic raises, so the phi = 1
    # request logs the first event at (0.01, 17x9) and must carry its times
    sup_grad = STATISTICS["sup_grad"]

    def refuse_phi_two(b):
        if b.traces.phi.rows[0][0] == 2.0:
            raise ValueError("no statistic for phi = 2")
        return sup_grad(b)

    monkeypatch.setitem(STATISTICS, "sup_grad", refuse_phi_two)
    eps = (0.01, 0.005, 0.002, 0.001)
    failed, solved = run_sweeps([
        SweepRequest(small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                               traces={"phi": phi}), ("sup_grad",), eps)
        for phi in ([[2.0], [0.0]], [[1.0], [0.0]])])
    assert str(failed.error) == "no statistic for phi = 2" and solved.error is None
    points = {}
    for ev in solved.events:
        points.setdefault((ev["eps"], ev["grid"]), []).append(ev)
    assert len(points) == 2 * len(eps)
    for evs in points.values():
        timed = [ev for ev in evs if not ev["reused"]]
        assert len(timed) == 1 and timed[0]["factor_s"] > 0 and timed[0]["assemble_s"] > 0


def test_each_sweep_input_is_built_once_at_its_level(monkeypatch, tmp_path):
    # the configs of a sweep differ in traces and closure only: the tensor is
    # built once, the traces once per config, the region once per eps, the
    # grid's coordinates once per grid size, the box Jacobian once per
    # (eps, grid), and the correction kernel once per eps, column set and order
    from narrowgap import ansatz, cli, config, discretize, experiments, geometry

    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "all_m2.json")
    cfg = replace(cfg, solver=replace(cfg.solver, tangential_nodes=17, vertical_nodes=9))
    calls, kernels, sweeps = Counter(), [], []

    def counted(owner, name, record=None):
        f = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if sweeps and sweeps[-1] is None:         # inside run_sweeps
                calls[f"{owner.__name__}.{name}"] += 1
                if record is not None:
                    record(*args)
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((config.TensorConfig, "build"), (config.TracesConfig, "build"),
                        (config.GeometryConfig, "build_region"),
                        (discretize.BoxGrid, "node_coords"),
                        (geometry.NarrowRegion, "vbar_grad")):
        counted(owner, name)
    counted(ansatz, "_generic_kernel", lambda tensor, region, x1, order: kernels.append(
        (region.epsilon, x1.shape, x1.tobytes(), order)))
    run_sweeps_ = experiments.run_sweeps

    def sweep_once(requests):
        sweeps.append(None)
        try:
            return run_sweeps_(requests)
        finally:
            sweeps[-1] = requests
    monkeypatch.setattr(experiments, "run_sweeps", sweep_once)
    cli.run(cfg, "all", outdir=tmp_path / "all")

    requests, = sweeps
    eps = {e for r in requests for e in r.eps_list}
    assert len(eps) == 7 and len({r.cfg for r in requests}) == 4
    assert calls == {"TensorConfig.build": 1, "TracesConfig.build": 4,
                     "GeometryConfig.build_region": 7, "BoxGrid.node_coords": 2,
                     "NarrowRegion.vbar_grad": 2 * 7,
                     "narrowgap.ansatz._generic_kernel": len(kernels)}
    assert kernels and len(set(kernels)) == len(kernels)


def test_sweep_inputs_keep_each_geometry_apart():
    # region, grid, Jacobian and kernel depend on the geometry, so configs of
    # two geometries at one point never read each other's
    a, b = small_cfg(), small_cfg(geometry={"R0": 0.4})
    inputs = SweepInputs()
    inputs.at(0.01, (17, 9))
    for cfg in (a, b, a):
        assert inputs.region(cfg).R0 == cfg.geometry.R0
        assert inputs.grid(cfg)[0].half_width == 2 * cfg.geometry.R0
        want = grid_for(inputs.region(cfg), 17, 9)
        assert np.array_equal(inputs.grid(cfg)[1][0], want.node_coords()[0])
        assert np.array_equal(inputs.jacobian(cfg),
                              inputs.region(cfg).vbar_grad(want.axes[0][:, None], want.axes[1]))
        assert inputs.kernel(cfg).region is inputs.region(cfg)
    assert inputs.region(a) is not inputs.region(b)


def test_configs_of_other_geometries_are_refused_at_a_point():
    # the configs of a point share one system, which one geometry fixes
    with pytest.raises(ValueError, match="the configs of one point differ in geometry$"):
        solve_point([small_cfg(), small_cfg(geometry={"R0": 0.4})], 0.01, (17, 9))


def test_cached_arrays_are_read_only(monkeypatch):
    # one bundle serves every request of its config, so a statistic that
    # wrote into a cached array would change the next request's numbers
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9})
    (b,), _ = solve_point([cfg], 0.01, (17, 9))
    assert isinstance(b, SolveBundle) and b.system is None
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
        cfg = small_cfg(experiment={"eps_list": [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3]})
        out = residual_sweep(cfg)
        fit_c = fit_rate(out["residual_normalized"])
        assert abs(fit_c.slope) <= 0.2
        assert out["residual_uncorrected"].values().min() > 1.0

    def test_scaling_invariance(self):
        eps = {"eps_list": [0.1, 0.05, 0.02, 0.01]}
        base = residual_sweep(small_cfg(experiment=eps))
        scaled = residual_sweep(small_cfg(traces={"phi": [[7.0], [0.0]]}, experiment=eps))
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
        X1, T = grid.node_coords()
        exact = DiscreteField(grid, region,
                              np.moveaxis(af.value(X1, T), -1, 0).copy())
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
        X1, T = df.grid.node_coords()
        gw = df.gradient_nodes() - np.moveaxis(af.gradient(X1[:, :1], T),
                                               (-2, -1), (0, 1))
        carrier = DiscreteField(df.grid, region, gw.reshape((-1,) + df.grid.shape))
        nqy, nqt = 24, 48
        yq = center + (np.arange(nqy) + 0.5) / nqy * 2 * radius - radius
        tq = (np.arange(nqt) + 0.5) / nqt
        YQ, TQ = (a.ravel() for a in np.meshgrid(yq, tq, indexing="ij"))
        keep = (YQ - center) ** 2 <= radius ** 2 * (1 + 1e-12)
        vals = value_at(carrier, YQ[keep], TQ[keep])
        w2 = np.sum(vals * vals, axis=-1) * region.delta(YQ[keep])
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
        "traces": {"phi": [[0.0]], "psi": [[0.0]]},
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
        "traces": {"phi": [[0.0]], "psi": [[0.0]]},
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
        "traces": {"phi": [[0.0, 0.0, 1.0]], "psi": [[0.0]]},
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


# ---------------------------------------------------------------------------
# the one rate-claim judge, on synthetic sweeps (no solves)
# ---------------------------------------------------------------------------

JUDGE_EPS = [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3]


def power_law(slope, eps=JUDGE_EPS, stat="s"):
    return synthetic(eps, [3.0 * e ** slope for e in eps], stat)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("reach, status", [(1 - 1e-9, "PASS"), (1 + 1e-6, "FAIL")],
                         ids=["inside", "past"])
def test_judge_band_edge(side, reach, status):
    # an exact power law a hair inside the band passes, one just past it fails
    claim = Claim("s", "rate", "slope", -0.5, 0.15)
    srs = {"s": power_law(-0.5 + side * reach * 0.15)}
    verdict = _judge_claims("demo", srs, (claim,), "-0.5 +/- 0.15")
    assert verdict.status == status
    assert verdict.details == {"slope": round(verdict.fits["rate"].slope, 4),
                               "expected": "-0.5 +/- 0.15"}


@pytest.mark.parametrize("eps, used, npoints", [
    (JUDGE_EPS, 1e-2, 4),
    (JUDGE_EPS[:-1], None, 6)], ids=["tail", "short_tail_falls_back"])
def test_judge_tail_claim_falls_back_to_the_full_window(eps, used, npoints):
    # thm11's tail fit needs 4 clean points at eps <= EPS_FIT_MAX; with 3 it
    # fits the full window and says so through fit_eps_max
    srs = {"thm11_sup": power_law(-0.02, eps, "thm11_sup"),
           "thm11_sup_uncorrected": power_law(-0.5, eps, "thm11_sup_uncorrected")}
    verdict = CHECKS["thm11"].judge(small_cfg(), [srs])
    assert verdict.status == "PASS"
    assert verdict.details["fit_eps_max"] == used
    assert verdict.fits["corrected"].npoints == npoints
    assert verdict.fits["corrected_full"].npoints == len(eps)
    assert verdict.details["full_window_slopes"] == (-0.02, -0.5)


def test_judge_starved_fit_aborts_and_keeps_the_sweeps():
    srs = {"energy_ratio": power_law(0.0, JUDGE_EPS[:3], "energy_ratio")}
    verdict = CHECKS["energy"].judge(small_cfg(), [srs])
    assert verdict.status == "ABORTED"
    assert verdict.details == {"error": "fit requires >= 4 clean points, have 3 "
                                        "(statistic 'energy_ratio')"}
    assert verdict.sweeps is srs and not verdict.fits


def test_remark13_starved_case_aborts_alone():
    results = [{"sup_grad": power_law(0.0, stat="sup_grad")},
               {"shortest_segment_max": power_law(-1.0, JUDGE_EPS[:3], "shortest_segment_max")},
               {"monomial_point_max": power_law(-0.5, stat="monomial_point_max")}]
    verdict = CHECKS["remark13"].judge(small_cfg(), results)
    assert verdict.status == "FAIL"
    assert verdict.details == {
        "case_i": {"status": "PASS", "slope": 0.0, "expected": "0.0 +/- 0.15"},
        "case_ii": {"status": "ABORTED", "error": "fit requires >= 4 clean points, have 3 "
                                                  "(statistic 'shortest_segment_max')"},
        "case_iii": {"status": "PASS", "slope": -0.5, "expected": "-0.5 +/- 0.15"}}
    assert sorted(verdict.fits) == ["case_i", "case_iii"]
    assert sorted(verdict.sweeps) == ["case_i", "case_ii", "case_iii"]
