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
from narrowgap.config import DECAY_EPS, ConfigError, config_from_dict, parse_config
from narrowgap.discretize import DiscreteField, dirichlet_values, grid_for
from narrowgap.experiments import (_RESIDUAL_SAMPLES, CHECKS, NOISE_FLOOR, STATISTICS, Claim,
                                   DataError, SolveBundle, SweepPoint,
                                   SweepRequest, SweepResult, ZERO_DATA, _judge_claims, fit_rate,
                                   local_energy, residual_sweep, run_checks, run_sweeps,
                                   solve_point)
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
    for owner, entry in ((discretize._FreeBlockBand, "_cholesky"), (discretize.lapack, "dgbtrf")):
        def counted(*args, _f=getattr(owner, entry), **kwargs):
            calls.append(entry)
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, entry, counted)
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
    # the twisted Cholesky finds the block not positive definite, then banded
    # LU reports an exact zero pivot, so each eps fails on its base grid, for
    # the second config by reuse
    from narrowgap import discretize

    dgbtrf = discretize.lapack.dgbtrf
    monkeypatch.setattr(discretize._FreeBlockBand, "_cholesky", lambda self, ls: False)
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


def test_requests_of_two_sweep_keys_sweep_as_they_do_apart(monkeypatch):
    # one call sweeps each sweep key (tensor, geometry, grid) on its own:
    # two configs at m = 2 on 17x9 and two at m = 3 on 33x9, interleaved,
    # give the CSV bytes, the untimed events and the factorizations of one
    # call per key, in request order
    from narrowgap import discretize

    cholesky, factored = discretize._FreeBlockBand._cholesky, []

    def counted(*args, **kwargs):
        factored.append(None)
        return cholesky(*args, **kwargs)
    monkeypatch.setattr(discretize._FreeBlockBand, "_cholesky", counted)
    eps = (0.01, 0.005, 0.002, 0.001)
    keys = (({"m": 2}, {"tangential_nodes": 17, "vertical_nodes": 9}),
            ({"m": 3}, {"tangential_nodes": 33, "vertical_nodes": 9}))
    requests = [SweepRequest(small_cfg(geometry=geometry, solver=solver, traces={"phi": phi}),
                             ("sup_grad", "thm11_sup"), eps, case=f"m{geometry['m']}")
                for phi in ([[1.0], [0.0]], [[2.0], [0.5]]) for geometry, solver in keys]
    together = run_sweeps(requests)
    calls, apart = len(factored), [None] * len(requests)
    apart[0::2], apart[1::2] = run_sweeps(requests[0::2]), run_sweeps(requests[1::2])
    assert calls == len(factored) - calls == 2 * 2 * len(eps)
    timings = ("elapsed", "assemble_s", "factor_s", "solve_s", "stats_s")
    for one, other in zip(together, apart):
        assert one.error is None and other.error is None
        assert ({s: r.to_csv().encode() for s, r in one.results.items()}
                == {s: r.to_csv().encode() for s, r in other.results.items()})
        assert ([{k: v for k, v in ev.items() if k not in timings} for ev in one.events]
                == [{k: v for k, v in ev.items() if k not in timings} for ev in other.events])


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.json")), ids=lambda p: p.name)
def test_every_shipped_run_is_one_sweep(path):
    # the checks of each shipped config plan requests of one sweep key, which
    # run_sweeps takes as one sweep; planning solves nothing.  A shipped run
    # split over two keys would still pass every verdict, but it would
    # factor more: each key factors its own matrices
    from narrowgap import experiments

    cfg = parse_config(path)
    plans = [CHECKS[name].plan(cfg) for name in cfg.experiment.checks]
    requests = [r for plan in plans if isinstance(plan, list) for r in plan]
    keys = {experiments._sweep_key(r.cfg) for r in requests}
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
    # the configs at a point differ in traces and closure only, so they share
    # one set-up: the tensor, the region, the grid's coordinates, the box
    # Jacobian and the inner-node mask are built once per point and the
    # traces once per bundle.  Each field computes its own kernel rows: 5
    # calls per point, one for the lateral faces of each of the 4
    # ansatz-closure configs and one for the grid's columns.  The ansatz
    # gradient is evaluated twice per point, none repeated: the corrected
    # and the uncorrected remainder of the config thm11, cor41 and energy
    # share, each computed once for all of them; energy's window reads the
    # corrected one.  Over the whole run the tensor is built
    # once more by the hypothesis summary, once more by the residual sweep,
    # which builds the traces once more too, and once more by thm11's judge;
    # no plan builds either
    from narrowgap import ansatz, cli, config, discretize, experiments, geometry

    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "all_m2.json")
    cfg = replace(cfg, solver=replace(cfg.solver, tangential_nodes=17, vertical_nodes=9))
    calls, total, kernels, sweeps, points = Counter(), Counter(), [], [], []
    gradients, inners = [], {}

    def counted(owner, name, record=None):
        f = getattr(owner, name)

        def wrapper(*args, **kwargs):
            total[f"{owner.__name__}.{name}"] += 1
            if sweeps and sweeps[-1] is None:         # inside run_sweeps
                calls[f"{owner.__name__}.{name}"] += 1
                if record is not None:
                    record(*args, **kwargs)
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((config.TensorConfig, "build"), (config.TracesConfig, "build"),
                        (config.GeometryConfig, "build_region"),
                        (discretize.BoxGrid, "node_coords"),
                        (geometry.NarrowRegion, "vbar_grad")):
        counted(owner, name)
    counted(ansatz, "_generic_kernel", lambda tensor, region, x1, order: kernels.append(
        (points[-1][:2], x1.shape, x1.tobytes(), order)))
    counted(ansatz.AnsatzField, "gradient", lambda af, x1, t, corrected=True: gradients.append(
        (points[-1][:2], x1.tobytes(), t.tobytes(), corrected)))
    run_sweeps_, solve_point_ = experiments.run_sweeps, experiments.solve_point
    bundle_init = experiments.SolveBundle.__init__

    def bundle_at(b, *args):
        bundle_init(b, *args)
        inners.setdefault(points[-1][:2], []).append(b.inner)
    monkeypatch.setattr(experiments.SolveBundle, "__init__", bundle_at)

    def sweep_once(requests):
        sweeps.append(None)
        try:
            return run_sweeps_(requests)
        finally:
            sweeps[-1] = requests

    def solve_at(cfgs, eps, nodes):
        points.append((eps, nodes, len(cfgs)))
        return solve_point_(cfgs, eps, nodes)
    monkeypatch.setattr(experiments, "run_sweeps", sweep_once)
    monkeypatch.setattr(experiments, "solve_point", solve_at)
    cli.run(cfg, "all", outdir=tmp_path / "all")

    requests, = sweeps
    eps = {e for r in requests for e in r.eps_list}
    assert len(eps) == 7 and len({r.cfg for r in requests}) == 4
    assert len(points) == 2 * 7 and sum(n for *_, n in points) == 4 * 2 * 7
    assert calls == {"TensorConfig.build": 14, "TracesConfig.build": 56,
                     "GeometryConfig.build_region": 14, "BoxGrid.node_coords": 14,
                     "NarrowRegion.vbar_grad": 14,
                     "narrowgap.ansatz._generic_kernel": len(kernels),
                     "AnsatzField.gradient": len(gradients)}
    assert len(kernels) == 70 and set(Counter(p for p, *_ in kernels).values()) == {5}
    assert sum(shape == (2, 1) and order == 0 for _, shape, _, order in kernels) == 4 * 14
    assert len(gradients) == 2 * 14 and len(set(gradients)) == len(gradients)
    assert set(Counter(p for p, *_ in gradients).values()) == {2}
    assert Counter(corrected for *_, corrected in gradients) == {True: 14, False: 14}
    assert len(inners) == 14 and all(len(masks) == 4 and all(a is masks[0] for a in masks)
                                     for masks in inners.values())
    assert (total["TensorConfig.build"], total["TracesConfig.build"]) == (17, 57)


def test_a_failed_point_setup_fails_every_request_there(monkeypatch):
    # the configs at a point share one set-up, so a region that cannot be
    # built at one eps stops every request running there with that one
    # message, no traceback and no event at that eps, and leaves no system
    # alive; a request whose sweep ends before that eps sweeps as it does
    # alone
    from narrowgap import config

    build_region = config.GeometryConfig.build_region

    def refuse(geometry, eps):
        if eps == 0.002:
            raise GeometryError("no region at eps 0.002")
        return build_region(geometry, eps)

    monkeypatch.setattr(config.GeometryConfig, "build_region", refuse)
    eps = (0.01, 0.005, 0.002, 0.001)
    solver = {"tangential_nodes": 17, "vertical_nodes": 9}
    requests = [SweepRequest(small_cfg(solver=solver, traces={"phi": phi}), ("sup_grad",),
                             eps, case=case)
                for phi, case in (([[1.0], [0.0]], "a"), ([[2.0], [0.0]], "b"),
                                  ([[2.0], [0.0]], "c"))]
    requests.append(SweepRequest(small_cfg(solver=solver), ("sup_grad",), eps[:2]))
    (*failed, early), systems, bands = alive_after_failed_sweep(monkeypatch, requests)
    for out in failed:
        assert type(out.error) is GeometryError and out.error.__traceback__ is None
        assert str(out.error) == "no region at eps 0.002"
        assert {ev["eps"] for ev in out.events} == set(eps[:2])
    assert early.error is None
    alone, = run_sweeps(requests[-1:])
    assert early.results["sup_grad"].to_csv() == alone.results["sup_grad"].to_csv()
    assert (systems, bands) == (0, 0)


def test_a_solved_field_is_node_major_like_its_dirichlet_data():
    # the field hands out values (*shape, N) and gradients (*shape, N, 2),
    # the layouts of the Dirichlet data and of the ansatz: its boundary
    # nodes carry the Dirichlet data bit for bit
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9},
                    traces={"phi": [[1.0, 0.3], [0.0, 0.2]], "psi": [[0.0], [0.1, -0.4]]})
    (b,), _ = solve_point([cfg], 0.01, (17, 9))
    assert isinstance(b, SolveBundle)
    u, V = b.field.values, dirichlet_values(b.grid, b.traces, cfg.solver.closure, b.ansatz,
                                            cfg.solver.lateral_value)
    assert u.shape == V.shape == b.grid.shape + (cfg.N,)
    for edge in ((0,), (-1,), (slice(None), 0), (slice(None), -1)):
        assert np.array_equal(u[edge], V[edge])
    X1, T = b.coords
    assert b.field.gradient_nodes().shape == b.ansatz.gradient(X1[:, :1], T).shape


def test_cached_arrays_are_read_only(monkeypatch):
    # one bundle serves every request of its config, so a statistic that
    # wrote into a cached array would change the next request's numbers
    cfg = small_cfg(solver={"tangential_nodes": 17, "vertical_nodes": 9})
    (b,), _ = solve_point([cfg], 0.01, (17, 9))
    assert isinstance(b, SolveBundle) and b.system is None
    cached = {"XP": b.coords[0], "T": b.coords[1], "inner": b.inner,
              "gradient_nodes": b.field.gradient_nodes(),
              **{f"remainder_{c}": b.remainder(c) for c in (True, False)}}
    assert not [name for name, a in cached.items() if a.flags.writeable]

    def writes(bundle):
        bundle.remainder()[..., 0, 0] = 0.0
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
    X1, T = df.grid.node_coords()
    return region, af, df, df.gradient_nodes() - af.gradient(X1[:, :1], T)


class TestLocalEnergy:

    def test_injected_ansatz_gives_zero(self, energy_setup):
        region, af, df, _ = energy_setup
        grid = df.grid
        X1, T = grid.node_coords()
        exact = DiscreteField(grid, region, af.value(X1, T), df.jacobian)
        # the remainder is the nodal difference, which vanishes identically
        remainder = exact.gradient_nodes() - af.gradient(X1[:, :1], T)
        val = local_energy(exact, remainder, 0.0, 0.05)
        assert val <= 1e-16

    @pytest.mark.parametrize("center, radius", [(0.0, 0.05), (0.3, 0.013), (-0.99, 0.01)])
    def test_window_columns_match_the_whole_grid_carrier(self, energy_setup,
                                                         center, radius):
        # the window reads the columns of the whole-grid remainder; the same
        # quadrature over a carrier field whose values are that remainder,
        # its (N, n) entries flattened, gives the same bits
        region, af, df, remainder = energy_setup
        carrier = DiscreteField(df.grid, region, remainder.reshape(df.grid.shape + (-1,)),
                                df.jacobian)
        nqy, nqt = 24, 48
        yq = center + (np.arange(nqy) + 0.5) / nqy * 2 * radius - radius
        tq = (np.arange(nqt) + 0.5) / nqt
        YQ, TQ = (a.ravel() for a in np.meshgrid(yq, tq, indexing="ij"))
        keep = (YQ - center) ** 2 <= radius ** 2 * (1 + 1e-12)
        vals = value_at(carrier, YQ[keep], TQ[keep])
        w2 = np.sum(vals * vals, axis=-1) * region.delta(YQ[keep])
        want = float(w2.sum() * ((2 * radius / nqy) * (1.0 / nqt)))
        assert local_energy(df, remainder, center, radius, nq=(nqy, nqt)) == want

    def test_quadrature_refinement_agrees(self, energy_setup):
        region, af, df, remainder = energy_setup
        a = local_energy(df, remainder, 0.0, 0.05, nq=(16, 32))
        b = local_energy(df, remainder, 0.0, 0.05, nq=(48, 96))
        assert abs(a - b) <= 0.05 * abs(b)

    def test_window_outside_grid_refused(self, energy_setup):
        region, af, df, remainder = energy_setup
        with pytest.raises(GeometryError):
            local_energy(df, remainder, 0.95, 0.2)
        with pytest.raises(GeometryError):
            local_energy(df, remainder, 0.0, -0.1)


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
    verdict, = run_checks(cfg, ["decay"])
    assert verdict.status == "SKIPPED"
    assert "zero solution" in verdict.details["note"]
    assert verdict.passed


@pytest.mark.parametrize("name", ["decay_laplace", "decay_lame"])
def test_decay_computes_no_correction_rows(monkeypatch, name):
    # decay's constant closure puts no ansatz on the lateral faces and its
    # statistic reads the discrete field alone, so A^nn is never met (on
    # this coarse grid the Richardson flags starve the fit, after every solve)
    from narrowgap import ansatz

    calls = []
    monkeypatch.setattr(ansatz, "_generic_kernel", lambda *args: calls.append(args))
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    cfg = replace(cfg, solver=replace(cfg.solver, tangential_nodes=33, vertical_nodes=9))
    verdict, = run_checks(cfg, ["decay"])
    assert len(verdict.solver_events) == 2 * len(DECAY_EPS) and calls == []


_NO_DIFFERENCE = {"": {"phi": [[0.0], [0.0]], "psi": [[0.0, 0.0]]},
                  "-equal": {"phi": [[1.0], [0.0]], "psi": [[1.0], [0.0]]},
                  "-equal-padded": {"phi": [[1.0, 0.5], [0.0]], "psi": [[1.0, 0.5, 0.0]]}}


@pytest.mark.parametrize("kind, traces", [(k, t) for t in _NO_DIFFERENCE.values()
                                          for k in ("lame", "laplace")],
                         ids=[k + name for name in _NO_DIFFERENCE for k in ("lame", "laplace")])
def test_checks_without_boundary_data_are_skipped_in_one_place(monkeypatch, tmp_path, kind,
                                                               traces):
    # the rates of thm11, cor41, residual and energy are statements about a
    # nonzero phi - psi: with phi - psi = 0 (rows compared after zero-padding,
    # a missing row read as zero) each is SKIPPED with the one note and
    # nothing is solved or sampled; cor41's tensor-kind skip comes first, and
    # the run exits 0
    from narrowgap import experiments
    from narrowgap.cli import main

    def refuse(*args):
        raise AssertionError("a check without boundary data solved or sampled")
    monkeypatch.setattr(experiments, "solve_point", refuse)
    monkeypatch.setattr(experiments, "residual_sweep", refuse)
    names = ("thm11", "cor41", "residual", "energy")
    cfg = small_cfg(tensor={"kind": kind}, traces=traces)
    verdicts = run_checks(cfg, names)
    assert [v.name for v in verdicts] == list(names)
    notes = {v.name: v.details for v in verdicts if v.status == "SKIPPED"}
    assert notes.keys() == set(names)
    if kind == "laplace":
        assert notes.pop("cor41") == {"note": "requires the elasticity tensor, got 'laplace'"}
    assert all(details == {"note": ZERO_DATA} for details in notes.values())
    assert ZERO_DATA == "no trace difference: phi - psi = 0"
    assert not any(v.solver_events for v in verdicts)
    path = tmp_path / "equal.json"
    path.write_text(json.dumps({**json.loads(cfg.to_json()),
                                "experiment": {"checks": list(names)}}))
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


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
                        lambda b: b.column_max(b.remainder(), 0.0))
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
    cfg = small_cfg()
    broken = replace(cfg, experiment=replace(cfg.experiment, monomial_k=2,
                                             remark13_cases=("iii",)))
    verdict, = run_checks(broken, ["remark13"])
    assert verdict.status == "ABORTED"
    assert verdict.details["error"].startswith("ConfigError:")
    assert "m > k" in verdict.details["error"]


@pytest.mark.parametrize("tensor", [{"kind": "laplace", "N": 1},
                                    {"kind": "custom", "N": 1, "custom_A": [1, 0.3, -0.3, 1]}],
                         ids=["laplace", "custom_antisymmetric_mixed_block"])
def test_thm11_with_a_vanishing_correction_only_fits_the_uncorrected_rate(tensor):
    # with A^12 + A^21 = 0 every kernel row is zero, so the corrected and the
    # plain interpolant coincide and no correction is dropped: the
    # uncorrected slope is fitted and reported (here near 0, far from
    # -1/m), not judged against eps^{-1/m}
    cfg = small_cfg(tensor=tensor, traces={"phi": [[1.0, 0.3]], "psi": [[0.0]]},
                    experiment={"eps_list": JUDGE_EPS})
    verdict, = run_checks(cfg, ["thm11"])
    assert verdict.status == "PASS"
    assert verdict.details["expected"] == ("corrected 0 +/- 0.15, uncorrected fitted only: "
                                           "A^12 + A^21 = 0, no correction")
    assert verdict.details["corrected_slope"] == verdict.details["uncorrected_slope"]
    assert abs(verdict.details["uncorrected_slope"] + 0.5) > 0.15


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
