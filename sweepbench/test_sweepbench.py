"""Self-tests of the benchmark that make no PDE solve.

    python3 -m pytest sweepbench -q
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from narrowgap.config import DECAY_EPS, DEFAULT_EPS, parse_config  # noqa: E402

SEEDS = range(1, 201)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_is_the_shipped_configs(name):
    spec = workloads.WORKLOADS[name]
    shipped = []
    for fname in spec.configs:
        cfg = parse_config(ROOT / "configs" / fname)
        if spec.grid_scale is not None:
            cfg = replace(cfg, solver=replace(cfg.solver, grid_scale=spec.grid_scale))
        shipped.append((Path(fname).stem, cfg))
    assert workloads.build_configs(ROOT, name, 0) == shipped


def test_shift_direction_and_magnitude():
    for name, spec in workloads.WORKLOADS.items():
        shifts = [workloads.shift_decades(name, s) for s in SEEDS]
        assert all(0 < spec.direction * x <= workloads.MAX_SHIFT_DECADES for x in shifts)
        assert len(set(shifts)) == len(shifts)
        assert shifts == [workloads.shift_decades(name, s) for s in SEEDS]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shift_scales_every_eps_by_one_factor(name):
    seed = 7
    factor = 10.0 ** workloads.shift_decades(name, seed)
    for (_, base), (_, cfg) in zip(workloads.build_configs(ROOT, name, 0),
                                   workloads.build_configs(ROOT, name, seed)):
        default = DECAY_EPS if base.experiment.checks == ("decay",) else DEFAULT_EPS
        assert cfg.experiment.eps_list == pytest.approx(
            [e * factor for e in default], rel=1e-15)
        assert replace(cfg, experiment=base.experiment) == base


def test_downward_shift_keeps_four_tail_points():
    for name in ("thm11_fine", "all_m2_coarse"):
        for seed in SEEDS:
            (_, cfg), *_ = workloads.build_configs(ROOT, name, seed)
            assert sum(e <= 1e-2 for e in cfg.experiment.eps_list) >= 4


def make_span(i, start, end, parent=None):
    return spans.Span(i, f"s{i}", start, end, parent, "r")


def test_self_time_subtracts_covered_child_time():
    tree = [
        make_span(0, 0.0, 10.0),
        make_span(1, 1.0, 4.0, 0),
        make_span(2, 3.0, 6.0, 0),      # overlaps its sibling by 1
        make_span(3, 2.0, 3.0, 1),
        make_span(4, 8.0, 12.0, 0),     # runs past its parent's end
        make_span(5, 11.0, 13.0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0, 5: 2.0}
    assert spans.top_level_cover(tree) == 12.0


def test_tracer_records_nesting_and_run():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.run = "a"
    assert outer(1) == 4
    o, i = tracer.spans
    assert (o.name, o.parent, i.name, i.parent, i.run) == ("outer", None, "inner", 0, "a")
    assert o.start <= i.start <= i.end <= o.end
    assert spans.self_times(tracer.spans)[0] == pytest.approx(
        (o.end - o.start) - (i.end - i.start))


def test_golden_thm11_matches_committed_fits():
    fits = ROOT / "runs" / "thm11" / "fits.json"
    if not fits.is_file():
        pytest.skip("runs/thm11/fits.json is not in this checkout")
    golden = json.loads((HERE / "golden.json").read_text())["thm11_fine"]["thm11"]["thm11"]
    committed = json.loads(fits.read_text())["thm11"]
    assert golden["status"] == committed["status"] == "PASS"
    assert golden["details"]["corrected_slope"] == -0.0629
    assert golden["details"]["uncorrected_slope"] == -0.462
    for key in ("corrected_slope", "uncorrected_slope", "fit_eps_max"):
        assert math.isclose(golden["details"][key], committed["details"][key])


def test_judge_counts_failed_and_mismatched_verdicts():
    ok = {"status": "PASS", "details": {"slope": -0.0629}}
    golden = {"a": {"x": ok, "y": ok}, "b": {"z": ok}}
    assert worker.judge(golden, golden) == (3, 0, [])
    assert worker.judge(golden) == (3, 0, [])
    run = {"a": {"x": {"status": "PASS", "details": {"slope": -0.0630}},
                 "y": {"status": "FAIL", "details": {"slope": -0.0629}}}}
    attempted, failed, problems = worker.judge(run, golden)
    assert (attempted, failed) == (3, 3)
    assert problems == ["a/x: differs from golden.json", "a/y: FAIL", "b/z: not run"]
    assert worker.judge(run)[:2] == (2, 1)


def test_gauge_samples_while_entered_and_restores_the_handler():
    import signal
    import time

    import gauge

    before = signal.getsignal(signal.SIGALRM)
    g = gauge.Gauge(period=0.02, n=20)
    for _ in range(2):
        with g:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(g.samples) >= 4
    assert 0 < sum(g.samples) <= g.spent < 0.4
    assert g.mean == pytest.approx(sum(g.samples) / len(g.samples))
