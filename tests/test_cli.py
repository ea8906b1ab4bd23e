"""Configuration parsing, run orchestration, artifact reproducibility."""

import argparse
import ctypes
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from narrowgap import discretize
from narrowgap.cli import COMMANDS, RunReport, build_parser, main, run
from narrowgap.coefficients import LameParameters, MultiPoly, make_lame, make_perturbed
from narrowgap.config import (_BLOCKS, CHECK_NAMES, ConfigError, ExperimentConfig,
                              OutputConfig, config_from_dict, parse_config, validate_config)
from narrowgap.experiments import CHECKS, SweepPoint, SweepResult, Verdict, run_checks

MINI = {
    "geometry": {"m": 2, "R0": 0.5},
    "tensor": {"kind": "lame", "lam": 1.0, "mu": 1.0},
    "traces": {"phi": [[1.0], [0.0]], "psi": [[0.0], [0.0]]},
    "solver": {"tangential_nodes": 33, "vertical_nodes": 9},
    "experiment": {"checks": ["residual"],
                   "eps_list": [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]},
}


# every check on a 17x9 base grid: the Richardson grid flags most points, so
# only residual and energy pass, but every solving check sweeps all 4 eps
TINY = {**MINI,
        "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
        "experiment": {"eps_list": [0.01, 0.005, 0.002, 0.001]}}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParseConfig:
    def test_minimal_laplace_parses_with_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, {"tensor": {"kind": "laplace"}}))
        assert cfg.solver.tangential_nodes == 257
        assert cfg.experiment.monomial_k == 1
        assert cfg.N == 1

    def test_unknown_keys_collected(self, tmp_path):
        bad = {"tensor": {"kindd": "lame"}, "solver": {"tangental_nodes": 9},
               "nonsense": {}}
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        msg = str(err.value)
        assert "kindd" in msg and "tangental_nodes" in msg and "nonsense" in msg

    def test_retired_direct_limit_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'direct_limit'"):
            config_from_dict({**MINI, "solver": {"direct_limit": 200_000}})

    def test_monomial_degree_must_stay_below_convexity_order(self, tmp_path):
        bad = dict(MINI)
        bad["experiment"] = {"checks": ["remark13"], "monomial_k": 3}
        with pytest.raises(ConfigError, match="m > k"):
            parse_config(write_cfg(tmp_path, bad))

    def test_retired_ansatz_mode_key_rejected(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {**MINI, "solver": {"ansatz_mode": "lame_closed_form"}})
        assert main(["validate", "--config", str(p)]) == 2
        assert "solver: unknown key 'ansatz_mode'" in capsys.readouterr().err

    def test_exact_closure_refused(self):
        # the problem is homogeneous: no closure writes an exact field
        with pytest.raises(ConfigError, match="unknown closure 'exact'"):
            config_from_dict({**MINI, "solver": {"closure": "exact"}})

    def test_roundtrip_structural_equality(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINI))
        echoed = tmp_path / "echo.json"
        echoed.write_text(cfg.to_json())
        assert parse_config(echoed) == cfg

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(p)

    def test_validate_config_accumulates(self):
        cfg = config_from_dict(MINI)
        assert validate_config(cfg) == []

    def test_non_finite_numbers_rejected(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"geometry": {"R0": Infinity}, "tensor": {"kind": "custom",'
                     ' "custom_A": [NaN, 0, 0, 1]}}')
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        msg = str(err.value)
        assert "geometry: R0 is not a finite number" in msg
        assert "tensor: custom_A[0] is not a finite number" in msg


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_parses(path):
    cfg = parse_config(path)
    # the echo of a config parses back to it, nested coefficient rows and all
    assert config_from_dict(json.loads(cfg.to_json())) == cfg
    # runs/thm11 is the committed golden run of acceptance criterion 4
    golden = ROOT / "runs" / "thm11"
    out = (ROOT / cfg.output.dir).resolve()
    assert out != golden and golden not in out.parents


def test_golden_run_echoes_its_config():
    echo = parse_config(ROOT / "runs" / "thm11" / "config_echo.json")
    shipped = parse_config(ROOT / "configs" / "thm11.json")
    assert echo == replace(shipped, output=OutputConfig(dir="runs/thm11"))


# every settable (block, field) of a run config; a new knob edits this set
CONFIG_FIELDS = {
    ("geometry", "family"), ("geometry", "m"), ("geometry", "upper_coef"),
    ("geometry", "lower_coef"), ("geometry", "R0"), ("geometry", "epsilon"),
    ("geometry", "poly_upper"), ("geometry", "poly_lower"), ("geometry", "kappa1"),
    ("geometry", "kappa2"), ("geometry", "kappa3"), ("geometry", "kappa4"),
    ("tensor", "kind"), ("tensor", "lam"), ("tensor", "mu"), ("tensor", "N"),
    ("tensor", "perturb_scale"), ("tensor", "perturb_poly"), ("tensor", "custom_A"),
    ("traces", "phi"), ("traces", "psi"),
    ("solver", "tangential_nodes"), ("solver", "vertical_nodes"), ("solver", "closure"),
    ("solver", "lateral_value"), ("solver", "grid_scale"),
    ("experiment", "checks"), ("experiment", "eps_list"), ("experiment", "monomial_k"),
    ("experiment", "remark13_cases"),
    ("output", "dir"),
}


def test_config_fields_are_the_census():
    got = {(block, f.name) for block, cls in _BLOCKS.items() for f in fields(cls)}
    assert got == CONFIG_FIELDS
    assert len(got) == 31


def test_the_check_lists_agree():
    # config cannot import experiments, so the check names are written twice
    assert tuple(CHECKS) == CHECK_NAMES
    assert COMMANDS[COMMANDS.index("solve") + 1:COMMANDS.index("all")] == CHECK_NAMES


def test_readme_names_every_option_and_key():
    readme = (ROOT / "README.md").read_text()
    usage = next(ln for ln in readme.splitlines() if ln.startswith("narrowgap <command>"))
    listed = set(re.findall(r"--[a-z][a-z-]*", usage))
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings
                   if o not in ("-h", "--help")}
        assert options == listed, name
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    for block, cls in _BLOCKS.items():
        item = re.search(rf"^- `{block}`:(.*?)(?=^- |\Z)", section, re.S | re.M)[1]
        named = set(re.findall(r"`([^`]+)`", item))
        for stem, lo, hi in re.findall(r"^(\w+?)(\d)\.\.(\d)$", "\n".join(named), re.M):
            named |= {f"{stem}{i}" for i in range(int(lo), int(hi) + 1)}
        missing = [f.name for f in fields(cls) if f.name not in named]
        assert not missing, f"README Configuration does not name {block}: {missing}"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class TestRun:
    def test_validate_passes_at_m_60(self, tmp_path):
        # the origin probe's r^60 underflows to 0: it is skipped, not divided
        p = write_cfg(tmp_path, {"geometry": {"m": 60}})
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "v")]) == 0

    def test_underflowed_c2_constant_parses_and_validate_gives_the_reason(self, tmp_path,
                                                                          capsys):
        # every term of the exact (A3) constant underflows at m = 1100 on
        # |x'| <= 0.5: it is floored at the smallest normal float, so a config
        # that sets no kappa parses, and the (A1)/(A2) checks fail with their
        # reason.  So does (A3), whose norms underflow on every sample
        cfg = {"geometry": {"m": 1100, "R0": 0.25}}
        assert config_from_dict(cfg).geometry.build_pair().kappa4 == sys.float_info.min
        p = write_cfg(tmp_path, cfg)
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "v")]) == 1
        out = capsys.readouterr().out
        for check, power in (("(A1) lower", 1100), ("(A1) upper", 1100),
                             ("(A2) h1 order 1", 1099), ("(A2) h2 order 2", 1098),
                             ("(A3) C2 norms", 1098)):
            assert (f"[FAIL] {check}: no sample has |x'|^{power} above the smallest "
                    f"normal float") in out

    def test_perturbed_tensor_validates_over_the_box_of_its_grids(self, tmp_path, capsys):
        # 1 + 0.1 p reaches 0.812 and 1.188 on the box |x1| <= 1, |x2| <= 1.1,
        # so A^nn's sampled spectrum [0.9305, 3.2875] lies inside the declared
        # (1 - 0.188, 3 (1 + 0.188)), and not inside the base's (1, 3)
        data = {**MINI, "geometry": {"m": 2, "R0": 0.5, "lower_coef": 0.5},
                "tensor": {"kind": "lame", "perturb_scale": 0.1,
                           "perturb_poly": [[1.0, [1, 0]], [0.5, [0, 1]], [0.3, [1, 1]]]},
                "solver": {"tangential_nodes": 65, "vertical_nodes": 17},
                "experiment": {}}
        assert config_from_dict(data).reach() == pytest.approx((1.0, 1.1), rel=1e-15)
        p = write_cfg(tmp_path, data)
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "v")]) == 0
        out = capsys.readouterr().out
        assert "[pass] A^nn spectrum in [0.9305, 3.2875]" in out
        assert "[pass] pointwise Legendre (symmetric-xi): min quotient 1.861 vs declared 1.624" \
            in out

    def test_validate_checks_the_gap_of_a_single_solve_wider_than_the_sweep(self, tmp_path,
                                                                             capsys):
        # A^nn = A0^nn (1 - 4 x2) is positive at the sweep head eps = 0.05 but
        # indefinite at geometry.epsilon = 0.3, the widest gap the config
        # solves.  validate and the single solves take the record at 0.3 and
        # fail there before anything is solved; the checks sweep from 0.05
        # and run as run_checks runs them
        data = {"geometry": {"m": 2, "R0": 0.1, "epsilon": 0.3},
                "tensor": {"kind": "lame", "perturb_scale": -4.0,
                           "perturb_poly": [[1.0, [0, 1]]]},
                "traces": {"phi": [[1.0], [0.0]], "psi": [[0.0], [0.0]]},
                "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
                "experiment": {"eps_list": [0.05, 0.02, 0.01, 0.005]}}
        cfg = config_from_dict(data)
        assert (cfg.widest_eps(), cfg.sweep_head()) == (0.3, 0.05)
        p = write_cfg(tmp_path, data)
        failure = "hypothesis fails at eps 0.3: [FAIL] A^nn loses positive definiteness"
        for command in ("validate", "solve", "ansatz"):
            out = tmp_path / command
            assert main([command, "--config", str(p), "--out", str(out)]) == 1
            text = capsys.readouterr().out
            assert "  at eps 0.3\n" in text
            if command == "validate":
                assert f"[FAIL] validate\n      note: {failure}" in text
                continue
            assert f"[ABORTED] {command}\n      error: {failure}" in text
            assert not (out / "solution.csv").exists()
            assert not (out / "ansatz_field.csv").exists()
            assert not any(e["event"] == "solve" for e in _runlog(out))
        report = run(cfg, "all", outdir=tmp_path / "all")
        assert report.validation[0] == "at eps 0.05"
        assert not any("[FAIL]" in line for line in report.validation)
        assert ([(v.name, v.status, v.details) for v in report.verdicts]
                == [(v.name, v.status, v.details)
                    for v in run_checks(cfg, cfg.experiment.checks)])

    def test_validate_command_solve_free(self, tmp_path):
        cfg = config_from_dict({**MINI, "output": {"dir": str(tmp_path / "v")}})
        report = run(cfg, "validate")
        assert report.all_passed
        log = (tmp_path / "v" / "runlog.jsonl").read_text()
        assert '"event": "solve"' not in log

    def test_reports_reproducible_byte_for_byte(self, tmp_path):
        cfg = config_from_dict({**MINI, "output": {"dir": str(tmp_path / "same")}})
        outs = []
        for _ in range(2):
            run(cfg, "all")
            outs.append({p.name: p.read_bytes()
                         for p in sorted((tmp_path / "same").iterdir())
                         if p.name != "runlog.jsonl"})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_exit_status_tracks_verdicts(self, tmp_path):
        ok = {**MINI, "output": {"dir": str(tmp_path / "ok")}}
        code = main(["all", "--config", str(write_cfg(tmp_path, ok, "ok.json"))])
        assert code == 0
        # a sweep that only spans the transient fails the flatness band
        bad = {**MINI, "experiment": {"checks": ["residual"],
                                      "eps_list": [0.9, 0.7, 0.5, 0.3]}}
        bad["output"] = {"dir": str(tmp_path / "bad")}
        code = main(["all", "--config", str(write_cfg(tmp_path, bad, "bad.json"))])
        assert code == 1

    def test_parser_accepts_every_check(self):
        parser = build_parser()
        for name in CHECKS:
            assert parser.parse_args([name, "--config", "c.json"]).command == name

    def test_config_errors_exit_2(self, tmp_path):
        p = write_cfg(tmp_path, {"tensor": {"kind": "nope"}})
        assert main(["validate", "--config", str(p)]) == 2
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("block, key, value, what", [
        ("solver", "grid_scale", "x", "a number"),
        ("solver", "tangential_nodes", 9.5, "an integer"),
        ("geometry", "R0", [1], "a number"),
        ("experiment", "monomial_k", "x", "an integer")],
        ids=["grid_scale", "tangential_nodes", "R0", "monomial_k"])
    def test_mistyped_numbers_exit_2(self, tmp_path, capsys, block, key, value, what):
        p = write_cfg(tmp_path, {**MINI, block: {**MINI.get(block, {}), key: value}})
        assert main(["validate", "--config", str(p)]) == 2
        assert f"{block}: {key} must be {what}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("traces, what", [
        # a bare number is not read as a constant row: a trace has one spelling
        ({"phi": [1, "x"]}, "traces: phi[0] must be a list of numbers, got 1"),
        ({"phi": [[0.5, "x"]], "psi": [[0.0]]},
         "traces: phi[0][1] must be a number, got 'x'"),
        ({"phi": [[1.0]], "psi": [[]]},
         "traces: psi[0] is an empty coefficient row"),
        ({"phi": 1.0}, "traces: phi must be a list of coefficient rows, got 1.0")],
        ids=["phi_entry", "poly_entry", "empty_poly_row", "phi_not_rows"])
    def test_unbuildable_traces_exit_2(self, tmp_path, capsys, traces, what):
        p = write_cfg(tmp_path, {**MINI, "traces": traces})
        assert main(["validate", "--config", str(p)]) == 2
        assert what in capsys.readouterr().err

    @pytest.mark.parametrize("tensor, what", [
        ({"kind": "custom"}, "tensor: custom requires custom_A"),
        ({"kind": "custom", "custom_A": [1, 0, 0]},
         "tensor: custom_A must hold N^2 * 4 = 4 numbers, got 3"),
        ({"kind": "custom", "N": 2, "custom_A": [1, 0, 0, 1]},
         "tensor: custom_A must hold N^2 * 4 = 16 numbers, got 4"),
        ({"kind": "custom", "N": 0, "custom_A": []},
         "tensor: N must be >= 1"),
        ({"kind": "lame", "perturb_scale": 0.1, "perturb_poly": [[1.0, [1]]]},
         "tensor: perturb_poly[0] must be [coef, exponents] with 2 non-negative "
         "integer exponents, got (1.0, (1,))"),
        ({"kind": "custom", "custom_A": [1, 0, 0, 1], "perturb_scale": 0.1,
          "perturb_poly": [[1.0, [0, -1]]]},
         "tensor: perturb_poly[0] must be [coef, exponents] with 2 non-negative "
         "integer exponents, got (1.0, (0, -1))"),
        ({"kind": "laplace", "custom_A": [1, 0, 0, 1]},
         "tensor: custom_A is read only by the custom kind"),
        ({"kind": "lame_perturbed"}, "tensor: unknown kind 'lame_perturbed'"),
        ({"kind": "custom_poly", "custom_A": [1, 0, 0, 1]},
         "tensor: unknown kind 'custom_poly'"),
        ({"kind": "lame", "mu": 0.0}, "tensor: mu must be positive"),
        ({"kind": "lame", "lam": -2.0}, "tensor: n*lam + 2*mu must be positive"),
        ({"kind": "lame", "perturb_scale": 0.1, "perturb_poly": 3},
         "tensor: perturb_poly must be a list of [coef, exponents] terms, got 3"),
        ({"kind": "lame", "perturb_poly": [[2.0, [0, 2]]]},
         "tensor: perturb_poly is not read by an unperturbed tensor (perturb_scale 0)")],
        ids=["custom_A_missing", "custom_A_length", "custom_A_length_N2", "N",
             "perturb_poly", "custom_perturb_poly", "custom_A_not_custom",
             "lame_perturbed", "custom_poly", "mu", "lam", "perturb_poly_not_list",
             "perturb_poly_unperturbed"])
    def test_unbuildable_tensors_exit_2(self, tmp_path, capsys, tensor, what):
        p = write_cfg(tmp_path, {"tensor": tensor, "traces": {"phi": [[1.0]]}})
        assert main(["validate", "--config", str(p)]) == 2
        assert what in capsys.readouterr().err

    def test_perturb_scale_alone_perturbs_a_tensor_of_any_kind(self):
        x = np.array([[0.3, 0.1], [-0.7, 0.4], [1.0, 1.1]])
        # unperturbed, a tensor is constant, so a perturb_poly it would not
        # read is refused
        with pytest.raises(ConfigError, match="perturb_poly is not read by an unperturbed"):
            config_from_dict({"tensor": {"kind": "custom", "custom_A": [1, 0, 0, 1],
                                         "perturb_poly": [[1.0, [1]]]}})
        custom = config_from_dict({"tensor": {"kind": "custom", "custom_A": [1, 0, 0, 1]}})
        assert custom.build_tensor().is_constant
        # lame with a scale is (1 + s p) A0, p = x1 by default
        lame = config_from_dict({"tensor": {"kind": "lame", "perturb_scale": 0.5}})
        want = make_perturbed(make_lame(LameParameters(1.0, 1.0)),
                              MultiPoly(((1.0, (1, 0)),)), 0.5, lame.reach())
        tensor = lame.build_tensor()
        assert not tensor.is_constant
        assert np.array_equal(tensor.A(x), want.A(x))
        # laplace with a scale is (1 + s p) I
        laplace = config_from_dict({"tensor": {"kind": "laplace", "perturb_scale": 0.5}})
        A = laplace.build_tensor().A(x)[:, 0, 0]
        assert np.array_equal(A, (1 + 0.5 * x[:, 0])[:, None, None] * np.eye(2))

    # MINI is Lame with N = 2: data for a third component would be dropped
    # or fail to broadcast, so it is refused; zeros beyond N stay allowed
    @pytest.mark.parametrize("block, data, what", [
        ("traces", {"phi": [[1.0], [0.0], [5.0]]},
         "traces: phi has a nonzero row beyond N = 2"),
        ("traces", {"psi": [[0.0], [0.0], [0.0], [-1.0]]},
         "traces: psi has a nonzero row beyond N = 2"),
        ("traces", {"phi": [[1.0], [0.0], [0.0, 2.0]], "psi": [[0.0]]},
         "traces: phi has a nonzero row beyond N = 2"),
        ("traces", {"phi": [[1.0]], "psi": [[0.0], [0.0], [0.0, 0.0, 3.0]]},
         "traces: psi has a nonzero row beyond N = 2"),
        ("solver", {**MINI["solver"], "lateral_value": [1.0]},
         "solver: lateral_value must have N = 2 entries, got 1"),
        ("solver", {**MINI["solver"], "lateral_value": [1, 1, 1]},
         "solver: lateral_value must have N = 2 entries, got 3")],
        ids=["phi", "psi", "poly_phi", "poly_psi", "lateral_short", "lateral_long"])
    def test_data_beyond_the_components_exit_2(self, tmp_path, capsys, block, data, what):
        p = write_cfg(tmp_path, {**MINI, block: data})
        assert main(["validate", "--config", str(p)]) == 2
        assert what in capsys.readouterr().err

    def test_zeros_beyond_the_components_are_allowed(self):
        cfg = config_from_dict({"tensor": {"kind": "laplace"},
                                "traces": {"phi": [[1.0], [0.0]], "psi": [[0.0], [0.0]]}})
        assert cfg.build_traces().phi.rows == ((1.0,),)

    def test_threads_is_not_a_key_or_an_option(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="experiment: unknown key 'threads'"):
            config_from_dict({"experiment": {"threads": 2}})
        p = write_cfg(tmp_path, MINI)
        with pytest.raises(SystemExit) as exc:
            main(["all", "--config", str(p), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert ExperimentConfig().threads == 1

    def test_seed_is_not_a_key_or_an_option(self, tmp_path, capsys):
        # no sweep or check draws random numbers, so there is nothing to seed
        p = write_cfg(tmp_path, {**MINI, "experiment": {"seed": 7}})
        assert main(["validate", "--config", str(p)]) == 2
        assert "experiment: unknown key 'seed'" in capsys.readouterr().err
        p = write_cfg(tmp_path, MINI)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", str(p), "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, what", [
        ({"eps_list": ["a", 0.1]}, "experiment: eps_list[0] must be a number, got 'a'"),
        ({"checks": "thm11"}, "experiment: checks must be a list"),
        ({"remark13_cases": "iii"}, "experiment: remark13_cases must be a list"),
        ({"checks": []}, "experiment: checks must name at least one check"),
        ({"remark13_cases": []},
         "experiment: remark13_cases must name at least one remark13 case"),
        ({"checks": ["residual", "thm11", "residual"]},
         "experiment: check 'residual' is named more than once"),
        ({"remark13_cases": ["ii", "ii", "ii"]},
         "experiment: remark13 case 'ii' is named more than once"),
        ({"eps_list": [0.1, -0.1]}, "experiment: eps_list entries must be positive"),
        ({"eps_list": [0.1, 0.2]}, "experiment: eps_list must be strictly decreasing"),
        ({"monomial_k": -1}, "experiment: monomial_k must be >= 0")],
        ids=["eps_list_entry", "checks_string", "remark13_cases_string", "checks_empty",
             "remark13_cases_empty", "checks_repeated", "remark13_cases_repeated",
             "eps_list_sign", "eps_list_order", "monomial_k_negative"])
    def test_malformed_experiment_lists_exit_2(self, tmp_path, capsys, experiment, what):
        p = write_cfg(tmp_path, {**MINI, "experiment": experiment})
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert what in err
        # each is reported alone: no per-character or comparison messages
        assert err.count("\n  - ") == 1

    @pytest.mark.parametrize("data, what", [
        ({**MINI, "solver": {"closure": "constant"}},
         "solver: constant closure requires lateral_value"),
        ({**MINI, "solver": {"tangential_nodes": 2}}, "solver: need at least 3 nodes per axis"),
        ([MINI], "top level must be a JSON object"),
        ({**MINI, "geometry": [1]}, "geometry: must be an object")],
        ids=["closure", "nodes", "top_level", "block"])
    def test_malformed_solver_and_document_exit_2(self, tmp_path, capsys, data, what):
        p = write_cfg(tmp_path, data)
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert what in err and err.count("\n  - ") == 1

    @pytest.mark.parametrize("geometry, what", [
        ({"family": "poly", "poly_upper": ["x"], "poly_lower": [0.0],
          "kappa1": 1, "kappa2": 1, "kappa3": 2, "kappa4": 5},
         "geometry: poly_upper[0] must be a number, got 'x'"),
        ({"family": "poly", "poly_upper": [0, 0, 1], "poly_lower": [[0]],
          "kappa1": 1, "kappa2": 1, "kappa3": 2, "kappa4": 5},
         "geometry: poly_lower[0] must be a number, got (0,)"),
        ({"kappa1": -1, "kappa2": 1, "kappa3": 2, "kappa4": 5},
         "geometry: kappa1 must be positive"),
        ({"kappa1": 1},
         "geometry: kappa1..kappa4 must be given together or not at all"),
        ({"R0": 1e300},
         "geometry: the profile constants overflow (m = 2, R0 = 1e+300)"),
        ({"upper_coef": 1e308},
         "geometry: non-finite h1 gradient"),
        ({"family": "power", "poly_upper": [0, 0, 5]},
         "geometry: poly_upper is read only by the poly family"),
        ({"poly_lower": [0]},
         "geometry: poly_lower is read only by the poly family"),
        ({"family": "nope"}, "geometry: unknown family 'nope'"),
        ({"upper_coef": 0.0}, "geometry: upper_coef + lower_coef must be positive"),
        ({"family": "poly", "poly_lower": [0], "kappa1": 1, "kappa2": 1, "kappa3": 2,
          "kappa4": 5},
         "geometry: poly family requires poly_upper"),
        ({"family": "poly", "poly_upper": [], "poly_lower": [0], "kappa1": 1, "kappa2": 1,
          "kappa3": 2, "kappa4": 5},
         "geometry: poly_upper is an empty coefficient list"),
        ({"family": "poly", "poly_upper": [0, 0, 1], "poly_lower": [0]},
         "geometry: poly family requires explicit kappa1..kappa4"),
        ({"m": 1}, "geometry: m must be >= 2"),
        ({"R0": 0.0}, "geometry: R0 must be positive"),
        ({"epsilon": 0.0}, "geometry: epsilon must be positive")],
        ids=["poly_upper_entry", "poly_lower_row", "kappa1_negative", "kappa1_alone",
             "R0_overflow", "upper_coef_overflow", "poly_upper_under_power",
             "poly_lower_under_power", "family", "coef_sum", "poly_upper_missing",
             "poly_upper_empty", "poly_kappas", "m", "R0", "epsilon"])
    def test_unbuildable_geometry_exit_2(self, tmp_path, capsys, geometry, what):
        p = write_cfg(tmp_path, {**MINI, "geometry": geometry})
        assert main(["validate", "--config", str(p)]) == 2
        assert what in capsys.readouterr().err

    def test_poly_geometry_config_validates(self, tmp_path):
        # h1 = x1^2, h2 = 0: the power family's m = 2 pair written as a polynomial
        poly = {"family": "poly", "poly_upper": [0, 0, 1], "poly_lower": [0],
                "kappa1": 1, "kappa2": 1, "kappa3": 2, "kappa4": 5}
        power = config_from_dict(MINI).geometry.build_pair()
        pair = config_from_dict({**MINI, "geometry": poly}).geometry.build_pair()
        x1 = [-0.7, 0.3, 1.0]
        for order in range(4):
            got = [f1 - f2 for f1, f2 in zip(pair.h1.jet(x1, order), pair.h2.jet(x1, order))]
            want = [f1 - f2 for f1, f2 in zip(power.h1.jet(x1, order),
                                              power.h2.jet(x1, order))]
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-15)
        cfg = {**MINI, "geometry": poly, "output": {"dir": str(tmp_path / "poly")}}
        assert main(["validate", "--config", str(write_cfg(tmp_path, cfg))]) == 0

    def test_ansatz_command_emits_field_samples(self, tmp_path):
        cfg = {**MINI, "output": {"dir": str(tmp_path / "anz")}}
        code = main(["ansatz", "--config", str(write_cfg(tmp_path, cfg, "a.json"))])
        assert code == 0
        head = (tmp_path / "anz" / "ansatz_field.csv").read_text().splitlines()
        assert head[0].startswith("xprime0,t,xn,u0,u1,du0_dx0")
        assert len(head) == 33 * 9 + 1

    def test_solve_command_emits_solution(self, tmp_path):
        cfg = {**MINI, "output": {"dir": str(tmp_path / "sol")}}
        code = main(["solve", "--config", str(write_cfg(tmp_path, cfg, "s.json"))])
        assert code == 0
        assert (tmp_path / "sol" / "solution.csv").exists()
        log = (tmp_path / "sol" / "runlog.jsonl").read_text()
        assert '"event": "solve"' in log

    def test_solve_that_overflows_aborts(self, tmp_path):
        # phi = 1e308 x1 is finite on the grid, but the triangular solves
        # overflow and the backward error is NaN: the solve ABORTs with the
        # SolverError that names it, and no solution is written; under all,
        # thm11 ABORTs with the same error at its first point
        data = {"geometry": {"m": 2, "R0": 0.5, "epsilon": 0.01}, "tensor": {"kind": "lame"},
                "traces": {"phi": [[0.0, 1e308], [0.0]], "psi": [[0.0], [0.0]]},
                "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
                "experiment": {"checks": ["thm11"], "eps_list": [0.01, 0.005, 0.002, 0.001]},
                "output": {"dir": str(tmp_path / "nan")}}
        error = "SolverError: direct solve residual nan above tol 1.0e-10"
        with np.errstate(all="ignore"):
            assert main(["solve", "--config", str(write_cfg(tmp_path, data))]) == 1
            report = run(config_from_dict(data), "all", outdir=tmp_path / "all")
        text = (tmp_path / "nan" / "report.txt").read_text()
        assert f"[ABORTED] solve\n      error: {error}\n" in text
        assert not (tmp_path / "nan" / "solution.csv").exists()
        assert not any(e["event"] == "solve" for e in _runlog(tmp_path / "nan"))
        verdict, = report.verdicts
        assert (verdict.name, verdict.status, verdict.details) == ("thm11", "ABORTED",
                                                                   {"error": error})

    def test_ansatz_with_a_singular_normal_block_aborts(self, tmp_path):
        # A^nn = 0 passes the config checks but fails the hypothesis record
        # at eps 0.01: the ansatz command ABORTs, naming it, before any
        # correction row is solved, and still writes its report, config echo
        # and runlog, as solve does
        data = {"tensor": {"kind": "custom", "N": 1, "custom_A": [1, 0, 0, 0]},
                "traces": {"phi": [[1.0]], "psi": [[0.0]]},
                "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
                "geometry": {"epsilon": 0.01}, "output": {"dir": str(tmp_path / "sing")}}
        assert main(["ansatz", "--config", str(write_cfg(tmp_path, data))]) == 1
        error = ("hypothesis fails at eps 0.01: [FAIL] A^nn loses positive definiteness "
                 "at x = (-0.6666666666666667, 0.07574074074074075) (min eig 0)")
        text = (tmp_path / "sing" / "report.txt").read_text()
        assert f"[ABORTED] ansatz\n      error: {error}\n" in text
        assert (tmp_path / "sing" / "config_echo.json").exists()
        assert [e["event"] for e in _runlog(tmp_path / "sing")] == ["total"]
        assert not (tmp_path / "sing" / "ansatz_field.csv").exists()

    def test_decay_zero_lateral_informative_verdict(self, tmp_path):
        cfg = {
            "geometry": {"R0": 0.25},
            "tensor": {"kind": "laplace"},
            "traces": {"phi": [[0.0]], "psi": [[0.0]]},
            "solver": {"tangential_nodes": 33, "vertical_nodes": 9,
                       "closure": "constant", "lateral_value": [0.0]},
            "output": {"dir": str(tmp_path / "dz")},
        }
        code = main(["decay", "--config", str(write_cfg(tmp_path, cfg, "d.json"))])
        assert code == 0
        report = (tmp_path / "dz" / "report.txt").read_text()
        assert "SKIPPED" in report and "zero solution" in report

    def test_grid_scale_override(self, tmp_path):
        cfg = config_from_dict(MINI)
        from narrowgap.cli import _apply_overrides
        import argparse
        ns = argparse.Namespace(grid_scale=2.0, out=None)
        scaled = _apply_overrides(cfg, ns)
        assert scaled.solver.scaled_nodes() == (65, 17)

    def test_manifest_covers_emitted_files(self, tmp_path):
        cfg = config_from_dict({**MINI, "output": {"dir": str(tmp_path / "m")}})
        report = run(cfg, "all")
        emitted = {p.name for p in (tmp_path / "m").iterdir()}
        assert set(report.manifest) == emitted

    def test_grid_limited_decay_aborts_with_diagnostics(self, tmp_path):
        # a coarse grid cannot certify the deep-decay points: Richardson
        # flags them, the fit starves, and the verdict aborts honestly
        cfg = {
            "geometry": {"R0": 0.25},
            "tensor": {"kind": "laplace"},
            "traces": {"phi": [[0.0]], "psi": [[0.0]]},
            "solver": {"tangential_nodes": 65, "vertical_nodes": 17,
                       "closure": "constant", "lateral_value": [1.0]},
            "experiment": {"eps_list": [0.1, 0.06, 0.04, 0.025]},
            "output": {"dir": str(tmp_path / "coarse")},
        }
        code = main(["decay", "--config", str(write_cfg(tmp_path, cfg, "c.json"))])
        assert code == 1
        report = (tmp_path / "coarse" / "report.txt").read_text()
        assert "ABORTED" in report and "clean points" in report


@pytest.mark.parametrize("command, data, status, what", [
    ("remark13", {"experiment": {"checks": ["thm11"], "monomial_k": 2}}, "ABORTED",
     "ConfigError: invalid configuration:\n  - remark 1.3(iii) requires m > k (m = 2, k = 2)"),
    ("decay", {"experiment": {"checks": ["thm11"]},
               "solver": {**MINI["solver"], "lateral_value": [0.0, 0.0]}}, "SKIPPED",
     "zero solution: top/bottom and lateral data all vanish")],
    ids=["remark13_monomial_k", "decay_lateral_value"])
def test_a_check_command_reads_its_keys_whatever_checks_names(tmp_path, command, data,
                                                               status, what):
    # a per-check command runs its check whatever experiment.checks names, so
    # monomial_k, remark13_cases and lateral_value are read under checks
    # ["thm11"] too and stay keys there; neither run solves
    report = run(config_from_dict({**MINI, **data}), command, outdir=tmp_path / command)
    verdict, = report.verdicts
    assert (verdict.name, verdict.status) == (command, status)
    assert what in verdict.details.values()
    assert not any(e["event"] == "solve" for e in _runlog(tmp_path / command))


def test_report_lists_the_flagged_points_after_the_verdicts():
    # a synthetic sweep, no solve: the clean point is not listed
    points = [SweepPoint(0.025, 1.0, 1.08, 0.0741, False, (257, 65)),
              SweepPoint(0.015, 0.5, 0.66, 0.241724, True, (257, 65), "grid-limited")]
    sweeps = {"decay_normalized": SweepResult("decay_normalized", points)}
    text = RunReport("v", "all", [Verdict("decay", "PASS", sweeps=sweeps)]).render()
    head, block = text.split("\nflagged points (left out of every fit):\n")
    assert "verdicts:\n  [PASS] decay" in head
    assert block.split("\n\n")[0] == ("  decay decay_normalized: eps 0.015, grid 257x65, "
                                      "grid-limited, rel_change 0.2417")
    assert ("flagged points (left out of every fit):\n  (none)\n"
            in RunReport("v", "all", [Verdict("decay", "PASS")]).render())


def _runlog(outdir):
    return [json.loads(line) for line in (outdir / "runlog.jsonl").read_text().splitlines()]


def test_solve_events_name_their_sweep_point(tmp_path):
    cfg = config_from_dict({**TINY, "output": {"dir": str(tmp_path / "ev")}})
    run(cfg, "all")
    solves = [e for e in _runlog(tmp_path / "ev") if e["event"] == "solve"]
    assert {e["check"] for e in solves} == {"thm11", "remark13", "decay",
                                            "cor41", "energy"}
    assert {e["case"] for e in solves if e["check"] == "remark13"} == {"i", "ii", "iii"}
    points = {(e["eps"], e["grid"]) for e in solves}
    assert points == {(eps, g) for eps in TINY["experiment"]["eps_list"]
                      for g in ("17x9", "33x17")}
    fresh = [(e["eps"], e["grid"]) for e in solves if not e["reused"]]
    assert sorted(fresh) == sorted(points)
    assert all(e["factor_s"] == 0.0 for e in solves if e["reused"])
    assert all(e["factor_s"] > 0 and e["solve_s"] > 0 for e in solves if not e["reused"])
    # the operator is transformed and assembled exactly where it is factored
    assert all(e["assemble_s"] == 0.0 for e in solves if e["reused"])
    assert all(e["assemble_s"] > 0 for e in solves if not e["reused"])
    assert all(e["stats_s"] > 0 for e in solves)
    assert all(e["method"] == "pbtrf" for e in solves)      # every solve is Lame
    # thm11, cor41 and energy ask for the same solve: one of them solves at
    # each point and the other two name it, with no solve time of their own
    for point in points:
        trio = [e for e in solves if (e["eps"], e["grid"]) == point
                and e["check"] in ("thm11", "cor41", "energy")]
        solved = [e for e in trio if e["solve_s"] > 0]
        assert len(trio) == 3 and len(solved) == 1
        assert "shared_with" not in solved[0]
        for e in trio:
            if e is not solved[0]:
                assert e["shared_with"] == solved[0]["check"] and e["reused"]
                assert e["elapsed"] == e["solve_s"] == e["factor_s"] == 0.0
    assert not any("shared_with" in e for e in solves
                   if e["check"] in ("remark13", "decay"))
    # the five configs of a point ({thm11, cor41, energy}, the three remark13
    # cases and decay) are solved in one pass, whose solve time is logged once
    for point in points:
        here = [e for e in solves if (e["eps"], e["grid"]) == point]
        assert all(e["rhs"] == 5 for e in here)
        assert sum(e["solve_s"] > 0 for e in here) == 1


@pytest.mark.parametrize("command", ["solve", "all"])
def test_report_ends_with_the_stage_times_of_the_runlog(tmp_path, command):
    # the timings block sums each stage over the runlog's solve events, per
    # check and grid in the order the runlog first meets them
    run(config_from_dict(TINY), command, outdir=tmp_path / "t")
    report = (tmp_path / "t" / "report.txt").read_text()
    head, block = report.split("\n\ntimings (s, solve events summed per check and grid; "
                               "they vary from run to run):\n")
    assert head.splitlines()[-1].startswith("exit status: ")
    want = {}
    for e in _runlog(tmp_path / "t"):
        if e["event"] == "solve":
            row = want.setdefault(f"{e['check']} {e['grid']}", [0.0] * 4)
            for i, key in enumerate(("assemble_s", "factor_s", "solve_s", "stats_s")):
                row[i] += e[key]
    assert len(want) == (1 if command == "solve" else 10)      # 5 solve checks, 2 grids
    assert block.splitlines() == [
        f"  {key}: assemble {a:.4f}, factor {f:.4f}, solve {s:.4f}, stats {t:.4f}"
        for key, (a, f, s, t) in want.items()]


def test_every_solve_event_has_one_key_set(tmp_path):
    # a single solve logs what a sweep point logs; only a solve read by a
    # second check names the first in shared_with
    cfg = config_from_dict(TINY)
    solves = []
    for command in ("solve", "all"):
        run(cfg, command, outdir=tmp_path / command)
        solves += [e for e in _runlog(tmp_path / command) if e["event"] == "solve"]
    single = solves[0]
    assert (single["check"], single["case"], single["stats_s"]) == ("solve", "", 0.0)
    assert single["assemble_s"] > 0 and not single["reused"]
    assert len(solves) > 1 and any("shared_with" in e for e in solves)
    assert {frozenset(e.keys() - {"shared_with"}) for e in solves} == {frozenset(single)}


def test_factorization_failure_aborts_every_solving_check(tmp_path, monkeypatch):
    # the twisted Cholesky finds the block not positive definite, then banded
    # LU reports an exact zero pivot
    dgbtrf = discretize.lapack.dgbtrf
    monkeypatch.setattr(discretize._FreeBlockBand, "_cholesky", lambda self, ls: False)
    monkeypatch.setattr(discretize.lapack, "dgbtrf",
                        lambda *a, **k: dgbtrf(*a, **k)[:2] + (1,))
    cfg = config_from_dict({**TINY, "output": {"dir": str(tmp_path / "f")}})
    report = run(cfg, "all")
    status = {v.name: v for v in report.verdicts}
    assert status["residual"].status == "PASS"
    message = "SolverError: banded LU factorization failed: gbtrf info 1"
    checks = {e["name"]: e for e in _runlog(tmp_path / "f") if e["event"] == "check"}
    for name in ("thm11", "remark13", "decay", "cor41", "energy"):
        assert status[name].status == "ABORTED"
        assert status[name].details["error"].startswith(message)
        assert checks[name]["status"] == "ABORTED"
        assert checks[name]["error"].startswith(message)
    assert "residual" in checks and "error" not in checks["residual"]


def test_singular_vertical_block_fails_validation_and_aborts_checks(tmp_path):
    # A = e_1 (x) e_1: elliptic nowhere in the vertical direction, A^nn = 0.
    # The record at the sweep head eps = 0.01 fails, so every check is
    # ABORTED with that failure before it plans or solves
    cfg = config_from_dict({
        "tensor": {"kind": "custom", "N": 1, "custom_A": [1, 0, 0, 0]},
        "traces": {"phi": [[1.0]], "psi": [[0.0]]},
        "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
        "experiment": {"checks": ["thm11", "remark13", "decay", "residual", "energy"],
                       "eps_list": [0.01, 0.005, 0.002, 0.001]},
        "output": {"dir": str(tmp_path / "s")}})
    report = run(cfg, "all")
    failure = "[FAIL] A^nn loses positive definiteness"
    assert report.validation[0] == "at eps 0.01"
    assert failure in "\n".join(report.validation)
    assert failure in (tmp_path / "s" / "report.txt").read_text()
    message = f"hypothesis fails at eps 0.01: {failure}"
    events = _runlog(tmp_path / "s")
    checks = {e["name"]: e for e in events if e["event"] == "check"}
    assert [v.name for v in report.verdicts] == list(cfg.experiment.checks)
    assert not any(e["event"] == "solve" for e in events)
    for v in report.verdicts:
        assert v.status == "ABORTED"
        assert v.details["error"].startswith(message)
        assert checks[v.name]["error"] == v.details["error"]


def test_a_tensor_not_elliptic_in_x1_fails_legendre_under_a_declared_zero(tmp_path, capsys):
    # A = e_2 (x) e_2: A^nn = 1 passes, but no xi along x1 is controlled.
    # make_custom declares lam = 0, and a least Legendre quotient of 0 meets
    # it; the record still fails, so validate FAILs and thm11 is ABORTED
    # with that failure before it solves
    p = write_cfg(tmp_path, {
        "tensor": {"kind": "custom", "N": 1, "custom_A": [0, 0, 0, 1]},
        "traces": {"phi": [[1.0]], "psi": [[0.0]]},
        "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
        "experiment": {"eps_list": [0.02, 0.01, 0.005, 0.002]}})
    failure = "[FAIL] pointwise Legendre (full-xi): min quotient 0 vs declared 0"
    assert main(["validate", "--config", str(p), "--out", str(tmp_path / "v")]) == 1
    assert f"[FAIL] validate\n      note: hypothesis fails at eps 0.02: {failure}" \
        in capsys.readouterr().out
    assert main(["thm11", "--config", str(p), "--out", str(tmp_path / "t")]) == 1
    assert f"[ABORTED] thm11\n      error: hypothesis fails at eps 0.02: {failure}" \
        in capsys.readouterr().out
    assert not any(e["event"] == "solve" for e in _runlog(tmp_path / "t"))


def test_overflowing_coefficients_abort_every_check(tmp_path):
    # finite input whose pullback overflows: no verdict may pass or FAIL on
    # the NaN statistics it would produce.  cli.run stops every check, cor41
    # included, on the record's A^nn failure; run_checks, which takes no
    # record, meets the overflow where each check assembles or samples
    cfg = config_from_dict({
        "tensor": {"kind": "custom", "N": 1, "custom_A": [1e308, 0, 0, 1e308]},
        "traces": {"phi": [[1.0]], "psi": [[0.0]]},
        "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
        "experiment": {"eps_list": [0.01, 0.005, 0.002, 0.001]},
        "output": {"dir": str(tmp_path / "o")}})
    report = run(cfg, "all")
    failure = "[FAIL] A^nn spectrum in [inf, inf] vs declared (inf, inf)"
    assert failure in report.validation
    checks = {e["name"]: e for e in _runlog(tmp_path / "o") if e["event"] == "check"}
    assert [v.name for v in report.verdicts] == list(cfg.experiment.checks)
    for v in report.verdicts:
        assert v.status == "ABORTED"
        assert v.details["error"] == checks[v.name]["error"] == (
            f"hypothesis fails at eps 0.01: {failure}")
    overflow = "AssemblyError: non-finite transformed A at node index (0, 4)"
    expected = {"thm11": overflow, "remark13": overflow, "decay": overflow,
                "energy": overflow,
                "residual": "non-finite or non-positive statistic inf at eps = 0.01 "
                            "(statistic 'residual_normalized')"}
    ran = [v for v in run_checks(cfg, cfg.experiment.checks) if v.status != "SKIPPED"]
    assert {v.name for v in ran} == set(expected)
    for v in ran:
        assert v.status == "ABORTED"
        assert v.details["error"] == expected[v.name]


def test_custom_N_is_not_a_key(tmp_path, capsys):
    # custom reads N, as laplace does; the old name is refused
    p = write_cfg(tmp_path, {"tensor": {"kind": "custom", "custom_N": 1,
                                        "custom_A": [1, 0, 0, 1]},
                             "traces": {"phi": [[1.0]]}})
    assert main(["validate", "--config", str(p)]) == 2
    assert "tensor: unknown key 'custom_N'" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value", [
    ("experiment", "energy_quad", [24, 48]), ("experiment", "eps_fit_max", 1e-2),
    ("experiment", "richardson_tol", 0.1), ("solver", "tol", 1e-10),
    ("traces", "family", "constant"), ("traces", "poly_phi", [[1.0, 0.5]]),
    ("traces", "poly_psi", [[0.0]])],
    ids=["energy_quad", "eps_fit_max", "richardson_tol", "tol", "traces_family",
         "poly_phi", "poly_psi"])
def test_fixed_constants_are_not_keys(tmp_path, capsys, block, key, value):
    # removed keys are refused, even when set to what the code now does:
    # ENERGY_QUAD, EPS_FIT_MAX, RICHARDSON_TOL and discretize.TOL are module
    # constants, and phi and psi are the one spelling of a trace, so the
    # family switch and its poly keys are gone
    p = write_cfg(tmp_path, {**MINI, block: {**MINI.get(block, {}), key: value}})
    assert main(["validate", "--config", str(p)]) == 2
    assert f"{block}: unknown key {key!r}" in capsys.readouterr().err


POLY = {"family": "poly", "poly_upper": [0, 0, 1], "poly_lower": [0],
        "kappa1": 1, "kappa2": 1, "kappa3": 2, "kappa4": 5}


@pytest.mark.parametrize("block, data, what", [
    ("tensor", {"kind": "laplace", "mu": -5, "lam": 7},
     ["tensor: lam is not read by the laplace kind",
      "tensor: mu is not read by the laplace kind"]),
    ("tensor", {"kind": "custom", "custom_A": [1, 0, 0, 1], "lam": 2.0},
     ["tensor: lam is not read by the custom kind"]),
    ("tensor", {"kind": "lame", "N": 7},
     ["tensor: N is 2 under the lame kind, not 7"]),
    ("geometry", {**POLY, "upper_coef": 9},
     ["geometry: upper_coef is not read by the poly family"]),
    ("geometry", {**POLY, "lower_coef": 0.5},
     ["geometry: lower_coef is not read by the poly family"])],
    ids=["laplace_lam_mu", "custom_lam", "lame_N", "poly_upper_coef", "poly_lower_coef"])
def test_keys_their_kind_or_family_does_not_read_exit_2(tmp_path, capsys, block, data, what):
    # each would change nothing: A0 = I under laplace, N = 2 under lame, and
    # the poly family builds its profiles from poly_upper and poly_lower
    cfg = {**MINI, block: data}
    if data.get("kind") in ("laplace", "custom"):
        cfg["traces"] = {"phi": [[1.0]], "psi": [[0.0]]}
    p = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n  - ") == len(what)
    for line in what:
        assert line in err


def test_unread_keys_at_their_defaults_parse():
    # a config echo writes every field, so an unread key at its default passes
    for block, data in (("tensor", {"kind": "laplace", "lam": 1.0, "mu": 1.0}),
                        ("tensor", {"kind": "lame", "N": 1}),
                        ("tensor", {"kind": "lame", "N": 2}),
                        ("geometry", {**POLY, "upper_coef": 1.0, "lower_coef": 0.0})):
        cfg = config_from_dict({block: data, "traces": {"phi": [[1.0]], "psi": [[0.0]]}})
        assert config_from_dict(json.loads(cfg.to_json())) == cfg


@pytest.mark.parametrize("command", COMMANDS)
def test_bad_grid_scale_overrides_exit_2(tmp_path, capsys, command):
    # an override is validated as the file is: a scale that is not finite,
    # not positive or leaves fewer than 3 nodes on an axis is refused before
    # anything is built or written
    p = write_cfg(tmp_path, TINY)
    for scale, what in (("nan", "grid_scale must be finite"),
                        ("inf", "grid_scale must be finite"),
                        ("0", "grid_scale must be positive"),
                        ("-1", "grid_scale must be positive"),
                        ("0.001", "grid_scale 0.001 leaves (1, 1) nodes")):
        out = tmp_path / f"{command}_{scale}"
        assert main([command, "--config", str(p), "--out", str(out),
                     "--grid-scale", scale]) == 2, scale
        assert f"solver: {what}" in capsys.readouterr().err
        assert not out.exists()


def test_grid_scale_that_leaves_too_few_nodes_is_refused_in_a_file(tmp_path, capsys):
    p = write_cfg(tmp_path, {**TINY, "solver": {**TINY["solver"], "grid_scale": 0.1}})
    assert main(["validate", "--config", str(p)]) == 2
    assert "solver: grid_scale 0.1 leaves (3, 2) nodes" in capsys.readouterr().err


def test_the_dimension_is_not_a_key(tmp_path, capsys):
    # every layer is planar: a config that names n is refused at parse by
    # every command, before anything is built
    p = write_cfg(tmp_path, {"geometry": {"n": 3}})
    for command in COMMANDS:
        assert main([command, "--config", str(p), "--out", str(tmp_path / command)]) == 2
        assert "geometry: unknown key 'n'" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def blas_pool_threads():
    """Thread counts of the OpenBLAS pools that numpy and scipy each bundle."""
    import numpy
    import scipy

    seen = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = sorted((Path(pkg.__file__).parents[1] / f"{pkg.__name__}.libs")
                      .glob("libscipy_openblas*.so"))
        if not libs:
            pytest.skip(f"{pkg.__name__} bundles no scipy-openblas library")
        get_num_threads = getattr(ctypes.CDLL(str(libs[0])), symbol)
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        seen[pkg.__name__] = get_num_threads()
    return seen


def test_both_blas_pools_take_the_thread_count_of_the_environment():
    # the root conftest sets one thread unless the environment already chose
    seen = blas_pool_threads()
    assert seen["numpy"] == seen["scipy"] <= int(os.environ["OPENBLAS_NUM_THREADS"])


@pytest.mark.parametrize("chosen", [None, 2], ids=["default", "user_set"])
def test_importing_the_package_sets_one_blas_thread_unless_chosen(chosen):
    # a fresh process that imports narrowgap before numpy; OpenBLAS caps its
    # pool at the core count
    blas_pool_threads()                     # skips where the libraries differ
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if chosen is not None:
        env["OPENBLAS_NUM_THREADS"] = str(chosen)
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; import narrowgap; "
            "from test_cli import blas_pool_threads; print(json.dumps(blas_pool_threads()))")
    root = Path(__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "tests")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = min(chosen or 1, len(os.sched_getaffinity(0)))
    assert json.loads(proc.stdout.splitlines()[-1]) == {"numpy": want, "scipy": want}
