"""A wrong correction must fail the verdicts that claim to test it.

Each run scales every derivative order of the correction kernel
(``ansatz._generic_kernel``) by c, in this process only, and runs thm11,
cor41 and residual on ``configs/all_m2.json`` at grid scale 0.5.  c = 1 is
the code as it stands; c = 0 drops the correction and c = -1 flips it.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from narrowgap import ansatz
from narrowgap.config import parse_config
from narrowgap.experiments import run_checks

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "all_m2.json"
CHECKED = ("thm11", "cor41", "residual")


@pytest.mark.parametrize("c, status", [(1.0, "PASS"), (0.0, "FAIL"), (-1.0, "FAIL")],
                         ids=["unmutated", "dropped", "flipped"])
def test_kernel_mutants(monkeypatch, c, status):
    kernel = ansatz._generic_kernel
    monkeypatch.setattr(ansatz, "_generic_kernel",
                        lambda *args: [c * q for q in kernel(*args)])
    cfg = parse_config(CONFIG)
    cfg = replace(cfg, solver=replace(cfg.solver, grid_scale=0.5))
    verdicts = run_checks(cfg, CHECKED)
    got = {v.name: v.status for v in verdicts}
    assert got == dict.fromkeys(CHECKED, status), "\n".join(v.summary() for v in verdicts)
