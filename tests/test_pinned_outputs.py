"""Every verdict file of a set of pinned runs matches its committed sha256.

A refactor must leave the numbers bit for bit the same.  This test runs
each command of ``RUNS`` in a fresh process with one BLAS thread and
compares the digest of every ``.csv`` and ``fits.json`` it writes, and
of its ``runlog.jsonl`` without the timings, with
``tests/pinned_outputs.json``:

- ``all`` on ``configs/all_m2.json`` at grid scale 0.5 and on
  ``configs/decay_laplace.json``;
- ``solve`` and ``ansatz`` on ``configs/single_solve.json``;
- ``all``, ``solve`` and ``ansatz`` on ``THIN``, a 65x17 config with a
  non-constant tensor, a nonzero lower profile and polynomial traces,
  written next to the outputs.

``config_echo.json`` and ``report.txt`` carry the output path, so they are
left out.  The runlog is digested with the keys of ``TIMINGS`` dropped from
every event: its order, its counts, and each solve's residual, fill, rhs,
reused and shared_with stay pinned.  A change meant to move values
regenerates the manifest with

    python tests/test_pinned_outputs.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("pinned_outputs.json")
THIN = {"geometry": {"m": 2, "R0": 0.5, "lower_coef": 0.5, "epsilon": 0.02},
        "tensor": {"kind": "lame", "perturb_scale": 0.1,
                   "perturb_poly": [[1.0, [1, 0]], [0.5, [0, 1]], [0.3, [1, 1]]]},
        "traces": {"phi": [[1.0, 0.5], [0.0, 0.0, 0.3]], "psi": [[0.0, 0.2], [0.1]]},
        "solver": {"tangential_nodes": 65, "vertical_nodes": 17},
        "experiment": {"checks": ["residual", "energy"]}}
RUNS = {"all_m2_coarse": ["all", "configs/all_m2.json", "--grid-scale", "0.5"],
        "decay_laplace": ["all", "configs/decay_laplace.json"],
        "single_solve": ["solve", "configs/single_solve.json"],
        "single_ansatz": ["ansatz", "configs/single_solve.json"],
        "thin_all": ["all", "thin.json"],
        "thin_solve": ["solve", "thin.json"],
        "thin_ansatz": ["ansatz", "thin.json"]}
TIMINGS = ("elapsed", "factor_s", "solve_s", "assemble_s", "stats_s")


def _untimed(runlog: Path) -> bytes:
    """The runlog with the keys of ``TIMINGS`` dropped from every event."""
    events = [json.loads(line) for line in runlog.read_text().splitlines()]
    return "".join(json.dumps({k: v for k, v in e.items() if k not in TIMINGS},
                              sort_keys=True) + "\n" for e in events).encode()


def digests(name, out):
    """sha256 of each pinned file that the run ``name`` writes under ``out``."""
    command, config, *extra = RUNS[name]
    out = Path(out)
    out.mkdir(parents=True)
    if config == "thin.json":
        config = out / config
        config.write_text(json.dumps(THIN))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "narrowgap.cli", command,
                           "--config", str(config), *extra, "--out", str(out / "run")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {p.name: hashlib.sha256(_untimed(p) if p.name == "runlog.jsonl"
                                   else p.read_bytes()).hexdigest()
            for p in sorted((out / "run").iterdir())
            if p.suffix == ".csv" or p.name in ("fits.json", "runlog.jsonl")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_pinned_digests(name, tmp_path):
    assert digests(name, tmp_path / name) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: digests(name, Path(tmp) / name) for name in sorted(RUNS)}
    MANIFEST.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
