"""Every verdict file of two shipped runs matches its committed sha256.

A refactor must leave the numbers bit for bit the same.  This test runs
``all`` on ``configs/all_m2.json`` at grid scale 0.5 and on
``configs/decay_laplace.json`` in a fresh process with one BLAS thread,
and compares the digest of every ``.csv``, ``.dat`` and ``fits.json`` with
``tests/pinned_outputs.json``.  ``config_echo.json`` and ``report.txt``
carry the output path, and ``runlog.jsonl`` the timings, so they are left
out.  A change meant to move values regenerates the manifest with

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
RUNS = {"all_m2_coarse": ["--config", "configs/all_m2.json", "--grid-scale", "0.5"],
        "decay_laplace": ["--config", "configs/decay_laplace.json"]}


def digests(name, out):
    """sha256 of each pinned file that ``all`` writes for the run ``name``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "narrowgap.cli", "all", *RUNS[name],
                           "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())
            if p.suffix in (".csv", ".dat") or p.name == "fits.json"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_pinned_digests(name, tmp_path):
    assert digests(name, tmp_path / name) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: digests(name, Path(tmp) / name) for name in sorted(RUNS)}
    MANIFEST.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
