"""The names the sweep benchmark wraps or reads still resolve in narrowgap.

``sweepbench/layers.py`` times the layers by patching module attributes
(``discretize.spla``, ``discretize.solve_linear`` and others) and reads
``LinearSystem.matrix.shape``.  A rename in narrowgap would otherwise show
only when a traced bench pass fails.  The test runs ``layers.install`` over a
tiny ``cli.run`` in a fresh process, since its patches are process-wide.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers, spans
from narrowgap import cli, discretize
from narrowgap.config import config_from_dict

tracer = spans.Tracer()
factors, written = layers.install(tracer)
cli.run(config_from_dict(json.loads(sys.argv[3])), "all", outdir=sys.argv[4])
names = {s.id: s.name for s in tracer.spans}
print(json.dumps({
    "spans": sorted(set(names.values())),
    "unbundled": [s.name for s in tracer.spans
                  if s.name in ("discretize.transform_operator", "discretize.assemble")
                  and names.get(s.parent) != "experiments.bundle"],
    "metrics": layers.layer_metrics(tracer.spans, factors, written),
    "lapack": [callable(getattr(discretize.lapack, r, None)) for r in ("dpbtrf", "dgbtrf")],
}))
"""

# one eps on a 17x9 grid: the thm11, energy and residual fits have too few
# points to pass, but the sweep solves on the base and the Richardson grid,
# and the residual check samples the ansatz residual
TINY = {
    "geometry": {"m": 2, "R0": 0.5},
    "tensor": {"kind": "lame", "lam": 1.0, "mu": 1.0},
    "traces": {"phi": [[1.0], [0.0]], "psi": [[0.0], [0.0]]},
    "solver": {"tangential_nodes": 17, "vertical_nodes": 9},
    "experiment": {"checks": ["thm11", "energy", "residual"], "eps_list": [0.01]},
}


def test_bench_layers_trace_a_tiny_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "sweepbench"), str(ROOT / "src"),
         json.dumps(TINY), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    for name in ("discretize.transform_operator", "discretize.assemble",
                 "discretize.solve_bvp", "discretize.solve_linear",
                 "discretize.dirichlet_values", "discretize.gradient_nodes",
                 "experiments.bundle", "experiments.statistic",
                 "experiments.local_energy", "ansatz.build_ansatz", "ansatz.value",
                 "ansatz.gradient", "ansatz.residual"):
        assert name in out["spans"], name
    assert out["metrics"]["discretize.unknowns_total"] > 0
    # the operator is built inside the bundle that first needs it, so the
    # inclusive experiments.bundle_s covers its transform and assembly
    assert out["unbundled"] == []
    # one ansatz field per solve bundle (base and Richardson grid) and one per
    # eps for the residual check: a second field per point would read 6
    assert out["metrics"]["ansatz.build_calls"] == 3
    # the pull-back, gradient recovery and ansatz times read 0 if the program
    # computes any of them around the wrapped names
    for metric in ("discretize.solve_s", "discretize.transform_s", "discretize.gradient_s",
                   "experiments.energy_s", "ansatz.gradient_s", "ansatz.residual_s"):
        assert out["metrics"][metric] > 0, metric
    assert out["lapack"] == [True, True]
