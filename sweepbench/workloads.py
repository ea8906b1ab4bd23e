"""The benchmark's workloads and the seeded shift of their eps lists.

Each workload is one or more shipped configurations run with ``cli.run``
in a single process.  Seed 0 reproduces the shipped configurations exactly.
Any other seed scales the whole eps list of every configuration by one
common factor 10**shift, with |shift| at most ``MAX_SHIFT_DECADES`` and its
sign fixed per workload:

* downward for ``thm11_fine`` and ``all_m2_coarse``, so the bounded-remainder
  tail cut at eps <= 1e-2 keeps its four points;
* upward for ``decay``: a downward shift pushes the smallest decay points
  past what the 257x65 grid resolves (see NOTES.md).

narrowgap is imported inside ``build_configs`` so that the set-up timing
covers the package import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

MAX_SHIFT_DECADES = 0.1


@dataclass(frozen=True)
class Workload:
    configs: tuple          # file names under configs/
    direction: int          # sign of the seeded eps shift
    grid_scale: float | None = None


# Why each workload was chosen is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "thm11_fine": Workload(("thm11.json",), -1),
    "all_m2_coarse": Workload(("all_m2.json",), -1, grid_scale=0.5),
    "decay": Workload(("decay_laplace.json", "decay_lame.json"), +1),
}


def shift_decades(workload: str, seed: int) -> float:
    """Signed log10 of the common eps factor for this workload and seed."""
    if seed == 0:
        return 0.0
    magnitude = random.Random(f"{workload}:{seed}").uniform(0.0, MAX_SHIFT_DECADES)
    return WORKLOADS[workload].direction * magnitude


def build_configs(root: Path, workload: str, seed: int):
    """[(name, RunConfig)] for one workload and seed, parsed from ``root``."""
    from narrowgap.config import DECAY_EPS, DEFAULT_EPS, parse_config

    spec = WORKLOADS[workload]
    factor = 10.0 ** shift_decades(workload, seed)
    out = []
    for fname in spec.configs:
        cfg = parse_config(Path(root) / "configs" / fname)
        if spec.grid_scale is not None:
            cfg = replace(cfg, solver=replace(cfg.solver, grid_scale=spec.grid_scale))
        if seed != 0:
            # every workload config runs either decay alone or no decay at all
            default = DECAY_EPS if cfg.experiment.checks == ("decay",) else DEFAULT_EPS
            eps = tuple(e * factor for e in cfg.experiment.eps_list or default)
            cfg = replace(cfg, experiment=replace(cfg.experiment, eps_list=eps))
        out.append((Path(fname).stem, cfg))
    return out
