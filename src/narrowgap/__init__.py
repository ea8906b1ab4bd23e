"""Gradient asymptotics of elliptic systems in narrow regions.

A numerical laboratory around a corrected leading-order approximation of
solutions in thin gaps: exact evaluation of the corrected two-boundary
interpolant and its derivatives, a mapped-box finite-difference solver for
the full system, and sweep experiments that measure remainder boundedness,
blow-up rates and exponential decay as the gap closes.
"""

__version__ = "0.1.0"

import os

# numpy and scipy each load an OpenBLAS whose pool starts a thread per core;
# the two pools then contend with each other and with the numpy work between
# solves.  One thread each unless the environment already chose; this must
# run before the imports below load numpy.  The second core goes to the
# factorization instead, which fills and factors the two halves of each band
# on two threads of its own (``discretize._FreeBlockBand``).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .ansatz import (AnsatzField, BoundaryTraces, PolyTrace, build_ansatz,
                     smoother, smoother_prime, theta, theta_bar_delta)
from .coefficients import (CoefficientTensor, LameParameters, check_ann,
                           check_pointwise_ellipticity, make_lame, make_laplace,
                           make_perturbed)
from .config import RunConfig, parse_config
from .discretize import (BoxGrid, DiscreteField, assemble, grid_for,
                         solve_bvp, solve_linear, transform_operator)
from .experiments import CHECKS, RateFit, SweepResult, fit_rate, local_energy
from .geometry import (NarrowRegion, PolyProfile, PowerProfile, ProfilePair,
                       power_pair, validate_profiles)

__all__ = [
    "AnsatzField", "BoundaryTraces", "BoxGrid", "CHECKS", "CoefficientTensor",
    "DiscreteField", "LameParameters",
    "NarrowRegion", "PolyProfile", "PolyTrace", "PowerProfile", "ProfilePair",
    "RateFit", "RunConfig", "SweepResult", "assemble", "build_ansatz",
    "check_ann", "check_pointwise_ellipticity", "fit_rate", "grid_for",
    "local_energy", "make_lame", "make_laplace",
    "make_perturbed", "parse_config", "power_pair",
    "smoother", "smoother_prime", "solve_bvp", "solve_linear",
    "theta", "theta_bar_delta", "transform_operator", "validate_profiles",
]
