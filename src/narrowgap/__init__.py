"""Gradient asymptotics of elliptic systems in narrow regions.

A numerical laboratory around a corrected leading-order approximation of
solutions in thin gaps: exact evaluation of the corrected two-boundary
interpolant and its derivatives, a mapped-box finite-difference solver for
the full system, and sweep experiments that measure remainder boundedness,
blow-up rates and exponential decay as the gap closes.
"""

__version__ = "0.1.0"

from .ansatz import (AnsatzField, BoundaryTraces, ConstantTrace, MonomialTrace,
                     PolyTrace, build_ansatz, correction_coeffs,
                     lame_correction, smoother, smoother_prime, theta,
                     theta_bar_delta, zero_trace)
from .coefficients import (CoefficientTensor, LameParameters, check_ann,
                           check_pointwise_ellipticity, estimate_c2_norms,
                           make_lame, make_laplace, make_perturbed)
from .config import RunConfig, parse_config
from .discretize import (BoxGrid, DiscreteField, assemble, grid_for,
                         solve_bvp, solve_linear, transform_operator)
from .experiments import (CHECKS, RateFit, SweepResult, fit_rate, local_energy,
                          sweep)
from .geometry import (NarrowRegion, PolyProfile, PowerProfile, ProfilePair,
                       power_pair, validate_profiles)

__all__ = [
    "AnsatzField", "BoundaryTraces", "BoxGrid", "CHECKS", "CoefficientTensor",
    "ConstantTrace", "DiscreteField", "LameParameters", "MonomialTrace",
    "NarrowRegion", "PolyProfile", "PolyTrace", "PowerProfile", "ProfilePair",
    "RateFit", "RunConfig", "SweepResult", "assemble", "build_ansatz",
    "check_ann", "check_pointwise_ellipticity", "correction_coeffs",
    "estimate_c2_norms", "fit_rate", "grid_for",
    "lame_correction", "local_energy", "make_lame", "make_laplace",
    "make_perturbed", "parse_config", "power_pair",
    "smoother", "smoother_prime", "solve_bvp", "solve_linear", "sweep",
    "theta", "theta_bar_delta", "transform_operator", "validate_profiles",
    "zero_trace",
]
