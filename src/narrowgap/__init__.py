"""Gradient asymptotics of elliptic systems in narrow regions.

A numerical laboratory around a corrected leading-order approximation of
solutions in thin gaps: exact evaluation of the corrected two-boundary
interpolant and its derivatives, a mapped-box finite-difference solver for
the full system, and sweep experiments that measure remainder boundedness,
blow-up rates and exponential decay as the gap closes.  The package root
names no function or class: import its modules (``narrowgap.cli``, ...).
"""

__version__ = "0.1.0"

import os

# numpy and scipy each load an OpenBLAS whose pool starts a thread per core;
# the two pools then contend with each other and with the numpy work between
# solves.  One thread each unless the environment already chose.  This
# module loads no numpy itself; it runs before any of the package's modules
# do, so the variables are set when they load it.  The second core goes to
# the factorization instead, which fills and factors the two halves of each
# band on two threads of its own (``discretize._FreeBlockBand``).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
