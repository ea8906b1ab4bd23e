"""Test-run setup: one BLAS thread per OpenBLAS pool by default.

numpy and scipy each load their own OpenBLAS, and each starts a thread per
core.  On a small host the two pools and the test process contend for the
same cores, and the suite spends more CPU time than it saves in wall time.
This file is imported before any test module, so the variables are set
before numpy loads.  A value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
