"""Run BLAS on one thread, as perfbench/run.py's PINNED_THREADS does, unless
the caller has set the variable. It must be set before numpy loads, and
nothing the suite imports before this file loads numpy. On two cores a second
BLAS thread mostly spins: default reliability training took as long and about
twice the CPU time. Outputs do not depend on it."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")
