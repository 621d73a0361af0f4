"""Test-session setup.

BLAS gets one thread per process, as the CLI gives it, unless the
environment already says otherwise. pytest loads this file before any test
module, so the setting is in place when numpy is first imported; numpy's
BLAS reads it only then. The matrices here are small, and on a loaded host
extra BLAS threads only contend for the same cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
