"""Runs BLAS on one thread in every test, as ``perfbench/run.py`` does.

This file loads before any test module imports numpy, which reads these
variables once. Tests that time process CPU, such as ``perfbench/tests``,
would otherwise also count the CPU that idle BLAS threads spend spinning
after a product large enough to run on several of them.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
