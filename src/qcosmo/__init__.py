"""Quantum cosmology on truncated Hilbert spaces.

Subpackages cover discrete operator bases, model Hamiltonians, Pauli-sum
decomposition, statevector circuit simulation, variational ground-state
search, Trotterized fifth-time evolution, closed-form Wheeler-DeWitt
analytics, and metastable-vacuum lifetimes.

Importing qcosmo before numpy pins BLAS and OpenMP to one thread, unless the
caller set the variables: the order of LAPACK's threaded sums follows the
thread count, and so do the last bits of an exact ground.
"""
import os
import sys

if "numpy" not in sys.modules:  # the variables are read once, when numpy loads BLAS
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
