"""Quantum cosmology on truncated Hilbert spaces.

Subpackages cover discrete operator bases, model Hamiltonians, Pauli-sum
decomposition, statevector circuit simulation, variational ground-state
search, Trotterized fifth-time evolution, closed-form Wheeler-DeWitt
analytics, and metastable-vacuum lifetimes.
"""
