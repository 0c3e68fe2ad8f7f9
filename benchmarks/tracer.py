"""In-memory span recorder for the benchmark's traced runs.

A span is one call of a qcosmo layer function: its name, start, end, the
span that called it and the benchmark operation it belongs to. Spans are
kept in a list and written out when the run ends.

The wrappers are installed from here, not from the library: each function is
replaced in the namespace where its caller looks it up. ``vqe`` imports
``apply_circuit``/``expectation_dense`` by name and keeps the optimizer
functions in ``vqe._MINIMIZERS``, ``models`` imports
``apply_scalar_function`` by name, and functions that call other functions of
their own module (``evolution.trotter_evolve`` from the profile builders) look
them up in the module dict, which is the module attribute.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    """Collects spans; ``op`` is the id of the operation now running."""

    def __init__(self, op: int = 0):
        self.spans: list[dict] = []
        self.op = op
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None, objective: bool = False):
        """Return ``fn`` recording a span per call.

        ``info(args, kwargs, result)`` returns a dict stored on the span (the
        qubit count, the step count). With ``objective`` the first argument
        is an optimizer objective; it is counted so the span records the
        evaluations and gradient iterations of the run.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "info": {},
            }
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            counter = None
            if objective:
                counter = _ObjectiveCounter(args[0])
                args = (counter,) + args[1:]
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span["info"].update(info(args, kwargs, result))
                return result
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
                if counter is not None:
                    span["info"].update(evals=counter.evals, iters=counter.iters)

        return traced


class _ObjectiveCounter:
    """Counts objective evaluations and gradient iterations.

    An iteration of a forward-difference optimizer is a run of probes, each
    probe differing from the last non-probe point in exactly one coordinate.
    """

    def __init__(self, f):
        self.f = f
        self.evals = 0
        self.iters = 0
        self._base = None
        self._probing = False

    def __call__(self, x):
        self.evals += 1
        point = np.array(x, dtype=float)
        if self._base is not None and np.count_nonzero(point != self._base) == 1:
            if not self._probing:
                self.iters += 1
            self._probing = True
        else:
            self._base = point
            self._probing = False
        return self.f(x)


def _qubits(dim: int) -> int:
    return int(dim).bit_length() - 1


def install(tracer: Tracer):
    """Wrap qcosmo's layer functions; return a function that undoes it."""
    from qcosmo import evolution, models, pauli, tunneling, vqe, wdw

    def q_of_matrix(index):
        return lambda a, k, r: {"q": _qubits(a[index].shape[0])}

    targets = [
        (models, "build_model", "models.build_model",
         lambda a, k, r: {"q": _qubits(r[0].shape[0])}),
        (models, "apply_scalar_function", "bases.apply_scalar_function", None),
        (models, "friedmann_evolve", "models.friedmann_evolve", None),
        (pauli, "decompose", "pauli.decompose", lambda a, k, r: {"q": r.n_qubits}),
        (pauli, "reconstruct", "pauli.reconstruct", lambda a, k, r: {"q": a[0].n_qubits}),
        (pauli, "expectation", "pauli.expectation", lambda a, k, r: {"q": a[0].n_qubits}),
        (vqe, "apply_circuit", "circuits.apply_circuit",
         lambda a, k, r: {"q": a[0].n_qubits}),
        (vqe, "expectation_dense", "circuits.expectation_dense", q_of_matrix(0)),
        (vqe, "exact_ground", "vqe.exact_ground", q_of_matrix(0)),
        (vqe, "run_vqe", "vqe.run_vqe", lambda a, k, r: {"q": a[1].n_qubits}),
        (evolution, "exact_evolve", "evolution.exact_evolve", q_of_matrix(0)),
        (evolution, "split_even_odd", "evolution.split_even_odd", q_of_matrix(0)),
        (evolution, "trotter_evolve", "evolution.trotter_evolve",
         lambda a, k, r: {"steps": r.steps, "q": _qubits(r.final.shape[0])}),
        (evolution, "_propagator", "evolution.propagator", None),
        (evolution, "interval_propagation_profile", "evolution.interval_propagation_profile",
         None),
        (evolution, "double_well_eoh", "evolution.double_well_eoh", None),
        (wdw, "bessel_k0", "wdw.bessel_k0", None),
        (wdw, "bessel_k_imag_order", "wdw.bessel_k_imag_order", None),
        (wdw, "flat_greens_quadrature", "wdw.flat_greens_quadrature", None),
        (tunneling, "report", "tunneling.report", None),
    ]
    saved = []
    for module, attr, name, info in targets:
        original = getattr(module, attr, None)
        if original is None:
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, info))

    minimizers = dict(vqe._MINIMIZERS)
    for kind, fn in minimizers.items():
        vqe._MINIMIZERS[kind] = tracer.wrap(f"optimizers.{fn.__name__}", fn, objective=True)

    def restore():
        for module, attr, original in saved:
            setattr(module, attr, original)
        vqe._MINIMIZERS.update(minimizers)

    return restore
