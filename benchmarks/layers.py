"""Per-layer metrics of a traced run, computed from its spans.

A layer is the module prefix of a span name (``circuits.apply_circuit`` is in
``circuits``). A span's self time is its duration minus that of its direct
child spans. Call times are medians over every call in the traced passes;
per-pass figures (self time, call counts) are medians over the traced passes.
A layer a workload does not reach reports 0.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from collections import defaultdict

SELF_LAYERS = ("cli", "models", "bases", "pauli", "circuits", "optimizers", "vqe",
               "evolution", "wdw", "tunneling")
IMPORT_MODULES = ("numpy", "scipy.integrate", "qcosmo", "qcosmo.bases", "qcosmo.circuits",
                  "qcosmo.cli", "qcosmo.errors", "qcosmo.evolution", "qcosmo.models",
                  "qcosmo.optimizers", "qcosmo.pauli", "qcosmo.presets", "qcosmo.tunneling",
                  "qcosmo.vqe", "qcosmo.wdw")
# qubit count of each VQE configuration, shared by cli and pauli-ops
VQE_CONFIGS = {"table1": 4, "table2-6q": 6, "table4-256": 8}


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def import_times(module: str, samples: int, env: dict, cwd, timeout: float) -> dict:
    """Cumulative import time of each module, in ms, from ``python -X importtime``.

    The cumulative figure includes the dependencies a module is the first to
    import. Medians over ``samples`` child processes.
    """
    seen = defaultdict(list)
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$")
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
                              check=True)
        for line in proc.stderr.splitlines():
            match = pattern.match(line)
            if match:
                seen[match.group(2).strip()].append(int(match.group(1)) / 1e3)
    return {f"{name.removeprefix('qcosmo.') if name != 'qcosmo' else name}.import_ms":
            _median(seen.get(name, [])) for name in IMPORT_MODULES}


class _Pass:
    """Index of one traced pass's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, span in enumerate(spans):
            if span["parent"] is not None:
                self.children[span["parent"]].append(i)

    def duration(self, i):
        span = self.spans[i]
        return span["end"] - span["start"]

    def self_time(self, i):
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def descendants(self, i):
        stack = list(self.children[i])
        while stack:
            j = stack.pop()
            yield j
            stack.extend(self.children[j])


def span_metrics(passes: list[list[dict]]) -> dict:
    indexed = [_Pass(spans) for spans in passes]
    calls = defaultdict(list)         # (name, qubits or None) -> durations in ms
    trotter_step_us = []
    runs = defaultdict(list)          # per-VQE-run figures
    per_pass = defaultdict(list)      # per-pass totals
    for p in indexed:
        self_ms = defaultdict(float)
        decompose_calls = 0
        for i, span in enumerate(p.spans):
            name = span["name"]
            ms = p.duration(i) * 1e3
            calls[name, None].append(ms)
            if "q" in span["info"]:
                calls[name, span["info"]["q"]].append(ms)
            self_ms[name.split(".")[0]] += p.self_time(i) * 1e3
            decompose_calls += name == "pauli.decompose"
            if name == "evolution.trotter_evolve":
                trotter_step_us.append(p.self_time(i) * 1e6 / span["info"]["steps"])
            if name == "vqe.run_vqe":
                _vqe_run(p, i, runs)
        for layer in SELF_LAYERS:
            per_pass[f"{layer}.self_ms"].append(self_ms[layer])
        per_pass["pauli.decompose_calls"].append(decompose_calls)
        per_pass["trace.spans"].append(len(p.spans))

    def call(name, q=None):
        return _median(calls.get((name, q), []))

    metrics = {name: _median(values) for name, values in per_pass.items()}
    metrics.update({
        "models.build_model_ms.4q": call("models.build_model", 4),
        "models.build_model_ms.6q": call("models.build_model", 6),
        "models.build_model_ms.8q": call("models.build_model", 8),
        "bases.apply_scalar_function_ms": call("bases.apply_scalar_function"),
        "models.friedmann_evolve_ms": call("models.friedmann_evolve"),
        "pauli.decompose_ms.8q": call("pauli.decompose", 8),
        "pauli.reconstruct_ms": call("pauli.reconstruct"),
        "pauli.expectation_ms.4q": call("pauli.expectation", 4),
        "pauli.expectation_ms.6q": call("pauli.expectation", 6),
        "pauli.expectation_ms.8q": call("pauli.expectation", 8),
        "circuits.apply_circuit_ms.4q": call("circuits.apply_circuit", 4),
        "circuits.apply_circuit_ms.6q": call("circuits.apply_circuit", 6),
        "circuits.apply_circuit_ms.8q": call("circuits.apply_circuit", 8),
        "circuits.expectation_dense_ms.8q": call("circuits.expectation_dense", 8),
        "circuits.sweeps": _median(runs["sweeps"]),
        "optimizers.evals_per_iter": _median(runs["evals_per_iter"]),
        "vqe.evals": _median(runs["evals"]),
        "vqe.exact_ground_ms.8q": call("vqe.exact_ground", 8),
        "evolution.split_even_odd_ms.8q": call("evolution.split_even_odd", 8),
        "evolution.trotter_step_us": _median(trotter_step_us),
        "evolution.exact_evolve_ms": call("evolution.exact_evolve"),
        "wdw.bessel_k0_ms": call("wdw.bessel_k0"),
        "wdw.bessel_k_imag_order_ms": call("wdw.bessel_k_imag_order"),
        "wdw.flat_greens_quadrature_ms": call("wdw.flat_greens_quadrature"),
        "tunneling.report_ms": call("tunneling.report"),
    })
    for preset, q in VQE_CONFIGS.items():
        metrics[f"vqe.eval_ms.{preset}"] = _median(runs[f"eval_ms.{q}"])
    return metrics


def _vqe_run(p: _Pass, i: int, runs) -> None:
    """Sweeps, evaluation cost and optimizer iterations of one ``run_vqe`` span."""
    energy_s = 0.0
    sweeps = 0
    evals = iters = 0
    for j in p.descendants(i):
        name = p.spans[j]["name"]
        if name == "circuits.apply_circuit":
            sweeps += 1
            energy_s += p.duration(j)
        elif name in ("circuits.expectation_dense", "pauli.expectation"):
            energy_s += p.duration(j)
        elif name.startswith("optimizers."):
            evals = p.spans[j]["info"]["evals"]
            iters = p.spans[j]["info"]["iters"]
    runs["sweeps"].append(sweeps)
    runs["evals"].append(evals)
    if iters:
        runs["evals_per_iter"].append(evals / iters)
    if evals:
        runs[f"eval_ms.{p.spans[i]['info']['q']}"].append(energy_s * 1e3 / evals)
