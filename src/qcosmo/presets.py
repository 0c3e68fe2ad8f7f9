"""Named experiment presets addressable from the CLI and the test suite.

Each preset is a complete run configuration; reference values carried here
drive the ``reproduce`` command's side-by-side comparison tables. Entries
with ``provisional=True`` depend on couplings that have no published value,
so the comparison is reported but not treated as a fidelity claim.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

def _table(model: str, qubits: list[int], **vqe) -> dict:
    # params and basis stay spelled out: benchmarks/workloads.py indexes them
    return {"model": model, "params": {}, "qubits": qubits, "basis": "oscillator",
            "vqe": {"budget": 2000, **vqe}}


# each preset states only what differs from the defaults of config.check_run
PRESETS: dict[str, dict] = {
    "table1": _table("starobinsky", [4]),
    "table2-4q": _table("dark_energy_1r", [4]),
    "table2-5q": _table("dark_energy_1r", [5]),
    "table2-6q": _table("dark_energy_1r", [6]),
    "table3": _table("dark_energy_2r", [4, 4]),
    "table4-16": _table("dark_matter_1", [2, 2]),
    "table4-64": _table("dark_matter_1", [3, 3], reps=5, budget=5000),
    "table4-256": _table("dark_matter_1", [4, 4], reps=5, budget=5000),
    "table5": _table("dark_matter_2", [4, 4], reps=5, budget=5000),
    "fig13": {"eoh": {"tau_list": [0.0, 0.05, 0.1, 0.2]}},
    "fig16": {
        "eoh": {
            "kind": "double-well",
            "tau_list": [0.0, 0.5, 1.0, 2.0],
            "steps": 128,
            "params": {"Lambda": -0.5, "k_curv": -2.5, "v_volume": 1.0},
        },
    },
}

# reference values for the side-by-side comparison tables
REPRODUCE_TABLES: dict[str, dict] = {
    "table1": {
        "provisional": False,
        "rows": [
            {"preset": "table1", "quantity": "exact_ground", "reference": 0.49785652},
            {"preset": "table1", "quantity": "pauli_terms", "reference": 135},
        ],
    },
    "table2": {
        "provisional": False,
        "rows": [
            {"preset": "table2-4q", "quantity": "exact_ground", "reference": 0.43791588},
            {"preset": "table2-5q", "quantity": "exact_ground", "reference": 0.00285585},
            {"preset": "table2-6q", "quantity": "exact_ground", "reference": 1.11637e-6},
        ],
    },
    "table3": {
        "provisional": True,
        "rows": [
            {"preset": "table3", "quantity": "exact_ground", "reference": 4.821e-5},
            {"preset": "table3", "quantity": "pauli_terms", "reference": 15115},
        ],
    },
    "table4": {
        "provisional": True,
        "rows": [
            {"preset": "table4-16", "quantity": "exact_ground", "reference": 1.01208468},
            {"preset": "table4-16", "quantity": "pauli_terms", "reference": 25},
            {"preset": "table4-64", "quantity": "exact_ground", "reference": 1.01205876},
            {"preset": "table4-64", "quantity": "pauli_terms", "reference": 361},
            {"preset": "table4-256", "quantity": "exact_ground", "reference": 1.01205913},
            {"preset": "table4-256", "quantity": "pauli_terms", "reference": 3025},
        ],
    },
    "table5": {
        "provisional": True,
        "rows": [
            {"preset": "table5", "quantity": "exact_ground", "reference": 1.015},
            {"preset": "table5", "quantity": "pauli_terms", "reference": 3024},
        ],
    },
    "tunneling": {
        "provisional": False,
        "rows": [
            {"preset": "tunneling", "quantity": "V_min", "reference": -0.378498},
            {"preset": "tunneling", "quantity": "M_sq", "reference": 0.584376},
            {"preset": "tunneling", "quantity": "delta", "reference": 0.139707},
            {"preset": "tunneling", "quantity": "S_E_over_4", "reference": 1534.44},
            {"preset": "tunneling", "quantity": "log10_lifetime_planck", "reference": 666.399},
            {"preset": "tunneling", "quantity": "log10_lifetime_years", "reference": 615.632},
        ],
    },
}


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
