"""Named experiment presets addressable from the CLI and the test suite.

Each preset is a complete run configuration. The reference tables are the
release gate's single source: ``reproduce`` prints each row's ``verdict`` and
the acceptance suite asserts the same rows by the same rules. A row without a
rule depends on couplings that have no published value: it is reported, not
asserted, and its table is provisional.
"""

from __future__ import annotations

import copy
import math

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


def _reference_table(*rows) -> dict:
    """Rows of (preset, quantity, reference, rule); provisional when a row has no rule."""
    rows = [dict(zip(("preset", "quantity", "reference", "rule"), row, strict=True))
            for row in rows]
    return {"provisional": any(row["rule"] is None for row in rows), "rows": rows}


# each reference with the release gate's rule for it, judged by ``verdict``
REPRODUCE_TABLES: dict[str, dict] = {
    "table1": _reference_table(
        ("table1", "exact_ground", 0.49785652, ("abs", 1e-6)),
        ("table1", "pauli_terms", 135, ("abs", 0)),
    ),
    "table2": _reference_table(
        ("table2-4q", "exact_ground", 0.43791588, ("rel", 1e-4)),
        ("table2-5q", "exact_ground", 0.00285585, ("rel", 1e-4)),
        ("table2-6q", "exact_ground", 1.11637e-6, ("factor", 2.0)),
    ),
    "table3": _reference_table(
        ("table3", "exact_ground", 4.821e-5, None),
        ("table3", "pauli_terms", 15115, None),
    ),
    "table4": _reference_table(
        ("table4-16", "exact_ground", 1.01208468, None),
        ("table4-16", "pauli_terms", 25, ("abs", 0)),
        ("table4-64", "exact_ground", 1.01205876, None),
        ("table4-64", "pauli_terms", 361, ("abs", 0)),
        ("table4-256", "exact_ground", 1.01205913, None),
        ("table4-256", "pauli_terms", 3025, ("abs", 0)),
    ),
    "table5": _reference_table(
        ("table5", "exact_ground", 1.015, None),
        ("table5", "pauli_terms", 3024, None),
    ),
    "tunneling": _reference_table(
        ("tunneling", "V_min", -0.378498, ("abs", 1e-3)),
        ("tunneling", "M_sq", 0.584376, ("rel", 0.01)),
        ("tunneling", "delta", 0.139707, ("rel", 0.02)),
        ("tunneling", "S_E_over_4", 1534.44, ("rel", 0.01)),
        # the lifetimes compare in log10: e^(S_E/4) turns the 1% action window into
        # a factor of about 10^6.7, so a window on the mantissa would say nothing
        ("tunneling", "log10_lifetime_planck", 666.4, ("abs", 1.0)),
        ("tunneling", "log10_lifetime_years", 615 + math.log10(4.2823), ("abs", 1.0)),
    ),
}


def verdict(row: dict, computed: float) -> str:
    """``match`` or ``differs`` by the row's rule, or ``reported`` for a row without one.

    A rule is ("abs", tol), ("rel", tol), which scales tol by |reference|, or
    ("factor", f), which accepts reference / f <= computed <= reference * f.
    """
    if row["rule"] is None:
        return "reported"
    (kind, tol), ref = row["rule"], row["reference"]
    if kind == "factor":
        ok = ref / tol <= computed <= ref * tol
    else:
        ok = abs(computed - ref) <= (tol * abs(ref) if kind == "rel" else tol)
    return "match" if ok else "differs"


def reference_row(preset: str, quantity: str) -> dict:
    """The row of REPRODUCE_TABLES that holds the reference of one preset's quantity."""
    return next(row for spec in REPRODUCE_TABLES.values() for row in spec["rows"]
                if (row["preset"], row["quantity"]) == (preset, quantity))


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
