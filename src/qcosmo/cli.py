"""Command-line front end: configuration ingestion and experiment artifacts.

Subcommands
-----------
exact      dense eigensolve of a model Hamiltonian -> result JSON
vqe        variational run -> result JSON + convergence trace CSV
eoh        fifth-time propagation -> profile CSV + summary JSON
reproduce  side-by-side comparison against the recorded reference tables

Exit codes: 0 success (an unconverged VQE is still a success), 1 numerical
failure, 2 usage or configuration error. Output files embed the resolved
configuration and a schema version; identical config and seed give
byte-identical JSON (the trace CSV's elapsed_ms column is wall-clock and
exempt).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config, evolution, models, pauli, presets, tunneling, vqe
from .circuits import AnsatzSpec
from .errors import ConfigError, QcosmoError

SCHEMA_VERSION = 1

# the block each block-level override flag writes to
_OVERRIDES = {"seed": "vqe", "budget": "vqe", "optimizer": "vqe", "steps": "eoh", "order": "eoh"}


def _load_config(args) -> dict:
    """The preset and config file merged, argv overrides applied, then checked."""
    raw: dict = {}
    if args.preset:
        raw = presets.get_preset(args.preset)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.update(loaded)

    if args.qubits:
        try:
            raw["qubits"] = [int(q) for q in args.qubits.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --qubits value {args.qubits!r}") from exc
    if args.basis:
        raw["basis"] = args.basis
    for key, block in _OVERRIDES.items():
        value = getattr(args, key)
        # a block that is not an object is left for the schema to report
        if value is not None and isinstance(raw.setdefault(block, {}), dict):
            raw[block][key] = value
    return config.check_run(raw)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("QCOSMO_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _model_config(run: dict) -> dict:
    return {k: run[k] for k in models.MODEL_SCHEMA}


def cmd_exact(args) -> int:
    h, resolved = models.build_model(_model_config(_load_config(args)))
    ground, _ = vqe.exact_ground(h)
    n_terms = len(pauli.decompose(h))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": resolved,
        "exact_ground": ground,
        "dim": h.shape[0],
        "pauli_terms": n_terms,
    }
    out = _out_dir(args) / "exact.json"
    _write_json(out, payload)
    print(f"exact ground {ground:.10g}  ({h.shape[0]}x{h.shape[0]}, {n_terms} Pauli terms) -> {out}")
    return 0


def cmd_vqe(args) -> int:
    run = _load_config(args)
    h, resolved = models.build_model(_model_config(run))
    block = run["vqe"]
    spec = AnsatzSpec(sum(resolved["qubits"]), block["reps"], tuple(block["rotations"]))
    opt = vqe.OptimizerConfig(kind=vqe.OptimizerKind(block["optimizer"]), budget=block["budget"],
                              tol=block["tol"], seed=block["seed"])
    result = vqe.run_vqe(h, spec, opt)
    exact, _ = vqe.exact_ground(h)
    n_terms = len(pauli.decompose(h))

    out_dir = _out_dir(args)
    trace_path = out_dir / "vqe_trace.csv"
    lines = ["eval,energy,elapsed_ms"]
    for (i, energy), elapsed in zip(result.trace, result.eval_times):
        lines.append(f"{i},{energy:.17g},{elapsed * 1e3:.17g}")
    trace_path.write_text("\n".join(lines) + "\n")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": resolved,
        "model": resolved["model"],
        "qubits": resolved["qubits"],
        "pauli_terms": n_terms,
        "exact": exact,
        "vqe": result.energy,
        "seed": opt.seed,
        "optimizer": block["optimizer"],
        "budget": opt.budget,
        "reps": spec.reps,
        "converged": result.converged,
        "n_evals": result.n_evals,
    }
    _write_json(out_dir / "vqe.json", payload)
    print(
        f"vqe {result.energy:.10g} vs exact {exact:.10g} "
        f"({result.n_evals} evals, converged={result.converged}) -> {out_dir / 'vqe.json'}"
    )
    return 0


def cmd_eoh(args) -> int:
    eoh = _load_config(args)["eoh"]
    if eoh is None:
        raise ConfigError("eoh command requires an 'eoh' block or preset")
    n, tau_list, steps, order = eoh["n_qubits"], eoh["tau_list"], eoh["steps"], eoh["order"]
    if eoh["kind"] == "interval":
        profiles = evolution.interval_propagation_profile(
            n, tau_list, eoh["x0_index"], steps=steps, order=order
        )
    else:
        params = models.MinisuperspaceParams(**eoh["params"])
        profiles = evolution.double_well_eoh(
            params, n, tau_list, eoh["center"], eoh["width"], steps=steps, order=order
        )

    out_dir = _out_dir(args)
    lines = ["tau,x_index,x_value,re_K,im_K,abs2_K"]
    for prof in profiles:
        for i, (x, val) in enumerate(zip(prof.grid, prof.values)):
            lines.append(
                f"{prof.tau:.17g},{i},{x:.17g},{val.real:.17g},{val.imag:.17g},"
                f"{abs(val) ** 2:.17g}"
            )
    (out_dir / "eoh_profile.csv").write_text("\n".join(lines) + "\n")

    deviations = [
        float(np.max(np.abs(np.abs(prof.exact) ** 2 - prof.squared))) for prof in profiles
    ]
    norms = [float(np.sum(prof.squared)) for prof in profiles]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {"eoh": eoh},
        "tau": tau_list,
        "norm": norms,
        "deviation_vs_exact": deviations,
    }
    _write_json(out_dir / "eoh.json", payload)
    print(f"eoh profiles for tau={tau_list} -> {out_dir / 'eoh_profile.csv'}")
    return 0


def _tunneling_report(block: dict) -> dict:
    params, _ = models.params_from_dict(block["model"], block["params"])
    potential = models.SINGLE_FIELD_POTENTIALS[block["model"]](params)
    return tunneling.report(potential, block["guess"])


def cmd_reproduce(args) -> int:
    table_id = args.table
    if table_id not in presets.REPRODUCE_TABLES:
        known = sorted(presets.REPRODUCE_TABLES)
        raise ConfigError(f"unknown table id {table_id!r}; known: {known}")
    spec = presets.REPRODUCE_TABLES[table_id]
    tun_cache: dict | None = None
    rows_out = []
    for row in spec["rows"]:
        run = config.check_run(presets.get_preset(row["preset"]))
        quantity = row["quantity"]
        if quantity in ("exact_ground", "pauli_terms"):
            h, _ = models.build_model(_model_config(run))
            if quantity == "exact_ground":
                computed = vqe.exact_ground(h)[0]
            else:
                computed = len(pauli.decompose(h))
        else:
            if tun_cache is None:
                tun_cache = _tunneling_report(run["tunneling"])
            if quantity not in tun_cache:
                raise ConfigError(f"unknown reproduce quantity {quantity!r}")
            computed = tun_cache[quantity]
        ref = row["reference"]
        abs_err = abs(computed - ref)
        rel_err = abs_err / abs(ref) if ref != 0 else float("inf")
        rows_out.append((row["preset"], quantity, ref, computed, abs_err, rel_err))

    tag = " (provisional reference values)" if spec["provisional"] else ""
    print(f"reproduction check: {table_id}{tag}")
    header = f"{'preset':<12} {'quantity':<22} {'reference':>14} {'computed':>22} {'abs_err':>10} {'rel_err':>10}"
    print(header)
    print("-" * len(header))
    for preset_name, quantity, ref, computed, abs_err, rel_err in rows_out:
        matched = "match" if rel_err < 1e-3 else "differs"
        print(
            f"{preset_name:<12} {quantity:<22} {ref:>14} {_fmt(computed):>22} "
            f"{abs_err:>10.2e} {rel_err:>10.2e}  {matched}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcosmo",
        description="Quantum cosmology toolkit: exact spectra, VQE, and fifth-time evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--preset", help=f"named preset, one of {sorted(presets.PRESETS)}")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory (default $QCOSMO_OUT or .)")
        p.add_argument("--qubits", help="qubit counts, e.g. 4 or 4,4")
        p.add_argument("--basis")
        p.add_argument("--optimizer")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--order", type=int, default=None)

    for name, fn in (("exact", cmd_exact), ("vqe", cmd_vqe), ("eoh", cmd_eoh)):
        p = sub.add_parser(name)
        add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("reproduce")
    p.add_argument("table", help=f"one of {sorted(presets.REPRODUCE_TABLES)}")
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QcosmoError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
