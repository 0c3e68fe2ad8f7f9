"""Command-line front end: configuration ingestion and experiment artifacts.

Subcommands
-----------
exact      dense eigensolve of a model Hamiltonian -> result JSON
vqe        variational run -> result JSON + convergence trace CSV
eoh        fifth-time propagation -> profile CSV + summary JSON
reproduce  side-by-side comparison against the recorded reference tables

Exit codes: 0 success (an unconverged VQE is still a success), 1 numerical
failure, 2 usage or configuration error. Each JSON file embeds a schema
version and resolved config keys (README lists which ones each holds);
identical config and seed give byte-identical files (the trace CSV's
elapsed_ms column is wall-clock and exempt). Each command imports its solver
modules when it runs, so ``exact`` loads no evolution code and ``eoh`` no VQE.

``main`` parses argv with one parser, built when this module is imported, so
the calls of one process share it; ``build_parser()`` still returns a new one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config, models, presets
from .circuits import AnsatzSpec
from .errors import ConfigError, QcosmoError

SCHEMA_VERSION = 1


def _qubit_counts(text: str) -> list[int]:
    try:
        return [int(q) for q in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected qubit counts such as 4 or 4,4, not {text!r}")


# each override flag: its argv type, the config block it writes to (None: the
# top level) and the commands that read it; no other command takes the flag
_OVERRIDES = {
    "qubits": (_qubit_counts, None, ("exact", "vqe")),
    "basis": (str, None, ("exact", "vqe")),
    "seed": (int, "vqe", ("vqe",)),
    "optimizer": (str, "vqe", ("vqe",)),
    "budget": (int, "vqe", ("vqe",)),
    "steps": (int, "eoh", ("eoh",)),
    "order": (int, "eoh", ("eoh",)),
}


def _merge(base: dict, top: dict) -> None:
    """Lay ``top`` over ``base``: an object over an object merges key by key, anything else replaces."""
    for key, value in top.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _load_config(args) -> dict:
    """The preset, then the config file, then argv overrides, merged and checked.

    A run that lacks what its command needs (a model, or an ``eoh`` block) is
    refused here, before any output directory is made.
    """
    raw: dict = {}
    if args.preset:
        raw = presets.get_preset(args.preset)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        _merge(raw, loaded)

    for flag, (_, block, _) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is None:  # an absent flag adds no block, so eoh with none is still refused
            continue
        target = raw if block is None else raw.setdefault(block, {})
        # a block that is not an object is left for the schema to report
        if isinstance(target, dict):
            target[flag] = value
    run = config.check_run(raw)
    if args.command == "eoh" and run["eoh"] is None:
        raise ConfigError("eoh command requires an 'eoh' block or preset")
    if args.command != "eoh" and run["model"] is None:
        raise ConfigError(f"{args.command} command requires a 'model' key or a model preset")
    return run


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("QCOSMO_OUT") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: str, row_format: str, rows) -> None:
    """Write ``header``, then each row tuple as ``rows`` yields it; the text is never held.

    ``row_format`` formats one row: ``%d`` for an integer column and ``%.17g``
    for a float column write the bytes of ``_fmt``.
    """
    with path.open("w") as f:
        f.write(header + "\n")
        f.writelines(row_format % row for row in rows)


def _model_config(run: dict) -> dict:
    return {k: run[k] for k in models.MODEL_SCHEMA}


# the keys of _exact_summary: the quantities a reproduce row of a model preset can name
SUMMARY_KEYS = ("exact_ground", "pauli_terms", "dim")


def _exact_summary(h: np.ndarray) -> dict:
    """The exact ground, Pauli term count and dimension of a built Hamiltonian."""
    from . import pauli, vqe
    return dict(zip(SUMMARY_KEYS, (vqe.exact_ground(h), len(pauli.decompose(h)), h.shape[0]),
                    strict=True))


def cmd_exact(args) -> int:
    run = _load_config(args)
    out = _out_dir(args) / "exact.json"
    h, resolved = models.build_model(_model_config(run))
    summary = _exact_summary(h)
    payload = {"schema_version": SCHEMA_VERSION, "config": resolved, **summary}
    _write_json(out, payload)
    dim = summary["dim"]
    print(f"exact ground {summary['exact_ground']:.10g}  ({dim}x{dim}, "
          f"{summary['pauli_terms']} Pauli terms) -> {out}")
    return 0


def cmd_vqe(args) -> int:
    from . import vqe
    run = _load_config(args)
    out_dir = _out_dir(args)
    h, resolved = models.build_model(_model_config(run))
    block = run["vqe"]
    spec = AnsatzSpec(sum(resolved["qubits"]), block["reps"], tuple(block["rotations"]))
    opt = vqe.OptimizerConfig(kind=vqe.OptimizerKind(block["optimizer"]), budget=block["budget"],
                              tol=block["tol"], seed=block["seed"])
    result = vqe.run_vqe(h, spec, opt)
    summary = _exact_summary(h)

    _write_csv(out_dir / "vqe_trace.csv", "eval,energy,elapsed_ms", "%d,%.17g,%.17g\n",
               ((i, energy, elapsed * 1e3)
                for (i, energy), elapsed in zip(result.trace, result.eval_times)))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": resolved,
        "model": resolved["model"],
        "qubits": resolved["qubits"],
        "pauli_terms": summary["pauli_terms"],
        "exact": summary["exact_ground"],
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
        f"vqe {result.energy:.10g} vs exact {summary['exact_ground']:.10g} "
        f"({result.n_evals} evals, converged={result.converged}) -> {out_dir / 'vqe.json'}"
    )
    return 0


def cmd_eoh(args) -> int:
    from . import evolution
    eoh = _load_config(args)["eoh"]
    out_dir = _out_dir(args)
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

    _write_csv(out_dir / "eoh_profile.csv", "tau,x_index,x_value,re_K,im_K,abs2_K",
               "%.17g,%d,%.17g,%.17g,%.17g,%.17g\n",
               ((prof.tau, i, x, val.real, val.imag, abs(val) ** 2)
                for prof in profiles for i, (x, val) in enumerate(zip(prof.grid, prof.values))))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {"eoh": eoh},
        "tau": tau_list,
        "norm": [float(np.sum(prof.squared)) for prof in profiles],
        "deviation_vs_exact": [float(np.max(np.abs(np.abs(prof.exact) ** 2 - prof.squared)))
                               for prof in profiles],
    }
    _write_json(out_dir / "eoh.json", payload)
    print(f"eoh profiles for {len(tau_list)} times -> {out_dir / 'eoh_profile.csv'}")
    return 0


def cmd_reproduce(args) -> int:
    table_id = args.table
    spec = presets.REPRODUCE_TABLES[table_id]
    # every row's quantity is checked before any model is built
    for row in spec["rows"]:
        if row["preset"] == "tunneling":
            from . import tunneling
            known = tunneling.REPORT_KEYS
        else:
            known = SUMMARY_KEYS
        if row["quantity"] not in known:
            raise ConfigError(f"unknown reproduce quantity {row['quantity']!r}")
    results: dict[str, dict] = {}  # per preset: its exact summary or tunneling report
    rows_out = []
    for row in spec["rows"]:
        preset, quantity = row["preset"], row["quantity"]
        if preset not in results:
            # "tunneling" is a row label, not a preset: the report of the default
            # dark_energy_1r potential, its minimum sought from phi = 5.0
            if preset == "tunneling":
                potential = models.dark_energy_potential(models.DarkEnergySingleRadiusParams())
                results[preset] = tunneling.report(potential, 5.0)
            else:
                run = config.check_run(presets.get_preset(preset))
                results[preset] = _exact_summary(models.build_model(_model_config(run))[0])
        computed = results[preset][quantity]
        ref = row["reference"]
        abs_err = abs(computed - ref)
        rel_err = abs_err / abs(ref) if ref != 0 else float("inf")
        rows_out.append((preset, quantity, ref, computed, abs_err, rel_err,
                         presets.verdict(row, computed)))

    tag = " (provisional reference values)" if spec["provisional"] else ""
    print(f"reproduction check: {table_id}{tag}")
    # the reference prints as its repr, so float() of the cell gives the table's value back
    width = max(14, *(len(str(row["reference"])) for row in spec["rows"]))
    header = (f"{'preset':<12} {'quantity':<22} {'reference':>{width}} {'computed':>22} "
              f"{'abs_err':>10} {'rel_err':>10}")
    print(header)
    print("-" * len(header))
    for preset_name, quantity, ref, computed, abs_err, rel_err, verdict in rows_out:
        print(
            f"{preset_name:<12} {quantity:<22} {ref:>{width}} {_fmt(computed):>22} "
            f"{abs_err:>10.2e} {rel_err:>10.2e}  {verdict}"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses argv with a ConfigError, so main prints one line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: each command takes only the flag names it lists
    parser = _Parser(
        prog="qcosmo",
        allow_abbrev=False,
        description="Quantum cosmology toolkit: exact spectra, VQE, and fifth-time evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("exact", cmd_exact), ("vqe", cmd_vqe), ("eoh", cmd_eoh)):
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--preset", help=f"named preset, one of {sorted(presets.PRESETS)}")
        p.add_argument("--out", help="output directory (default $QCOSMO_OUT or .)")
        for flag, (kind, block, commands) in _OVERRIDES.items():
            if name in commands:
                key = flag if block is None else f"{block}.{flag}"
                p.add_argument(f"--{flag}", type=kind, help=f"sets config key {key}")

    p = sub.add_parser("reproduce", allow_abbrev=False)
    p.add_argument("table", choices=presets.REPRODUCE_TABLES, help="reference table id")
    p.set_defaults(fn=cmd_reproduce)
    return parser


# built once at import: a parse reads the parser and leaves it as it was, so calls share it
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help, once its text is printed
        return exc.code
    except ConfigError as exc:  # argv or a path may hold a line break: print one line
        print("config error:", *str(exc).splitlines(), file=sys.stderr)
        return 2
    except OverflowError:  # Python float arithmetic's text is an errno tuple naming no value
        print("numerical failure: a value overflowed the float range", file=sys.stderr)
        return 1
    except (QcosmoError, ArithmeticError) as exc:
        print("numerical failure:", *str(exc).splitlines(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
