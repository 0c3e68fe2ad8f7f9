"""JSON run-config schema: :func:`check_run` checks a whole run config at load.

The ``vqe`` and ``eoh`` tables give each key as (default, type, allowed values),
like ``models.MODEL_SCHEMA``; see :func:`models.check_block`. An ``eoh`` block
takes the keys of ``_EOH_SCHEMA`` and those its kind reads in ``_EOH_KINDS``.
"""

from __future__ import annotations

import sys

from . import models
from .circuits import ROTATIONS, AnsatzSpec
from .errors import ConfigError
from .optimizers import OptimizerConfig, OptimizerKind

_AT_LEAST_ONE = range(1, sys.maxsize)

MAX_TAUS = 1024
"""Most ``eoh.tau_list`` times a config may request: at 8 qubits each one holds
about 0.01 MB of profiles in memory and writes about 28 KB of CSV to disk."""

_VQE_SCHEMA = {
    "reps": (AnsatzSpec.reps, int, _AT_LEAST_ONE),
    "rotations": (list(AnsatzSpec.rotations), [str], ROTATIONS),
    "optimizer": (OptimizerConfig.kind.value, str, tuple(k.value for k in OptimizerKind)),
    "budget": (OptimizerConfig.budget, int, _AT_LEAST_ONE),
    "tol": (OptimizerConfig.tol, float, None),
    "seed": (OptimizerConfig.seed, int, range(sys.maxsize)),
}
_EOH_SCHEMA = {  # the keys both kinds read
    "kind": ("interval", str, ("interval", "double-well")),
    "n_qubits": (5, int, models.QUBIT_COUNTS),
    "tau_list": ([0.0, 0.1], [float], None),
    "steps": (64, int, _AT_LEAST_ONE),  # Trotter slices and order of the fifth-time profiles
    "order": (2, int, (1, 2)),
}
_EOH_KINDS = {  # the keys only one kind reads
    "interval": {"x0_index": (None, int, None)},  # None: the middle of the grid
    "double-well": {
        "center": (-1.5, float, None),
        "width": (0.35, float, None),
        # the double well's minisuperspace fields; its kind is always neg-lambda-morse
        "params": ({}, dict, models.params_schema("minisuperspace")),
    },
}
_RUN_SCHEMA = {
    **models.MODEL_SCHEMA,
    "vqe": ({}, dict, _VQE_SCHEMA),
    "eoh": (None, dict, None),  # checked by its kind: _EOH_SCHEMA and _EOH_KINDS
}


def check_run(config: dict) -> dict:
    """Check a run config; return it with every default filled in."""
    run = models.check_block(config, _RUN_SCHEMA, "config")
    if run["model"] is not None:
        run.update(models.check_model({k: run[k] for k in models.MODEL_SCHEMA}))
    block = run["vqe"]
    if not block["rotations"]:
        raise ConfigError("config.vqe.rotations must be a non-empty list, not []")
    if run["model"] is not None:
        n = sum(run["qubits"])
        n_params = AnsatzSpec(n, block["reps"], tuple(block["rotations"])).n_params
        if n_params > models.MAX_PARAMS:
            raise ConfigError(f"config.vqe.reps {block['reps']} gives {n_params} ansatz parameters "
                              f"on {n} qubits, over the limit of {models.MAX_PARAMS}")
    if run["eoh"] is not None:
        default, *rule = _EOH_SCHEMA["kind"]
        kind = models.check_value(run["eoh"].get("kind", default), *rule, "config.eoh.kind")
        eoh = run["eoh"] = models.check_block(run["eoh"], {**_EOH_SCHEMA, **_EOH_KINDS[kind]},
                                              "config.eoh")
        if len(eoh["tau_list"]) > MAX_TAUS:
            raise ConfigError(f"config.eoh.tau_list has {len(eoh['tau_list'])} times, "
                              f"over the limit of {MAX_TAUS}")
        if kind == "interval":
            grid = range(2 ** eoh["n_qubits"])
            x0 = len(grid) // 2 if eoh["x0_index"] is None else eoh["x0_index"]
            eoh["x0_index"] = models.check_value(x0, int, grid, "config.eoh.x0_index")
    return run
