import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcosmo import cli, config, evolution, models, pauli, presets, vqe
from qcosmo.circuits import AnsatzSpec
from qcosmo.errors import QcosmoError


def run(argv):
    return cli.main(argv)


def run_child(argv):
    """Run ``python -m qcosmo.cli argv`` in a child process with this tree's qcosmo."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "qcosmo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def read_json(path):
    return json.loads(path.read_text())


def test_exact_table1(tmp_path, capsys):
    assert run(["exact", "--preset", "table1", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact.json")
    for quantity in ("exact_ground", "pauli_terms"):
        assert presets.verdict(presets.reference_row("table1", quantity), payload[quantity]) == "match"
    assert payload["dim"] == 16
    assert payload["schema_version"] == 1
    assert payload["config"]["model"] == "starobinsky"


def test_exact_table4(tmp_path):
    assert run(["exact", "--preset", "table4-16", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact.json")
    assert payload["pauli_terms"] == 25
    assert np.isfinite(payload["exact_ground"])


# every model preset's Pauli term count, a figure that moves if the transform's rounding does;
# the counts that the reference tables assert are read from them
PAULI_TERMS = {"table1": presets.reference_row("table1", "pauli_terms")["reference"],
               "table2-4q": 135, "table2-5q": 499, "table2-6q": 1541, "table3": 17801,
               **{p: presets.reference_row(p, "pauli_terms")["reference"]
                  for p in ("table4-16", "table4-64", "table4-256")},
               "table5": 10609}


def test_pauli_terms_cover_every_model_preset():
    assert sorted(PAULI_TERMS) == sorted(n for n, cfg in presets.PRESETS.items() if "model" in cfg)


@pytest.mark.parametrize("preset, terms", [
    *PAULI_TERMS.items(),
    # the position-basis P² keeps its rounding-level imaginary part: a complex H
    pytest.param("table1 --basis position", 42, id="table1-position-42"),
])
def test_exact_writes_pauli_terms(tmp_path, capsys, preset, terms):
    assert run(["exact", "--preset", *preset.split(), "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "exact.json")["pauli_terms"] == terms


# the flags of each command: its inputs, then the overrides it reads
_BASE = ["config", "preset", "out"]
_FLAGS = {"exact": [*_BASE, "qubits", "basis"],
          "vqe": [*_BASE, "qubits", "basis", "seed", "optimizer", "budget"],
          "eoh": [*_BASE, "steps", "order"]}


# argv and the namespace each command's parser makes of it
PARSES = {
    "exact": (["exact", "--config", "c.json", "--preset", "table1", "--out", "d",
               "--qubits", "4,4", "--basis", "fd"],
              {"command": "exact", "fn": cli.cmd_exact, "config": "c.json", "preset": "table1",
               "out": "d", "qubits": [4, 4], "basis": "fd"}),
    "vqe": (["vqe", "--budget=9", "--seed", "-1"],
            {**dict.fromkeys(_FLAGS["vqe"]), "command": "vqe", "fn": cli.cmd_vqe, "budget": 9,
             "seed": -1}),
    "eoh": (["eoh", "--preset", "fig13", "--steps", "7"],
            {**dict.fromkeys(_FLAGS["eoh"]), "command": "eoh", "fn": cli.cmd_eoh,
             "preset": "fig13", "steps": 7}),
    "reproduce": (["reproduce", "table2"],
                  {"command": "reproduce", "fn": cli.cmd_reproduce, "table": "table2"}),
}


@pytest.mark.parametrize("argv, expected", PARSES.values(), ids=PARSES)
def test_parser_namespaces(argv, expected):
    assert vars(cli.build_parser().parse_args(argv)) == expected


def test_main_parses_with_the_parser_built_at_import(tmp_path, monkeypatch, capsys):
    """No call of main builds a parser, and no call leaves state in the one it shares."""
    def refuse_to_build(*args, **kwargs):
        raise AssertionError("main built a parser")

    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps({"eoh": {"n_qubits": 3, "tau_list": [1e308]}}))
    batch = [
        (["exact", "--preset", "table1", "--out", str(tmp_path / "a")], 0),
        (["vqe", "--preset", "table1", "--budget", "5", "--out", str(tmp_path / "vqe")], 0),
        (["eoh", "--preset", "fig13", "--out", str(tmp_path / "eoh")], 0),
        (["reproduce", "table1"], 0),
        (["exact", "--help"], 0),
        (["vqe", "--preset", "table1", "--budget", "x"], 2),  # argv refusal
        (["exact", "--out", str(tmp_path / "no-model")], 2),  # config refusal
        (["eoh", "--config", str(overflow), "--out", str(tmp_path / "overflow")], 1),
    ]
    # every parser's constructor adds its -h through add_argument
    with monkeypatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "add_argument", refuse_to_build)
        for argv, code in batch:
            assert run(argv) == code, (argv, capsys.readouterr())
    for argv, expected in PARSES.values():
        assert vars(cli._PARSER.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    # the REPEAT_RUNS rule, after the batch: the in-process bytes are a child process's
    assert run(["exact", "--preset", "table1", "--out", str(tmp_path / "b")]) == 0
    proc = run_child(["exact", "--preset", "table1", "--out", str(tmp_path / "c")])
    assert proc.returncode == 0, proc.stderr
    first = (tmp_path / "a" / "exact.json").read_bytes()
    assert (tmp_path / "b" / "exact.json").read_bytes() == first
    assert (tmp_path / "c" / "exact.json").read_bytes() == first


def test_config_file_merges_into_preset_blocks(tmp_path):
    # preset, then file, then flags: a file's block sets only the keys it names
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"vqe": {"seed": 3}}))
    parser = cli.build_parser()
    from_file = cli._load_config(parser.parse_args(
        ["vqe", "--preset", "table4-256", "--config", str(cfg)]))
    from_flag = cli._load_config(parser.parse_args(["vqe", "--preset", "table4-256", "--seed", "3"]))
    assert from_file == from_flag
    assert from_file["vqe"]["reps"] == 5 and from_file["vqe"]["budget"] == 5000
    # the same rule holds one level down: fig16's other double-well params stay
    cfg.write_text(json.dumps({"eoh": {"params": {"Lambda": -1.0}}}))
    params = cli._load_config(parser.parse_args(
        ["eoh", "--preset", "fig16", "--config", str(cfg)]))["eoh"]["params"]
    assert (params["Lambda"], params["k_curv"], params["v_volume"]) == (-1.0, -2.5, 1.0)


def test_vqe_artifacts_and_budget_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "starobinsky",
                "qubits": [2],
                "vqe": {"reps": 1, "budget": 1, "seed": 0},
            }
        )
    )
    assert run(["vqe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "vqe.json")
    assert payload["converged"] is False
    assert payload["n_evals"] == 1
    trace = (tmp_path / "vqe_trace.csv").read_text().splitlines()
    assert trace[0] == "eval,energy,elapsed_ms"
    assert len(trace) == 2


def test_vqe_trace_monotone(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "starobinsky",
                "qubits": [2],
                "vqe": {"reps": 1, "budget": 120, "seed": 3, "optimizer": "nelder-mead"},
            }
        )
    )
    assert run(["vqe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "vqe_trace.csv").read_text().splitlines()[1:]
    energies = [float(r.split(",")[1]) for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(energies, energies[1:]))
    payload = read_json(tmp_path / "vqe.json")
    assert payload["vqe"] >= payload["exact"] - 1e-9


# Each case runs once through cli.main and once as a child process; both write
# the same files. A config dict is written to a file and passed as --config.
REPEAT_RUNS = {
    "vqe-2q": (["vqe"], {"model": "starobinsky", "qubits": [2],
                         "vqe": {"reps": 1, "budget": 60, "seed": 5}}),
    # the Trotter step matrix of each EOH kind
    "eoh-fig13": (["eoh", "--preset", "fig13"], None),
    "eoh-fig16": (["eoh", "--preset", "fig16"], None),
    # every 256-point part is diagonal or splits into two 128-point sectors
    "eoh-double-well-8q": (["eoh"], {"eoh": {"kind": "double-well", "n_qubits": 8}}),
    # a real model H: apply_scalar_function's real eigh
    "exact-table2-6q": (["exact", "--preset", "table2-6q"], None),
    # stacked circuit sweeps at 8 qubits
    "vqe-table4-256": (["vqe", "--preset", "table4-256", "--budget", "200", "--seed", "7"], None),
    # five qubits: the rotation step's Kronecker factors split 2 + 3
    "vqe-table2-5q": (["vqe", "--preset", "table2-5q", "--budget", "200", "--seed", "7"], None),
    # a complex H: bases.energies' complex branch
    "vqe-table5": (["vqe", "--preset", "table5", "--budget", "200", "--seed", "7"], None),
}


@pytest.mark.parametrize("argv, config", REPEAT_RUNS.values(), ids=REPEAT_RUNS)
def test_repeat_runs_write_identical_files(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([*argv, "--out", str(a)]) == 0
    proc = run_child([*argv, "--out", str(b)])
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "vqe_trace.csv":
            # identical apart from the wall-clock elapsed_ms column
            strip = lambda d: [r.rsplit(",", 1)[0] for r in (d / name).read_text().splitlines()]
            assert strip(a) == strip(b)
            # a header and one row per evaluation: the budget is spent
            assert len(strip(a)) == read_json(a / "vqe.json")["budget"] + 1
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    if "eoh.json" in names:
        assert all(abs(n - 1.0) <= 1e-9 for n in read_json(a / "eoh.json")["norm"])


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="on one core BLAS runs one thread whatever the environment says")
@pytest.mark.parametrize("preset", ["table3", "table5"])
def test_exact_bytes_do_not_follow_blas_threads(tmp_path, preset):
    """qcosmo pins BLAS to one thread, so a host's core count does not move the exact
    ground's last bits; table3 and table5 are the presets where it did."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    outs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"run{len(outs)}"
        subprocess.run([sys.executable, "-m", "qcosmo.cli", "exact", "--preset", preset,
                        "--out", str(out)], env={**env, **extra}, capture_output=True,
                       timeout=120, check=True)
        outs.append((out / "exact.json").read_bytes())
    assert outs[0] == outs[1]


LIMIT = models.MAX_QUBITS
STARO ={"model": "starobinsky", "qubits": [2]}
DM1_8Q = {"model": "dark_matter_1", "qubits": [4, 4]}  # 16 * (reps + 1) ansatz parameters

# Every input the CLI refuses, as (argv, config, exit code, message): 2 for a
# config error, 1 for a numerical failure. A config dict or raw bytes is written
# to a file and passed as --config; `refuse` adds --out and checks the contract.
# A message that quotes Python's own error text gives only its stable start.
REFUSALS = {
    # argv: each command takes only the flags it reads, under their full names
    "eoh-qubits": (["eoh", "--preset", "fig13", "--qubits", "6"], None, 2,
                   "unrecognized arguments: --qubits 6"),
    "exact-seed": (["exact", "--preset", "table1", "--seed", "3"], None, 2,
                   "unrecognized arguments: --seed 3"),
    "vqe-steps": (["vqe", "--preset", "table1", "--steps", "3"], None, 2,
                  "unrecognized arguments: --steps 3"),
    "exact-b": (["exact", "--preset", "table1", "--b", "3"], None, 2,
                "unrecognized arguments: --b 3"),
    "vqe-opt": (["vqe", "--preset", "table1", "--opt", "nelder-mead"], None, 2,
                "unrecognized arguments: --opt nelder-mead"),
    # an unknown argument's line break does not make a second line
    "line-break": (["exact", "--bogus", "a\nb"], None, 2, "unrecognized arguments: --bogus a b"),
    "budget-x": (["vqe", "--preset", "table1", "--budget", "x"], None, 2,
                 "argument --budget: invalid int value: 'x'"),
    "frob": (["frob"], None, 2, "argument command: invalid choice: 'frob'"),
    "reproduce-tableX": (["reproduce", "tableX"], None, 2,
                         "argument table: invalid choice: 'tableX'"),
    "qubits-4-x": (["exact", "--preset", "table1", "--qubits", "4,x"], None, 2,
                   "argument --qubits: expected qubit counts such as 4 or 4,4, not '4,x'"),
    "optimizer-cobyla-flag": (["vqe", "--preset", "table1", "--optimizer", "cobyla"], None, 2,
                              "config.vqe.optimizer must be one of ['nelder-mead', "
                              "'gradient-descent'], not 'cobyla'"),
    "table5-basis-fd": (["exact", "--preset", "table5", "--basis", "fd"], None, 2,
                        "config.basis must be 'oscillator' or 'position' for dark_matter_2, "
                        "not 'fd'"),
    # a run that lacks what its command needs
    "preset-without-eoh": (["eoh", "--preset", "table1"], None, 2,
                           "eoh command requires an 'eoh' block or preset"),
    "no-config": (["eoh"], None, 2, "eoh command requires an 'eoh' block or preset"),
    "exact-no-model": (["exact"], None, 2,
                       "exact command requires a 'model' key or a model preset"),
    "vqe-preset-without-model": (["vqe", "--preset", "fig13"], None, 2,
                                 "vqe command requires a 'model' key or a model preset"),
    # a config file that is not a JSON object Python can read
    "not-json": (["exact"], b"{not json", 2, "cannot read config cfg.json: "),
    "invalid-utf8": (["exact"], b"\xff\xfe{}", 2, "cannot read config cfg.json: "),
    "5000-digit-int": (["exact"], b'{"seed": ' + b"9" * 5000 + b"}", 2,
                       "cannot read config cfg.json: "),
    "deep-nesting": (["exact"], b"[" * 200_000, 2, "cannot read config cfg.json: "),
    # keys the schema does not hold; tunneling is a removed block that no command read
    "mystery-key": (["exact"], {**STARO, "mystery": 1}, 2, "unknown config keys: ['mystery']"),
    "tunneling-key": (["exact"], {**STARO, "tunneling": {}}, 2,
                      "unknown config keys: ['tunneling']"),
    "out-key": (["exact"], {**STARO, "out": "elsewhere"}, 2, "unknown config keys: ['out']"),
    "seed-key": (["exact"], {**STARO, "seed": 1}, 2, "unknown config keys: ['seed']"),
    "eoh-params-kind": (["eoh"], {"eoh": {"kind": "double-well", "params": {"kind": "morse-s2"}}},
                        2, "unknown config.eoh.params keys: ['kind']"),
    # keys that only another eoh kind or dark-matter model reads
    "interval-width": (["eoh"], {"eoh": {"kind": "interval", "width": 0.0}}, 2,
                       "unknown config.eoh keys: ['width']"),
    "interval-params": (["eoh"], {"eoh": {"params": {"Lambda": 1e300}}}, 2,
                        "unknown config.eoh keys: ['params']"),
    "double-well-x0-index": (["eoh"], {"eoh": {"kind": "double-well", "x0_index": 0}}, 2,
                             "unknown config.eoh keys: ['x0_index']"),
    "dark-matter-1-g-X": (["exact"], {"model": "dark_matter_1", "qubits": [1, 1],
                                      "params": {"g_X": 1e300}}, 2,
                          "unknown dark_matter_1 params keys: ['g_X']"),
    "dark-matter-2-lambda-X": (["exact"], {"model": "dark_matter_2", "qubits": [1, 1],
                                           "params": {"lambda_X": 0.1}}, 2,
                               "unknown dark_matter_2 params keys: ['lambda_X']"),
    # a value of the wrong type or outside the range README states
    "budget-str": (["vqe"], {**STARO, "vqe": {"budget": "abc"}}, 2,
                   "config.vqe.budget must be an integer >= 1, not 'abc'"),
    "param-str": (["exact"], {**STARO, "params": {"M1_4": "x"}}, 2,
                  "starobinsky params.M1_4 must be a finite number, not 'x'"),
    "reps-0": (["vqe"], {**STARO, "vqe": {"reps": 0}}, 2,
               "config.vqe.reps must be an integer >= 1, not 0"),
    "seed-minus-1": (["vqe"], {**STARO, "vqe": {"seed": -1}}, 2,
                     "config.vqe.seed must be an integer >= 0, not -1"),
    # JSON reads 1e999 as inf
    "tol-1e999": (["vqe"], b'{"model": "starobinsky", "qubits": [2], "vqe": {"tol": 1e999}}', 2,
                  "config.vqe.tol must be a finite number, not inf"),
    "optimizer-cobyla": (["vqe"], {**STARO, "vqe": {"optimizer": "cobyla"}}, 2,
                         "config.vqe.optimizer must be one of ['nelder-mead', 'gradient-descent'], "
                         "not 'cobyla'"),
    "rotations-str": (["vqe"], {**STARO, "vqe": {"rotations": "ry"}}, 2,
                      "config.vqe.rotations must be a list, not 'ry'"),
    "rotations-empty": (["vqe"], {**STARO, "vqe": {"rotations": []}}, 2,
                        "config.vqe.rotations must be a non-empty list, not []"),
    # the same check on a preset's vqe block that the config file merges into
    "rotations-empty-preset": (["vqe", "--preset", "table1"], {"vqe": {"rotations": []}}, 2,
                               "config.vqe.rotations must be a non-empty list, not []"),
    "rotations-rx": (["vqe"], {**STARO, "vqe": {"rotations": ["rx"]}}, 2,
                     "config.vqe.rotations[0] must be one of ['ry', 'rz'], not 'rx'"),
    "basis-bogus": (["exact"], {**STARO, "basis": "bogus"}, 2,
                    "config.basis must be one of ['oscillator', 'position', 'fd'], not 'bogus'"),
    "dark-matter-2-fd": (["exact"], {"model": "dark_matter_2", "qubits": [1, 1], "basis": "fd"}, 2,
                         "config.basis must be 'oscillator' or 'position' for dark_matter_2, "
                         "not 'fd'"),
    "qubit-bool": (["exact"], {"model": "starobinsky", "qubits": [True]}, 2,
                   f"config.qubits[0] must be an integer >= 1 and <= {LIMIT}, not True"),
    "qubits-over-limit": (["exact"], {"model": "starobinsky", "qubits": [LIMIT + 1]}, 2,
                          f"config.qubits[0] must be an integer >= 1 and <= {LIMIT}, "
                          f"not {LIMIT + 1}"),
    "modes-over-limit": (["exact"], {"model": "dark_matter_1", "qubits": [LIMIT // 2 + 1] * 2}, 2,
                         f"dark_matter_1 on qubits {[LIMIT // 2 + 1] * 2} exceeds the limit of "
                         f"{LIMIT} qubits in total"),
    "starobinsky-2-modes": (["exact"], {"model": "starobinsky", "qubits": [2, 2]}, 2,
                            "starobinsky takes 1 equal qubit count(s), not [2, 2]"),
    # reps 127 is the largest (test_limits_accept_their_boundary)
    "reps-128": (["vqe"], {**DM1_8Q, "vqe": {"reps": 128}}, 2,
                 "config.vqe.reps 128 gives 2064 ansatz parameters on 8 qubits, "
                 "over the limit of 2048"),
    "params-over-limit": (["vqe"], {**DM1_8Q, "vqe": {"reps": 1000}}, 2,
                          "config.vqe.reps 1000 gives 16016 ansatz parameters on 8 qubits, "
                          "over the limit of 2048"),
    "steps-0": (["eoh"], {"eoh": {"steps": 0}}, 2,
                "config.eoh.steps must be an integer >= 1, not 0"),
    "order-3": (["eoh"], {"eoh": {"order": 3}}, 2, "config.eoh.order must be one of [1, 2], not 3"),
    "n_qubits-str": (["eoh"], {"eoh": {"n_qubits": "a"}}, 2,
                     f"config.eoh.n_qubits must be an integer >= 1 and <= {LIMIT}, not 'a'"),
    "n_qubits-over-limit": (["eoh"], {"eoh": {"n_qubits": LIMIT + 1}}, 2,
                            f"config.eoh.n_qubits must be an integer >= 1 and <= {LIMIT}, "
                            f"not {LIMIT + 1}"),
    "x0-index-8": (["eoh"], {"eoh": {"n_qubits": 3, "x0_index": 8}}, 2,
                   "config.eoh.x0_index must be an integer >= 0 and <= 7, not 8"),
    "tau-list-str": (["eoh"], {"eoh": {"tau_list": [0.0, "a"]}}, 2,
                     "config.eoh.tau_list[1] must be a finite number, not 'a'"),
    # 1024 times is the largest (test_limits_accept_their_boundary)
    "taus-1025": (["eoh"], {"eoh": {"tau_list": [0.0] * 1025}}, 2,
                  "config.eoh.tau_list has 1025 times, over the limit of 1024"),
    # numerical failures, found once the output directory is made
    "param-nan": (["exact"], {**STARO, "params": {"M2": 0}}, 1, "matrix has non-finite entries"),
    "param-zero-division": (["exact"], {"model": "dark_matter_1", "qubits": [1, 1],
                                        "params": {"a_scale": 0}}, 1, "float division by zero"),
    "gaussian-width-0": (["eoh"], {"eoh": {"kind": "double-well", "n_qubits": 3, "width": 0.0}}, 1,
                         "Gaussian with center -1.5 and width 0.0 has norm 0.0 on the grid"),
    "gaussian-off-grid": (["eoh"], {"eoh": {"kind": "double-well", "n_qubits": 3, "center": 1e3}},
                          1, "Gaussian with center 1000.0 and width 0.35 has norm 0.0 on the grid"),
    "tau-overflow": (["eoh"], {"eoh": {"n_qubits": 3, "tau_list": [1e308]}}, 1,
                     "phase max|w t| = inf at t = 1e+308 is above 1e+12"),
    # phases |w tau| of 3e302 and 3e301 rad: finite, but rounding moves them by many turns
    "phase-lambda-1e300": (["eoh"], {"eoh": {"kind": "double-well", "n_qubits": 3,
                                             "params": {"Lambda": 1e300}}}, 1,
                           "phase max|w t| = 2.96e+302 at t = 0.1 is above 1e+12"),
    "phase-tau-1e300": (["eoh"], {"eoh": {"tau_list": [-1e300]}}, 1,
                        "phase max|w t| = 1.6e+301 at t = -1e+300 is above 1e+12"),
    # a finite H whose Pauli transform overflows: refused before the threshold drops NaN terms
    "pauli-overflow": (["exact"], {"model": "starobinsky", "qubits": [4],
                                   "params": {"M1_4": 1.7e308}}, 1,
                       "a Pauli coefficient is not finite: the transform overflowed"),
    # the double well's v**2 is the float maximum, so its potential is inf - inf
    "double-well-v-volume-sqrt-max": (["eoh"], {"eoh": {"kind": "double-well", "params": {
                                          "v_volume": math.sqrt(sys.float_info.max)}}}, 1,
                                      "matrix has non-finite entries"),
    # Python float's v**2 raises OverflowError, whose own text is an errno tuple
    "minisuperspace-v-volume-max": (["exact"], {"model": "minisuperspace", "qubits": [3], "params": {
                                        "kind": "neg-lambda-morse", "v_volume": sys.float_info.max}},
                                    1, "a value overflowed the float range"),
    "double-well-p-phi-max": (["eoh"], {"eoh": {"kind": "double-well", "params": {
                                  "p_phi": sys.float_info.max}}}, 1,
                              "a value overflowed the float range"),
}

# the solvers a config error must come before
_SOLVERS = [(models, "build_model"), (vqe, "run_vqe"), (evolution, "interval_propagation_profile"),
            (evolution, "double_well_eoh")]


def refuse(tmp_path, argv, config, code, message, *, out="out", built=False):
    """Run ``argv`` in ``tmp_path``, assert the CLI's refusal contract and return its line.

    The refusal exits ``code`` with one stderr line, its kind's prefix then
    ``message``, and no traceback or warning. A config error (exit 2) leaves
    ``tmp_path`` as it found it, so the ``--out`` path is not made, and runs no
    solver unless ``built``. With ``code`` None any exit code is accepted: a
    success writes no traceback or warning and returns None, and a refusal is
    held to its own code's contract.
    """
    solved = []

    def watched(solver):
        def run_unless_refused(*args, **kwargs):
            solved.append(solver.__name__)
            # an expected config error stops here, before a missing check's work
            assert code != 2, "a config error must be raised before any solver runs"
            return solver(*args, **kwargs)
        return run_unless_refused

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.chdir(tmp_path)
        if config is not None:
            raw = config if isinstance(config, bytes) else json.dumps(config).encode()
            Path("cfg.json").write_bytes(raw)
            argv = [*argv, "--config", "cfg.json"]
        if out is not None and argv[0] != "reproduce":
            argv = [*argv, "--out", out]
        if not built:
            for module, name in _SOLVERS:
                mp.setattr(module, name, watched(getattr(module, name)))
        before = sorted(tmp_path.rglob("*"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            got = run(argv)
        assert got == code if code is not None else got in (0, 1, 2), err.getvalue()
    # outside pytest a warning would print more lines to stderr
    assert [str(w.message) for w in caught] == []
    if got == 0:
        assert "Traceback" not in err.getvalue(), err.getvalue()
        return None
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0], lines
    prefix = {1: "numerical failure: ", 2: "config error: "}[got]
    assert lines[0].startswith(prefix + message), lines[0]
    if got == 2:
        assert solved == [], f"config error after {solved}: {lines[0]}"
        assert sorted(tmp_path.rglob("*")) == before
    return lines[0]


@pytest.mark.parametrize("argv, config, code, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals(tmp_path, argv, config, code, message):
    refuse(tmp_path, argv, config, code, message)


# each dark-matter model and the other, whose couplings it does not read
_OTHER_DARK_MATTER = {"dark_matter_1": "dark_matter_2", "dark_matter_2": "dark_matter_1"}


def _float_edges():
    """Each model param (per minisuperspace kind) at +-the float maximum and +-its square root,
    on 4 qubits in total, with whether the model reads it: a dark-matter model also gets the
    couplings that only the other one reads."""
    big = sys.float_info.max
    for model, (_, _, modes) in models._MODELS.items():
        kinds = [k.value for k in models.MinisuperspaceKind] if model == "minisuperspace" else [None]
        read = [*models.params_schema(model)]
        other = _OTHER_DARK_MATTER.get(model)
        unread = [k for k in models.params_schema(other) if k not in read] if other else []
        for kind in kinds:
            for name in read + unread:
                for value in (big, -big, math.sqrt(big), -math.sqrt(big)):
                    params = {name: value} if kind is None else {name: value, "kind": kind}
                    yield pytest.param({"model": model, "qubits": [4 // modes] * modes,
                                        "params": params}, name in read,
                                       id=f"{kind or model}-{name}-{value:.3g}")


# Python's OverflowError text, "(34, 'Numerical result out of range')", names no value
_ERRNO_TUPLE = re.compile(r"\(\d+, '")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, read", _float_edges())
def test_float_edges_run_or_fail_cleanly(tmp_path, cfg, read):
    """With warnings as errors, exact and vqe (budget 5) exit 0 with finite values or exit 1
    with one numerical-failure line, and the library calls return finite values or raise.
    A param the model does not read is refused (exit 2) by both commands."""
    if not read:
        for command in ("exact", "vqe"):
            refuse(tmp_path, [command], cfg, 2,
                   f"unknown {cfg['model']} params keys: {[*cfg['params']]}")
        return
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for command, key in (("exact", "exact_ground"), ("vqe", "vqe")):
        out = tmp_path / command
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            got = run([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out),
                       *(["--budget", "5"] if command == "vqe" else [])])
        if got == 0:
            payload = read_json(out / f"{command}.json")
            assert all(math.isfinite(payload[k]) for k in (key, "exact_ground", "exact")
                       if k in payload)
        else:
            lines = err.getvalue().splitlines()
            assert got == 1 and len(lines) == 1 and lines[0].startswith("numerical failure: ")
            assert not _ERRNO_TUPLE.search(lines[0]), lines[0]
    try:
        h = models.build_model(cfg)[0]
    except (QcosmoError, ArithmeticError):
        return
    n = int(h.shape[0]).bit_length() - 1
    for call in (lambda: vqe.exact_ground(h), lambda: pauli.decompose(h).coeff,
                 lambda: vqe.run_vqe(h, AnsatzSpec(n, 1), vqe.OptimizerConfig(budget=5)).energy):
        try:
            assert np.isfinite(call()).all()
        except (QcosmoError, ArithmeticError):
            pass


# the keys of the eoh block of each kind
_EOH_KEYS = {kind: {**config._EOH_SCHEMA, **own} for kind, own in config._EOH_KINDS.items()}


def _eoh_float_edges():
    """Each float key of the eoh tables (tau_list as a one-entry list) and each double-well
    param at +-the float maximum and +-its square root, on both kinds at 3 qubits, with the
    block key that the kind does not read (None if it reads them all)."""
    big = sys.float_info.max
    tables = [config._EOH_SCHEMA, *config._EOH_KINDS.values()]
    floats = [k for table in tables for k, (_, t, _) in table.items() if t in (float, [float])]
    params = models.params_schema("minisuperspace")
    for kind, keys in _EOH_KEYS.items():
        for name in (*floats, *params):
            key = "params" if name in params else name
            for value in (big, -big, math.sqrt(big), -math.sqrt(big)):
                block = ({key: {name: value}} if key == "params"
                         else {name: [value] if name == "tau_list" else value})
                yield pytest.param({"eoh": {"kind": kind, "n_qubits": 3, **block}},
                                   None if key in keys else key, id=f"{kind}-{name}-{value:.3g}")


@pytest.mark.parametrize("cfg, unread", _eoh_float_edges())
def test_eoh_float_edges_run_or_fail_cleanly(tmp_path, cfg, unread):
    """eoh exits 0 with finite norms and deviations, or exits 1 with one numerical-failure line
    that names what failed; no warning either way. A key the kind does not read exits 2."""
    if unread:
        refuse(tmp_path, ["eoh"], cfg, 2, f"unknown config.eoh keys: [{unread!r}]")
        return
    line = refuse(tmp_path, ["eoh"], cfg, None, "")
    if line is None:
        payload = read_json(tmp_path / "out" / "eoh.json")
        assert all(math.isfinite(v) for k in ("norm", "deviation_vs_exact") for v in payload[k])
    else:
        assert line.startswith("numerical failure: ") and not _ERRNO_TUPLE.search(line), line


def test_limits_accept_their_boundary():
    assert config.check_run({**DM1_8Q, "vqe": {"reps": 127}})["vqe"]["reps"] == 127
    assert len(config.check_run({"eoh": {"tau_list": [0.0] * 1024}})["eoh"]["tau_list"]) == 1024


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("below", ["", "/x"], ids=["file", "below-file"])
@pytest.mark.parametrize("command, preset", [("exact", "table1"), ("vqe", "table1"),
                                             ("eoh", "fig13")])
def test_out_naming_a_file_is_refused(tmp_path, monkeypatch, command, preset, below, via_env):
    (tmp_path / "a-file").write_text("")
    out = "a-file" + below
    if via_env:
        monkeypatch.setenv("QCOSMO_OUT", out)
    refuse(tmp_path, [command, "--preset", preset], None, 2,
           f"cannot use output directory {out}: ", out=None if via_env else out)


def test_reproduce_unknown_id_names_every_table(tmp_path):
    line = refuse(tmp_path, ["reproduce", "table0"], None, 2,
                  "argument table: invalid choice: 'table0'")
    assert all(t in line for t in presets.REPRODUCE_TABLES)


def test_reproduce_unknown_quantity_is_refused(tmp_path, monkeypatch):
    # the bad row comes last: every row is checked before the first model is built
    table = {"provisional": False,
             "rows": [{"preset": "table1", "quantity": "exact_ground", "reference": 1.0},
                      {"preset": "tunneling", "quantity": "V_min", "reference": 1.0},
                      {"preset": "table1", "quantity": "bogus", "reference": 1.0}]}
    monkeypatch.setitem(presets.REPRODUCE_TABLES, "tableX", table)
    refuse(tmp_path, ["reproduce", "tableX"], None, 2, "unknown reproduce quantity 'bogus'")


def test_eoh_fig13(tmp_path):
    assert run(["eoh", "--preset", "fig13", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "eoh_profile.csv").read_text().splitlines()
    assert rows[0] == "tau,x_index,x_value,re_K,im_K,abs2_K"
    data = [r.split(",") for r in rows[1:]]
    by_tau = {}
    for tau, _idx, _x, _re, _im, a2 in data:
        by_tau.setdefault(float(tau), []).append(float(a2))
    for tau, weights in by_tau.items():
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    # tau = 0: a single unit row
    nonzero0 = [w for w in by_tau[0.0] if w > 1e-12]
    assert len(nonzero0) == 1 and nonzero0[0] == pytest.approx(1.0)
    payload = read_json(tmp_path / "eoh.json")
    assert all(n == pytest.approx(1.0, abs=1e-9) for n in payload["norm"])


def test_eoh_deviation_shrinks_with_steps(tmp_path):
    devs = {}
    for steps in (16, 32, 64):
        out = tmp_path / str(steps)
        assert run(["eoh", "--preset", "fig13", "--steps", str(steps), "--out", str(out)]) == 0
        payload = read_json(out / "eoh.json")
        devs[steps] = max(payload["deviation_vs_exact"])
    assert devs[64] < devs[32] < devs[16]


def test_eoh_flat_gaussian(tmp_path):
    # width**2 overflows a Python float; the Gaussian itself is flat and fine
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eoh": {"kind": "double-well", "n_qubits": 3, "width": 1e200}}))
    assert run(["eoh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "eoh.json")
    assert all(n == pytest.approx(1.0, abs=1e-9) for n in payload["norm"])


@pytest.mark.parametrize("kind", ["interval", "double-well"])
def test_eoh_profile_is_streamed_to_disk(tmp_path, kind):
    # the whole run peaks at 0.5-0.6 times the CSV's size here; a list of its lines
    # joined before writing peaked at about 4 times
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eoh": {"kind": kind, "n_qubits": 6,
                                       "tau_list": [0.01 * i for i in range(384)]}}))
    tracemalloc.start()
    try:
        assert run(["eoh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "eoh_profile.csv").stat().st_size


def test_csv_row_format_writes_the_bytes_of_fmt(tmp_path):
    rows = [(0, 0.0, -0.0), (np.int64(-7), np.nan, np.inf), (np.uint8(255), -np.inf, 1e-300),
            (2**63, np.float64(1 / 3), 5e-324), (np.int32(3), np.float64(-0.0), 1e300)]
    cli._write_csv(tmp_path / "t.csv", "i,a,b", "%d,%.17g,%.17g\n", iter(rows))
    want = "i,a,b\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("argv, name, int_columns", [
    (["vqe", "--preset", "table1", "--budget", "20"], "vqe_trace.csv", {0}),
    (["eoh", "--preset", "fig13"], "eoh_profile.csv", {1}),
])
def test_csv_fields_are_fmt_text(tmp_path, argv, name, int_columns):
    # each field is what _fmt writes for its value: 17 significant digits for a float
    assert run([*argv, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]
    assert rows
    for row in rows:
        values = [int(f) if j in int_columns else float(f) for j, f in enumerate(row)]
        assert list(map(cli._fmt, values)) == row


def test_preset_help_lists_presets(capsys):
    assert run(["exact", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert all(repr(name) in out for name in presets.PRESETS)
    assert "--list" not in out


# the rows the release gate asserts: whole tables, and the Table 4 term counts
_ASSERTED = {"table1", "table2", "tunneling", ("table4", "pauli_terms")}


@pytest.mark.parametrize("table", presets.REPRODUCE_TABLES)
def test_reproduce_verdicts(capsys, table):
    spec = presets.REPRODUCE_TABLES[table]
    assert run(["reproduce", table]) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = [line.split() for line in lines[3:]]
    assert len(cells) == len(spec["rows"])
    # every reference cell, the longest repr too, ends under the header's "reference"
    end = lines[1].index("reference") + len("reference")
    verdicts = []
    for line, row, (preset, quantity, reference, computed, *_, verdict) in zip(
            lines[3:], spec["rows"], cells):
        assert line[:end].endswith(" " + reference) and line[end] == " "
        assert (preset, quantity, float(reference)) == (
            row["preset"], row["quantity"], row["reference"])
        assert verdict == presets.verdict(row, float(computed))
        asserted = table in _ASSERTED or (table, quantity) in _ASSERTED
        assert verdict == ("match" if asserted else "reported")
        verdicts.append(verdict)
    assert spec["provisional"] == ("reported" in verdicts)
    assert lines[0].endswith(" (provisional reference values)") == spec["provisional"]


@pytest.mark.parametrize("rule, reference, edge, beyond", [
    (("abs", 0.25), 1.0, 1.25, math.inf),
    (("abs", 0.25), 1.0, 0.75, -math.inf),
    (("abs", 0), 7, 7, math.inf),
    (("rel", 0.25), -2.0, -2.5, -math.inf),  # relative to |reference|
    (("rel", 0.25), -2.0, -1.5, math.inf),
    (("factor", 2.0), 1.5, 3.0, math.inf),
    (("factor", 2.0), 1.5, 0.75, -math.inf),
])
def test_verdict_is_match_at_the_tolerance_and_differs_beyond(rule, reference, edge, beyond):
    row = {"preset": "p", "quantity": "q", "reference": reference, "rule": rule}
    assert presets.verdict(row, edge) == "match"
    assert presets.verdict(row, math.nextafter(edge, beyond)) == "differs"
    assert presets.verdict({**row, "rule": None}, edge) == "reported"


def test_reproduce_builds_each_preset_once(monkeypatch, capsys):
    calls = []
    build = models.build_model
    monkeypatch.setattr(models, "build_model", lambda cfg: calls.append(cfg) or build(cfg))
    assert run(["reproduce", "table4"]) == 0
    assert len(calls) == 3  # six rows, three presets
    assert capsys.readouterr().out.count("table4-") == 6


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("QCOSMO_OUT", str(tmp_path / "envout"))
    assert run(["exact", "--preset", "table1"]) == 0
    assert (tmp_path / "envout" / "exact.json").exists()


def test_qubit_and_basis_overrides(tmp_path):
    assert (
        run(
            [
                "exact",
                "--preset",
                "table2-4q",
                "--qubits",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    payload = read_json(tmp_path / "exact.json")
    assert payload["dim"] == 32
    reference = presets.reference_row("table2-5q", "exact_ground")["reference"]
    assert payload["exact_ground"] == pytest.approx(reference, rel=1e-5)


# the qcosmo modules that `import qcosmo.cli` loads, then the solvers each command adds
_CLI_MODULES = {"qcosmo", "qcosmo.bases", "qcosmo.circuits", "qcosmo.cli", "qcosmo.config",
                "qcosmo.errors", "qcosmo.models", "qcosmo.optimizers", "qcosmo.presets"}
_COMMAND_SOLVERS = {
    "import": ([], set()),
    "exact": (["exact", "--preset", "table1"], {"qcosmo.pauli", "qcosmo.vqe"}),
    "vqe": (["vqe", "--preset", "table1", "--budget", "5"], {"qcosmo.pauli", "qcosmo.vqe"}),
    "eoh": (["eoh", "--preset", "fig13"], {"qcosmo.evolution"}),
    "reproduce-table1": (["reproduce", "table1"], {"qcosmo.pauli", "qcosmo.vqe"}),
    "reproduce-tunneling": (["reproduce", "tunneling"], {"qcosmo.tunneling"}),
}


@pytest.mark.parametrize("argv, solvers", _COMMAND_SOLVERS.values(), ids=_COMMAND_SOLVERS)
def test_command_loads_only_its_solver(tmp_path, argv, solvers):
    """A fresh interpreter runs one command and loads its solver modules and no scipy."""
    if argv and argv[0] != "reproduce":
        argv = [*argv, "--out", str(tmp_path)]
    code = ("import sys, qcosmo.cli\n"
            f"assert not {argv!r} or qcosmo.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('qcosmo', 'scipy')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip().splitlines()[-1] == str(sorted(_CLI_MODULES | solvers))


def test_eoh_embeds_resolved_block(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eoh": {"n_qubits": 3}}))
    assert run(["eoh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    block = read_json(tmp_path / "eoh.json")["config"]["eoh"]
    assert block["x0_index"] == 4 and block["steps"] == 64 and block["kind"] == "interval"
    assert sorted(block) == sorted(_EOH_KEYS["interval"])


# Random configs stay small: at most 3 qubits per mode and a VQE budget of at
# most 20. Larger sizes appear only as counts the qubit limit refuses. Each
# config is valid apart from at most one key set to an arbitrary value.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2), st.just({"k": 1}),
    st.integers(LIMIT + 1, 10**6).map(lambda q: [q]),
)


def _blocks(schema, path=()):
    """(path, schema) of each block in a schema table, at any depth.

    A block with no schema of its own (None) is checked against the config it is in: a params
    block against its model's fields, the eoh block against its kind's keys.
    """
    for key, (_, kind, allowed) in schema.items():
        if kind is dict:
            yield (*path, key), allowed
            if allowed is not None:
                yield from _blocks(allowed, (*path, key))


# the run table and every block in it, each eoh kind's too, so a new key is fuzzed as soon
# as it is added
_MUTABLE = [None, ((), config._RUN_SCHEMA), *_blocks(config._RUN_SCHEMA),
            *(block for own in config._EOH_KINDS.values() for block in _blocks(own, ("eoh",)))]


@st.composite
def _small_configs(draw):
    """A valid config within the size caps."""
    model = draw(st.sampled_from(["starobinsky", "dark_energy_1r", "dark_energy_2r",
                                  "dark_matter_1", "dark_matter_2"]))
    q = draw(st.integers(1, 3))
    return {
        "model": model,
        "qubits": [q] if model in ("starobinsky", "dark_energy_1r") else [q, q],
        "basis": draw(st.sampled_from(["oscillator", "position", "fd"])),
        "vqe": {"budget": draw(st.integers(1, 20)), "reps": draw(st.integers(1, 2)),
                "optimizer": draw(st.sampled_from(["gradient-descent", "nelder-mead"])),
                "seed": draw(st.integers(0, 5))},
        "eoh": {"kind": draw(st.sampled_from(["interval", "double-well"])),
                "n_qubits": draw(st.integers(1, 3)), "steps": draw(st.integers(1, 4)),
                "tau_list": draw(st.lists(st.floats(-1, 1), max_size=2))},
    }


@st.composite
def _configs(draw):
    config = draw(_small_configs())
    mutation = draw(st.sampled_from(_MUTABLE))  # None: no change, a valid config
    if mutation is not None:
        path, schema = mutation
        outer = config
        for block in path[:-1]:
            outer = outer.setdefault(block, {})
        target = outer.setdefault(path[-1], {}) if path else config
        if path == ("eoh",):
            schema = _EOH_KEYS[target["kind"]]
        elif schema is None:
            schema = models.params_schema(outer["model"])
        key = draw(st.sampled_from([*schema, "bogus"]))
        # a zero M2, c, mu2 or a_scale divides by zero, and 1e100 overflows: exit 1
        edge = st.sampled_from([0.0, 1e100]) if path[-1:] == ("params",) else st.nothing()
        target[key] = draw(st.one_of(edge, _JUNK))
    return config


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["exact", "vqe", "eoh"]), config=_configs())
# numerical failures (exit 1), which the configs drawn at this seed do not reach
@example(command="exact", config={**STARO, "params": {"M2": 0.0}})
@example(command="eoh", config={"eoh": {"kind": "double-well", "n_qubits": 3, "width": 0.0}})
def test_random_configs_exit_cleanly(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        refuse(Path(tmp), [command], config, None, "")


# Random argv: a command, then up to three flags drawn from the cli table and one
# unknown flag, each with a valid value or junk, over a small valid config. Junk
# holds no decimal digit, so it never parses as a count: the sizes stay capped.
# A flag added to the table needs its valid values here, or the test fails.
_ARGV_VALUES = {
    "qubits": st.sampled_from(["1", "3", "2,2", "3,3", "9", "1,1,1", "0"]),
    "basis": st.sampled_from(["oscillator", "position", "fd"]),
    "seed": st.sampled_from(["0", "5", "-1"]),
    "optimizer": st.sampled_from(["gradient-descent", "nelder-mead", "cobyla"]),
    "budget": st.sampled_from(["1", "20", "0"]),
    "steps": st.sampled_from(["1", "4", "0"]),
    "order": st.sampled_from(["1", "2", "3"]),
    "bogus": st.just("1"),
}
_ARGV_JUNK = st.one_of(st.text(st.characters(exclude_categories=["Nd"]), max_size=4),
                       st.sampled_from(["", "-", "--", "-h5", "4,x", "1e3"]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["exact", "vqe", "eoh"]), config=_small_configs(),
       flags=st.lists(st.sampled_from([*cli._OVERRIDES, "bogus"]), max_size=3, unique=True),
       data=st.data())
def test_random_argv_exit_cleanly(command, config, flags, data):
    argv = [command]
    for flag in flags:
        argv += [f"--{flag}", data.draw(st.one_of(_ARGV_VALUES[flag], _ARGV_JUNK))]
    with tempfile.TemporaryDirectory() as tmp:
        refuse(Path(tmp), argv, config, None, "")
