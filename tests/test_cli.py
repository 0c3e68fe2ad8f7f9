import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcosmo import cli, config, evolution, models, presets, vqe


def run(argv):
    return cli.main(argv)


def read_json(path):
    return json.loads(path.read_text())


def test_exact_table1(tmp_path, capsys):
    assert run(["exact", "--preset", "table1", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact.json")
    assert payload["exact_ground"] == pytest.approx(0.49785652, abs=1e-6)
    assert payload["pauli_terms"] == 135
    assert payload["dim"] == 16
    assert payload["schema_version"] == 1
    assert payload["config"]["model"] == "starobinsky"


def test_exact_table4(tmp_path):
    assert run(["exact", "--preset", "table4-16", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact.json")
    assert payload["pauli_terms"] == 25
    assert np.isfinite(payload["exact_ground"])


# every model preset's Pauli term count, a figure that moves if the transform's rounding does
PAULI_TERMS = {"table1": 135, "table2-4q": 135, "table2-5q": 499, "table2-6q": 1541,
               "table3": 17801, "table4-16": 25, "table4-64": 361, "table4-256": 3025,
               "table5": 10609}


def test_pauli_terms_cover_every_model_preset():
    assert sorted(PAULI_TERMS) == sorted(n for n, cfg in presets.PRESETS.items() if "model" in cfg)


@pytest.mark.parametrize("preset, terms", PAULI_TERMS.items())
def test_exact_writes_pauli_terms(tmp_path, capsys, preset, terms):
    assert run(["exact", "--preset", preset, "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "exact.json")["pauli_terms"] == terms


_NO_OPTIONS = dict.fromkeys(["config", "preset", "seed", "out", "qubits", "basis", "optimizer",
                             "budget", "steps", "order"])


@pytest.mark.parametrize("argv, expected", [
    (["exact", "--config", "c.json", "--preset", "table1", "--seed", "3", "--out", "d",
      "--qubits", "4,4", "--basis", "fd", "--optimizer", "spsa", "--budget", "20",
      "--steps", "5", "--order", "2"],
     {"command": "exact", "fn": cli.cmd_exact, "config": "c.json", "preset": "table1",
      "seed": 3, "out": "d", "qubits": "4,4", "basis": "fd", "optimizer": "spsa",
      "budget": 20, "steps": 5, "order": 2}),
    (["vqe", "--budget=9", "--seed", "-1"],
     {**_NO_OPTIONS, "command": "vqe", "fn": cli.cmd_vqe, "budget": 9, "seed": -1}),
    (["eoh", "--preset", "fig13", "--steps", "7"],
     {**_NO_OPTIONS, "command": "eoh", "fn": cli.cmd_eoh, "preset": "fig13", "steps": 7}),
    (["reproduce", "table2"], {"command": "reproduce", "fn": cli.cmd_reproduce, "table": "table2"}),
], ids=["exact", "vqe", "eoh", "reproduce"])
def test_parser_namespaces(argv, expected):
    assert vars(cli.build_parser().parse_args(argv)) == expected


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["exact", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "starobinsky", "qubits": [2], "mystery": 1}))
    assert run(["exact", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


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


def test_deterministic_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "starobinsky",
                "qubits": [2],
                "vqe": {"reps": 1, "budget": 60, "seed": 5},
            }
        )
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["vqe", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["vqe", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "vqe.json").read_bytes() == (out2 / "vqe.json").read_bytes()
    # trace CSV identical apart from the wall-clock column
    strip = lambda p: [",".join(r.split(",")[:2]) for r in (p / "vqe_trace.csv").read_text().splitlines()]
    assert strip(out1) == strip(out2)


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


def test_eoh_double_well_preset(tmp_path):
    assert run(["eoh", "--preset", "fig16", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "eoh.json")
    assert all(n == pytest.approx(1.0, abs=1e-9) for n in payload["norm"])


def test_eoh_flat_gaussian(tmp_path):
    # width**2 overflows a Python float; the Gaussian itself is flat and fine
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eoh": {"kind": "double-well", "n_qubits": 3, "width": 1e200}}))
    assert run(["eoh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "eoh.json")
    assert all(n == pytest.approx(1.0, abs=1e-9) for n in payload["norm"])


def test_preset_help_lists_presets(capsys):
    assert run(["exact", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert all(repr(name) in out for name in presets.PRESETS)
    assert "--list" not in out


def test_reproduce_table2(capsys):
    assert run(["reproduce", "table2"]) == 0
    out = capsys.readouterr().out
    assert "0.43791588" in out and "match" in out


def test_reproduce_tunneling(capsys):
    assert run(["reproduce", "tunneling"]) == 0
    out = capsys.readouterr().out
    assert "S_E_over_4" in out and "1534.44" in out


def test_reproduce_unknown_id(capsys):
    assert run(["reproduce", "tableX"]) == 2
    err = capsys.readouterr().err
    assert "known" in err and "table1" in err


def test_reproduce_builds_each_preset_once(monkeypatch, capsys):
    calls = []
    build = models.build_model
    monkeypatch.setattr(models, "build_model", lambda cfg: calls.append(cfg) or build(cfg))
    assert run(["reproduce", "table4"]) == 0
    assert len(calls) == 3  # six rows, three presets
    assert capsys.readouterr().out.count("table4-") == 6


def test_reproduce_unknown_quantity(monkeypatch, capsys):
    table = {"provisional": False,
             "rows": [{"preset": "table1", "quantity": "bogus", "reference": 1.0}]}
    monkeypatch.setitem(presets.REPRODUCE_TABLES, "tableX", table)
    assert run(["reproduce", "tableX"]) == 2
    assert "unknown reproduce quantity 'bogus'" in capsys.readouterr().err


def test_removed_optimizer_names_key(tmp_path, capsys):
    argv = ["vqe", "--preset", "table1", "--optimizer", "cobyla", "--out", str(tmp_path)]
    assert run(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: config.vqe.optimizer must be one of")
    assert len(err.splitlines()) == 1 and not (tmp_path / "vqe.json").exists()


def test_dark_matter_2_fd_names_basis_before_building(tmp_path, capsys, monkeypatch):
    def unreachable(config):
        raise AssertionError("the config check should refuse the basis first")

    monkeypatch.setattr(models, "build_model", unreachable)
    assert run(["exact", "--preset", "table5", "--basis", "fd", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.basis") and len(err.splitlines()) == 1


def test_params_over_limit_names_reps_before_building(tmp_path, capsys, monkeypatch):
    # 8 qubits and two rotation kinds give 16 * (reps + 1) parameters: reps 127 is the largest
    base = {"model": "dark_matter_1", "qubits": [4, 4]}
    assert config.check_run({**base, "vqe": {"reps": 127}})["vqe"]["reps"] == 127

    def unreachable(spec):
        raise AssertionError("the config check should refuse the ansatz first")

    monkeypatch.setattr(vqe, "efficient_su2_ansatz", unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, "vqe": {"reps": 128}}))
    assert run(["vqe", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.vqe.reps 128 gives 2064") and len(err.splitlines()) == 1


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("QCOSMO_OUT", str(tmp_path / "envout"))
    assert run(["exact", "--preset", "table1"]) == 0
    assert (tmp_path / "envout" / "exact.json").exists()


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("below", ["", "x"], ids=["file", "below-file"])
@pytest.mark.parametrize("command, preset", [("exact", "table1"), ("vqe", "table1"),
                                             ("eoh", "fig13")])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                   command, preset, below, via_env):
    def unreachable(*args, **kwargs):
        raise AssertionError("the output directory should be refused first")

    for module, name in ((models, "build_model"), (vqe, "run_vqe"),
                         (evolution, "interval_propagation_profile")):
        monkeypatch.setattr(module, name, unreachable)
    target = tmp_path / "a-file"
    target.write_text("")
    out = target / below if below else target
    argv = [command, "--preset", preset]
    if via_env:
        monkeypatch.setenv("QCOSMO_OUT", str(out))
    else:
        argv += ["--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot use output directory {out}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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
    assert payload["exact_ground"] == pytest.approx(0.00285585, rel=1e-5)


LIMIT = models.MAX_QUBITS
STARO = {"model": "starobinsky", "qubits": [2]}


@pytest.mark.parametrize(
    "command, config, code",
    [
        pytest.param("vqe", {**STARO, "vqe": {"budget": "abc"}}, 2, id="budget-str"),
        pytest.param("exact", {**STARO, "params": {"M1_4": "x"}}, 2, id="param-str"),
        pytest.param("exact", {**STARO, "params": {"M2": 0}}, 1, id="param-nan"),
        pytest.param("exact", {"model": "dark_matter_1", "qubits": [1, 1],
                               "params": {"a_scale": 0}}, 1, id="param-zero-division"),
        pytest.param("vqe", {**STARO, "vqe": {"reps": 0}}, 2, id="reps-0"),
        pytest.param("vqe", {"model": "dark_matter_1", "qubits": [4, 4], "vqe": {"reps": 1000}}, 2,
                     id="params-over-limit"),
        pytest.param("vqe", {**STARO, "vqe": {"optimizer": "cobyla"}}, 2, id="optimizer-cobyla"),
        pytest.param("eoh", {"eoh": {"steps": 0}}, 2, id="steps-0"),
        pytest.param("exact", {"model": "starobinsky", "qubits": [True]}, 2, id="qubit-bool"),
        pytest.param("exact", {"model": "dark_matter_2", "qubits": [1, 1], "basis": "fd"}, 2,
                     id="dark-matter-2-fd"),
        pytest.param("eoh", {"eoh": {"n_qubits": "a"}}, 2, id="n_qubits-str"),
        pytest.param("vqe", {**STARO, "vqe": {"rotations": "ry"}}, 2, id="rotations-str"),
        pytest.param("vqe", {**STARO, "vqe": {"rotations": []}}, 2, id="rotations-empty"),
        pytest.param("eoh", {"eoh": {"kind": "double-well", "n_qubits": 3, "width": 0.0}}, 1,
                     id="gaussian-width-0"),
        pytest.param("eoh", {"eoh": {"kind": "double-well", "n_qubits": 3, "center": 1e3}}, 1,
                     id="gaussian-off-grid"),
        pytest.param("exact", {"model": "starobinsky", "qubits": [LIMIT + 1]}, 2,
                     id="qubits-over-limit"),
        pytest.param("exact", {"model": "dark_matter_1", "qubits": [LIMIT // 2 + 1] * 2}, 2,
                     id="modes-over-limit"),
        pytest.param("eoh", {"eoh": {"n_qubits": LIMIT + 1}}, 2, id="n_qubits-over-limit"),
        pytest.param("exact", {**STARO, "out": "elsewhere"}, 2, id="out-key"),
        pytest.param("exact", {**STARO, "seed": 1}, 2, id="seed-key"),
        pytest.param("eoh", {"eoh": {"kind": "double-well", "params": {"kind": "morse-s2"}}},
                     2, id="eoh-params-kind"),
        pytest.param("eoh", {"eoh": {"n_qubits": 3, "tau_list": [1e308]}}, 1, id="tau-overflow"),
    ],
)
def test_exit_codes(tmp_path, capsys, recwarn, command, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # outside pytest a warning would print more lines to stderr
    assert [str(w.message) for w in recwarn] == []


def test_empty_rotations_message_names_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**STARO, "vqe": {"rotations": []}}))
    assert run(["vqe", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config.vqe.rotations" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_integrate():
    """Importing the CLI loads no scipy module at all, so scipy.integrate neither."""
    code = ("import sys, qcosmo.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_eoh_embeds_resolved_block(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eoh": {"n_qubits": 3}}))
    assert run(["eoh", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    block = read_json(tmp_path / "eoh.json")["config"]["eoh"]
    assert block["x0_index"] == 4 and block["steps"] == 64 and block["kind"] == "interval"


# Random configs stay small: at most 3 qubits per mode and a VQE budget of at
# most 20. Larger sizes appear only as counts the qubit limit refuses. Each
# config is valid apart from at most one key set to an arbitrary value.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2), st.just({"k": 1}),
    st.integers(LIMIT + 1, 10**6).map(lambda q: [q]),
)
_MUTABLE = (
    [None]  # no change, a valid config
    # a zero M2, c, mu2 or a_scale divides by zero, and 1e100 overflows: exit 1
    + [("params", k) for k in ("M2", "c", "mu2", "a_scale", "g_X", "kind", "bogus")]
    + [(None, k) for k in ("model", "qubits", "basis", "params", "vqe", "eoh", "out", "seed")]
    + [("vqe", k) for k in ("reps", "rotations", "optimizer", "budget", "tol", "seed", "bogus")]
    + [("eoh", k) for k in ("kind", "n_qubits", "x0_index", "tau_list", "steps", "order",
                            "center", "width", "params")]
)


@st.composite
def _configs(draw):
    model = draw(st.sampled_from(["starobinsky", "dark_energy_1r", "dark_energy_2r",
                                  "dark_matter_1", "dark_matter_2"]))
    q = draw(st.integers(1, 3))
    config = {
        "model": model,
        "qubits": [q] if model in models.SINGLE_FIELD_POTENTIALS else [q, q],
        "basis": draw(st.sampled_from(["oscillator", "position", "fd"])),
        "vqe": {"budget": draw(st.integers(1, 20)), "reps": draw(st.integers(1, 2)),
                "optimizer": draw(st.sampled_from(["gradient-descent", "nelder-mead"])),
                "seed": draw(st.integers(0, 5))},
        "eoh": {"kind": draw(st.sampled_from(["interval", "double-well"])),
                "n_qubits": draw(st.integers(1, 3)), "steps": draw(st.integers(1, 4)),
                "tau_list": draw(st.lists(st.floats(-1, 1), max_size=2))},
    }
    mutation = draw(st.sampled_from(_MUTABLE))
    if mutation is not None:
        block, key = mutation
        edge = st.sampled_from([0.0, 1e100]) if block == "params" else st.nothing()
        target = config if block is None else config.setdefault(block, {})
        target[key] = draw(st.one_of(edge, _JUNK))
    return config


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["exact", "vqe", "eoh"]), config=_configs())
def test_random_configs_exit_cleanly(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([command, "--config", str(cfg), "--out", tmp])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
