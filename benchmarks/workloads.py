"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload is a closed loop from one client: the harness runs one
operation at a time and starts the next when the previous one has returned.
An operation returns a result that its check then inspects; the time of the
check is not part of the operation's time. ``README.md`` in this directory
says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

REL_TOL_EXACT = 1e-10     # exact.json / vqe.json ground against an eigh of the same model
VARIATIONAL_SLACK = 1e-9  # every VQE trace energy stays >= exact ground - this
NORM_TOL = 1e-9           # |sum |K|^2 - 1| of every propagated profile
PAULI_EXPECT_TOL = 1e-9   # PauliSum expectation against the dense value (relative)
# Pauli term counts with a published, non-provisional value
PAULI_COUNTS = {"table1": 135, "table4-16": 25, "table4-64": 361, "table4-256": 3025}


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    kind: str                      # groups operation times, e.g. one CLI command
    run: Callable[["Context"], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """What an operation needs from the harness."""

    work: Path                     # scratch directory inside the checkout
    tracer: object = None          # a tracer.Tracer during traced passes
    op: int = 0                    # id of the running operation


def build_dense(preset: str) -> np.ndarray:
    from qcosmo import models, presets

    cfg = presets.get_preset(preset)
    h, _ = models.build_model({k: cfg[k] for k in ("model", "params", "qubits", "basis")})
    return h


def exact_ground(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


class _Workload:
    name = ""
    cli = False

    def __init__(self, seed: int):
        self.seed = seed
        self._first: dict[str, object] = {}

    def same_as_first(self, key: str, value) -> None:
        """Repeated operations must give identical output."""
        first = self._first.setdefault(key, value)
        require(value == first, f"{key}: output differs from its first run")

    def setup_argv(self) -> list[str]:
        """A child process whose wall time is one set-up sample."""
        return [sys.executable, str(BENCH / "run.py"), "--workload", self.name,
                "--seed", str(self.seed), "--setup-only"]


# ---------------------------------------------------------------------------
# CLI workloads

@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def run_cli(ctx: Context, args: list[str]) -> CliResult:
    """Run one ``qcosmo`` command in this process, as ``qcosmo.cli.main(args)``.

    The interpreter start and ``import qcosmo.cli`` that a shell command adds
    are what ``setup_s`` measures. A traced pass records a ``cli.main`` span.
    """
    from qcosmo import cli

    main = cli.main
    if ctx.tracer is not None:
        main = ctx.tracer.wrap("cli.main", main, lambda a, k, r: {"command": a[0][0]})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    proc = CliResult(code, out.getvalue(), err.getvalue())
    require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    require("Traceback" not in proc.stderr, f"traceback on stderr: {proc.stderr[-400:]}")
    return proc


class Cli(_Workload):
    """``qcosmo`` commands, as a user's batch would run them.

    ``exact`` on all nine model presets, two ``eoh`` figures, all six
    ``reproduce`` tables, and ``vqe`` on three qubit counts at one budget.
    The seed picks the VQE seeds; every other command runs a fixed preset.
    """

    name = "cli"
    cli = True
    EXACT = ("table1", "table2-4q", "table2-5q", "table2-6q", "table3",
             "table4-16", "table4-64", "table4-256", "table5")
    EOH = ("fig13", "fig16")
    TABLES = ("table1", "table2", "table3", "table4", "table5", "tunneling")
    VQE = ("table1", "table2-6q", "table4-256")
    BUDGET = 200

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.vqe_seeds = {p: rng.randrange(1, 2**31) for p in self.VQE}
        self.gaps: dict[str, float] = {}
        self.deviation: dict[str, float] = {}
        self.terms: dict[str, int] = {}

    def setup(self):
        import qcosmo.cli  # noqa: F401

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", "import qcosmo.cli"]

    def prepare(self):
        from qcosmo import presets

        self.tables = presets.REPRODUCE_TABLES
        self.ground = {p: exact_ground(build_dense(p)) for p in self.EXACT}

    def operations(self):
        ops = [Op(f"exact {p}", "exact", self._exact(p), self._check_exact(p)) for p in self.EXACT]
        ops += [Op(f"eoh {f}", "eoh", self._eoh(f), self._check_eoh(f)) for f in self.EOH]
        ops += [Op(f"reproduce {t}", "reproduce", self._reproduce(t), self._check_reproduce(t))
                for t in self.TABLES]
        ops += [Op(f"vqe {p}", "vqe", self._vqe(p), self._check_vqe(p)) for p in self.VQE]
        return ops

    def _vqe(self, preset):
        def run(ctx):
            out = ctx.work / f"vqe-{preset}"
            run_cli(ctx, ["vqe", "--preset", preset, "--budget", str(self.BUDGET),
                          "--seed", str(self.vqe_seeds[preset]), "--out", str(out)])
            return (out / "vqe.json").read_bytes(), (out / "vqe_trace.csv").read_text()
        return run

    def _check_vqe(self, preset):
        def check(result):
            payload, trace = result
            data = json.loads(payload)
            exact = data["exact"]
            require(close(exact, self.ground[preset], REL_TOL_EXACT),
                    f"{preset}: exact {exact!r} != eigh {self.ground[preset]!r}")
            energies = [float(line.split(",")[1]) for line in trace.splitlines()[1:]]
            require(len(energies) == data["n_evals"] <= self.BUDGET,
                    f"{preset}: {len(energies)} trace rows for {data['n_evals']} evals")
            require(min(energies) >= exact - VARIATIONAL_SLACK,
                    f"{preset}: trace energy {min(energies)!r} below exact {exact!r}")
            require(energies[-1] == data["vqe"], f"{preset}: trace does not end at the result")
            self.same_as_first(f"vqe.json {preset}", payload)
            self.gaps[preset] = (data["vqe"] - exact) / max(1.0, abs(exact))
        return check

    def _exact(self, preset):
        def run(ctx):
            out = ctx.work / f"exact-{preset}"
            run_cli(ctx, ["exact", "--preset", preset, "--out", str(out)])
            return (out / "exact.json").read_bytes()
        return run

    def _check_exact(self, preset):
        def check(payload):
            data = json.loads(payload)
            require(close(data["exact_ground"], self.ground[preset], REL_TOL_EXACT),
                    f"{preset}: exact {data['exact_ground']!r} != eigh {self.ground[preset]!r}")
            if preset in PAULI_COUNTS:
                require(data["pauli_terms"] == PAULI_COUNTS[preset],
                        f"{preset}: {data['pauli_terms']} Pauli terms, "
                        f"expected {PAULI_COUNTS[preset]}")
            self.terms[preset] = data["pauli_terms"]
            self.same_as_first(f"exact.json {preset}", payload)
        return check

    def _eoh(self, figure):
        def run(ctx):
            out = ctx.work / f"eoh-{figure}"
            run_cli(ctx, ["eoh", "--preset", figure, "--out", str(out)])
            return (out / "eoh.json").read_bytes()
        return run

    def _check_eoh(self, figure):
        def check(payload):
            data = json.loads(payload)
            require(all(abs(n - 1.0) <= NORM_TOL for n in data["norm"]),
                    f"{figure}: profile norms {data['norm']}")
            deviations = data["deviation_vs_exact"]
            require(all(math.isfinite(d) and d >= 0 for d in deviations),
                    f"{figure}: deviations {deviations}")
            self.same_as_first(f"eoh.json {figure}", payload)
            self.deviation[figure] = max(deviations)
        return check

    def _reproduce(self, table):
        def run(ctx):
            return run_cli(ctx, ["reproduce", table]).stdout
        return run

    def _check_reproduce(self, table):
        spec = self.tables[table]

        def check(stdout):
            lines = stdout.splitlines()
            rows = [line.split() for line in lines[3:] if line.strip()]
            require(len(rows) == len(spec["rows"]), f"reproduce {table}: {len(rows)} rows")
            for row, ref in zip(rows, spec["rows"]):
                preset, quantity, computed, verdict = row[0], row[1], float(row[3]), row[-1]
                require(preset == ref["preset"] and quantity == ref["quantity"],
                        f"reproduce {table}: unexpected row {row}")
                if quantity == "exact_ground":
                    require(close(computed, self.ground[preset], REL_TOL_EXACT),
                            f"reproduce {table}: {preset} ground {computed!r}")
                elif quantity == "pauli_terms":
                    expected = PAULI_COUNTS.get(preset, self.terms.get(preset))
                    require(computed == expected,
                            f"reproduce {table}: {preset} has {computed} terms, not {expected}")
                if not spec["provisional"]:
                    require(verdict == "match", f"reproduce {table}: {preset} {quantity} differs")
            self.same_as_first(f"reproduce {table}", stdout)
        return check

    def quality(self):
        return {"vqe_gap": statistics.median(self.gaps.values()), "gaps": dict(self.gaps),
                "eoh_deviation": max(self.deviation.values())}


# ---------------------------------------------------------------------------
# library workloads

class PauliOps(_Workload):
    """Pauli round trips, ``pauli.expectation`` on seeded states and PauliSum VQE."""

    name = "pauli-ops"
    ROUND_TRIP = ("table3", "table4-256", "table5")
    EXPECT = ("table1", "table2-6q", "table5")     # 4, 6 and 8 qubits
    VQE = ("table1", "table2-6q")
    BUDGET = 10

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.vqe_seeds = {p: rng.randrange(1, 2**31) for p in self.VQE}
        self.gaps: dict[str, float] = {}

    def setup(self):
        """Import plus the operators the workload uses."""
        from qcosmo import circuits, pauli

        names = sorted(set(self.ROUND_TRIP + self.EXPECT + self.VQE))
        self.dense = {p: build_dense(p) for p in names}
        self.sums = {p: pauli.decompose(self.dense[p]) for p in set(self.EXPECT + self.VQE)}
        rng = np.random.default_rng(self.seed)
        self.states = {}
        for p in self.EXPECT:
            circuit = circuits.efficient_su2_ansatz(self._spec(p))
            theta = rng.uniform(-np.pi, np.pi, circuit.n_params)
            self.states[p] = circuits.apply_circuit(circuit, theta)

    def _spec(self, preset):
        from qcosmo import circuits

        n = self.dense[preset].shape[0].bit_length() - 1
        return circuits.AnsatzSpec(n_qubits=n, reps=5 if n == 8 else 3)

    def prepare(self):
        from qcosmo import circuits

        self.setup()
        self.dense_value = {p: circuits.expectation_dense(self.dense[p], self.states[p])
                            for p in self.EXPECT}
        self.ground = {p: exact_ground(self.dense[p]) for p in self.VQE}

    def operations(self):
        ops = [Op(f"round trip {p}", "round_trip", self._round_trip(p),
                  self._check_round_trip(p)) for p in self.ROUND_TRIP]
        ops += [Op(f"expectation {p}", "expectation", self._expect(p), self._check_expect(p))
                for p in self.EXPECT]
        ops += [Op(f"vqe pauli {p}", "vqe", self._vqe(p), self._check_vqe(p)) for p in self.VQE]
        return ops

    def _round_trip(self, preset):
        from qcosmo import pauli

        def run(ctx):
            s = pauli.decompose(self.dense[preset])
            return len(s), pauli.reconstruct(s)
        return run

    def _check_round_trip(self, preset):
        h = self.dense[preset]

        def check(result):
            n_terms, back = result
            err = float(np.max(np.abs(back - h)))
            require(err <= 1e-9 * max(1.0, float(np.max(np.abs(h)))),
                    f"{preset}: reconstruct(decompose(H)) off by {err:.3e}")
            if preset in PAULI_COUNTS:
                require(n_terms == PAULI_COUNTS[preset], f"{preset}: {n_terms} Pauli terms")
            self.same_as_first(f"terms {preset}", n_terms)
        return check

    def _expect(self, preset):
        from qcosmo import pauli

        def run(ctx):
            return pauli.expectation(self.sums[preset], self.states[preset])
        return run

    def _check_expect(self, preset):
        def check(value):
            ref = self.dense_value[preset]
            require(close(value, ref, PAULI_EXPECT_TOL),
                    f"{preset}: PauliSum expectation {value!r} vs dense {ref!r}")
            self.same_as_first(f"expectation {preset}", value)
        return check

    def _vqe(self, preset):
        from qcosmo import vqe

        def run(ctx):
            opt = vqe.OptimizerConfig(budget=self.BUDGET, seed=self.vqe_seeds[preset])
            return vqe.run_vqe(self.sums[preset], self._spec(preset), opt)
        return run

    def _check_vqe(self, preset):
        def check(result):
            exact = self.ground[preset]
            lowest = min(energy for _, energy in result.trace)
            require(lowest >= exact - VARIATIONAL_SLACK,
                    f"{preset}: trace energy {lowest!r} below exact {exact!r}")
            require(result.n_evals <= self.BUDGET, f"{preset}: {result.n_evals} evaluations")
            self.same_as_first(f"vqe {preset}", result.energy)
            self.gaps[preset] = (result.energy - exact) / max(1.0, abs(exact))
        return check

    def quality(self):
        return {"vqe_gap": statistics.median(self.gaps.values()), "gaps": dict(self.gaps)}


class Propagation(_Workload):
    """256-point Trotter profiles against exact evolution, seeded Wheeler-DeWitt
    quadratures, a Friedmann integration and a tunneling report."""

    name = "propagation"
    N_QUBITS = 8
    INTERVAL = {"tau": (0.0, 0.05, 0.1, 0.2), "x0": 128, "steps": 64}
    DOUBLE_WELL = {"tau": (0.0, 0.5, 1.0, 2.0), "center": -1.5, "width": 0.35, "steps": 128,
                   "params": {"Lambda": -0.5, "k_curv": -2.5, "v_volume": 1.0}}
    FRIEDMANN = {"initial": (1.0, -10.0, 0.0), "t_span": (0.0, 120.0), "dt": 0.01}

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.greens = []
        for branch in ("space", "space", "time", "time"):
            a = rng.uniform(-1.0, 1.0)
            b = math.copysign(abs(a) + rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
            t, x = (a, b) if branch == "space" else (b, a)
            self.greens.append((t, x, rng.uniform(0.5, 2.0)))
        self.k0_points = [rng.uniform(0.2, 5.0) for _ in range(3)]
        self.kinu_points = [(rng.uniform(0.0, 3.0), rng.uniform(0.2, 5.0)) for _ in range(3)]
        self.deviation: dict[str, float] = {}

    def setup(self):
        """Import plus the operators the workload uses."""
        from qcosmo import evolution, models
        from qcosmo.bases import BasisKind, build_momentum_squared

        n = self.N_QUBITS
        self.h_free = evolution.free_interval_hamiltonian(n)
        self.psi_free = np.zeros(2**n, dtype=complex)
        self.psi_free[self.INTERVAL["x0"]] = 1.0
        dw = self.DOUBLE_WELL
        self.dw_params, _ = models.params_from_dict(
            "minisuperspace", {**dw["params"], "kind": "neg-lambda-morse"})
        grid = evolution.fd_grid(n)
        v = self.dw_params.volume(models.MinisuperspaceKind.NEG_LAMBDA_MORSE)
        pot = 2.0 * v**2 * self.dw_params.k_curv * grid**2 - 2.0 * v**2 * self.dw_params.Lambda * grid**4
        self.h_dw = (build_momentum_squared(BasisKind.FINITE_DIFFERENCE, 2**n) / 2.0
                     + np.diag(pot.astype(complex)))
        self.psi_dw = evolution.gaussian_on_grid(grid, dw["center"], dw["width"])
        self.staro = models.StarobinskyParams()
        self.de_potential = models.dark_energy_potential(models.DarkEnergySingleRadiusParams())

    def prepare(self):
        from qcosmo import presets

        self.setup()
        self.tunneling_refs = {row["quantity"]: row["reference"]
                               for row in presets.REPRODUCE_TABLES["tunneling"]["rows"]}

    def operations(self):
        ops = [
            Op("interval profile", "profile", self._interval, self._check_profile("interval")),
            Op("double-well profile", "profile", self._double_well,
               self._check_profile("double-well")),
        ]
        ops += [Op(f"greens {i}", "wdw", self._greens(p), self._check_greens(p))
                for i, p in enumerate(self.greens)]
        ops += [Op(f"k0 {i}", "wdw", self._k0(x), self._check_k0(x))
                for i, x in enumerate(self.k0_points)]
        ops += [Op(f"k_inu {i}", "wdw", self._kinu(p), self._check_kinu(p))
                for i, p in enumerate(self.kinu_points)]
        ops += [Op("friedmann", "friedmann", self._friedmann, self._check_friedmann),
                Op("tunneling", "tunneling", self._tunneling, self._check_tunneling)]
        return ops

    def _interval(self, ctx):
        from qcosmo import evolution

        cfg = self.INTERVAL
        profiles = evolution.interval_propagation_profile(
            self.N_QUBITS, list(cfg["tau"]), cfg["x0"], steps=cfg["steps"], order=2)
        exact = [evolution.exact_evolve(self.h_free, t, self.psi_free) for t in cfg["tau"]]
        return profiles, exact

    def _double_well(self, ctx):
        from qcosmo import evolution

        cfg = self.DOUBLE_WELL
        profiles = evolution.double_well_eoh(
            self.dw_params, self.N_QUBITS, list(cfg["tau"]), cfg["center"], cfg["width"],
            steps=cfg["steps"], order=2)
        exact = [evolution.exact_evolve(self.h_dw, t, self.psi_dw) for t in cfg["tau"]]
        return profiles, exact

    def _check_profile(self, label):
        def check(result):
            profiles, exact = result
            norms = [float(np.sum(p.squared)) for p in profiles]
            require(all(abs(n - 1.0) <= NORM_TOL for n in norms), f"{label}: norms {norms}")
            deviation = max(float(np.max(np.abs(np.abs(e) ** 2 - p.squared)))
                            for e, p in zip(exact, profiles))
            require(math.isfinite(deviation), f"{label}: deviation {deviation}")
            self.same_as_first(f"{label} deviation", deviation)
            self.deviation[label] = deviation
        return check

    def _greens(self, point):
        from qcosmo import wdw

        return lambda ctx: wdw.flat_greens_quadrature(*point)

    def _check_greens(self, point):
        from scipy import special

        t, x, lam = point
        sigma_sq = x * x - t * t

        def check(value):
            if sigma_sq > 0:
                ref = special.k0(math.sqrt(lam * sigma_sq)) / (2.0 * math.pi)
                ok = abs(value.imag) <= 1e-10 and abs(value.real - ref) <= 2e-3 * ref
            else:
                ref = -0.25j * special.hankel2(0, math.sqrt(-lam * sigma_sq))
                ok = abs(value - ref) <= 1e-5 * abs(ref)
            require(ok, f"greens{point}: {value!r} vs closed form {ref!r}")
        return check

    def _k0(self, x):
        from qcosmo import wdw

        return lambda ctx: wdw.bessel_k0(x)

    def _check_k0(self, x):
        from scipy import special

        def check(value):
            ref = float(special.k0(x))
            require(abs(value - ref) <= 1e-9 * ref, f"bessel_k0({x}) = {value!r}, scipy {ref!r}")
        return check

    def _kinu(self, point):
        from qcosmo import wdw

        return lambda ctx: wdw.bessel_k_imag_order(*point)

    def _check_kinu(self, point):
        from scipy import special

        nu, x = point
        k0 = float(special.k0(x))
        try:
            import mpmath
        except ImportError:
            ref = None
        else:
            ref = float(mpmath.besselk(1j * nu, x).real)

        def check(value):
            require(abs(value) <= k0 + 1e-12, f"|K_i{nu}({x})| = {abs(value)!r} exceeds K0")
            if ref is not None:
                require(abs(value - ref) <= 1e-8 * k0, f"K_i{nu}({x}) = {value!r}, mpmath {ref!r}")
        return check

    def _friedmann(self, ctx):
        from qcosmo import models

        cfg = self.FRIEDMANN
        return models.friedmann_evolve(
            models.starobinsky_potential(self.staro), cfg["initial"], t_span=cfg["t_span"],
            dt=cfg["dt"], dpotential=models.starobinsky_potential_deriv(self.staro))

    def _check_friedmann(self, traj):
        require(np.all(np.isfinite(traj.a)) and np.all(np.diff(traj.a) > 0),
                "Friedmann scale factor is not finite and growing")
        require(traj.max_constraint_residual <= 1e-6,
                f"Friedmann constraint residual {traj.max_constraint_residual:.3e}")
        self.same_as_first("friedmann", float(traj.a[-1]))

    def _tunneling(self, ctx):
        from qcosmo import tunneling

        return tunneling.report(self.de_potential, 5.0)

    def _check_tunneling(self, report):
        for quantity, ref in self.tunneling_refs.items():
            require(abs(report[quantity] - ref) <= 1e-3 * abs(ref),
                    f"tunneling {quantity} = {report[quantity]!r}, reference {ref!r}")
        self.same_as_first("tunneling", report)

    def quality(self):
        return {"eoh_deviation": max(self.deviation.values())}


WORKLOADS = {w.name: w for w in (Cli, PauliOps, Propagation)}
