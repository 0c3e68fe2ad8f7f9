"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured numbers (run with -s to see them all).

Criteria 1, 2, 3a, 4 and 6 read their references and rules from
``presets.REPRODUCE_TABLES``, the table that ``reproduce`` prints: a row is
asserted when ``presets.verdict`` calls it ``match``, and a row without a rule
is only reported.

Criterion 3 checks the conformally coupled dark-matter model (model one).
Its Pauli-term counts (3a), which fingerprint the operator structure, match
the Table 4 references. Its exact grounds (3b) are asserted against an
independent Fourier-grid discretisation and the variational bound set by the
two-mode vacuum; the Table 4 reference energies lie above that bound, depend
on couplings that have no published value, and are only reported (see the
README's "Known caveat").
"""

import math
import time

import numpy as np

from qcosmo import evolution, models, pauli, presets, tunneling, vqe, wdw
from qcosmo.bases import BasisKind
from qcosmo.circuits import AnsatzSpec
from qcosmo.vqe import OptimizerConfig, OptimizerKind


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def judge(preset, quantity, value):
    """Whether the table's rule calls ``value`` a match, and the row's reference and rule."""
    row = presets.reference_row(preset, quantity)
    kind, tol = row["rule"]
    return presets.verdict(row, value) == "match", f"ref {row['reference']}, {kind} {tol}"


# ---------------------------------------------------------------------------
# 1. inflaton benchmark

def test_criterion_1_starobinsky():
    t0 = time.perf_counter()
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    ground = vqe.exact_ground(h)
    n_terms = len(pauli.decompose(h))
    elapsed = time.perf_counter() - t0
    ground_ok, ground_ref = judge("table1", "exact_ground", ground)
    terms_ok, terms_ref = judge("table1", "pauli_terms", n_terms)
    report(
        "criterion 1 (16x16 inflaton)",
        ground_ok and terms_ok and elapsed < 1.0,
        f"ground {ground:.8f} ({ground_ref}), terms {n_terms} ({terms_ref}), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. single-radius dark energy

def test_criterion_2_dark_energy_grounds():
    t0 = time.perf_counter()
    params = models.DarkEnergySingleRadiusParams()
    grounds = {}
    spectra = {}
    for n_qubits in (4, 5, 6):
        h = models.dark_energy_single_radius(params, n_qubits)
        w = np.linalg.eigvalsh(h)
        grounds[n_qubits] = w[0]
        spectra[n_qubits] = w[:6]
    elapsed = time.perf_counter() - t0

    judged = [judge(f"table2-{n}q", "exact_ground", grounds[n]) for n in (4, 5, 6)]
    checks = [ok for ok, _ in judged] + [elapsed < 5.0]
    if not all(checks):
        for n_qubits, w in spectra.items():
            print(f"  {2**n_qubits}x{2**n_qubits} lowest eigenvalues: {w}")
    report(
        "criterion 2 (dark energy 16/32/64)",
        all(checks),
        f"grounds {grounds[4]:.8f}/{grounds[5]:.8f}/{grounds[6]:.3e} "
        f"({'; '.join(ref for _, ref in judged)}), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. dark matter model one

def test_criterion_3_pauli_counts():
    t0 = time.perf_counter()
    counts, judged = [], []
    for row in presets.REPRODUCE_TABLES["table4"]["rows"]:
        if row["quantity"] == "pauli_terms":
            qpm = presets.get_preset(row["preset"])["qubits"][0]
            h = models.dark_matter_model_one(models.DarkMatterParams(), qpm)
            counts.append(len(pauli.decompose(h)))
            judged.append(judge(row["preset"], "pauli_terms", counts[-1]))
    elapsed = time.perf_counter() - t0
    ok = len(counts) == 3 and all(ok for ok, _ in judged) and elapsed < 30.0
    report(
        "criterion 3a (model-one Pauli counts)",
        ok,
        f"counts {'/'.join(map(str, counts))} ({'; '.join(ref for _, ref in judged)}), {elapsed:.2f}s",
    )


def test_criterion_3_exact_grounds():
    """Model-one exact grounds, asserted at the stated 1e-6 tolerance.

    For 2, 3 and 4 qubits per mode the ground lies at or below H[0, 0], the
    energy of the product of the two mode vacua (the variational bound), and
    the 3- and 4-qubit grounds agree (the truncation has converged). The
    4-qubit ground is checked against an independent discretisation, the
    Fourier-grid basis (diagonal x, p through ``fourier_matrix`` rather than
    ladder operators), and pinned at 1.00789148, the value both bases give; a
    changed coupling or prefactor moves both bases and so fails the pin.

    The Table 4 references in ``presets.REPRODUCE_TABLES`` are provisional:
    they depend on couplings that have no published value, and all three lie
    above H[0, 0] = 1.0080625, so no ground of this Hamiltonian can equal
    them. They are printed with their gaps but not asserted.
    """
    t0 = time.perf_counter()
    params = models.DarkMatterParams()
    grounds = {}
    below_vacuum = True
    for qpm in (2, 3, 4):
        h = models.dark_matter_model_one(params, qpm)
        grounds[qpm] = vqe.exact_ground(h)
        below_vacuum = below_vacuum and grounds[qpm] <= h[0, 0].real
    grid = vqe.exact_ground(models.dark_matter_model_one(params, 4, BasisKind.POSITION))
    elapsed = time.perf_counter() - t0

    refs = {
        presets.get_preset(row["preset"])["qubits"][0]: row["reference"]
        for row in presets.REPRODUCE_TABLES["table4"]["rows"]
        if row["quantity"] == "exact_ground"
    }
    ok = (
        below_vacuum
        and abs(grounds[3] - grounds[4]) <= 1e-6
        and abs(grounds[4] - grid) <= 1e-6
        and abs(grounds[4] - 1.00789148) <= 1e-6
        and elapsed < 30.0
    )
    gaps = "/".join(f"{refs[q] - grounds[q]:+.2e}" for q in (2, 3, 4))
    report(
        "criterion 3b (model-one exact grounds)",
        ok,
        f"grounds {grounds[2]:.8f}/{grounds[3]:.8f}/{grounds[4]:.8f}, "
        f"<= vacuum energy={below_vacuum}, Fourier-grid {grid:.8f} (ref 1.00789148, tol 1e-6); "
        f"provisional Table 4 refs {refs[2]}/{refs[3]}/{refs[4]} (gaps {gaps}, not asserted), "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. provisional 8-qubit models

def test_criterion_4_provisional_eight_qubit_models():
    swap = np.zeros((256, 256))
    for i in range(16):
        for j in range(16):
            swap[j * 16 + i, i * 16 + j] = 1.0

    h2r = models.dark_energy_two_radius(models.DarkEnergyTwoRadiusParams(), 4)
    h5 = models.dark_matter_model_two(models.DarkMatterParams(), 4)
    count_2r = len(pauli.decompose(h2r))
    count_m2 = len(pauli.decompose(h5))

    details = []
    ok = True
    for name, h, count, ref in (
        ("two-radius", h2r, count_2r, presets.reference_row("table3", "pauli_terms")["reference"]),
        ("model-two", h5, count_m2, presets.reference_row("table5", "pauli_terms")["reference"]),
    ):
        scale = max(1.0, np.max(np.abs(h)))
        hermitian = np.max(np.abs(h - h.conj().T)) <= 1e-12 * scale
        symmetric = np.max(np.abs(h @ swap - swap @ h)) <= 1e-10 * scale
        ground = vqe.exact_ground(h)
        res = vqe.run_vqe(
            h, AnsatzSpec(8, reps=1),
            OptimizerConfig(kind=OptimizerKind.GRADIENT_DESCENT, budget=100, seed=0),
        )
        bound = res.energy >= ground - 1e-9
        ok = ok and hermitian and symmetric and bound
        flag = "matches published count" if count == ref else f"count {count} (published {ref})"
        details.append(f"{name}: {flag}, hermitian={hermitian}, swap={symmetric}, bound={bound}")
    report("criterion 4 (provisional 8-qubit models)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. VQE behavior

def test_criterion_5_vqe():
    details = []
    ok = True
    for name, h in (
        ("table1", models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)),
        ("table4-16", models.dark_matter_model_one(models.DarkMatterParams(), 2)),
    ):
        exact = vqe.exact_ground(h)
        best, best_seed, used = np.inf, None, 0
        bound_ok = True
        for seed in range(10):
            res = vqe.run_vqe(
                h, AnsatzSpec(4, reps=3),
                OptimizerConfig(kind=OptimizerKind.GRADIENT_DESCENT, budget=2000, seed=seed),
            )
            bound_ok = bound_ok and all(e >= exact - 1e-9 for _, e in res.trace)
            used = seed
            if res.energy < best:
                best, best_seed = res.energy, seed
            if best - exact <= 1e-3:
                break
        hit = best - exact <= 1e-3
        ok = ok and hit and bound_ok
        details.append(
            f"{name}: gap {best - exact:.2e} at seed {best_seed} "
            f"(seeds tried 0..{used}), bound={bound_ok}"
        )

    # 64x64 dark-energy case: bound satisfaction only
    h = models.dark_energy_single_radius(models.DarkEnergySingleRadiusParams(), 6)
    exact = vqe.exact_ground(h)
    res = vqe.run_vqe(
        h, AnsatzSpec(6, reps=3),
        OptimizerConfig(kind=OptimizerKind.GRADIENT_DESCENT, budget=1000, seed=0),
    )
    bound = all(e >= exact - 1e-9 for _, e in res.trace)
    ok = ok and bound
    details.append(f"dark-energy-64: stalls at {res.energy:.3g} vs exact {exact:.3g}, bound={bound}")
    report("criterion 5 (VQE)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. tunneling pipeline

def test_criterion_6_tunneling():
    t0 = time.perf_counter()
    v = models.dark_energy_potential(models.DarkEnergySingleRadiusParams())
    rep = tunneling.report(v, guess=5.0)
    elapsed = time.perf_counter() - t0
    rows = presets.REPRODUCE_TABLES["tunneling"]["rows"]
    judged = [judge("tunneling", row["quantity"], rep[row["quantity"]]) for row in rows]
    ok = len(judged) == 6 and all(ok for ok, _ in judged) and elapsed < 1.0
    report(
        "criterion 6 (tunneling)",
        ok,
        ", ".join(f"{row['quantity']} {rep[row['quantity']]:.6f} ({ref})"
                  for row, (_, ref) in zip(rows, judged)) + f", {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 7. EOH convergence

def test_criterion_7_trotter_scaling():
    t0 = time.perf_counter()
    h = evolution.free_interval_hamiltonian(5)
    parts = evolution.split_even_odd(h)
    psi = np.zeros(32, dtype=complex)
    psi[16] = 1.0
    t = 0.1
    exact = evolution.exact_evolve(h, t, psi)
    slopes = {}
    norms_ok = True
    for order in (1, 2):
        errs = []
        for steps in (8, 16, 32, 64):
            res = evolution.trotter_evolve(parts, t, steps, order, psi)
            errs.append(np.linalg.norm(res.final - exact))
            norms_ok = norms_ok and abs(np.linalg.norm(res.final) - 1.0) <= 1e-9
        slopes[order] = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(slopes[1] - (-1.0)) <= 0.15
        and abs(slopes[2] - (-2.0)) <= 0.15
        and norms_ok
        and elapsed < 10.0
    )
    report(
        "criterion 7 (Trotter scaling)",
        ok,
        f"slopes {slopes[1]:.3f}/{slopes[2]:.3f} (refs -1/-2 +-0.15), unit norms={norms_ok}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 8. Green's function cross-check

def test_criterion_8_greens_function():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for s_sq in (0.25, 0.5, 1.0, 2.0, 4.0):
            g = wdw.flat_greens_quadrature(0.0, math.sqrt(s_sq), lam)
            ref = wdw.bessel_k0(math.sqrt(lam * s_sq)) / (2 * math.pi)
            worst = max(worst, abs(g - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and elapsed < 10.0
    report(
        "criterion 8 (Green's function vs K0)",
        ok,
        f"worst relative error {worst:.2e} (tol 2e-3), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 9. always-on property suite

def test_criterion_9_property_suite():
    rng = np.random.default_rng(17)
    details = []

    # Hermiticity of every model builder
    hams = [
        models.starobinsky_hamiltonian(models.StarobinskyParams(), 3),
        models.dark_energy_single_radius(models.DarkEnergySingleRadiusParams(), 4),
        models.dark_energy_two_radius(models.DarkEnergyTwoRadiusParams(), 2),
        models.dark_matter_model_one(models.DarkMatterParams(), 2),
        models.dark_matter_model_two(models.DarkMatterParams(), 2),
    ]
    herm = all(
        np.max(np.abs(h - h.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(h))) for h in hams
    )
    details.append(f"hermiticity={herm}")

    # Pauli Parseval + round-trip on a random Hermitian matrix
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = (a + a.conj().T) / 2
    s = pauli.decompose(h)
    parseval = abs(np.sum(s.coeff**2) * 16 - np.linalg.norm(h, "fro") ** 2)
    parseval_ok = parseval <= 1e-8 * np.linalg.norm(h, "fro") ** 2
    roundtrip_ok = np.max(np.abs(pauli.reconstruct(s) - h)) <= 1e-10
    details.append(f"parseval={parseval_ok}, roundtrip={roundtrip_ok}")

    # truncation corner law and oscillator ground
    n = 16
    from qcosmo.bases import BasisKind, build_momentum, build_position

    x = build_position(BasisKind.OSCILLATOR, n)
    p = build_momentum(BasisKind.OSCILLATOR, n)
    corner = np.zeros((n, n)); corner[-1, -1] = 1.0
    corner_ok = np.max(np.abs(x @ p - p @ x - 1j * (np.eye(n) - n * corner))) <= 1e-12
    ground_ok = abs(np.linalg.eigvalsh((x @ x + p @ p) / 2)[0] - 0.5) <= 1e-12
    details.append(f"corner_law={corner_ok}, oscillator_ground={ground_ok}")

    # Bogoliubov normalization
    bog_ok = all(
        abs(wdw.bogoliubov_coeffs(k).alpha ** 2 - wdw.bogoliubov_coeffs(k).beta ** 2 - 1) <= 1e-12
        for k in (0.1, 0.5, 1.0, 2.0, 5.0)
    )
    details.append(f"bogoliubov={bog_ok}")

    # kernel composition (quadrature oracle lives in test_wdw; reuse it)
    from test_wdw import contour_compose

    direct = wdw.inverted_oscillator_kernel(0.5, -0.3, 0.6, 1.0)
    composed = contour_compose(
        lambda a_, b_, t_: wdw.inverted_oscillator_kernel(a_, b_, t_, 1.0), 0.5, -0.3, 0.3, 0.3
    )
    compose_ok = abs(composed - direct) <= 1e-3 * abs(direct)
    details.append(f"kernel_composition={compose_ok}")

    # Friedmann constraint conservation
    traj = models.friedmann_evolve(
        lambda phi: 0.0, (1.0, 0.0, 0.4), Lambda=0.5, k=0.0, t_span=(0.0, 4.0), dt=1e-3
    )
    fried_ok = traj.max_constraint_residual <= 1e-6
    details.append(f"friedmann_constraint={fried_ok}")

    # imaginary-order Bessel solves its constraint equation
    c_ks, p_ks, h_fd = 1.0, 1.5, 1e-3
    res = []
    for q in (-2.0, -1.0, 0.0):
        psi = lambda qq: wdw.bessel_k_imag_order(p_ks, 2 * c_ks * np.exp(qq))
        second = (psi(q + h_fd) - 2 * psi(q) + psi(q - h_fd)) / h_fd**2
        res.append(abs(-second + (4 * c_ks**2 * np.exp(2 * q) - p_ks**2) * psi(q)))
    bessel_ok = max(res) <= 1e-4
    details.append(f"bessel_residual={bessel_ok}")

    ok = all([herm, parseval_ok, roundtrip_ok, corner_ok, ground_ok, bog_ok,
              compose_ok, fried_ok, bessel_ok])
    report("criterion 9 (property suite)", ok, ", ".join(details))
