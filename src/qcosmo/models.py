"""Model Hamiltonians and classical potentials, with named parameter presets.

Every builder returns a dense Hermitian matrix, with finite entries, assembled
from the discrete bases in :mod:`qcosmo.bases`. Potentials of a position
operator are applied by spectral calculus, so exponential terms are exact
matrix functions of the truncated operator. The end of the module holds the
model half of the JSON config schema (:func:`check_block`, ``MODEL_SCHEMA``);
:mod:`qcosmo.config` adds the run blocks.

Default parameters are chosen so that the well-known desk-scale benchmarks
come out of the box: the inflaton well has unit curvature at its bottom, and
the single-radius dark-energy landscape is tuned to leave a residual vacuum
energy of about 1.1e-6 in Planck units after quantum corrections.
"""

from __future__ import annotations

import enum
import math
import reprlib
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bases import (
    MAX_QUBITS,
    BasisKind,
    apply_scalar_function,
    build_momentum,
    build_momentum_squared,
    build_position,
    hermitize,
    require_finite,
)
from .errors import ConfigError, DomainError, InconsistentInitialDataError, ShapeError


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class StarobinskyParams:
    """Plateau inflation potential V = M1_4 * (1 - exp(phi / M2))^2.

    The default slope makes the curvature at the bottom of the well exactly
    one, i.e. M2 = sqrt(2 * M1_4).
    """

    M1_4: float = 29.167
    M2: float = float(np.sqrt(2 * 29.167))


@dataclass(frozen=True)
class DarkEnergySingleRadiusParams:
    """Flux/curvature/vacuum landscape of one compact radius.

    V(phi) = e^{-4 phi/c} (Q4_sq e^{-8 phi/c} - k e^{-2 phi/c} + Lambda8).
    Defaults place the local minimum at V = -0.3785 with curvature 0.5844,
    which the zero-point energy lifts to a residual of ~1.1e-6.
    """

    Q4_sq: float = 100.0
    k: float = 200.0
    c: float = float(np.sqrt(2100.0))
    Lambda8: float = 118.455752797


@dataclass(frozen=True)
class DarkEnergyTwoRadiusParams:
    """Two independent compact radii (product of two 2-spheres).

    The fluxes through the two spheres are configuration inputs; the defaults
    reuse the single-radius flux for both and make the potential symmetric
    under swapping the radii.
    """

    mu1_4: float = 200.0
    mu2: float = 8.0
    Q1_sq: float = 100.0
    Q2_sq: float = 100.0
    Lambda8: float = 118.455752797


@dataclass(frozen=True)
class ConformalScalarParams:
    """Couplings of the conformally coupled scalar dark sector (``dark_matter_1``)."""

    lambda_X: float = 0.005
    lambda_Y: float = 0.005
    lambda_mix: float = 0.001
    a_scale: float = 1.0


@dataclass(frozen=True)
class GaugeFieldParams:
    """Couplings of the self-interacting gauge-field dark sector (``dark_matter_2``).

    The gauge couplings have no canonical benchmark value and should be
    configured per run.
    """

    g_X: float = 0.1
    g_Y: float = 0.1
    theta_Y: float = 0.0
    lambda_mix: float = 0.001
    a_scale: float = 1.0


class MinisuperspaceKind(enum.Enum):
    INV_LIOUVILLE = "inv-liouville"
    INV_OSCILLATOR = "inv-oscillator"
    INV_LINEAR = "inv-linear"
    INV_QUARTIC = "inv-quartic"
    MORSE_S2 = "morse-s2"
    NEG_LAMBDA_MORSE = "neg-lambda-morse"
    KANTOWSKI_SACHS = "kantowski-sachs"


_DEFAULT_VOLUME = {
    MinisuperspaceKind.INV_LIOUVILLE: (2 * np.pi) ** 3,
    MinisuperspaceKind.INV_OSCILLATOR: (2 * np.pi) ** 3,
    MinisuperspaceKind.INV_LINEAR: 2 * np.pi**2,
    MinisuperspaceKind.INV_QUARTIC: 2 * np.pi**2,
    MinisuperspaceKind.MORSE_S2: 4 * np.pi,
    MinisuperspaceKind.NEG_LAMBDA_MORSE: 4 * np.pi,
    MinisuperspaceKind.KANTOWSKI_SACHS: 8 * np.pi**2,
}


@dataclass(frozen=True)
class MinisuperspaceParams:
    """Gravitational sector constants for the reduced one-dimensional models.

    ``v_volume`` is the comoving spatial volume; if None the conventional
    volume of the model's spatial topology is used. ``p_phi`` is the scalar
    momentum, entering as a c-number after separation of variables.
    """

    Lambda: float = 1.0
    k_curv: float = 1.0
    v_volume: float | None = None
    p_phi: float = 0.0

    def volume(self, kind: MinisuperspaceKind) -> float:
        return self.v_volume if self.v_volume is not None else _DEFAULT_VOLUME[kind]


# ---------------------------------------------------------------------------
# classical potentials

def starobinsky_potential(params: StarobinskyParams):
    """V(phi) on an array, or on a Python float as a Python float.

    A float takes one ``np.exp`` and then Python float arithmetic, which gives the bits of
    the numpy-scalar expression at a fraction of its cost per call (the Friedmann stages
    make one call each). Python floats raise ``OverflowError`` where numpy returns inf with
    a RuntimeWarning: at phi = 3000, for example, (1 - e)^2 overflows.
    """
    m1_4, m2 = params.M1_4, params.M2

    def v(phi):
        if type(phi) is float:
            return m1_4 * (1.0 - float(np.exp(phi / m2))) ** 2
        return params.M1_4 * (1.0 - np.exp(phi / params.M2)) ** 2
    return v


def starobinsky_potential_deriv(params: StarobinskyParams):
    """dV/dphi on an array, or on a Python float as a Python float, as in
    :func:`starobinsky_potential`. Where numpy returns inf with a RuntimeWarning, a float
    overflows without one: a Python float product gives inf silently, and ``np.exp``
    itself still warns above phi = 709 M2.
    """
    m1_4, m2 = params.M1_4, params.M2

    def dv(phi):
        if type(phi) is float:
            e = float(np.exp(phi / m2))
            return -2.0 * m1_4 * (1.0 - e) * e / m2
        e = np.exp(phi / params.M2)
        return -2.0 * params.M1_4 * (1.0 - e) * e / params.M2
    return dv


def dark_energy_potential(params: DarkEnergySingleRadiusParams):
    def v(phi):
        u = phi / params.c
        return np.exp(-4.0 * u) * (
            params.Q4_sq * np.exp(-8.0 * u) - params.k * np.exp(-2.0 * u) + params.Lambda8
        )
    return v


def _radius_exponents(params: DarkEnergyTwoRadiusParams):
    """Linear maps phi -> log R for the two-radius field redefinition."""
    kappa = (np.sqrt(3.0) - 1.0) / (2.0 * np.sqrt(6.0))
    alpha = (1.0 / np.sqrt(2.0) - kappa) / params.mu2
    beta = -kappa / params.mu2
    return alpha, beta


def dark_energy_two_radius_potential(params: DarkEnergyTwoRadiusParams):
    """V(phi1, phi2) built by substituting R1, R2 into the radius potential."""
    alpha, beta = _radius_exponents(params)

    def v(phi1, phi2):
        l1 = alpha * phi1 + beta * phi2
        l2 = beta * phi1 + alpha * phi2
        r1_sq, r2_sq = np.exp(2.0 * l1), np.exp(2.0 * l2)
        return (
            params.mu1_4
            / (r1_sq * r2_sq)
            * (
                params.Q1_sq / r1_sq**2
                + params.Q2_sq / r2_sq**2
                - 1.0 / r1_sq
                - 1.0 / r2_sq
                + params.Lambda8
            )
        )
    return v


def minisuperspace_v_eff(kind: MinisuperspaceKind, params: MinisuperspaceParams):
    """Effective one-dimensional potential for H = P^2/2 + V_eff(X).

    Overall constraint prefactors (-1/(6v) and relatives) are dropped; the
    zero-energy solution set is unchanged for every kind.
    """
    v = params.volume(kind)
    lam, k, p = params.Lambda, params.k_curv, params.p_phi

    if kind is MinisuperspaceKind.INV_LIOUVILLE:
        return lambda x: -3.0 * p**2 - 6.0 * v**2 * lam * np.exp(6.0 * x)
    if kind is MinisuperspaceKind.INV_OSCILLATOR:
        return lambda x: -(4.0 / 3.0) * p**2 / x**2 - (8.0 / 3.0) * v**2 * lam * x**2
    if kind is MinisuperspaceKind.INV_LINEAR:
        return lambda x: 4.5 * v**2 * k - 0.75 * p**2 / x**2 - 1.5 * v**2 * lam * x
    if kind is MinisuperspaceKind.INV_QUARTIC:
        return lambda x: 18.0 * v**2 * k * x**2 - 3.0 * p**2 / x**2 - 6.0 * v**2 * lam * x**4
    if kind in (MinisuperspaceKind.MORSE_S2, MinisuperspaceKind.NEG_LAMBDA_MORSE):
        return lambda x: 2.0 * v**2 * k * np.exp(2.0 * x) - 2.0 * v**2 * lam * np.exp(4.0 * x) - p**2
    if kind is MinisuperspaceKind.KANTOWSKI_SACHS:
        return lambda x: 2.0 * v**2 * k * np.exp(2.0 * x) - p**2 / 2.0
    raise ShapeError(f"unknown minisuperspace kind {kind!r}")


# ---------------------------------------------------------------------------
# Hamiltonians

def _single_mode_hamiltonian(potential, n_qubits: int, basis: BasisKind) -> np.ndarray:
    """P^2/2 + V(X) on one mode, with V applied to X by spectral calculus."""
    dim = 2**n_qubits
    x, p_sq = build_position(basis, dim), build_momentum_squared(basis, dim)
    return require_finite(hermitize(p_sq / 2.0 + apply_scalar_function(x, potential)))


def _two_mode_hamiltonian(h_x: np.ndarray, h_y: np.ndarray, couplings) -> np.ndarray:
    """h_x (x) 1 + 1 (x) h_y, mode 0 leftmost, plus each coupling in the order given.

    ``couplings`` may be a generator. Each array is dropped before the next one
    is built, so the peak stays near three full-size matrices.
    """
    eye = np.eye(h_x.shape[0], dtype=np.result_type(h_x, h_y))
    h = np.kron(h_x, eye) + np.kron(eye, h_y)
    del eye
    for coupling in couplings:
        h = h + coupling
        del coupling
    return require_finite(hermitize(h))


def starobinsky_hamiltonian(
    params: StarobinskyParams, n_qubits: int, basis: BasisKind = BasisKind.OSCILLATOR
) -> np.ndarray:
    return _single_mode_hamiltonian(starobinsky_potential(params), n_qubits, basis)


def dark_energy_single_radius(
    params: DarkEnergySingleRadiusParams,
    n_qubits: int,
    basis: BasisKind = BasisKind.OSCILLATOR,
) -> np.ndarray:
    return _single_mode_hamiltonian(dark_energy_potential(params), n_qubits, basis)


def dark_energy_two_radius(
    params: DarkEnergyTwoRadiusParams,
    qubits_per_mode: int,
    basis: BasisKind = BasisKind.OSCILLATOR,
) -> np.ndarray:
    """Two-field Hamiltonian (P1^2 + P2^2)/2 + V(phi1, phi2).

    Every term of the potential is exp(linear in phi1, phi2), so it factors
    into a Kronecker product of single-mode matrix exponentials and the
    construction stays exact.
    """
    dim = 2**qubits_per_mode
    x, p_sq = build_position(basis, dim), build_momentum_squared(basis, dim)
    alpha, beta = _radius_exponents(params)

    def exp_x(c):
        return apply_scalar_function(x, lambda t: np.exp(c * t))

    # weights and (l1, l2) exponent multiples for the five potential terms
    pieces = [
        (params.mu1_4 * params.Q1_sq, -6.0, -2.0),
        (params.mu1_4 * params.Q2_sq, -2.0, -6.0),
        (-params.mu1_4, -4.0, -2.0),
        (-params.mu1_4, -2.0, -4.0),
        (params.mu1_4 * params.Lambda8, -2.0, -2.0),
    ]
    couplings = (weight * np.kron(exp_x(a * alpha + b * beta), exp_x(a * beta + b * alpha))
                 for weight, a, b in pieces)
    kinetic = p_sq / 2.0
    return _two_mode_hamiltonian(kinetic, kinetic, couplings)


def dark_matter_model_one(
    params: ConformalScalarParams,
    qubits_per_mode: int,
    basis: BasisKind = BasisKind.OSCILLATOR,
) -> np.ndarray:
    """Conformally coupled scalars: two quartic oscillators with an x^4 y^4 bridge."""
    dim = 2**qubits_per_mode
    x, p_sq = build_position(basis, dim), build_momentum_squared(basis, dim)
    x4 = np.linalg.matrix_power(x, 4)
    h_x = p_sq / 2.0 + x @ x / 2.0 + params.lambda_X * x4
    h_y = p_sq / 2.0 + x @ x / 2.0 + params.lambda_Y * x4
    mix = (params.lambda_mix / params.a_scale**4) * np.kron(x4, x4)
    return _two_mode_hamiltonian(h_x, h_y, [mix])


def dark_matter_model_two(
    params: GaugeFieldParams,
    qubits_per_mode: int,
    basis: BasisKind = BasisKind.OSCILLATOR,
) -> np.ndarray:
    """Self-interacting gauge fields in the single-mode ansatz.

    Products of non-commuting single-mode factors are symmetrized, so the
    result is Hermitian for any parameter values. With theta_Y = 0 this is
    P_X^2/2 + g_X^2 X^4 + P_Y^2/2 + g_Y^2 Y^4
    + (lambda_mix/a^4) (P_X + X^2)^2 (P_Y + Y^2)^2.
    """
    dim = 2**qubits_per_mode
    x = build_position(basis, dim)
    p = build_momentum(basis, dim)
    x2 = x @ x
    x4 = x2 @ x2
    theta = params.theta_Y

    h_x = p @ p / 2.0 + params.g_X**2 * x4

    p_shift = p + theta * x2            # P_Y + theta Y^2, Hermitian
    h_y = p_shift @ p_shift / 2.0 + params.g_Y**2 * x4
    # theta * (P_Y + theta Y^2) Y^2, symmetrized over the two orderings
    h_y = h_y + theta * (p_shift @ x2 + x2 @ p_shift) / 2.0

    a_sq = (p + x2) @ (p + x2)
    b = p_shift + x2                    # P_Y + theta Y^2 + Y^2
    b_sq = b @ b
    mix = (params.lambda_mix / params.a_scale**4) * np.kron(a_sq, b_sq)
    return _two_mode_hamiltonian(h_x, h_y, [mix])


def minisuperspace_hamiltonian(
    kind: MinisuperspaceKind,
    params: MinisuperspaceParams,
    n_qubits: int,
    basis: BasisKind = BasisKind.FINITE_DIFFERENCE,
) -> np.ndarray:
    return _single_mode_hamiltonian(minisuperspace_v_eff(kind, params), n_qubits, basis)


# ---------------------------------------------------------------------------
# classical Friedmann evolution

@dataclass
class FriedmannTrajectory:
    t: np.ndarray
    a: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    constraint_residual: np.ndarray

    @property
    def max_constraint_residual(self) -> float:
        return float(np.max(self.constraint_residual))


def friedmann_evolve(
    potential,
    initial,
    Lambda: float = 0.0,
    k: float = 0.0,
    t_span=(0.0, 10.0),
    dt: float = 1e-3,
    dpotential=None,
) -> FriedmannTrajectory:
    """Integrate the scalar-field Friedmann system in cosmic time (N = 1).

    The expansion rate is taken from the energy constraint at every stage,
    3 (adot/a)^2 = Lambda + phidot^2/2 + V(phi) - 3k/a^2 (positive branch),
    and the field obeys phidot' = -3 (adot/a) phidot - dV/dphi. Fixed-step
    fourth-order Runge-Kutta on plain floats: ``potential`` and ``dpotential``
    get a float at each stage (and ``potential`` once at t = 0), and ``potential``
    is called once more on the whole field array, for the constraint residual
    |3 (adot/a)^2 - radicand|. A state that overflows or turns non-finite raises
    ``DomainError``, as does a radicand below -1e-8 after t = 0, and so does a ``dt``,
    ``t_span`` or step count (t1 - t0)/dt that is not finite.
    """
    a0, phi0, phidot0 = (float(x) for x in initial)
    if not (math.isfinite(a0) and math.isfinite(phi0) and math.isfinite(phidot0)):
        raise InconsistentInitialDataError(f"initial data must be finite, got {initial!r}")
    if a0 <= 0:
        raise InconsistentInitialDataError("a0 must be positive")
    if dt <= 0:
        raise DomainError("dt must be positive")
    t0, t1 = (0.0, float(t_span)) if np.isscalar(t_span) else map(float, t_span)
    span_steps = (t1 - t0) / dt  # not finite if t0 or t1 is not, or if the count overflows
    if not (math.isfinite(dt) and math.isfinite(span_steps)):
        raise DomainError(f"dt = {dt} and t_span = ({t0}, {t1}) must give a finite step count")

    if dpotential is None:
        def dpotential(phi, _v=potential):
            h = 1e-6 * (1.0 + abs(phi))
            return (_v(phi + h) - _v(phi - h)) / (2.0 * h)

    def stage(a, phi, phidot):
        rad = Lambda + 0.5 * phidot**2 + float(potential(phi)) - 3.0 * k / a**2
        if rad < -1e-8:
            raise DomainError(f"expansion rate became imaginary (radicand {rad:.3e})")
        h = math.sqrt(max(rad, 0.0) / 3.0)
        return a * h, phidot, -3.0 * h * phidot - float(dpotential(phi))

    # each step's (t, a, phi, phidot) goes into one row of an array of its final size,
    # through a flat memoryview, which costs less than numpy item assignment
    n_steps = int(np.ceil(span_steps))
    out = np.empty((n_steps + 1, 4))
    row = memoryview(out.reshape(-1))
    t, a, phi, phidot = t0, a0, phi0, phidot0
    row[0], row[1], row[2], row[3] = t, a, phi, phidot
    try:
        with np.errstate(all="ignore"):  # a non-finite state is refused below
            rad = Lambda + 0.5 * phidot**2 + float(potential(phi)) - 3.0 * k / a**2
            if rad < -1e-8:
                raise InconsistentInitialDataError(
                    f"energy constraint violated at t=0 (radicand {rad:.3e})"
                )
            for j in range(4, 4 * n_steps + 4, 4):
                step = min(dt, t1 - t)
                hs, s6 = 0.5 * step, step / 6.0
                da1, dphi1, ddot1 = stage(a, phi, phidot)
                da2, dphi2, ddot2 = stage(a + hs * da1, phi + hs * dphi1, phidot + hs * ddot1)
                da3, dphi3, ddot3 = stage(a + hs * da2, phi + hs * dphi2, phidot + hs * ddot2)
                da4, dphi4, ddot4 = stage(a + step * da3, phi + step * dphi3,
                                          phidot + step * ddot3)
                a = a + s6 * (da1 + 2 * da2 + 2 * da3 + da4)
                phi = phi + s6 * (dphi1 + 2 * dphi2 + 2 * dphi3 + dphi4)
                phidot = phidot + s6 * (ddot1 + 2 * ddot2 + 2 * ddot3 + ddot4)
                t = t + step
                row[j], row[j + 1], row[j + 2], row[j + 3] = t, a, phi, phidot
            ts, a, phi, phidot = out.T
            rad = Lambda + 0.5 * phidot**2 + potential(phi) - 3.0 * k / a**2
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"the Friedmann state left the float range after t={t:.6g}") from None
    imaginary = rad[rad < -1e-8]  # the RK4 stages never saw the final row
    if imaginary.size:
        raise DomainError(f"expansion rate became imaginary (radicand {imaginary[0]:.3e})")
    finite = np.isfinite(out).all(axis=1) & np.isfinite(rad)
    if not finite.all():
        raise DomainError(f"the Friedmann state is not finite at t={ts[np.argmin(finite)]:.6g}")
    residual = np.abs(rad - 3.0 * np.sqrt(np.maximum(rad, 0.0) / 3.0) ** 2)
    return FriedmannTrajectory(ts, a, phi, phidot, residual)


# ---------------------------------------------------------------------------
# JSON config schema: each block maps its keys to (default, type, allowed)

QUBIT_COUNTS = range(1, MAX_QUBITS + 1)

MAX_PARAMS = 2048
"""Most ansatz parameters a config may request: a Nelder-Mead simplex of
``MAX_PARAMS + 1`` vertices then holds 34 MB."""

# model name: (parameter class, Hamiltonian builder, number of modes)
_MODELS = {
    "starobinsky": (StarobinskyParams, starobinsky_hamiltonian, 1),
    "dark_energy_1r": (DarkEnergySingleRadiusParams, dark_energy_single_radius, 1),
    "dark_energy_2r": (DarkEnergyTwoRadiusParams, dark_energy_two_radius, 2),
    "dark_matter_1": (ConformalScalarParams, dark_matter_model_one, 2),
    "dark_matter_2": (GaugeFieldParams, dark_matter_model_two, 2),
    "minisuperspace": (MinisuperspaceParams, minisuperspace_hamiltonian, 1),
}

MODEL_SCHEMA = {
    "model": (None, str, tuple(_MODELS)),
    "params": ({}, dict, None),
    "qubits": (None, [int], QUBIT_COUNTS),
    "basis": (BasisKind.OSCILLATOR.value, str, tuple(b.value for b in BasisKind)),
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", dict: "an object"}


def _describe(kind, allowed) -> str:
    if isinstance(allowed, range):
        top = "" if allowed.stop == sys.maxsize else f" and <= {allowed.stop - 1}"
        return f"an integer >= {allowed.start}{top}"
    return _TYPE_NAMES[kind] if allowed is None else f"one of {list(allowed)}"


def check_value(value, kind, allowed, where: str, nullable: bool = False):
    if value is None and nullable:
        return None
    if isinstance(allowed, dict):  # a nested block and its schema
        return check_block(value, allowed, where)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, not {reprlib.repr(value)}")
        return [check_value(v, kind[0], allowed, f"{where}[{i}]") for i, v in enumerate(value)]
    ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if ok and kind is float:
        ok = abs(value) <= sys.float_info.max  # false for inf and NaN
    if not ok or allowed is not None and value not in allowed:
        raise ConfigError(f"{where} must be {_describe(kind, allowed)}, not {reprlib.repr(value)}")
    if kind is float:
        return float(value)
    return dict(value) if kind is dict else value


def check_block(raw, schema: dict, where: str, required=()) -> dict:
    """Check the JSON object ``raw`` against ``schema``; return it with defaults.

    ``schema`` maps each key to ``(default, type, allowed)``. ``int`` takes no
    booleans, ``float`` takes finite numbers (widened to float), ``[t]`` is a
    list of ``t``, and ``allowed`` (a range or a tuple of choices) bounds the
    value or each list element; for a ``dict``, ``allowed`` may be the nested
    block's schema. Null passes only where the default is None;
    keys in ``required`` must be given. Failures raise a one-line ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, not {reprlib.repr(raw)}")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    missing = [k for k in required if raw.get(k) is None]
    if missing:
        raise ConfigError(f"{where} is missing keys: {missing}")
    return {
        key: check_value(raw.get(key, default), kind, allowed, f"{where}.{key}", default is None)
        for key, (default, kind, allowed) in schema.items()
    }


def params_schema(model: str) -> dict:
    """The schema of ``model``'s parameter fields, each a finite number."""
    if model not in _MODELS:
        raise ConfigError(f"unknown model {model!r}; known: {sorted(_MODELS)}")
    return {f.name: (f.default, float, None) for f in fields(_MODELS[model][0])}


def check_params(model: str, raw) -> dict:
    """Check ``model``'s params block; minisuperspace also requires ``kind``."""
    schema = params_schema(model)
    if model != "minisuperspace":
        return check_block(raw, schema, f"{model} params")
    schema["kind"] = (None, str, tuple(k.value for k in MinisuperspaceKind))
    return check_block(raw, schema, f"{model} params", required=("kind",))


def params_from_dict(model: str, raw: dict):
    """Instantiate the model's parameter dataclass, rejecting unknown keys.

    Returns the parameters and, for the minisuperspace model (which requires
    ``kind``), the MinisuperspaceKind; for the other models, None.
    """
    values = check_params(model, {} if raw is None else raw)
    kind = values.pop("kind", None)
    return _MODELS[model][0](**values), MinisuperspaceKind(kind) if kind else None


def check_model(config: dict) -> dict:
    """Check the model keys; return them resolved, applying the qubit limit."""
    block = check_block(config, MODEL_SCHEMA, "config", required=("model", "qubits"))
    model, qubits = block["model"], block["qubits"]
    block["params"] = check_params(model, block["params"])
    modes = _MODELS[model][2]
    if len(qubits) != modes or len(set(qubits)) > 1:
        raise ConfigError(f"{model} takes {modes} equal qubit count(s), not {qubits}")
    if model == "dark_matter_2" and block["basis"] == BasisKind.FINITE_DIFFERENCE.value:
        # the model needs P itself, and the finite-difference basis defines only P^2
        raise ConfigError("config.basis must be 'oscillator' or 'position' for dark_matter_2, "
                          "not 'fd'")
    if sum(qubits) > MAX_QUBITS:
        raise ConfigError(f"{model} on qubits {qubits} exceeds the limit of {MAX_QUBITS} "
                          f"qubits in total (a {2**MAX_QUBITS}x{2**MAX_QUBITS} matrix)")
    return block


def build_model(config: dict) -> tuple[np.ndarray, dict]:
    """Assemble a Hamiltonian from {"model", "params", "qubits", "basis"}.

    Returns the matrix plus the fully resolved configuration (defaults filled
    in), which callers embed in their output artifacts. The configuration is
    checked, and the qubit limit applied, before any matrix is allocated.
    """
    resolved = check_model(config)
    model, n, basis = resolved["model"], resolved["qubits"][0], BasisKind(resolved["basis"])
    params, kind = params_from_dict(model, resolved["params"])
    builder = _MODELS[model][1]
    with np.errstate(all="ignore"):  # require_finite reports a non-finite result
        h = builder(kind, params, n, basis) if kind else builder(params, n, basis)
    return h, resolved

