"""Metastable-vacuum analysis: cubic expansion, tunneling action, lifetime.

The potential is expanded about its local minimum as
V = V_min + (M^2/2) x^2 - (delta/3) x^3 with x the displacement from the
minimum. The thin-wall tunneling action for this family is S_E = 205 M^2 /
delta^2, and the decay time is e^{S_E/4} Planck times, handled throughout in
log10 so nothing overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoBarrierError, NoBracketedMinimumError

PLANCK_TIME_SECONDS = 5.391e-44
SECONDS_PER_YEAR = 365.0 * 24.0 * 3600.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CubicExpansion:
    phi_min: float
    V_min: float
    M_sq: float
    delta: float


@dataclass(frozen=True)
class LifetimeEstimate:
    log10_planck_times: float
    mantissa: float
    exponent: int
    log10_years: float


def _bracket_minimum(v, guess: float, step: float = 0.1, grow: float = 1.6, max_iter: int = 200):
    """Expand outward from ``guess`` until v(mid) < v(ends)."""
    a, b, c = guess - step, guess, guess + step
    fa, fb, fc = v(a), v(b), v(c)
    for _ in range(max_iter):
        if fb <= fa and fb <= fc:
            return a, b, c
        if fa < fb:
            a, b, fa, fb = a - (b - a) * grow, a, v(a - (b - a) * grow), fa
        else:
            b, c, fb, fc = c, c + (c - b) * grow, fc, v(c + (c - b) * grow)
    raise NoBracketedMinimumError(f"no local minimum bracketed near {guess}")


def _golden_section(v, a: float, c: float, xtol: float = 1e-10) -> float:
    x1 = c - _GOLDEN * (c - a)
    x2 = a + _GOLDEN * (c - a)
    f1, f2 = v(x1), v(x2)
    while c - a > xtol:
        if f1 < f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _GOLDEN * (c - a)
            f1 = v(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (c - a)
            f2 = v(x2)
    return (a + c) / 2.0


def _derivatives(v, x0: float, h: float):
    """5-point central second and third derivatives at step h."""
    f = [v(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3)
    return d2, d3


def expand_about_minimum(v, guess: float) -> CubicExpansion:
    """Locate the minimum near ``guess`` and fit the cubic expansion.

    The minimum is refined by golden-section search to 1e-10; derivatives
    use 5-point central differences at step 1e-3, cross-checked against the
    half-step estimate (Richardson consistency).
    """
    a, b, c = _bracket_minimum(v, guess)
    phi_min = _golden_section(v, a, c)
    d2, d3 = _derivatives(v, phi_min, 1e-3)
    # half-step estimate is noisier (cubic cancellation) but must agree
    d2_half, _ = _derivatives(v, phi_min, 5e-4)
    if abs(d2 - d2_half) > 1e-4 * max(1.0, abs(d2)):
        raise DomainError(
            f"second derivative did not stabilize ({d2} vs {d2_half}); "
            "potential may be too rough for the finite-difference step"
        )
    if d2 <= 0:
        raise NoBracketedMinimumError(f"curvature {d2} is not positive at {phi_min}")
    return CubicExpansion(
        phi_min=phi_min, V_min=float(v(phi_min)), M_sq=float(d2), delta=float(-d3 / 2.0)
    )


def tunneling_action(exp: CubicExpansion) -> float:
    """Thin-wall Euclidean action S_E = 205 M^2 / delta^2."""
    if exp.delta == 0:
        raise NoBarrierError("cubic coefficient is zero; no barrier to tunnel through")
    return 205.0 * exp.M_sq / exp.delta**2


def lifetime_log10(s_e: float) -> LifetimeEstimate:
    """Decay time e^{S_E/4} in log10 Planck times (and years), never exponentiated."""
    if s_e < 0:
        raise DomainError("S_E must be non-negative")
    log10_planck = (s_e / 4.0) * math.log10(math.e)
    exponent = math.floor(log10_planck)
    mantissa = 10.0 ** (log10_planck - exponent)
    log10_years = log10_planck + math.log10(PLANCK_TIME_SECONDS) - math.log10(SECONDS_PER_YEAR)
    return LifetimeEstimate(
        log10_planck_times=log10_planck,
        mantissa=mantissa,
        exponent=int(exponent),
        log10_years=log10_years,
    )


# the keys of report(), in its order
REPORT_KEYS = ("phi_min", "V_min", "M_sq", "delta", "S_E", "S_E_over_4", "log10_lifetime_planck",
               "lifetime_mantissa", "lifetime_exponent", "log10_lifetime_years")


def report(v, guess: float) -> dict:
    """Full pipeline on one potential: expansion, action, lifetime, as JSON-ready dict."""
    exp = expand_about_minimum(v, guess)
    s_e = tunneling_action(exp)
    life = lifetime_log10(s_e)
    return dict(zip(REPORT_KEYS, (
        exp.phi_min, exp.V_min, exp.M_sq, exp.delta, s_e, s_e / 4.0,
        life.log10_planck_times, life.mantissa, life.exponent, life.log10_years,
    ), strict=True))
