import numpy as np
import pytest

from qcosmo import models, presets, tunneling
from qcosmo.errors import DomainError, NoBarrierError, NoBracketedMinimumError
from qcosmo.tunneling import (
    CubicExpansion,
    expand_about_minimum,
    lifetime_log10,
    tunneling_action,
)

# the quoted tunneling quantities, from the reference table that the release gate reads
ROWS = {row["quantity"]: row for row in presets.REPRODUCE_TABLES["tunneling"]["rows"]}
REF = {quantity: row["reference"] for quantity, row in ROWS.items()}


def test_pure_quadratic():
    exp = expand_about_minimum(lambda x: x**2 / 2, guess=0.3)
    assert exp.phi_min == pytest.approx(0.0, abs=1e-9)
    assert exp.V_min == pytest.approx(0.0, abs=1e-15)
    assert exp.M_sq == pytest.approx(1.0, abs=1e-8)
    assert exp.delta == pytest.approx(0.0, abs=1e-6)


def test_synthesized_cubic_roundtrip():
    v0, a, b = REF["V_min"], REF["M_sq"] / 2, REF["delta"] / 3
    exp = expand_about_minimum(lambda x: v0 + a * x**2 - b * x**3, guess=0.1)
    assert exp.M_sq == pytest.approx(REF["M_sq"], rel=1e-6)
    assert exp.delta == pytest.approx(REF["delta"], rel=1e-6)
    assert exp.V_min == pytest.approx(v0, abs=1e-10)


def test_dark_energy_expansion_matches_quoted_values():
    v = models.dark_energy_potential(models.DarkEnergySingleRadiusParams())
    exp = expand_about_minimum(v, guess=5.0)
    for quantity in ("V_min", "M_sq", "delta"):
        assert presets.verdict(ROWS[quantity], getattr(exp, quantity)) == "match", quantity


def test_cubic_fit_residual_near_minimum():
    v = models.dark_energy_potential(models.DarkEnergySingleRadiusParams())
    exp = expand_about_minimum(v, guess=5.0)
    for dx in (-0.1, 0.1):
        fit = exp.V_min + exp.M_sq / 2 * dx**2 - exp.delta / 3 * dx**3
        assert abs(v(exp.phi_min + dx) - fit) <= 1e-4


def test_no_minimum_raises():
    with pytest.raises(NoBracketedMinimumError):
        expand_about_minimum(lambda x: x, guess=0.0)


def test_action_values():
    assert tunneling_action(CubicExpansion(0, 0, 1.0, 1.0)) == pytest.approx(205.0)
    s = tunneling_action(CubicExpansion(0, 0, REF["M_sq"], REF["delta"]))
    assert s / 4 == pytest.approx(REF["S_E_over_4"], rel=1e-3)


def test_action_scale_invariance():
    base = tunneling_action(CubicExpansion(0, 0, 0.7, 0.21))
    scaled = tunneling_action(CubicExpansion(0, 0, 3.0 * 0.7, np.sqrt(3.0) * 0.21))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_action_no_barrier():
    with pytest.raises(NoBarrierError):
        tunneling_action(CubicExpansion(0, 0, 1.0, 0.0))


def test_lifetime_reference_values():
    life = lifetime_log10(4 * REF["S_E_over_4"])
    # log10(e) times the quoted S_E/4: the lifetime in Planck times that the quoted action gives
    assert life.log10_planck_times == pytest.approx(666.399, abs=1e-3)
    assert life.mantissa == pytest.approx(2.505, abs=2e-3)
    assert life.exponent == 666
    # years: ~4.28e615
    assert life.log10_years == pytest.approx(REF["log10_lifetime_years"], abs=1e-3)


def test_lifetime_degenerate_and_huge():
    assert lifetime_log10(0.0).log10_planck_times == 0.0
    assert lifetime_log10(0.0).mantissa == pytest.approx(1.0)
    big = lifetime_log10(1e6)
    assert np.isfinite(big.log10_planck_times)
    with pytest.raises(DomainError):
        lifetime_log10(-1.0)


def test_full_pipeline_report():
    v = models.dark_energy_potential(models.DarkEnergySingleRadiusParams())
    rep = tunneling.report(v, guess=5.0)
    for quantity in ("S_E_over_4", "log10_lifetime_planck", "log10_lifetime_years"):
        assert presets.verdict(ROWS[quantity], rep[quantity]) == "match", quantity
