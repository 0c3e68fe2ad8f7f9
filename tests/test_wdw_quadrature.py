"""The wdw trapezoid quadratures against library oracles, at their input limits,
and without scipy.

scipy.special and mpmath serve as oracles only; the tests that need one skip
when it is missing.
"""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcosmo import wdw
from qcosmo.errors import DomainError


def test_k0_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for x in np.geomspace(1e-3, 600.0, 61):
        ref = special.k0(x)
        assert abs(wdw.bessel_k0(x) - ref) <= 1e-12 * ref, x


def test_k_imag_order_matches_mpmath():
    special = pytest.importorskip("scipy.special")
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for nu in (0.0, 0.5, 1.0, 2.5, 5.0, 10.0):
            for x in (1e-3, 0.1, 1.0, 3.0, 10.0, 50.0):
                ref = float(mpmath.besselk(1j * nu, x).real)
                err = abs(wdw.bessel_k_imag_order(nu, x) - ref)
                assert err <= 1e-12 * special.k0(x), (nu, x)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_greens_spacelike_is_k0_over_2pi(lam):
    """The rotated contour makes the tilted integral 2 K0 for every eps: no bias to remove."""
    special = pytest.importorskip("scipy.special")
    for t, x in [(0.0, 1e-5), (0.0, 0.5), (0.3, 1.1), (-1.0, 2.5), (0.0, 10.0), (2.0, 30.0)]:
        ref = special.k0(math.sqrt(lam * (x * x - t * t))) / (2.0 * math.pi)
        g = wdw.flat_greens_quadrature(t, x, lam)
        assert g.imag == 0.0
        assert abs(g.real - ref) <= 1e-12 * ref, (t, x)


@pytest.mark.parametrize("m", [1e-10, 1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 30.0])
def test_greens_timelike_matches_hankel(m):
    special = pytest.importorskip("scipy.special")
    for lam in (0.5, 2.0):
        g = wdw.flat_greens_quadrature(m / math.sqrt(lam), 0.0, lam)
        ref = -0.25j * special.hankel2(0, m)
        assert abs(g - ref) <= 1e-5 * abs(ref), lam


# the extremes of the accepted inputs: the sum's node count is largest at the
# smallest x and the largest |nu|, and the integrand overflows nowhere
EXTREMES = {
    "k0-tiny-x": (wdw.bessel_k0, (5e-324,)),
    "k0-huge-x": (wdw.bessel_k0, (1e308,)),
    "kinu-max-nu-tiny-x": (wdw.bessel_k_imag_order, (wdw.MAX_NU, 5e-324)),
    "kinu-min-nu-huge-x": (wdw.bessel_k_imag_order, (-wdw.MAX_NU, 1e308)),
    "kinu-max-nu-x-1": (wdw.bessel_k_imag_order, (wdw.MAX_NU, 1.0)),
    "greens-lightcone-edge": (wdw.flat_greens_quadrature, (1e-6, 0.0, 1e-8)),
    "greens-timelike-far": (wdw.flat_greens_quadrature, (1e150, 0.0, 1e7)),
    "greens-spacelike-far": (wdw.flat_greens_quadrature, (0.0, 1e150, 1e7)),
}


@pytest.mark.parametrize("fn, args", EXTREMES.values(), ids=EXTREMES)
def test_extreme_inputs_are_finite_and_allocate_little(fn, args):
    tracemalloc.start()
    try:
        value = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak <= 4e6, f"{peak / 1e6:.2f} MB"


def test_extreme_values():
    # K0(x) = log 2 - log x - gamma + O(x^2 log x) at the smallest positive float
    x = 5e-324
    k0 = wdw.bessel_k0(x)
    assert k0 == pytest.approx(math.log(2.0) - math.log(x) - 0.5772156649015329, rel=1e-12)
    assert abs(wdw.bessel_k_imag_order(wdw.MAX_NU, x)) <= 1e-12 * k0
    assert wdw.bessel_k0(1e308) == 0.0  # K0 underflows above x of about 705


@pytest.mark.parametrize("fn, args", [
    (wdw.bessel_k0, (math.inf,)), (wdw.bessel_k0, (math.nan,)), (wdw.bessel_k0, (-1.0,)),
    (wdw.bessel_k_imag_order, (1.0, math.inf)), (wdw.bessel_k_imag_order, (1.0, 0.0)),
    (wdw.bessel_k_imag_order, (math.nextafter(wdw.MAX_NU, math.inf), 1.0)),
    (wdw.bessel_k_imag_order, (-math.nextafter(wdw.MAX_NU, math.inf), 1.0)),
    (wdw.bessel_k_imag_order, (math.nan, 1.0)), (wdw.bessel_k_imag_order, (math.inf, 1.0)),
    (wdw.flat_greens_quadrature, (0.0, 1.0, math.inf)),
    (wdw.flat_greens_quadrature, (0.0, 1.0, math.nan)),
    (wdw.flat_greens_quadrature, (math.nan, 1.0, 1.0)),
    (wdw.flat_greens_quadrature, (0.0, 1e200, 1e200)),
], ids=lambda v: getattr(v, "__name__", None))
def test_inputs_outside_the_domain_are_refused(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_runs_without_scipy():
    script = Path(__file__).with_name("run_without_scipy.py")
    env = {**os.environ, "PYTHONPATH": str(Path(wdw.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
