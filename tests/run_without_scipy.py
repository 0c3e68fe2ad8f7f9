"""Import every qcosmo module and run each wdw function with scipy blocked.

    PYTHONPATH=src python tests/run_without_scipy.py

scipy is a test oracle only: with ``sys.modules["scipy"] = None`` any import
of scipy or of one of its submodules raises ImportError, so this script exits
non-zero if a qcosmo module needs scipy at run time. It prints "ok" on success.
"""

import importlib
import pkgutil
import sys

sys.modules["scipy"] = None

import qcosmo  # noqa: E402
from qcosmo import models, wdw  # noqa: E402

for info in pkgutil.iter_modules(qcosmo.__path__):
    importlib.import_module(f"qcosmo.{info.name}")

values = [
    wdw.bessel_k0(1.0),
    wdw.bessel_k_imag_order(1.5, 2.0),
    wdw.flat_greens_quadrature(0.0, 1.0, 1.0),  # spacelike
    wdw.flat_greens_quadrature(1.0, 0.0, 1.0),  # timelike
    wdw.free_kernel(0.1, -0.2, 0.5),
    wdw.inverted_oscillator_kernel(0.1, -0.2, 0.5, 1.0),
    wdw.inverted_linear_kernel(0.1, -0.2, 0.5, 1.0),
    wdw.bogoliubov_coeffs(0.7).alpha,
    wdw.integrate_zero_energy(lambda x: -1.0 + 0.0 * x, (0.0, 1.0), (1.0, 0.0), 11)[2],
    wdw.wdw_solve_ode(models.MinisuperspaceKind.INV_LIOUVILLE, models.MinisuperspaceParams(),
                      1.0, (-1.0, 0.0), num_points=11).residual,
]
assert all(abs(v) < float("inf") for v in values), values
assert not any(name.split(".")[0] == "scipy" for name, mod in sys.modules.items() if mod), \
    "a scipy module was loaded"
print("ok")
