"""Load qcosmo before numpy, so that the tests run BLAS on one thread as the CLI does.

pytest imports the module of each warning class named in the ``filterwarnings``
ini option before it loads this file. numpy's ComplexWarning is therefore made
an error here, after ``import qcosmo`` has pinned the BLAS threads, and not in
pyproject.toml; the in-process runs then match the child processes the tests
compare them with.
"""
import qcosmo  # noqa: F401


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")
