"""Evolution of Hamiltonian: exact spectral propagators and Trotter splitting.

The exact route diagonalizes once and applies exp(-i w t) in the eigenbasis.
The Trotter route exponentiates each part of a Hamiltonian splitting exactly
(every part is Hermitian, so its propagator is a spectral exponential) and
interleaves them: order 1 is the plain product, order 2 the symmetric Strang
product. Kernel amplitudes <f| e^{-iHt} |i> and |K|^2 profiles over a grid
are thin wrappers around these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisKind, build_momentum_squared, build_position, require_hermitian
from .errors import DomainError, ShapeError
from .models import MinisuperspaceKind, MinisuperspaceParams, minisuperspace_v_eff


@dataclass
class EvolveResult:
    final: np.ndarray
    t: float
    steps: int
    order: int
    fidelity_vs_exact: float | None = None


@dataclass
class KernelProfile:
    grid: np.ndarray
    tau: float
    values: np.ndarray

    @property
    def squared(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def exact_evolve(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-iHt) |psi> through the spectral decomposition of H."""
    h = require_hermitian(np.asarray(h, dtype=complex))
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ShapeError("state/operator dimension mismatch")
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * w * t) * (u.conj().T @ psi))


def _propagator(h: np.ndarray, t: float) -> np.ndarray:
    w, u = np.linalg.eigh(h)
    return (u * np.exp(-1j * w * t)) @ u.conj().T


def trotter_evolve(
    parts,
    t: float,
    steps: int,
    order: int,
    psi: np.ndarray,
    total: np.ndarray | None = None,
    compute_fidelity: bool = False,
) -> EvolveResult:
    """Split-propagator evolution over ``steps`` slices of duration t/steps.

    ``parts`` is a list of Hermitian matrices whose sum is the Hamiltonian;
    when ``total`` is supplied the sum is checked against it. Each part's
    slice propagator is exact, so a single part reproduces exact evolution
    for any step count.
    """
    parts = [require_hermitian(np.asarray(p, dtype=complex)) for p in parts]
    if not parts:
        raise ShapeError("need at least one part")
    if steps < 1:
        raise ShapeError("steps must be >= 1")
    if order not in (1, 2):
        raise ShapeError("order must be 1 or 2")
    dim = parts[0].shape[0]
    summed = sum(parts)
    if total is not None:
        total = np.asarray(total, dtype=complex)
        if np.max(np.abs(summed - total)) > 1e-12 * max(1.0, np.max(np.abs(total))):
            raise ShapeError("parts do not sum to the supplied Hamiltonian")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise ShapeError("state/operator dimension mismatch")

    dt = t / steps
    out = psi.copy()
    if order == 1:
        props = [_propagator(p, dt) for p in parts]
        for _ in range(steps):
            for u in props:
                out = u @ out
    else:
        half = [_propagator(p, dt / 2.0) for p in parts[:-1]]
        mid = _propagator(parts[-1], dt)
        for _ in range(steps):
            for u in half:
                out = u @ out
            out = mid @ out
            for u in reversed(half):
                out = u @ out

    fidelity = None
    if compute_fidelity:
        exact = exact_evolve(summed, t, psi)
        fidelity = float(np.abs(np.vdot(exact, out)))
    return EvolveResult(final=out, t=t, steps=steps, order=order, fidelity_vs_exact=fidelity)


# ---------------------------------------------------------------------------
# free propagation on an interval

def free_interval_hamiltonian(n_qubits: int) -> np.ndarray:
    """Kinetic-only Hamiltonian P^2/2 on the finite-difference grid."""
    return build_momentum_squared(BasisKind.FINITE_DIFFERENCE, 2**n_qubits) / 2.0


def split_even_odd(h: np.ndarray) -> list[np.ndarray]:
    """Split a tridiagonal Hamiltonian into non-commuting even/odd bond parts.

    The diagonal is shared equally; bond (i, i+1) goes to the even part for
    even i and to the odd part otherwise. The two parts sum to ``h`` exactly
    and their commutator is nonzero, which makes the splitting error of the
    Trotter product measurable.
    """
    h = require_hermitian(np.asarray(h, dtype=complex))
    even = np.diag(np.diagonal(h)) / 2.0
    odd = even.copy()
    for part, first in ((even, 0), (odd, 1)):
        i = np.arange(first, h.shape[0] - 1, 2)
        part[i, i + 1] = h[i, i + 1]
        part[i + 1, i] = h[i + 1, i]
    return [even, odd]


def fd_grid(n_qubits: int) -> np.ndarray:
    return np.real(np.diagonal(build_position(BasisKind.FINITE_DIFFERENCE, 2**n_qubits)))


PROFILE_STEPS, PROFILE_ORDER = 64, 2
"""Default Trotter slices and order of the fifth-time profiles."""


def _profiles(parts, grid, psi0, tau_list, steps, order) -> list[KernelProfile]:
    """Trotter-evolved ``psi0`` at each tau (tau = 0 is ``psi0`` itself)."""
    profiles = []
    for tau in tau_list:
        if tau == 0.0:
            final = psi0.copy()
        else:
            final = trotter_evolve(parts, float(tau), steps, order, psi0).final
        profiles.append(KernelProfile(grid=grid, tau=float(tau), values=final))
    return profiles


def interval_propagation_profile(
    n_qubits: int,
    tau_list,
    x0_index: int,
    steps: int = PROFILE_STEPS,
    order: int = PROFILE_ORDER,
) -> list[KernelProfile]:
    """|K(x, x0; tau)|^2 profiles for free propagation along an interval.

    Evolution uses the even/odd bond split of the kinetic term, so the
    profiles carry genuine (step-controlled) Trotter error.
    """
    h = free_interval_hamiltonian(n_qubits)
    parts = split_even_odd(h)
    grid = fd_grid(n_qubits)
    if not 0 <= x0_index < grid.size:
        raise ShapeError("x0_index out of range")
    psi0 = np.zeros(grid.size, dtype=complex)
    psi0[x0_index] = 1.0
    return _profiles(parts, grid, psi0, tau_list, steps, order)


def gaussian_on_grid(grid: np.ndarray, center: float, width: float) -> np.ndarray:
    """Normalized Gaussian amplitudes; DomainError if none survive on the grid."""
    with np.errstate(all="ignore"):
        psi = np.exp(-((grid - center) ** 2) / (4.0 * width * width)).astype(complex)
        norm = np.linalg.norm(psi)
    if not (np.isfinite(norm) and norm > 0.0):
        raise DomainError(f"Gaussian with center {center} and width {width} has norm {norm} "
                          "on the grid")
    return psi / norm


def double_well_parts(
    params: MinisuperspaceParams,
    n_qubits: int,
    kind: MinisuperspaceKind = MinisuperspaceKind.NEG_LAMBDA_MORSE,
) -> list[np.ndarray]:
    """Kinetic and potential parts of the fifth-time barrier Hamiltonian.

    For the negative-cosmological-constant kind the exponential potential is
    continued to the symmetric quartic double well in the grid variable
    (exp(2 alpha) -> y^2); the spherical kind keeps its exponential form.
    """
    if kind not in (MinisuperspaceKind.NEG_LAMBDA_MORSE, MinisuperspaceKind.MORSE_S2):
        raise ShapeError("double-well evolution expects a Morse-family kind")
    grid = fd_grid(n_qubits)
    v = params.volume(kind)
    if kind is MinisuperspaceKind.NEG_LAMBDA_MORSE:
        pot = 2.0 * v**2 * params.k_curv * grid**2 - 2.0 * v**2 * params.Lambda * grid**4
    else:
        pot = minisuperspace_v_eff(kind, params)(grid)
    kinetic = build_momentum_squared(BasisKind.FINITE_DIFFERENCE, 2**n_qubits) / 2.0
    return [kinetic, np.diag(pot.astype(complex))]


def double_well_eoh(
    params: MinisuperspaceParams,
    n_qubits: int,
    tau_list,
    center: float,
    width: float,
    kind: MinisuperspaceKind = MinisuperspaceKind.NEG_LAMBDA_MORSE,
    steps: int = PROFILE_STEPS,
    order: int = PROFILE_ORDER,
) -> list[KernelProfile]:
    """Evolve a Gaussian through fifth time in the :func:`double_well_parts` barrier.

    Kinetic/potential splitting: both factors exponentiate exactly.
    """
    parts = double_well_parts(params, n_qubits, kind)
    grid = fd_grid(n_qubits)
    psi0 = gaussian_on_grid(grid, center, width)
    return _profiles(parts, grid, psi0, tau_list, steps, order)
