"""Evolution of Hamiltonian: Trotter splitting, with exact evolution as its one-part case.

The Trotter route exponentiates each part of a Hamiltonian splitting exactly
(every part is Hermitian, so its propagator is a spectral exponential) and
interleaves them: order 1 is the plain product, order 2 the symmetric Strang
product. It works in the eigenbasis of the first part, where that part's slice
is a phase per entry, multiplies one slice into a single step matrix and
applies it ``steps`` times. The exact state is the product of one part, H
itself, over one step: exp(-i w t) applied in H's eigenbasis. Each part is
checked by ``bases.require_hermitian``, which returns a matrix with no
imaginary part as real, so such a part is diagonalised in real arithmetic.
When the dimension is even and every part is centrosymmetric (commutes with
the grid reversal J, as every part of both EOH kinds does), the list is split
once into its two reflection sectors, each running the same product on
half-size blocks: a step is two half-size matvecs. A diagonal part or block
takes no eigensolve, any other one ``eigh``. A profile checks and diagonalises
each part, and their sum, once for all its times. A phase max|w|*|t| above
``MAX_PHASE`` is a DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (BasisKind, build_momentum_squared, build_position, is_diagonal,
                    pairing_blocks, pairing_join, pairing_split, reflection, require_hermitian)
from .errors import DomainError, ShapeError
from .models import MinisuperspaceKind, MinisuperspaceParams


@dataclass
class EvolveResult:
    final: np.ndarray
    t: float
    steps: int
    order: int


@dataclass
class KernelProfile:
    """Trotter state ``values`` and exact state ``exact`` at fifth time ``tau``."""

    grid: np.ndarray
    tau: float
    values: np.ndarray
    exact: np.ndarray

    @property
    def squared(self) -> np.ndarray:
        return np.abs(self.values) ** 2


MAX_PHASE = 1e12
"""Largest max|w|*|t| evolved: the rounding of w alone moves such a phase by about 1e-4 rad."""


def exact_evolve(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-iHt) |psi>: the one-part, one-step Trotter product, exact for a single part."""
    # not trotter_evolve: a wrapper that counts its Trotter steps must not count this call
    parts, psi = _checked([h], 1, 1, psi)
    return _trotter(_split(parts), t, 1, 1, psi)


def _checked(parts, steps: int, order: int, psi: np.ndarray):
    """The parts as ``require_hermitian`` returns them, the state as complex; shapes checked."""
    parts = [require_hermitian(p) for p in parts]
    if not parts:
        raise ShapeError("need at least one part")
    if steps < 1:
        raise ShapeError("steps must be >= 1")
    if order not in (1, 2):
        raise ShapeError("order must be 1 or 2")
    psi = np.asarray(psi, dtype=complex)
    dim = parts[0].shape[0]
    if psi.shape != (dim,) or any(p.shape != (dim, dim) for p in parts):
        raise ShapeError("state/operator dimension mismatch")
    return parts, psi


def _eigh(p: np.ndarray):
    """Eigenvalues, in no set order, and orthonormal eigenvectors; I for a diagonal part."""
    if is_diagonal(p):
        return np.diagonal(p).real, np.eye(p.shape[0])
    return np.linalg.eigh(p)


def _split(parts):
    """The reflection pairing and a :func:`_split_sector` per sector, or None and one of all.

    At dimension 2m, every part p = JpJ bit for bit (J the reversal, ``bases.reflection``)
    acts on the sectors (x; +-Jx)/sqrt(2) as the m x m blocks of ``bases.pairing_blocks``.
    """
    pairing = reflection(parts)
    if pairing is None:
        return None, [_split_sector(parts)]
    blocks = [pairing_blocks(p, pairing) for p in parts]
    return pairing, [_split_sector([b[sector] for b in blocks]) for sector in (0, 1)]


def _split_sector(parts):
    """Each part's eigenvalues, part 0's eigenvectors u_0, and u_0^dag u_i for each later part i.

    In u_0's basis part 0 is diagonal and part i is (v_i * w_i) @ v_i^dag, with v_i the overlap.
    A diagonal part i has eigenvectors I, so its overlap is u_0^dag with no product.
    """
    spectra = [_eigh(p) for p in parts]
    u0 = spectra[0][1]
    u0h = u0.conj().T
    overlaps = [u0h if is_diagonal(p) else u0h @ u for p, (_, u) in zip(parts[1:], spectra[1:])]
    return [w for w, _ in spectra], u0, overlaps


def _trotter(split, t: float, steps: int, order: int, psi: np.ndarray) -> np.ndarray:
    """The Trotter product of each sector of a :func:`_split` applied to its share of ``psi``.

    Two sectors take the state in and give it back through ``bases.pairing_split`` and
    ``bases.pairing_join``; neither is a matrix product.
    """
    pairing, sectors = split
    if pairing is None:
        return _trotter_sector(sectors[0], t, steps, order, psi)
    shares = pairing_split(psi, pairing)
    return pairing_join(*(_trotter_sector(sector, t, steps, order, share)
                          for sector, share in zip(sectors, shares)), pairing)


def _trotter_sector(split, t: float, steps: int, order: int, psi: np.ndarray) -> np.ndarray:
    """The order-1 product or order-2 Strang product of ``steps`` slices, applied to ``psi``.

    One slice is multiplied into a single step matrix in part 0's eigenbasis. Part 0
    comes first, so the product starts as a vector of phases and stays one until
    another part multiplies it; the closing half slice of part 0 in a Strang product
    scales rows. Part i's factor v_i diag(phases) v_i^dag takes two real products,
    written into its real and imaginary parts, when its overlap v_i is real.
    """
    w, u0, v = split
    phase = abs(float(t)) * float(np.max(np.abs(np.concatenate(w))))
    if not phase <= MAX_PHASE:
        raise DomainError(f"phase max|w t| = {phase:.3g} at t = {t} is above {MAX_PHASE:g}")
    dt = t / steps
    if order == 1:
        factors = [(i, dt) for i in range(len(w))]
    else:
        half = [(i, dt / 2.0) for i in range(len(w) - 1)]
        factors = half + [(len(w) - 1, dt)] + half[::-1]
    (_, t0), *rest = factors
    s = np.exp(-1j * w[0] * t0)
    for i, ti in rest:
        phases = np.exp(-1j * w[i] * ti)
        if i == 0:
            s = phases[:, None] * s
            continue
        vi = v[i - 1]
        if np.iscomplexobj(vi):
            factor = (vi * phases) @ vi.conj().T
        else:
            factor = np.empty(vi.shape, complex)
            np.matmul(vi * phases.real, vi.T, out=factor.real)
            np.matmul(vi * phases.imag, vi.T, out=factor.imag)
        s = np.multiply(factor, s, out=factor) if s.ndim == 1 else factor @ s
    apply = np.multiply if s.ndim == 1 else np.matmul
    out = u0.conj().T @ psi
    spare = np.empty_like(out)
    for _ in range(steps):
        out, spare = apply(s, out, out=spare), out
    return u0 @ out


def trotter_evolve(parts, t: float, steps: int, order: int, psi: np.ndarray) -> EvolveResult:
    """Split-propagator evolution over ``steps`` slices of duration t/steps.

    ``parts`` is a list of Hermitian matrices whose sum is the Hamiltonian.
    Each part's slice propagator is exact, so a single part reproduces exact
    evolution for any step count.
    """
    parts, psi = _checked(parts, steps, order, psi)
    final = _trotter(_split(parts), t, steps, order, psi)
    return EvolveResult(final=final, t=t, steps=steps, order=order)


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
    h = require_hermitian(h)
    even = np.diag(np.diagonal(h)) / 2.0
    odd = even.copy()
    for part, first in ((even, 0), (odd, 1)):
        i = np.arange(first, h.shape[0] - 1, 2)
        part[i, i + 1] = h[i, i + 1]
        part[i + 1, i] = h[i + 1, i]
    return [even, odd]


def fd_grid(n_qubits: int) -> np.ndarray:
    return np.diagonal(build_position(BasisKind.FINITE_DIFFERENCE, 2**n_qubits))


def _profiles(parts, grid, psi0, tau_list, steps, order) -> list[KernelProfile]:
    """Trotter and exact states of ``psi0`` at each tau; the Trotter state at tau = 0 is ``psi0``.

    Each part and H = sum(parts) is diagonalised once; every tau reuses those eigenpairs.
    """
    parts, psi0 = _checked(parts, steps, order, psi0)
    split, exact = _split(parts), _split([sum(parts)])
    profiles = []
    for tau in map(float, tau_list):
        values = psi0.copy() if tau == 0.0 else _trotter(split, tau, steps, order, psi0)
        profiles.append(KernelProfile(grid, tau, values, _trotter(exact, tau, 1, 1, psi0)))
    return profiles


def interval_propagation_profile(
    n_qubits: int, tau_list, x0_index: int, steps: int, order: int
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


def double_well_parts(params: MinisuperspaceParams, n_qubits: int) -> list[np.ndarray]:
    """Kinetic and potential parts of the fifth-time barrier Hamiltonian.

    The negative-cosmological-constant Morse potential is continued to the
    symmetric quartic double well in the grid variable (exp(2 alpha) -> y^2).
    The scalar momentum enters as -p_phi^2, as in ``minisuperspace_v_eff``.
    """
    grid = fd_grid(n_qubits)
    v = params.volume(MinisuperspaceKind.NEG_LAMBDA_MORSE)
    g2 = grid * grid  # not grid**4: numpy's power is not even in y to the last bit
    with np.errstate(all="ignore"):  # _checked refuses a non-finite potential
        pot = 2.0 * v**2 * params.k_curv * g2 - 2.0 * v**2 * params.Lambda * (g2 * g2)
        pot = pot - params.p_phi**2
    return [free_interval_hamiltonian(n_qubits), np.diag(pot)]


def double_well_eoh(
    params: MinisuperspaceParams, n_qubits: int, tau_list, center: float, width: float,
    steps: int, order: int,
) -> list[KernelProfile]:
    """Evolve a Gaussian through fifth time in the :func:`double_well_parts` barrier.

    Kinetic/potential splitting: both factors exponentiate exactly.
    """
    parts = double_well_parts(params, n_qubits)
    grid = fd_grid(n_qubits)
    psi0 = gaussian_on_grid(grid, center, width)
    return _profiles(parts, grid, psi0, tau_list, steps, order)
