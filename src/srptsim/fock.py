"""Single-branch quantum operators in a truncated Fock basis.

One junction branch is a particle with flux coordinate psi and conjugate
charge rho, [psi, rho] = i hbar. The basis is the number basis of the
harmonic part of the branch, sized by the impedance Z_a of the linearized
mode, truncated at M levels. The flux-periodic potential enters through
functions of the phase 2 pi psi / Phi0, evaluated by spectral calculus on
the truncated flux operator.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import TWO_PI, CircuitParams, DerivedLinear
from .constants import PHI0, hbar

# Eigenvalues within this fraction of the spectral span count as degenerate
# with the ground state when averaging zero-temperature expectations.
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class FockOperatorSet:
    """Matrices of the branch operators in an M-level number basis.

    psi_op and cos_op are real symmetric; rho_op is Hermitian with purely
    imaginary entries. All arrays are read-only.
    """

    M: int
    Z_a: float
    psi_op: np.ndarray
    rho_op: np.ndarray
    number_op: np.ndarray
    cos_op: np.ndarray


def _phase_matrix(psi_op: np.ndarray, fn) -> np.ndarray:
    """fn(2 pi psi / Phi0) through the eigendecomposition of the flux matrix."""
    evals, evecs = np.linalg.eigh(psi_op)
    return (evecs * fn(TWO_PI * evals / PHI0)) @ evecs.T


def build_operators(derived: DerivedLinear, M: int) -> FockOperatorSet:
    """Build the truncated operator set for one branch.

    Parameters
    ----------
    derived : DerivedLinear
        Linearized-circuit data; only Z_a enters, fixing the basis scale.
    M : int
        Number of retained Fock levels, at least 1.
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    Z_a = derived.Z_a
    lower = np.diag(np.sqrt(np.arange(1.0, M)), k=1)
    psi_op = np.sqrt(hbar * Z_a / 2.0) * (lower + lower.T)
    rho_op = 1j * np.sqrt(hbar / (2.0 * Z_a)) * (lower.T - lower)
    number_op = np.diag(np.arange(float(M)))
    cos_op = _phase_matrix(psi_op, np.cos)
    for a in (psi_op, rho_op, number_op, cos_op):
        a.setflags(write=False)
    return FockOperatorSet(
        M=M, Z_a=Z_a, psi_op=psi_op, rho_op=rho_op, number_op=number_op, cos_op=cos_op
    )


def phase_function(ops: FockOperatorSet, fn) -> np.ndarray:
    """Matrix of fn(2 pi psi / Phi0) in the basis of ops."""
    return _phase_matrix(np.asarray(ops.psi_op), fn)


def sin_operator(ops: FockOperatorSet) -> np.ndarray:
    return phase_function(ops, np.sin)


def atom_hamiltonian(ops: FockOperatorSet, params: CircuitParams) -> np.ndarray:
    """Single-branch Hamiltonian rho^2 / 2 C_J + psi^2 / 2 L_g + E_J cos(2 pi psi / Phi0).

    The product of the purely imaginary rho matrices is exactly real in
    floating point, so the result is a real symmetric matrix.
    """
    kinetic = (ops.rho_op @ ops.rho_op).real / (2.0 * params.C_J)
    potential = (ops.psi_op @ ops.psi_op) / (2.0 * params.L_g)
    return kinetic + potential + params.E_J * ops.cos_op


def effective_hamiltonian(ops: FockOperatorSet, params: CircuitParams, phi: float) -> np.ndarray:
    """Branch Hamiltonian with the resonator flux phi frozen at a classical value.

    Completing the square in (psi - phi)^2 / 2 L_g leaves the bare branch
    Hamiltonian plus a linear tilt; the phi^2 constant is accounted for
    separately by the caller.
    """
    return atom_hamiltonian(ops, params) - (phi / params.L_g) * ops.psi_op


def thermal_expectation(H: np.ndarray, A: np.ndarray, kT: float) -> float:
    """Canonical expectation value of A in the Gibbs state of H.

    kT is in joule. At kT = 0 the expectation is averaged over the ground
    multiplet, with degeneracy resolved at 1e-12 of the spectral span.
    """
    if kT < 0:
        raise ValueError(f"kT must be non-negative, got {kT}")
    w, v = np.linalg.eigh(H)
    diag = np.einsum("ij,ij->j", v.conj(), A @ v).real
    if kT == 0.0:
        span = w[-1] - w[0]
        mask = w - w[0] <= DEGENERACY_RTOL * max(span, abs(w[0]))
        return float(np.mean(diag[mask]))
    weights = np.exp(-(w - w[0]) / kT)
    return float(np.sum(weights * diag) / np.sum(weights))


def free_energy(H: np.ndarray, kT: float) -> float:
    """Helmholtz free energy of the truncated spectrum of H; the ground energy at kT = 0.

    The Boltzmann weights are shifted so that the largest is 1, which keeps
    the sum finite at any temperature; weights far above kT underflow to 0.
    """
    if kT < 0:
        raise ValueError(f"kT must be non-negative, got {kT}")
    w = np.linalg.eigvalsh(H)
    if kT == 0.0:
        return float(w[0])
    return float(w[0] - kT * np.log(np.sum(np.exp(-(w - w[0]) / kT))))


def atom_partition_free_energy(
    ops: FockOperatorSet, params: CircuitParams, phi: float, kT: float
) -> float:
    """Helmholtz free energy of one branch at frozen resonator flux, joule.

    Computed as E_0 - kT log sum exp(-(E_n - E_0) / kT) over the truncated
    spectrum, which is stable at any temperature. kT must be positive; the
    zero-temperature limit is just the ground energy and callers handle it
    directly.
    """
    if kT <= 0:
        raise ValueError(f"kT must be positive, got {kT}")
    return free_energy(effective_hamiltonian(ops, params, phi), kT)


@dataclass(frozen=True)
class AtomSpectrum:
    """Eigendecomposition of the bare branch Hamiltonian.

    energies ascending (joule), wavefunction_basis holds the eigenvectors
    in columns, epsilon_a0 the ground
    energy. Used as the per-branch reference when comparing many-branch
    ground energies across couplings.
    """

    energies: np.ndarray
    wavefunction_basis: np.ndarray
    epsilon_a0: float


def atom_spectrum(ops: FockOperatorSet, params: CircuitParams) -> AtomSpectrum:
    w, v = np.linalg.eigh(atom_hamiltonian(ops, params))
    return AtomSpectrum(energies=w, wavefunction_basis=v, epsilon_a0=float(w[0]))
