"""Single-branch quantum operators in a truncated Fock basis.

One junction branch is a particle with flux coordinate psi and conjugate
charge rho, [psi, rho] = i hbar. The basis is the number basis of the
harmonic part of the branch, sized by the impedance Z_a of the linearized
mode, truncated at M levels. The flux-periodic potential enters through
functions of the phase 2 pi psi / Phi0, evaluated by spectral calculus on
the truncated flux operator.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .circuit import TWO_PI, CircuitParams, DerivedLinear, derive_linear
from .constants import PHI0, hbar

# Eigenvalues within this fraction of the spectral span count as degenerate
# with the ground state when averaging zero-temperature expectations.
DEGENERACY_RTOL = 1e-12

# Tilts whose spectrum (eigenvalues) and decomposition (eigenvalues and
# eigenvectors) each Branch keeps, the least recently read evicted first.
SPECTRA_MEMO = 256
DECOMPOSITIONS_MEMO = 4


@dataclass(frozen=True)
class FockOperatorSet:
    """Matrices of the branch operators in an M-level number basis.

    psi_op, cos_op and sin_op are real symmetric; rho_op is Hermitian with
    purely imaginary entries. All arrays are read-only.
    """

    Z_a: float
    psi_op: np.ndarray
    rho_op: np.ndarray
    cos_op: np.ndarray
    sin_op: np.ndarray


def build_operators(derived: DerivedLinear, M: int) -> FockOperatorSet:
    """Build the truncated operator set for one branch.

    cos_op and sin_op are cos and sin of 2 pi psi / Phi0, by spectral
    calculus on one eigendecomposition of the flux matrix.

    Parameters
    ----------
    derived : DerivedLinear
        Linearized-circuit data; only Z_a enters, fixing the basis scale.
    M : int
        Number of retained Fock levels, a Python int >= 1 (not a bool).
    """
    _check_levels(M)
    Z_a = derived.Z_a
    lower = np.diag(np.sqrt(np.arange(1.0, M)), k=1)
    psi_op = np.sqrt(hbar * Z_a / 2.0) * (lower + lower.T)
    rho_op = 1j * np.sqrt(hbar / (2.0 * Z_a)) * (lower.T - lower)
    evals, evecs = np.linalg.eigh(psi_op)
    phase = TWO_PI * evals / PHI0
    cos_op = (evecs * np.cos(phase)) @ evecs.T
    sin_op = (evecs * np.sin(phase)) @ evecs.T
    for a in (psi_op, rho_op, cos_op, sin_op):
        a.setflags(write=False)
    return FockOperatorSet(Z_a=Z_a, psi_op=psi_op, rho_op=rho_op, cos_op=cos_op, sin_op=sin_op)


def _check_levels(M) -> None:
    """Raise ValueError unless the truncation M is a Python int >= 1; a bool or a float is not one."""
    if isinstance(M, bool) or not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")


def _check_temperature(kT) -> None:
    """Raise ValueError unless kT, joule, is finite and non-negative."""
    if not 0.0 <= kT < np.inf:
        raise ValueError(f"kT must be finite and non-negative, got {kT!r}")


def atom_hamiltonian(ops: FockOperatorSet, params: CircuitParams) -> np.ndarray:
    """Single-branch Hamiltonian rho^2 / 2 C_J + psi^2 / 2 L_g + E_J cos(2 pi psi / Phi0).

    The product of the purely imaginary rho matrices is exactly real in
    floating point, so the result is a real symmetric matrix.
    """
    kinetic = (ops.rho_op @ ops.rho_op).real / (2.0 * params.C_J)
    potential = (ops.psi_op @ ops.psi_op) / (2.0 * params.L_g)
    return kinetic + potential + params.E_J * ops.cos_op


def gibbs_state(w: np.ndarray, kT: float) -> tuple[float, np.ndarray]:
    """(F, p): free energy and normalized Gibbs weights of the ascending spectrum w at kT, joule.

    At kT = 0, F = w_0 and p is uniform over the ground multiplet, resolved at
    DEGENERACY_RTOL of the spectral span; above, one pass forms the Boltzmann
    factors shifted so that the ground one is 1, which keeps their sum finite.
    """
    _check_temperature(kT)
    if kT == 0.0:
        mask = w - w[0] <= DEGENERACY_RTOL * max(w[-1] - w[0], abs(w[0]))
        return float(w[0]), mask / np.count_nonzero(mask)
    weights = np.exp(-(w - w[0]) / kT)
    total = np.sum(weights)
    return float(w[0] - kT * np.log(total)), weights / total


def _gibbs_average(w, v, operators, kT, response):
    """Free energy and canonical expectations in the Gibbs state of H, from its eigendecomposition (w, v).

    kT is in joule; F and the weights come from one :func:`gibbs_state` of w.
    Returns (F, averages), the free energy of H and the expectation of each
    operator in the tuple. A Hermitian response operator B appends chi, the
    static susceptibility d<B>/dh of H - h B at h = 0 (:func:`_static_response`).
    """
    F, p = gibbs_state(w, kT)
    averages = tuple(float(p @ np.einsum("ij,ij->j", v.conj(), op @ v).real) for op in operators)
    if response is None:
        return F, averages
    # at kT = 0 the Kubo sum reads only the rows of the ground multiplet
    rows = v if kT > 0.0 else v[:, p > 0.0]
    return F, averages, _static_response(w, rows.conj().T @ response @ v, p, kT)


def _static_response(w, Bv, p, kT):
    """Kubo sum for d<B>/dh of H - h B, given B in the eigenbasis of H.

    w are the ascending levels of H, Bv the matrix of B between them and p
    their weights (:func:`gibbs_state`). At kT = 0, p is uniform on the
    ground multiplet, only the rows of Bv on it are read, and chi is
    2 sum |B_gn|^2 / (E_n - E_g) over the rest. At kT > 0 it is sum over
    m != n of (p_m - p_n) / (E_n - E_m) |B_mn|^2 plus the variance of B's
    diagonal over kT. A pair with lower level m is
    p_m (1 - exp(-Delta / kT)) / Delta, Delta = |E_n - E_m|, which tends to
    p_m / kT as Delta -> 0 and cannot overflow; with that limit on the
    diagonal of B - <B>, the variance term joins the same sum.
    """
    if kT == 0.0:
        g = np.count_nonzero(p)
        B2 = np.abs(Bv[:g, g:]) ** 2
        return float(2.0 * np.sum(p[:g] @ B2 / (w[g:] - w[0])))
    B2 = np.abs(Bv) ** 2
    np.fill_diagonal(B2, np.abs(Bv.diagonal() - np.sum(p * Bv.diagonal().real)) ** 2)
    gap = np.abs(w - w[:, None])
    pair = np.divide(-np.expm1(-gap / kT), gap, out=np.full_like(gap, 1.0 / kT), where=gap > 0.0)
    return float(np.sum(np.maximum.outer(p, p) * pair * B2))


@dataclass(frozen=True)
class Branch:
    """Spectral kernel of one junction branch in the resonator flux tilt.

    In the thermodynamic limit the resonator flux phi is classical and
    enters the branch only as the tilt -(phi / L_g) psi, so every
    mean-field, fluctuation and reference-energy quantity is a spectral
    function of hamiltonian(phi). levels are the ascending eigenvalues of
    H_atom and psi_levels the flux matrix in its eigenbasis. All arrays are
    read-only.

    Mean field samples the same tilts many times: every scan at a kernel
    samples one phi lattice, across the branch's window, so the kT rows of a
    phase grid and a solve after its sweep share tilts, and fluct
    renormalizes each column at the tilt mean field just packaged. So each
    kernel keeps, in two functools.lru_cache memos of its own, the eigvalsh
    spectra of the last SPECTRA_MEMO = 256 tilts read by free_energy and the
    eigh decompositions of the last DECOMPOSITIONS_MEMO = 4 read by thermal,
    keyed by the exact bits of phi and read-only. A repeated tilt runs no
    eigensolve and returns bit for bit what a fresh one would; the two memos
    stay apart because eigh's eigenvalues differ from eigvalsh's in the last
    bits. At M levels a kernel holds at most 256 M + 4 (M^2 + M) floats,
    0.24 MB at M = 60 or 0.34 MB with the keys and array headers, so about
    11 MB over the 32 kernels that :func:`branch` caches.
    """

    ops: FockOperatorSet
    H_atom: np.ndarray
    L_g: float
    levels: np.ndarray
    psi_levels: np.ndarray

    def __post_init__(self):
        # this kernel's own memos, keyed by float(phi).hex(), so they are freed with it
        object.__setattr__(self, "_spectrum", lru_cache(SPECTRA_MEMO)(partial(self._solve, "eigvalsh")))
        object.__setattr__(self, "_decomposition", lru_cache(DECOMPOSITIONS_MEMO)(partial(self._solve, "eigh")))

    def _solve(self, solver, key):
        """numpy.linalg's solver of hamiltonian(phi), phi = float.fromhex(key), its arrays read-only."""
        # looked up per call, so a patched numpy.linalg solver is the one run
        solved = getattr(np.linalg, solver)(self.hamiltonian(float.fromhex(key)))
        for a in solved if isinstance(solved, tuple) else (solved,):
            a.setflags(write=False)
        return solved

    def hamiltonian(self, phi: float) -> np.ndarray:
        """Branch Hamiltonian with the resonator flux frozen at phi, joule.

        Completing the square in (psi - phi)^2 / 2 L_g leaves the bare
        branch Hamiltonian plus a linear tilt; the phi^2 constant is left
        to the caller. ValueError for a non-finite phi: every memo miss
        builds its matrix here, so no such tilt enters a memo.
        """
        if not -np.inf < phi < np.inf:
            raise ValueError(f"phi must be finite, got {phi!r}")
        return self.H_atom - (phi / self.L_g) * self.ops.psi_op

    def free_energy(self, phi: float, kT: float) -> float:
        """Branch free energy at frozen resonator flux, joule (eigenvalues only); ground energy at kT = 0;
        ValueError unless phi is finite (:meth:`hamiltonian`) and kT finite and non-negative."""
        _check_temperature(kT)  # before the memo, so a rejected kT runs no eigensolve
        # hex() tells -0.0 from 0.0, whose Hamiltonians may differ in the sign of a zero
        return gibbs_state(self._spectrum(float(phi).hex()), kT)[0]

    def thermal(self, phi: float, kT: float, *operators: np.ndarray, response: np.ndarray | None = None):
        """(F, averages): free energy and the expectation of each operator, at most one eigensolve.

        response=psi_op appends chi = d<psi>/dh, the static response of the branch flux to
        the tilt -h psi at h = phi / L_g, henry; at phi = 0 it is :meth:`susceptibility`.
        """
        _check_temperature(kT)  # before the memo, as in free_energy
        w, v = self._decomposition(float(phi).hex())
        return _gibbs_average(w, v, operators, kT, response)

    def susceptibility(self, kT: float) -> float:
        """Static response d<psi>/dh of the branch to a tilt -h psi at h = 0, henry.

        chi = -d^2 F / dh^2 by the Kubo sum (:func:`_static_response`) on
        levels and psi_levels with the weights p of :func:`gibbs_state`:
        2 sum_n |psi_0n|^2 / (E_n - E_0) at kT = 0, else sum over m != n of
        (p_m - p_n) / (E_n - E_m) |psi_mn|^2, psi_mm being 0 up to rounding
        by the parity of the untilted branch.
        """
        return _static_response(self.levels, self.psi_levels, gibbs_state(self.levels, kT)[1], kT)


def branch(params: CircuitParams, M: int = 60) -> Branch:
    """The cached kernel of the branch of params at truncation M.

    Only L_J, L_g and C_J define the branch, so sweeps over L_R0 or N share
    one entry. M is checked as in :func:`build_operators` before the cache
    is read, where True and 60.0 would hit the entries of 1 and 60.
    """
    _check_levels(M)
    return _branch(params.L_J, params.L_g, params.C_J, M)


@lru_cache(maxsize=32)
def _branch(L_J: float, L_g: float, C_J: float, M: int) -> Branch:
    # the resonator values are placeholders: neither Z_a nor H_atom uses them
    params = CircuitParams(L_J=L_J, L_g=L_g, C_J=C_J, C_R0=C_J, L_R0=L_g)
    ops = build_operators(derive_linear(params), M)
    H_atom = atom_hamiltonian(ops, params)
    levels, vectors = np.linalg.eigh(H_atom)
    psi_levels = vectors.T @ ops.psi_op @ vectors
    for a in (H_atom, levels, psi_levels):
        a.setflags(write=False)
    return Branch(ops=ops, H_atom=H_atom, L_g=L_g, levels=levels, psi_levels=psi_levels)
