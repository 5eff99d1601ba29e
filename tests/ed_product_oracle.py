"""Product-basis exact diagonalization, kept as the oracle of the symmetric sector.

A product state is the photon number plus one level per branch, every
ordering of the branch levels a separate state. The sector is therefore
the full tensor product of N identical branches, cut by the two cutoffs
and the total-excitation parity; it contains the exchange-odd states
that ed's permutation-symmetric sector leaves out. Each branch hops on
its own, so there are no multiplicity factors and no re-sorting. The
module shares BasisIndex, _locate and the branch block with ed, and
nothing else; build_sector_model puts its matrices in ed.SectorModel's
layout, one CSR pattern for both, without changing an entry.

observables is the two-sector combine that ed.scan once went through,
kept here so both oracles report a point the way the old scan did.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from srptsim import ed
from srptsim.circuit import derive_linear
from srptsim.constants import hbar
from srptsim.errors import ConfigError, ConvergenceError


def count_sector_dimension(n_modes: int, per_mode_cutoff: int, total_cutoff: int, parity: int) -> int:
    """Number of occupation vectors in the sector, without materializing them."""
    counts = np.zeros(total_cutoff + 1, dtype=np.int64)
    counts[0] = 1
    window = per_mode_cutoff + 1
    for _ in range(n_modes):
        acc = np.cumsum(counts)
        shifted = np.zeros_like(acc)
        if window <= total_cutoff:
            shifted[window:] = acc[:-window]
        counts = acc - shifted
    return int(counts[parity::2].sum())


def build_basis(config: ed.EdConfig, parity: int) -> ed.BasisIndex:
    """Enumerate the parity sector, guarded by config.max_dimension."""
    n_modes = config.n_atoms + 1
    dim = count_sector_dimension(n_modes, config.per_mode_cutoff, config.total_cutoff, parity)
    if dim == 0:
        raise ConfigError("sector is empty for these cutoffs")
    if dim > config.max_dimension:
        raise ConfigError(
            f"sector dimension {dim} exceeds max_dimension = {config.max_dimension}; "
            "raise the limit explicitly if this size is intended"
        )
    occ = np.zeros((1, 0), dtype=np.int32)
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(n_modes):
        kmax = np.minimum(config.per_mode_cutoff, config.total_cutoff - sums)
        counts = kmax + 1
        rows = np.repeat(np.arange(occ.shape[0]), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        k = np.arange(counts.sum()) - starts
        occ = np.concatenate([occ[rows], k[:, None].astype(np.int32)], axis=1)
        sums = sums[rows] + k
    keep = (sums % 2) == parity
    occ = occ[keep]
    radix = np.int64(config.per_mode_cutoff + 1)
    powers = radix ** np.arange(n_modes - 1, -1, -1, dtype=np.int64)
    keys = occ.astype(np.int64) @ powers
    occ.setflags(write=False)
    keys.setflags(write=False)
    return ed.BasisIndex(
        occupations=occ,
        per_mode_cutoff=config.per_mode_cutoff,
        total_cutoff=config.total_cutoff,
        parity=parity,
        keys=keys,
        radix_powers=powers,
    )


def _gather_offdiagonal(basis, mode, delta, amplitudes):
    """COO triplets for an occupation hop of +delta in one mode.

    amplitudes has one entry per basis state, the matrix element from that
    state; entries whose target leaves the sector are dropped.
    """
    occ_m = basis.occupations[:, mode].astype(np.int64)
    totals = basis.occupations.sum(axis=1, dtype=np.int64)
    mask = (
        (occ_m + delta <= basis.per_mode_cutoff)
        & (totals + delta <= basis.total_cutoff)
        & (amplitudes != 0.0)
    )
    src = np.nonzero(mask)[0]
    if src.size == 0:
        return src, src, np.zeros(0)
    cols = ed._locate(basis, basis.keys[src] + delta * basis.radix_powers[mode])
    return src, cols, amplitudes[src]


def _atom_static_matrix(basis: ed.BasisIndex, block: np.ndarray) -> sp.csr_matrix:
    """sum_j block(j) embedded in the sector, from the upper triangle of block."""
    dim = basis.dim
    n_modes = basis.occupations.shape[1]
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for j in range(1, n_modes):
        occ_j = basis.occupations[:, j]
        diag += block[occ_j, occ_j]
        for delta in range(2, block.shape[0], 2):
            band = np.diagonal(block, offset=delta)
            if not np.any(band != 0.0):
                continue
            amp = np.zeros(dim)
            reach = occ_j <= block.shape[0] - 1 - delta
            amp[reach] = block[occ_j[reach], occ_j[reach] + delta]
            r, c, v = _gather_offdiagonal(basis, j, delta, amp)
            rows.append(r)
            cols.append(c)
            vals.append(v)
    upper = sp.coo_matrix(
        (np.concatenate(vals) if vals else np.zeros(0),
         (np.concatenate(rows) if rows else np.zeros(0, int),
          np.concatenate(cols) if cols else np.zeros(0, int))),
        shape=(dim, dim),
    ).tocsr()
    return upper + upper.T + sp.diags(diag).tocsr()


def _coupling_matrix(basis: ed.BasisIndex) -> sp.csr_matrix:
    """V = sum_j (a + a^dag)(b_j + b_j^dag) embedded in the sector."""
    dim = basis.dim
    n_modes = basis.occupations.shape[1]
    occ0 = basis.occupations[:, 0].astype(np.int64)
    totals = basis.occupations.sum(axis=1, dtype=np.int64)
    rows, cols, vals = [], [], []
    for j in range(1, n_modes):
        occ_j = basis.occupations[:, j].astype(np.int64)
        # photon up, branch up: key strictly increases, upper triangle
        amp = np.sqrt((occ0 + 1.0) * (occ_j + 1.0))
        ok = (occ0 < basis.per_mode_cutoff) & (occ_j < basis.per_mode_cutoff) & (totals + 2 <= basis.total_cutoff)
        amp[~ok] = 0.0
        src = np.nonzero(amp != 0.0)[0]
        if src.size:
            rows.append(src)
            cols.append(ed._locate(basis, basis.keys[src] + basis.radix_powers[0] + basis.radix_powers[j]))
            vals.append(amp[src])
        # photon up, branch down: key still increases, mode 0 dominates
        amp = np.sqrt((occ0 + 1.0) * occ_j)
        ok = (occ0 < basis.per_mode_cutoff) & (occ_j >= 1)
        amp[~ok] = 0.0
        src = np.nonzero(amp != 0.0)[0]
        if src.size:
            rows.append(src)
            cols.append(ed._locate(basis, basis.keys[src] + basis.radix_powers[0] - basis.radix_powers[j]))
            vals.append(amp[src])
    upper = sp.coo_matrix(
        (np.concatenate(vals) if vals else np.zeros(0),
         (np.concatenate(rows) if rows else np.zeros(0, int),
          np.concatenate(cols) if cols else np.zeros(0, int))),
        shape=(dim, dim),
    ).tocsr()
    return upper + upper.T


def branch_block(params, config: ed.EdConfig) -> np.ndarray:
    """The dense branch Hamiltonian the sectors at config embed, ed's own."""
    return ed._branch_terms(params, config.per_mode_cutoff + 1, config.quartic)[0]


def reference_energy(params, config: ed.EdConfig) -> float:
    """Ground energy of that branch block, the reference of delta_eps."""
    return float(np.linalg.eigvalsh(branch_block(params, config))[0])


def _on_one_pattern(atom_static: sp.csr_matrix, coupling: sp.csr_matrix):
    """Both matrices on the union of their entries and the diagonal, sharing one indices and one
    indptr array, each entry's value unchanged, and the position of each row's diagonal entry:
    the layout of ed.SectorModel."""
    dim = atom_static.shape[0]
    atom_static, coupling = atom_static.tocoo(), coupling.tocoo()
    diag = np.arange(dim)
    rows = np.concatenate([atom_static.row, coupling.row, diag])
    cols = np.concatenate([atom_static.col, coupling.col, diag])
    zeros_a, zeros_c, zeros_d = np.zeros(atom_static.nnz), np.zeros(coupling.nnz), np.zeros(dim)
    atom = sp.csr_matrix((np.concatenate([atom_static.data, zeros_c, zeros_d]), (rows, cols)), shape=(dim, dim))
    placed = sp.csr_matrix((np.concatenate([zeros_a, coupling.data, zeros_d]), (rows, cols)), shape=(dim, dim))
    assert np.array_equal(placed.indices, atom.indices) and np.array_equal(placed.indptr, atom.indptr)
    coupling = sp.csr_matrix((placed.data, atom.indices, atom.indptr), shape=(dim, dim))
    diagonal = np.flatnonzero(atom.indices == np.repeat(diag, np.diff(atom.indptr)))
    return atom, coupling, diagonal


def build_sector_model(params, config: ed.EdConfig, parity: int) -> ed.SectorModel:
    """ed.build_sector_model on the product basis."""
    basis = build_basis(config, parity)
    photon_number = basis.occupations[:, 0].astype(float) + 0.5
    photon_number.setflags(write=False)
    atom_static, coupling, diagonal = _on_one_pattern(
        _atom_static_matrix(basis, branch_block(params, config)), _coupling_matrix(basis)
    )
    return ed.SectorModel(
        config=config,
        basis=basis,
        photon_number=photon_number,
        atom_static=atom_static,
        coupling=coupling,
        diagonal=diagonal,
        atom_key=(params.L_J, params.L_g, params.C_J),
    )


def observables(config: ed.EdConfig, params, even: ed.SectorEigen, odd: ed.SectorEigen,
                epsilon_a0: float | None = None) -> SimpleNamespace:
    """One scan point from the even and the odd sector solve, energies in joule."""
    E_g = float(even.values[0])
    if odd.values[0] < E_g:
        raise ConvergenceError("odd sector fell below the even ground state")
    if epsilon_a0 is None:
        epsilon_a0 = reference_energy(params, config)
    omega_c = derive_linear(params).omega_c
    return SimpleNamespace(
        E_g=E_g,
        photon_number_per_atom=even.photon_number / config.n_atoms,
        transition_even=float(even.values[1] - E_g),
        transition_odd=float(odd.values[0] - E_g),
        delta_eps=float((E_g - hbar * omega_c / 2.0) / config.n_atoms - epsilon_a0),
        dim_even=even.dim,
        dim_odd=odd.dim,
    )


def scan(params, config: ed.EdConfig, L_R0_values) -> list:
    """ed.scan on the product basis: one observables point per inductance."""
    even_model = build_sector_model(params, config, 0)
    odd_model = build_sector_model(params, config, 1)
    eps_a0 = reference_energy(params, config)
    results = []
    for L in L_R0_values:
        p = params.replace(L_R0=float(L))
        results.append(
            observables(
                config,
                p,
                ed.solve_sector(even_model, p, k=2),
                ed.solve_sector(odd_model, p, k=1),
                epsilon_a0=eps_a0,
            )
        )
    return results
