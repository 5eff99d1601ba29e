"""Tests for the finite-N sparse diagonalization.

Two oracles stand behind the symmetric sector that ed builds. The
structural one is a from-scratch dense construction: occupation bases
enumerated with itertools, Hamiltonians assembled with np.kron on the
full product space and cut down to the sector by row selection. The
second is the sparse product-basis assembly in ed_product_oracle, which
holds every ordering of the branch levels; the symmetric sector must be
its exact restriction to exchange-symmetric states. A third, cold_scan,
solves every point of a sweep the way scan once did, with ARPACK from the
seeded random vector at machine precision, and stands behind scan's warm
starts and its own Lanczos.
"""

import itertools
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmread, mmwrite
from scipy.sparse.linalg import eigsh

import ed_product_oracle as product_oracle
from srptsim import ed, fock
from srptsim.circuit import TWO_PI, derive_linear, polariton_frequencies
from srptsim.constants import PHI0, h, hbar
from srptsim.errors import ConfigError, ConvergenceError


def brute_force_sector(n_modes, per_mode, total, parity):
    out = [
        occ
        for occ in itertools.product(range(per_mode + 1), repeat=n_modes)
        if sum(occ) <= total and sum(occ) % 2 == parity
    ]
    return sorted(out)


def index_of(basis, occupations):
    """Positions of occupation rows in basis plus a validity mask.

    A row is valid when the stored row at its key equals it: with tight
    place values an out-of-range entry can alias another row's key.
    """
    occ = np.atleast_2d(np.asarray(occupations, dtype=np.int64))
    pos = np.minimum(np.searchsorted(basis.keys, occ @ basis.radix_powers), basis.dim - 1)
    return pos, np.all(basis.occupations[pos] == occ, axis=1)


def level_tuples(occupations):
    """Occupation rows (n_ph, k_0, ..., k_{R-1}) as (n_ph, nondecreasing branch levels)."""
    return [
        (row[0], *np.repeat(np.arange(len(row) - 1), row[1:]).tolist())
        for row in np.asarray(occupations).tolist()
    ]


def quartic_block_oracle(params, levels):
    """Dense per-branch quartic Hamiltonian, assembled independently."""
    d = derive_linear(params)
    lam_sq = (TWO_PI / PHI0) ** 2 * hbar * d.Z_a / 2.0
    ladder = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)
    q = ladder + ladder.T
    n = np.arange(levels, dtype=float)
    quartic = np.linalg.matrix_power(q, 4)
    return np.diag(hbar * d.omega_a * (n + 0.5) + params.E_J) + (
        params.E_J * lam_sq**2 / 24.0
    ) * quartic


def cosine_block_oracle(params, levels):
    """Dense per-branch cosine Hamiltonian on the lowest levels, cut from a from-scratch
    240-level operator build: its truncation error sits in the rows near level 240."""
    ops = fock.build_operators(derive_linear(params), 240)
    return fock.atom_hamiltonian(ops, params)[:levels, :levels]


def sector_dimension_by_branch_count(n_modes, per_mode_cutoff, total_cutoff, parity):
    """The symmetric sector count with one row per branch count j = 1..N.

    ways[j, s] counts multisets of j levels 0..min(per_mode_cutoff,
    total_cutoff) with level sum s, so the table grows with N.
    """
    n_branches = n_modes - 1
    ways = np.zeros((n_branches + 1, total_cutoff + 1), dtype=np.int64)
    ways[0, 0] = 1
    for level in range(min(per_mode_cutoff, total_cutoff) + 1):
        for j in range(1, n_branches + 1):
            ways[j, level:] += ways[j - 1, : total_cutoff + 1 - level]
    acc = np.cumsum(ways[n_branches])
    counts = acc.copy()
    window = per_mode_cutoff + 1
    if window <= total_cutoff:
        counts[window:] -= acc[:-window]
    return int(counts[parity::2].sum())


# --- basis -----------------------------------------------------------------


def test_basis_matches_brute_force_enumeration():
    for n_atoms, per_mode, total, parity in (
        (1, 2, 2, 0),
        (1, 2, 2, 1),
        (1, 8, 8, 0),
        (2, 4, 6, 1),
        (3, 3, 5, 0),
        (4, 3, 7, 1),
    ):
        cfg = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total)
        product = brute_force_sector(n_atoms + 1, per_mode, total, parity)
        oracle = product_oracle.build_basis(cfg, parity)
        assert oracle.dim == len(product)
        assert sorted(map(tuple, oracle.occupations.tolist())) == product
        assert oracle.dim == product_oracle.count_sector_dimension(n_atoms + 1, per_mode, total, parity)

        basis = ed.build_basis(cfg, parity)
        # one representative per symmetric state: branch levels nondecreasing
        expected = [occ for occ in product if list(occ[1:]) == sorted(occ[1:])]
        assert basis.dim == len(expected)
        assert sorted(level_tuples(basis.occupations)) == expected
        assert basis.dim == ed.count_sector_dimension(n_atoms + 1, per_mode, total, parity)
        assert np.all(np.diff(basis.keys) > 0)


def test_basis_hand_enumeration():
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=2, total_cutoff=2)
    even = ed.build_basis(cfg, 0)
    odd = ed.build_basis(cfg, 1)
    assert sorted(level_tuples(even.occupations)) == [(0, 0), (0, 2), (1, 1), (2, 0)]
    assert sorted(level_tuples(odd.occupations)) == [(0, 1), (1, 0)]


def test_sector_dimensions_cover_unrestricted_count():
    for n_modes, per_mode, total in ((2, 5, 7), (3, 4, 8), (4, 3, 6), (5, 4, 9)):
        full = len(
            [
                occ
                for occ in itertools.product(range(per_mode + 1), repeat=n_modes)
                if sum(occ) <= total
            ]
        )
        split = product_oracle.count_sector_dimension(
            n_modes, per_mode, total, 0
        ) + product_oracle.count_sector_dimension(n_modes, per_mode, total, 1)
        assert split == full
        multisets = len(
            [
                (n, levels)
                for levels in itertools.combinations_with_replacement(range(per_mode + 1), n_modes - 1)
                for n in range(per_mode + 1)
                if n + sum(levels) <= total
            ]
        )
        split = ed.count_sector_dimension(n_modes, per_mode, total, 0) + ed.count_sector_dimension(
            n_modes, per_mode, total, 1
        )
        assert split == multisets


def test_reference_sector_dimensions():
    # production cutoffs, frozen once from the combinatorial count
    assert product_oracle.count_sector_dimension(2, 24, 48, 0) == 313
    assert product_oracle.count_sector_dimension(2, 24, 48, 1) == 312
    assert product_oracle.count_sector_dimension(3, 24, 48, 0) == 6591
    assert product_oracle.count_sector_dimension(3, 24, 48, 1) == 6434
    assert product_oracle.count_sector_dimension(4, 16, 32, 0) == 22521
    assert product_oracle.count_sector_dimension(4, 16, 32, 1) == 20880
    # the symmetric sector: the same at N = 1, multisets of branch levels beyond
    assert ed.count_sector_dimension(2, 24, 48, 0) == 313
    assert ed.count_sector_dimension(2, 24, 48, 1) == 312
    assert ed.count_sector_dimension(3, 24, 48, 0) == 3419
    assert ed.count_sector_dimension(3, 24, 48, 1) == 3328
    assert ed.count_sector_dimension(4, 16, 32, 0) == 4431
    assert ed.count_sector_dimension(4, 16, 32, 1) == 4116


def test_index_of_round_trip_and_rejection():
    cfg = ed.EdConfig(n_atoms=2, per_mode_cutoff=4, total_cutoff=6)
    basis = ed.build_basis(cfg, 0)
    pos, valid = index_of(basis, basis.occupations)
    assert valid.all()
    assert np.array_equal(pos, np.arange(basis.dim))
    # photon above its cutoff, odd parity, a negative photon, and a row whose
    # out-of-range k_0 aliases the key of both branches at level 1
    row = level_tuples(basis.occupations).index((0, 1, 1))
    alias = basis.occupations[row].astype(np.int64)
    alias[2] -= 1
    alias[1] += basis.radix_powers[2] // basis.radix_powers[1]
    assert alias @ basis.radix_powers == basis.keys[row]
    _, bad = index_of(basis, [[5, 2, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [-1, 2, 0, 0, 0, 0], alias])
    assert not bad.any()


@pytest.mark.parametrize("parity, dim", [(0, 1922), (1, 1409)])
def test_sector_width_and_dimension_do_not_grow_with_n(parity, dim):
    """At 12/16 every N from 16 on has the same sector, R + 1 columns wide."""
    for n_atoms in (16, 17, 64, 1024):
        basis = ed.build_basis(
            ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=12, total_cutoff=16), parity
        )
        assert basis.dim == dim == ed.count_sector_dimension(n_atoms + 1, 12, 16, parity)
        assert basis.occupations.shape == (dim, 14)
        assert np.all(basis.occupations[:, 1:].sum(axis=1) == n_atoms)
        assert np.all(np.diff(basis.keys) > 0)


def test_sector_count_matches_branch_count_oracle():
    for per_mode, total in ((2, 2), (4, 8), (6, 12), (8, 16), (12, 16), (16, 32), (24, 48), (2, 40)):
        for n_atoms in range(1, 25):
            for parity in (0, 1):
                assert ed.count_sector_dimension(n_atoms + 1, per_mode, total, parity) == (
                    sector_dimension_by_branch_count(n_atoms + 1, per_mode, total, parity)
                )
    for parity in (0, 1):
        dim = ed.count_sector_dimension(1025, 12, 16, parity)
        assert dim == sector_dimension_by_branch_count(1025, 12, 16, parity)
        assert dim == ed.build_basis(
            ed.EdConfig(n_atoms=1024, per_mode_cutoff=12, total_cutoff=16), parity
        ).dim


def test_many_atoms_at_tight_cutoffs(reference):
    """N = 40 at 2/2: the vacuum couples to one photon plus one lifted branch with sqrt(N)."""
    model = ed.build_sector_model(reference, ed.EdConfig(n_atoms=40, per_mode_cutoff=2, total_cutoff=2), 0)
    assert model.basis.dim == ed.count_sector_dimension(41, 2, 2, 0) == 5
    (vac, one), valid = index_of(model.basis, [[0, 40, 0, 0], [1, 39, 1, 0]])
    assert valid.all()
    assert model.coupling[vac, one] == model.coupling[one, vac] == pytest.approx(math.sqrt(40), rel=1e-15)


def test_key_overflow_is_refused_before_enumerating(monkeypatch):
    """N = 10 at 24/48 has 1,357,095 even states but a key space of 2.2e19 > 2^63."""
    cfg = ed.EdConfig(n_atoms=10, per_mode_cutoff=24, total_cutoff=48, max_dimension=2_000_000)
    assert ed.count_sector_dimension(11, 24, 48, 0) == 1_357_095

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(np, "repeat", no_enumeration)
    with pytest.raises(ConfigError, match="overflow"):
        ed.build_basis(cfg, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=0)
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=1, per_mode_cutoff=1)
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=1, per_mode_cutoff=16, total_cutoff=8)
    # a truthy string would build the quartic model, a falsy 0 the cosine block
    for quartic in ("no", 0):
        with pytest.raises(ConfigError):
            ed.EdConfig(n_atoms=3, quartic=quartic)
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=1, n_eigenvalues=0)
    # bools are not counts, and a seed or size must be a whole number
    for field in ("n_atoms", "per_mode_cutoff", "total_cutoff", "n_eigenvalues",
                  "max_dimension", "seed"):
        with pytest.raises(ConfigError):
            ed.EdConfig(**{"n_atoms": 1, field: True})
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=1, max_dimension=2.5)
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=1, seed=-1)
    with pytest.raises(ConfigError):
        ed.EdConfig(n_atoms=1, seed=1.0)


def test_parity_is_a_checked_builder_argument():
    """The sector's parity is passed to the builders, not set on the config; a bool is not a parity."""
    cfg = ed.EdConfig(n_atoms=1)
    for parity in (2, -1, True, "0"):
        with pytest.raises(ConfigError, match="parity"):
            ed.build_basis(cfg, parity)
    with pytest.raises(TypeError):
        ed.EdConfig(n_atoms=1, parity=0)


def test_max_dimension_guard():
    cfg = ed.EdConfig(n_atoms=2, per_mode_cutoff=24, total_cutoff=48, max_dimension=100)
    with pytest.raises(ConfigError):
        ed.build_basis(cfg, 0)


# --- Hamiltonian assembly ---------------------------------------------------


def kron_sector_oracle(params, per_mode, parity, quartic, reference):
    """Full-product dense Hamiltonian cut to the N = 1 sector by row selection."""
    R = per_mode + 1
    d = derive_linear(params)
    block = (quartic_block_oracle if quartic else cosine_block_oracle)(params, R)
    ladder = np.diag(np.sqrt(np.arange(1.0, R)), k=1)
    q = ladder + ladder.T
    eye = np.eye(R)
    n_ph = np.diag(np.arange(R) + 0.5)
    H_full = (
        hbar * d.omega_c * np.kron(n_ph, eye)
        + np.kron(eye, block)
        - hbar * d.g * np.kron(q, q)
    )
    states = [(a, b) for a in range(R) for b in range(R)]
    sel = [i for i, (a, b) in enumerate(states) if a + b <= per_mode and (a + b) % 2 == parity]
    return H_full[np.ix_(sel, sel)]


@pytest.mark.parametrize("quartic", [True, False])
@pytest.mark.parametrize("parity", [0, 1])
def test_sparse_matches_dense_kron_oracle(reference, quartic, parity):
    cfg = ed.EdConfig(
        n_atoms=1, per_mode_cutoff=8, total_cutoff=8, quartic=quartic
    )
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, parity), reference)
    H_dense = kron_sector_oracle(reference, 8, parity, quartic, reference)
    w_sparse = np.linalg.eigvalsh(H.toarray())
    w_dense = np.linalg.eigvalsh(H_dense)
    scale = np.abs(w_dense).max()
    assert np.abs(w_sparse - w_dense).max() < 1e-10 * scale


def test_hamiltonian_exactly_symmetric(reference):
    cfg = ed.EdConfig(n_atoms=2, per_mode_cutoff=6, total_cutoff=10)
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
    assert (H - H.T).nnz == 0


def test_vacuum_diagonal_closed_form(reference):
    """The empty-occupation diagonal entry has a pencil-and-paper value."""
    d = derive_linear(reference)
    lam_sq = (TWO_PI / PHI0) ** 2 * hbar * d.Z_a / 2.0
    for n_atoms in (1, 2, 64, 1024):
        cfg = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=6, total_cutoff=8)
        H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
        basis = ed.build_basis(cfg, 0)
        pos, valid = index_of(basis, [[0, n_atoms] + [0] * 6])
        assert valid.all()
        expected = hbar * d.omega_c / 2.0 + n_atoms * (
            hbar * d.omega_a / 2.0 + reference.E_J + reference.E_J * lam_sq**2 / 8.0
        )
        assert H[pos[0], pos[0]] == pytest.approx(expected, rel=1e-12)


def test_decoupled_spectrum_is_sum_of_mode_spectra(reference):
    """Without V the sector spectrum is additive across modes.

    total_cutoff = 2 per_mode keeps the sector a full tensor product, so
    each eigenvalue is a resonator level plus a branch eigenvalue with
    compatible parity.
    """
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=6, total_cutoff=12)
    model = ed.build_sector_model(reference, cfg, 0)
    d = derive_linear(reference)
    H0 = sp.diags(hbar * d.omega_c * model.photon_number) + model.atom_static
    w_sector = np.linalg.eigvalsh(H0.toarray())
    mu, vec = np.linalg.eigh(quartic_block_oracle(reference, 7))
    parities = [int(round(np.sum(vec[:, k] ** 2 * (np.arange(7) % 2)))) for k in range(7)]
    sums = sorted(
        hbar * d.omega_c * (n + 0.5) + mu[k]
        for n in range(7)
        for k in range(7)
        if (n + parities[k]) % 2 == 0
    )
    assert np.abs(w_sector - np.array(sums)).max() < 1e-12 * np.abs(w_sector).max()


def test_cosine_block_is_the_branch_kernel(reference, rng):
    """The cosine block holds the exact matrix elements on its levels: it equals the corner
    of a from-scratch 240-level build, edge rows included."""
    circuits = [reference] + [
        reference.replace(L_J=reference.L_J * f1, L_g=reference.L_g * f2, C_J=reference.C_J * f3)
        for f1, f2, f3 in rng.uniform(0.97, 1.03, size=(2, 3))
    ]
    for params in circuits:
        for R in (9, 17, 25):
            oracle = cosine_block_oracle(params, R)
            block = ed._branch_terms(params, R, False)[0]
            assert np.abs(block - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_cosine_ground_energy_never_rises_with_the_cutoffs(reference, n_atoms):
    """Each cutoff step enlarges the sector and keeps the matrix elements it had, so the
    cosine E_g is a Rayleigh-Ritz upper bound that falls towards its limit."""
    L = np.array([0.30e-9, 0.45e-9])
    E_g = np.array([
        ed.scan(reference.replace(N=n_atoms), ed.EdConfig(n_atoms, K, T, quartic=False), L).E_g
        for K, T in [(4, 8), (6, 12), (8, 16), (12, 24), (16, 32), (24, 48)]
    ])
    assert np.all(np.diff(E_g, axis=0) <= 1e-13 * np.abs(E_g[1:]))


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_cosine_without_junction_is_the_harmonic_ladder(reference, n_atoms):
    """At E_J = 0 both potentials are the same harmonic branch, so the two scans agree."""
    bare = reference.replace(L_J=math.inf, N=n_atoms)
    L = np.array([0.30e-9])
    quartic, cosine = (
        ed.scan(bare, ed.EdConfig(n_atoms, 4, 8, quartic=q), L) for q in (True, False)
    )
    for field in ("E_g", "transition_even", "transition_odd"):
        assert getattr(cosine, field) == pytest.approx(getattr(quartic, field), rel=1e-12, abs=0.0)


def test_cosine_scan_reuses_the_mean_field_kernel(reference):
    from srptsim import meanfield

    fock._branch.cache_clear()
    meanfield.solve(reference, 0.0)
    misses = fock._branch.cache_info().misses
    ed.scan(reference, ed.EdConfig(1, 8, 16, quartic=False), np.array([0.30e-9, 0.45e-9]))
    assert fock._branch.cache_info().misses == misses


def symmetrizer(sym_basis, prod_basis):
    """Isometry P from symmetric to product states.

    Column i is the normalized sum of the distinct orderings of symmetric
    state i's branch levels.
    """
    rows, cols, vals = [], [], []
    for i, (n, *levels) in enumerate(level_tuples(sym_basis.occupations)):
        orders = sorted(set(itertools.permutations(levels)))
        pos, valid = index_of(prod_basis, [[n, *order] for order in orders])
        assert valid.all()
        rows.extend(pos)
        cols.extend([i] * len(orders))
        vals.extend([len(orders) ** -0.5] * len(orders))
    return sp.csr_matrix((vals, (rows, cols)), shape=(prod_basis.dim, sym_basis.dim))


@pytest.mark.parametrize(
    "n_atoms, per_mode, total, quartic",
    [(2, 6, 12, True), (2, 6, 12, False), (3, 4, 8, True), (3, 4, 8, False)],
)
@pytest.mark.parametrize("parity", [0, 1])
def test_symmetric_sector_is_restriction_of_product_basis(reference, n_atoms, per_mode, total, quartic, parity):
    """P^T H_product P equals the symmetric H in every matrix element."""
    params = reference.replace(N=n_atoms)
    cfg = ed.EdConfig(
        n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total, quartic=quartic
    )
    sym = ed.build_sector_model(params, cfg, parity)
    prod = product_oracle.build_sector_model(params, cfg, parity)
    assert sym.basis.dim < prod.basis.dim
    P = symmetrizer(sym.basis, prod.basis)
    assert abs(P.T @ P - sp.identity(sym.basis.dim)).max() < 1e-15
    # one normal and one superradiant inductance weigh the coupling differently
    for L in (0.30e-9, 0.60e-9):
        p = params.replace(L_R0=L)
        H = ed.hamiltonian_at(sym, p)
        embedded = P.T @ ed.hamiltonian_at(prod, p) @ P
        assert abs(embedded - H).max() <= 1e-14 * abs(H).sum(axis=1).max()


def assembled_hamiltonian(model, params):
    """The sector Hamiltonian assembled as sparse matrices, term by term: hamiltonian_at's slow path."""
    d = derive_linear(params)
    scale = hbar * d.g / math.sqrt(model.config.n_atoms)
    return (sp.diags(hbar * d.omega_c * model.photon_number) + model.atom_static - scale * model.coupling).tocsr()


@pytest.mark.parametrize("quartic", [True, False], ids=["quartic", "cosine"])
@pytest.mark.parametrize("n_atoms, per_mode, total", [(1, 8, 16), (2, 6, 12), (3, 4, 8)])
@pytest.mark.parametrize("parity", [0, 1])
def test_hamiltonian_at_matches_the_assembled_sum(reference, n_atoms, per_mode, total, quartic, parity):
    """One new data array on the shared pattern gives the term-by-term sum bit for bit,
    in the same CSR arrays, so every matrix-vector product agrees too."""
    params = reference.replace(N=n_atoms)
    cfg = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total, quartic=quartic)
    model = ed.build_sector_model(params, cfg, parity)
    for name in ("indices", "indptr"):
        assert np.shares_memory(getattr(model.coupling, name), getattr(model.atom_static, name))
    for L in (0.30e-9, 0.60e-9):
        p = params.replace(L_R0=L)
        H, slow = ed.hamiltonian_at(model, p), assembled_hamiltonian(model, p)
        assert abs(H - slow).max() == 0.0
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(H, name), getattr(slow, name)), name
        assert np.shares_memory(H.indices, model.atom_static.indices)


def test_atom_count_must_agree_with_params(reference):
    """N comes from the config; a params.N that says otherwise is an error, not ignored."""
    cfg = ed.EdConfig(n_atoms=3, per_mode_cutoff=4, total_cutoff=4)
    with pytest.raises(ValueError):
        ed.build_sector_model(reference.replace(N=2), cfg, 0)
    with pytest.raises(ValueError):
        ed.scan(reference.replace(N=2), cfg, np.array([0.45e-9]))
    model = ed.build_sector_model(reference.replace(N=3), cfg, 0)
    ed.hamiltonian_at(model, reference)
    with pytest.raises(ValueError):
        ed.hamiltonian_at(model, reference.replace(N=2))


def test_sector_model_rejects_foreign_branch_parameters(reference):
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=4, total_cutoff=4)
    model = ed.build_sector_model(reference, cfg, 0)
    # resonator sweeps are fine, junction changes are not
    ed.hamiltonian_at(model, reference.replace(L_R0=0.3e-9))
    with pytest.raises(ValueError):
        ed.hamiltonian_at(model, reference.replace(L_J=0.8e-9))


# --- eigensolver -------------------------------------------------------------


def test_lowest_eigenpairs_random_sparse_vs_dense():
    """k = 15 keeps 23 Ritz vectors, so Lanczos grows its basis past its 24 vectors."""
    B = sp.random(400, 400, density=0.02, random_state=np.random.RandomState(5), format="csr")
    B = (B + B.T) * 0.5 + sp.diags(np.linspace(0.0, 10.0, 400))
    for k in (5, 15):
        w, v = ed.lowest_eigenpairs(B.tocsr(), k, seed=3)
        w_dense = np.linalg.eigvalsh(B.toarray())[:k]
        assert np.abs(w - w_dense).max() < 1e-9 * np.abs(w_dense).max()
        resid = B @ v - v * w
        assert np.abs(resid).max() < 1e-9 * np.abs(B).sum(axis=1).max()


def test_lowest_eigenpairs_attojoule_scale():
    """Entries of order 1e-21 must not trip the absolute Ritz floor."""
    diag = np.concatenate([[1.0, 1.0], np.arange(2.0, 500.0)]) * 1e-21
    A = sp.diags(diag).tocsr()
    w, v = ed.lowest_eigenpairs(A, 3, seed=7)
    assert w == pytest.approx([1e-21, 1e-21, 2e-21], rel=1e-9)
    # the degenerate pair comes out orthonormal
    assert np.abs(v.T @ v - np.eye(3)).max() < 1e-9


def test_lowest_eigenpairs_dense_fallback():
    C = sp.diags(np.arange(1.0, 11.0)).tocsr()
    w, v = ed.lowest_eigenpairs(C, 2)
    assert w == pytest.approx([1.0, 2.0], rel=1e-12)
    assert v.shape == (10, 2)


def test_lowest_eigenpairs_validation():
    C = sp.diags(np.arange(1.0, 11.0)).tocsr()
    with pytest.raises(ValueError):
        ed.lowest_eigenpairs(C, 0)
    with pytest.raises(ValueError):
        ed.lowest_eigenpairs(C, 11)


def test_lowest_eigenpairs_raises_when_lanczos_does_not_converge(reference, monkeypatch):
    """One 24-vector basis with no restart does not reach the Ritz tolerance here."""
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16)
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
    assert H.shape[0] >= ed._DENSE_FLOOR

    monkeypatch.setattr(ed, "_MAX_RESTARTS", 0)
    with pytest.raises(ConvergenceError, match="Lanczos did not converge"):
        ed.lowest_eigenpairs(H, 2)


def test_lowest_eigenpairs_gates_the_residual(reference, monkeypatch):
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16)
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
    assert H.shape[0] >= ed._DENSE_FLOOR
    real_lanczos = ed._lanczos

    def perturbed(*args):
        w, v = real_lanczos(*args)
        return w, v + 1e-3

    monkeypatch.setattr(ed, "_lanczos", perturbed)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        ed.lowest_eigenpairs(H, 2)


@pytest.mark.parametrize("diagonal, expected", [
    (np.arange(1.0, 51.0), [1.0, 2.0]),
    (np.concatenate([[1.0, 1.0], np.arange(2.0, 50.0)]), [1.0, 1.0]),
], ids=["simple", "degenerate"])
def test_lowest_eigenpairs_from_an_exact_eigenvector(diagonal, expected):
    """A start vector that is already an eigenvector spans an invariant Krylov space at once,
    as at a repeated point of a sweep; Lanczos continues from a fresh vector, orthogonal to it
    and drawn from the seed, and still returns k orthonormal verified pairs, the same on every call."""
    A = sp.diags(diagonal).tocsr()
    v0 = np.eye(A.shape[0])[0]
    w, v = ed.lowest_eigenpairs(A, 2, seed=4, v0=v0)
    assert w == pytest.approx(expected, rel=1e-12)
    assert np.abs(v.T @ v - np.eye(2)).max() < 1e-12
    w2, v2 = ed.lowest_eigenpairs(A, 2, seed=4, v0=v0)
    assert np.array_equal(w, w2) and np.array_equal(v, v2)


def test_lowest_eigenpairs_deterministic(reference):
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=10, total_cutoff=20)
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
    w1, v1 = ed.lowest_eigenpairs(H, 4, seed=11)
    w2, v2 = ed.lowest_eigenpairs(H, 4, seed=11)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


# --- sweeps ------------------------------------------------------------------


def test_sweeps_reject_odd_ground_below_even(reference, monkeypatch):
    """An odd sector below the even ground state fails the sweep instead of reporting."""
    real_solve = ed.solve_sector

    def odd_sinks(model, params, k=None, v0=None):
        eig = real_solve(model, params, k=k, v0=v0)
        if eig.parity == 1:
            # 1e-20 J is about 15 THz h, far below every level here
            eig = replace(eig, values=eig.values - 1e-20)
        return eig

    monkeypatch.setattr(ed, "solve_sector", odd_sinks)
    L = np.array([0.30e-9, 0.52e-9])
    with pytest.raises(ConvergenceError, match="odd sector fell below"):
        ed.scan(reference, ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16), L)


def test_reference_energy_matches_the_potential(reference):
    """Each potential is referenced to the ground energy of the branch block its sectors embed."""
    L = np.array([0.30e-9])
    zero_point = hbar * derive_linear(reference.replace(L_R0=L[0])).omega_c / 2.0
    lowest = {}
    for quartic in (True, False):
        cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16, quartic=quartic)
        atom, _ = ed._branch_terms(reference, cfg.per_mode_cutoff + 1, quartic)
        lowest[quartic] = np.linalg.eigvalsh(atom)[0]
        res = ed.scan(reference, cfg, L)
        assert res.delta_eps[0] == pytest.approx(
            res.E_g[0] - zero_point - lowest[quartic], abs=1e-12 * abs(lowest[quartic])
        )
    assert (lowest[True] - lowest[False]) / (h * 1e6) == pytest.approx(4.568, abs=1e-3)


@pytest.mark.parametrize("quartic", [True, False], ids=["quartic", "cosine"])
@pytest.mark.parametrize("n_atoms, per_mode, total", [(1, 8, 16), (2, 12, 24)])
def test_delta_eps_vanishes_without_coupling(reference, monkeypatch, quartic, n_atoms, per_mode, total):
    """At g = 0 the ground state is the photon vacuum times each branch's ground state,
    so delta_eps is 0 to rounding whatever the truncation."""
    real = ed.derive_linear
    monkeypatch.setattr(ed, "derive_linear", lambda p: replace(real(p), g=0.0))
    cfg = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total, quartic=quartic)
    res = ed.scan(reference.replace(N=n_atoms), cfg, np.array([0.30e-9, 0.52e-9]))
    assert np.all(np.abs(res.delta_eps) <= 1e-13 * np.abs(res.E_g))


def test_scan_photon_number_grows_across_transition(reference):
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16)
    res = ed.scan(reference, cfg, np.array([0.30e-9, 0.52e-9]))
    assert res.dim_even == 41 and res.dim_odd == 40
    assert res.photon_number_per_atom[1] > res.photon_number_per_atom[0]
    assert np.all(res.transition_even > 0.0)
    assert np.all(res.transition_odd > 0.0)
    with pytest.raises(ValueError):
        ed.scan(reference, cfg, np.array([]))
    with pytest.raises(ValueError, match="L_R0_values must be a non-empty 1d array"):
        ed.scan(reference, cfg, np.array([[0.30e-9, 0.52e-9]]))


def assert_same_observables(fast, i, slow, n_atoms):
    """Row i of an EdScan against an oracle point: energies, then photons per atom."""
    got = (
        fast.E_g[i],
        fast.E_g[i] + fast.transition_even[i],
        fast.E_g[i] + fast.transition_odd[i],
        n_atoms * fast.delta_eps[i],
    )
    want = (
        slow.E_g,
        slow.E_g + slow.transition_even,
        slow.E_g + slow.transition_odd,
        n_atoms * slow.delta_eps,
    )
    assert np.abs(np.subtract(got, want)).max() <= 1e-12 * abs(slow.E_g)
    assert fast.photon_number_per_atom[i] == pytest.approx(slow.photon_number_per_atom, rel=1e-10)


def scan_oracle(params, config, L_R0_values):
    """Every sector solved at config.n_eigenvalues, then combined: the old scan."""
    even_model = ed.build_sector_model(params, config, 0)
    odd_model = ed.build_sector_model(params, config, 1)
    results = []
    for L in L_R0_values:
        p = params.replace(L_R0=float(L))
        results.append(
            product_oracle.observables(
                config, p, ed.solve_sector(even_model, p), ed.solve_sector(odd_model, p)
            )
        )
    return results


@pytest.mark.parametrize(
    "n_atoms, per_mode, total, L_nH",
    [
        (1, 8, 16, (0.44, 0.52, 0.60, 0.70)),
        (1, 24, 48, (0.44, 0.53, 0.60, 0.70)),
        (2, 12, 24, (0.40, 0.46, 0.52, 0.60)),
    ],
)
def test_scan_matches_full_spectrum_oracle(reference, n_atoms, per_mode, total, L_nH):
    """Solving two even and one odd pair per point reports what six pairs do.

    The points straddle each gap dip and reach into the superradiant side,
    where the lowest odd state closes in on the even ground state.
    """
    params = reference.replace(N=n_atoms)
    config = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total, n_eigenvalues=6)
    L_vals = np.array(L_nH) * 1e-9
    fast = ed.scan(params, config, L_vals)
    for i, slow in enumerate(scan_oracle(params, config, L_vals)):
        assert (fast.dim_even, fast.dim_odd) == (slow.dim_even, slow.dim_odd)
        assert_same_observables(fast, i, slow, n_atoms)


@pytest.mark.parametrize(
    "n_atoms, per_mode, total, L_nH",
    [
        (2, 24, 48, (0.30, 0.46, 0.85)),
        (3, 16, 32, (0.38, 0.60)),
    ],
)
def test_scan_matches_product_basis(reference, n_atoms, per_mode, total, L_nH):
    """The symmetric sector reports what the full product basis does.

    The points run from the normal side through the gap dip into the
    superradiant side, where the odd gap closes.
    """
    params = reference.replace(N=n_atoms)
    config = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total)
    L_vals = np.array(L_nH) * 1e-9
    fast = ed.scan(params, config, L_vals)
    for i, slow in enumerate(product_oracle.scan(params, config, L_vals)):
        assert fast.dim_even < slow.dim_even and fast.dim_odd < slow.dim_odd
        assert_same_observables(fast, i, slow, n_atoms)


def test_lanczos_requests_only_reported_pairs(reference, monkeypatch):
    """scan asks Lanczos for 2 even and 1 odd pair."""
    calls = []
    real_lanczos = ed._lanczos

    def spy(matrix, k, *args):
        calls.append((matrix.shape[0], k))
        return real_lanczos(matrix, k, *args)

    monkeypatch.setattr(ed, "_lanczos", spy)
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16)
    ed.scan(reference, cfg, np.array([0.40e-9, 0.52e-9, 0.60e-9]))
    assert calls == [(41, 2), (40, 1)] * 3

    for n_eigenvalues in (6, 3):
        calls.clear()
        model = ed.build_sector_model(reference, replace(cfg, n_eigenvalues=n_eigenvalues), 0)
        ed.solve_sector(model, reference)
        assert calls == [(41, n_eigenvalues)]


def cold_eigenpairs(matrix, k, seed):
    """The solve every scan point once took: the dense fallback below the floor, otherwise
    ARPACK at machine precision (tol=0) from the seeded random vector."""
    dim = matrix.shape[0]
    if dim < max(2 * k + 2, ed._DENSE_FLOOR):
        w, v = np.linalg.eigh(matrix.toarray())
        return w[:k], v[:, :k]
    unit = np.abs(matrix).sum(axis=1).max()
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)
    w, v = eigsh(matrix / unit, k=k, which="SA", v0=v0, tol=0)
    order = np.argsort(w)
    return w[order] * unit, v[:, order]


def cold_sector(model, params, k):
    """One sector solved cold, with the fields product_oracle.observables reads."""
    w, v = cold_eigenpairs(ed.hamiltonian_at(model, params), k, model.config.seed)
    photons = float(v[:, 0] ** 2 @ (model.photon_number - 0.5))
    return SimpleNamespace(dim=model.basis.dim, values=w, photon_number=photons)


def cold_scan(params, config, L_R0_values):
    """ed.scan with every point of every sector solved cold, one observables point each."""
    models = [ed.build_sector_model(params, config, parity) for parity in (0, 1)]
    results = []
    for L in L_R0_values:
        p = params.replace(L_R0=float(L))
        even, odd = (cold_sector(model, p, k) for model, k in zip(models, (2, 1)))
        results.append(product_oracle.observables(config, p, even, odd))
    return results


@pytest.mark.parametrize(
    "n_atoms, per_mode, total, L_nH",
    [
        (1, 24, 48, (0.40, 0.44, 0.48, 0.53, 0.60, 0.70)),
        (2, 12, 24, (0.38, 0.42, 0.46, 0.50, 0.52, 0.60)),
        (1, 24, 48, tuple(np.linspace(0.40, 0.70, 16))),
    ],
)
def test_warm_scan_matches_cold_oracle(reference, n_atoms, per_mode, total, L_nH):
    """Warm starts and Lanczos' stopping tolerance move no row off the cold ARPACK solve.

    The points straddle each gap dip and reach into the superradiant side;
    the 16-point sweep fills the even sector's basis of earlier
    eigenvectors to its cap, so most of its starts draw on a full one.
    """
    params = reference.replace(N=n_atoms)
    config = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total)
    L_vals = np.array(L_nH) * 1e-9
    fast = ed.scan(params, config, L_vals)
    for i, slow in enumerate(cold_scan(params, config, L_vals)):
        assert (fast.dim_even, fast.dim_odd) == (slow.dim_even, slow.dim_odd)
        assert_same_observables(fast, i, slow, n_atoms)


@pytest.mark.parametrize("n_atoms, per_mode, total", [(1, 24, 48), (2, 12, 24)])
def test_scan_starts_each_point_from_the_ritz_vectors_of_its_sweep(reference, monkeypatch, n_atoms, per_mode, total):
    """Only a sector's first point starts from the seeded vector; every later point starts from
    the sum of the k lowest Ritz vectors of its own H on the sector's orthonormal basis of the
    eigenvectors it returned: the newest k and at most _KRYLOV_DIM columns before them. Every
    call stops at the tolerance derived from the residual gate."""
    solves, starts = [], []
    real_solve, real_lanczos = ed.solve_sector, ed._lanczos

    def solve(model, params, k=None, v0=None):
        eig = real_solve(model, params, k=k, v0=v0)
        solves.append((ed.hamiltonian_at(model, params), k, v0, eig.vectors))
        return eig

    def spy(matrix, k, v0, tol, *args):
        starts.append((v0.copy(), tol))
        return real_lanczos(matrix, k, v0, tol, *args)

    monkeypatch.setattr(ed, "solve_sector", solve)
    monkeypatch.setattr(ed, "_lanczos", spy)
    config = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total, seed=5)
    # enough points for the odd sector's basis (k = 1) to reach its cap
    ed.scan(reference.replace(N=n_atoms), config, np.linspace(0.40e-9, 0.60e-9, ed._KRYLOV_DIM + 4))
    assert len(starts) == len(solves) == 2 * (ed._KRYLOV_DIM + 4)
    assert {tol for _, tol in starts} == {ed._RESIDUAL_RTOL * 1e-2}
    for parity in (0, 1):
        sector, v0s = solves[parity::2], [v0 for v0, _ in starts[parity::2]]
        H, k, first, _ = sector[0]
        assert first is None
        assert np.array_equal(v0s[0], np.random.default_rng(5).uniform(-1.0, 1.0, size=H.shape[0]))
        for i, ((H, k, Q, _), v0) in enumerate(zip(sector[1:], v0s[1:]), start=1):
            assert Q.shape[1] == min(i * k, ed._KRYLOV_DIM + k)
            assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-12
            # the eigenvectors returned at the point before lie in the basis
            before = sector[i - 1][3]
            assert np.abs(before - Q @ (Q.T @ before)).max() < 1e-12
            _, ritz = np.linalg.eigh(Q.T @ (H @ Q))
            expected = Q @ ritz[:, :k].sum(axis=1)
            assert np.abs(v0 - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n_atoms, per_mode, total", [(1, 24, 48), (2, 12, 24)])
def test_scan_repeating_and_revisiting_points(reference, n_atoms, per_mode, total):
    """A point whose start is already its own ground vector still converges, equal inputs
    give equal rows, and the same sweep run twice is reproduced bit for bit."""
    params = reference.replace(N=n_atoms)
    config = ed.EdConfig(n_atoms=n_atoms, per_mode_cutoff=per_mode, total_cutoff=total)
    L_vals = np.array([0.45, 0.45, 0.45, 0.30, 0.60, 0.30]) * 1e-9
    res = ed.scan(params, config, L_vals)
    fields = ("E_g", "photon_number_per_atom", "transition_even", "transition_odd", "delta_eps")
    for i, j in ((0, 1), (0, 2), (3, 5)):
        for name in fields:
            value = getattr(res, name)
            assert value[j] == pytest.approx(value[i], rel=1e-12), (name, i, j)
    again = ed.scan(params, config, L_vals)
    for name in fields:
        assert np.array_equal(getattr(res, name), getattr(again, name)), name


def test_scan_cutoff_convergence_deep_normal(reference):
    # far from the transition the ground energy converges very fast in
    # the cutoffs
    L = np.array([0.2e-9])
    lo = ed.scan(reference, ed.EdConfig(n_atoms=1, per_mode_cutoff=16, total_cutoff=32), L)
    hi = ed.scan(reference, ed.EdConfig(n_atoms=1, per_mode_cutoff=24, total_cutoff=48), L)
    assert abs(lo.E_g[0] - hi.E_g[0]) < 1e-9 * abs(hi.E_g[0])


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_scan_harmonic_limit_matches_linear_modes(reference, n_atoms):
    """With E_J = 0 the branches are harmonic and ED must reproduce the linear modes.

    The odd gap is the lower polariton; the ground energy is the zero point
    of both polaritons plus that of the N - 1 uncoupled branch modes.
    """
    params = reference.replace(L_J=math.inf, N=n_atoms)
    L = np.array([0.1e-9, 0.3e-9, 1.0e-9])
    res = ed.scan(params, ed.EdConfig(n_atoms=n_atoms), L)
    for i, L_R0 in enumerate(L):
        d = derive_linear(params.replace(L_R0=float(L_R0)))
        omega_plus, omega_minus_squared = polariton_frequencies(d.omega_c, d.omega_a, d.g)
        omega_minus = math.sqrt(omega_minus_squared)
        assert res.transition_odd[i] == pytest.approx(hbar * omega_minus, rel=1e-9)
        E_g = hbar * (omega_plus + omega_minus) / 2.0 + (n_atoms - 1) * hbar * d.omega_a / 2.0
        assert res.E_g[i] == pytest.approx(E_g, rel=1e-12)


def test_ground_state_atom_exchange_symmetric(reference):
    """For N = 2 the nondegenerate ground state must be exchange even.

    This is why the symmetric sector holds the ground state, so it runs on
    the product basis, which contains both exchange parities.
    """
    p = reference.replace(L_R0=0.52e-9)
    cfg = ed.EdConfig(n_atoms=2, per_mode_cutoff=6, total_cutoff=12)
    model = product_oracle.build_sector_model(p, cfg, 0)
    eig = ed.solve_sector(model, p)
    v = eig.vectors[:, 0]
    basis = model.basis
    rows = np.random.default_rng(0).choice(basis.dim, 25, replace=False)
    swapped = basis.occupations[rows][:, [0, 2, 1]]
    pos, valid = index_of(basis, swapped)
    assert valid.all()
    assert np.abs(np.abs(v[rows]) - np.abs(v[pos])).max() < 1e-8


# --- quartic versus cosine ---------------------------------------------------


def test_truncation_study_weak_anharmonicity_limit(reference):
    # a hundredfold weaker Josephson energy shrinks the quartic error by
    # orders of magnitude; this pins the scaling direction
    weak = reference.replace(L_J=75e-9)
    transitions = []
    for quartic in (True, False):
        w = np.linalg.eigvalsh(ed._branch_terms(weak, 30, quartic)[0])
        transitions.append(w[1:4] - w[0])
    assert (np.abs(transitions[0] - transitions[1]) / transitions[1]).max() < 1e-4


# --- export -------------------------------------------------------------------


def test_export_matrix_fails_loudly_and_writes_mmwrite_bytes(tmp_path, reference):
    """A missing directory raises instead of passing for a written file.

    scipy's mmwrite given that path returns without an error and writes
    nothing; to an open file it writes what it would write to a path.
    """
    cfg = ed.EdConfig(n_atoms=2, per_mode_cutoff=4, total_cutoff=6)
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
    with pytest.raises(FileNotFoundError):
        ed.export_matrix(str(tmp_path / "missing" / "sector"), H)
    assert not (tmp_path / "missing").exists()
    mmwrite(str(tmp_path / "direct.mtx"), sp.coo_matrix(H))
    written = ed.export_matrix(str(tmp_path / "sector"), H)
    assert Path(written).read_bytes() == (tmp_path / "direct.mtx").read_bytes()


def test_export_matrix_roundtrip(tmp_path, reference):
    cfg = ed.EdConfig(n_atoms=1, per_mode_cutoff=4, total_cutoff=4)
    H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, 0), reference)
    path = ed.export_matrix(str(tmp_path / "sector"), H)
    assert path.endswith(".mtx")
    back = mmread(path).tocsr()
    assert (back - H).nnz == 0
