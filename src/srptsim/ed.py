"""Sparse exact diagonalization of the photon-junction chain at finite N.

Mode 0 is the resonator photon and modes 1..N are the junction branches,
each in a truncated number basis. H is invariant under permutations of
the N identical branches, and its ground state and the excitations scan
reports lie in the exchange-symmetric subspace, so that is the space
built: a basis state is the photon number plus the number of branches
at each level, the normalized symmetrization of that occupation. Its
dimension grows like a multiset count instead of the (cutoff + 1)^N of
the product basis, and a state is one number per level for any N, so
the work per state does not grow with N.
Total excitation parity is conserved, so each sector is diagonalized
separately; the ground state lives in the even sector. The Hamiltonian
splits into three parts whose matrix structure does not depend on the
resonator inductance:

    H = hbar omega_c (n_ph + 1/2) + sum_j H_atom(j) - (hbar g / sqrt(N)) V

with V = sum_j (a + a^dag)(b_j + b_j^dag). A sector model is therefore
assembled once and swept over L_R0 by rescaling two coefficients; its
pieces share one CSR pattern, so a point's H is one new data array.
Both branch terms are one-body in the branches, and one embedding builds
them in the symmetric sector: sum_j op(j) with op the dense branch block
for the atom term, sum_j (a + a^dag) op(j) with op = b + b^dag for V.
The ground energy per branch is referenced to the lowest eigenvalue of
that same block, so it is 0 to rounding when the coupling vanishes.

Branches carry either the quartic expansion of the flux-periodic potential
(default, sparse, bandwidth 4 per atom) or its exact cosine matrix (dense
per-atom block); comparing the two bounds the truncation error of the
quartic form.

Each sector's lowest eigenpairs come from a thick-restart Lanczos of this
module's own (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)) on
scipy.sparse's CSR matrix-vector product, so ed loads scipy.sparse and
neither ARPACK (scipy.sparse.linalg) nor scipy.linalg. A sweep seeds
each point from the points before: every sector keeps an orthonormal
basis of the eigenvectors it returned, at most _KRYLOV_DIM + k vectors
of its dimension, and Lanczos starts from the sum of the k lowest Ritz
vectors of the new H on it (eigenvector continuation: Frame et al., PRL
121, 032501 (2018)); the first point starts from the config.seed vector.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fock
from .circuit import TWO_PI, CircuitParams, derive_linear
from .constants import PHI0, hbar
from .errors import ConfigError, ConvergenceError

# Below this dimension a dense solve is cheaper.
_DENSE_FLOOR = 24

# Accepted eigenpair residual, relative to the Hamiltonian inf-norm.
_RESIDUAL_RTOL = 1e-9

# Lanczos' Ritz-bound tolerance on the unit-normalized copy: two orders
# inside the residual gate, so Lanczos stops once the gate is safely met.
_RITZ_RTOL = _RESIDUAL_RTOL * 1e-2

# Thick-restart Lanczos: a Krylov basis of _KRYLOV_DIM vectors, or
# 2 (k + _KEPT_EXTRA) when k is large, of which each restart keeps the
# k + _KEPT_EXTRA lowest Ritz vectors; past _MAX_RESTARTS it gives up.
_KRYLOV_DIM = 24
_KEPT_EXTRA = 8
_MAX_RESTARTS = 300


@dataclass(frozen=True)
class EdConfig:
    """Sector definition for the finite-N diagonalization.

    The sector is the exchange-symmetric one, cut by the two cutoffs and
    the total-excitation parity that each builder takes as an argument;
    its spectrum is the part of the product-basis spectrum at the same
    cutoffs that is symmetric under branch permutations.

    n_atoms         : number of junction branches N
    per_mode_cutoff : highest occupation of the photon and of any branch
                      level
    total_cutoff    : highest total occupation, photons plus branch levels
    n_eigenvalues   : eigenpairs solve_sector requests from the bottom of
                      a sector when called without k; scan passes its
                      own k
    quartic         : quartic branch potential when True, otherwise the
                      cosine kernel's exact matrix on the branch levels
    max_dimension   : refuse to materialize symmetric sectors larger
                      than this
    seed            : seed of the deterministic Lanczos start vector of
                      each sector's first point, a nonnegative integer;
                      scan starts every later point from the sum of the
                      k lowest Ritz vectors of its H on the sector's
                      basis of earlier eigenvectors, at most
                      _KRYLOV_DIM + k vectors of the sector's dimension
    """

    n_atoms: int
    per_mode_cutoff: int = 24
    total_cutoff: int = 48
    n_eigenvalues: int = 6
    quartic: bool = True
    max_dimension: int = 400_000
    seed: int = 0

    def __post_init__(self):
        for name, low in (
            ("n_atoms", 1),
            ("per_mode_cutoff", 2),
            ("total_cutoff", 2),
            ("n_eigenvalues", 1),
            ("max_dimension", 1),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.per_mode_cutoff > self.total_cutoff:
            raise ConfigError(
                f"per_mode_cutoff {self.per_mode_cutoff} exceeds total_cutoff {self.total_cutoff}"
            )
        if not isinstance(self.quartic, bool):
            raise ConfigError(f"quartic must be True or False, got {self.quartic!r}")


def count_sector_dimension(n_modes: int, per_mode_cutoff: int, total_cutoff: int, parity: int) -> int:
    """Number of symmetric basis states in the sector, without materializing them.

    n_modes counts the photon and the N branches. ways[j, s] counts the
    multisets of j nonzero branch levels with level sum s; the levels are
    admitted one at a time, each any number of times. Level 0 takes the
    N - j branches left over, and j <= total_cutoff, so the cost does not
    grow with N. The photon then adds 0..per_mode_cutoff quanta.
    """
    n_lifted = min(n_modes - 1, total_cutoff)
    ways = np.zeros((n_lifted + 1, total_cutoff + 1), dtype=np.int64)
    ways[0, 0] = 1
    for level in range(1, min(per_mode_cutoff, total_cutoff) + 1):
        for j in range(1, n_lifted + 1):
            ways[j, level:] += ways[j - 1, : total_cutoff + 1 - level]
    acc = np.cumsum(ways.sum(axis=0))
    counts = acc.copy()
    window = per_mode_cutoff + 1
    if window <= total_cutoff:
        counts[window:] -= acc[:-window]
    return int(counts[parity::2].sum())


@dataclass(frozen=True)
class BasisIndex:
    """Basis states of one parity sector with a sorted integer index.

    In the permutation-symmetric basis that ed builds, a row is the photon
    number followed by the number of branches at each of the
    R = per_mode_cutoff + 1 levels, (n_ph, k_0, ..., k_{R-1}) with
    sum_m k_m = N, and stands for the normalized symmetrization of that
    occupation; rows are R + 1 wide for any N. The key is the row in a
    mixed radix whose place values (radix_powers) are set by each
    column's bound: the photon is most significant and higher levels
    outrank lower ones, so a lift raises the key. Keys are ascending and
    a neighbor lookup is a binary search.
    """

    occupations: np.ndarray
    per_mode_cutoff: int
    total_cutoff: int
    parity: int
    keys: np.ndarray
    radix_powers: np.ndarray

    @property
    def dim(self) -> int:
        return self.keys.size


def build_basis(config: EdConfig, parity: int) -> BasisIndex:
    """Enumerate the symmetric parity sector, guarded by config.max_dimension.

    The branch occupations are expanded level by level from the top down,
    then paired with every photon number that fits the cutoff and parity (0 even, 1 odd).
    """
    if isinstance(parity, bool) or not isinstance(parity, int) or parity not in (0, 1):
        raise ConfigError(f"parity must be 0 or 1, got {parity!r}")
    N, top, total = config.n_atoms, config.per_mode_cutoff, config.total_cutoff
    dim = count_sector_dimension(N + 1, top, total, parity)
    if dim > config.max_dimension:
        raise ConfigError(
            f"sector dimension {dim} exceeds max_dimension = {config.max_dimension}; "
            "raise the limit explicitly if this size is intended"
        )
    # place values from the column bounds: k_0 .. k_top, then the photon
    sizes = [N + 1] + [min(N, total // m) + 1 for m in range(1, top + 1)] + [top + 1]
    if math.prod(sizes) >= 2**63:
        raise ConfigError(
            f"symmetric-sector keys for N = {N} at cutoffs {top}/{total} overflow int64; "
            "lower the cutoffs"
        )
    powers = np.roll(np.cumprod([1] + sizes[:-1], dtype=np.int64), 1)
    # branch parts (k_top, ..., k_1) in key order, each level bounded by
    # the branches and quanta left; every prefix extends, k_0 taking the rest
    levels = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    energy = np.zeros(1, dtype=np.int64)
    for m in range(top, 0, -1):
        counts = np.minimum((total - energy) // m, N - used) + 1
        parent = np.repeat(np.arange(counts.size), counts)
        k = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        levels = np.concatenate([levels[parent], k[:, None]], axis=1)
        used = used[parent] + k
        energy = energy[parent] + m * k
    branches = np.concatenate([(N - used)[:, None], levels[:, ::-1]], axis=1, dtype=np.int32)
    # the photon is the most significant column, so photon-major order is key order
    quanta = np.arange(top + 1)[:, None] + energy
    photon, part = np.nonzero((quanta <= total) & (quanta % 2 == parity))
    keys = photon * powers[0] + (branches @ powers[1:])[part]
    occ = np.concatenate([photon[:, None], branches[part]], axis=1, dtype=np.int32)
    occ.setflags(write=False)
    keys.setflags(write=False)
    return BasisIndex(
        occupations=occ,
        per_mode_cutoff=top,
        total_cutoff=total,
        parity=parity,
        keys=keys,
        radix_powers=powers,
    )


def _branch_terms(params: CircuitParams, R: int, quartic: bool) -> tuple[np.ndarray, np.ndarray]:
    """One branch on R levels, dense: its Hamiltonian atom and x = b + b^dag, the coupling's branch
    operator. atom is quartic in x, or the cosine one's exact matrix: the shared kernel on max(60, 2 R)
    levels cut to R. The sectors embed both; scan references delta_eps to atom's lowest level."""
    ladder = np.diag(np.sqrt(np.arange(1.0, R)), k=1)
    x = ladder + ladder.T
    if not quartic:
        return fock.branch(params, max(60, 2 * R)).H_atom[:R, :R], x
    derived = derive_linear(params)
    lam2 = (TWO_PI / PHI0) ** 2 * hbar * derived.Z_a / 2.0
    n = np.arange(R, dtype=float)
    atom = np.diag(hbar * derived.omega_a * (n + 0.5) + params.E_J) + (
        params.E_J * lam2**2 / 24.0
    ) * np.linalg.matrix_power(x, 4)
    return atom, x


def _locate(basis: BasisIndex, new_keys: np.ndarray) -> np.ndarray:
    """Positions of keys that are guaranteed to exist in the sector."""
    cols = np.searchsorted(basis.keys, new_keys)
    inside = cols < basis.dim
    if not inside.all() or not np.array_equal(basis.keys[cols], new_keys):
        raise RuntimeError("in-sector hop target missing from basis index")
    return cols


def _one_body(basis: BasisIndex, op: np.ndarray, photon_step: int) -> tuple[np.ndarray, ...]:
    """sum_j op(j) (photon_step 0) or sum_j (a + a^dag) op(j) (photon_step 1) in the sector:
    the (rows, cols, values) of its strict upper triangle, and its diagonal (zero at s = 1).

    op is real symmetric on the R branch levels; write s for photon_step.
    A level m with k_m branches reaches m + delta with op[m, m + delta]
    sqrt(k_m k'_{m+delta}), k' the target row's occupation, times
    sqrt(n_ph + 1) when the photon is raised too; only offsets with
    delta + s even keep the parity. The key moves by the place value of
    m + delta minus that of m, plus the photon's at s = 1, and either
    rise raises it, so those hops are the upper triangle. At s = 0 the
    diagonal is sum_m k_m op[m, m].
    """
    levels = basis.occupations[:, 1:]
    occ0 = basis.occupations[:, 0].astype(np.int64)
    R = op.shape[0]
    totals = occ0 + levels @ np.arange(R, dtype=levels.dtype)
    photon = np.sqrt(occ0 + 1.0) ** photon_step
    place = basis.radix_powers[1:]
    # every hop leaves an occupied level
    row, m = np.nonzero(levels)
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for delta in range(1 - R if photon_step else 1, R):
        if (delta + photon_step) % 2 or not np.any(np.diagonal(op, offset=delta)):
            continue
        room = (occ0 + photon_step <= basis.per_mode_cutoff) & (
            totals + photon_step + delta <= basis.total_cutoff
        )
        hop = room[row] & (m + delta >= 0) & (m + delta < R)
        src, frm = row[hop], m[hop]
        amp = op[frm, frm + delta]
        keep = amp != 0.0
        src, frm, amp = src[keep], frm[keep], amp[keep]
        to = frm + delta
        shift = place[to] - place[frm] + photon_step * basis.radix_powers[0]
        target = _locate(basis, basis.keys[src] + shift)
        rows.append(src)
        cols.append(target)
        vals.append(photon[src] * amp * np.sqrt(levels[src, frm] * levels[target, to]))
    if photon_step:
        diag = np.zeros(basis.dim)
    else:
        diag = np.bincount(row, weights=levels[row, m] * np.diagonal(op)[m], minlength=basis.dim)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), diag


@dataclass(frozen=True)
class SectorModel:
    """L_R0-independent pieces of one parity sector.

    photon_number is the diagonal n_ph + 1/2 (dimensionless), atom_static
    the summed branch Hamiltonians (joule), coupling the bare V. Both
    matrices hold one CSR pattern, the union of their entries and the
    diagonal, in the same indices and indptr arrays, each with explicit
    zeros where only the other has an entry; diagonal holds the position
    of each row's diagonal entry in that pattern's data. The branch
    parameters the model was built for are recorded so a sweep cannot
    silently reuse it with different junctions.
    """

    config: EdConfig
    basis: BasisIndex
    photon_number: np.ndarray
    atom_static: sp.csr_matrix
    coupling: sp.csr_matrix
    diagonal: np.ndarray
    atom_key: tuple


def _one_pattern(dim: int, atom: tuple, coupling: tuple):
    """Two symmetric terms, each as _one_body gives it, as CSR matrices on one pattern, the
    union of their entries and the diagonal, sharing indices and indptr (each explicit zero
    where only the other has an entry), plus the data position of each row's diagonal."""
    (a_rows, a_cols, a_vals, a_diag), (c_rows, c_cols, c_vals, _) = atom, coupling
    diag = np.arange(dim)
    # the diagonal, then both triangles of each term, every entry once; the CSR
    # conversion run on the entry numbers says where each entry lands
    n = dim + 2 * (a_vals.size + c_vals.size)
    index = np.int32 if n < 2**31 else np.int64
    order = sp.csr_matrix((np.arange(n, dtype=index), (
        np.concatenate([diag, a_rows, a_cols, c_rows, c_cols], dtype=index),
        np.concatenate([diag, a_cols, a_rows, c_cols, c_rows], dtype=index),
    )), shape=(dim, dim))
    if order.nnz != n:
        raise RuntimeError("sector terms hold a matrix entry twice")
    # both data arrays from one gather, each zeroed where the other term sits
    coupling_data = np.concatenate([a_diag, a_vals, a_vals, c_vals, c_vals])[order.data]
    atom_data = coupling_data.copy()
    is_atom = order.data < dim + 2 * a_vals.size
    atom_data[~is_atom] = 0.0
    coupling_data[is_atom] = 0.0
    pattern = (order.indices, order.indptr)
    return (
        sp.csr_matrix((atom_data, *pattern), shape=(dim, dim)),
        sp.csr_matrix((coupling_data, *pattern), shape=(dim, dim)),
        np.flatnonzero(order.data < dim),
    )


def build_sector_model(params: CircuitParams, config: EdConfig, parity: int) -> SectorModel:
    if params.N not in (None, config.n_atoms):
        raise ValueError(f"params.N = {params.N} differs from n_atoms = {config.n_atoms}")
    basis = build_basis(config, parity)
    atom, x = _branch_terms(params, config.per_mode_cutoff + 1, config.quartic)
    atom_static, coupling, diagonal = _one_pattern(basis.dim, _one_body(basis, atom, 0), _one_body(basis, x, 1))
    photon_number = basis.occupations[:, 0].astype(float) + 0.5
    for array in (photon_number, diagonal):
        array.setflags(write=False)
    return SectorModel(
        config=config,
        basis=basis,
        photon_number=photon_number,
        atom_static=atom_static,
        coupling=coupling,
        diagonal=diagonal,
        atom_key=(params.L_J, params.L_g, params.C_J),
    )


def hamiltonian_at(model: SectorModel, params: CircuitParams) -> sp.csr_matrix:
    """Sector Hamiltonian at the resonator inductance carried by params, joule,
    on the model's shared pattern: only its data array is new."""
    if (params.L_J, params.L_g, params.C_J) != model.atom_key:
        raise ValueError("sector model was built for different branch parameters")
    if params.N not in (None, model.config.n_atoms):
        raise ValueError(f"params.N = {params.N} differs from n_atoms = {model.config.n_atoms}")
    derived = derive_linear(params)
    scale = hbar * derived.g / math.sqrt(model.config.n_atoms)
    atom = model.atom_static
    # atom - scale * coupling to the bit, in one new array: -(s c) is exact
    data = model.coupling.data * -scale
    data += atom.data
    data[model.diagonal] += hbar * derived.omega_c * model.photon_number
    return sp.csr_matrix((data, atom.indices, atom.indptr), shape=atom.shape)


def lowest_eigenpairs(matrix: sp.spmatrix, k: int, seed: int = 0, v0: np.ndarray | None = None):
    """k smallest eigenpairs of a sparse symmetric matrix, verified.

    Small sectors fall back to a dense solve; otherwise the thick-restart
    Lanczos of :func:`_lanczos` runs from v0 when it is one vector. When v0
    is a block of orthonormal columns, Lanczos starts from the sum of the k
    lowest Ritz vectors of matrix on their span (one product of matrix with
    the block and one small eigh); scan passes each sector's basis of
    earlier eigenvectors, at most _KRYLOV_DIM + k vectors of its dimension.
    Without v0 Lanczos starts from a seeded random vector. Any fresh vector
    it needs comes from the same seeded generator, so repeated calls agree
    bit for bit. Lanczos stops at _RITZ_RTOL, not at machine precision, so
    the pairs depend on the start to about 1e-13 relative; a sweep that
    starts each point from the ones before makes each row depend on them by
    as much. Every pair must pass an inf-norm residual check or
    ConvergenceError is raised; but one start vector spans one direction
    per eigenspace, so a partner of an exactly degenerate wanted level can
    be missed, [1, 2] returned for diag(1, 1, 2, ...) at k = 2, and the
    check passes: each pair is exact.
    """
    dim = matrix.shape[0]
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > dim:
        raise ValueError(f"requested {k} eigenpairs from a dimension-{dim} sector")
    matrix = matrix.tocsr()
    # |H|_inf from the absolute values on the same pattern, not a copy of it
    absolute = sp.csr_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape)
    scale = absolute.sum(axis=1).max()
    if dim < max(2 * k + 2, _DENSE_FLOOR):
        w, v = np.linalg.eigh(matrix.toarray())
        w, v = w[:k], v[:, :k]
    else:
        rng = np.random.default_rng(seed)
        if v0 is None:
            v0 = rng.uniform(-1.0, 1.0, size=dim)
        elif v0.ndim == 2:
            _, ritz = np.linalg.eigh(v0.T @ (matrix @ v0))
            v0 = v0 @ ritz[:, :k].sum(axis=1)
        w, v = _lanczos(matrix, k, v0, _RITZ_RTOL, rng, scale or 1.0)
    resid = matrix @ v - v * w
    worst = np.abs(resid).max()
    if worst > _RESIDUAL_RTOL * scale:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_RTOL:.0e} * |H|_inf = {_RESIDUAL_RTOL * scale:.3e}"
        )
    return w, v


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """w minus its projection on the orthonormal rows of basis by classical Gram-Schmidt:
    (w, coefficients, norm, invariant). A second pass runs only when the first keeps less
    than 1/sqrt(2) of the norm (ARPACK's DGKS test, 0.717); invariant says the second
    cancelled as much again, so what is left is rounding noise."""
    before = math.sqrt(w @ w)
    h = basis @ w
    w -= h @ basis
    norm = math.sqrt(w @ w)
    if norm > 0.717 * before:
        return w, h, norm, False
    h2 = basis @ w
    w -= h2 @ basis
    second = math.sqrt(w @ w)
    return w, h + h2, second, second <= 0.717 * norm


def _lanczos(matrix, k: int, v0: np.ndarray, tol: float, rng: np.random.Generator, scale: float):
    """k lowest eigenpairs of a symmetric matrix by thick-restart Lanczos (Wu & Simon,
    SIAM J. Matrix Anal. Appl. 22, 602 (2000)), ascending; vectors are columns.

    The basis holds m = max(_KRYLOV_DIM, 2 (k + _KEPT_EXTRA)) vectors, at
    most the dimension. Each new vector loses its local part first, alpha
    and beta times the vector before (after a restart, the arrow from the
    kept vectors), then is orthogonalized against the whole basis by
    :func:`_orthogonalize`. Once the basis is full, the projected matrix T
    (tridiagonal, with that arrow after a restart) gives Ritz pairs
    (theta_i, s_i) with residual bound beta |s_m,i|, beta the norm of the
    next Lanczos vector. The k lowest are accepted together when every
    bound is at most tol max(eps^(2/3) scale, |theta_i|), ARPACK's rule on
    the matrix divided by scale, its inf-norm; otherwise the k +
    _KEPT_EXTRA lowest Ritz vectors and the next Lanczos vector start the
    basis again. When the new vector proves rounding noise, the Krylov
    space is invariant (beta = 0), and a fresh vector from rng,
    orthogonalized against the basis, continues it, so that a start vector
    that is already an eigenvector still yields k pairs. Only matrix @ x
    and matrix.shape are read. Raises ConvergenceError after _MAX_RESTARTS
    restarts.
    """
    dim = matrix.shape[0]
    keep = k + _KEPT_EXTRA
    m = min(max(_KRYLOV_DIM, 2 * keep), dim)
    Q = np.empty((m + 1, dim))
    Q[0] = v0 / math.sqrt(v0 @ v0)
    T = np.zeros((m, m))
    floor = scale * np.finfo(float).eps ** (2.0 / 3.0)
    start = 0
    for _ in range(_MAX_RESTARTS + 1):
        for j in range(start, m):
            w = matrix @ Q[j]
            T[j, j] = Q[j] @ w
            local = 0 if j == start else j - 1
            w -= T[j, local : j + 1] @ Q[local : j + 1]
            w, h, beta, invariant = _orthogonalize(w, Q[: j + 1])
            T[j, j] += h[j]
            if invariant:
                beta = 0.0
                if j + 1 < m:
                    w, _, norm, _ = _orthogonalize(rng.uniform(-1.0, 1.0, size=dim), Q[: j + 1])
                    Q[j + 1] = w / norm
                continue
            Q[j + 1] = w / beta
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, S = np.linalg.eigh(T)
        if np.all(beta * np.abs(S[-1, :k]) <= tol * np.maximum(floor, np.abs(theta[:k]))):
            return theta[:k], (S[:, :k].T @ Q[:m]).T
        Q[:keep] = S[:, :keep].T @ Q[:m]
        Q[keep] = Q[m]
        T[:] = 0.0
        np.fill_diagonal(T[:keep, :keep], theta[:keep])
        T[keep, :keep] = T[:keep, keep] = beta * S[-1, :keep]
        start = keep
    raise ConvergenceError(f"Lanczos did not converge in {_MAX_RESTARTS} restarts of a {m}-vector basis")


@dataclass(frozen=True)
class SectorEigen:
    """Lowest eigenpairs of one sector plus the ground-state photon number."""

    parity: int
    dim: int
    values: np.ndarray
    vectors: np.ndarray
    photon_number: float


def solve_sector(model: SectorModel, params: CircuitParams, k: int | None = None,
                 v0: np.ndarray | None = None) -> SectorEigen:
    """Lowest k eigenpairs of the sector at params, k = config.n_eigenvalues by default;
    Lanczos starts from v0 when given (a vector, or orthonormal columns whose k lowest
    Ritz vectors it sums, as :func:`lowest_eigenpairs` says), else from the vector
    config.seed draws."""
    H = hamiltonian_at(model, params)
    k = min(model.config.n_eigenvalues if k is None else k, H.shape[0])
    w, v = lowest_eigenpairs(H, k, seed=model.config.seed, v0=v0)
    ground = v[:, 0]
    n_ph = float(np.sum(ground**2 * (model.photon_number - 0.5)))
    return SectorEigen(
        parity=model.basis.parity,
        dim=H.shape[0],
        values=w,
        vectors=v,
        photon_number=n_ph,
    )


@dataclass(frozen=True)
class EdScan:
    """Observables along a resonator-inductance sweep at fixed N, in joule; delta_eps is
    (E_g - hbar omega_c / 2) / N minus the ground energy of the branch block the sectors hold."""

    L_R0_values: np.ndarray
    E_g: np.ndarray
    photon_number_per_atom: np.ndarray
    transition_even: np.ndarray
    transition_odd: np.ndarray
    delta_eps: np.ndarray
    dim_even: int
    dim_odd: int


def scan(params: CircuitParams, config: EdConfig, L_R0_values) -> EdScan:
    """Ground-sector observables along the sweep, in joule.

    Both parity sectors are assembled once and solved at each L_R0 in
    turn, for only the eigenpairs the observables read: the two lowest
    even states and the lowest odd state, whatever config.n_eigenvalues
    says. Each sector starts Lanczos from the config.seed vector at the
    first point and, at every later point, from the sum of the k lowest
    Ritz vectors of that point's H on an orthonormal basis of the
    eigenvectors the sector returned before: the newest k and the
    _KRYLOV_DIM directions before them, so the basis holds at most
    _KRYLOV_DIM + k vectors of the sector's dimension per sector.
    transition_even is the gap to the second even state, transition_odd
    the gap to the lowest odd state, delta_eps the ground energy per
    branch relative to the photon zero point plus the lowest eigenvalue
    of the branch block the sectors embed, which makes it 0 to rounding
    at zero coupling. The ground state must be even; an odd state
    below it means the truncation broke the parity structure and the point
    would be meaningless, so that raises ConvergenceError.
    """
    L_vals = np.asarray(L_R0_values, dtype=float)
    dims, rows = zip(*_scan_points(params, config, L_vals))
    E_g, photons, t_even, t_odd, delta = np.array(rows).T
    return EdScan(L_R0_values=L_vals, E_g=E_g, photon_number_per_atom=photons,
                  transition_even=t_even, transition_odd=t_odd, delta_eps=delta,
                  dim_even=dims[-1][0], dim_odd=dims[-1][1])


def _scan_points(params: CircuitParams, config: EdConfig, L_R0_values):
    """The points of :func:`scan`, each yielded once its two sectors are solved: (dim_even,
    dim_odd) and (E_g, photon_number_per_atom, transition_even, transition_odd, delta_eps)."""
    L_vals = np.asarray(L_R0_values, dtype=float)
    if L_vals.ndim != 1 or L_vals.size == 0:
        raise ValueError("L_R0_values must be a non-empty 1d array")
    atom, _ = _branch_terms(params, config.per_mode_cutoff + 1, config.quartic)
    eps_a0 = float(np.linalg.eigvalsh(atom)[0])
    even_model = build_sector_model(params, config, 0)
    odd_model = build_sector_model(params, config, 1)
    N = config.n_atoms
    even_basis = odd_basis = None
    for L in L_vals:
        p = params.replace(L_R0=float(L))
        even = solve_sector(even_model, p, k=2, v0=even_basis)
        odd = solve_sector(odd_model, p, k=1, v0=odd_basis)
        even_basis = _sweep_basis(even.vectors, even_basis)
        odd_basis = _sweep_basis(odd.vectors, odd_basis)
        if odd.values[0] < even.values[0]:
            raise ConvergenceError("odd sector fell below the even ground state; cutoffs are too tight")
        E_g = float(even.values[0])
        zero_point = hbar * derive_linear(p).omega_c / 2.0
        yield (even.dim, odd.dim), (E_g, even.photon_number / N, even.values[1] - E_g,
                                    odd.values[0] - E_g, (E_g - zero_point) / N - eps_a0)


def _sweep_basis(vectors: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """Orthonormal columns spanning the new eigenvectors, then the first _KRYLOV_DIM columns of
    basis, its newest directions: at most _KRYLOV_DIM + k columns for k vectors."""
    block = vectors if basis is None else np.hstack([vectors, basis[:, :_KRYLOV_DIM]])
    return np.linalg.qr(block)[0]


def export_matrix(path: str, matrix: sp.spmatrix) -> str:
    """Write a sparse matrix in Matrix Market format; returns the real path."""
    from scipy.io import mmwrite

    target = path if os.path.splitext(path)[1] else path + ".mtx"
    # a path given to mmwrite whose directory is missing is skipped without an error
    with open(target, "wb") as fh:
        mmwrite(fh, sp.coo_matrix(matrix))
    return target
