"""Tests for the truncated single-branch operator algebra.

The cosine matrix has a closed form in the harmonic basis (Gaussian
factor times associated Laguerre polynomials), which serves as the
independent oracle here. Frozen reference numbers were produced by that
closed form and by running the eigensolvers at generous truncation.
"""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, logsumexp

from kubo_oracle import gibbs_average, level_susceptibility, oracle_free_energy, oracle_weights
from srptsim import meanfield
from srptsim.circuit import TWO_PI, derive_linear
from srptsim.constants import PHI0, h, hbar
from srptsim.fock import (
    SPECTRA_MEMO,
    Branch,
    _branch,
    _static_response,
    atom_hamiltonian,
    branch,
    build_operators,
    gibbs_state,
)

GHZ = 1e9

# Squared ratio of the zero-point flux spread to Phi0 / 2 pi for the
# reference circuit, (2 pi / Phi0)^2 hbar Z_a / 2.
REF_LAMBDA_SQ = 0.10540112890241315

# (t01 - t12) / t01 for the reference atom at M = 60. Negative: the cosine
# flattens the quadratic term while the quartic stiffens the well.
REF_ANHARMONICITY = -0.03164498445160957


def cos_element_oracle(m, n, lam_sq):
    """Closed-form <m|cos(k psi)|n> for a harmonic basis with (k sigma)^2 = lam_sq."""
    if (m - n) % 2:
        return 0.0
    m, n = max(m, n), min(m, n)
    k = m - n
    pref = math.exp(-lam_sq / 2.0) * math.sqrt(math.factorial(n) / math.factorial(m))
    return pref * (-1.0) ** (k // 2) * lam_sq ** (k / 2.0) * eval_genlaguerre(n, k, lam_sq)


def fresh_flux_response(b, phi, kT):
    """(<psi>, chi) at the tilt phi from a fresh eigh: the Gibbs average of psi_op and its Kubo
    sum, the rows of the ground multiplet only at kT = 0."""
    w, v = np.linalg.eigh(b.hamiltonian(phi))
    p = gibbs_state(w, kT)[1]
    rows = v if kT > 0.0 else v[:, p > 0.0]
    psi = gibbs_average(w, v, (b.ops.psi_op,), kT)[1][0]
    return psi, _static_response(w, rows.conj().T @ b.ops.psi_op @ v, p, kT)


def fresh_state(b, phi, kT):
    """(F, <psi>, <cos>, <sin>) at the tilt phi from a fresh eigh, by the generic Gibbs oracle."""
    ops = (b.ops.psi_op, b.ops.cos_op, b.ops.sin_op)
    F, averages = gibbs_average(*np.linalg.eigh(b.hamiltonian(phi)), ops, kT)
    return (F, *averages)


@pytest.fixture
def linear(reference):
    return derive_linear(reference)


def test_operator_shapes_and_structure(linear):
    ops = build_operators(linear, 7)
    assert ops.psi_op.shape == (7, 7) and ops.Z_a == linear.Z_a
    for a in (ops.psi_op, ops.rho_op, ops.cos_op, ops.sin_op):
        assert a.shape == (7, 7)
        assert not a.flags.writeable
    assert np.array_equal(ops.psi_op, ops.psi_op.T)
    assert np.array_equal(ops.rho_op, ops.rho_op.conj().T)
    assert np.all(ops.rho_op.real == 0.0)
    # flux is strictly off-diagonal, so its diagonal vanishes exactly
    assert np.all(np.diag(ops.psi_op) == 0.0)


def test_commutator_on_interior_levels(linear):
    """[psi, rho] = i hbar on every level the truncation leaves intact."""
    M = 24
    ops = build_operators(linear, M)
    comm = ops.psi_op @ ops.rho_op - ops.rho_op @ ops.psi_op
    expected = 1j * hbar * np.eye(M)
    assert np.allclose(comm[: M - 1, : M - 1], expected[: M - 1, : M - 1], atol=1e-12 * hbar)
    # the corner entry absorbs the truncated ladder weight
    assert comm[M - 1, M - 1] == pytest.approx(1j * hbar * (1 - M), rel=1e-12)


def test_truncation_validation(linear):
    with pytest.raises(ValueError):
        build_operators(linear, 0)
    with pytest.raises(ValueError):
        build_operators(linear, 1.5)
    with pytest.raises(ValueError):
        build_operators(linear, True)


def test_single_level_degenerate_case(linear, reference):
    ops = build_operators(linear, 1)
    assert ops.psi_op[0, 0] == 0.0
    assert ops.rho_op[0, 0] == 0.0
    assert ops.cos_op[0, 0] == pytest.approx(1.0, abs=1e-15)
    H = atom_hamiltonian(ops, reference)
    assert H[0, 0] == pytest.approx(reference.E_J, rel=1e-12)


def test_cos_spectrum_bounded(linear):
    ops = build_operators(linear, 40)
    w = np.linalg.eigvalsh(ops.cos_op)
    assert w.min() >= -1.0 - 1e-12
    assert w.max() <= 1.0 + 1e-12


def test_cos_sin_pythagorean_identity(linear):
    ops = build_operators(linear, 35)
    total = ops.cos_op @ ops.cos_op + ops.sin_op @ ops.sin_op
    assert np.allclose(total, np.eye(35), atol=1e-10)


def test_cos_matrix_against_laguerre_oracle(linear):
    """Spectral calculus must reproduce the closed-form matrix elements.

    Truncation pollutes rows near the edge of the basis, so only the first
    block is compared against the analytic Gaussian-Laguerre expression.
    """
    ops = build_operators(linear, 60)
    lam_sq = (TWO_PI / PHI0) ** 2 * hbar * linear.Z_a / 2.0
    assert lam_sq == pytest.approx(REF_LAMBDA_SQ, rel=1e-12)
    for m in range(8):
        for n in range(8):
            assert ops.cos_op[m, n] == pytest.approx(
                cos_element_oracle(m, n, lam_sq), abs=1e-12
            )


def test_ground_cosine_average_gaussian(linear):
    ops = build_operators(linear, 60)
    assert abs(ops.cos_op[0, 0] - math.exp(-REF_LAMBDA_SQ / 2.0)) < 1e-8


def test_two_assembly_identity(linear, reference):
    """Charge plus flux quadratics assemble into the number operator.

    rho^2 / 2 C_J + v psi^2 / 2 equals hbar omega_a (n + 1/2) exactly in
    the truncated matrices except the top corner, which loses hbar omega_a
    M / 2 of ladder weight. The remaining 1 / L_J share of the flux
    quadratic is E_J (2 pi psi / Phi0)^2 / 2.
    """
    M = 12
    ops = build_operators(linear, M)
    H_direct = atom_hamiltonian(ops, reference)
    phase = TWO_PI * ops.psi_op / PHI0
    ph_sq = phase @ phase
    H_split = hbar * linear.omega_a * (np.diag(np.arange(M)) + 0.5 * np.eye(M)) + reference.E_J * (
        ops.cos_op + ph_sq / 2.0
    )
    diff = H_direct - H_split
    corner = diff[M - 1, M - 1]
    assert corner == pytest.approx(-hbar * linear.omega_a * M / 2.0, rel=1e-12)
    diff[M - 1, M - 1] = 0.0
    assert np.abs(diff).max() < 1e-12 * np.abs(H_direct).max()


def test_harmonic_limit(reference):
    # infinite junction inductance removes the cosine entirely
    p = reference.replace(L_J=math.inf)
    d = derive_linear(p)
    omega0 = 1.0 / math.sqrt(p.L_g * p.C_J)
    assert d.omega_a == pytest.approx(omega0, rel=1e-12)
    ops = build_operators(d, 40)
    w = np.linalg.eigvalsh(atom_hamiltonian(ops, p))
    for n in range(11):
        assert w[n] == pytest.approx(hbar * omega0 * (n + 0.5), rel=1e-8)


def test_anharmonicity_reference(linear, reference):
    ops = build_operators(linear, 60)
    w = np.linalg.eigvalsh(atom_hamiltonian(ops, reference))
    t01 = w[1] - w[0]
    t12 = w[2] - w[1]
    anh = (t01 - t12) / t01
    assert anh == pytest.approx(REF_ANHARMONICITY, rel=1e-6)
    assert 0.02 < abs(anh) < 0.04


def test_ground_energy_truncation_stable(linear, reference):
    e40 = np.linalg.eigvalsh(atom_hamiltonian(build_operators(linear, 40), reference))[0]
    e60 = np.linalg.eigvalsh(atom_hamiltonian(build_operators(linear, 60), reference))[0]
    assert abs(e40 - e60) < 1e-10 * reference.E_J


def test_lowest_transitions_converged(linear, reference):
    def transitions(M):
        w = np.linalg.eigvalsh(atom_hamiltonian(build_operators(linear, M), reference))
        return w[1:9] - w[0]

    t48 = transitions(48)
    t64 = transitions(64)
    assert np.max(np.abs(t48 - t64) / t64) < 1e-8


def test_parity_symmetry(linear, reference):
    M = 30
    ops = build_operators(linear, M)
    P = np.diag((-1.0) ** np.arange(M))
    H = atom_hamiltonian(ops, reference)
    assert np.allclose(P @ H @ P, H, atol=1e-12 * np.abs(H).max())
    # flux is strictly odd, exactly so in the matrix representation
    assert np.array_equal(P @ ops.psi_op @ P, -ops.psi_op)
    phi = 0.13 * PHI0
    b = branch(reference, M)
    lhs = P @ b.hamiltonian(phi) @ P
    rhs = b.hamiltonian(-phi)
    assert np.allclose(lhs, rhs, atol=1e-12 * np.abs(H).max())


def test_effective_hamiltonian_flux_behaviour(linear, reference):
    b = branch(reference, 40)
    assert np.array_equal(b.hamiltonian(0.0), atom_hamiltonian(build_operators(linear, 40), reference))
    phi = 0.2 * PHI0
    w_plus = np.linalg.eigvalsh(b.hamiltonian(phi))
    w_minus = np.linalg.eigvalsh(b.hamiltonian(-phi))
    assert np.allclose(w_plus, w_minus, rtol=1e-12)
    # a positive tilt pulls the branch flux to positive values
    mean_psi = b.state(phi, 0.0)[1]
    assert mean_psi > 0.0
    assert mean_psi == gibbs_average(*np.linalg.eigh(b.hamiltonian(phi)), (b.ops.psi_op,), 0.0)[1][0]


def test_state_equals_the_gibbs_oracle(reference):
    """state is the generic Gibbs reader at psi, cos and sin, bit for bit, at kT = 0 and above,
    untilted and tilted both ways, and on a ground multiplet that is exactly degenerate."""
    b = branch(reference, 40)
    for phi in (0.0, -0.0, 0.07 * PHI0, -0.2 * PHI0):
        for kT in (0.0, 1e-30, h * 20 * GHZ, h * 1e3 * GHZ):
            assert b.state(phi, kT) == fresh_state(b, phi, kT)
    # a three-level branch whose ground pair is degenerate: at kT = 0 both share the weight
    ops = build_operators(derive_linear(reference), 3)
    H = np.diag([0.0, 0.0, 1.0]) * h * GHZ
    pair = Branch(ops=ops, H_atom=H, L_g=reference.L_g, levels=np.diag(H).copy(), psi_levels=ops.psi_op)
    assert np.count_nonzero(gibbs_state(np.linalg.eigh(H)[0], 0.0)[1]) == 2
    for kT in (0.0, h * 0.5 * GHZ):
        assert pair.state(0.0, kT) == fresh_state(pair, 0.0, kT)


def test_thermal_expectation_identity_and_parity(linear, reference):
    """The Gibbs state is normalized, and the untilted branch's odd averages, <psi> and <sin>, vanish."""
    b = branch(reference, 30)
    eye = np.eye(30)
    psi_scale = math.sqrt(hbar * linear.Z_a / 2.0)
    for kT in (0.0, h * 5 * GHZ, h * 200 * GHZ):
        _, (norm, psi) = gibbs_average(*np.linalg.eigh(b.hamiltonian(0.0)), (eye, b.ops.psi_op), kT)
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert abs(psi) < 1e-12 * psi_scale
        _, psi, _, sin_avg = b.state(0.0, kT)
        assert abs(psi) < 1e-12 * psi_scale and abs(sin_avg) < 1e-12


def test_thermal_expectation_high_temperature_limit(reference):
    M = 30
    b = branch(reference, M)
    w = b.levels
    kT = 1e4 * (w[-1] - w[0])
    _, (avg,) = gibbs_average(*np.linalg.eigh(b.hamiltonian(0.0)), (np.diag(np.arange(float(M))),), kT)
    assert avg == pytest.approx((M - 1) / 2.0, rel=1e-3)


def test_thermal_expectation_degenerate_ground():
    H = np.diag([0.0, 0.0, 1.0])
    A = np.diag([1.0, -1.0, 5.0])
    assert gibbs_average(*np.linalg.eigh(H), (A,), 0.0)[1][0] == pytest.approx(0.0, abs=1e-14)


def test_thermal_expectation_zero_temperature_continuity(reference):
    b = branch(reference, 30)
    number = np.diag(np.arange(30.0))
    gap = b.levels[1] - b.levels[0]
    _, (cold,) = gibbs_average(*np.linalg.eigh(b.hamiltonian(0.0)), (number,), 1e-6 * gap)
    _, (frozen,) = gibbs_average(*np.linalg.eigh(b.hamiltonian(0.0)), (number,), 0.0)
    assert cold == pytest.approx(frozen, abs=1e-10)
    # and state's averages at a tilt, psi in units of its zero-point spread
    cold, frozen = (np.array(b.state(0.05 * PHI0, kT)[1:]) for kT in (1e-6 * gap, 0.0))
    scale = np.array([math.sqrt(hbar * b.ops.Z_a / 2.0), 1.0, 1.0])
    assert cold / scale == pytest.approx(frozen / scale, abs=1e-10)


def test_thermal_expectation_rejects_negative_temperature(reference):
    b = branch(reference, 5)
    with pytest.raises(ValueError):
        b.state(0.0, -1.0)


def test_thermal_expectation_rejects_a_bare_operator(reference):
    # the rows of a matrix spread into operators are not operators
    b = branch(reference, 5)
    with pytest.raises(ValueError):
        gibbs_average(*np.linalg.eigh(b.hamiltonian(0.0)), tuple(np.diag(np.arange(5.0))), 0.0)


def test_free_energy_single_level(reference):
    F = branch(reference, 1).free_energy(0.0, h * 10 * GHZ)
    assert F == pytest.approx(reference.E_J, rel=1e-12)


def test_free_energy_harmonic_closed_form(reference):
    """With the cosine removed the partition sum is geometric.

    kT is kept at a tenth of the level spacing so the corrupted top level
    contributes less than 1e-150 and the infinite-sum formula applies.
    """
    p = reference.replace(L_J=math.inf)
    d = derive_linear(p)
    omega0 = d.omega_a
    kT = hbar * omega0 / 10.0
    F = branch(p, 40).free_energy(0.0, kT)
    closed = hbar * omega0 / 2.0 + kT * math.log1p(-math.exp(-hbar * omega0 / kT))
    assert F == pytest.approx(closed, rel=1e-10)


def test_free_energy_truncation_convergence(reference):
    # hotter Gibbs states occupy more levels, so the converged M grows with kT
    for kT_GHz, M in ((20.0, 50), (100.0, 100)):
        kT = h * kT_GHz * GHZ
        F_lo = branch(reference, M).free_energy(0.0, kT)
        F_hi = branch(reference, M + 10).free_energy(0.0, kT)
        assert abs(F_lo - F_hi) < 1e-8 * reference.E_J


def test_free_energy_matches_logsumexp_oracle(reference):
    """The shifted numpy sum against scipy's logsumexp on the same spectrum.

    The free energy that comes with state's averages is computed from the
    eigenvalues of eigh rather than eigvalsh, which differ in the last few
    digits, so it gets a looser bound.
    """
    b = branch(reference, 60)
    for phi in (0.0, 0.1 * PHI0):
        w = np.linalg.eigvalsh(b.hamiltonian(phi))
        # 1e-3 GHz keeps only the ground weight and 1 GHz keeps 18 of 60:
        # most weights underflow to 0 there
        for kT_GHz in (1e-3, 1.0, 20.0, 1e4):
            kT = h * kT_GHz * GHZ
            oracle = w[0] - kT * logsumexp(-(w - w[0]) / kT)
            assert b.free_energy(phi, kT) == pytest.approx(oracle, rel=1e-14, abs=0.0)
            F = b.state(phi, kT)[0]
            assert F == pytest.approx(oracle, rel=1e-13, abs=0.0)
        weights = np.exp(-(w - w[0]) / (h * GHZ))
        assert 1 < np.count_nonzero(weights) < w.size // 2


def test_free_energy_zero_temperature_is_ground_energy(linear, reference):
    b = branch(reference, 30)
    assert b.free_energy(0.05 * PHI0, 0.0) == np.linalg.eigvalsh(b.hamiltonian(0.05 * PHI0))[0]
    with pytest.raises(ValueError):
        b.free_energy(0.05 * PHI0, -h * GHZ)


@pytest.mark.parametrize("kT_GHz", [0.0, 50.0])
def test_tilt_memos_are_exact_and_bounded(reference, monkeypatch, kT_GHz):
    """A tilt read again returns bit for bit what a fresh eigensolve gives, every memo keeps
    no more entries than SPECTRA_MEMO, and no memo holds a matrix or a writable array."""
    kT = h * kT_GHz * GHZ
    _branch.cache_clear()
    b = branch(reference, 20)
    # more distinct tilts than any memo keeps, 0.0 and -0.0 among them
    distinct = np.concatenate([[0.0, -0.0], np.linspace(-0.2, 0.2, SPECTRA_MEMO + 30) * PHI0])
    oracle = {float(phi).hex(): (gibbs_state(np.linalg.eigvalsh(b.hamiltonian(phi)), kT)[0],
                                 fresh_state(b, phi, kT), fresh_flux_response(b, phi, kT))
              for phi in distinct}
    solves = {"eigvalsh": 0, "eigh": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def counted(a):
            solves[name] += 1
            return real(a)

        return counted

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh"))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh"))
    # each tilt twice in a shuffled order, every fifth call repeated at once
    sequence = np.random.default_rng(11).permutation(np.concatenate([distinct, distinct]))
    calls = [phi for i, phi in enumerate(sequence) for _ in range(1 + (i % 5 == 0))]
    memos = (b._spectrum, b._response, b._state)
    for phi in calls:
        F, state, response = oracle[float(phi).hex()]
        assert b.free_energy(phi, kT) == F
        assert b.state(phi, kT) == state
        assert b.flux_response(phi, kT) == response
        assert all(memo.cache_info().currsize <= SPECTRA_MEMO for memo in memos)
    # remembered tilts are not solved again, evicted ones are; each eigh is one memo's miss
    assert distinct.size < solves["eigvalsh"] < len(calls)
    for memo in (b._response, b._state):
        assert distinct.size < memo.cache_info().misses < len(calls)
    assert solves["eigh"] == b._response.cache_info().misses + b._state.cache_info().misses
    assert [memo.cache_info().currsize for memo in memos] == [SPECTRA_MEMO] * 3
    # the latest tilts are the remembered ones: read back without a solve
    latest = list(dict.fromkeys(float(phi).hex() for phi in reversed(calls)))[:SPECTRA_MEMO]
    made, missed = dict(solves), [memo.cache_info().misses for memo in memos]
    assert [b._state(key, kT) for key in latest] == [oracle[key][1] for key in latest]
    assert [b._response(key, kT) for key in latest] == [oracle[key][2] for key in latest]
    spectra = [b._spectrum(key) for key in latest]
    assert solves == made and [memo.cache_info().misses for memo in memos] == missed
    # the spectra are read-only vectors; the other two memos hold floats only
    assert all(a.shape == (20,) and not a.flags.writeable for a in spectra)
    assert all(type(x) is float for key in latest for x in (*b._state(key, kT), *b._response(key, kT)))


def test_tilt_memos_under_concurrent_readers(reference):
    """Threads sharing one kernel read the same tilts in different orders: every read equals
    a fresh eigensolve bit for bit and no memo passes its bound."""
    kT = h * 20 * GHZ
    _branch.cache_clear()
    b = branch(reference, 10)
    tilts = np.linspace(-0.2, 0.2, SPECTRA_MEMO + 40) * PHI0
    oracle = {float(phi).hex(): (gibbs_state(np.linalg.eigvalsh(b.hamiltonian(phi)), kT)[0],
                                 fresh_state(b, phi, kT), fresh_flux_response(b, phi, kT))
              for phi in tilts}
    wrong, errors = [], []

    def reader(seed):
        try:
            for phi in np.random.default_rng(seed).choice(tilts, size=300):
                read = b.free_energy(phi, kT), b.state(phi, kT), b.flux_response(phi, kT)
                if read != oracle[float(phi).hex()]:
                    wrong.append(phi)
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
    assert all(memo.cache_info().currsize <= SPECTRA_MEMO for memo in (b._spectrum, b._response, b._state))


def test_branch_rejects_negative_temperature(reference):
    b = branch(reference, 10)
    with pytest.raises(ValueError):
        b.free_energy(0.0, -h * GHZ)
    with pytest.raises(ValueError):
        b.state(0.0, -h * GHZ)
    # gibbs_state and every reader of the kernel check the temperature
    for kT in (math.nan, math.inf, -math.inf, -1.0):
        for call in (lambda: gibbs_state(b.levels, kT), lambda: b.free_energy(0.0, kT),
                     lambda: b.state(0.0, kT), lambda: b.flux_response(0.0, kT),
                     lambda: b.susceptibility(kT)):
            with pytest.raises(ValueError, match="kT must be finite and non-negative"):
                call()


@pytest.mark.parametrize("kT", [-1.0, math.nan, math.inf])
def test_branch_rejects_a_bad_temperature_before_its_memos(reference, monkeypatch, kT):
    """A bad kT raises at free_energy, state and flux_response before any memo is read: no
    eigensolve runs and no memo keeps an entry."""
    _branch.cache_clear()  # a fresh kernel, so that no memo is full and an entry would show
    b = branch(reference, 10)
    solves = []
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, lambda a, name=name: solves.append(name))
    with pytest.raises(ValueError, match="kT must be finite and non-negative"):
        b.free_energy(0.0123, kT)
    with pytest.raises(ValueError, match="kT must be finite and non-negative"):
        b.state(0.0456, kT)
    with pytest.raises(ValueError, match="kT must be finite and non-negative"):
        b.flux_response(0.0789, kT)
    assert solves == []
    assert [memo.cache_info().currsize for memo in (b._spectrum, b._response, b._state)] == [0, 0, 0]


def test_gibbs_state_equals_the_two_functions_it_merged(reference):
    """gibbs_state returns bit for bit what the separate free-energy and weight functions gave."""
    b = branch(reference, 30)
    levels = np.linalg.eigvalsh(b.hamiltonian(0.07 * PHI0))
    # a ground pair degenerate to 1e-15 relative, well inside DEGENERACY_RTOL
    pair = np.array([-2.0, -2.0 * (1.0 - 1e-15), 0.5, 3.0]) * h * GHZ
    for w in (b.levels, levels, pair):
        for kT in (0.0, 1e-30, h * 50 * GHZ, 1e-17):
            F, p = gibbs_state(w, kT)
            assert F.hex() == oracle_free_energy(w, kT).hex()
            assert p.tobytes() == oracle_weights(w, kT).tobytes()
    assert np.count_nonzero(gibbs_state(pair, 0.0)[1]) == 2


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_branch_rejects_a_non_finite_tilt_before_its_memos(reference, monkeypatch, phi):
    """A non-finite tilt raises at every reader with no eigensolve and never enters a memo,
    where it would evict real tilts."""
    _branch.cache_clear()  # a fresh kernel, so that no memo is full and an entry would show
    b = branch(reference, 10)
    b.free_energy(0.01 * PHI0, 0.0)
    b.state(0.01 * PHI0, 0.0)
    b.flux_response(0.01 * PHI0, 0.0)
    memos = (b._spectrum, b._response, b._state)
    sizes = [memo.cache_info().currsize for memo in memos]
    solves = []
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, lambda a, name=name: solves.append(name))
    for kT in (0.0, h * 20 * GHZ):
        for call in (lambda: b.hamiltonian(phi), lambda: b.free_energy(phi, kT),
                     lambda: b.state(phi, kT), lambda: b.flux_response(phi, kT),
                     lambda: meanfield.action_per_atom(phi, kT, reference, M=10)):
            with pytest.raises(ValueError, match="phi must be finite"):
                call()
    assert solves == []
    assert [memo.cache_info().currsize for memo in memos] == sizes


@pytest.mark.parametrize("M", [True, 60.0, 0])
def test_branch_checks_the_truncation_before_its_cache(reference, M):
    """True and 60.0 hash like 1 and 60, so a check behind the cache would depend on call order."""
    _branch.cache_clear()
    with pytest.raises(ValueError, match="M must be a positive integer"):
        branch(reference, M)
    branch(reference, 60)
    with pytest.raises(ValueError, match="M must be a positive integer"):
        branch(reference, M)


def test_atom_spectrum_orthonormal(reference):
    """The kernel's bare-branch spectrum: ascending, normalized, ground energy at kT = 0."""
    b = branch(reference, 40)
    w = np.linalg.eigvalsh(b.H_atom)
    assert np.all(np.diff(w) >= 0.0)
    assert b.free_energy(0.0, 0.0) == w[0]
    for kT in (0.0, h * 20 * GHZ, h * 1e3 * GHZ):
        _, (one,) = gibbs_average(*np.linalg.eigh(b.H_atom), (np.eye(40),), kT)
        assert one == pytest.approx(1.0, rel=1e-12)
    assert b.state(0.0, 0.0)[0] == pytest.approx(w[0], rel=1e-13, abs=0.0)


def test_branch_shared_across_resonator_sweeps(reference):
    b = branch(reference, 60)
    assert branch(reference.replace(L_R0=0.9e-9, C_R0=3e-15), 60) is b
    assert branch(reference.replace(N=3), 60) is b
    assert branch(reference, 40) is not b
    assert branch(reference.replace(L_g=0.4e-9), 60) is not b
    assert not b.H_atom.flags.writeable and not b.ops.sin_op.flags.writeable
    assert np.array_equal(b.ops.sin_op, build_operators(derive_linear(reference), 60).sin_op)


def test_susceptibility_is_free_energy_curvature(reference):
    """chi = -d^2 F / dh^2 at zero tilt h = phi / L_g, by central differences of F."""
    b = branch(reference, 60)
    assert not b.levels.flags.writeable and not b.psi_levels.flags.writeable
    phi = 3e-5 * PHI0
    tilt = phi / b.L_g
    for kT in h * np.array([0.0, 20.0, 200.0]) * GHZ:
        F0, F_plus, F_minus = (b.free_energy(x, kT) for x in (0.0, phi, -phi))
        curvature = -(F_plus - 2.0 * F0 + F_minus) / tilt**2
        assert b.susceptibility(kT) == pytest.approx(curvature, rel=1e-6)
    with pytest.raises(ValueError):
        b.susceptibility(-h * GHZ)


def test_susceptibility_matches_level_oracle(reference):
    """The Kubo sum on the branch levels equals their level formula; exactly at kT = 0."""
    rng = np.random.default_rng(173601)
    circuits = [reference] + [
        reference.replace(**{name: getattr(reference, name) * (1.0 + 0.03 * rng.uniform(-1.0, 1.0))
                             for name in ("L_J", "L_g", "C_J")})
        for _ in range(2)
    ]
    for p in circuits:
        b = branch(p, 60)
        assert b.susceptibility(0.0) == level_susceptibility(b, 0.0)
        for f in (5.0, 20.0, 200.0):
            kT = h * f * GHZ
            assert b.susceptibility(kT) == pytest.approx(level_susceptibility(b, kT), rel=1e-14, abs=0.0)


def test_response_is_flux_derivative(reference):
    """chi of Branch.flux_response is d<psi>/dh by central differences, and susceptibility at phi = 0."""
    b = branch(reference, 60)
    for kT in h * np.array([0.0, 20.0, 200.0]) * GHZ:
        _, chi = b.flux_response(0.0, kT)
        assert chi == pytest.approx(b.susceptibility(kT), rel=1e-12, abs=0.0)
        for phi in (0.05 * PHI0, 0.2 * PHI0):
            psi, chi = b.flux_response(phi, kT)
            assert psi == b.state(phi, kT)[1]
            dphi = 1e-4 * phi
            up, down = b.state(phi + dphi, kT)[1], b.state(phi - dphi, kT)[1]
            assert chi == pytest.approx((up - down) / (2.0 * dphi / b.L_g), rel=1e-8)


def test_static_response_with_degenerate_levels():
    """An exactly degenerate excited pair takes the p / kT limit; chi is still d<B>/dh."""
    H = np.diag([0.0, 1.0, 1.0, 2.5])
    B = np.random.default_rng(3).normal(size=(4, 4))
    B = B + B.T
    dh = 1e-5
    for kT in (0.05, 0.7, 30.0):
        w, v = np.linalg.eigh(H)
        chi = _static_response(w, v.T @ B @ v, gibbs_state(w, kT)[1], kT)
        _, (up,) = gibbs_average(*np.linalg.eigh(H - dh * B), (B,), kT)
        _, (down,) = gibbs_average(*np.linalg.eigh(H + dh * B), (B,), kT)
        assert chi == pytest.approx((up - down) / (2.0 * dh), rel=1e-8)
