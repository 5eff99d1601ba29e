"""Named internal consistency checks, runnable from the command line.

Each check exercises one structural invariant of the package against an
independent formulation: closed forms, finite differences, dense linear
algebra, or scaling identities. They are meant as a quick field check of
an installation, not as a replacement for the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fluct, fock, meanfield
from .circuit import (
    CircuitParams,
    bosonic_srpt_condition,
    classical_critical_inductance,
    classical_minimum,
    constrained_potential,
    constraint_slope,
    derive_linear,
    inductive_energy,
    polariton_frequencies,
    reference_params,
)
from .constants import PHI0, h, hbar
from .errors import ConfigError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(condition: bool, message: str):
    if not condition:
        raise RuntimeError(message)


def _random_params(rng) -> CircuitParams:
    L_J = rng.uniform(0.3, 3.0) * 1e-9
    L_g = rng.uniform(0.1, 0.9) * L_J
    return CircuitParams(
        L_J=L_J,
        L_g=L_g,
        C_J=rng.uniform(5.0, 100.0) * 1e-15,
        C_R0=rng.uniform(0.5, 20.0) * 1e-15,
        L_R0=rng.uniform(0.05, 3.0) * 1e-9,
    )


def _check_linear_threshold_equivalence(rng):
    worst_margin = math.inf
    for _ in range(200):
        p = _random_params(rng)
        coupled = bosonic_srpt_condition(derive_linear(p))
        inductive = p.L_R0 > classical_critical_inductance(p)
        _require(coupled == inductive, f"criteria disagree at {p}")
        worst_margin = min(worst_margin, abs(p.L_R0 - classical_critical_inductance(p)))
    return f"200 random circuits agree, closest margin {worst_margin:.2e} H"


def _check_vieta(rng):
    worst = 0.0
    for _ in range(200):
        wc = rng.uniform(1e10, 1e13)
        wa = rng.uniform(1e10, 1e13)
        g = rng.uniform(0.0, 2.0) * math.sqrt(wc * wa)
        wp, wm2 = polariton_frequencies(wc, wa, g)
        s = wp**2 + wm2
        prod = wp**2 * wm2
        e1 = abs(s - (wc**2 + wa**2)) / (wc**2 + wa**2)
        e2 = abs(prod - (wc**2 * wa**2 - 4.0 * g**2 * wc * wa)) / (wc**2 * wa**2)
        worst = max(worst, e1, e2)
    _require(worst < 1e-10, f"root identities violated at relative {worst:.2e}")
    return f"sum and product identities hold to {worst:.2e}"


def _check_gaussian_cosine(rng):
    p = reference_params()
    ops = fock.branch(p, 60).ops
    lam2 = (2.0 * math.pi / PHI0) ** 2 * hbar * ops.Z_a / 2.0
    expected = math.exp(-lam2 / 2.0)
    got = float(ops.cos_op[0, 0])
    _require(abs(got - expected) < 1e-8, f"vacuum cosine {got} vs closed form {expected}")
    return f"vacuum cosine average {got:.10f} matches exp(-lambda^2/2)"


def _check_cos_sin_unitarity(rng):
    p = reference_params()
    ops = fock.branch(p, 40).ops
    dev = np.abs(ops.cos_op @ ops.cos_op + ops.sin_op @ ops.sin_op - np.eye(40)).max()
    _require(dev < 1e-12, f"cos^2 + sin^2 deviates from identity by {dev:.2e}")
    return f"cos^2 + sin^2 = 1 within {dev:.2e}"


def _check_commutator_interior(rng):
    p = reference_params()
    M = 30
    ops = fock.branch(p, M).ops
    comm = ops.psi_op @ ops.rho_op - ops.rho_op @ ops.psi_op
    interior = np.diag(comm)[: M - 1]
    dev = np.abs(interior - 1j * hbar).max() / hbar
    off = np.abs(comm - np.diag(np.diag(comm))).max() / hbar
    _require(dev < 1e-12 and off < 1e-12, f"commutator defect {dev:.2e}, off-diagonal {off:.2e}")
    return f"[psi, rho] = i hbar on the first {M - 1} levels within {max(dev, off):.2e}"


def _check_parity_block_structure(rng):
    p = reference_params()
    H = fock.branch(p, 40).H_atom
    parity = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
    dev = np.abs(H - parity[:, None] * H * parity[None, :]).max() / np.abs(H).max()
    _require(dev < 1e-12, f"branch Hamiltonian breaks parity at relative {dev:.2e}")
    return f"branch Hamiltonian commutes with parity within {dev:.2e}"


def _check_free_energy_convergence(rng):
    p = reference_params()
    free_energies = [fock.branch(p, M).free_energy(0.0, h * 20e9) for M in (10, 20, 40, 60)]
    increments = np.abs(np.diff(free_energies))
    shrinking = np.all(np.diff(increments) < 0.0)
    _require(shrinking and increments[-1] < 1e-8 * p.E_J, f"increments {increments} not convergent")
    return f"final increment {increments[-1] / p.E_J:.2e} E_J with shrinking steps"


def _check_action_derivative(rng):
    p = reference_params()
    b = fock.branch(p)
    slope = constraint_slope(p)
    worst = 0.0
    for kT in (0.0, h * 30e9):
        for frac in (0.05, 0.2, 0.35):
            phi = frac * (PHI0 / 2.0) / slope
            step = 1e-6 * PHI0
            fd = (
                meanfield.action_per_atom(phi + step, kT, p)
                - meanfield.action_per_atom(phi - step, kT, p)
            ) / (2.0 * step)
            # Hellmann-Feynman: dA/dphi = (1/L_R0 + 1/L_g) phi - <psi> / L_g
            psi = b.state(phi, kT)[1]
            res = (1.0 / p.L_R0 + 1.0 / p.L_g) * phi - psi / p.L_g
            scale = max(abs(fd), abs(res), PHI0 / p.L_J)
            worst = max(worst, abs(fd - res) / scale)
    _require(worst < 1e-5, f"derivative mismatch at relative {worst:.2e}")
    return f"finite-difference action slope matches residual to {worst:.2e}"


def _check_stationarity(rng):
    p = reference_params()
    sol = meanfield.solve(p, 0.0)
    _require(sol.converged and sol.superradiant, f"unexpected solution {sol}")
    photon, junction = fluct.stationarity_check(p, sol)
    unit = PHI0 / p.L_J
    worst = max(abs(photon), abs(junction)) / unit
    _require(worst < 1e-8, f"stationarity residual {worst:.2e} in natural units")
    return f"equilibrium force balance at {worst:.2e} Phi0/L_J"


def _check_dense_vs_sparse(rng):
    from . import ed  # scipy loads with the first ED check
    p = reference_params()
    config = ed.EdConfig(n_atoms=1, per_mode_cutoff=8, total_cutoff=16, n_eigenvalues=6)
    H = ed.hamiltonian_at(ed.build_sector_model(p, config, 0), p)
    w_sparse, _ = ed.lowest_eigenpairs(H, 6, seed=int(rng.integers(2**31)))
    w_dense = np.linalg.eigvalsh(H.toarray())[:6]
    dev = np.abs(w_sparse - w_dense).max() / np.abs(w_dense).max()
    _require(dev < 1e-10, f"sparse and dense spectra differ at relative {dev:.2e}")
    return f"Lanczos matches dense diagonalization to {dev:.2e} on dim {H.shape[0]}"


def _check_ed_vacuum_diagonal(rng):
    from . import ed
    p = reference_params()
    config = ed.EdConfig(n_atoms=2, per_mode_cutoff=6, total_cutoff=12)
    model = ed.build_sector_model(p, config, 0)
    H = ed.hamiltonian_at(model, p)
    derived = derive_linear(p)
    lam2 = (2.0 * math.pi / PHI0) ** 2 * hbar * derived.Z_a / 2.0
    expected = hbar * derived.omega_c / 2.0 + config.n_atoms * (
        hbar * derived.omega_a / 2.0 + p.E_J + p.E_J * lam2**2 / 8.0
    )
    got = H[0, 0]
    dev = abs(got - expected) / abs(expected)
    _require(dev < 1e-12, f"vacuum diagonal {got} vs closed form {expected}")
    return f"vacuum diagonal matches closed form to {dev:.2e}"


def _check_ed_symmetry(rng):
    from . import ed
    p = reference_params()
    for quartic in (True, False):
        config = ed.EdConfig(n_atoms=2, per_mode_cutoff=8, total_cutoff=12, quartic=quartic)
        for parity in (0, 1):
            H = ed.hamiltonian_at(ed.build_sector_model(p, config, parity), p)
            asym = (H - H.T).nnz
            _require(asym == 0, f"Hamiltonian has {asym} asymmetric entries (quartic={quartic}, parity={parity})")
    return "both branch potentials give exactly symmetric sector matrices"


def _check_classical_threshold(rng):
    p = reference_params()
    L_c = classical_critical_inductance(p)
    below = classical_minimum(p.replace(L_R0=0.95 * L_c))
    above = classical_minimum(p.replace(L_R0=1.05 * L_c))
    _require(not below.superradiant, "order parameter nonzero below the classical threshold")
    _require(above.superradiant, "order parameter missing above the classical threshold")
    drop = (constrained_potential(0.0, p.replace(L_R0=1.05 * L_c)) - above.energy_per_atom) / p.E_J
    return f"bifurcation brackets L_J - L_g, energy gain {drop:.2e} E_J just above"


def _check_renormalized_spectrum(rng):
    p = reference_params()
    sol = meanfield.solve(p, 0.0)
    ren = fluct.renormalize(p, sol)
    wp, wm = fluct.fluctuation_spectrum(ren)
    _require(0.0 < wm < wp, f"spectrum ordering broken: {wm}, {wp}")
    _require(ren.cos_avg < 1.0, f"cosine average {ren.cos_avg} not reduced")
    return f"modes at {wm / (2e9 * math.pi):.3f} and {wp / (2e9 * math.pi):.3f} GHz, both real"


def _check_truncation_study(rng):
    from . import ed
    p = reference_params(N=1)
    # the lowest 8 branch transitions on 40 levels, where they have converged, and the
    # N = 1 even gap at 16/32, of the quartic potential and of the exact cosine
    transitions, gaps = [], []
    for quartic in (True, False):
        w = np.linalg.eigvalsh(ed._branch_terms(p, 40, quartic)[0])
        transitions.append(w[1:9] - w[0])
        config = ed.EdConfig(1, 16, 32, quartic=quartic)
        gaps.append(ed.scan(p, config, np.array([0.45e-9])).transition_even[0])
    atom = float((np.abs(transitions[0] - transitions[1]) / transitions[1]).max())
    _require(atom <= 0.03, f"quartic branch spectrum off by {atom:.2%} from the cosine")
    return (
        f"branch transitions agree within {atom:.2%}; "
        f"coupled even gaps differ by {abs(gaps[0] - gaps[1]) / gaps[1]:.2%} at L_R0 = 0.45 nH"
    )


def _check_resonator_scaling(rng):
    p = reference_params()
    slope = constraint_slope(p)
    worst = 0.0
    for N in (1, 2, 5, 17):
        pN = p.replace(N=N)
        for frac in (0.0, 0.13, 0.41):
            phi = frac * PHI0 / slope
            per_branch = inductive_energy(phi, np.full(N, slope * phi), pN) / N
            ref = constrained_potential(phi, p)
            worst = max(worst, abs(per_branch - ref) / p.E_J)
    _require(worst < 1e-12, f"per-branch energy drifts with N by {worst:.2e} E_J")
    return f"per-branch energy independent of N within {worst:.2e} E_J"


CHECKS = {
    "linear-threshold-equivalence": _check_linear_threshold_equivalence,
    "vieta": _check_vieta,
    "gaussian-cosine": _check_gaussian_cosine,
    "cos-sin-unitarity": _check_cos_sin_unitarity,
    "commutator-interior": _check_commutator_interior,
    "parity-block-structure": _check_parity_block_structure,
    "free-energy-convergence": _check_free_energy_convergence,
    "action-derivative": _check_action_derivative,
    "stationarity": _check_stationarity,
    "dense-vs-sparse": _check_dense_vs_sparse,
    "ed-vacuum-diagonal": _check_ed_vacuum_diagonal,
    "ed-symmetry": _check_ed_symmetry,
    "classical-threshold": _check_classical_threshold,
    "renormalized-spectrum": _check_renormalized_spectrum,
    "truncation-study": _check_truncation_study,
    "resonator-scaling": _check_resonator_scaling,
}


def check_results(names=None, seed: int = 0):
    """Run the named checks (all by default), yielding each result as its check finishes;
    unknown or repeated names raise ConfigError before any check runs."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}; known: {', '.join(CHECKS)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"repeated checks: {', '.join(repeated)}; name each check once")
    for name in names:
        rng = np.random.default_rng(seed)
        try:
            result = CheckResult(name=name, passed=True, detail=CHECKS[name](rng))
        except Exception as exc:
            result = CheckResult(name=name, passed=False, detail=f"{type(exc).__name__}: {exc}")
        yield result


def run_checks(names=None, seed: int = 0) -> list:
    """The list of :func:`check_results`, for callers that want every result at once,
    such as the benchmark's cli_session check."""
    return list(check_results(names, seed))
