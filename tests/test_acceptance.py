"""Acceptance suite: ten numbered criteria, one verdict line each.

Every test times its own work, prints a single PASS or FAIL line to the
real stdout (bypassing capture, so the scorecard is visible in any
pytest run), and then asserts. Budgets are generous wall-clock ceilings
for a laptop-class machine; the measured times here are far below them.
"""

import math
import time

import numpy as np
import pytest

import fluct_cusp
from srptsim import ed, fluct, meanfield, validate
from srptsim.circuit import (
    CircuitParams,
    TWO_PI,
    classical_critical_inductance,
    classical_minimum,
    constrained_potential,
    derive_linear,
)
from srptsim.constants import PHI0, h, hbar
from srptsim.fock import atom_hamiltonian, build_operators

GHZ = 1e9


def report(capsys, criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{verdict} criterion {criterion}: {detail}", flush=True)


def test_criterion_01_threshold_equivalence(reference, rng, capsys):
    """Inductance ordering and coupling strength state the same threshold."""
    t0 = time.perf_counter()
    n = 10_000
    band = 1e-9
    disagreements = 0
    undecided = 0
    for _ in range(n):
        L_J = rng.uniform(0.05e-9, 2.0e-9)
        p = CircuitParams(
            L_J=L_J,
            L_g=L_J * rng.uniform(0.05, 0.95),
            C_J=rng.uniform(1e-15, 100e-15),
            C_R0=rng.uniform(0.5e-15, 50e-15),
            L_R0=rng.uniform(0.05e-9, 2.0e-9),
        )
        d = derive_linear(p)
        margin = 4.0 * d.g**2 - d.omega_c * d.omega_a
        if abs(margin) <= band * d.omega_c * d.omega_a:
            undecided += 1
            continue
        if (margin > 0.0) != (p.L_R0 > p.L_J - p.L_g):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 1.0
    report(
        capsys,
        1,
        ok,
        f"{n} random circuits, {disagreements} disagreements outside the "
        f"{band:g} band ({undecided} inside it), {elapsed:.2f} s",
    )
    assert ok


def test_criterion_02_classical_bifurcation(reference, capsys):
    """Single well below 0.4 L_J, double well above, onset at 0.4 L_J."""
    t0 = time.perf_counter()
    base = reference.replace(L_g=0.6 * reference.L_J)
    threshold = 0.4 * base.L_J

    lo, hi = 0.1 * base.L_J, 0.9 * base.L_J
    assert not classical_minimum(base.replace(L_R0=lo)).superradiant
    assert classical_minimum(base.replace(L_R0=hi)).superradiant
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if classical_minimum(base.replace(L_R0=mid)).superradiant:
            hi = mid
        else:
            lo = mid
    found = 0.5 * (lo + hi)

    x = np.linspace(-math.pi, math.pi, 201) * PHI0 / TWO_PI
    single = constrained_potential(x, base.replace(L_R0=0.5 * threshold), normalized=True)
    double = constrained_potential(x, base.replace(L_R0=2.0 * threshold), normalized=True)
    elapsed = time.perf_counter() - t0

    within = abs(found - threshold) / threshold
    ok = (
        within < 0.01
        and single.min() == single[100]  # origin is the single minimum
        and double.min() < double[100]  # symmetry-broken wells lie lower
        and elapsed < 1.0
    )
    report(
        capsys,
        2,
        ok,
        f"bifurcation at {found / 1e-9:.4f} nH vs 0.4 L_J = {threshold / 1e-9:.4f} nH "
        f"({100 * within:.3f}% off), curve shapes as expected, {elapsed:.2f} s",
    )
    assert ok


def test_criterion_03_quantum_critical_inductance(reference, capsys):
    t0 = time.perf_counter()
    L_c = meanfield.critical_inductance_at_zero_T(reference, M=60)
    elapsed = time.perf_counter() - t0
    ok = abs(L_c - 0.34e-9) <= 0.02e-9 and L_c > 0.30e-9 and elapsed < 60.0
    report(
        capsys,
        3,
        ok,
        f"zero-temperature onset at {L_c / 1e-9:.6f} nH "
        f"(classical 0.300 nH), {elapsed:.1f} s",
    )
    assert ok


def test_criterion_04_phase_boundary_monotonicity(reference, capsys):
    t0 = time.perf_counter()
    L = np.linspace(0.30e-9, 1.0e-9, 20)
    T = np.linspace(0.0, 200.0, 20) * h * GHZ
    grid = meanfield.phase_boundary(reference, L, T, M=60)
    elapsed = time.perf_counter() - t0

    cooling = bool(np.all(np.diff(grid.amplitude, axis=0) <= 1e-12))
    b = grid.boundary
    defined = np.nonzero(~np.isnan(b))[0]
    contiguous = bool(np.array_equal(defined, np.arange(defined[0], defined[-1] + 1)))
    rising = bool(np.all(np.diff(b[defined]) >= -1e-9 * h * GHZ))
    ok = (
        grid.converged.all()
        and cooling
        and contiguous
        and defined.size >= 5
        and rising
        and elapsed < 600.0
    )
    report(
        capsys,
        4,
        ok,
        f"20x20 grid, amplitude cooling-monotone={cooling}, "
        f"{defined.size} boundary columns non-decreasing={rising}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_05_atom_anharmonicity(reference, capsys):
    t0 = time.perf_counter()
    ops = build_operators(derive_linear(reference), 60)
    w = np.linalg.eigvalsh(atom_hamiltonian(ops, reference))
    anh = abs((w[1] - w[0]) - (w[2] - w[1])) / (w[1] - w[0])
    elapsed = time.perf_counter() - t0
    ok = 0.02 <= anh <= 0.04 and elapsed < 1.0
    report(capsys, 5, ok, f"relative anharmonicity {100 * anh:.3f}% in [2%, 4%], {elapsed:.2f} s")
    assert ok


def test_criterion_06_fluctuation_cusp(reference, capsys):
    t0 = time.perf_counter()
    coarse = fluct.spectrum_scan(reference, np.linspace(0.1e-9, 1.0e-9, 46))
    positive = bool(np.all(coarse.omega_minus > 0.0))

    L_c = meanfield.critical_inductance_at_zero_T(reference, M=60)
    step = 2e-12
    fine = fluct.spectrum_scan(reference, np.arange(L_c - 10 * step, L_c + 10.5 * step, step))
    i_cusp = fluct_cusp.locate_cusp(fine)
    i_cross = fluct_cusp.locate_crossing(fine)
    offset = abs(fine.L_R0_values[i_cusp] - L_c)
    window = fine.omega_minus[max(0, i_cusp - 3) : i_cusp + 4]
    single_cusp = fluct_cusp.count_convex_runs(window) == 1
    elapsed = time.perf_counter() - t0

    ok = (
        positive
        and offset <= step
        and i_cross == i_cusp
        and single_cusp
        and elapsed < 300.0
    )
    report(
        capsys,
        6,
        ok,
        f"lower mode positive everywhere={positive}, cusp at "
        f"{fine.L_R0_values[i_cusp] / 1e-9:.4f} nH ({offset / step:.2f} steps from "
        f"L_R0c), coupling crossing at the cusp={i_cross == i_cusp}, "
        f"single cusp={single_cusp}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_07_ed_sharp_dip(reference, capsys):
    """Finite-N precursor of the transition sharpens with atom number.

    N = 1 and 2 run at the production cutoffs (per mode 24, total 48).
    N = 3 runs at 16/32; the documented convergence check repeats its dip
    point at 20/40 and requires the even-sector gap to agree within 5%,
    far looser than the observed sub-ppm agreement.
    """
    t0 = time.perf_counter()
    L = np.array([0.15, 0.25, 0.30, 0.34, 0.38, 0.42, 0.46, 0.52, 0.60, 0.70, 0.85, 1.0]) * 1e-9
    configs = {
        1: ed.EdConfig(n_atoms=1, per_mode_cutoff=24, total_cutoff=48),
        2: ed.EdConfig(n_atoms=2, per_mode_cutoff=24, total_cutoff=48),
        3: ed.EdConfig(n_atoms=3, per_mode_cutoff=16, total_cutoff=32),
    }
    scans = {n: ed.scan(reference, cfg, L) for n, cfg in configs.items()}

    dips = {}
    for n, s in scans.items():
        i = int(np.argmin(s.transition_even))
        dips[n] = (i, s.transition_even[i] / (h * GHZ))
    interior = all(0 < i < L.size - 1 for i, _ in dips.values())
    deepening = dips[1][1] > dips[2][1] > dips[3][1]
    approaching = L[dips[1][0]] >= L[dips[2][0]] >= L[dips[3][0]]
    near = all(0.34e-9 <= L[i] <= 0.60e-9 for i, _ in dips.values())

    # odd gap above the transition collapses as N grows
    j52, j60 = 7, 8
    odd = {n: scans[n].transition_odd / (h * GHZ) for n in scans}
    collapsing = all(
        odd[1][j] > odd[2][j] > odd[3][j] for j in (j52, j60)
    ) and odd[3][j52] < 0.1 and odd[3][j60] < 0.1

    i3 = dips[3][0]
    check = ed.scan(
        reference,
        ed.EdConfig(n_atoms=3, per_mode_cutoff=20, total_cutoff=40),
        L[i3 : i3 + 1],
    )
    gap_lo = scans[3].transition_even[i3]
    gap_hi = check.transition_even[0]
    n3_converged = abs(gap_lo - gap_hi) / gap_hi < 0.05
    elapsed = time.perf_counter() - t0

    ok = (
        interior
        and deepening
        and approaching
        and near
        and collapsing
        and n3_converged
        and elapsed < 1800.0
    )
    report(
        capsys,
        7,
        ok,
        "dips "
        + ", ".join(
            f"N={n}: {val:.3f} GHz at {L[i] / 1e-9:.2f} nH" for n, (i, val) in dips.items()
        )
        + f"; odd gap at 0.52/0.60 nH collapses with N={collapsing}; "
        f"N=3 cutoff check {abs(gap_lo - gap_hi) / gap_hi:.2e} rel; {elapsed:.1f} s",
    )
    assert ok


def test_criterion_08_truncation_error(capsys):
    """validate's truncation-study check: the quartic branch potential against the exact cosine."""
    t0 = time.perf_counter()
    (result,) = validate.run_checks(["truncation-study"])
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 300.0
    report(capsys, 8, ok, f"{result.detail}; {elapsed:.1f} s")
    assert ok


def test_criterion_09_oracle_equivalence(reference, capsys):
    t0 = time.perf_counter()
    # sparse Lanczos versus dense diagonalization on both parity sectors
    worst_eig = 0.0
    for parity in (0, 1):
        cfg = ed.EdConfig(
            n_atoms=1, per_mode_cutoff=8, total_cutoff=16, n_eigenvalues=6
        )
        H = ed.hamiltonian_at(ed.build_sector_model(reference, cfg, parity), reference)
        w_sparse, _ = ed.lowest_eigenpairs(H, 6, seed=0)
        w_dense = np.linalg.eigvalsh(H.toarray())[:6]
        worst_eig = max(worst_eig, float(np.abs((w_sparse - w_dense) / w_dense).max()))

    ops = build_operators(derive_linear(reference), 60)
    lam_sq = (TWO_PI / PHI0) ** 2 * hbar * derive_linear(reference).Z_a / 2.0
    gauss_err = abs(ops.cos_op[0, 0] - math.exp(-lam_sq / 2.0))

    scale = PHI0 / reference.L_J
    worst_resid = 0.0
    for L in (0.36e-9, 0.45e-9, 0.60e-9, 0.80e-9, 1.0e-9):
        p = reference.replace(L_R0=L)
        sol = meanfield.solve(p, 0.0)
        assert sol.converged and sol.superradiant
        photon, junction = fluct.stationarity_check(p, sol)
        worst_resid = max(worst_resid, abs(photon) / scale, abs(junction) / scale)
    elapsed = time.perf_counter() - t0

    ok = worst_eig < 1e-10 and gauss_err < 1e-8 and worst_resid < 1e-8 and elapsed < 60.0
    report(
        capsys,
        9,
        ok,
        f"Lanczos vs dense {worst_eig:.2e} rel, Gaussian identity {gauss_err:.2e}, "
        f"stationarity {worst_resid:.2e} of Phi0/L_J, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_10_free_energy_convergence(capsys):
    """validate's free-energy-convergence check: over M = 10, 20, 40, 60 at
    kT/h = 20 GHz the increments shrink and the last is below 1e-8 E_J."""
    t0 = time.perf_counter()
    (result,) = validate.run_checks(["free-energy-convergence"])
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 10.0
    report(capsys, 10, ok, f"per-atom free energy at kT/h = 20 GHz, {result.detail}, {elapsed:.2f} s")
    assert ok
