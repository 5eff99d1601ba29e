"""Tests for the quadratic fluctuation analysis around the mean field.

Frozen numbers come from the M = 60 solver chain run at 50 per cent
tighter grids than the defaults; they pin regressions rather than act as
independent oracles. Structural identities (residual cancellations,
normal-phase L independence, window convexity) are the real checks.
"""

import dataclasses
import math

import numpy as np
import pytest

import fluct_cusp
from kubo_oracle import gibbs_average
from srptsim import fluct, fock, meanfield
from srptsim.circuit import derive_linear
from srptsim.constants import PHI0, h
from srptsim.errors import ConvergenceError

TWO_PI = 2.0 * math.pi
GHZ = 1e9

# ground-state cosine average of the bare atom, M = 60
REF_COS_AVG = 0.9503936052451504

# normal-phase zero point shift, h GHz units; independent of L_R0 because
# only the bare atom enters when both fluxes vanish
REF_DELTA_EPS_NORMAL = -10.81164844202412

# lower fluctuation mode at its minimum over L_R0, 2 pi GHz units
REF_CUSP_FREQ = 1.3845154822482142


def test_renormalize_reference_normal_phase(reference):
    p = reference.replace(L_R0=0.2e-9)
    sol = meanfield.solve(p, 0.0)
    ren = fluct.renormalize(p, sol)
    assert ren.cos_avg == pytest.approx(REF_COS_AVG, rel=1e-12)
    assert ren.E_J_bar == pytest.approx(REF_COS_AVG * p.E_J, rel=1e-12)
    assert 0.0 < ren.E_J_bar <= p.E_J
    # a softened cosine well stiffens the net quadratic restoring force
    assert ren.omega_a_bar > derive_linear(p).omega_a
    assert ren.solution.phi_th == 0.0


def test_renormalized_energy_bounded_along_sweep(reference):
    for L in (0.2e-9, 0.34e-9, 0.45e-9, 0.6e-9):
        p = reference.replace(L_R0=L)
        ren = fluct.renormalize(p, meanfield.solve(p, 0.0))
        assert 0.0 < ren.E_J_bar <= p.E_J
    # past a quarter period of branch flux the averaged cosine goes
    # negative; the expansion stays stable because the curvature flip
    # stiffens the quadratic term
    p = reference.replace(L_R0=0.8e-9)
    ren = fluct.renormalize(p, meanfield.solve(p, 0.0))
    assert ren.cos_avg < 0.0
    assert ren.omega_a_bar > derive_linear(p).omega_a


def test_renormalize_requires_zero_temperature(reference):
    sol = meanfield.solve(reference, h * 10 * GHZ)
    with pytest.raises(ValueError):
        fluct.renormalize(reference, sol)


def test_renormalize_rejects_stale_solution(reference):
    """Equilibrium from one circuit, parameters from another: the circuit the
    solution records exposes the mismatch. A resonator value changes the
    renormalized coupling and the shift as much as a junction value does."""
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0)
    ren = fluct.renormalize(p, sol)
    for changes in ({"L_R0": 0.9e-9}, {"C_R0": 4e-15}, {"L_J": 0.8e-9}):
        other = p.replace(**changes)
        with pytest.raises(ValueError, match="mean-field solution was found for"):
            fluct.zero_point_shift(other, sol, ren)
        with pytest.raises(ValueError, match="mean-field solution was found for"):
            fluct.renormalize(other, sol)


def test_stationarity_check_rejects_a_solution_for_other_circuit_values(reference):
    """A solution at 0.6 nH checked at 0.45 nH, or at another L_J, would return a photon residual
    of 1e-8 to 1e-7 A instead of raising; any other N is the same mean-field circuit and passes."""
    sol = meanfield.solve(reference.replace(L_R0=0.6e-9), 0.0)
    for other in (reference.replace(L_R0=0.45e-9), reference.replace(L_R0=0.6e-9, L_J=0.8e-9)):
        with pytest.raises(ValueError, match="mean-field solution was found for"):
            fluct.stationarity_check(other, sol)
    p = reference.replace(L_R0=0.6e-9)
    assert fluct.stationarity_check(p.replace(N=3), sol) == fluct.stationarity_check(p, sol)


def test_zero_point_shift_rejects_a_renorm_from_another_solution(reference):
    """Both normal-phase solutions sit at phi_th = 0, but the M = 6 average is another
    truncation's; shifting the M = 60 equilibrium with it raises instead of returning it."""
    p = reference.replace(L_R0=0.2e-9)
    sol, coarse = meanfield.solve(p, 0.0), meanfield.solve(p, 0.0, M=6)
    assert sol.phi_th == coarse.phi_th == 0.0
    with pytest.raises(ValueError, match="different mean-field solution"):
        fluct.zero_point_shift(p, sol, fluct.renormalize(p, coarse))
    shift = fluct.zero_point_shift(p, sol, fluct.renormalize(p, sol))
    assert shift / (h * GHZ) == pytest.approx(REF_DELTA_EPS_NORMAL, rel=1e-10)


def test_renormalize_reads_the_truncation_of_the_solution(reference):
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0, M=20)
    ren = fluct.renormalize(p, sol)
    b = fock.branch(p, 20)
    _, (cos_avg,) = gibbs_average(*np.linalg.eigh(b.hamiltonian(sol.phi_th)), (b.ops.cos_op,), 0.0)
    assert ren.cos_avg == cos_avg
    # N does not enter mean field, so a params that differs only in N is the same circuit
    assert fluct.renormalize(p.replace(N=3), sol) == ren


def test_stationarity_at_a_thermal_solution(reference):
    scale = PHI0 / reference.L_J
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, h * 30 * GHZ)
    assert sol.superradiant
    photon, junction = fluct.stationarity_check(p, sol)
    assert abs(photon) < 1e-12 * scale
    assert abs(junction) < 1e-12 * scale


def test_stationarity_reads_the_truncation_of_the_solution(reference):
    """At M = 12 the solution balances the photon equation exactly; the junction
    equation then measures the truncation of the branch."""
    scale = PHI0 / reference.L_J
    p = reference.replace(L_R0=0.6e-9)
    photon, junction = fluct.stationarity_check(p, meanfield.solve(p, 0.0, M=12))
    assert abs(photon) < 1e-12 * scale
    assert abs(junction) > 1e-4 * scale


def test_stationarity_residuals_at_equilibrium(reference):
    scale = PHI0 / reference.L_J
    for L in (0.2e-9, 0.6e-9):
        p = reference.replace(L_R0=L)
        photon, junction = fluct.stationarity_check(p, meanfield.solve(p, 0.0))
        assert abs(photon) < 1e-8 * scale
        assert abs(junction) < 1e-8 * scale


def test_stationarity_detects_displaced_equilibrium(reference):
    """Shifting the resonator flux must break the photon balance only.

    The branch average is recomputed from the shifted flux, so the
    junction equation stays satisfied while the resonator equation picks
    up a first-order violation.
    """
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0)
    photon0, _ = fluct.stationarity_check(p, sol)
    shifted = dataclasses.replace(sol, phi_th=sol.phi_th * (1.0 + 1e-3))
    photon, junction = fluct.stationarity_check(p, shifted)
    assert abs(photon) > 1e6 * abs(photon0)
    assert abs(junction) < 1e-8 * (PHI0 / reference.L_J)


def test_zero_point_shift_normal_phase(reference):
    # with both fluxes at zero only the averaged junction energy remains,
    # so the shift cannot depend on the resonator inductance
    for L in (0.2e-9, 0.3e-9):
        p = reference.replace(L_R0=L)
        sol = meanfield.solve(p, 0.0)
        ren = fluct.renormalize(p, sol)
        shift = fluct.zero_point_shift(p, sol, ren)
        assert shift == pytest.approx(ren.E_J_bar - p.E_J, rel=1e-12)
        assert shift / (h * GHZ) == pytest.approx(REF_DELTA_EPS_NORMAL, rel=1e-10)


def test_zero_point_shift_rejects_mismatched_solution(reference):
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0)
    ren = fluct.renormalize(p, sol)
    other = dataclasses.replace(sol, phi_th=sol.phi_th * (1.0 + 1e-9))
    with pytest.raises(ValueError):
        fluct.zero_point_shift(p, other, ren)


def test_spectrum_scan_cusp_and_crossing(reference):
    """The lower mode dips to a single cusp where g_bar meets its critical value."""
    L = np.arange(0.320e-9, 0.3601e-9, 0.002e-9)
    scan = fluct.spectrum_scan(reference, L)
    assert np.all(scan.omega_minus > 0.0)
    i_cusp = fluct_cusp.locate_cusp(scan)
    i_cross = fluct_cusp.locate_crossing(scan)
    assert i_cross == i_cusp
    assert L[i_cusp] == pytest.approx(0.338e-9, abs=1e-15)
    assert scan.omega_minus[i_cusp] / (TWO_PI * GHZ) == pytest.approx(
        REF_CUSP_FREQ, rel=1e-9
    )
    # single convex dip in the window around the cusp
    window = scan.omega_minus[max(0, i_cusp - 3) : i_cusp + 4]
    assert fluct_cusp.count_convex_runs(window) == 1
    # order parameter onsets within one grid step of the cusp
    flags = scan.superradiant.astype(int)
    assert np.all(np.diff(flags) >= 0)
    onset = int(np.argmax(flags)) if flags.any() else len(flags)
    assert abs(onset - i_cusp) <= 1


def test_spectrum_scan_decoupling_limit(reference):
    # a huge junction inductance quenches the nonlinearity, leaving the
    # lower mode soft only through the geometric coupling
    scan = fluct.spectrum_scan(reference, np.array([0.45e-9]))
    assert scan.omega_plus[0] > scan.omega_c[0]
    assert scan.omega_minus[0] < derive_linear(reference).omega_a


def test_spectrum_scan_validation(reference):
    with pytest.raises(ValueError):
        fluct.spectrum_scan(reference, np.array([]))
    # the check is meanfield.solve_sweep's, the one owner of the sweep rule
    with pytest.raises(ValueError, match="L_R0_values must be a non-empty 1d array"):
        fluct.spectrum_scan(reference, np.array([[0.2e-9, 0.6e-9]]))


def test_fluctuation_spectrum_instability_raises(reference):
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0)
    ren = fluct.renormalize(p, sol)
    doped = dataclasses.replace(ren, g_bar=10.0 * ren.g_bar)
    with pytest.raises(ConvergenceError):
        fluct.fluctuation_spectrum(doped)


def test_count_convex_runs_synthetic():
    x = np.linspace(-1.0, 1.0, 21)
    assert fluct_cusp.count_convex_runs(x**2) == 1
    assert fluct_cusp.count_convex_runs(np.zeros(21)) == 0
    two_dips = np.concatenate([(x[:10] + 0.5) ** 2, (x[10:] - 0.5) ** 2 + 5.0])
    assert fluct_cusp.count_convex_runs(two_dips) >= 2


def test_one_dense_diagonalization_per_point(reference, monkeypatch):
    """Packaging a tilt diagonalizes once; renormalize and stationarity_check then read the
    kernel's memo, at a normal and at a superradiant point. The memo is keyed by (tilt, kT), so
    packaging the tilt hot diagonalizes once more, and packaging it hot again does not."""
    count = 0

    def counting(fn):
        def counted(*args, **kwargs):
            nonlocal count
            count += 1
            return fn(*args, **kwargs)

        return counted

    points = []
    for L in (0.2e-9, 0.6e-9):  # normal, superradiant
        p = reference.replace(L_R0=L)
        points.append((p, meanfield.solve(p, 0.0)))
    assert [sol.superradiant for _, sol in points] == [False, True]
    fock._branch.cache_clear()
    fock.branch(reference)  # both points' kernel, with empty memos
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    for p, sol in points:
        for solves, call in (
            (1, lambda: meanfield._package(p, sol.phi_th, 0.0, 60, converged=True, n_evaluations=0)),
            (0, lambda: fluct.renormalize(p, sol)),
            (0, lambda: fluct.stationarity_check(p, sol)),
            (1, lambda: meanfield._package(p, sol.phi_th, h * 50 * GHZ, 60, True, 0)),
            (0, lambda: meanfield._package(p, sol.phi_th, h * 50 * GHZ, 60, True, 0)),
        ):
            count = 0
            call()
            assert count == solves


def test_spectrum_scan_renormalizes_from_the_memo(reference, monkeypatch):
    """Each column is renormalized at the tilt mean field just packaged, so renormalize runs no
    eigensolve, superradiant columns included."""
    L = np.linspace(0.1e-9, 1.0e-9, 10)
    solves, inside = [], []
    eigh, renormalize = np.linalg.eigh, fluct.renormalize

    def counted_eigh(a):
        solves.append(1)
        return eigh(a)

    def counted_renormalize(*args):
        before = len(solves)
        ren = renormalize(*args)
        inside.append(len(solves) - before)
        return ren

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(fluct, "renormalize", counted_renormalize)
    scan = fluct.spectrum_scan(reference, L)
    assert np.count_nonzero(scan.superradiant) >= 5
    assert len(inside) == L.size and sum(inside) == 0


def test_spectrum_scan_rows_match_the_per_point_calls(reference):
    """Each FluctScan column holds the quantity of its name, point for point.

    The scan assembles its columns from rows by position, so two swapped
    entries (omega_a_bar and g_bar, say) would pass every other test.
    """
    L = np.array([0.2e-9, 0.3e-9, 0.6e-9, 0.9e-9])  # normal, normal, superradiant, superradiant
    scan = fluct.spectrum_scan(reference, L)
    for i, (x, sol) in enumerate(zip(L, meanfield.solve_sweep(reference, L, 0.0))):
        p = reference.replace(L_R0=float(x))
        der = derive_linear(p)
        ren = fluct.renormalize(p, sol)
        omega_plus, omega_minus = fluct.fluctuation_spectrum(ren)
        expected = {
            "L_R0_values": x,
            "omega_c": der.omega_c,
            "omega_plus": omega_plus,
            "omega_minus": omega_minus,
            "omega_a_bar": ren.omega_a_bar,
            "g_bar": ren.g_bar,
            "g_crit": 0.5 * math.sqrt(ren.omega_a_bar * der.omega_c),
            "delta_eps": fluct.zero_point_shift(p, sol, ren),
            "phi_th": sol.phi_th,
            "superradiant": sol.superradiant,
        }
        assert expected.keys() == {f.name for f in dataclasses.fields(scan)}
        for name, value in expected.items():
            assert getattr(scan, name)[i] == value, name
    assert scan.superradiant.tolist() == [False, False, True, True]
    for f in dataclasses.fields(scan):
        assert getattr(scan, f.name).dtype == (bool if f.name == "superradiant" else float), f.name


def test_solves_after_a_scan_repeat_no_newton_eigh(reference, monkeypatch):
    """The cusp-scan pattern: after each spectrum_scan, the lone solve and the stationarity check at
    an ordered column read the scan's samples, its Newton iterates and the state it packaged from
    the kernel's memos, so together they run no eigensolve, and the solve repeats its column. The
    two scans from empty memos, kernel build included, stay within their eigensolve budget, kept
    by the rule of tests/test_work_budgets.py."""
    L_c = meanfield.critical_inductance_at_zero_T(reference)
    sweeps = [(L, meanfield.solve_sweep(reference, L, 0.0))
              for L in (np.linspace(0.1e-9, 1.0e-9, 12), L_c + 2e-12 * np.arange(-10, 10))]  # coarse, fine
    fock._branch.cache_clear()  # the pattern starts from a kernel with empty memos
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, name=name, real=real: calls.append(name) or real(a))
    for L, sweep in sweeps:
        scan = fluct.spectrum_scan(reference, L)
        ordered = np.nonzero(scan.superradiant)[0]
        assert 0 < ordered.size < L.size
        scanned = len(calls)
        for i in ordered:
            p = reference.replace(L_R0=float(L[i]))
            sol = meanfield.solve(p, 0.0)
            assert sol.converged and sol.phi_th == scan.phi_th[i]
            assert dataclasses.replace(sol, n_evaluations=0) == dataclasses.replace(sweep[i], n_evaluations=0)
            fluct.stationarity_check(p, sol)
        assert len(calls) == scanned
    solves = calls.count("eigvalsh"), calls.count("eigh")
    assert solves[0] <= 66 and solves[1] <= 92, solves
