"""Tests for the self-consistent thermal treatment of the resonator flux.

Reference numbers were frozen from dense scans of the per-branch free
energy and from the classical limit, both computed independently of the
solver under test.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import kubo_oracle
from search_oracle import brent_refine, scan_then_refine, stationarity_residual, uniform_sweep_oracle
from srptsim import fluct, fock, meanfield
from srptsim.circuit import classical_minimum, constraint_slope, derive_linear, newton_root
from srptsim.constants import PHI0, h, hbar

GHZ = 1e9

# solve() order parameter at L_R0 = 0.6 nH, T = 0, M = 60, frozen after
# verifying against the dense scan below.
REF_PHI_06 = 2.447378803730821e-16

# bisection result for the zero-temperature onset, M = 60
REF_L_CRIT = 3.38568115234375e-10

# Oracle columns: their windows differ by 1.9x, so the shared scan runs
# past the narrower columns' own windows. Normal and superradiant points
# both occur at every temperature but the highest.
ORACLE_L = np.array([0.25e-9, 0.45e-9, 0.6e-9, 1.0e-9])
ORACLE_KT = h * np.array([0.0, 50.0, 150.0]) * GHZ

# Criterion 4's grid.
GRID_L = np.linspace(0.30e-9, 1.0e-9, 20)
GRID_KT = np.linspace(0.0, 200.0, 20) * h * GHZ


@functools.lru_cache(maxsize=1)
def grid_sweeps(params):
    """solve_sweep over criterion 4's columns, one row per temperature."""
    return tuple(tuple(meanfield.solve_sweep(params, GRID_L, float(kT))) for kT in GRID_KT)


def jittered(params, jitter):
    return params.replace(
        L_J=params.L_J * (1.0 + jitter),
        L_g=params.L_g * (1.0 - jitter),
        C_J=params.C_J * (1.0 + jitter),
    )


def mean_branch_flux(phi, kT, params, M=60):
    """Thermal expectation of the branch flux at frozen resonator flux, weber."""
    b = fock.branch(params, M)
    _, (psi,) = b.thermal(phi, kT, b.ops.psi_op)
    return psi


def per_point_solve(params, kT, coarse_points=256):
    """Slow path: a coarse scan over this point's own window, refined and polished.

    Returns (phi_th, psi_th, converged) with an ample evaluation budget.
    """
    window = 1.5 * (PHI0 / 2.0) / constraint_slope(params)
    phi, _ = scan_then_refine(
        lambda x: meanfield.action_per_atom(x, kT, params), 0.0, window, coarse_points
    )
    if phi < 1e-6 * PHI0:
        return 0.0, 0.0, True

    def g(x):
        return stationarity_residual(x, kT, params)

    for fac in (1e-4, 1e-3, 1e-2, 1e-1):
        a, b = phi * (1.0 - fac), phi * (1.0 + fac)
        if g(a) * g(b) <= 0.0:
            phi = brentq(g, a, b, rtol=4.0 * np.finfo(float).eps, xtol=1e-300)
            break
    else:
        return phi, mean_branch_flux(phi, kT, params), False
    return phi, mean_branch_flux(phi, kT, params), True


def bisect_critical_inductance(params, bracket=(0.25e-9, 0.60e-9), tol=1e-13, M=60):
    """Slow path: bisection on L_R0 between a normal and a superradiant solve at kT = 0."""
    lo, hi = bracket

    def superradiant(L):
        return meanfield.solve(params.replace(L_R0=L), 0.0, M=M).superradiant

    assert not superradiant(lo) and superradiant(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if superradiant(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def column_critical_kT(kT_values, amps):
    """Slow path: critical kT of one grid column, interpolated in the squared amplitude.

    NaN when the column does not cross the transition inside the grid.
    """
    pos = amps > 0.0
    if not pos.any() or pos.all():
        return math.nan
    j = int(np.nonzero(pos)[0][-1])
    lo_T, hi_T = kT_values[j], kT_values[j + 1]
    if j >= 1 and pos[j - 1]:
        a2, b2 = amps[j - 1] ** 2, amps[j] ** 2
        slope = (b2 - a2) / (kT_values[j] - kT_values[j - 1])
        if slope < 0.0:
            est = kT_values[j] - b2 / slope
            return float(min(max(est, lo_T), hi_T))
    return float(0.5 * (lo_T + hi_T))


def test_residual_vanishes_at_origin(reference):
    scale = PHI0 / reference.L_J
    for kT in (0.0, h * 40 * GHZ):
        assert abs(stationarity_residual(0.0, kT, reference)) < 1e-12 * scale


def test_residual_matches_action_derivative(reference):
    """Hellmann-Feynman: the residual is the exact phi derivative of the action."""
    phi = 0.08 * PHI0
    eps = 1e-7 * PHI0
    for kT in (0.0, h * 30 * GHZ):
        fd = (
            meanfield.action_per_atom(phi + eps, kT, reference)
            - meanfield.action_per_atom(phi - eps, kT, reference)
        ) / (2.0 * eps)
        resid = stationarity_residual(phi, kT, reference)
        assert fd == pytest.approx(resid, rel=1e-6)


def test_residual_sign_normal_phase(reference):
    p = reference.replace(L_R0=0.2e-9)
    window = 1.5 * (PHI0 / 2.0) / constraint_slope(p)
    for phi in np.linspace(window / 40, window, 40):
        assert stationarity_residual(float(phi), 0.0, p) > 0.0


def test_residual_sign_change_superradiant(reference):
    p = reference.replace(L_R0=0.6e-9)
    window = 1.5 * (PHI0 / 2.0) / constraint_slope(p)
    signs = [
        math.copysign(1.0, stationarity_residual(float(phi), 0.0, p))
        for phi in np.linspace(window / 40, window, 40)
    ]
    assert -1.0 in signs and 1.0 in signs


def test_solve_normal_phase(reference):
    sol = meanfield.solve(reference.replace(L_R0=0.2e-9), 0.0)
    assert sol.phi_th == 0.0
    assert sol.psi_th == 0.0
    assert sol.alpha_over_sqrt_n == 0.0
    assert not sol.superradiant
    assert sol.converged


def test_solve_superradiant_against_dense_scan(reference):
    """The solver minimum must match a brute-force scan of the action."""
    p = reference.replace(L_R0=0.6e-9)
    window = 1.5 * (PHI0 / 2.0) / constraint_slope(p)
    # coarse profile at the operator level the solver uses, then a
    # parabolic refinement of the best interior point
    grid = np.linspace(0.0, window, 2001)
    vals = np.array([meanfield.action_per_atom(float(x), 0.0, p) for x in grid])
    i = int(np.argmin(vals))
    assert 0 < i < grid.size - 1
    dx = grid[1] - grid[0]
    num = vals[i - 1] - vals[i + 1]
    den = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
    phi_scan = grid[i] + 0.5 * dx * num / den

    sol = meanfield.solve(p, 0.0)
    assert sol.superradiant and sol.converged
    assert sol.phi_th == pytest.approx(phi_scan, rel=1e-4)
    assert sol.phi_th == pytest.approx(REF_PHI_06, rel=1e-10)
    # the minimum value itself lies below the normal-phase action
    assert sol.action_per_atom < meanfield.action_per_atom(0.0, 0.0, p)


def test_solve_tracks_classical_minimum(reference):
    # zero-point spread only shaves a few percent off the classical order
    # parameter this deep in the superradiant phase
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0)
    cm = classical_minimum(p)
    assert abs(sol.phi_th - cm.phi0) / cm.phi0 < 0.10


def test_solve_amplitude_definition(reference):
    p = reference.replace(L_R0=0.6e-9)
    sol = meanfield.solve(p, 0.0)
    Z_c0 = derive_linear(p).Z_c0
    assert sol.alpha_over_sqrt_n == pytest.approx(
        sol.phi_th / math.sqrt(2.0 * hbar * Z_c0), rel=1e-12
    )
    assert sol.psi_th == pytest.approx(
        mean_branch_flux(sol.phi_th, 0.0, p), rel=1e-12
    )


def test_solve_residual_small_in_natural_units(reference):
    p = reference.replace(L_R0=0.6e-9)
    for kT in (0.0, h * 50 * GHZ):
        sol = meanfield.solve(p, kT)
        assert abs(sol.residual) < 1e-8 * (PHI0 / p.L_J)


def test_order_parameter_decreases_with_temperature(reference):
    p = reference.replace(L_R0=0.6e-9)
    amps = [
        meanfield.solve(p, h * t * GHZ).alpha_over_sqrt_n
        for t in (0.0, 40.0, 80.0, 120.0, 160.0)
    ]
    assert amps[-1] == 0.0
    positive = [a for a in amps if a > 0.0]
    assert positive == sorted(positive, reverse=True)
    assert len(positive) >= 3


def test_critical_inductance_reference(reference):
    L_c = meanfield.critical_inductance_at_zero_T(reference)
    assert L_c == pytest.approx(REF_L_CRIT, abs=2e-13)
    # quantum fluctuations push the onset above the classical threshold
    assert L_c > 0.30e-9 + 0.01e-9


@pytest.mark.parametrize("L_J, L_c_nH", [(1.5e-9, 1.1102), (3.0e-9, 2.6599)])
def test_critical_inductance_of_weak_junctions(reference, L_J, L_c_nH):
    """L_c beyond any fixed search window still splits the phases where phase_boundary does."""
    p = reference.replace(L_J=L_J)
    L_c = meanfield.critical_inductance_at_zero_T(p)
    assert L_c / 1e-9 == pytest.approx(L_c_nH, abs=1e-4)
    g = meanfield.phase_boundary(p, np.array([0.99 * L_c, 1.01 * L_c]), np.array([0.0]))
    assert g.converged.all()
    assert (g.phi > 0.0).tolist() == [[False, True]]


@pytest.mark.parametrize(
    "scale, L_J", [(0.0, None), (0.4, None), (1.0, math.inf)], ids=["0.0", "0.4", "L_J-inf"]
)
def test_critical_inductance_never_orders(reference, monkeypatch, scale, L_J):
    """chi / L_g^2 <= 1 / L_g leaves no L_R0 ordered, so there is no L_c to return.

    The reference circuit orders while chi keeps more than L_c / (L_c + L_g),
    about 0.43, of its value. A branch without a junction is harmonic,
    chi = L_g exactly, and its computed 1/L_c is rounding noise above 0.
    """
    p = reference if L_J is None else reference.replace(L_J=L_J)
    chi = fock.Branch.susceptibility
    monkeypatch.setattr(fock.Branch, "susceptibility", lambda self, kT: scale * chi(self, kT))
    with pytest.raises(ValueError):
        meanfield.critical_inductance_at_zero_T(p)


@pytest.mark.parametrize("jitter", [0.0, 0.03, -0.03])
def test_critical_inductance_closed_form_matches_bisection(reference, jitter):
    p = jittered(reference, jitter)
    L_c = meanfield.critical_inductance_at_zero_T(p)
    assert L_c == pytest.approx(bisect_critical_inductance(p), abs=2e-13)


def test_phase_flag_at_the_critical_inductance(reference):
    """L_c itself is normal and a part in 1e9 above it orders, at kT/h = 0 and 1 GHz.

    At L_c the residual at the snap flux is rounding noise, so the flag
    must come from the closed-form stability of phi = 0. kTc is about
    1.65 GHz just above L_c, so both temperatures order there.
    """
    L_c = meanfield.critical_inductance_at_zero_T(reference)
    L = np.array([L_c * (1.0 - 1e-9), L_c, L_c * (1.0 + 1e-9)])
    T = h * np.array([0.0, 1.0]) * GHZ
    g = meanfield.phase_boundary(reference, L, T)
    assert g.converged.all()
    assert (g.phi > 0.0).tolist() == [[False, False, True]] * 2
    for kT in T:
        for L_R0, ordered in zip(L, (False, False, True)):
            sol = meanfield.solve(reference.replace(L_R0=L_R0), kT)
            assert sol.superradiant == ordered and sol.converged


def test_boundary_closed_form_against_grid_oracle(reference):
    L = np.array([0.25e-9, 0.45e-9, 0.6e-9, 1.0e-9])
    T = h * np.array([0.0, 50.0, 100.0, 150.0, 200.0]) * GHZ
    g = meanfield.phase_boundary(reference, L, T)
    assert g.converged.all()
    ordered = g.phi > 0.0
    crossing = [i for i in range(L.size) if ordered[0, i] and not ordered[-1, i]]
    assert crossing == [1, 2]
    for i in crossing:
        j = np.searchsorted(T, column_critical_kT(T, g.amplitude[:, i]))
        assert T[j - 1] < g.boundary[i] < T[j]
    # 0.25 nH never orders; 1.0 nH is ordered in every row and orders above the grid
    assert not ordered[:, 0].any() and math.isnan(g.boundary[0])
    assert ordered[:, 3].all() and g.boundary[3] > T[-1]


def test_critical_temperature_matches_level_oracle(reference):
    """kTc from the Kubo sum and normalized weights, against the level formulas, on criterion 4's columns."""
    kernel = fock.branch(reference, 60)
    ordered = 0
    for L in np.linspace(0.30e-9, 1.0e-9, 20):
        u = 1.0 / L + 1.0 / reference.L_g
        kTc = meanfield._critical_temperature(kernel, u)
        expected = kubo_oracle.critical_temperature(kernel, u)
        assert math.isnan(kTc) == math.isnan(expected), L
        if not math.isnan(expected):
            assert kTc == pytest.approx(expected, rel=1e-14, abs=0.0), L
            ordered += 1
    assert 0 < ordered < 20


@pytest.mark.parametrize("scale", [0.0, 10.0])
def test_boundary_cross_check_flags_disagreeing_points(reference, monkeypatch, scale):
    """A wrong susceptibility moves the boundary; the grid flags the points it contradicts."""
    L = np.array([0.25e-9, 0.6e-9])
    T = h * np.array([0.0, 100.0, 200.0]) * GHZ
    chi = fock.Branch.susceptibility
    monkeypatch.setattr(fock.Branch, "susceptibility", lambda self, kT: scale * chi(self, kT))
    # the boundary forms the same Kubo sum from its own Gibbs weights: scale chi / L_g^2 = u
    # is chi / L_g^2 = u / scale, and a zero chi never reaches u
    kTc = meanfield._critical_temperature
    monkeypatch.setattr(meanfield, "_critical_temperature",
                        lambda kernel, u: kTc(kernel, u / scale) if scale else math.nan)
    g = meanfield.phase_boundary(reference, L, T)
    assert (g.phi > 0.0).any() and (g.phi == 0.0).any()
    if scale == 0.0:
        # no column orders: every superradiant point disagrees
        assert np.isnan(g.boundary).all()
        assert np.array_equal(g.converged, g.phi == 0.0)
    else:
        # every column orders beyond the grid: every normal point disagrees
        assert (g.boundary > T[-1]).all()
        assert np.array_equal(g.converged, g.phi > 0.0)


def test_phase_boundary_interpolated_crossings(reference):
    L = np.array([0.25e-9, 0.45e-9, 0.6e-9])
    T = h * np.array([0.0, 50.0, 100.0, 150.0, 200.0]) * GHZ
    g = meanfield.phase_boundary(reference, L, T)
    # below the quantum onset the whole column is normal: no crossing
    assert np.all(g.amplitude[:, 0] == 0.0)
    assert math.isnan(g.boundary[0])
    # crossings land inside the straddling cell and grow with L_R0
    assert h * 50 * GHZ < g.boundary[1] < h * 100 * GHZ
    assert h * 150 * GHZ < g.boundary[2] < h * 200 * GHZ
    # columns cool into the superradiant phase monotonically
    assert np.all(np.diff(g.amplitude, axis=0) <= 1e-12)


def test_shared_scan_matches_per_point_oracle(reference):
    oracle = np.array(
        [[per_point_solve(reference.replace(L_R0=float(L)), float(kT)) for L in ORACLE_L]
         for kT in ORACLE_KT]
    )
    phi, psi, converged = oracle[..., 0], oracle[..., 1], oracle[..., 2].astype(bool)
    assert (phi > 0).any() and (phi == 0).any()

    grid = meanfield.phase_boundary(reference, ORACLE_L, ORACLE_KT)
    assert_allclose(grid.phi, phi, rtol=1e-10, atol=0.0)
    assert np.array_equal(grid.phi > 0, phi > 0)
    assert np.array_equal(grid.converged, converged)
    for j, kT in enumerate(ORACLE_KT):
        row = meanfield.solve_sweep(reference, ORACLE_L, float(kT))
        assert_allclose([s.psi_th for s in row], psi[j], rtol=1e-10, atol=0.0)
        assert [s.superradiant for s in row] == list(phi[j] > 0)

    scan = fluct.spectrum_scan(reference, ORACLE_L)
    assert_allclose(scan.phi_th, phi[0], rtol=1e-10, atol=0.0)
    assert np.array_equal(scan.superradiant, phi[0] > 0)


def test_sweep_evaluations_sum_to_evaluations_made(reference, monkeypatch):
    made = 0

    def counting(fn):
        def counted(*args, **kwargs):
            nonlocal made
            made += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(fock.Branch, "free_energy", counting(fock.Branch.free_energy))
    monkeypatch.setattr(fock.Branch, "thermal", counting(fock.Branch.thermal))
    monkeypatch.setattr(fock.Branch, "flux_response", counting(fock.Branch.flux_response))
    # the windows span 6.9x, one scan for all four columns
    L = np.array([0.05e-9, 0.25e-9, 0.45e-9, 1.0e-9])
    kT = h * 50 * GHZ
    sweep = meanfield.solve_sweep(reference, L, kT)
    assert sum(s.n_evaluations for s in sweep) == made
    assert all(s.converged for s in sweep)

    singles = [meanfield.solve(reference.replace(L_R0=float(x)), kT) for x in L]
    assert sum(s.n_evaluations for s in sweep) < sum(s.n_evaluations for s in singles)
    # every column's lone solve scans the sweep's lattice, the branch's
    assert replace(sweep[3], n_evaluations=0) == replace(singles[3], n_evaluations=0)


def test_grid_rows_share_one_scan_lattice(reference, monkeypatch):
    """Each kT row of a phase grid samples the lattice of its columns, so a tilt that
    another row sampled costs no eigensolve: the grid solves each distinct phi once."""
    L = np.linspace(0.30e-9, 1.0e-9, 6)
    kT = np.array([0.0, 50.0, 100.0, 150.0]) * h * GHZ
    solves, tilts = 0, set()

    def eigvalsh(a):
        nonlocal solves
        solves += 1
        return real_eigvalsh(a)

    def free_energy(self, phi, kT):
        tilts.add(float(phi).hex())
        return real_free_energy(self, phi, kT)

    real_eigvalsh, real_free_energy = np.linalg.eigvalsh, fock.Branch.free_energy
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(fock.Branch, "free_energy", free_energy)

    def sampled(kT_values):
        nonlocal solves
        fock._branch.cache_clear()
        solves = 0
        tilts.clear()
        meanfield.phase_boundary(reference, L, kT_values)
        return solves, set(tilts)

    grid_solves, grid_tilts = sampled(kT)
    rows = [sampled(kT[i : i + 1]) for i in range(kT.size)]
    assert grid_solves == len(grid_tilts)
    assert all(n == len(t) for n, t in rows)
    # the rows refine different cells, but all on one lattice
    assert grid_tilts == set().union(*(t for _, t in rows))
    assert grid_solves < sum(n for n, _ in rows)


def without_counts(solutions):
    return [replace(s, n_evaluations=0) for s in solutions]


LONE_SWEEPS = pytest.mark.parametrize(
    "L, kT_GHz",
    [(np.linspace(0.1e-9, 1.0e-9, 46), 0.0), (np.array([0.05e-9, 0.25e-9, 0.45e-9, 1.0e-9]), 50.0),
     (GRID_L, 150.0)],
    ids=["46-point-zero-T", "4-column-50GHz", "criterion-4-150GHz"],
)


@LONE_SWEEPS
def test_sweep_agrees_with_lone_solves(reference, L, kT_GHz):
    """A shared scan finds each column's phase and root as that column's lone solve does."""
    kT = h * kT_GHz * GHZ
    sweep = meanfield.solve_sweep(reference, L, kT)
    lone = [meanfield.solve(reference.replace(L_R0=float(x)), kT) for x in L]
    assert without_counts(sweep) == without_counts(lone)


@LONE_SWEEPS
def test_lone_solves_after_their_sweep_run_no_eigvalsh(reference, monkeypatch, L, kT_GHz):
    """Every scan at a kernel samples one phi lattice, so a lone solve after its sweep finds
    each tilt it scans in the kernel's spectra memo and repeats its column bit for bit."""
    kT = h * kT_GHz * GHZ
    sweep = meanfield.solve_sweep(reference, L, kT)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    lone = [meanfield.solve(reference.replace(L_R0=float(x)), kT) for x in L]
    assert len(calls) == 0
    assert without_counts(lone) == without_counts(sweep)


def windows_and_stiffness(params, L_values):
    columns = [params.replace(L_R0=float(L)) for L in L_values]
    windows = np.array([1.5 * (PHI0 / 2.0) / constraint_slope(p) for p in columns])
    return windows, np.array([1.0 / p.L_R0 + 1.0 / p.L_g for p in columns])


@pytest.mark.parametrize("kT_GHz", [0.0, 20.0, 200.0])
@pytest.mark.parametrize("jitter", [0.0, 0.03, -0.03])
def test_cell_bounds_hold_against_dense_scan(reference, jitter, kT_GHz):
    """No sample of a dense action scan falls below its cell's chord-plus-quadratic bound."""
    p = jittered(reference, jitter)
    kT = h * kT_GHz * GHZ
    # normal and superradiant columns, windows up to 1.7 times the narrowest
    windows, u = windows_and_stiffness(p, [0.30e-9, 0.45e-9, 0.6e-9, 1.0e-9])
    end = windows.max()
    kernel = fock.branch(p, 60)
    # as in the scan, the last cell reaches one step past the window's end
    edges = np.linspace(0.0, end * 256 / 255, 17)
    f_edges = np.array([kernel.free_energy(x, kT) for x in edges])
    bounds = meanfield._cell_bounds(edges, f_edges, u, end)
    slack = 1e-10 * np.abs(f_edges).max()
    assert np.isfinite(bounds).all()

    dense = np.linspace(0.0, end, 2001)
    f_dense = np.array([kernel.free_energy(x, kT) for x in dense])
    cell = np.minimum(np.searchsorted(edges, dense, side="right") - 1, edges.size - 2)
    for c in range(u.size):
        action = u[c] * dense**2 / 2.0 + f_dense
        assert np.all(action >= bounds[c, cell] - slack)


def test_certified_minimum_in_lowest_dense_cell(reference):
    """On criterion 4's grid, phi_th sits in the lowest cell of a 4096-point action scan.

    The branch free energy does not depend on L_R0, so one scan across the
    widest window serves every column of a row; each column's minimum lies
    inside its own window. Every fourth row keeps the cost to five scans.
    """
    windows, u = windows_and_stiffness(reference, GRID_L)
    kernel = fock.branch(reference, 60)
    dense = np.linspace(0.0, windows.max(), 4096)
    for j in range(0, GRID_KT.size, 4):
        f = np.array([kernel.free_energy(x, float(GRID_KT[j])) for x in dense])
        for i, sol in enumerate(grid_sweeps(reference)[j]):
            action = np.where(dense <= windows[i], u[i] * dense**2 / 2.0 + f, np.inf)
            k = int(np.argmin(action))
            assert dense[max(k - 1, 0)] <= sol.phi_th <= dense[k + 1], (j, i)


def test_certified_scan_matches_uniform_oracle(reference):
    """Every field but n_evaluations equals the uniform profile's, bit for bit.

    The certified scan samples a subset of the uniform lattice that holds
    every point able to beat its best sample, so each column's best sample,
    its bracket and its root are the uniform profile's.
    """
    for kT, row in zip(GRID_KT, grid_sweeps(reference)):
        assert without_counts(row) == without_counts(uniform_sweep_oracle(reference, GRID_L, float(kT)))
    L_c = meanfield.critical_inductance_at_zero_T(reference)
    step = 2e-12
    sweeps = [
        (np.array([0.05e-9, 0.25e-9, 0.45e-9, 1.0e-9]), h * 50 * GHZ),
        (np.linspace(0.1e-9, 1.0e-9, 46), 0.0),  # criterion 6, coarse
        (np.arange(L_c - 10 * step, L_c + 10.5 * step, step), 0.0),  # and fine
    ]
    for L, kT in sweeps:
        fast = meanfield.solve_sweep(reference, L, kT)
        slow = uniform_sweep_oracle(reference, L, kT)
        assert without_counts(fast) == without_counts(slow)
        assert any(s.superradiant for s in fast) and not all(s.superradiant for s in fast)


class ConcaveStandIn:
    """A branch stand-in with the concave free energy -phi - phi^2 / 10."""

    def free_energy(self, phi, kT):
        return -phi - phi**2 / 10.0


def test_certified_scan_brackets_edge_minima_like_the_lattice():
    """Each column's best sample and its two neighbours are those of the uniform lattice.

    The action u phi^2 / 2 + f has its minimum at 1 / (u - 0.2): inside the
    window for the first column, past its end for the other two, whose
    bracket is then the end and its lattice neighbours on both sides.
    """
    u = np.array([2.2, 0.7, 0.4])
    phi, f, end = meanfield._certified_scan(ConcaveStandIn(), 0.0, u, 1.0)
    step = 1.0 / (meanfield.COARSE_POINTS - 1)
    lattice = step * np.arange(meanfield.COARSE_POINTS)
    assert lattice[-1] == end
    for c in range(u.size):
        i = int(np.argmin(u[c] * lattice**2 / 2.0 + ConcaveStandIn().free_energy(lattice, 0.0)))
        best = int(np.argmin(np.where(phi <= end, u[c] * phi**2 / 2.0 + f, np.inf)))
        assert phi[best - 1 : best + 2].tolist() == [(i - 1) * step, i * step, (i + 1) * step], c
        assert (phi[best] == end) == (c > 0), c


def test_newton_refine_matches_brent_oracle(reference, monkeypatch):
    """Newton roots equal Brent's, with the same flags, in fewer evaluations.

    On criterion 4's grid and on a 2 pH kT = 0 sweep across L_c, the
    oracle refines the same certified-scan brackets by Brent's method on
    the residual alone.
    """
    L_c = meanfield.critical_inductance_at_zero_T(reference)
    fine = np.arange(L_c - 20e-12, L_c + 21e-12, 2e-12)
    sweeps = [(GRID_L, float(kT)) for kT in GRID_KT] + [(fine, 0.0)]
    newton = [*grid_sweeps(reference), meanfield.solve_sweep(reference, fine, 0.0)]
    monkeypatch.setattr(meanfield, "_refine", brent_refine)
    brent = [meanfield.solve_sweep(reference, L, kT) for L, kT in sweeps]
    for fast, slow in zip(newton, brent):
        assert [s.superradiant for s in fast] == [s.superradiant for s in slow]
        assert [s.converged for s in fast] == [s.converged for s in slow]
        assert_allclose([s.phi_th for s in fast], [s.phi_th for s in slow], rtol=1e-10, atol=0.0)
        assert_allclose([s.psi_th for s in fast], [s.psi_th for s in slow], rtol=1e-10, atol=0.0)
    assert any(s.superradiant for s in newton[-1]) and not all(s.superradiant for s in newton[-1])
    for fast, slow in ((newton[:-1], brent[:-1]), (newton[-1:], brent[-1:])):
        assert sum(s.n_evaluations for r in fast for s in r) < sum(s.n_evaluations for r in slow for s in r)


def test_newton_safeguards():
    """Stand-in residuals: a root past a falling stretch, bisection, an end root, no false claim."""
    def solve(residual, slope, a=0.1, b=1.0):
        calls = []

        def g(x):
            calls.append(x)
            return residual(x), slope(x)

        root, converged = newton_root(g, a, b, g(a), g(b))
        assert type(root) is float
        return root, converged, len(calls)

    # x^3 - x / 4 falls until x = 0.29 and rises through its root 0.5
    root, converged, calls = solve(lambda x: x**3 - x / 4.0, lambda x: 3.0 * x**2 - 0.25)
    assert converged and root == pytest.approx(0.5, rel=1e-15) and calls <= 10
    # a non-positive slope leaves only bisection, which still converges
    root, converged, _ = solve(lambda x: x - 0.3, lambda x: -1.0)
    assert converged and root == pytest.approx(0.3, rel=1e-10)
    assert solve(lambda x: x - 0.1, lambda x: 1.0)[:2] == (0.1, True)
    # a slope 1000 times too steep creeps: 100 steps end unconverged
    root, converged, calls = solve(lambda x: x - 0.3, lambda x: 1e3)
    assert not converged and calls == 102 and 0.1 < root < 0.3
    # the Hermite start 0.5 is the rounded root of x - 0.5 - 1e-17, so the
    # Newton step rounds onto the bracket end just set: it is accepted, not
    # bisected away from (which took 32 more steps and ended 2.9e-11 off)
    assert solve(lambda x: x - 0.5 - 1e-17, lambda x: 1.0, 0.25, 0.75) == (0.5, True, 3)


@pytest.mark.parametrize("fractions", [(0.0, 1.5, 2.0, 2.5), (0.0, 0.2, 0.4, 0.6)], ids=["above", "below"])
def test_refine_reports_a_bracket_without_a_root(reference, fractions):
    """A best sample whose neighbours lie both above (or both below) the root is not converged.

    f is crafted so that the action is lowest at sample 2; _refine reads f
    only to pick that sample, then tests the residual at its neighbours.
    """
    p = reference.replace(L_R0=0.6e-9)
    root = meanfield.solve(p, 0.0).phi_th
    phi = root * np.array(fractions)
    best_i = 2
    f = -meanfield._resonator_action(p, phi) + (np.arange(phi.size) != best_i)
    sol = meanfield._refine(p, 0.0, 60, phi, f, phi[-1], 0)
    assert sol.converged is False
    assert sol.phi_th == phi[best_i]


def test_work_ceilings(reference):
    """The certified scan's evaluation counts with Newton roots.

    The uniform profile took 258-265 and 11,959; Brent roots on the
    certified scan took 28-45 and 5,606.
    """
    for L in (0.25e-9, 0.6e-9):
        assert meanfield.solve(reference.replace(L_R0=L), 0.0).n_evaluations <= 32
    assert sum(s.n_evaluations for row in grid_sweeps(reference) for s in row) <= 4500


def test_phase_boundary_validation(reference):
    T = h * np.array([0.0, 50.0]) * GHZ
    with pytest.raises(ValueError):
        meanfield.phase_boundary(reference, np.array([]), T)
    with pytest.raises(ValueError):
        meanfield.phase_boundary(reference, np.array([0.4e-9]), T[::-1])
    with pytest.raises(ValueError, match="L_R0_values must be a non-empty 1d array"):
        meanfield.phase_boundary(reference, np.array([[0.4e-9, 0.6e-9]]), T)
    # a row at a non-finite or negative kT raises instead of reading as converged
    for row in ([0.0, math.inf], [math.nan], [-math.inf, 0.0], [-1.0, 0.0]):
        with pytest.raises(ValueError, match="kT must be finite and non-negative"):
            meanfield.phase_boundary(reference, np.array([0.6e-9]), np.array(row))


def test_solve_rejects_negative_temperature(reference):
    with pytest.raises(ValueError):
        meanfield.solve(reference, -1.0)
    p = reference.replace(L_R0=0.6e-9)
    for kT in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="kT must be finite and non-negative"):
            meanfield.solve(p, kT)


@pytest.mark.parametrize("M", [True, 60.0, 0])
def test_solve_rejects_a_truncation_that_is_not_a_positive_int(reference, M):
    """Before and after the M = 60 kernel is cached, which True and 60.0 would hash into."""
    fock._branch.cache_clear()
    with pytest.raises(ValueError, match="M must be a positive integer"):
        meanfield.solve(reference, 0.0, M=M)
    fock.branch(reference, 60)
    with pytest.raises(ValueError, match="M must be a positive integer"):
        meanfield.solve(reference, 0.0, M=M)


def test_solve_sweep_rejects_an_empty_or_2d_sweep(reference):
    for sweep in ([], np.array([]), [[0.4e-9, 0.6e-9]]):
        with pytest.raises(ValueError, match="L_R0_values must be a non-empty 1d array"):
            meanfield.solve_sweep(reference, sweep, 0.0)


def test_normal_solution_residual_is_that_of_its_psi_th(reference):
    """A normal solution reports psi_th = 0 exactly, and its residual is computed from it.

    The eigensolver's <psi> at phi = 0 is rounding noise, about 1e-22 A in the
    residual; an ordered solution's residual is u phi_th - psi_th / L_g.
    """
    for L in (0.2e-9, 0.3e-9, 0.6e-9):
        for kT in (0.0, h * 50 * GHZ):
            p = reference.replace(L_R0=L)
            sol = meanfield.solve(p, kT)
            u = 1.0 / p.L_R0 + 1.0 / p.L_g
            assert sol.superradiant == (L == 0.6e-9)
            assert sol.residual == u * sol.phi_th - sol.psi_th / p.L_g
            if not sol.superradiant:
                assert sol.psi_th == 0.0 and sol.residual == 0.0
