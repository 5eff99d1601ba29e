"""Scan-based minimization, kept as the oracle of the closed forms in src.

golden_section and scan_then_refine are the bracketed searches that
classical_minimum and mean field ran before each became one root of its
stationarity condition. Interval golden-section search is preferred over
bracket-triple variants because the minimum may sit on the boundary of
the physical window, where no interior bracket exists.

uniform_sweep_oracle is mean field's shared uniform phi profile, which
the certified scan of meanfield.solve_sweep replaced, and brent_refine is
the Brent root of the stationarity residual that its Newton refinement
replaced. stationarity_residual reads that residual from the branch kernel
alone, not from any path of the solver under test.
"""

import math

import numpy as np
from scipy.optimize import brentq

from srptsim import fock, meanfield
from srptsim.circuit import (
    CircuitParams,
    ClassicalMinimum,
    classical_critical_inductance,
    constrained_potential,
    constraint_slope,
)
from srptsim.constants import PHI0
from srptsim.meanfield import SNAP_FRACTION

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = np.finfo(float).eps


def golden_section(f, lo, hi, rtol=1e-10, max_iter=200):
    """Minimize f on [lo, hi] assuming unimodality; return (x_min, n_evals).

    The interval shrinks by the golden ratio each step until its width
    falls below rtol * (hi - lo). Boundary minima are handled naturally:
    the interval simply collapses onto the boundary.
    """
    if hi <= lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    span = hi - lo
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    for _ in range(max_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
        evals += 1
        if (b - a) <= rtol * span:
            break
    return 0.5 * (a + b), evals


def scan_then_refine(f, lo, hi, coarse_points=256, rtol=1e-10):
    """Coarse grid scan followed by golden-section refinement of the best cell.

    Returns (x_min, n_evals). The refinement bracket spans one grid cell on
    each side of the best coarse sample, clamped to [lo, hi], so a global
    minimum resolved by the grid is retained.
    """
    if coarse_points < 3:
        raise ValueError("coarse scan needs at least 3 points")
    step = (hi - lo) / (coarse_points - 1)
    best_i, best_v = 0, math.inf
    for i in range(coarse_points):
        v = f(lo + i * step)
        if v < best_v:
            best_i, best_v = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    x, extra = golden_section(f, a, b, rtol=rtol * (hi - lo) / max(b - a, 1e-300))
    return x, coarse_points + extra


def classical_minimum_scan(params: CircuitParams, grid_points=4096) -> ClassicalMinimum:
    """Locate the classical ground configuration by grid scan plus refinement.

    The search window 2 pi phi / Phi0 in [0, 2 pi / (1 + L_g / L_R0)] is
    twice as wide as the half period the branch phase can reach, so the
    global minimum cannot escape it. Golden-section refinement sharpens the
    best grid cell to a relative tolerance of 1e-10; minimizers below
    1e-6 Phi0 snap to exactly zero.
    """
    c = constraint_slope(params)
    phi_hi = PHI0 / c

    def f(phi):
        return constrained_potential(phi, params)

    # scan_then_refine's grid and bracket, the grid in one array call
    step = phi_hi / (grid_points - 1)
    best_i = int(np.argmin(f(step * np.arange(grid_points))))
    a = max(0.0, (best_i - 1) * step)
    b = min(phi_hi, (best_i + 1) * step)
    phi0, _ = golden_section(f, a, b, rtol=1e-10 * phi_hi / max(b - a, 1e-300))
    # Below or exactly at the critical inductance the origin is the true
    # minimum; the refined value there is float noise on a flat bottom.
    if params.L_R0 <= classical_critical_inductance(params):
        phi0 = 0.0
    elif phi0 < SNAP_FRACTION * PHI0:
        phi0 = 0.0
    return ClassicalMinimum(
        phi0=phi0,
        psi0=c * phi0,
        energy_per_atom=constrained_potential(phi0, params),
        superradiant=phi0 > 0.0,
    )


def uniform_sweep_oracle(params: CircuitParams, L_R0_values, kT: float, M: int = 60) -> list:
    """Slow path of meanfield.solve_sweep: a uniform shared profile, then meanfield._refine.

    The branch free energy is sampled at phi_i = i * step, where step puts
    COARSE_POINTS samples across the branch's window 1.5 (Phi0 / 2), that of
    the limit L_R0 -> inf, which holds every column's own window; each
    column takes its best sample from the whole profile.
    """
    columns = [params.replace(L_R0=float(L)) for L in L_R0_values]
    step = 1.5 * (PHI0 / 2.0) / (meanfield.COARSE_POINTS - 1)
    # one lattice point past the window, never sampled: it is only the
    # right bracket end of a best sample at the window's end
    phi = step * np.arange(meanfield.COARSE_POINTS + 1)
    kernel = fock.branch(params, M)
    profile = np.append([kernel.free_energy(x, kT) for x in phi[:-1]], np.inf)
    share, extra = divmod(meanfield.COARSE_POINTS, len(columns))
    return [meanfield._refine(p, kT, M, phi, profile, phi[-2], share + (n < extra))
            for n, p in enumerate(columns)]


def stationarity_residual(phi, kT, params: CircuitParams, M: int = 60) -> float:
    """dA/dphi of the per-branch free energy, ampere: by Hellmann-Feynman
    (1/L_R0 + 1/L_g) phi - <psi> / L_g, with <psi> from the kernel's Gibbs state."""
    b = fock.branch(params, M)
    _, (psi,) = b.thermal(phi, kT, b.ops.psi_op)
    u = 1.0 / params.L_R0 + 1.0 / params.L_g
    return u * phi - psi / params.L_g


def brent_refine(params, kT, M, phi, f, window, shared):
    """Slow path of meanfield._refine: Brent's method on the residual values alone.

    Same bracket, sign checks and packaging as the Newton refinement;
    scipy's brentq (rtol 4 eps) finds the root from residual values only.
    """
    seen = {}

    def g(x):
        # brentq re-evaluates the bracket ends, which are already known
        if x not in seen:
            seen[x] = stationarity_residual(x, kT, params, M)
        return seen[x]

    def package(phi_th, converged):
        return meanfield._package(params, phi_th, kT, M, converged, n_evaluations=len(seen) + shared)

    action = np.where(phi <= window, meanfield._resonator_action(params, phi) + f, np.inf)
    best_i = int(np.argmin(action))
    u = 1.0 / params.L_R0 + 1.0 / params.L_g
    if best_i == 0 and u >= fock.branch(params, M).susceptibility(kT) / params.L_g**2:
        return package(0.0, True)
    a = max(float(phi[max(best_i - 1, 0)]), SNAP_FRACTION * PHI0)
    b = float(phi[min(best_i + 1, phi.size - 1)])
    ga = g(a)
    if best_i == 0 and ga >= 0.0:
        return package(0.0, True)
    if ga > 0.0 or g(b) < 0.0:
        return package(float(phi[best_i]), False)
    phi_th, info = brentq(g, a, b, xtol=1e-300, rtol=4.0 * EPS, full_output=True, disp=False)
    return package(phi_th, info.converged)
