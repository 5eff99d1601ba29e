"""Finite-temperature mean-field theory of the junction chain, thermodynamic limit.

With L_R = L_R0 / N and C_R = N C_R0 the resonator flux phi becomes a
classical order parameter as N grows. The equilibrium minimizes the free
energy per branch

    A(phi) = (1/L_R0 + 1/L_g) phi^2 / 2 + hbar omega_c / 2 + f(phi, kT)

over phi >= 0, where f is the branch free energy in the flux-tilted
potential. Stationarity of A is equivalent to the self-consistency
condition (1/L_R0 + 1/L_g) phi = <psi> / L_g, and the solver locates its
minimum as a root of that residual. Temperatures enter as kT in joule.

f is the free energy of H_atom - (phi / L_g) psi, so it is concave in phi
at every kT, and its chord between two samples bounds A from below: the
scan that brackets the root refines only the cells that could hold the
minimum. The root itself is found by safeguarded Newton steps
(circuit.newton_root): the residual's slope 1/L_R0 + 1/L_g - chi / L_g^2,
with chi the branch's static response at phi, comes from the same
eigensolve as the residual. The critical temperature of phase_boundary is
found by the same steps, its slope from the levels of the untilted branch.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .circuit import CircuitParams, derive_linear, newton_root
from .constants import PHI0, hbar
from .errors import ConvergenceError

# Lattice points across the branch's window, 0.75 Phi0. An ordered column has
# L_R0 > L_c > L_J - L_g, so on the reference circuit its constraint slope is below
# 2.5 and it gets 255 / 2.5 = 102 steps or more across its own; chi decides the rest.
COARSE_POINTS = 256

# Lower end of the bracket on phi, as a fraction of Phi0: the residual is
# tested there rather than at the origin, where it vanishes.
SNAP_FRACTION = 1e-6


def action_per_atom(phi: float, kT: float, params: CircuitParams, M: int = 60) -> float:
    """Free energy per branch at frozen resonator flux phi, joule."""
    return _resonator_action(params, phi) + fock.branch(params, M).free_energy(phi, kT)


def _resonator_action(params: CircuitParams, phi):
    """Resonator part of the action per branch, u phi^2 / 2 + hbar omega_c / 2, joule."""
    u = 1.0 / params.L_R0 + 1.0 / params.L_g
    return u * phi**2 / 2.0 + hbar * derive_linear(params).omega_c / 2.0


@dataclass(frozen=True)
class MeanFieldSolution:
    """Equilibrium of the per-branch free energy at one (params, kT) point.

    phi_th, psi_th       : resonator and branch flux expectations (weber)
    alpha_over_sqrt_n    : photon amplitude per square-root branch,
                           phi_th / sqrt(2 hbar Z_c0)
    params, M, kT        : the circuit, its column's L_R0 included, the branch
                           truncation and the temperature (joule) it was found at
    action_per_atom    : free energy per branch at the minimum, joule
    superradiant         : True when phi_th > 0; at kT = 0 exact even where
                           phi_th, below about 2e-6 Phi0, is not resolved,
                           but it can read False within about 1e-10
                           relative below the critical kT (PhaseDiagramGrid)
    converged            : False when the neighbours of the best scan
                           sample bracket no root of the residual or the
                           root did not converge
    residual             : self-consistency residual at phi_th and psi_th, ampere
    n_evaluations        : spectral evaluations (free energies and residuals)
                           spent on this point: its refinement and packaging
                           plus its share of the certified scan shared
                           across a solve_sweep, so a sweep's values sum to
                           the evaluations it made; one the kernel's memo
                           answers counts but runs no eigensolve (fock.Branch)
    """

    phi_th: float
    psi_th: float
    alpha_over_sqrt_n: float
    params: CircuitParams
    M: int
    kT: float
    action_per_atom: float
    superradiant: bool
    converged: bool
    residual: float
    n_evaluations: int


def solve(params: CircuitParams, kT: float, M: int = 60) -> MeanFieldSolution:
    """Minimize the per-branch free energy over phi >= 0.

    The one-column case of :func:`solve_sweep`, at params.L_R0.
    """
    return solve_sweep(params, [params.L_R0], kT, M)[0]


def solve_sweep(
    params: CircuitParams, L_R0_values, kT: float, M: int = 60
) -> list[MeanFieldSolution]:
    """Minimize the per-branch free energy over phi >= 0 at each L_R0, one temperature.

    A certified scan of the branch free energy, then the root of the
    stationarity residual between the neighbours of each column's best
    sample, by safeguarded Newton steps (:func:`circuit.newton_root`): the
    free energy is flat to float precision near its minimum while the
    residual changes sign cleanly. A best sample at phi = 0 is the normal
    phase, phi_th = 0, when phi = 0 is stable by the closed form
    1/L_R0 + 1/L_g >= chi(kT) / L_g^2 or when the residual at 1e-6 Phi0 is
    non-negative.

    Only the resonator term of the action depends on L_R0, so one scan
    (:func:`_certified_scan`) serves the sweep: each column's best sample
    is the best point of a uniform profile with COARSE_POINTS samples
    across the branch's window W = 1.5 (Phi0 / 2), that of L_R0 -> inf.
    Each column's minimum lies inside its own window, W / constraint_slope,
    and truncating the branch only raises f (Rayleigh-Ritz at kT = 0, Cauchy
    interlacing above), so the search past it finds no spurious minimum.
    W does not depend on the columns, so a solve after its sweep, at the
    same kernel and kT, reads the sweep's tilts from the kernel's memo.

    Each column's n_evaluations counts an equal share of the scan's
    samples, so the sweep's n_evaluations sum to the evaluations made.
    Returns one MeanFieldSolution per L_R0 value, in order.

    The bracket starts at SNAP_FRACTION * Phi0, so phi_th below about
    2e-6 Phi0 is not resolved: on the reference circuit at
    L_c (1 + 1e-11) it reports 1.32e-6 Phi0 where the square-root onset
    gives 3.7e-7 Phi0. The superradiant flag there is exact at kT = 0, but
    within about 1e-10 relative below a column's critical kT it can read
    the normal phase. An empty or 2-D sweep raises ValueError, as do a bad kT
    or M (:func:`fock.branch`).
    """
    return list(_sweep(params, L_R0_values, kT, M))


def _sweep(params, L_R0_values, kT, M=60):
    """:func:`solve_sweep`'s checks and scan, then an iterator that refines each column as it is read.

    A caller that reads a column's tilt again before taking the next, as
    fluct does, finds it in the kernel's decomposition memo.
    """
    L_vals = np.asarray(L_R0_values, dtype=float)
    if L_vals.ndim != 1 or L_vals.size == 0:
        raise ValueError("L_R0_values must be a non-empty 1d array")
    columns = [params.replace(L_R0=float(L)) for L in L_vals]
    u = np.array([1.0 / p.L_R0 + 1.0 / p.L_g for p in columns])
    phi, f, end = _certified_scan(fock.branch(params, M), kT, u, 1.5 * (PHI0 / 2.0))
    share, extra = divmod(phi.size, len(columns))
    return (_refine(p, kT, M, phi, f, end, share + (n < extra)) for n, p in enumerate(columns))


def _certified_scan(kernel, kT, u, window):
    """Ascending samples (phi, f) of the branch free energy, refined where a minimum could lie.

    u holds each column's resonator stiffness 1/L_R0 + 1/L_g. Samples sit on
    the lattice phi = i * step, COARSE_POINTS of it up to the window's end,
    which is returned with them; every sweep passes the branch's window, W of
    :func:`solve_sweep`, so the sweeps at a kernel share one lattice. The scan
    starts from 8 cells 32 steps wide and one sample past the end. A cell is
    bisected while it is wider than one step and its bound (:func:`_cell_bounds`)
    is within a slack of some column's best sample, so every lattice point that
    could beat a column's best sample gets sampled, and the cells on both sides
    of the best sample, the window's end included, shrink to one step: the
    bracket is the best sample's two lattice neighbours. The slack, 1e-10 of the
    largest |f|, is about 200 times the eigensolver's backward error, so
    rounding cannot prune the minimum.
    """
    step = window / (COARSE_POINTS - 1)
    end = (COARSE_POINTS - 1) * step
    # the sample past the end is the right bracket end of a best sample there
    index = np.arange(0, COARSE_POINTS + 32, 32)
    f = np.array([kernel.free_energy(i * step, kT) for i in index])
    while True:
        phi = index * step
        # every sample but the one past the end lies inside the window
        best = (u[:, None] * phi[:-1] ** 2 / 2.0 + f[:-1]).min(axis=1)
        slack = 1e-10 * np.abs(f).max()
        open_ = _cell_bounds(phi, f, u, end) <= best[:, None] + slack
        cells = np.nonzero(open_.any(axis=0) & (np.diff(index) > 1))[0]
        if cells.size == 0:
            return phi, f, end
        mid = (index[cells] + index[cells + 1]) // 2
        index = np.insert(index, cells + 1, mid)
        f = np.insert(f, cells + 1, [kernel.free_energy(i * step, kT) for i in mid])


def _cell_bounds(phi, f, u, end):
    """Lower bounds of u phi^2 / 2 + f on each cell between samples, one row per column.

    f is the free energy of a branch tilted by -(phi / L_g) psi, so it is
    concave in phi (its curvature is -chi / L_g^2) and lies above its chord
    through the two samples of a cell. The bound is the minimum of u phi^2 / 2
    plus that chord over the part of the cell up to the window's end. The
    last cell reaches past the end, to one sample; its bound is at most the
    action at the end, so it shrinks to one step when the end is the best.
    """
    a, b = phi[:-1], phi[1:]
    slope = np.diff(f) / (b - a)
    x = np.clip(-slope / u[:, None], a, np.minimum(b, end))
    return u[:, None] * x**2 / 2.0 + f[:-1] + slope * (x - a)


def _refine(params, kT, M, phi, f, window, shared):
    """Refine one column from the branch free energy f sampled at the ascending phi.

    The residual is bracketed by the neighbours of the best sample up to
    the window's end, and its root is found by :func:`circuit.newton_root`
    from the kernel's flux_response, one eigensolve per step at a new tilt:
    a solve after its sweep repeats the sweep's steps from the memo. The
    column reports `shared` of the samples in its n_evaluations.
    """
    kernel = fock.branch(params, M)
    u = 1.0 / params.L_R0 + 1.0 / params.L_g
    made = 0

    def g(x):
        # the residual u x - <psi> / L_g and its slope u - chi / L_g^2
        nonlocal made
        made += 1
        psi, chi = kernel.flux_response(x, kT)
        return u * x - psi / params.L_g, u - chi / params.L_g**2

    def package(phi_th, converged):
        return _package(params, phi_th, kT, M, converged, n_evaluations=made + shared)

    action = np.where(phi <= window, _resonator_action(params, phi) + f, np.inf)
    best_i = int(np.argmin(action))
    # phi = 0 is stable while the stiffness u outweighs the branch's
    # softening chi / L_g^2; at L_c the residual at the snap flux is
    # rounding noise, so this closed form decides first
    if best_i == 0 and u >= kernel.susceptibility(kT) / params.L_g**2:
        return package(0.0, True)
    # the residual is dA/dphi: it rises through zero at a minimum
    a = max(float(phi[max(best_i - 1, 0)]), SNAP_FRACTION * PHI0)
    b = float(phi[min(best_i + 1, phi.size - 1)])
    ga = g(a)
    if best_i == 0 and ga[0] >= 0.0:
        return package(0.0, True)
    if ga[0] > 0.0:
        return package(float(phi[best_i]), False)
    gb = g(b)
    if gb[0] < 0.0:
        return package(float(phi[best_i]), False)
    return package(*newton_root(g, a, b, ga, gb))


def _package(params, phi_th, kT, M, converged, n_evaluations):
    """The solution at phi_th, from one evaluation of the free energy and <psi>."""
    b = fock.branch(params, M)
    F, (psi,) = b.thermal(phi_th, kT, b.ops.psi_op)
    psi = psi if phi_th else 0.0  # 0 by parity; the eigensolver's <psi> is rounding noise
    u = 1.0 / params.L_R0 + 1.0 / params.L_g
    return MeanFieldSolution(
        phi_th=phi_th,
        psi_th=psi,
        alpha_over_sqrt_n=phi_th / math.sqrt(2.0 * hbar * derive_linear(params).Z_c0),
        params=params,
        M=M,
        kT=kT,
        action_per_atom=_resonator_action(params, phi_th) + F,
        superradiant=phi_th > 0.0,
        converged=converged,
        residual=u * phi_th - psi / params.L_g,
        n_evaluations=n_evaluations + 1,
    )


def critical_inductance_at_zero_T(params: CircuitParams, M: int = 60) -> float:
    """Resonator inductance where the zero-temperature order parameter onsets, henry.

    The branch free energy does not depend on L_R0, so the normal phase
    turns unstable at the closed form 1/L_c = chi / L_g^2 - 1/L_g, with chi
    the branch susceptibility at kT = 0: normal below L_c, superradiant
    above. ValueError when chi / L_g^2 <= 1/L_g, where no L_R0 orders, and
    for a branch without a junction (E_J = 0): it is harmonic, chi = L_g
    exactly, and 1/L_c would be rounding noise.
    """
    inverse_L_c = fock.branch(params, M).susceptibility(0.0) / params.L_g**2 - 1.0 / params.L_g
    if params.E_J == 0.0 or inverse_L_c <= 0.0:
        raise ValueError("the circuit never orders at kT = 0: chi / L_g^2 <= 1 / L_g")
    return 1.0 / inverse_L_c


@dataclass(frozen=True)
class PhaseDiagramGrid:
    """Order parameter over an (L_R0, kT) grid.

    amplitude, phi and converged have shape (len(kT_values),
    len(L_R0_values)), kT along rows. boundary[i] is column i's critical kT,
    the closed-form root of chi(kT) / L_g^2 = 1/L_R0 + 1/L_g; it may exceed
    the grid, and NaN means the column never orders. A point whose
    minimized superradiant flag disagrees with kT < boundary[i], as at a
    first-order jump or within about 1e-10 below boundary[i], where phi_th
    under the snap flux reads 0, has converged = False.
    """

    L_R0_values: np.ndarray
    kT_values: np.ndarray
    amplitude: np.ndarray
    phi: np.ndarray
    converged: np.ndarray
    boundary: np.ndarray


def _critical_temperature(kernel: fock.Branch, u: float) -> float:
    """Root of chi(kT) / L_g^2 = u; NaN when chi(0) / L_g^2 <= u, so the column never orders.

    Each step forms the weights p of :func:`fock.gibbs_state` once and
    reads chi and its kT-derivative from them: chi is the Kubo sum of
    kernel.susceptibility, and with c_m = sum_n |psi_mn|^2 / (E_n - E_m),
    chi = 2 p.c, so dchi/dkT = 2 dp.c - chi sum dp with
    dp_m = p_m (E_m - E_0) / kT^2, zero at kT = 0. The residual
    u - chi / L_g^2 rises through kTc, and :func:`circuit.newton_root`
    finds it inside a doubling bracket.
    """
    E = kernel.levels
    psi2 = kernel.psi_levels**2
    # the unit diagonal divides psi_mm^2 = 0, by the parity of the untilted branch
    c = np.sum(psi2 / (E[None, :] - E[:, None] + np.eye(E.size)), axis=1)

    def g(kT):
        p = fock.gibbs_state(E, kT)[1]
        chi = fock._static_response(E, kernel.psi_levels, p, kT)
        if kT == 0.0:
            return u - chi / kernel.L_g**2, 0.0
        dp = p * (E - E[0]) / kT**2
        return u - chi / kernel.L_g**2, -(2.0 * dp @ c - chi * dp.sum()) / kernel.L_g**2

    ga = g(0.0)
    if ga[0] >= 0.0:
        return math.nan
    # chi -> 0 as kT grows, so doubling the bracket ends
    lo, hi = 0.0, float(E[1] - E[0])
    while (gb := g(hi))[0] < 0.0:
        lo, hi, ga = hi, 2.0 * hi, gb
    kTc, converged = newton_root(g, lo, hi, ga, gb)
    if not converged:
        raise ConvergenceError(
            f"critical temperature did not converge in [{lo!r}, {hi!r}], last kT = {kTc!r}")
    return kTc


def phase_boundary(params: CircuitParams, L_R0_values, kT_values, M: int = 60) -> PhaseDiagramGrid:
    """Order parameter on the full (L_R0, kT) grid plus the closed-form boundary.

    Each kT row is one :func:`solve_sweep` over the L_R0 columns.
    """
    L_vals = np.asarray(L_R0_values, dtype=float)
    T_vals = np.asarray(kT_values, dtype=float)
    if T_vals.ndim != 1 or T_vals.size == 0:
        raise ValueError("kT_values must be a non-empty 1d array")
    if np.any(np.diff(T_vals) <= 0):
        raise ValueError("kT_values must be strictly increasing")
    rows = [solve_sweep(params, L_vals, float(kT), M=M) for kT in T_vals]

    amplitude = np.array([[sol.alpha_over_sqrt_n for sol in r] for r in rows])
    phi = np.array([[sol.phi_th for sol in r] for r in rows])
    kernel = fock.branch(params, M)
    boundary = np.array([_critical_temperature(kernel, 1.0 / L + 1.0 / params.L_g) for L in L_vals])
    converged = np.array([[sol.converged for sol in r] for r in rows], dtype=bool)
    converged &= (phi > 0.0) == (T_vals[:, None] < boundary)
    return PhaseDiagramGrid(
        L_R0_values=L_vals,
        kT_values=T_vals,
        amplitude=amplitude,
        phi=phi,
        converged=converged,
        boundary=boundary,
    )
