"""Fluctuation spectra around the zero-temperature mean-field equilibrium.

Expanding the chain energy to second order in the flux fluctuations about
the equilibrium (phi_th, psi_th) gives back the two-coupled-oscillator
problem of the linearized circuit, with the junction curvature replaced by
its ground-state average: E_J cos -> E_J <cos>. The resulting lower mode
stays strictly positive through the transition and develops a cusp at the
critical inductance instead of softening to zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import circuit, fock, meanfield
from .circuit import TWO_PI, CircuitParams, derive_linear, polariton_frequencies
from .constants import PHI0
from .errors import ConvergenceError
from .meanfield import MeanFieldSolution

# Tolerated negative part of the squared lower mode, relative to omega_c^2.
# Anything below this is a genuine instability and raises.
NEGATIVE_TOL = 1e-8


@dataclass(frozen=True)
class RenormalizedParams:
    """Ground-state-averaged branch parameters at the mean-field equilibrium.

    E_J_bar   : E_J <cos>, the averaged junction curvature scale (joule);
                negative past the point where the branch flux crosses a
                quarter period
    omega_a_bar, g_bar : branch frequency and coupling rebuilt from the
                averaged curvature
    solution  : the mean-field solution whose equilibrium was averaged
    cos_avg   : ground-state expectation of cos(2 pi psi / Phi0)
    """

    E_J_bar: float
    omega_a_bar: float
    g_bar: float
    solution: MeanFieldSolution
    cos_avg: float


def _solution_branch(params: CircuitParams, solution: MeanFieldSolution) -> fock.Branch:
    """fock.branch(params, solution.M), the kernel solution was found on; ValueError unless params
    holds the circuit values of solution.params, N aside, which mean field does not read."""
    if params.replace(N=None) != solution.params.replace(N=None):
        raise ValueError(f"the mean-field solution was found for {solution.params}, not {params}")
    return fock.branch(params, solution.M)


def renormalize(params: CircuitParams, solution: MeanFieldSolution) -> RenormalizedParams:
    """Average the junction curvature in the equilibrium ground state.

    Only defined at zero temperature, and taken on the branch truncation of
    the solution, solution.M. A solution at kT > 0, or a params whose circuit
    values differ from solution.params (:func:`_solution_branch`), raises ValueError.
    """
    if solution.kT != 0.0:
        raise ValueError("renormalization uses ground-state averages; solve at kT = 0")
    b = _solution_branch(params, solution)
    _, (cos_avg,) = b.thermal(solution.phi_th, 0.0, b.ops.cos_op)
    E_J_bar = params.E_J * cos_avg
    L_J_bar = circuit.josephson_inductance(E_J_bar)
    v = 1.0 / params.L_g - 1.0 / L_J_bar
    if v <= 0.0:
        raise ConvergenceError("averaged junction curvature removed the restoring force")
    omega_a_bar = math.sqrt(v / params.C_J)
    Z_a_bar = math.sqrt(1.0 / (v * params.C_J))
    g_bar = math.sqrt(derive_linear(params).Z_c0 * Z_a_bar) / (2.0 * params.L_g)
    return RenormalizedParams(E_J_bar=E_J_bar, omega_a_bar=omega_a_bar, g_bar=g_bar,
                              solution=solution, cos_avg=cos_avg)


def stationarity_check(params: CircuitParams, solution: MeanFieldSolution):
    """Force balance at the equilibrium, returned as (photon, junction) residuals.

    Both residuals are flux derivatives of the energy, in ampere, at the
    solution's truncation and temperature (solution.M, solution.kT). The photon
    residual is the classical resonator balance; the junction one averages the
    flux-periodic force in the equilibrium state, so it measures the truncation.
    A params whose circuit values differ from solution.params raises ValueError (:func:`_solution_branch`).
    """
    b = _solution_branch(params, solution)
    _, (psi, sin_avg) = b.thermal(solution.phi_th, solution.kT, b.ops.psi_op, b.ops.sin_op)
    photon = (1.0 / params.L_R0 + 1.0 / params.L_g) * solution.phi_th - psi / params.L_g
    junction = (psi - solution.phi_th) / params.L_g - (TWO_PI / PHI0) * params.E_J * sin_avg
    return photon, junction


def fluctuation_spectrum(renorm: RenormalizedParams):
    """Polariton frequencies (omega_plus, omega_minus) of the fluctuations, rad/s.

    The resonator branch keeps the bare omega_c of renorm.solution.params;
    the junction branch and the coupling carry the averaged curvature. A squared
    lower mode below -1e-8 omega_c^2 means the expansion point was not a minimum and raises.
    """
    omega_c = derive_linear(renorm.solution.params).omega_c
    omega_plus, omega_minus_squared = polariton_frequencies(omega_c, renorm.omega_a_bar, renorm.g_bar)
    if omega_minus_squared < -NEGATIVE_TOL * omega_c**2:
        raise ConvergenceError(
            f"fluctuation mode unstable: omega_minus^2 = {omega_minus_squared:.3e}"
        )
    return omega_plus, math.sqrt(max(omega_minus_squared, 0.0))


def zero_point_shift(
    params: CircuitParams, solution: MeanFieldSolution, renorm: RenormalizedParams
) -> float:
    """Equilibrium energy offset per branch relative to the bare junction, joule.

    Inductive energy stored in the displaced fluxes plus the change of the
    averaged junction energy: phi^2 / 2 L_R0 + (phi - psi)^2 / 2 L_g
    + E_J (<cos> - 1). ValueError unless params holds the circuit values of
    solution.params (:func:`_solution_branch`) and renorm was averaged in solution.
    """
    _solution_branch(params, solution)
    if renorm.solution != solution:
        raise ValueError("renorm was built from a different mean-field solution")
    phi, psi = solution.phi_th, solution.psi_th
    return (
        phi**2 / (2.0 * params.L_R0)
        + (phi - psi) ** 2 / (2.0 * params.L_g)
        + renorm.E_J_bar
        - params.E_J
    )


@dataclass(frozen=True)
class FluctScan:
    """Fluctuation spectrum along a resonator-inductance sweep at kT = 0.

    All arrays are indexed like L_R0_values. Frequencies in rad/s,
    delta_eps in joule.
    """

    L_R0_values: np.ndarray
    omega_c: np.ndarray
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    omega_a_bar: np.ndarray
    g_bar: np.ndarray
    g_crit: np.ndarray
    delta_eps: np.ndarray
    phi_th: np.ndarray
    superradiant: np.ndarray


def spectrum_scan(params: CircuitParams, L_R0_values, M: int = 60) -> FluctScan:
    """Solve, renormalize and diagonalize the fluctuations at each L_R0.

    The kT = 0 equilibria come from :func:`meanfield._sweep`, the lazy sweep behind
    :func:`meanfield.solve_sweep` at truncation M, each column refined just before its renormalization.
    """
    L_vals = np.asarray(L_R0_values, dtype=float)
    rows, solutions = zip(*_scan_points(params, L_vals, M))
    omega_c, omega_plus, omega_minus, omega_a_bar, g_bar, g_crit, delta_eps, phi_th = np.array(rows).T
    return FluctScan(L_R0_values=L_vals, omega_c=omega_c, omega_plus=omega_plus, omega_minus=omega_minus,
                     omega_a_bar=omega_a_bar, g_bar=g_bar, g_crit=g_crit, delta_eps=delta_eps, phi_th=phi_th,
                     superradiant=np.array([sol.superradiant for sol in solutions], dtype=bool))


def _scan_points(params: CircuitParams, L_R0_values, M: int):
    """The points of :func:`spectrum_scan`, each yielded once it is renormalized: (omega_c, omega_plus,
    omega_minus, omega_a_bar, g_bar, g_crit, delta_eps, phi_th) and its MeanFieldSolution."""
    # each column is renormalized before the next one's eigensolves evict its tilt
    for sol in meanfield._sweep(params, L_R0_values, 0.0, M):
        ren = renormalize(sol.params, sol)
        omega_c = derive_linear(sol.params).omega_c
        w_plus, w_minus = fluctuation_spectrum(ren)
        g_crit = 0.5 * math.sqrt(ren.omega_a_bar * omega_c)
        yield (omega_c, w_plus, w_minus, ren.omega_a_bar, ren.g_bar, g_crit,
               zero_point_shift(sol.params, sol, ren), sol.phi_th), sol
