"""Superradiant phase transition of a Josephson junction chain in a lumped resonator.

Layers, from classical to fully quantum:

- circuit: parameters, linearized modes, classical bifurcation
- fock: single-branch operators in a truncated number basis
- meanfield: finite-temperature order parameter in the thermodynamic limit
- fluct: spectra of fluctuations around the mean-field equilibrium
- ed: sparse exact diagonalization at finite branch number
- validate: named internal consistency checks
"""

from .circuit import (
    CircuitParams,
    ClassicalMinimum,
    DerivedLinear,
    bosonic_srpt_condition,
    classical_critical_inductance,
    classical_minimum,
    constrained_potential,
    derive_linear,
    inductive_energy,
    polariton_frequencies,
)
from .constants import PHI0
from .ed import EdConfig, EdResult, EdScan, build_hamiltonian, build_sector_model, scan
from .errors import ConfigError, ConvergenceError
from .fluct import (
    FluctScan,
    RenormalizedParams,
    fluctuation_spectrum,
    renormalize,
    spectrum_scan,
    stationarity_check,
    zero_point_shift,
)
from .fock import FockOperatorSet, atom_hamiltonian, build_operators, thermal_expectation
from .meanfield import (
    MeanFieldSolution,
    PhaseDiagramGrid,
    action_per_atom,
    critical_inductance_at_zero_T,
    free_energy_convergence_check,
    phase_boundary,
    selfconsistency_residual,
    solve,
    solve_sweep,
)
from .validate import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "PHI0",
    "CircuitParams",
    "DerivedLinear",
    "ClassicalMinimum",
    "derive_linear",
    "polariton_frequencies",
    "bosonic_srpt_condition",
    "classical_critical_inductance",
    "classical_minimum",
    "constrained_potential",
    "inductive_energy",
    "FockOperatorSet",
    "build_operators",
    "atom_hamiltonian",
    "thermal_expectation",
    "MeanFieldSolution",
    "PhaseDiagramGrid",
    "solve",
    "solve_sweep",
    "action_per_atom",
    "selfconsistency_residual",
    "critical_inductance_at_zero_T",
    "phase_boundary",
    "free_energy_convergence_check",
    "RenormalizedParams",
    "FluctScan",
    "renormalize",
    "stationarity_check",
    "fluctuation_spectrum",
    "zero_point_shift",
    "spectrum_scan",
    "EdConfig",
    "EdResult",
    "EdScan",
    "build_sector_model",
    "build_hamiltonian",
    "scan",
    "CheckResult",
    "run_checks",
    "ConfigError",
    "ConvergenceError",
    "__version__",
]
