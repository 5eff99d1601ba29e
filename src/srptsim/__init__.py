"""Superradiant phase transition of a Josephson junction chain in a lumped resonator.

Layers, from classical to fully quantum:

- circuit: parameters, linearized modes, classical bifurcation
- fock: single-branch operators in a truncated number basis
- meanfield: finite-temperature order parameter in the thermodynamic limit
- fluct: spectra of fluctuations around the mean-field equilibrium
- ed: sparse exact diagonalization at finite branch number
- validate: named internal consistency checks
"""

import importlib

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

__version__ = "0.1.0"

# ed and validate need scipy.sparse. They load on first use, so the
# numpy-only layers and the meanfield and fluct subcommands never pay for it.
_LAZY = {
    "EdConfig": "ed",
    "EdScan": "ed",
    "build_hamiltonian": "ed",
    "build_sector_model": "ed",
    "scan": "ed",
    "CheckResult": "validate",
    "run_checks": "validate",
}


def __getattr__(name):
    if name in ("ed", "validate"):
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(__getattr__(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
