"""Superradiant phase transition of a Josephson junction chain in a lumped resonator.

Layers, from classical to fully quantum:

- circuit: parameters, linearized modes, classical bifurcation
- fock: single-branch operators in a truncated number basis
- meanfield: finite-temperature order parameter in the thermodynamic limit
- fluct: spectra of fluctuations around the mean-field equilibrium
- ed: sparse exact diagonalization at finite branch number
- validate: named internal consistency checks

Each function lives in its layer module (``meanfield.solve``, ``ed.scan``).
The package itself names only the layers, CircuitParams and the two errors.
"""

import importlib

from . import circuit, fock, fluct, meanfield
from .circuit import CircuitParams
from .errors import ConfigError, ConvergenceError

__version__ = "0.1.0"


def __getattr__(name):
    # ed and validate need scipy.sparse. They load on first use, so the
    # numpy-only layers and the meanfield and fluct subcommands never pay for it.
    if name in ("ed", "validate"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["circuit", "fock", "meanfield", "fluct", "ed", "validate",
           "CircuitParams", "ConfigError", "ConvergenceError", "__version__"]
