"""Physical constants used across the package, all SI.

The Planck constant h, the elementary charge e and the Boltzmann
constant k_B are exact by definition since the 2019 SI, so they are
written out here instead of being imported; hbar = h / (2 pi) is formed
as scipy.constants forms it, and all four equal scipy's values exactly.
"""

import math

h = 6.62607015e-34  # Planck constant, J s
hbar = h / (2 * math.pi)
e = 1.602176634e-19  # elementary charge, C
k_B = 1.380649e-23  # Boltzmann constant, J / K

# Magnetic flux quantum h / (2e), in weber.
PHI0 = h / (2.0 * e)

__all__ = ["e", "h", "hbar", "k_B", "PHI0"]
