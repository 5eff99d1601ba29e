"""Locating the lower-mode cusp in a fluct.FluctScan, for the cusp tests.

The package reports the spectrum along a sweep; finding the cusp in it,
the coupling crossing, and counting convex runs around it are test
judgements, so they live here.
"""

import numpy as np


def locate_cusp(scan) -> int:
    """Index of the lower-mode minimum, the fluctuation signature of the transition."""
    return int(np.argmin(scan.omega_minus))


def locate_crossing(scan) -> int:
    """Index where the averaged coupling meets its critical value.

    g_bar approaches sqrt(omega_a_bar omega_c) / 2 tangentially rather
    than crossing it, so when no sign change exists the closest approach
    is returned.
    """
    diff = scan.g_bar - scan.g_crit
    sign_change = np.nonzero(diff[:-1] * diff[1:] <= 0.0)[0]
    if sign_change.size:
        i = int(sign_change[0])
        return i if abs(diff[i]) <= abs(diff[i + 1]) else i + 1
    return int(np.argmin(np.abs(diff)))


def count_convex_runs(values) -> int:
    """Number of contiguous runs with positive discrete second difference.

    A single run around the lower-mode minimum distinguishes a cusp from
    noise or from multiple soft points.
    """
    d2 = np.diff(np.asarray(values, dtype=float), n=2)
    pos = d2 > 0.0
    return int(np.count_nonzero(pos[1:] & ~pos[:-1]) + (1 if pos.size and pos[0] else 0))
