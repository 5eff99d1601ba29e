"""Level formulas of the branch response and its Gibbs state, kept as the oracles of src.

level_susceptibility is the branch's static flux response written on its
levels with unnormalized Boltzmann weights, and critical_temperature is
the Newton root of chi(kT) / L_g^2 = u with its slope dchi/dkT from those
same weights. fock._static_response, with the weights of
fock.gibbs_state, replaced both inside the package. oracle_weights and
oracle_free_energy are the two functions that fock.gibbs_state merged,
each exponentiating the spectrum on its own; gibbs_state must equal them
bit for bit.
"""

import math

import numpy as np

from srptsim.circuit import newton_root
from srptsim.fock import DEGENERACY_RTOL


def _check_temperature(kT):
    if not 0.0 <= kT < np.inf:
        raise ValueError(f"kT must be finite and non-negative, got {kT!r}")


def oracle_weights(w, kT):
    """Normalized Gibbs weights of the ascending spectrum w at kT, joule: uniform over the
    ground multiplet at kT = 0, else the Boltzmann factors shifted so that the ground one is 1."""
    _check_temperature(kT)
    if kT == 0.0:
        mask = w - w[0] <= DEGENERACY_RTOL * max(w[-1] - w[0], abs(w[0]))
        return mask / np.count_nonzero(mask)
    weights = np.exp(-(w - w[0]) / kT)
    return weights / np.sum(weights)


def oracle_free_energy(w, kT):
    """Free energy of the ascending spectrum w at kT, joule; the ground level at kT = 0."""
    _check_temperature(kT)
    if kT == 0.0:
        return float(w[0])
    return float(w[0] - kT * np.log(np.sum(np.exp(-(w - w[0]) / kT))))


def level_susceptibility(kernel, kT):
    """d<psi>/dh of the untilted branch: 2 sum_n |psi_0n|^2 / (E_n - E_0) at kT = 0.

    Above, sum over m != n of (p_m - p_n) / (E_n - E_m) |psi_mn|^2 / Z with
    Boltzmann weights p and Z = sum p; psi_mm = 0 by the branch's parity.
    """
    E, psi2 = kernel.levels, kernel.psi_levels**2
    if kT == 0.0:
        return float(2.0 * np.sum(psi2[0, 1:] / (E[1:] - E[0])))
    p = np.exp(-(E - E[0]) / kT)
    # the unit diagonal only ever divides p_m - p_m = 0
    gap = E[None, :] - E[:, None] + np.eye(E.size)
    return float(np.sum((p[:, None] - p[None, :]) / gap * psi2) / p.sum())


def critical_temperature(kernel, u):
    """Root of level_susceptibility(kT) / L_g^2 = u by Newton; NaN when the column never orders.

    With c_m = sum_n |psi_mn|^2 / (E_n - E_m), chi = 2 p.c / Z, so
    dchi/dkT = (2 dp.c - chi sum dp) / Z with dp_m = p_m (E_m - E_0) / kT^2.
    The bracket doubles from the first gap until the residual turns positive.
    """
    E = kernel.levels
    c = np.sum(kernel.psi_levels**2 / (E[None, :] - E[:, None] + np.eye(E.size)), axis=1)

    def g(kT):
        chi = level_susceptibility(kernel, kT)
        if kT == 0.0:
            return u - chi / kernel.L_g**2, 0.0
        p = np.exp(-(E - E[0]) / kT)
        dp = p * (E - E[0]) / kT**2
        return u - chi / kernel.L_g**2, -(2.0 * dp @ c - chi * dp.sum()) / p.sum() / kernel.L_g**2

    ga = g(0.0)
    if ga[0] >= 0.0:
        return math.nan
    lo, hi = 0.0, float(E[1] - E[0])
    while (gb := g(hi))[0] < 0.0:
        lo, hi, ga = hi, 2.0 * hi, gb
    kTc, converged = newton_root(g, lo, hi, ga, gb)
    assert converged, (lo, hi, kTc)
    return kTc
