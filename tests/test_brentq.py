"""The package's Newton roots against scipy.optimize.brentq, their oracle.

circuit.newton_root finds the classical minimum, mean field's order
parameter and its critical temperature from residuals with exact slopes.
Brent's method needs only residual values, so scipy's brentq at its
tightest tolerances checks the roots here; scipy.optimize is imported by
the tests only, the package itself never loads it.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from srptsim import circuit, fock, meanfield
from srptsim.circuit import CircuitParams, classical_minimum, constraint_slope
from srptsim.constants import PHI0, h
from srptsim.errors import ConvergenceError

EPS = np.finfo(float).eps
GHZ = 1e9


def oracle_root(f, a, b):
    return brentq(f, a, b, xtol=1e-300, rtol=4.0 * EPS)


def oracle_critical_temperature(kernel, u):
    """Brent's root of chi(kT) / L_g^2 = u inside the same doubling bracket; NaN if it never orders."""
    def excess(kT):
        return kernel.susceptibility(kT) / kernel.L_g**2 - u

    if excess(0.0) <= 0.0:
        return math.nan
    lo, hi = 0.0, float(kernel.levels[1] - kernel.levels[0])
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return oracle_root(excess, lo, hi)


def test_critical_temperature_matches_brentq_oracle(reference):
    """kTc to 1e-13 relative, with the oracle's NaN pattern, on the reference and 10 random circuits."""
    rng = np.random.default_rng(20161019)
    circuits = [reference]
    for _ in range(10):
        L_J = rng.uniform(0.5e-9, 1.2e-9)
        circuits.append(CircuitParams(
            L_J=L_J, L_g=L_J * rng.uniform(0.3, 0.8), C_J=rng.uniform(10e-15, 40e-15),
            C_R0=2e-15, L_R0=0.45e-9))
    ordered = never = 0
    for p in circuits:
        kernel = fock.branch(p, 60)
        for L in np.linspace(0.1e-9, 2.0e-9, 15):
            u = 1.0 / L + 1.0 / p.L_g
            kTc = meanfield._critical_temperature(kernel, u)
            expected = oracle_critical_temperature(kernel, u)
            assert math.isnan(kTc) == math.isnan(expected), (p, L)
            if math.isnan(expected):
                never += 1
                continue
            assert type(kTc) is float
            assert kTc == pytest.approx(expected, rel=1e-13, abs=0.0), (p, L)
            ordered += 1
    assert ordered > 100 and never > 10


def test_critical_temperature_slope_matches_central_difference(reference, monkeypatch):
    """d(u - chi / L_g^2)/dkT from the levels equals a central difference of chi."""
    kernel = fock.branch(reference, 60)
    u = 1.0 / 0.6e-9 + 1.0 / reference.L_g
    seen = []
    real = meanfield.newton_root

    def spy(g, a, b, ga, gb):
        seen.append(g)
        return real(g, a, b, ga, gb)

    monkeypatch.setattr(meanfield, "newton_root", spy)
    meanfield._critical_temperature(kernel, u)
    (g,) = seen
    assert g(0.0)[1] == 0.0
    for f in (5.0, 50.0, 200.0):
        kT = h * f * GHZ
        # the fourth-order central difference: at 5 GHz, far below the
        # 32 GHz gap, chi is flat and a second-order one is either
        # truncation- or rounding-limited near 1e-8
        d = 1e-3 * kT
        chi = {s: kernel.susceptibility(kT + s * d) for s in (-2, -1, 1, 2)}
        dchi = (8.0 * (chi[1] - chi[-1]) - (chi[2] - chi[-2])) / (12.0 * d)
        assert g(kT)[1] == pytest.approx(-dchi / reference.L_g**2, rel=1e-9), f


def test_classical_minimum_matches_brentq_oracle():
    """phi0 to 1e-13 relative for a = L_J / (L_R0 + L_g) up to 0.99, as a Python float."""
    L_J, L_g = 0.75e-9, 0.45e-9
    for target in [*np.linspace(0.01, 0.99, 99), 0.053]:
        p = CircuitParams(L_J=L_J, L_g=L_g, C_J=24e-15, C_R0=2e-15, L_R0=L_J / float(target) - L_g)
        a = p.L_J / (p.L_R0 + p.L_g)
        x = oracle_root(lambda x: np.sinc(x / math.pi) - a, 0.0, math.pi)
        phi0 = classical_minimum(p).phi0
        assert type(phi0) is float
        assert phi0 == pytest.approx(x * PHI0 / (2.0 * math.pi * constraint_slope(p)), rel=1e-13), a


def _never_converges(real):
    def patched(g, a, b, ga, gb):
        root, _ = real(g, a, b, ga, gb)
        return root, False
    return patched


def test_classical_minimum_raises_when_root_does_not_converge(reference, monkeypatch):
    p = reference.replace(L_R0=0.6e-9)
    assert classical_minimum(p).superradiant
    monkeypatch.setattr(circuit, "newton_root", _never_converges(circuit.newton_root))
    with pytest.raises(ConvergenceError):
        classical_minimum(p)
    # the normal phase finds no root and does not call the root finder
    assert not classical_minimum(reference.replace(L_R0=0.2e-9)).superradiant


def test_critical_temperature_raises_when_root_does_not_converge(reference, monkeypatch):
    kernel = fock.branch(reference, 60)
    u = 1.0 / 0.6e-9 + 1.0 / reference.L_g
    assert meanfield._critical_temperature(kernel, u) > 0.0
    monkeypatch.setattr(meanfield, "newton_root", _never_converges(meanfield.newton_root))
    with pytest.raises(ConvergenceError):
        meanfield._critical_temperature(kernel, u)
    # a RuntimeError handler still catches it
    with pytest.raises(RuntimeError):
        meanfield.phase_boundary(reference, [0.6e-9], [0.0])
