"""The package's Brent root finder against scipy.optimize.brentq, its oracle.

circuit.brentq is a line-for-line port of scipy's C brentq, so on every
bracket the root and the converged flag must equal scipy's with ==, not
within a tolerance. scipy.optimize is imported here only; the package
itself no longer loads it.
"""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from srptsim import circuit, fock, meanfield
from srptsim.circuit import brentq, classical_minimum
from srptsim.errors import ConvergenceError

EPS = sys.float_info.epsilon

# the package's tolerances, scipy's defaults and a loose pair
TOLERANCES = [(4.0 * EPS, 1e-300), (4.0 * EPS, 2e-12), (1e-6, 1e-9)]


def random_functions(rng):
    """One cubic, sine, exp and sinc each, plus a cubic scaled by 1e-160.

    The scaled cubic's divided differences multiply to below the smallest
    double, so the extrapolation step divides by zero, which C turns into
    a bisection.
    """
    c = rng.normal(size=4)
    w, phase = rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0)
    s, o = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
    r = rng.uniform(0.05, 0.95)
    d = rng.normal(size=4)
    return [
        lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
        lambda x: math.sin(w * x + phase),
        lambda x: math.exp(s * x) - math.exp(o),
        lambda x: np.sinc(x) - r,
        lambda x: 1e-160 * (((d[0] * x + d[1]) * x + d[2]) * x + d[3]),
    ]


@pytest.mark.parametrize("maxiter", [100, 5])
@pytest.mark.parametrize("rtol, xtol", TOLERANCES)
def test_brentq_matches_scipy_bit_for_bit(rtol, xtol, maxiter):
    rng = np.random.default_rng(20160505)
    compared = unconverged = 0
    for _ in range(400):
        a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
        for f in random_functions(rng):
            if (f(a) < 0.0) == (f(b) < 0.0):
                continue
            expected, info = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                                          full_output=True, disp=False)
            root, converged = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
            assert (root, converged) == (expected, info.converged), (a, b)
            assert type(root) is float
            compared += 1
            unconverged += not converged
    assert compared > 300
    # five iterations leave most brackets unconverged, a hundred none
    assert (unconverged > compared // 2) if maxiter == 5 else (unconverged == 0)


def test_brentq_root_at_a_bracket_end():
    for a, b in [(0.0, 1.0), (-1.0, 0.0)]:
        assert brentq(lambda x: x, a, b) == (0.0, True)
        assert scipy_brentq(lambda x: x, a, b) == 0.0


def test_brentq_package_defaults_are_floats():
    # Python floats keep the returned root a Python float
    root, converged = brentq(lambda x: np.sinc(x / math.pi) - 0.5, 0.0, math.pi)
    assert converged and type(root) is float
    assert root == scipy_brentq(lambda x: np.sinc(x / math.pi) - 0.5, 0.0, math.pi,
                                rtol=4.0 * EPS, xtol=1e-300)


def test_brentq_rejects_same_sign_ends():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        scipy_brentq(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: math.nan if x == 1.0 else x - 0.5,  # NaN at a bracket end
    lambda x: math.nan if abs(x - 0.5) < 0.1 else x - 0.5,  # NaN at the first step
])
def test_brentq_rejects_nan(f):
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        scipy_brentq(f, 0.0, 1.0)


def _never_converges(real):
    def patched(f, a, b):
        root, _ = real(f, a, b)
        return root, False
    return patched


def test_classical_minimum_raises_when_root_does_not_converge(reference, monkeypatch):
    p = reference.replace(L_R0=0.6e-9)
    assert classical_minimum(p).superradiant
    monkeypatch.setattr(circuit, "brentq", _never_converges(brentq))
    with pytest.raises(ConvergenceError):
        classical_minimum(p)
    # the normal phase finds no root and does not call the root finder
    assert not classical_minimum(reference.replace(L_R0=0.2e-9)).superradiant


def test_critical_temperature_raises_when_root_does_not_converge(reference, monkeypatch):
    kernel = fock.branch(reference, 60)
    u = 1.0 / 0.6e-9 + 1.0 / reference.L_g
    assert meanfield._critical_temperature(kernel, u) > 0.0
    monkeypatch.setattr(meanfield, "brentq", _never_converges(brentq))
    with pytest.raises(ConvergenceError):
        meanfield._critical_temperature(kernel, u)
    # a RuntimeError handler still catches it
    with pytest.raises(RuntimeError):
        meanfield.phase_boundary(reference, [0.6e-9], [0.0])
