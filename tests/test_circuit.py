"""Linear-circuit derivations and the classical bifurcation.

Reference values were frozen from a 50-digit mpmath evaluation of the
closed forms; the oracle is recomputed inline so a drift in either the
package or the frozen literals is caught.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from search_oracle import classical_minimum_scan
from srptsim.circuit import (
    CircuitParams,
    bosonic_srpt_condition,
    classical_critical_inductance,
    classical_minimum,
    constrained_potential,
    constraint_slope,
    derive_linear,
    inductive_energy,
    josephson_inductance,
    polariton_frequencies,
)
from srptsim.constants import PHI0, h
from srptsim.validate import _random_params

TWO_PI = 2.0 * math.pi
GHZ = 1e9

# 50-digit closed-form evaluation at the reference circuit.
REF_OMEGA_C_GHZ = 237.25418113905902
REF_OMEGA_A_GHZ = 30.629383078988447
REF_G_GHZ = 47.65418791014055
REF_Z_C0 = 335.41019662496845
REF_Z_A = 216.50635094610966
REF_E_J_GHZ = 217.94868374237485
REF_OMEGA_PLUS_GHZ = 239.70289503913791
REF_OMEGA_MINUS_SQ_GHZ2 = -229.77231437911421


def _mp_derived(params):
    """Arbitrary-precision closed forms, independent of the package."""
    mp.mp.dps = 50
    L_J, L_g = mp.mpf(params.L_J), mp.mpf(params.L_g)
    C_J, C_R0, L_R0 = mp.mpf(params.C_J), mp.mpf(params.C_R0), mp.mpf(params.L_R0)
    u = 1 / L_g + 1 / L_R0
    v = 1 / L_g - 1 / L_J
    omega_c = mp.sqrt(u / C_R0)
    omega_a = mp.sqrt(v / C_J)
    Z_c0 = mp.sqrt(1 / (u * C_R0))
    Z_a = mp.sqrt(1 / (v * C_J))
    g = mp.sqrt(Z_c0 * Z_a) / (2 * L_g)
    return tuple(float(x) for x in (omega_c, omega_a, Z_c0, Z_a, g))


def test_reference_derived_values(reference):
    d = derive_linear(reference)
    oc, oa, zc, za, g = _mp_derived(reference)
    assert_allclose([d.omega_c, d.omega_a, d.Z_c0, d.Z_a, d.g], [oc, oa, zc, za, g], rtol=1e-13)
    assert_allclose(d.omega_c / (TWO_PI * GHZ), REF_OMEGA_C_GHZ, rtol=1e-12)
    assert_allclose(d.omega_a / (TWO_PI * GHZ), REF_OMEGA_A_GHZ, rtol=1e-12)
    assert_allclose(d.g / (TWO_PI * GHZ), REF_G_GHZ, rtol=1e-12)
    assert_allclose(d.Z_c0, REF_Z_C0, rtol=1e-12)
    assert_allclose(d.Z_a, REF_Z_A, rtol=1e-12)
    assert_allclose(reference.E_J / h / GHZ, REF_E_J_GHZ, rtol=1e-12)


def test_derived_values_randomized_against_oracle(rng):
    for _ in range(25):
        L_J = rng.uniform(0.3, 3.0) * 1e-9
        p = CircuitParams(
            L_J=L_J,
            L_g=rng.uniform(0.1, 0.9) * L_J,
            C_J=rng.uniform(5.0, 100.0) * 1e-15,
            C_R0=rng.uniform(0.5, 20.0) * 1e-15,
            L_R0=rng.uniform(0.05, 3.0) * 1e-9,
        )
        d = derive_linear(p)
        assert_allclose(
            [d.omega_c, d.omega_a, d.Z_c0, d.Z_a, d.g], _mp_derived(p), rtol=1e-13
        )


def test_params_validation():
    good = dict(L_J=0.75e-9, L_g=0.45e-9, C_J=24e-15, C_R0=2e-15, L_R0=0.45e-9)
    CircuitParams(**good)
    for key in good:
        with pytest.raises(ValueError):
            CircuitParams(**{**good, key: 0.0})
        with pytest.raises(ValueError):
            CircuitParams(**{**good, key: -good[key]})
    with pytest.raises(ValueError):
        CircuitParams(**{**good, "L_g": 0.75e-9})  # L_g == L_J kills omega_a
    with pytest.raises(ValueError):
        CircuitParams(**good, N=0)
    with pytest.raises(ValueError):
        CircuitParams(**good, N=1.5)
    p = CircuitParams(**good, N=3)
    assert p.replace(L_R0=0.6e-9).L_R0 == 0.6e-9
    assert p.replace(L_R0=0.6e-9).N == 3


def test_params_reject_bools():
    good = dict(L_J=0.75e-9, L_g=0.45e-9, C_J=24e-15, C_R0=2e-15, L_R0=0.45e-9)
    for key in good:
        with pytest.raises(ValueError):
            CircuitParams(**{**good, key: True})
    with pytest.raises(ValueError):
        CircuitParams(**good, N=True)


def test_params_reject_non_finite():
    """Only L_J may be infinite (no junction); C_J = inf would give omega_a = Z_a = g = 0."""
    good = dict(L_J=0.75e-9, L_g=0.45e-9, C_J=24e-15, C_R0=2e-15, L_R0=0.45e-9)
    for key in good:
        with pytest.raises(ValueError):
            CircuitParams(**{**good, key: math.nan})
        if key != "L_J":
            with pytest.raises(ValueError):
                CircuitParams(**{**good, key: math.inf})
    assert math.isinf(CircuitParams(**{**good, "L_J": math.inf}).L_J)


@pytest.mark.parametrize("changes", [
    {"L_R0": 1e-299},  # omega_c overflows; Z_c0 and g would read 7e-143 and 1e-61
    {"C_R0": 1e-315},
    {"C_J": 1e-315},
    {"L_J": math.inf, "L_g": 1e300, "C_J": 1e-300},  # v C_J underflows to 0 in Z_a
])
def test_params_reject_a_circuit_without_finite_linear_modes(reference, changes):
    with pytest.raises(ValueError, match="has no finite linear modes"):
        reference.replace(**changes)


def test_josephson_energy_roundtrip(reference):
    E_J = reference.E_J
    p = reference.replace(L_J=josephson_inductance(E_J))
    assert_allclose(p.L_J, reference.L_J, rtol=1e-14)
    assert_allclose(p.E_J, E_J, rtol=1e-14)


def test_josephson_inductance_keeps_sign_and_maps_zero_to_no_junction(reference):
    assert_allclose(josephson_inductance(reference.E_J), reference.L_J, rtol=1e-14)
    assert josephson_inductance(-reference.E_J) == -josephson_inductance(reference.E_J)
    assert josephson_inductance(0.0) == josephson_inductance(-0.0) == math.inf


def test_zero_josephson_energy_limit(reference):
    # E_J = 0 means an open junction branch: the atom is the bare L_g C_J mode.
    p = reference.replace(L_J=josephson_inductance(0.0))
    assert math.isinf(p.L_J)
    d = derive_linear(p)
    assert_allclose(d.omega_a, 1.0 / math.sqrt(p.L_g * p.C_J), rtol=1e-14)
    assert_allclose(d.Z_a, math.sqrt(p.L_g / p.C_J), rtol=1e-14)


def test_resonator_decoupling_limit(reference):
    p = reference.replace(L_R0=1e3)
    d = derive_linear(p)
    assert_allclose(d.omega_c, 1.0 / math.sqrt(p.L_g * p.C_R0), rtol=1e-9)


def test_omega_c_scaling_consistency(rng):
    # Finite-N element values (L_R = L_R0/N, C_R = N C_R0, N branches in
    # parallel through L_g) must give the N-independent closed form.
    for _ in range(200):
        L_J = rng.uniform(0.3, 3.0) * 1e-9
        p = CircuitParams(
            L_J=L_J,
            L_g=rng.uniform(0.1, 0.9) * L_J,
            C_J=rng.uniform(5.0, 100.0) * 1e-15,
            C_R0=rng.uniform(0.5, 20.0) * 1e-15,
            L_R0=rng.uniform(0.05, 3.0) * 1e-9,
        )
        N = int(rng.integers(1, 40))
        explicit = math.sqrt((N / p.L_g + N / p.L_R0) / (N * p.C_R0))
        assert_allclose(explicit, derive_linear(p).omega_c, rtol=1e-12)


def test_threshold_equivalence_randomized(rng):
    # 4 g^2 > omega_c omega_a and L_R0 > L_J - L_g are the same statement.
    checked = 0
    for _ in range(500):
        L_J = rng.uniform(0.3, 3.0) * 1e-9
        p = CircuitParams(
            L_J=L_J,
            L_g=rng.uniform(0.1, 0.9) * L_J,
            C_J=rng.uniform(5.0, 100.0) * 1e-15,
            C_R0=rng.uniform(0.5, 20.0) * 1e-15,
            L_R0=rng.uniform(0.05, 3.0) * 1e-9,
        )
        L_c = classical_critical_inductance(p)
        if abs(p.L_R0 - L_c) <= 1e-9 * L_c:
            continue
        assert bosonic_srpt_condition(derive_linear(p)) == (p.L_R0 > L_c)
        checked += 1
    assert checked > 450


def test_bosonic_condition_reference_points(reference):
    assert bosonic_srpt_condition(derive_linear(reference))  # 0.45 nH
    assert not bosonic_srpt_condition(derive_linear(reference.replace(L_R0=0.30e-9)))
    assert not bosonic_srpt_condition(derive_linear(reference.replace(L_R0=0.1e-9)))


def test_polariton_reference_branches(reference):
    d = derive_linear(reference)
    wp, wm2 = polariton_frequencies(d.omega_c, d.omega_a, d.g)
    assert_allclose(wp / (TWO_PI * GHZ), REF_OMEGA_PLUS_GHZ, rtol=1e-12)
    assert_allclose(wm2 / (TWO_PI * GHZ) ** 2, REF_OMEGA_MINUS_SQ_GHZ2, rtol=1e-12)


def test_polariton_decoupled():
    wp, wm2 = polariton_frequencies(3.0, 7.0, 0.0)
    assert_allclose(wp, 7.0, rtol=1e-15)
    assert_allclose(wm2, 9.0, rtol=1e-15)


def test_polariton_threshold_collapse():
    wc, wa = 5.0, 2.0
    g = 0.5 * math.sqrt(wc * wa)
    wp, wm2 = polariton_frequencies(wc, wa, g)
    assert abs(wm2) < 1e-12 * wc**2
    assert_allclose(wp**2, wc**2 + wa**2, rtol=1e-12)


def test_polariton_resonance():
    w, g = 4.0, 0.3
    wp, wm2 = polariton_frequencies(w, w, g)
    assert_allclose(wp**2, w**2 + 2 * g * w, rtol=1e-12)
    assert_allclose(wm2, w**2 - 2 * g * w, rtol=1e-12)


def test_polariton_vieta_randomized(rng):
    for _ in range(200):
        wc = rng.uniform(1e10, 1e13)
        wa = rng.uniform(1e10, 1e13)
        g = rng.uniform(0.0, 2.0) * math.sqrt(wc * wa)
        wp, wm2 = polariton_frequencies(wc, wa, g)
        assert_allclose(wp**2 + wm2, wc**2 + wa**2, rtol=1e-12)
        assert_allclose(
            wp**2 * wm2, wc**2 * wa**2 - 4 * g**2 * wc * wa,
            rtol=1e-12, atol=1e-12 * (wc**2 * wa**2),
        )


def test_polariton_floats():
    one_p, one_m2 = polariton_frequencies(5.0, 2.0, 0.1)
    assert isinstance(one_p, float) and isinstance(one_m2, float)
    # the same closed form in numpy: both square roots are correctly rounded, so the values agree exactly
    wc, wa, g = np.float64(5.0), np.float64(2.0), np.float64(0.1)
    s, r = wc**2 + wa**2, np.sqrt((wc**2 - wa**2) ** 2 + 16.0 * g**2 * wc * wa)
    assert (one_p, one_m2) == (float(np.sqrt((s + r) / 2.0)), float((s - r) / 2.0))
    with pytest.raises(ValueError):
        polariton_frequencies(-1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        polariton_frequencies(1.0, 2.0, -0.1)


def test_polariton_rejects_non_finite_input():
    # NaN compares false with everything and inf is positive, so a sign test alone passes both
    for args in ((math.nan, 2.0, 0.1), (1.0, math.nan, 0.1), (1.0, 2.0, math.nan),
                 (math.inf, 2.0, 0.1), (1.0, math.inf, 0.1), (1.0, 2.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            polariton_frequencies(*args)


def test_inductive_energy_trivial_points(reference):
    for N in (1, 4):
        p = reference.replace(N=N)
        zeros = np.zeros(N)
        assert_allclose(inductive_energy(0.0, zeros, p), N * p.E_J, rtol=1e-14)
        half = np.full(N, PHI0 / 2.0)
        expected = N * (PHI0**2 / (8.0 * p.L_g) - p.E_J)
        assert_allclose(inductive_energy(0.0, half, p), expected, rtol=1e-14)
    with pytest.raises(ValueError):
        inductive_energy(0.0, np.zeros(2), reference.replace(N=3))
    with pytest.raises(ValueError):
        inductive_energy(0.0, np.zeros(1), reference)  # N unset


def test_constrained_matches_inductive_on_constraint(reference, rng):
    slope = constraint_slope(reference)
    for N in (1, 3):
        p = reference.replace(N=N)
        for _ in range(20):
            phi = rng.uniform(-1.0, 1.0) * PHI0 / slope
            per_branch = inductive_energy(phi, np.full(N, slope * phi), p) / N
            assert_allclose(per_branch, constrained_potential(phi, p), rtol=1e-12)


def test_constrained_potential_symmetry_and_origin(reference, rng):
    for _ in range(30):
        phi = rng.uniform(-2.0, 2.0) * PHI0
        assert constrained_potential(phi, reference) == constrained_potential(-phi, reference)
    assert_allclose(constrained_potential(0.0, reference), reference.E_J, rtol=1e-15)
    assert constrained_potential(0.0, reference, normalized=True) == 1.0


def test_constrained_brute_force_double_well():
    # L_g = L_R0 = 0.6 L_J puts the system above the classical threshold;
    # a 10^4-point scan of the constrained curve must leave the origin.
    L_J = 1.0e-9
    p = CircuitParams(L_J=L_J, L_g=0.6 * L_J, C_J=24e-15, C_R0=2e-15, L_R0=0.6 * L_J)
    x = np.linspace(-math.pi, math.pi, 10_001)  # 2 pi phi / Phi0
    u = np.array([constrained_potential(xi / TWO_PI * PHI0, p) for xi in x])
    i_min = int(np.argmin(u))
    assert abs(x[i_min]) > 0.1
    assert u[i_min] < constrained_potential(0.0, p)


def test_constrained_single_well_below_threshold():
    L_J = 1.0e-9
    p = CircuitParams(L_J=L_J, L_g=0.6 * L_J, C_J=24e-15, C_R0=2e-15, L_R0=0.2 * L_J)
    x = np.linspace(-math.pi, math.pi, 4001)
    u = np.array([constrained_potential(xi / TWO_PI * PHI0, p) for xi in x])
    assert int(np.argmin(u)) == 2000  # origin


def test_classical_critical_inductance_values(reference):
    assert_allclose(classical_critical_inductance(reference), 0.30e-9, rtol=1e-14)
    p = CircuitParams(L_J=1.0e-9, L_g=0.6e-9, C_J=24e-15, C_R0=2e-15, L_R0=0.5e-9)
    assert_allclose(classical_critical_inductance(p), 0.4e-9, rtol=1e-14)
    near = reference.replace(L_g=reference.L_J * (1 - 1e-9))
    assert classical_critical_inductance(near) < 1e-17


def test_classical_minimum_normal_phase(reference):
    cm = classical_minimum(reference.replace(L_R0=0.25 * reference.L_J))
    assert cm.phi0 == 0.0
    assert cm.psi0 == 0.0
    assert not cm.superradiant
    assert_allclose(cm.energy_per_atom, reference.E_J, rtol=1e-14)


def test_classical_minimum_threshold_tie_breaks_normal(reference):
    cm = classical_minimum(reference.replace(L_R0=classical_critical_inductance(reference)))
    assert cm.phi0 == 0.0 and not cm.superradiant


def test_classical_minimum_against_brute_force():
    L_J = 1.0e-9
    p = CircuitParams(L_J=L_J, L_g=0.6 * L_J, C_J=24e-15, C_R0=2e-15, L_R0=L_J)
    cm = classical_minimum(p)
    assert cm.superradiant and cm.phi0 > 0.0
    assert_allclose(cm.psi0, constraint_slope(p) * cm.phi0, rtol=1e-14)
    # independent dense scan plus quadratic polish
    slope = constraint_slope(p)
    phis = np.linspace(0.0, PHI0 / slope, 200_001)
    vals = np.array([constrained_potential(f, p) for f in phis])
    i = int(np.argmin(vals))
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    refined = phis[i] + 0.5 * (a - c) / (a - 2 * b + c) * (phis[1] - phis[0])
    assert_allclose(cm.phi0, refined, rtol=1e-6)
    assert cm.energy_per_atom <= vals[i]


def test_classical_minimum_vanishes_toward_threshold(reference):
    L_c = classical_critical_inductance(reference)
    prev = math.inf
    for k in range(1, 7):
        cm = classical_minimum(reference.replace(L_R0=L_c * (1.0 + 4.0**-k)))
        assert cm.phi0 < prev
        prev = cm.phi0
    assert prev < 0.02 * PHI0


def test_classical_minimum_against_scan_oracle(rng):
    """The closed form finds the scan's phase and minimum, and never a higher energy."""
    for _ in range(200):
        p = _random_params(rng)
        cm = classical_minimum(p)
        oracle = classical_minimum_scan(p)
        assert cm.superradiant == oracle.superradiant
        assert_allclose(cm.phi0, oracle.phi0, rtol=1e-6, atol=0.0)
        assert cm.energy_per_atom <= oracle.energy_per_atom + 1e-13 * p.E_J


def test_classical_minimum_near_threshold_series(reference):
    # sin x / x = a gives x^2 = 6 (1 - a) (1 + x^2 / 20 + ...), so at
    # 1 - a = 1e-6 the root sits 1.5e-7 above sqrt(6 (1 - a))
    p = reference.replace(L_R0=reference.L_J / (1.0 - 1e-6) - reference.L_g)
    a = p.L_J / (p.L_R0 + p.L_g)
    cm = classical_minimum(p)
    x = TWO_PI * cm.psi0 / PHI0
    excess = x / math.sqrt(6.0 * (1.0 - a)) - 1.0
    assert 0.0 < excess < 1e-6
    assert excess == pytest.approx(6.0 * (1.0 - a) / 40.0, rel=1e-2)


def test_classical_bifurcation_point_bisection():
    # the order parameter turns on at L_J - L_g = 0.4 L_J for L_g = 0.6 L_J
    L_J = 1.0e-9
    p = CircuitParams(L_J=L_J, L_g=0.6 * L_J, C_J=24e-15, C_R0=2e-15, L_R0=0.5 * L_J)
    lo, hi = 0.2 * L_J, 0.6 * L_J
    assert not classical_minimum(p.replace(L_R0=lo)).superradiant
    assert classical_minimum(p.replace(L_R0=hi)).superradiant
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if classical_minimum(p.replace(L_R0=mid)).superradiant:
            hi = mid
        else:
            lo = mid
    assert_allclose(0.5 * (lo + hi), 0.4 * L_J, rtol=1e-3)
