"""Lumped-element circuit model: parameters, linearized modes, classical bifurcation.

The system is a chain of N identical flux branches, each a Josephson
junction (inductance L_J, shunt capacitance C_J) in series with a
geometric inductance L_g, all sharing one LC resonator whose per-branch
inductance and capacitance are L_R0 and C_R0. The flux bias is fixed at
half a flux quantum, so the junction branch energy enters with a positive
cosine, +E_J cos(2 pi psi / Phi0). All quantities are SI.

newton_root, safeguarded Newton steps on a residual and its exact slope,
is the package's one root finder: the classical minimum, mean field's
order parameter and its critical temperature all use it.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .constants import PHI0
from .errors import ConvergenceError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CircuitParams:
    """Electrical parameters of the array-resonator circuit.

    Construction raises ValueError for a value outside its range below, and
    when :func:`derive_linear` gives a mode that is not finite and positive, as L_R0 = 1e-299 H does.

    Attributes
    ----------
    L_J : float
        Josephson inductance of one junction, henry. ``math.inf`` encodes
        a vanishing Josephson energy.
    L_g : float
        Geometric series inductance per branch, henry. Must stay strictly
        below L_J or the linearized junction branch has no restoring force.
    C_J : float
        Junction shunt capacitance, farad.
    C_R0 : float
        Resonator capacitance per branch, farad.
    L_R0 : float
        Resonator inductance scaled to one branch, henry. The full chain
        has L_R = L_R0 / N and C_R = N * C_R0, which keeps the resonator
        frequency independent of N.
    N : int or None
        Number of junction branches; None in thermodynamic-limit contexts.
    """

    L_J: float
    L_g: float
    C_J: float
    C_R0: float
    L_R0: float
    N: int | None = None

    def __post_init__(self):
        for name in ("L_J", "L_g", "C_J", "C_R0", "L_R0"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be a positive number, got {value!r}")
            # only an infinite L_J has a meaning (no junction); any other
            # infinity zeroes the derived frequencies and impedances
            if math.isinf(value) and name != "L_J":
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.L_g < self.L_J:
            raise ValueError(
                f"L_g = {self.L_g} must be smaller than L_J = {self.L_J}: "
                "the junction branch loses its restoring force otherwise"
            )
        if self.N is not None and (
            isinstance(self.N, bool) or not isinstance(self.N, int) or self.N < 1
        ):
            raise ValueError(f"N must be a positive integer or None, got {self.N!r}")
        try:  # finite values can still overflow or underflow a linear mode
            d = derive_linear(self)
            modes = (d.omega_c, d.omega_a, d.Z_c0, d.Z_a, d.g)
        except ZeroDivisionError:  # a product of two values underflowed to 0
            modes = (0.0,)
        if not all(0.0 < x < math.inf for x in modes):
            raise ValueError(f"{self!r} has no finite linear modes: omega_c, omega_a, Z_c0, Z_a, g = {modes}")

    @property
    def E_J(self) -> float:
        """Josephson energy (Phi0 / 2 pi)^2 / L_J in joule."""
        return (PHI0 / TWO_PI) ** 2 / self.L_J

    def replace(self, **changes) -> "CircuitParams":
        """Copy with selected fields replaced (convenience for sweeps)."""
        return dataclasses.replace(self, **changes)


def josephson_inductance(E_J: float) -> float:
    """(Phi0 / 2 pi)^2 / E_J in henry, sign kept; E_J = 0 is no junction, L_J = inf."""
    return math.inf if E_J == 0 else (PHI0 / TWO_PI) ** 2 / E_J


def reference_params(N: int | None = None) -> CircuitParams:
    """The reference circuit used by the checks and the CLI defaults."""
    return CircuitParams(L_J=0.75e-9, L_g=0.45e-9, C_J=24e-15, C_R0=2e-15, L_R0=0.45e-9, N=N)


@dataclass(frozen=True)
class DerivedLinear:
    """Linearized mode data derived from :class:`CircuitParams`.

    omega_c, Z_c0 : resonator frequency (rad/s) and per-branch impedance (ohm)
    omega_a, Z_a  : junction-branch frequency and impedance
    g             : photon-junction coupling rate (rad/s)
    """

    omega_c: float
    omega_a: float
    Z_c0: float
    Z_a: float
    g: float


def derive_linear(params: CircuitParams) -> DerivedLinear:
    """Frequencies, impedances and the coupling rate of the linearized circuit.

    The resonator sees L_g and L_R0 in parallel; the junction branch sees
    L_g in series with the negative Josephson inductance contribution, so
    its restoring term is 1/L_g - 1/L_J (positive by construction).
    """
    u = 1.0 / params.L_g + 1.0 / params.L_R0
    v = 1.0 / params.L_g - 1.0 / params.L_J
    omega_c = math.sqrt(u / params.C_R0)
    Z_c0 = math.sqrt(1.0 / (u * params.C_R0))
    omega_a = math.sqrt(v / params.C_J)
    Z_a = math.sqrt(1.0 / (v * params.C_J))
    g = math.sqrt(Z_c0 * Z_a) / (2.0 * params.L_g)
    return DerivedLinear(omega_c=omega_c, omega_a=omega_a, Z_c0=Z_c0, Z_a=Z_a, g=g)


def polariton_frequencies(omega_c, omega_a, g):
    """Normal modes of two harmonic branches with position-position coupling.

    Returns ``(omega_plus, omega_minus_squared)``. The lower branch comes
    back squared and signed: a negative value flags that the coupled
    quadratic form is unstable, which is exactly the superradiant onset in
    the linearized theory.
    """
    if not (0.0 < omega_c < math.inf and 0.0 < omega_a < math.inf and 0.0 <= g < math.inf):
        raise ValueError("frequencies must be finite and positive and g finite and non-negative")
    s = omega_c**2 + omega_a**2
    r = math.sqrt((omega_c**2 - omega_a**2) ** 2 + 16.0 * g**2 * omega_c * omega_a)
    return math.sqrt((s + r) / 2.0), (s - r) / 2.0


def bosonic_srpt_condition(derived: DerivedLinear) -> bool:
    """True when the coupling exceeds the critical value, 4 g^2 > omega_c omega_a."""
    return 4.0 * derived.g**2 > derived.omega_c * derived.omega_a


def classical_critical_inductance(params: CircuitParams) -> float:
    """Resonator inductance at the classical bifurcation, L_J - L_g (henry)."""
    return params.L_J - params.L_g


def inductive_energy(phi, psis, params: CircuitParams):
    """Total inductive energy of the chain at given node fluxes (joule).

    phi is the resonator flux, psis the junction branch fluxes. params.N
    must match len(psis); the chain resonator inductance is L_R0 / N.
    """
    psis = np.asarray(psis, dtype=float)
    if psis.ndim != 1 or psis.size == 0:
        raise ValueError("psis must be a non-empty 1d sequence of branch fluxes")
    if params.N is None or params.N != psis.size:
        raise ValueError(f"params.N = {params.N} must equal len(psis) = {psis.size}")
    L_R = params.L_R0 / params.N
    branch = (psis - phi) ** 2 / (2.0 * params.L_g) + params.E_J * np.cos(TWO_PI * psis / PHI0)
    return float(phi**2 / (2.0 * L_R) + np.sum(branch))


def constraint_slope(params: CircuitParams) -> float:
    """Slope of the branch-flux line psi = (1 + L_g / L_R0) phi.

    Eliminating the resonator flux by its own stationarity condition puts
    every branch at the same flux on this line.
    """
    return 1.0 + params.L_g / params.L_R0


def constrained_potential(phi, params: CircuitParams, normalized=False):
    """Inductive energy per branch along the constraint line, as a function of phi.

    With psi = (1 + L_g / L_R0) phi the per-branch energy no longer depends
    on N. ``normalized=True`` divides by E_J.
    """
    phi = np.asarray(phi, dtype=float)
    c = constraint_slope(params)
    psi = c * phi
    u = (
        phi**2 / (2.0 * params.L_R0)
        + (psi - phi) ** 2 / (2.0 * params.L_g)
        + params.E_J * np.cos(TWO_PI * psi / PHI0)
    )
    out = u / params.E_J if normalized else u
    return float(out) if out.ndim == 0 else out


def newton_root(g, a, b, ga, gb):
    """Root of a residual rising through zero on [a, b]; (root, converged).

    The package's one root finder. g(x) returns the residual and its
    slope; ga and gb are its values at the bracket ends,
    ga[0] <= 0 <= gb[0]. The first iterate is the root of the cubic
    Hermite interpolant of the two ends. Each residual sign shrinks the
    bracket, and a Newton step that leaves it or meets a non-positive slope
    is replaced by bisection, unless the step is already within tolerance:
    a converged step may round onto the bracket end just set. The root is
    the corrected point of the first step no larger than 1e-10 |x|, a
    Python float; not converged after 100 steps.
    """
    if ga[0] == 0.0:
        return float(a), True
    if gb[0] == 0.0:
        return float(b), True
    x = _hermite_root(a, b, ga, gb)
    for _ in range(100):
        r, slope = g(x)
        if r == 0.0:
            return float(x), True
        if r < 0.0:
            a = x
        else:
            b = x
        new = x - r / slope if slope > 0.0 else math.nan
        if not (a < new < b or abs(new - x) <= 1e-10 * abs(new)):
            new = 0.5 * (a + b)
        x, step = new, abs(new - x)
        if step <= 1e-10 * abs(x):
            return float(x), True
    return float(x), False


def _hermite_root(a, b, ga, gb):
    """Root in (a, b) of the cubic with the values and slopes ga, gb at the ends.

    The lowest one when there are three; the secant root when rounding
    leaves none inside.
    """
    d = b - a
    (ra, sa), (rb, sb) = ga, gb
    cubic = [2.0 * (ra - rb) + d * (sa + sb), 3.0 * (rb - ra) - d * (2.0 * sa + sb), d * sa, ra]
    t = np.roots(cubic)
    t = t.real[(np.abs(t.imag) <= 1e-12) & (t.real > 0.0) & (t.real < 1.0)]
    return a + d * (t.min() if t.size else ra / (ra - rb))


@dataclass(frozen=True)
class ClassicalMinimum:
    """Global minimum of the constrained potential on the phi >= 0 branch.

    phi0, psi0        : minimizing fluxes (weber); zero in the normal phase
    energy_per_atom : potential value at the minimum (joule)
    superradiant      : True when the minimum sits at phi0 > 0
    """

    phi0: float
    psi0: float
    energy_per_atom: float
    superradiant: bool


def classical_minimum(params: CircuitParams) -> ClassicalMinimum:
    """Locate the classical ground configuration from its closed form.

    Along the constraint line the energy per branch is
    E_J (a x^2 / 2 + cos x), with x = 2 pi psi / Phi0 and
    a = L_J / (L_R0 + L_g), so a minimum off the origin solves
    sin x / x = a. At or below the classical critical inductance
    (a >= 1) the origin is the minimum. Otherwise the minimum is the one
    root of sin x / x = a on (0, pi), where sin x / x falls monotonically.
    No other minimum can be lower: on (pi, 2 pi] the energy rises, and
    beyond 2 pi it is at least E_J (2 a pi^2 - 1), above
    E_J (a pi^2 / 2 - 1), the energy at pi, which bounds the root's.
    """
    c = constraint_slope(params)
    a = params.L_J / (params.L_R0 + params.L_g)
    # the tie L_R0 = L_J - L_g is normal; a >= 1 is tested as well, so a
    # last-bit disagreement of the two predicates cannot empty the bracket
    if params.L_R0 <= classical_critical_inductance(params) or a >= 1.0:
        phi0 = 0.0
    else:
        def g(x):
            # a - sin x / x and its slope; at x = 0 the limits a - 1 and 0
            return a - math.sin(x) / x, (math.sin(x) - x * math.cos(x)) / x**2

        x, converged = newton_root(g, 0.0, math.pi, (a - 1.0, 0.0), g(math.pi))
        if not converged:
            raise ConvergenceError(
                f"sin x / x = {a!r} did not converge on (0, pi), last x = {x!r}")
        phi0 = x * PHI0 / (TWO_PI * c)
    return ClassicalMinimum(
        phi0=phi0,
        psi0=c * phi0,
        energy_per_atom=constrained_potential(phi0, params),
        superradiant=phi0 > 0.0,
    )
