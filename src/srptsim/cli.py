"""Command-line interface.

Subcommands map one-to-one onto the analysis layers: classical
bifurcation, linearized spectrum, finite-temperature mean field,
fluctuation spectrum, finite-N diagonalization, and the internal check
registry. Circuit values are given in display units (nH, fF, GHz) on the
command line and in config files; everything is converted to SI at the
boundary. Output is CSV by default, one row per sweep point, each row
written as soon as its point is computed; --format json emits the same
rows as a list of objects, with null where CSV writes nan, written whole
once the sweep is done. meanfield writes its grid or boundary whole too.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import fluct, meanfield
from .circuit import (
    TWO_PI,
    CircuitParams,
    classical_critical_inductance,
    constrained_potential,
    derive_linear,
    josephson_inductance,
    polariton_frequencies,
    reference_params,
)
from .constants import PHI0, h
from .errors import ConfigError, ConvergenceError

GHZ = 1e9

# Swept quantities by flag stem: name, display unit, display-to-SI scale, and
# whether zero is allowed (kT = 0 is the ground state; L_R0 must be positive).
SWEEPS = {"lr0": ("L_R0", "nH", 1e-9, False), "kt": ("kT/h", "GHz", h * GHZ, True)}

# The ed flag that sets each EdConfig field, so that EdConfig's errors name the flags
ED_FLAGS = {"n_atoms": "--n-atoms", "per_mode_cutoff": "--per-mode-cutoff",
            "total_cutoff": "--total-cutoff", "n_eigenvalues": "--k", "max_dimension": "--max-dim",
            "seed": "--seed"}

# Smallest branch truncation meanfield and fluct accept. On the reference
# circuit the zero-temperature L_c at M = 10 is within 6e-9 of M = 60; at
# M = 3 it is 5 % off, and at M = 2 every L_R0 orders.
MIN_FOCK_LEVELS = 10

_UNIT_SCALE = {
    "H": 1.0, "uH": 1e-6, "nH": 1e-9, "pH": 1e-12,
    "F": 1.0, "pF": 1e-12, "fF": 1e-15,
    "Hz": 1.0, "MHz": 1e6, "GHz": 1e9,
}
_KEY_UNITS = {
    "L_J": ("H", "uH", "nH", "pH"),
    "L_g": ("H", "uH", "nH", "pH"),
    "C_J": ("F", "pF", "fF"),
    "C_R0": ("F", "pF", "fF"),
    "E_J": ("Hz", "MHz", "GHz"),
}


def load_config(path: str) -> dict:
    """Parse a flat ``key = value unit`` file into SI circuit values.

    Recognized keys, each at most once: L_J, L_g, C_J, C_R0, E_J (as a
    frequency, converted through h), and N; L_R0 is always swept. A bare
    number without a unit is taken as SI. Numbers are checked as typed,
    like the flags, and an error names the file and line. E_J and L_J
    together are ambiguous and rejected; E_J = 0 is a bare LC branch,
    L_J = inf.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value [unit]', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        tokens = rhs.split()
        name = f"{path}:{lineno}: {key}"
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{name} repeats line {seen[key]}")
        if key == "N":
            if len(tokens) != 1:
                raise ConfigError(f"{path}:{lineno}: N takes a bare integer")
            try:
                values["N"] = int(tokens[0])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad integer {tokens[0]!r}") from exc
            _check_typed(name, tokens[0], values["N"], 1.0, zero_ok=False)
            continue
        if key not in _KEY_UNITS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if len(tokens) not in (1, 2):
            raise ConfigError(f"{path}:{lineno}: expected 'value [unit]', got {rhs.strip()!r}")
        try:
            number = float(tokens[0])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number {tokens[0]!r}") from exc
        scale = 1.0
        if len(tokens) == 2:
            unit = tokens[1]
            if unit not in _KEY_UNITS[key]:
                raise ConfigError(
                    f"{path}:{lineno}: unit {unit!r} not valid for {key}; "
                    f"use one of {', '.join(_KEY_UNITS[key])}"
                )
            scale = _UNIT_SCALE[unit]
        _check_typed(name, " ".join(tokens), number, scale * h if key == "E_J" else scale,
                     zero_ok=key == "E_J", inf_ok=key == "L_J")
        values[key] = number * scale
    if "E_J" in values:
        if "L_J" in values:
            raise ConfigError(f"{path}: give either E_J or L_J, not both")
        values["L_J"] = josephson_inductance(h * values.pop("E_J"))
    return values


def resolve_params(args) -> CircuitParams:
    """Merge defaults, config file, and explicit flags into CircuitParams."""
    reference = reference_params()
    # every subcommand replaces L_R0 by its sweep; CircuitParams needs one
    values = {key: getattr(reference, key) for key in ("L_J", "L_g", "C_J", "C_R0", "L_R0")}
    config_N = None
    if args.config:
        loaded = load_config(args.config)
        config_N = loaded.pop("N", None)
        values.update(loaded)
    typed = {}
    for flag, scale in (("L_J", 1e-9), ("L_g", 1e-9), ("C_J", 1e-15), ("C_R0", 1e-15)):
        v = getattr(args, flag)
        if v is not None:
            _check_typed(f"--{flag}", v, v, scale, zero_ok=False, inf_ok=flag == "L_J")
            values[flag] = v * scale
            typed[flag] = v
    # CircuitParams makes the same check in SI; this one quotes nH and the flags typed
    if all(v > 0.0 for v in values.values()) and not values["L_g"] < values["L_J"]:
        L_g, L_J = (f"--{key} = {typed[key]!r}" if key in typed else f"{key} = {values[key] / 1e-9:.12g}"
                    for key in ("L_g", "L_J"))
        raise ConfigError(f"{L_g} nH must be smaller than {L_J} nH: "
                          "the junction branch loses its restoring force otherwise")
    return CircuitParams(N=config_N, **values)


def _check_typed(name: str, raw, v: float, scale: float, zero_ok: bool, inf_ok: bool = False) -> None:
    """Raise a ConfigError naming `name` (a flag or a config line) and the
    value raw as typed unless v is finite (or inf, with inf_ok: an infinite
    L_J is a branch without a junction), positive (or zero, with zero_ok)
    and still nonzero once scaled to SI units, v * scale."""
    if not (math.isfinite(v) or (inf_ok and v == math.inf)):
        raise ConfigError(f"{name} must be finite, got {raw}")
    if v < 0.0 or (v == 0.0 and not zero_ok):
        raise ConfigError(f"{name} must be {'non-negative' if zero_ok else 'positive'}, got {raw}")
    if v != 0.0 and v * scale == 0.0:
        raise ConfigError(f"{name} underflows to 0 in SI units, got {raw}")


def sweep_values(args, stem: str, params: CircuitParams | None = None) -> np.ndarray:
    """SI values of the --stem list, else of the --stem-min/-max/-steps grid.

    Every value is checked in the display units it was typed in, and an
    error names its flag. A --stem list that holds no value, "" as well
    as ",", is an error too, as is an L_R0 that leaves params no finite
    linear modes (these are monotone in L_R0, so a grid's two ends decide).
    """
    _, _, scale, zero_ok = SWEEPS[stem]
    flag, text = f"--{stem}", getattr(args, stem)
    if text is not None:
        typed = [(flag, tok.strip()) for tok in text.split(",") if tok.strip()]
        if not typed:
            raise ConfigError(f"{flag}: empty value list {text!r}")
    else:
        steps = getattr(args, f"{stem}_steps")
        if steps < 1:
            raise ConfigError(f"{flag}-steps must be >= 1, got {steps}")
        typed = [(f"{flag}-{end}", getattr(args, f"{stem}_{end}")) for end in ("min", "max")]
    values = []
    for name, raw in typed:
        try:
            v = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{flag}: bad number list {text!r}") from exc
        _check_typed(name, raw, v, scale, zero_ok)
        if params is not None:
            try:
                params.replace(L_R0=v * scale)
            except ValueError as exc:
                raise ConfigError(f"{name} {raw}: the circuit has no finite linear modes at this L_R0") from exc
        values.append(v)
    return (np.array(values) if text is not None else np.linspace(*values, steps)) * scale


def fock_levels(args) -> int:
    if args.fock_levels < MIN_FOCK_LEVELS:
        raise ConfigError(f"--fock-levels must be >= {MIN_FOCK_LEVELS}, got {args.fock_levels}")
    return args.fock_levels


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _native(value):
    """A JSON-ready value; non-finite floats become None, which JSON writes as null."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def emit(path, fmt, columns, rows):
    """Write rows, any iterable, to path (stdout when None) as fmt, csv or json.

    path is opened before the first row is asked for. CSV writes each row
    as it arrives, the header together with the first, so an error before
    the first row writes nothing and rows written before a later error
    stay. JSON is one document, written once rows is exhausted.
    """
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as target:
        if fmt == "json":
            payload = [{c: _native(v) for c, v in zip(columns, row)} for row in rows]
            print(json.dumps(payload, indent=2, allow_nan=False), file=target, flush=True)
            return
        for i, row in enumerate(rows):
            line = ",".join(_fmt(v) for v in row)
            print(f"{','.join(columns)}\n{line}" if i == 0 else line, file=target, flush=True)


def cmd_classical(args) -> int:
    """Constrained inductive-energy curves, one per resonator inductance.

    Rows are (L_R0, 2 pi phi / Phi0, U/(N E_J)) so the curve family plots
    directly; the minimum location and the phase label come from the
    curve shape. The classical threshold is printed as a note.
    """
    params = resolve_params(args)
    if params.E_J == 0.0:
        source = "--L_J inf" if args.L_J is not None else f"{args.config}: E_J = 0"
        raise ConfigError(f"{source} is a bare LC branch; classical's curves are in units of E_J")
    L_vals = sweep_values(args, "lr0", params)
    if args.phi_steps < 1:
        raise ConfigError(f"--phi-steps must be >= 1, got {args.phi_steps}")
    _check_typed("--phi-max", args.phi_max, args.phi_max, 1.0, zero_ok=True)
    x_vals = np.linspace(-args.phi_max, args.phi_max, args.phi_steps)

    def rows():
        for L in L_vals:
            p = params.replace(L_R0=float(L))
            for x in x_vals:
                yield L / 1e-9, x, constrained_potential(x * PHI0 / TWO_PI, p, normalized=True)

    emit(args.out, args.format, ("L_R0_nH", "two_pi_phi_over_Phi0", "U_over_N_E_J"), rows())
    note = f"classical threshold: L_R0 = {classical_critical_inductance(params) / 1e-9:.6f} nH"
    print(note, file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_linear(args) -> int:
    params = resolve_params(args)
    _check_typed("--g-scale", args.g_scale, args.g_scale, 1.0, zero_ok=True)
    L_vals = sweep_values(args, "lr0", params)

    def rows():
        for L in L_vals:
            d = derive_linear(params.replace(L_R0=float(L)))
            if not (g := args.g_scale * d.g) < math.inf:
                raise ConfigError(f"--g-scale {args.g_scale!r} makes g infinite at L_R0 = {L / 1e-9:.6g} nH")
            wp, wm2 = polariton_frequencies(d.omega_c, d.omega_a, g)
            yield (
                L / 1e-9,
                d.omega_c / (TWO_PI * GHZ),
                d.omega_a / (TWO_PI * GHZ),
                g / (TWO_PI * GHZ),
                wp / (TWO_PI * GHZ),
                wm2 / (TWO_PI * GHZ) ** 2,
                wm2 < 0.0,
            )

    emit(
        args.out, args.format,
        ("L_R0_nH", "omega_c_GHz", "omega_a_GHz", "g_GHz", "omega_plus_GHz",
         "omega_minus_squared_GHz2", "unstable"),
        rows(),
    )
    return 0


def cmd_meanfield(args) -> int:
    params = resolve_params(args)
    L_vals = sweep_values(args, "lr0", params)
    kT_vals = sweep_values(args, "kt")
    if np.any(np.diff(kT_vals) <= 0):
        flag, typed = ("--kt", args.kt) if args.kt else ("--kt-min to --kt-max", f"{args.kt_min} to {args.kt_max}")
        raise ConfigError(f"{flag} must be strictly increasing, got {typed}")
    grid = meanfield.phase_boundary(params, L_vals, kT_vals, M=fock_levels(args))
    bad = np.argwhere(~grid.converged)
    if bad.size:
        j, i = bad[0]
        raise ConvergenceError(
            f"mean-field solve did not converge at {len(bad)} of {grid.converged.size} "
            f"grid points, first at L_R0 = {L_vals[i] / 1e-9:.6g} nH, "
            f"kT/h = {kT_vals[j] / (h * GHZ):.6g} GHz"
        )
    boundary_columns = ("L_R0_nH", "kTc_over_h_GHz")
    boundary_rows = [(L / 1e-9, grid.boundary[i] / (h * GHZ)) for i, L in enumerate(L_vals)]
    if args.boundary:
        emit(args.out, args.format, boundary_columns, boundary_rows)
    else:
        rows = [(L / 1e-9, kT / (h * GHZ), grid.amplitude[j, i], grid.phi[j, i], grid.phi[j, i] > 0.0)
                for i, L in enumerate(L_vals) for j, kT in enumerate(kT_vals)]
        emit(args.out, args.format,
             ("L_R0_nH", "kBT_over_h_GHz", "alpha_over_sqrtN", "phi_th_Wb", "superradiant"), rows)
    if args.boundary_out:
        emit(args.boundary_out, args.format, boundary_columns, boundary_rows)
    return 0


def cmd_fluct(args) -> int:
    params = resolve_params(args)
    L_vals = sweep_values(args, "lr0", params)
    points = fluct._scan_points(params, L_vals, fock_levels(args))
    rows = (
        (
            L / 1e-9,
            w_minus / (TWO_PI * GHZ),
            w_plus / (TWO_PI * GHZ),
            omega_a_bar / (TWO_PI * GHZ),
            g_bar / (TWO_PI * GHZ),
            g_crit / (TWO_PI * GHZ),
            delta_eps / (h * GHZ),
            "superradiant" if sol.superradiant else "normal",
        )
        for L, ((_, w_plus, w_minus, omega_a_bar, g_bar, g_crit, delta_eps, _), sol)
        in zip(L_vals, points)
    )
    emit(
        args.out, args.format,
        ("L_R0_nH", "omega_bar_minus_GHz", "omega_bar_plus_GHz", "omega_bar_a_GHz",
         "g_bar_GHz", "g_crit_GHz", "delta_eps_over_h_GHz", "phase"),
        rows,
    )
    return 0


@contextlib.contextmanager
def _named_by_ed_flags():
    """Re-raise a ConfigError with each EdConfig field name replaced by the ed flag that sets it."""
    try:
        yield
    except ConfigError as exc:
        message = str(exc)
        for field, flag in ED_FLAGS.items():
            message = message.replace(field, flag)
        raise ConfigError(message) from exc


def cmd_ed(args) -> int:
    from . import ed

    base = resolve_params(args)
    # without --n-atoms, the config file's N, else one atom
    n_text = args.n_atoms if args.n_atoms is not None else str(base.N or 1)
    try:
        n_list = [int(tok) for tok in n_text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --n-atoms list {n_text!r}") from exc
    if not n_list:
        raise ConfigError("--n-atoms must name at least one atom count")
    with _named_by_ed_flags():
        configs = [ed.EdConfig(n_atoms=n, per_mode_cutoff=args.per_mode_cutoff,
                               total_cutoff=args.total_cutoff, n_eigenvalues=args.k,
                               quartic=args.potential == "quartic", max_dimension=args.max_dim,
                               seed=args.seed) for n in n_list]
    L_vals = sweep_values(args, "lr0", base)
    compare = {}
    if args.compare_meanfield:
        # Thermodynamic-limit reference values at kT = 0, shared across the N rows.
        for sol in meanfield._sweep(base, L_vals, 0.0):
            shift = fluct.zero_point_shift(sol.params, sol, fluct.renormalize(sol.params, sol))
            compare[sol.params.L_R0] = (sol.alpha_over_sqrt_n**2, shift / (h * GHZ))
    columns = ["N", "L_R0_nH", "dim_even", "dim_odd", "E_g_over_h_GHz", "photons_per_atom",
               "transition_even_GHz", "transition_odd_GHz", "delta_eps_over_h_GHz"]
    if compare:
        columns += ["photons_per_atom_mf", "delta_eps_over_h_GHz_mf"]

    def rows():
        for config in configs:
            params = base.replace(N=config.n_atoms)
            if args.dump_matrix and config is configs[0]:
                first = params.replace(L_R0=float(L_vals[0]))
                H = ed.hamiltonian_at(ed.build_sector_model(first, config, 0), first)
                written = ed.export_matrix(args.dump_matrix, H)
                print(f"even-sector Hamiltonian at L_R0 = {L_vals[0] / 1e-9:.6g} nH written to {written}",
                      file=sys.stderr)
            for L, (dims, point) in zip(L_vals, ed._scan_points(params, config, L_vals)):
                E_g, photons, t_even, t_odd, delta_eps = point
                yield [config.n_atoms, L / 1e-9, *dims, E_g / (h * GHZ), photons, t_even / (h * GHZ),
                       t_odd / (h * GHZ), delta_eps / (h * GHZ), *(compare[float(L)] if compare else ())]

    # build_basis raises the sector-size errors once the sweep starts
    with _named_by_ed_flags():
        emit(args.out, args.format, tuple(columns), rows())
    return 0


def cmd_validate(args) -> int:
    from . import validate

    names = None if args.only is None else [tok.strip() for tok in args.only.split(",") if tok.strip()]
    if names == []:
        raise ConfigError(f"--only: empty check list {args.only!r}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    n_run = n_pass = 0
    for r in validate.check_results(names=names, seed=args.seed):
        print(f"{'ok  ' if r.passed else 'FAIL'} {r.name}: {r.detail}", flush=True)
        n_run, n_pass = n_run + 1, n_pass + r.passed
    print(f"{n_pass}/{n_run} checks passed", flush=True)
    return 0 if n_pass == n_run else 1


def build_parser() -> argparse.ArgumentParser:
    circuit = argparse.ArgumentParser(add_help=False)
    circuit.add_argument("--config", metavar="FILE", help="flat 'key = value unit' circuit file")
    circuit.add_argument("--L_J", type=float, metavar="NH", help="junction inductance, nH")
    circuit.add_argument("--L_g", type=float, metavar="NH", help="series geometric inductance, nH")
    circuit.add_argument("--C_J", type=float, metavar="FF", help="junction capacitance, fF")
    circuit.add_argument("--C_R0", type=float, metavar="FF", help="per-branch resonator capacitance, fF")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="FILE", help="write rows here instead of stdout")
    out.add_argument("--format", choices=("csv", "json"), default="csv", help="row format")

    def sweep_flags(stem, lo, hi, steps):
        """--stem LIST, or a --stem-min/--stem-max/--stem-steps grid, in display units."""
        name, unit, _, _ = SWEEPS[stem]
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(f"--{stem}", metavar="LIST", help=f"comma-separated {name} values, {unit}")
        p.add_argument(f"--{stem}-min", type=float, default=lo, metavar=unit.upper())
        p.add_argument(f"--{stem}-max", type=float, default=hi, metavar=unit.upper())
        p.add_argument(f"--{stem}-steps", type=int, default=steps, metavar="K")
        return p

    fock_help = f"branch truncation, at least {MIN_FOCK_LEVELS}"

    parser = argparse.ArgumentParser(
        prog="srptsim",
        description="Superradiant phase transition of a junction chain in a lumped resonator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", parents=[circuit, out, sweep_flags("lr0", 0.15, 0.75, 5)],
                       help="constrained inductive-energy curves and the classical threshold")
    p.add_argument("--phi-max", type=float, default=math.pi, metavar="RAD",
                   help="half-width of the curve domain in 2 pi phi / Phi0")
    p.add_argument("--phi-steps", type=int, default=201, help="samples per curve")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("linear", parents=[circuit, out, sweep_flags("lr0", 0.1, 1.0, 19)],
                       help="linearized mode frequencies and stability")
    p.add_argument("--g-scale", type=float, default=1.0, metavar="X",
                   help="multiply the coupling before the mode calculation (0 decouples)")
    p.set_defaults(func=cmd_linear)

    p = sub.add_parser("meanfield",
                       parents=[circuit, out, sweep_flags("lr0", 0.3, 1.0, 8), sweep_flags("kt", 0.0, 200.0, 9)],
                       help="finite-temperature order parameter on an (L_R0, kT) grid")
    p.add_argument("--fock-levels", type=int, default=60,
                   help=f"{fock_help}; at 60 only about the lowest 29 levels are converged, "
                        "so at high kT the boundary reads low (0.46 %% at 1.0 nH, kTc ~ 370 GHz)")
    p.add_argument("--boundary", action="store_true",
                   help="emit each column's closed-form critical temperature instead of the "
                        "grid; it may lie above the grid, and nan (null in JSON) means the "
                        "column never orders")
    p.add_argument("--boundary-out", metavar="FILE",
                   help="also write the boundary curve here")
    p.set_defaults(func=cmd_meanfield)

    p = sub.add_parser("fluct", parents=[circuit, out, sweep_flags("lr0", 0.1, 1.0, 46)],
                       help="fluctuation spectrum around the kT = 0 equilibrium")
    p.add_argument("--fock-levels", type=int, default=60, help=fock_help)
    p.set_defaults(func=cmd_fluct)

    p = sub.add_parser("ed", parents=[circuit, out, sweep_flags("lr0", 0.2, 0.8, 7)],
                       help="sparse diagonalization at finite N")
    p.add_argument("--n-atoms", metavar="LIST",
                   help="comma-separated atom counts, one scan per count; default the "
                        "config file's N, else 1")
    p.add_argument("--compare-meanfield", action="store_true",
                   help="append thermodynamic-limit photon and shift columns; mean field "
                        "uses the cosine potential, whose branch operator the --potential "
                        "cosine sectors hold, so only that comparison is like-for-like")
    p.add_argument("--per-mode-cutoff", type=int, default=24)
    p.add_argument("--total-cutoff", type=int, default=48)
    p.add_argument("--k", type=int, default=6,
                   help="EdConfig.n_eigenvalues, which sizes only a bare solve_sector call; "
                        "the rows always solve two even and one odd eigenpair")
    p.add_argument("--potential", choices=("quartic", "cosine"), default="quartic")
    p.add_argument("--max-dim", type=int, default=400_000,
                   help="largest exchange-symmetric sector dimension to build")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Lanczos start vector at the first L_R0 of each parity sector; "
                        "later points start from the eigenvectors of the points before. A nonnegative integer")
    p.add_argument("--dump-matrix", metavar="FILE",
                   help="write the exchange-symmetric even-sector matrix at the first L_R0 "
                        "in Matrix Market format")
    p.set_defaults(func=cmd_ed)

    p = sub.add_parser("validate", help="run the internal consistency checks")
    p.add_argument("--only", metavar="LIST", help="comma-separated check names")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random draws of linear-threshold-equivalence and vieta and of "
                        "dense-vs-sparse's Lanczos start vector; the other checks ignore it. "
                        "A nonnegative integer")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader closed the stream (e.g. piping into head). Point the fd
        # at devnull so the interpreter's exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
