"""End-to-end tests of the command-line interface.

Every test drives main() with an argv list, so argument parsing, unit
conversion, dispatch, and the exit-code contract are all exercised the
way a shell user would hit them: 0 success, 1 convergence failure, 2
configuration or usage errors.
"""

import csv
import io
import json
import math
import subprocess
import sys

import pytest
from scipy.io import mminfo, mmread

from srptsim import fluct, fock, meanfield
from srptsim.circuit import derive_linear, polariton_frequencies
from srptsim.cli import load_config, main
from srptsim.errors import ConfigError, ConvergenceError
from srptsim.validate import reference_params


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- config files -------------------------------------------------------------


def test_load_config_units_and_comments(tmp_path):
    f = tmp_path / "circuit.cfg"
    f.write_text(
        "# reference circuit\n"
        "L_J = 0.75 nH\n"
        "L_g = 450 pH\n\n"
        "C_J = 24 fF   # junction\n"
        "C_R0 = 0.002 pF\n"
        "N = 4\n"
    )
    values = load_config(str(f))
    assert values["L_J"] == pytest.approx(0.75e-9)
    assert values["L_g"] == pytest.approx(0.45e-9)
    assert values["C_J"] == pytest.approx(24e-15)
    assert values["C_R0"] == pytest.approx(2e-15)
    assert values["N"] == 4


def test_load_config_josephson_energy_as_frequency(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("E_J = 217.948683742374846 GHz\n")
    values = load_config(str(f))
    assert values["L_J"] == pytest.approx(0.75e-9, rel=1e-12)


def test_ed_with_zero_josephson_energy(tmp_path, capsys):
    """E_J = 0 makes the quartic block diagonal; ED still runs and reports the harmonic gap."""
    f = tmp_path / "c.cfg"
    f.write_text("E_J = 0 GHz\n")
    assert load_config(str(f))["L_J"] == math.inf
    rc = main(["ed", "--config", str(f), "--lr0", "0.3", "--per-mode-cutoff", "12",
               "--total-cutoff", "24"])
    assert rc == 0
    header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    p = reference_params().replace(L_J=math.inf, L_R0=0.3e-9)
    d = derive_linear(p)
    omega_minus = math.sqrt(polariton_frequencies(d.omega_c, d.omega_a, d.g)[1])
    gap = float(row[header.index("transition_odd_GHz")])
    assert gap == pytest.approx(omega_minus / (2 * math.pi * 1e9), rel=1e-9)


def test_negative_josephson_energy_exits_2(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("E_J = -5 GHz\n")
    with pytest.raises(ConfigError, match="E_J"):
        load_config(str(f))
    assert main(["linear", "--config", str(f)]) == 2
    assert "E_J" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("C_J = -24 fF", "C_J must be positive, got -24 fF"),
        ("E_J = inf GHz", "E_J must be finite, got inf GHz"),
        ("E_J = nan GHz", "E_J must be finite, got nan GHz"),
        ("L_g = 1e-320 nH", "L_g underflows to 0 in SI units, got 1e-320 nH"),
        ("E_J = 1e-300 GHz", "E_J underflows to 0 in SI units, got 1e-300 GHz"),
        ("L_J = -inf nH", "L_J must be finite, got -inf nH"),
        ("N = 0", "N must be positive, got 0"),
    ],
)
def test_config_numbers_checked_as_typed(tmp_path, line, message, capsys):
    """Each config number is checked like its flag; the error names file, line and key."""
    f = tmp_path / "c.cfg"
    f.write_text(f"# checked as typed\n{line}\n")
    assert main(["linear", "--config", str(f), "--lr0", "0.3"]) == 2
    assert capsys.readouterr().err == f"error: {f}:2: {message}\n"


def test_repeated_config_key_exits_2(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("C_R0 = 2 fF\nC_R0 = 4 fF\n")
    assert main(["linear", "--config", str(f), "--lr0", "0.3"]) == 2
    assert capsys.readouterr() == ("", f"error: {f}:2: C_R0 repeats line 1\n")


def test_config_resonator_inductance_is_not_a_key(tmp_path, capsys):
    """L_R0 is always the swept variable, so a config line setting it is an unknown key."""
    f = tmp_path / "c.cfg"
    f.write_text("# swept instead\nL_R0 = 0.45 nH\n")
    assert main(["fluct", "--config", str(f), "--lr0", "0.3"]) == 2
    assert capsys.readouterr() == ("", f"error: {f}:2: unknown key 'L_R0'\n")


@pytest.mark.parametrize("command", ["classical", "linear", "meanfield", "fluct", "ed"])
def test_resonator_inductance_flag_is_rejected(command, capsys):
    """Every circuit subcommand sweeps --lr0; a lone --L_R0 is a usage error, not a silent default grid."""
    assert main([command, "--L_R0", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--L_R0" in err


def test_infinite_junction_inductance_in_config_is_a_bare_branch(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("L_J = inf nH\n")
    assert main(["linear", "--config", str(f), "--lr0", "0.3"]) == 0
    from_config = capsys.readouterr().out
    assert main(["linear", "--L_J", "inf", "--lr0", "0.3"]) == 0
    assert from_config == capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "L_X = 1 nH\n",
        "L_J = 0.75 km\n",
        "L_J = abc nH\n",
        "L_J 0.75 nH\n",
        "N = 1.5\n",
        "L_J = 0.75 nH\nE_J = 200 GHz\n",
        "L_J = 1 2 nH\n",
    ],
)
def test_load_config_rejects_malformed(tmp_path, text):
    f = tmp_path / "bad.cfg"
    f.write_text(text)
    with pytest.raises(ConfigError):
        load_config(str(f))


def test_main_bad_config_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("L_X = 1 nH\n")
    assert main(["linear", "--config", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_missing_config_exits_2(tmp_path):
    assert main(["linear", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_main_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


# --- classical -----------------------------------------------------------------


def test_classical_curves_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = main(
        ["classical", "--lr0", "0.2,0.6", "--phi-steps", "41",
         "--phi-max", str(math.pi), "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["L_R0_nH", "two_pi_phi_over_Phi0", "U_over_N_E_J"]
    assert len(rows) == 2 * 41
    # the threshold note goes to stdout when rows went to a file
    assert "classical threshold" in capsys.readouterr().out

    by_L = {}
    for L, x, u in rows:
        by_L.setdefault(float(L), []).append((float(x), float(u)))
    # normalized curves pass through (0, 1) exactly
    for pts in by_L.values():
        assert dict(pts)[0.0] == 1.0
        xs = [x for x, _ in pts]
        us = [u for _, u in pts]
        assert us == list(reversed(us))  # even in phi
        assert xs == sorted(xs)
    # below threshold the origin is the minimum; above it the curve dips
    assert min(u for _, u in by_L[0.2]) == 1.0
    assert min(u for _, u in by_L[0.6]) < 1.0


def test_classical_note_on_stderr_without_out(capsys):
    assert main(["classical", "--lr0", "0.45", "--phi-steps", "5"]) == 0
    captured = capsys.readouterr()
    assert "classical threshold" in captured.err
    assert "U_over_N_E_J" in captured.out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_classical_rejects_bare_lc_branch(source, tmp_path, capsys):
    """Without a junction E_J = 0, the unit of classical's curves; it exits 2 before any row."""
    if source == "flag":
        argv, named = ["--L_J", "inf"], "--L_J inf"
    else:
        (tmp_path / "c.cfg").write_text("E_J = 0 GHz\n")
        argv, named = ["--config", str(tmp_path / "c.cfg")], f"{tmp_path / 'c.cfg'}: E_J = 0"
    assert main(["classical", "--lr0", "0.3", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {named}") and "units of E_J" in err


def test_classical_rejects_bad_sampling():
    assert main(["classical", "--phi-steps", "0"]) == 2
    assert main(["classical", "--phi-max", "-1.0"]) == 2
    assert main(["classical", "--lr0-steps", "0"]) == 2


# --- linear ----------------------------------------------------------------------


def test_linear_instability_flag_flips_at_threshold(tmp_path):
    out = tmp_path / "linear.csv"
    assert main(["linear", "--lr0", "0.28,0.32", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header[:4] == ["L_R0_nH", "omega_c_GHz", "omega_a_GHz", "g_GHz"]
    assert [r[-1] for r in rows] == ["0", "1"]
    # omega_c softens as the resonator inductance grows
    assert float(rows[1][1]) < float(rows[0][1])
    # the atomic branch does not depend on L_R0
    assert rows[0][2] == rows[1][2]


def test_linear_g_scale_zero_decouples(tmp_path):
    out = tmp_path / "linear.csv"
    assert main(["linear", "--lr0", "0.45", "--g-scale", "0", "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    omega_c, omega_a = float(rows[0][1]), float(rows[0][2])
    omega_plus = float(rows[0][4])
    omega_minus_sq = float(rows[0][5])
    assert float(rows[0][3]) == 0.0
    assert omega_plus == pytest.approx(max(omega_c, omega_a), rel=1e-9)
    assert omega_minus_sq == pytest.approx(min(omega_c, omega_a) ** 2, rel=1e-9)
    assert rows[0][6] == "0"


def test_linear_negative_g_scale_exits_2():
    assert main(["linear", "--g-scale", "-0.5"]) == 2


def test_linear_g_scale_that_overflows_the_coupling_exits_2(capsys):
    assert main(["linear", "--g-scale", "1e300", "--lr0", "0.3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--g-scale 1e+300" in err


@pytest.mark.parametrize("argv", [
    ["ed", "--lr0", "1e-290", "--per-mode-cutoff", "4", "--total-cutoff", "8"],
    ["meanfield", "--lr0", "1e-300", "--kt", "0"],
])
def test_a_circuit_without_finite_linear_modes_exits_2_before_any_row(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "has no finite linear modes" in err


@pytest.mark.parametrize("command", ["classical", "linear", "meanfield", "fluct", "ed"])
@pytest.mark.parametrize("flags", [["--lr0", "0.3,1e-290"], ["--lr0-min", "1e-290", "--lr0-max", "0.3"]],
                         ids=["list", "grid"])
def test_an_lr0_without_finite_linear_modes_is_named_by_its_flag(command, flags, capsys):
    assert main([command, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{flags[0]} 1e-290:" in err and "CircuitParams" not in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("meanfield", "--kt", "inf"),
        ("meanfield", "--kt", "0,nan"),
        ("meanfield", "--kt-min", "nan"),
        ("meanfield", "--kt-max", "inf"),
        ("linear", "--g-scale", "nan"),
        ("linear", "--g-scale", "inf"),
        ("classical", "--phi-max", "nan"),
        ("classical", "--phi-max", "inf"),
    ],
)
def test_non_finite_flags_exit_2(command, flag, value, capsys):
    assert main([command, flag, value]) == 2
    assert f"error: {flag} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["meanfield", "--kt", "-5"], "--kt must be non-negative, got -5"),
        (["meanfield", "--kt-min", "-5"], "--kt-min must be non-negative, got -5.0"),
        (["meanfield", "--lr0", "-0.3"], "--lr0 must be positive, got -0.3"),
        (["linear", "--lr0", "0.3,0"], "--lr0 must be positive, got 0"),
        (["meanfield", "--lr0-min", "nan"], "--lr0-min must be finite, got nan"),
        (["classical", "--lr0-max", "inf"], "--lr0-max must be finite, got inf"),
        (["fluct", "--lr0-steps", "0"], "--lr0-steps must be >= 1, got 0"),
        # positive as typed, zero in joule: it must not run at kT = 0
        (["meanfield", "--lr0", "0.3", "--kt", "1e-300"], "--kt underflows to 0 in SI units, got 1e-300"),
        (["meanfield", "--lr0", "0.3", "--kt-max", "1e-300"],
         "--kt-max underflows to 0 in SI units, got 1e-300"),
    ],
)
def test_sweep_values_checked_as_typed(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["linear", "--lr0", ""], ["linear", "--lr0", ","], ["meanfield", "--kt", ""], ["fluct", "--lr0", " "]],
)
def test_an_empty_value_list_is_an_error(argv, capsys):
    """A list flag given no value exits 2 instead of running the default grid."""
    assert main(argv) == 2
    _, flag, text = argv
    assert capsys.readouterr().err == f"error: {flag}: empty value list {text!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kt", "50,0"], "--kt must be strictly increasing, got 50,0"),
        (["--kt-min", "100", "--kt-max", "0", "--kt-steps", "3"],
         "--kt-min to --kt-max must be strictly increasing, got 100.0 to 0.0"),
    ],
    ids=["list", "grid"],
)
def test_meanfield_temperatures_must_increase(argv, message, capsys):
    """The flag that set the temperatures is named, with its values as typed."""
    assert main(["meanfield", "--lr0", "0.3,0.6", *argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, cfg, quoted",
    [
        (["--L_J", "0.3", "--L_g", "0.45"], None, "--L_g = 0.45 nH must be smaller than --L_J = 0.3 nH"),
        (["--L_J", "0.3"], None, "L_g = 0.45 nH must be smaller than --L_J = 0.3 nH"),
        (["--L_g", "0.75"], None, "--L_g = 0.75 nH must be smaller than L_J = 0.75 nH"),
        ([], "L_g = 800 pH\n", "L_g = 0.8 nH must be smaller than L_J = 0.75 nH"),
    ],
    ids=["both-flags", "L_J-flag", "L_g-flag", "config"],
)
def test_inductance_order_checked_in_nanohenry(tmp_path, argv, cfg, quoted, capsys):
    """L_g < L_J is checked on the merged values and quoted in nH, naming each flag typed."""
    if cfg is not None:
        (tmp_path / "c.cfg").write_text(cfg)
        argv = ["--config", str(tmp_path / "c.cfg"), *argv]
    assert main(["linear", "--lr0", "0.3", *argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {quoted}: the junction branch loses its restoring force otherwise\n")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--C_J", "-24", "--C_J must be positive, got -24.0"),
        ("--C_R0", "0", "--C_R0 must be positive, got 0.0"),
        ("--L_g", "nan", "--L_g must be finite, got nan"),
        ("--C_R0", "inf", "--C_R0 must be finite, got inf"),
        ("--C_J", "1e-320", "--C_J underflows to 0 in SI units, got 1e-320"),
    ],
)
def test_circuit_flags_checked_as_typed(flag, value, message, capsys):
    assert main(["linear", flag, value, "--lr0", "0.3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_infinite_junction_inductance_flag_is_a_bare_branch(capsys):
    assert main(["linear", "--L_J", "inf", "--lr0", "0.3"]) == 0
    p = reference_params().replace(L_J=math.inf, L_R0=0.3e-9)
    omega_a = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert omega_a == pytest.approx(derive_linear(p).omega_a / (2e9 * math.pi), rel=1e-9)


@pytest.mark.parametrize("command", ["meanfield", "fluct"])
@pytest.mark.parametrize("levels, rc", [("1", 2), ("2", 2), ("10", 0)])
def test_fock_levels_floor(command, levels, rc, capsys):
    argv = [command, "--lr0", "0.3", "--fock-levels", levels]
    if command == "meanfield":
        argv += ["--kt", "0"]
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert ("--fock-levels must be >= 10" in err) == (rc == 2)


# --- meanfield -------------------------------------------------------------------


def test_meanfield_grid_and_boundary_file(tmp_path):
    out = tmp_path / "grid.csv"
    bout = tmp_path / "boundary.csv"
    rc = main(
        ["meanfield", "--lr0", "0.25,0.6", "--kt", "0,100,200",
         "--fock-levels", "40",
         "--out", str(out), "--boundary-out", str(bout)]
    )
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["L_R0_nH", "kBT_over_h_GHz", "alpha_over_sqrtN", "phi_th_Wb", "superradiant"]
    assert len(rows) == 6
    cells = {(float(r[0]), float(r[1])): r for r in rows}
    # the 0.25 nH column is normal at every temperature
    for t in (0.0, 100.0, 200.0):
        assert cells[(0.25, t)][4] == "0"
        assert float(cells[(0.25, t)][2]) == 0.0
    # the 0.6 nH column is superradiant cold and normal hot
    assert cells[(0.6, 0.0)][4] == "1"
    assert cells[(0.6, 200.0)][4] == "0"

    bheader, brows = read_csv(str(bout))
    assert bheader == ["L_R0_nH", "kTc_over_h_GHz"]
    boundary = {float(r[0]): r[1] for r in brows}
    assert boundary[0.25] == "nan"
    assert 100.0 < float(boundary[0.6]) < 200.0


def test_meanfield_boundary_flag_replaces_grid(capsys):
    rc = main(["meanfield", "--lr0", "0.6", "--kt", "0,100,200",
               "--fock-levels", "40", "--boundary"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "L_R0_nH,kTc_over_h_GHz"
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("fmt, name", [("csv", "boundary.csv"), ("json", "boundary.json")])
def test_meanfield_boundary_out_under_boundary(tmp_path, capsys, fmt, name):
    """--boundary-out writes the boundary under --boundary too, the bytes printed to stdout."""
    bout = tmp_path / name
    rc = main(["meanfield", "--lr0", "0.25,0.6", "--kt", "0,100", "--fock-levels", "40",
               "--boundary", "--format", fmt, "--boundary-out", str(bout)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("L_R0_nH,kTc_over_h_GHz\n" if fmt == "csv" else "[")
    assert bout.read_bytes() == out.encode()


def test_meanfield_boundary_json_writes_null(capsys):
    rc = main(["meanfield", "--lr0", "0.25,0.6", "--kt", "0,100", "--fock-levels", "40",
               "--boundary", "--format", "json"])
    assert rc == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    boundary = {row["L_R0_nH"]: row["kTc_over_h_GHz"] for row in payload}
    # 0.25 nH never orders
    assert boundary[0.25] is None
    assert 100.0 < boundary[0.6] < 200.0


def test_meanfield_json_boundary_out_writes_null(tmp_path, capsys):
    bout = tmp_path / "boundary.json"
    rc = main(["meanfield", "--lr0", "0.25,0.6", "--kt", "0,100", "--fock-levels", "40",
               "--format", "json", "--boundary-out", str(bout)])
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    payload = json.loads(bout.read_text())
    assert isinstance(payload, list)
    boundary = {row["L_R0_nH"]: row["kTc_over_h_GHz"] for row in payload}
    # 0.25 nH never orders
    assert boundary[0.25] is None
    assert 100.0 < boundary[0.6] < 200.0


def test_meanfield_nonconverged_points_exit_1(capsys, monkeypatch):
    # with no susceptibility no column orders, so the cross-check flags
    # the two ordered points of the 0.6 nH column
    monkeypatch.setattr(fock.Branch, "susceptibility", lambda self, kT: 0.0)
    rc = main(["meanfield", "--lr0", "0.25,0.6", "--kt", "0,100,200", "--fock-levels", "40"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "did not converge at 2 of 6 grid points" in err
    assert "first at L_R0 = 0.6 nH, kT/h = 0 GHz" in err


def test_critical_inductance_is_normal(capsys):
    """At L_c exactly, meanfield converges and fluct labels the point normal."""
    L_c = meanfield.critical_inductance_at_zero_T(reference_params())
    L_nH = repr(L_c / 1e-9)
    assert float(L_nH) * 1e-9 == L_c
    assert main(["meanfield", "--lr0", L_nH, "--kt", "0,1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["0", "0"]
    assert main(["fluct", "--lr0", L_nH]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[7] for r in rows] == ["normal"]


# --- fluct -----------------------------------------------------------------------


def test_fluct_schema_and_phase_labels(tmp_path):
    out = tmp_path / "fluct.csv"
    rc = main(["fluct", "--lr0", "0.2,0.6", "--fock-levels", "40", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["L_R0_nH", "omega_bar_minus_GHz", "omega_bar_plus_GHz",
                      "omega_bar_a_GHz", "g_bar_GHz", "g_crit_GHz",
                      "delta_eps_over_h_GHz", "phase"]
    assert rows[0][7] == "normal" and rows[1][7] == "superradiant"
    for r in rows:
        assert float(r[1]) > 0.0
        assert float(r[6]) < 0.0


# --- ed --------------------------------------------------------------------------


def test_ed_multi_n_with_meanfield_columns(tmp_path):
    out = tmp_path / "ed.csv"
    rc = main(
        ["ed", "--n-atoms", "1,2", "--lr0", "0.3,0.52",
         "--per-mode-cutoff", "6", "--total-cutoff", "12", "--k", "4",
         "--compare-meanfield", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["N", "L_R0_nH", "dim_even", "dim_odd", "E_g_over_h_GHz",
                      "photons_per_atom", "transition_even_GHz", "transition_odd_GHz",
                      "delta_eps_over_h_GHz", "photons_per_atom_mf",
                      "delta_eps_over_h_GHz_mf"]
    assert [r[0] for r in rows] == ["1", "1", "2", "2"]
    # sector sizes grow with the atom number
    assert int(rows[2][2]) > int(rows[0][2])
    by_key = {(r[0], float(r[1])): r for r in rows}
    for n in ("1", "2"):
        assert float(by_key[(n, 0.52)][5]) > float(by_key[(n, 0.3)][5])
    # thermodynamic-limit columns: normal at 0.3 nH, condensed at 0.52 nH
    assert float(by_key[("1", 0.3)][9]) == 0.0
    assert float(by_key[("1", 0.52)][9]) > 0.0
    # the reference columns repeat identically for every N
    assert by_key[("1", 0.52)][9:] == by_key[("2", 0.52)][9:]


def test_ed_compare_meanfield_needs_no_fluctuation_spectrum(tmp_path, monkeypatch):
    """The mean-field columns are the solution and its zero-point shift; no polariton pair is read."""
    argv = ["ed", "--n-atoms", "1,2", "--lr0", "0.3,0.52", "--per-mode-cutoff", "6",
            "--total-cutoff", "12", "--k", "4", "--compare-meanfield", "--out"]
    assert main(argv + [str(tmp_path / "plain.csv")]) == 0

    def unstable(*args):
        raise ConvergenceError("fluctuation mode unstable")

    monkeypatch.setattr(fluct, "fluctuation_spectrum", unstable)
    assert main(argv + [str(tmp_path / "patched.csv")]) == 0
    assert (tmp_path / "patched.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_ed_dump_matrix(tmp_path, capsys):
    target = tmp_path / "sector"
    rc = main(["ed", "--lr0", "0.45", "--per-mode-cutoff", "4", "--total-cutoff", "8",
               "--k", "2", "--dump-matrix", str(target)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "written to" in captured.err
    H = mmread(str(target) + ".mtx")
    assert H.shape[0] == H.shape[1] > 0
    # the written matrix is the even sector of the first row
    rows, cols, *_ = mminfo(str(target) + ".mtx")
    assert rows == cols == int(next(csv.DictReader(io.StringIO(captured.out)))["dim_even"])


def test_ed_dump_matrix_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "h"
    rc = main(["ed", "--n-atoms", "2", "--lr0", "0.3", "--per-mode-cutoff", "4", "--total-cutoff", "6",
               "--dump-matrix", str(target)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "written to" not in captured.err
    assert not target.parent.exists()


def test_ed_rejects_bad_atom_list():
    assert main(["ed", "--n-atoms", "1,x", "--lr0", "0.45"]) == 2
    assert main(["ed", "--n-atoms", ",", "--lr0", "0.45"]) == 2


def test_ed_atom_count_from_config_file(tmp_path, capsys):
    """--n-atoms overrides the config file's N, which overrides the default of 1."""
    cfg = tmp_path / "two.cfg"
    cfg.write_text("N = 2\n")
    small = ["--lr0", "0.45", "--per-mode-cutoff", "4", "--total-cutoff", "8"]
    for extra, n in (
        ([], "1"),
        (["--config", str(cfg)], "2"),
        (["--config", str(cfg), "--n-atoms", "1"], "1"),
    ):
        capsys.readouterr()
        assert main(["ed"] + small + extra) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [r[0] for r in rows] == [n]


def test_ed_cutoff_misorder_exits_2():
    assert main(["ed", "--per-mode-cutoff", "16", "--total-cutoff", "8",
                 "--lr0", "0.45"]) == 2


def test_ed_negative_seed_exits_2():
    # 4/8 sectors take the dense solve, which never reads the seed
    for per_mode, total in (("4", "8"), ("8", "16")):
        assert main(["ed", "--lr0", "0.45", "--seed", "-1", "--per-mode-cutoff", per_mode,
                     "--total-cutoff", total]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--k", "0"], "--k must be an integer >= 1, got 0"),
        (["--max-dim", "0"], "--max-dim must be an integer >= 1, got 0"),
        (["--per-mode-cutoff", "3", "--total-cutoff", "2"], "--per-mode-cutoff 3 exceeds --total-cutoff 2"),
        (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["--n-atoms", "0"], "--n-atoms must be an integer >= 1, got 0"),
        (["--n-atoms", "2,-1"], "--n-atoms must be an integer >= 1, got -1"),
    ],
)
def test_ed_errors_name_the_flags(argv, message, capsys):
    assert main(["ed", "--lr0", "0.45", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ed_sector_size_error_names_the_flag(fmt, capsys):
    """build_basis refuses the sector before the first row, so nothing reaches stdout."""
    assert main(["ed", "--lr0", "0.3", "--max-dim", "10", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: sector dimension 313 exceeds --max-dim = 10; "
                            "raise the limit explicitly if this size is intended\n")
    assert captured.out == ""


def _ed_solves(monkeypatch, on_even):
    """Patch ed.solve_sector to call on_even(count) before every even-sector solve."""
    from srptsim import ed

    real_solve, count = ed.solve_sector, []

    def solve(model, params, k=None, v0=None):
        if model.basis.parity == 0:
            count.append(1)
            on_even(len(count))
        return real_solve(model, params, k=k, v0=v0)

    monkeypatch.setattr(ed, "solve_sector", solve)


ED_TWO_POINTS = ["ed", "--lr0", "0.3,0.52", "--per-mode-cutoff", "6", "--total-cutoff", "12"]


def test_ed_rows_stream_before_the_next_point(monkeypatch):
    """The header and the first row are written before the second L_R0 is solved."""
    out, seen = io.StringIO(), {}
    monkeypatch.setattr(sys, "stdout", out)
    _ed_solves(monkeypatch, lambda n: seen.setdefault(n, out.getvalue()))
    assert main(ED_TWO_POINTS) == 0
    header, first, _ = out.getvalue().splitlines()
    assert seen == {1: "", 2: f"{header}\n{first}\n"}
    assert header.startswith("N,L_R0_nH,") and first.startswith("1,0.3,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ed_failure_at_the_second_point_keeps_written_rows(fmt, monkeypatch, capsys):
    """A later point's failure exits 1; CSV keeps the rows already written, JSON writes nothing."""

    def fail_second(n):
        if n == 2:
            raise ConvergenceError("forced at the second point")

    _ed_solves(monkeypatch, fail_second)
    assert main(ED_TWO_POINTS + ["--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: forced at the second point\n"
    if fmt == "json":
        assert captured.out == ""
    else:
        header, *rows = captured.out.splitlines()
        assert header.startswith("N,L_R0_nH,")
        assert len(rows) == 1 and rows[0].startswith("1,0.3,")


def test_ed_resolves_the_circuit_once(tmp_path, monkeypatch, capsys):
    """The config file is read once, whatever the number of atom counts and columns."""
    from srptsim import cli

    cfg = tmp_path / "two.cfg"
    cfg.write_text("N = 2\n")
    calls = []
    resolve = cli.resolve_params
    monkeypatch.setattr(cli, "resolve_params", lambda args: calls.append(args) or resolve(args))
    argv = ["ed", "--config", str(cfg), "--compare-meanfield", "--lr0", "0.45",
            "--per-mode-cutoff", "4", "--total-cutoff", "8"]
    for extra in ([], ["--n-atoms", "1,2"]):
        calls.clear()
        assert main(argv + extra) == 0
        assert len(calls) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[0] for r in rows] == ["N", "2", "N", "1", "2"]


def test_ed_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["ed", "--lr0", "0.3,0.52", "--per-mode-cutoff", "6",
            "--total-cutoff", "12", "--k", "4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- output plumbing ---------------------------------------------------------------


def test_json_format(capsys):
    assert main(["linear", "--lr0", "0.29,0.32", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 2
    assert payload[0]["unstable"] is False
    assert payload[1]["unstable"] is True
    assert set(payload[0]) == {"L_R0_nH", "omega_c_GHz", "omega_a_GHz", "g_GHz",
                               "omega_plus_GHz", "omega_minus_squared_GHz2", "unstable"}


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["linear", "--lr0", "0.45", "--out", str(target)]) == 2


def test_broken_pipe_is_quiet():
    # Enough rows to overrun the pipe buffer after head has exited.
    cmd = (
        f"{sys.executable} -m srptsim.cli classical --phi-steps 4001 "
        "--lr0-steps 5 | head -n 2"
    )
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("L_R0_nH,")


# --- validate ----------------------------------------------------------------------


def test_validate_all_checks_pass(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    n = len(lines) - 1
    assert lines[-1].startswith(f"{n}/{n}")
    assert all(line.startswith("ok  ") for line in lines[:-1])


def test_validate_reports_a_failing_check_and_exits_1(capsys, monkeypatch):
    from srptsim import validate

    def failing(rng):
        validate._require(False, "forced failure")

    monkeypatch.setitem(validate.CHECKS, "stationarity", failing)
    assert len(validate.CHECKS) == 16
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert "FAIL stationarity: RuntimeError: forced failure" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == "15/16 checks passed"
    assert validate.run_checks(["vieta", "stationarity"])[1] == validate.CheckResult(
        name="stationarity", passed=False, detail="RuntimeError: forced failure"
    )


def test_validate_free_energy_convergence_passes_and_fails(capsys, monkeypatch):
    from srptsim import validate

    (result,) = validate.run_checks(["free-energy-convergence"])
    assert result.passed
    assert result.detail.startswith("final increment")
    # a free energy of M itself: increments 10, 20, 20 over M = 10, 20, 40, 60 do not shrink
    monkeypatch.setattr(fock.Branch, "free_energy", lambda self, phi, kT: float(self.levels.size))
    (result,) = validate.run_checks(["free-energy-convergence"])
    assert not result.passed
    assert "not convergent" in result.detail
    assert main(["validate", "--only", "free-energy-convergence"]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == "0/1 checks passed"


def test_validate_truncation_study_passes_and_fails(capsys, monkeypatch):
    from srptsim import ed, validate

    (result,) = validate.run_checks(["truncation-study"])
    assert result.passed
    assert result.detail.startswith("branch transitions agree within")
    # a quartic branch 5 % too stiff: every transition is off by 5 % from the cosine
    real_terms = ed._branch_terms

    def stiff_quartic(params, R, quartic):
        atom, x = real_terms(params, R, quartic)
        return (1.05 * atom if quartic else atom), x

    monkeypatch.setattr(ed, "_branch_terms", stiff_quartic)
    (result,) = validate.run_checks(["truncation-study"])
    assert not result.passed
    assert "quartic branch spectrum off by" in result.detail
    assert main(["validate", "--only", "truncation-study"]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == "0/1 checks passed"


def test_validate_only_selection(capsys):
    assert main(["validate", "--only", "vieta,gaussian-cosine"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("ok") and " vieta:" in lines[0]
    assert lines[1].startswith("ok") and " gaussian-cosine:" in lines[1]
    assert lines[2] == "2/2 checks passed"


def test_validate_unknown_check_exits_2(capsys):
    assert main(["validate", "--only", "bogus"]) == 2
    assert "unknown checks" in capsys.readouterr().err


@pytest.mark.parametrize("only", [",", " , ", ""])
def test_validate_empty_only_list_exits_2(capsys, only):
    assert main(["validate", "--only", only]) == 2
    captured = capsys.readouterr()
    assert f"--only: empty check list {only!r}" in captured.err
    assert "checks passed" not in captured.out


def test_validate_negative_seed_exits_2(capsys):
    assert main(["validate", "--only", "vieta", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed must be a nonnegative integer, got -1" in captured.err
    assert captured.out == ""
