"""Seeded workloads of the srptsim benchmark: inputs, timed bodies and checks.

Each workload has three parts:

- ``make_inputs(seed, size)`` draws the inputs. The seed jitters L_J, L_g and
  C_J by up to 3 % around the reference circuit (0.75 nH, 0.45 nH, 24 fF) and
  places the sweep points, one point per equal cell of a range with a random
  offset inside its cell. Ranges are given in units of the classical
  bifurcation inductance s = L_J - L_g, so the zero-temperature onset
  (about 1.13 s) and the ED gap dips stay inside every sweep for any seed.
- a body, run inside a fresh pass process. It drives the package only
  through public calls and returns plain JSON data.
- a check, run after the timed region in the benchmark process. It
  recomputes what it checks by an independent path and returns the indices
  of the points that failed.

Inputs are stored in display units (nH, fF, GHz) and converted to SI with
the same arithmetic the CLI uses, so the in-process and CLI paths see
bit-identical floats.
"""

import math
import random

import numpy as np
from srptsim import CircuitParams, ed, fluct, fock, meanfield, validate
from srptsim.circuit import derive_linear
from srptsim.constants import PHI0, h, hbar

# Sizes of the sweeps. "full" is what the benchmark measures; "tiny" is only
# for the self-test of the harness.
SIZES = {
    "full": {
        "mf_grid": {"n_L": 8, "n_kT": 5, "n_brute": 3},
        "zt_cusp": {"n_coarse": 12, "n_fine": 20},
        "ed_dip": {"n_points": {1: 16, 2: 4, 3: 3}},
        "cli_session": {"ed_L": 2, "mf_L": 3, "mf_kT": 2, "fluct_L": 8, "validate_only": None},
    },
    "tiny": {
        "mf_grid": {"n_L": 3, "n_kT": 2, "n_brute": 1},
        "zt_cusp": {"n_coarse": 12, "n_fine": 12},
        "ed_dip": {"n_points": {1: 3, 2: 2, 3: 2}},
        "cli_session": {"ed_L": 1, "mf_L": 2, "mf_kT": 1, "fluct_L": 3,
                        "validate_only": "vieta,gaussian-cosine"},
    },
}

JITTER = 0.03
CELL_JITTER = 0.3
GHZ = 1e9

# ED truncations per atom count: (per-mode cutoff, total cutoff). N = 1 keeps
# total >= 2 * per-mode, so its sectors are the full product space and can be
# rebuilt densely for the check.
ED_CUTOFFS = {1: (24, 48), 2: (24, 48), 3: (16, 32)}
# Sweep ranges in units of s, each bracketing that N's even-gap dip.
ED_RANGES = {1: (1.30, 2.20), 2: (1.25, 1.80), 3: (1.33, 1.53)}

# Stationarity residual limit in units of Phi0 / L_J (criterion 9).
STATIONARITY_TOL = 1e-8
# Relative agreement of sparse ED energies with the dense rebuild.
ED_DENSE_RTOL = 1e-10
# Relative agreement of CLI rows with the in-process API.
CLI_RTOL = 1e-9
# Amplitude may rise with kT by at most this much (criterion 4).
COOLING_TOL = 1e-12
# Samples of the dense free-energy scan at each brute-forced grid point.
BRUTE_POINTS = 600


def _round(x):
    return round(x, 6)


def _circuit(rng):
    return {
        "L_J_nH": _round(0.75 * (1.0 + JITTER * rng.uniform(-1.0, 1.0))),
        "L_g_nH": _round(0.45 * (1.0 + JITTER * rng.uniform(-1.0, 1.0))),
        "C_J_fF": _round(24.0 * (1.0 + JITTER * rng.uniform(-1.0, 1.0))),
        "C_R0_fF": 2.0,
        "L_R0_nH": 0.45,
    }


def _stratified(rng, lo, hi, n):
    """n increasing points, one per equal cell of [lo, hi]."""
    w = (hi - lo) / n
    return [_round(lo + (k + 0.5 + CELL_JITTER * rng.uniform(-1.0, 1.0)) * w) for k in range(n)]


def make_inputs(workload, seed, size="full"):
    """All inputs of one workload run, as plain JSON data."""
    rng = random.Random(f"{workload}:{seed}")
    cfg = SIZES[size][workload]
    circuit = _circuit(rng)
    s = circuit["L_J_nH"] - circuit["L_g_nH"]
    inputs = {"circuit": circuit}
    if workload == "mf_grid":
        inputs["L_R0_nH"] = _stratified(rng, 1.0 * s, 3.33 * s, cfg["n_L"])
        inputs["kT_GHz"] = [0.0] + _stratified(rng, 0.0, 200.0, cfg["n_kT"] - 1)
        inputs["brute_pick"] = [rng.random() for _ in range(cfg["n_brute"])]
    elif workload == "zt_cusp":
        inputs["coarse_L_R0_nH"] = _stratified(rng, 0.5 * s, 3.0 * s, cfg["n_coarse"])
        inputs["n_fine"] = cfg["n_fine"]
        # 2 pH at the reference circuit, the step of criterion 6.
        inputs["fine_step_nH"] = _round(s / 150.0)
    elif workload == "ed_dip":
        inputs["scans"] = [
            {
                "N": n,
                "per_mode_cutoff": ED_CUTOFFS[n][0],
                "total_cutoff": ED_CUTOFFS[n][1],
                "L_R0_nH": _stratified(rng, ED_RANGES[n][0] * s, ED_RANGES[n][1] * s, k),
            }
            for n, k in cfg["n_points"].items()
        ]
    elif workload == "cli_session":
        inputs["ed_L_R0_nH"] = _stratified(rng, 1.3 * s, 1.9 * s, cfg["ed_L"])
        inputs["mf_L_R0_nH"] = _stratified(rng, 1.0 * s, 3.0 * s, cfg["mf_L"])
        inputs["mf_kT_GHz"] = [0.0] + _stratified(rng, 0.0, 150.0, cfg["mf_kT"])
        inputs["fluct_L_R0_nH"] = _stratified(rng, 0.5 * s, 3.0 * s, cfg["fluct_L"])
        inputs["validate_seed"] = rng.randrange(2**31)
        inputs["validate_only"] = cfg["validate_only"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def n_points(workload, inputs, outputs=None):
    """Sweep points one pass attempts.

    cli_session counts data rows; its validate rows are known only from the
    output, so before a pass has run they are counted as one.
    """
    if workload == "mf_grid":
        return len(inputs["L_R0_nH"]) * len(inputs["kT_GHz"])
    if workload == "zt_cusp":
        return len(inputs["coarse_L_R0_nH"]) + inputs["n_fine"]
    if workload == "ed_dip":
        return sum(len(scan["L_R0_nH"]) for scan in inputs["scans"])
    if workload == "cli_session":
        n_validate = 1
        if outputs is not None:
            n_validate = max(1, len(_validate_rows(outputs["runs"][3]["stdout"])))
        return (2 * len(inputs["ed_L_R0_nH"]) + len(inputs["mf_L_R0_nH"])
                + len(inputs["fluct_L_R0_nH"]) + n_validate)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- SI inputs


def circuit_params(inputs, N=None):
    c = inputs["circuit"]
    return CircuitParams(
        L_J=c["L_J_nH"] * 1e-9,
        L_g=c["L_g_nH"] * 1e-9,
        C_J=c["C_J_fF"] * 1e-15,
        C_R0=c["C_R0_fF"] * 1e-15,
        L_R0=c["L_R0_nH"] * 1e-9,
        N=N,
    )


def _henry(values_nH):
    return np.array([v * 1e-9 for v in values_nH])


def _joule(values_GHz):
    scale = h * GHZ
    return np.array([v * scale for v in values_GHz])


def _floats(a):
    return [float(x) for x in a]


# ---------------------------------------------------------------- bodies


def body_mf_grid(inputs, first_row):
    grid = meanfield.phase_boundary(
        circuit_params(inputs), _henry(inputs["L_R0_nH"]), _joule(inputs["kT_GHz"])
    )
    first_row()
    return {
        "amplitude": [_floats(r) for r in grid.amplitude],
        "phi": [_floats(r) for r in grid.phi],
        "converged": [[bool(x) for x in r] for r in grid.converged],
        "boundary": _floats(grid.boundary),
    }


def _fluct_fields(scan):
    return {
        "L_R0": _floats(scan.L_R0_values),
        "omega_minus": _floats(scan.omega_minus),
        "omega_plus": _floats(scan.omega_plus),
        "delta_eps": _floats(scan.delta_eps),
        "phi_th": _floats(scan.phi_th),
        "superradiant": [bool(x) for x in scan.superradiant],
    }


def fine_sweep(coarse, n_fine, step):
    """Fine L_R0 points (henry) centred on the onset estimated from the coarse sweep.

    Near a continuous onset phi_th^2 grows linearly in L_R0, so the line
    through phi_th^2 at the first two superradiant coarse points meets zero
    close to the onset (within a few pH at the reference circuit).
    """
    sr = coarse["superradiant"]
    i0 = sr.index(True)
    if i0 == 0 or i0 + 1 >= len(sr):
        raise RuntimeError("the coarse sweep does not bracket the onset")
    L1, L2 = coarse["L_R0"][i0], coarse["L_R0"][i0 + 1]
    p1, p2 = coarse["phi_th"][i0] ** 2, coarse["phi_th"][i0 + 1] ** 2
    onset = L1 - p1 * (L2 - L1) / (p2 - p1)
    return [onset + (k - (n_fine - 1) / 2.0) * step for k in range(n_fine)]


def body_zt_cusp(inputs, first_row):
    params = circuit_params(inputs)
    coarse = fluct.spectrum_scan(params, _henry(inputs["coarse_L_R0_nH"]))
    first_row()
    fine_L = fine_sweep(_fluct_fields(coarse), inputs["n_fine"], inputs["fine_step_nH"] * 1e-9)
    fine = fluct.spectrum_scan(params, np.array(fine_L))
    stationarity = []
    for scan in (coarse, fine):
        for L, ordered in zip(scan.L_R0_values, scan.superradiant):
            if not ordered:
                continue
            p = params.replace(L_R0=float(L))
            sol = meanfield.solve(p, 0.0)
            photon, junction = fluct.stationarity_check(p, sol)
            stationarity.append({
                "L_R0": float(L),
                "converged": bool(sol.converged),
                "residual": max(abs(float(photon)), abs(float(junction))),
            })
    return {"coarse": _fluct_fields(coarse), "fine": _fluct_fields(fine),
            "stationarity": stationarity}


def body_ed_dip(inputs, first_row):
    scans = []
    for spec in inputs["scans"]:
        n = spec["N"]
        config = ed.EdConfig(
            n_atoms=n, per_mode_cutoff=spec["per_mode_cutoff"], total_cutoff=spec["total_cutoff"]
        )
        scan = ed.scan(circuit_params(inputs, N=n), config, _henry(spec["L_R0_nH"]))
        first_row()
        scans.append({
            "N": n,
            "dim_even": int(scan.dim_even),
            "dim_odd": int(scan.dim_odd),
            "E_g": _floats(scan.E_g),
            "photon_number_per_atom": _floats(scan.photon_number_per_atom),
            "transition_even": _floats(scan.transition_even),
            "transition_odd": _floats(scan.transition_odd),
            "delta_eps": _floats(scan.delta_eps),
        })
    return {"scans": scans}


def _nH_list(values):
    return ",".join(repr(v) for v in values)


def cli_invocations(inputs):
    """argv lists of the session, after the program name."""
    c = inputs["circuit"]
    circuit = ["--L_J", repr(c["L_J_nH"]), "--L_g", repr(c["L_g_nH"]), "--C_J", repr(c["C_J_fF"]),
               "--C_R0", repr(c["C_R0_fF"])]
    validate = ["validate", "--seed", str(inputs["validate_seed"])]
    if inputs["validate_only"]:
        validate += ["--only", inputs["validate_only"]]
    return [
        ["ed", "--n-atoms", "1,2", "--compare-meanfield", "--lr0", _nH_list(inputs["ed_L_R0_nH"]),
         "--per-mode-cutoff", "24", "--total-cutoff", "48", "--k", "6", "--seed", "0"] + circuit,
        ["meanfield", "--boundary", "--lr0", _nH_list(inputs["mf_L_R0_nH"]),
         "--kt", _nH_list(inputs["mf_kT_GHz"]), "--fock-levels", "60"] + circuit,
        ["fluct", "--lr0", _nH_list(inputs["fluct_L_R0_nH"]), "--fock-levels", "60"] + circuit,
        validate,
    ]


BODIES = {"mf_grid": body_mf_grid, "zt_cusp": body_zt_cusp, "ed_dip": body_ed_dip}


# ---------------------------------------------------------------- checks
#
# Each check returns (failed point indices, messages). Point indices follow
# the order of n_points: row-major grid points, coarse then fine sweep points,
# ED points by scan then L_R0, CLI rows by invocation.


class BranchOracle:
    """Free energy per branch and its phi derivative, in plain numpy.

    Dense eigendecomposition of the tilted branch matrix and shifted
    Boltzmann weights: independent of the solver's free-energy routine. The
    action omits the phi-independent photon zero point.
    """

    def __init__(self, params, kT):
        self.params, self.kT = params, kT
        self.ops = fock.build_operators(derive_linear(params), 60)
        self.H_atom = fock.atom_hamiltonian(self.ops, params)
        self.u = 1.0 / params.L_R0 + 1.0 / params.L_g

    def _levels(self, phi, vectors):
        H = self.H_atom - (phi / self.params.L_g) * self.ops.psi_op
        return np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)

    def _weights(self, w):
        if self.kT == 0.0:
            return (np.arange(w.size) == 0).astype(float)
        p = np.exp(-(w - w[0]) / self.kT)
        return p / p.sum()

    def action(self, phi):
        w, _ = self._levels(phi, False)
        f = w[0] if self.kT == 0.0 else w[0] - self.kT * math.log(
            float(np.sum(np.exp(-(w - w[0]) / self.kT))))
        return self.u * phi * phi / 2.0 + f

    def residual(self, phi):
        """u phi - <psi> / L_g, ampere: zero at a stationary point."""
        w, v = self._levels(phi, True)
        psi = float(self._weights(w) @ np.einsum("ij,ij->j", v, self.ops.psi_op @ v))
        return self.u * phi - psi / self.params.L_g

    def window(self, n):
        """The solver's search window, 1.5 half flux quanta along the constraint line."""
        return np.linspace(0.0, 1.5 * (PHI0 / 2.0) / (1.0 + self.params.L_g / self.params.L_R0), n)


def check_mf_grid(inputs, out):
    amp = np.array(out["amplitude"])
    phi = np.array(out["phi"])
    conv = np.array(out["converged"])
    n_T, n_L = amp.shape
    failed, msgs = set(), []
    for j, i in zip(*np.nonzero(~conv)):
        failed.add(int(j) * n_L + int(i))
        msgs.append(f"point (kT row {j}, L column {i}) did not converge")
    rises = np.diff(amp, axis=0) > COOLING_TOL
    for j, i in zip(*np.nonzero(rises)):
        failed.add(int(j + 1) * n_L + int(i))
        msgs.append(f"amplitude rises with kT in column {i} at row {j + 1}")
    ordered = [(j, i) for j in range(n_T) for i in range(n_L) if phi[j, i] > 0.0]
    if not ordered:
        msgs.append("no ordered point to brute-force")
        failed.update(range(n_T * n_L))
    params = circuit_params(inputs)
    kTs = _joule(inputs["kT_GHz"])
    for u in inputs["brute_pick"] if ordered else []:
        j, i = ordered[int(u * len(ordered))]
        p = params.replace(L_R0=inputs["L_R0_nH"][i] * 1e-9)
        oracle = BranchOracle(p, float(kTs[j]))
        phis = oracle.window(BRUTE_POINTS)
        values = np.array([oracle.action(x) for x in phis])
        k = int(np.argmin(values))
        step = phis[1] - phis[0]
        # The solver's phi must be as low as every scanned sample, sit in the
        # scan's lowest cell and be stationary (criterion 9 units).
        low = oracle.action(phi[j, i]) <= values[k] + 1e-12 * p.E_J
        near = abs(phi[j, i] - phis[k]) <= 1.5 * step
        resid = abs(oracle.residual(phi[j, i])) / (PHI0 / p.L_J)
        if not (low and near and resid < STATIONARITY_TOL):
            failed.add(j * n_L + i)
            msgs.append(
                f"point (row {j}, column {i}): solver phi {phi[j, i]:.6e} Wb, dense scan "
                f"minimum at {phis[k]:.6e} Wb (step {step:.2e}), lower={low}, "
                f"residual {resid:.2e} Phi0/L_J"
            )
    return failed, msgs


def _convex_runs(values):
    pos = np.diff(np.asarray(values, dtype=float), n=2) > 0.0
    return int(np.count_nonzero(pos[1:] & ~pos[:-1]) + (1 if pos.size and pos[0] else 0))


def check_zt_cusp(inputs, out):
    coarse, fine = out["coarse"], out["fine"]
    n_c = len(coarse["L_R0"])
    failed, msgs = set(), []
    for offset, scan in ((0, coarse), (n_c, fine)):
        for k, w in enumerate(scan["omega_minus"]):
            if not w > 0.0:
                failed.add(offset + k)
                msgs.append(f"omega_minus = {w} at L_R0 = {scan['L_R0'][k]:.6e}")
    expected_fine = fine_sweep(coarse, inputs["n_fine"], inputs["fine_step_nH"] * 1e-9)
    if fine["L_R0"] != expected_fine:
        failed.update(range(n_c, n_c + len(fine["L_R0"])))
        msgs.append("fine sweep is not centred on the coarse onset cell")
    w = np.array(fine["omega_minus"])
    i_cusp = int(np.argmin(w))
    sr = fine["superradiant"]
    i_sr = sr.index(True) if True in sr else None
    window = w[max(0, i_cusp - 3): i_cusp + 4]
    if i_sr is None or abs(i_cusp - i_sr) > 1 or _convex_runs(window) != 1:
        failed.update(range(n_c, n_c + len(w)))
        msgs.append(
            f"cusp at fine index {i_cusp}, first superradiant index {i_sr}, "
            f"{_convex_runs(window)} convex runs around it"
        )
    index = {L: n_c + k for k, L in enumerate(fine["L_R0"])}
    index.update({L: k for k, L in enumerate(coarse["L_R0"])})
    ordered = [L for scan in (coarse, fine) for L, o in zip(scan["L_R0"], scan["superradiant"]) if o]
    if [st["L_R0"] for st in out["stationarity"]] != ordered:
        failed.update(range(n_c + len(w)))
        msgs.append("stationarity was not checked at exactly the ordered points")
    unit = PHI0 / circuit_params(inputs).L_J
    for st in out["stationarity"]:
        if not (st["converged"] and st["residual"] / unit < STATIONARITY_TOL):
            failed.add(index.get(st["L_R0"], 0))
            msgs.append(
                f"L_R0 = {st['L_R0']:.6e}: converged={st['converged']}, "
                f"residual {st['residual'] / unit:.2e} Phi0/L_J"
            )
    return failed, msgs


def dense_single_atom_spectrum(params, per_mode_cutoff):
    """Lowest even and odd energies of the N = 1 quartic model, built densely.

    Kronecker products of the photon ladder and the quartic branch matrix on
    per_mode_cutoff + 1 levels each, split by total excitation parity. This
    shares no assembly code with the sparse sector builder.
    """
    R = per_mode_cutoff + 1
    d = derive_linear(params)
    n = np.arange(R, dtype=float)
    ladder = np.diag(np.sqrt(n[1:]), k=1)
    x = ladder + ladder.T
    lam2 = (2.0 * math.pi / PHI0) ** 2 * hbar * d.Z_a / 2.0
    branch = np.diag(hbar * d.omega_a * (n + 0.5) + params.E_J) + (
        params.E_J * lam2**2 / 24.0
    ) * np.linalg.matrix_power(x, 4)
    eye = np.eye(R)
    H = (np.kron(np.diag(hbar * d.omega_c * (n + 0.5)), eye) + np.kron(eye, branch)
         - hbar * d.g * np.kron(x, x))
    parity = (np.add.outer(n, n).ravel() % 2).astype(int)
    even = np.linalg.eigvalsh(H[np.ix_(parity == 0, parity == 0)])
    odd = np.linalg.eigvalsh(H[np.ix_(parity == 1, parity == 1)])
    return even, odd


def check_ed_dip(inputs, out):
    failed, msgs = set(), []
    offsets, start = [], 0
    for spec in inputs["scans"]:
        offsets.append(start)
        start += len(spec["L_R0_nH"])
    dips = []
    for spec, scan, off in zip(inputs["scans"], out["scans"], offsets):
        n = spec["N"]
        for k, t in enumerate(scan["transition_odd"]):
            if not t > 0.0:
                failed.add(off + k)
                msgs.append(f"N={n}: odd sector not above the even ground state at point {k}")
        dips.append(min(scan["transition_even"]))
        if n == 1:
            params = circuit_params(inputs, N=1)
            for k, L in enumerate(spec["L_R0_nH"]):
                even, odd = dense_single_atom_spectrum(
                    params.replace(L_R0=L * 1e-9), spec["per_mode_cutoff"]
                )
                E_g = scan["E_g"][k]
                got = (E_g, E_g + scan["transition_even"][k], E_g + scan["transition_odd"][k])
                ref = (even[0], even[1], odd[0])
                worst = max(abs(a - b) for a, b in zip(got, ref)) / abs(ref[0])
                if not worst <= ED_DENSE_RTOL:
                    failed.add(off + k)
                    msgs.append(f"N=1 point {k}: sparse vs dense energies differ by {worst:.2e} rel")
    if not all(a > b for a, b in zip(dips, dips[1:])):
        failed.update(range(start))
        msgs.append(f"gap dips do not deepen with N: {dips}")
    return failed, msgs


def _validate_rows(stdout):
    return [line for line in stdout.splitlines() if line.startswith(("ok ", "FAIL"))]


def _close(a, b):
    return a == b or abs(a - b) <= CLI_RTOL * max(abs(a), abs(b)) or (a != a and b != b)


def _csv(stdout):
    lines = stdout.splitlines()
    return (lines[0].split(",") if lines else []), [line.split(",") for line in lines[1:]]


def _compare_rows(name, header, expected_header, rows, expected, offset, failed, msgs):
    if header != expected_header:
        msgs.append(f"{name}: header {header} differs from {expected_header}")
        failed.update(range(offset, offset + len(expected)))
        return
    if len(rows) != len(expected):
        msgs.append(f"{name}: {len(rows)} rows, expected {len(expected)}")
        failed.update(range(offset, offset + len(expected)))
        return
    for k, (row, ref) in enumerate(zip(rows, expected)):
        ok = len(row) == len(ref)
        for cell, value in zip(row, ref):
            if isinstance(value, str):
                ok = ok and cell == value
            else:
                try:
                    ok = ok and _close(float(cell), float(value))
                except ValueError:
                    ok = False
        if not ok:
            failed.add(offset + k)
            msgs.append(f"{name} row {k}: {row} differs from the API value {ref}")


def expected_cli_rows(inputs):
    """Rows of the first three invocations recomputed through the Python API."""
    ghz = h * GHZ
    two_pi_ghz = 2.0 * math.pi * GHZ
    params = circuit_params(inputs)
    L_ed = _henry(inputs["ed_L_R0_nH"])
    mf_ref = {}
    for L in L_ed:
        p = params.replace(L_R0=float(L))
        sol = meanfield.solve(p, 0.0)
        ren = fluct.renormalize(p, sol)
        mf_ref[float(L)] = (sol.alpha_over_sqrt_n**2, fluct.zero_point_shift(p, sol, ren) / ghz)
    ed_rows = []
    for n in (1, 2):
        config = ed.EdConfig(n_atoms=n, per_mode_cutoff=24, total_cutoff=48, n_eigenvalues=6, seed=0)
        s = ed.scan(circuit_params(inputs, N=n), config, L_ed)
        for k, L in enumerate(s.L_R0_values):
            ed_rows.append([n, L / 1e-9, s.dim_even, s.dim_odd, s.E_g[k] / ghz,
                            s.photon_number_per_atom[k], s.transition_even[k] / ghz,
                            s.transition_odd[k] / ghz, s.delta_eps[k] / ghz, *mf_ref[float(L)]])
    L_mf = _henry(inputs["mf_L_R0_nH"])
    grid = meanfield.phase_boundary(params, L_mf, _joule(inputs["mf_kT_GHz"]))
    mf_rows = [[L / 1e-9, grid.boundary[i] / ghz] for i, L in enumerate(L_mf)]
    scan = fluct.spectrum_scan(params, _henry(inputs["fluct_L_R0_nH"]))
    fl_rows = [
        [L / 1e-9, scan.omega_minus[i] / two_pi_ghz, scan.omega_plus[i] / two_pi_ghz,
         scan.omega_a_bar[i] / two_pi_ghz, scan.g_bar[i] / two_pi_ghz, scan.g_crit[i] / two_pi_ghz,
         scan.delta_eps[i] / ghz, "superradiant" if scan.superradiant[i] else "normal"]
        for i, L in enumerate(np.asarray(scan.L_R0_values))
    ]
    return ed_rows, mf_rows, fl_rows


ED_HEADER = ["N", "L_R0_nH", "dim_even", "dim_odd", "E_g_over_h_GHz", "photons_per_atom",
             "transition_even_GHz", "transition_odd_GHz", "delta_eps_over_h_GHz",
             "photons_per_atom_mf", "delta_eps_over_h_GHz_mf"]
MF_HEADER = ["L_R0_nH", "kTc_over_h_GHz"]
FLUCT_HEADER = ["L_R0_nH", "omega_bar_minus_GHz", "omega_bar_plus_GHz", "omega_bar_a_GHz",
                "g_bar_GHz", "g_crit_GHz", "delta_eps_over_h_GHz", "phase"]


def check_cli_session(inputs, out):
    failed, msgs = set(), []
    runs = out["runs"]
    ed_rows, mf_rows, fl_rows = expected_cli_rows(inputs)
    offset = 0
    for name, run, header, expected in (("ed", runs[0], ED_HEADER, ed_rows),
                                        ("meanfield", runs[1], MF_HEADER, mf_rows),
                                        ("fluct", runs[2], FLUCT_HEADER, fl_rows)):
        if run["rc"] != 0:
            msgs.append(f"{name} exited with {run['rc']}")
            failed.update(range(offset, offset + len(expected)))
        else:
            got_header, rows = _csv(run["stdout"])
            _compare_rows(name, got_header, header, rows, expected, offset, failed, msgs)
        offset += len(expected)
    only = inputs["validate_only"]
    results = validate.run_checks(names=only.split(",") if only else None,
                                  seed=inputs["validate_seed"])
    rows = _validate_rows(runs[3]["stdout"])
    expected = [("ok" if r.passed else "FAIL", r.name) for r in results]
    got = [(line[:4].strip(), line[4:].strip().split(":", 1)[0]) for line in rows]
    summary = f"{len(results)}/{len(results)} checks passed"
    if runs[3]["rc"] != 0 or got != expected or summary not in runs[3]["stdout"]:
        msgs.append(f"validate: rc {runs[3]['rc']}, rows {got}, expected all of {expected} to pass")
        failed.update(range(offset, offset + max(len(rows), 1)))
    return failed, msgs


CHECKS = {"mf_grid": check_mf_grid, "zt_cusp": check_zt_cusp, "ed_dip": check_ed_dip,
          "cli_session": check_cli_session}
WORKLOADS = tuple(CHECKS)
