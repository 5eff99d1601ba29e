"""Span tracing for the benchmark's traced passes, and the per-layer aggregation.

A traced pass replaces every public function of the seven layers at every
module binding it is reached through (``meanfield.derive_linear`` as well as
``circuit.derive_linear``) by a wrapper that records one span: name, start,
end, parent span and, for some calls, a few attributes. Three targets are
special:

- ``fock.dense_eig`` wraps ``numpy.linalg.eigh`` and ``eigvalsh`` for every
  caller; its flops are computed from the matrix order.
- ``meanfield.logsumexp`` wraps the ``logsumexp`` name bound in meanfield.
- ``ed.eigsh`` hands ARPACK a counting ``LinearOperator``, so the span
  carries the number of Lanczos matvecs and the matrix nnz.

A target the package no longer has is skipped, so its metrics read zero.
Spans stay in memory and are written out once, when the pass ends. The
stack of open spans is per thread; a span opened in another thread has no
parent.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time

LAYERS = ("circuit", "fock", "meanfield", "fluct", "ed", "validate", "cli")
CLI_SUBCOMMANDS = ("ed", "meanfield", "fluct", "validate")

# Dense symmetric eigensolver flops (Golub & Van Loan, symmetric QR):
# 4/3 n^3 for eigenvalues only, 9 n^3 with eigenvectors.
EIG_FLOPS_VALUES = 4.0 / 3.0
EIG_FLOPS_VECTORS = 9.0


class Tracer:
    """In-memory span recorder.

    A span is [id, parent id or -1, name, start, end, attrs or None]; times
    are ``time.monotonic()`` seconds, comparable across processes.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, start=None):
        stack = self._stack()
        rec = [len(self.spans), stack[-1][0] if stack else -1, name,
               time.monotonic() if start is None else start, None, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec):
        rec[4] = time.monotonic()
        self._stack().pop()

    def record(self, name, start, end):
        """Add a finished top-level span measured elsewhere."""
        self.spans.append([len(self.spans), -1, name, start, end, None])

    def annotate(self, **attrs):
        """Attach attributes to the innermost open span."""
        rec = self._stack()[-1]
        rec[5] = {**(rec[5] or {}), **attrs}

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if annotate is not None:
                try:
                    rec[5] = {**(rec[5] or {}), **annotate(args, kwargs, result)}
                except (AttributeError, TypeError, IndexError, KeyError, ValueError) as exc:
                    rec[5] = {"annotate_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, **extra}, fh)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _solve_attrs(args, kwargs, result):
    return {"evals": int(result.n_evaluations), "converged": bool(result.converged)}


def _sector_attrs(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return {"N": int(model.config.n_atoms), "parity": int(result.parity), "dim": int(result.dim)}


def _checks_attrs(args, kwargs, result):
    return {"failed": sum(1 for r in result if not r.passed)}


ANNOTATE = {
    "meanfield.solve": _solve_attrs,
    "ed.solve_sector": _sector_attrs,
    "validate.run_checks": _checks_attrs,
}


def _eig_annotate(vectors):
    def annotate(args, kwargs, result):
        a = _arg(args, kwargs, 0, "a")
        batch = 1
        for dim in a.shape[:-2]:
            batch *= int(dim)
        n = int(a.shape[-1])
        return {"n": n, "flop": batch * (EIG_FLOPS_VECTORS if vectors else EIG_FLOPS_VALUES) * n**3}

    return annotate


def _counting_eigsh(tracer, eigsh):
    from scipy.sparse.linalg import LinearOperator

    def counted(A, *args, **kwargs):
        count = 0
        matvec = A.dot

        def mv(x):
            nonlocal count
            count += 1
            return matvec(x)

        op = LinearOperator(A.shape, matvec=mv, dtype=A.dtype)
        try:
            return eigsh(op, *args, **kwargs)
        finally:
            tracer.annotate(matvecs=count, nnz=int(getattr(A, "nnz", 0)), n=int(A.shape[0]))

    return counted


def install(tracer):
    """Wrap every traced target of the already imported srptsim package."""
    import numpy.linalg

    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"srptsim.{layer}")
        except ImportError:
            continue
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "srptsim" or name.startswith("srptsim."))]
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            span = f"{layer}.{name}"
            wrapper = tracer.wrap(span, obj, ANNOTATE.get(span))
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, attr, wrapper)
    numpy.linalg.eigh = tracer.wrap("fock.dense_eig", numpy.linalg.eigh, _eig_annotate(True))
    numpy.linalg.eigvalsh = tracer.wrap("fock.dense_eig", numpy.linalg.eigvalsh,
                                        _eig_annotate(False))
    meanfield = modules.get("meanfield")
    if meanfield is not None and hasattr(meanfield, "logsumexp"):
        meanfield.logsumexp = tracer.wrap("meanfield.logsumexp", meanfield.logsumexp)
    ed = modules.get("ed")
    if ed is not None and hasattr(ed, "eigsh"):
        ed.eigsh = tracer.wrap("ed.eigsh", _counting_eigsh(tracer, ed.eigsh))


# ---------------------------------------------------------------- aggregation


def _self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    return [s[4] - s[3] - c for s, c in zip(spans, child)]


def _tail(durations):
    """Highest order statistic with at least ten samples beyond it, and its percentile."""
    n = len(durations)
    if n < 11:
        return 0.0, 0.0
    ordered = sorted(durations)
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(span_files):
    """Per-layer times and counts of one traced pass.

    span_files holds the span lists of the pass: one per process (the CLI
    session has one per invocation). Spans of different files never nest.
    """
    calls, self_s, durations = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    evals, converged, checks_failed = 0, 0, 0
    matvecs = gflop_mv = gflop_eig = 0.0
    per_n = {}
    for spans in span_files:
        selfs = _self_times(spans)
        for s, own in zip(spans, selfs):
            name, attrs = s[2], s[5] or {}
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            durations.setdefault(name, []).append(s[4] - s[3])
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
            if name == "meanfield.solve":
                evals += attrs.get("evals", 0)
                converged += bool(attrs.get("converged", False))
            elif name == "validate.run_checks":
                checks_failed += attrs.get("failed", 0)
            elif name == "fock.dense_eig":
                gflop_eig += attrs.get("flop", 0.0) / 1e9
            elif name == "ed.eigsh":
                mv = attrs.get("matvecs", 0)
                matvecs += mv
                gflop_mv += 2.0 * mv * attrs.get("nnz", 0) / 1e9
                up = s[1]
                while up >= 0 and spans[up][2] != "ed.solve_sector":
                    up = spans[up][1]
                sector = (spans[up][5] or {}) if up >= 0 else {}
                if "N" in sector:
                    entry = per_n.setdefault(sector["N"], {"matvecs": 0, "nnz": 0})
                    entry["matvecs"] += mv
                    if sector.get("parity") == 0:
                        entry["nnz"] = max(entry["nnz"], attrs.get("nnz", 0))
            elif name == "ed.solve_sector" and "N" in attrs:
                entry = per_n.setdefault(attrs["N"], {"matvecs": 0, "nnz": 0})
                entry.setdefault("solve", []).append(s[4] - s[3])
                if attrs.get("parity") == 0:
                    entry["dim_even"] = max(entry.get("dim_even", 0), attrs.get("dim", 0))

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    n_solve = c("meanfield.solve")
    solve_ms = [d * 1e3 for d in durations.get("meanfield.solve", [])]
    tail_ms, tail_pct = _tail(solve_ms)
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "circuit.derive_linear.calls": c("circuit.derive_linear"),
        "circuit.derive_linear.self_s": t("circuit.derive_linear"),
        "fock.build_operators.calls": c("fock.build_operators"),
        "fock.thermal_expectation.calls": c("fock.thermal_expectation"),
        "fock.thermal_expectation.self_s": t("fock.thermal_expectation"),
        "fock.dense_eig.calls": c("fock.dense_eig"),
        "fock.dense_eig.self_s": t("fock.dense_eig"),
        "fock.dense_eig.gflop_computed": gflop_eig,
        "meanfield.solve.calls": n_solve,
        "meanfield.solve.self_s": t("meanfield.solve"),
        "meanfield.solve.p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
        "meanfield.solve.tail_ms": tail_ms,
        "meanfield.solve.tail_pct": tail_pct,
        "meanfield.evaluations": evals,
        "meanfield.evaluations_per_solve": evals / n_solve if n_solve else 0.0,
        "meanfield.converged_frac": converged / n_solve if n_solve else 0.0,
        "meanfield.logsumexp.calls": c("meanfield.logsumexp"),
        "meanfield.logsumexp.self_s": t("meanfield.logsumexp"),
        "meanfield.phase_boundary.self_s": t("meanfield.phase_boundary"),
        "fluct.spectrum_scan.self_s": t("fluct.spectrum_scan"),
        "fluct.renormalize.calls": c("fluct.renormalize"),
        "fluct.renormalize.self_s": t("fluct.renormalize"),
        "fluct.stationarity_check.self_s": t("fluct.stationarity_check"),
        "ed.build_sector_model.calls": c("ed.build_sector_model"),
        "ed.build_sector_model.self_s": t("ed.build_sector_model"),
        "ed.solve_sector.self_s": t("ed.solve_sector"),
        "ed.eigsh.calls": c("ed.eigsh"),
        "ed.lanczos_matvecs": matvecs,
        "ed.matvec_gflop_computed": gflop_mv,
        "ed.reference_branch_energy.self_s": t("ed.reference_branch_energy"),
        "validate.run_checks.self_s": t("validate.run_checks"),
        "validate.checks_failed": checks_failed,
        "cli.emit.self_s": t("cli.emit"),
    })
    for n in (1, 2, 3):
        entry = per_n.get(n, {})
        solves = [d * 1e3 for d in entry.get("solve", [])]
        out[f"ed.N{n}.dim_even"] = entry.get("dim_even", 0)
        out[f"ed.N{n}.nnz"] = entry.get("nnz", 0)
        out[f"ed.N{n}.solve_sector.p50_ms"] = statistics.median(solves) if solves else 0.0
        out[f"ed.N{n}.lanczos_matvecs"] = entry.get("matvecs", 0)
    return out


# Metrics that count work rather than time; they must repeat exactly.
COUNT_METRICS = (
    "circuit.derive_linear.calls", "fock.build_operators.calls", "fock.thermal_expectation.calls",
    "fock.dense_eig.calls", "fock.dense_eig.gflop_computed", "meanfield.solve.calls",
    "meanfield.evaluations", "meanfield.converged_frac", "meanfield.logsumexp.calls",
    "fluct.renormalize.calls", "ed.build_sector_model.calls", "ed.eigsh.calls",
    "ed.lanczos_matvecs", "ed.matvec_gflop_computed", "validate.checks_failed",
) + tuple(f"ed.N{n}.{k}" for n in (1, 2, 3) for k in ("dim_even", "nnz", "lanczos_matvecs"))
