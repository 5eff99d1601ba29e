"""srptsim benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file. A run

1. draws the workload's inputs from the seed (bench/workloads.py),
2. runs timed passes, each in a fresh process with cold caches, as many as
   are expected to fit in S seconds and at least three. With
   ``--trace 1`` the passes alternate between untraced and traced, and the
   per-layer metrics come from the traced ones,
3. checks the outputs after the timed region and counts failed points,
4. prints the environment and per-pass details, then as the last line one
   JSON object with the keys ``correct``, ``attempted``, ``failed`` and
   ``metrics``. A fuller record goes to ``bench/out/``.

End-to-end metrics are medians over the passes of the run: ``wall_s``
(timed region of a pass, after set-up), ``points_per_s``, ``setup_s``
(launch of a fresh process to ``import srptsim`` returning, stamped by each
pass process; cli_session launches five ``import srptsim.cli`` probes),
``first_row_s`` (start of the timed region to the first sweep point handed
back; for cli_session, where every call pays set-up, the sum over the
invocations of launch to the first data row read from the pipe),
``cpu_s`` (user + system time of the timed region, all threads) and
``peak_rss_mb`` (``ru_maxrss`` of the pass process). The share of failed
points is ``failed / attempted``; it is not a metric because it is zero
whenever the program is right.

End-to-end times are scaled to the speed of a reference host. The CPUs of
a small shared host slow down by up to 1.7x for seconds to minutes when
neighbours load them. A fixed calibration kernel runs just before and just
after every child process, on the CPU the child starts on, and the run's
times are multiplied by ``scale = REFERENCE_CALIBRATION_S / median of the
run's calibration times``. The raw per-pass times and the scale are in the
run record; per-layer times are raw.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
STDERR = OUT / "child-stderr.txt"

# BLAS threads of every workload process. Must not exceed nproc; one thread
# is fastest for the 60x60 dense solves and keeps runs steady on a shared host.
# Set before numpy loads, so the checks in this process use it too.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
sys.path.insert(0, str(SRC))
if not (SRC / "srptsim" / "__init__.py").is_file():
    sys.exit(f"error: no srptsim package under {SRC}; run from a full checkout")

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 3
# A run must end within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 160.0
CPUS = sorted(os.sched_getaffinity(0))
MAX_PROBED_CPUS = 4
# Calibration kernel time of the reference host (2-vCPU Xeon VM) when quiet.
REFERENCE_CALIBRATION_S = 0.030
# Calibrations before and after each child; the run's median uses them all.
CALIBRATIONS_PER_SIDE = 2
# What the ``srptsim`` console script runs.
CLI_SHIM = "import sys; from srptsim.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "setup_s": "s", "first_row_s": "s",
                    "cpu_s": "s", "peak_rss_mb": "MiB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Child:
    """One finished child: exit code, stdout lines with arrival times, rusage.

    calibrations holds the calibration kernel times taken just before the
    launch and just after the exit, on the CPU the child started on.
    """

    def __init__(self, launch, rc, lines, stamps, t_exit, rusage, calibrations):
        self.launch, self.rc, self.lines, self.stamps = launch, rc, lines, stamps
        self.t_exit, self.rusage, self.calibrations = t_exit, rusage, calibrations

    @property
    def wall(self):
        return self.t_exit - self.launch

    @property
    def cpu(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0


def calibration_s():
    """Seconds this process takes for a fixed kernel where it runs now.

    150 dense 60x60 eigvalsh calls and a pure-Python loop: the two kinds of
    work the workloads do between their sparse and import phases.
    """
    a = np.add.outer(np.arange(60.0), np.arange(60.0)) % 7.0
    t = time.perf_counter()
    for _ in range(150):
        np.linalg.eigvalsh(a)
    x = 0
    for i in range(60000):
        x += i * i
    return time.perf_counter() - t


def on_cpu(cpu, fn):
    """fn() with this process pinned to cpu (None: where it is)."""
    if cpu is None:
        return fn()
    os.sched_setaffinity(0, {cpu})
    try:
        return fn()
    finally:
        os.sched_setaffinity(0, CPUS)


def quietest_cpu():
    """The CPU on which the calibration kernel runs fastest right now, or None."""
    if not 1 < len(CPUS) <= MAX_PROBED_CPUS:
        return None
    return min((on_cpu(cpu, calibration_s), cpu) for cpu in CPUS)[1]


def run_child(make_argv, env, deadline, stdin=b""):
    """Start make_argv(launch) and read its stdout line by line until it exits.

    The child starts on the quietest CPU; its mask is widened again at once,
    so a program that uses more cores still can (the scheduler leaves a
    single busy process where it started). The calibration kernel runs on
    that CPU just before the launch and just after the exit.
    """
    cpu = quietest_cpu()
    calibrations = [on_cpu(cpu, calibration_s) for _ in range(CALIBRATIONS_PER_SIDE)]
    with open(STDERR, "ab") as err:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            launch = time.monotonic()
            proc = subprocess.Popen(make_argv(launch), stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err, env=env)
        finally:
            if cpu is not None:
                os.sched_setaffinity(0, CPUS)
        if cpu is not None:
            os.sched_setaffinity(proc.pid, CPUS)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        lines, stamps = [], []
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
            for line in proc.stdout:
                stamps.append(time.monotonic())
                lines.append(line.decode())
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, rusage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            timer.cancel()
    calibrations += [on_cpu(cpu, calibration_s) for _ in range(CALIBRATIONS_PER_SIDE)]
    return Child(launch, proc.returncode, lines, stamps, t_exit, rusage, calibrations)


def probe_setup(module, env, deadline):
    child = run_child(lambda launch: [sys.executable, "-c",
                                      f"import time, {module}; print(time.monotonic())"],
                      env, deadline)
    if child.rc != 0:
        raise RuntimeError(f"import {module} failed with exit code {child.rc}")
    return float(child.lines[-1]) - child.launch, child.calibrations


def workload_pass(workload, seed, inputs, k, traced, env, deadline):
    spans = OUT / f"spans-{workload}-seed{seed}-pass{k}.json" if traced else "-"
    request = json.dumps({"seed": seed, "pass": k, "inputs": inputs}).encode()
    child = run_child(lambda launch: [sys.executable, str(BENCH / "passproc.py"), workload,
                                      repr(launch), str(spans)], env, deadline, request)
    if child.rc != 0 or not child.lines:
        return {"ok": False, "rc": child.rc, "calibrations": child.calibrations}
    rec = json.loads(child.lines[-1])
    result = {
        "ok": True,
        "traced": traced,
        "setup_s": rec["t_import"] - child.launch,
        "wall_s": rec["t1"] - rec["t0"],
        "first_row_s": rec["t_first"] - rec["t0"],
        "cpu_s": rec["cpu_s"],
        "peak_rss_mb": child.rss_mb,
        "calibrations": child.calibrations,
        "outputs": rec["outputs"],
    }
    if traced:
        with open(spans) as fh:
            result["layers"] = tracing.summarize([json.load(fh)["spans"]])
    return result


def cli_pass(seed, inputs, k, traced, env, deadline):
    runs, span_files, imports, first_rows, calibrations = [], [], [], {}, []
    wall = cpu = first_total = 0.0
    peak = 0.0
    for i, args in enumerate(workloads.cli_invocations(inputs)):
        spans = OUT / f"spans-cli_session-seed{seed}-pass{k}-{i}.json"
        if traced:
            def make_argv(launch, args=args, spans=spans):
                return [sys.executable, str(BENCH / "passproc.py"), "cli", repr(launch),
                        str(spans), "--", *args]
        else:
            def make_argv(launch, args=args):
                return [sys.executable, "-c", CLI_SHIM, *args]
        child = run_child(make_argv, env, deadline)
        stdout = "".join(child.lines)
        runs.append({"argv": args, "rc": child.rc, "stdout": stdout})
        # The first data row is the first line for validate, after the header otherwise.
        first = 0 if args[0] == "validate" else 1
        first_row = (child.stamps[first] if len(child.stamps) > first else child.t_exit) - child.launch
        first_rows[args[0]] = first_row
        first_total += first_row
        wall += child.wall
        cpu += child.cpu
        calibrations += child.calibrations
        peak = max(peak, child.rss_mb)
        if traced and child.rc == 0:
            with open(spans) as fh:
                data = json.load(fh)
            # Interpreter teardown after main returns is part of every CLI call.
            last = max(s[4] for s in data["spans"])
            data["spans"].append([len(data["spans"]), -1, "cli.exit", last, child.t_exit, None])
            span_files.append(data["spans"])
            imports.append(data["import_s"])
    outputs = {"runs": runs}
    result = {
        "ok": True,
        "traced": traced,
        "wall_s": wall,
        "first_row_s": first_total,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "outputs": outputs,
        "first_rows": first_rows,
        "calibrations": calibrations,
    }
    if traced:
        result["layers"] = tracing.summarize(span_files)
        result["import_s"] = statistics.median(imports) if imports else 0.0
    return result


def one_pass(workload, seed, inputs, k, traced, env, deadline):
    if workload == "cli_session":
        return cli_pass(seed, inputs, k, traced, env, deadline)
    return workload_pass(workload, seed, inputs, k, traced, env, deadline)


def environment():
    """Machine, library versions, thread settings and source identity."""
    import hashlib
    import platform
    from importlib import metadata

    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": openblas,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "cpus": CPUS,
        "placement": "quietest CPU at launch" if 1 < len(CPUS) <= MAX_PROBED_CPUS else "none",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(passes, points, setups, scale):
    values = {
        "wall_s": scale * _median(passes, "wall_s"),
        "points_per_s": statistics.median(points / p["wall_s"] for p in passes) / scale,
        "setup_s": scale * statistics.median(setups),
        "first_row_s": scale * _median(passes, "first_row_s"),
        "cpu_s": scale * _median(passes, "cpu_s"),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(workload, inputs, passes, traced, units):
    """Medians over the traced passes; work counts are taken from the first.

    Times here are as measured, not scaled: they are compared with each
    other within the run.
    """
    names = list(traced[0]["layers"])
    values = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
    values.update({n: traced[0]["layers"][n] for n in tracing.COUNT_METRICS})
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced = [p for p in passes if not p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.coverage"] = statistics.median(
        sum(p["layers"][f"{layer}.self_s"] for layer in tracing.LAYERS) / p["wall_s"]
        for p in traced
    )
    cli_traced = [p for p in traced if "import_s" in p]
    values["cli.import_s"] = statistics.median(p["import_s"] for p in cli_traced) if cli_traced else 0.0
    for sub in tracing.CLI_SUBCOMMANDS:
        firsts = [p["first_rows"][sub] for p in untraced if sub in p.get("first_rows", {})]
        values[f"cli.{sub}.first_row_s"] = statistics.median(firsts) if firsts else 0.0
    ref = next(p for p in passes if p["ok"])
    values["cli.rows"] = (workloads.n_points(workload, inputs, ref["outputs"])
                          if workload == "cli_session" else 0)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return {n: {"value": values[n], "unit": units[n]} for n in units}


def measure(workload, seed, seconds, trace, size):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = workloads.make_inputs(workload, seed, size)
    env = child_env()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    # Pass processes stamp their own import; CLI calls cannot, so that
    # workload launches separate import probes.
    setups, calibrations = [], []
    if not trace and workload == "cli_session":
        for _ in range(SETUP_PROBES):
            setup, cal = probe_setup("srptsim.cli", env, deadline)
            setups.append(setup)
            calibrations += cal
    passes, lengths = [], []
    t_measure = time.monotonic()
    # Start a pass only if it is expected to end within the measuring time.
    while (len(passes) < MIN_PASSES
           or time.monotonic() - t_measure + statistics.median(lengths) <= seconds):
        traced = bool(trace) and len(passes) % 2 == 1
        t_pass = time.monotonic()
        passes.append(one_pass(workload, seed, inputs, len(passes), traced, env, deadline))
        lengths.append(time.monotonic() - t_pass)
        if time.monotonic() > deadline:
            break

    msgs, counts_differ = [], False
    calibrations += [c for p in passes for c in p["calibrations"]]
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
    good = [p for p in passes if p["ok"]]
    if not good:
        raise RuntimeError(f"every pass failed: exit codes {[p.get('rc') for p in passes]}")
    ref = good[0]["outputs"]
    points = workloads.n_points(workload, inputs, ref)
    try:
        failed_ref, check_msgs = workloads.CHECKS[workload](inputs, ref)
        msgs += check_msgs
    except Exception as exc:  # a check that cannot run fails every point
        failed_ref = set(range(points))
        msgs.append(f"check raised {type(exc).__name__}: {exc}")
    failed = 0
    for k, p in enumerate(passes):
        if not p["ok"]:
            failed += points
            msgs.append(f"pass {k} exited with {p['rc']}")
        elif p["outputs"] != ref:
            failed += points
            msgs.append(f"pass {k} output differs from pass 0")
        else:
            failed += len(failed_ref)

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [p for p in good if p["traced"]]
        metrics = per_layer(workload, inputs, good, traced, units)
        # Work counts must repeat exactly between traced passes.
        for name in tracing.COUNT_METRICS:
            seen = {p["layers"][name] for p in traced}
            if len(seen) > 1:
                counts_differ = True
                msgs.append(f"count {name} differs between traced passes: {sorted(seen)}")
    else:
        setups += [p["setup_s"] for p in good if "setup_s" in p]
        metrics = end_to_end(good, points, setups, scale)
        names = {m["name"] for m in spec["end_to_end"]}
        if set(metrics) != names:
            raise RuntimeError(f"end-to-end metrics {sorted(metrics)} differ from {sorted(names)}")
    result = {"correct": failed == 0 and not counts_differ, "attempted": points * len(passes),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "environment": environment(), "inputs": inputs, "points_per_pass": points,
        "scale": scale,
        "passes": [{k: v for k, v in p.items() if k not in ("outputs", "layers")} for p in passes],
        "messages": msgs, "result": result,
    }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    STDERR.write_bytes(b"")
    record = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(record["environment"]))
    for k, p in enumerate(record["passes"]):
        print(f"# pass {k} " + json.dumps(p))
    for msg in record["messages"]:
        print(f"# check: {msg}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
