"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Checks BENCHMARK.json against the benchmark contract, runs every workload at
the tiny size with and without tracing, and checks that each run ends with a
well-formed result naming exactly the declared metrics with their units and
no failed point. Finally it copies only BENCHMARK.json and bench/ into an
empty directory and checks that a run there fails without printing a result.
Takes about a minute and a half; exits 1 on the first problem.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("need 2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric entry {m}")
        names.append(m["name"])
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(names) != len(set(names)):
        fail(f"bad or repeated names: {bad or names}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        fail("BENCHMARK.json is over 64 KiB")


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace, proc):
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        fail(f"{workload} trace={trace}: metrics differ by {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            fail(f"{workload}: metric {name} = {m}")
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            fail(f"{workload}: metric {name} value {m['value']!r}")
        if not trace and m["value"] <= 0:
            fail(f"{workload}: end-to-end metric {name} is not positive")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and result["failed"] == 0 and result["correct"] is True):
        notes = [ln for ln in proc.stdout.splitlines() if ln.startswith("# check")]
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed {notes}")
    print(f"ok   {workload} trace={trace}: {len(metrics)} metrics, {result['attempted']} points")


def check_bare_directory():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "mf_grid", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        fail("a run without the package did not fail cleanly")
    print(f"ok   run without src/ exits {proc.returncode} without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok   BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, run(ROOT, w["name"], trace))
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
