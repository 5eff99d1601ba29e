"""Run the benchmark over workloads and seeds and print every metric with its unit.

    python3 bench/report.py                          # all workloads, seed 0, end to end
    python3 bench/report.py --trace                  # per-layer metrics as well
    python3 bench/report.py --seeds 0-9 --workload ed_dip
    python3 bench/report.py --write bench/results/baseline-<commit>.json

It prints each metric of each run with its unit, and the share of failed
points. With several seeds it also prints, per end-to-end metric, the
median over the seeds, the quartiles, and the quartile spread as a share of
the median next to the metric's bound from BENCHMARK.json. ``--write``
stores the results with the environment, the inputs and the per-pass
timings of every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def print_result(label, result, n_passes):
    frac = result["failed"] / result["attempted"]
    print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={frac:g} (medians of {n_passes} passes)")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")


def print_spread(workload, results, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(results[0]["metrics"])
    print(f"{workload}: {len(results)} seeds, failed {sum(r['failed'] for r in results)} of "
          f"{sum(r['attempted'] for r in results)} points")
    print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="0", help="seed list such as 0-9 or 0,3,7")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--write", metavar="FILE", help="store results, environment and inputs")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    traces = (0, 1) if args.trace else (0,)
    stored = {"run_seconds": args.seconds, "runs": []}
    for workload in args.workload or names:
        for trace in traces:
            results = []
            for seed in seeds:
                result, record = run_once(workload, seed, args.seconds, trace)
                results.append(result)
                stored["environment"] = record["environment"]
                stored["runs"].append({k: record[k] for k in
                                       ("workload", "seed", "trace", "inputs", "points_per_pass",
                                        "passes", "messages", "result")})
                print_result(f"{workload} seed {seed} trace {trace}", result, len(record["passes"]))
            if len(seeds) > 1 and trace == 0:
                print_spread(workload, results, spec)
            sys.stdout.flush()
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
