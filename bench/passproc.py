"""One timed pass of a workload in a fresh process.

    python bench/passproc.py WORKLOAD LAUNCH SPANS_FILE < request.json
    python bench/passproc.py cli LAUNCH SPANS_FILE -- SRPTSIM_ARGS...

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process; SPANS_FILE is ``-`` for an untraced pass. In workload mode the
request on stdin holds the inputs, and the last stdout line is a JSON
record with the time stamps, the CPU time of the timed region and the
outputs. In cli mode the process runs the srptsim command line with tracing
on and writes its spans, with an import span that starts at LAUNCH.

Import time is stamped before the tracer is installed, so tracing never
slows set-up.
"""

import json
import resource
import sys
import time


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_workload(workload, launch, spans_file):
    request = json.load(sys.stdin)
    import srptsim  # noqa: F401  (set-up: what every user script pays)

    t_import = time.monotonic()
    import tracing
    import workloads

    tracer = None
    if spans_file != "-":
        tracer = tracing.Tracer(f"{workload}:{request['seed']}:{request['pass']}")
        tracing.install(tracer)
    first = []

    def first_row():
        if not first:
            first.append(time.monotonic())

    body = workloads.BODIES[workload]
    cpu0 = _cpu()
    t0 = time.monotonic()
    root = tracer.open("bench.workload", t0) if tracer else None
    outputs = body(request["inputs"], first_row)
    if root is not None:
        tracer.close(root)
    t1 = time.monotonic()
    cpu1 = _cpu()
    if tracer is not None:
        tracer.dump(spans_file, wall=[t0, t1])
    record = {"t_launch": launch, "t_import": t_import, "t0": t0, "t1": t1,
              "t_first": first[0] if first else t1, "cpu_s": cpu1 - cpu0, "outputs": outputs}
    sys.stdout.write(json.dumps(record) + "\n")


def run_cli(launch, spans_file, argv):
    import srptsim.cli

    t_import = time.monotonic()
    import tracing

    tracer = tracing.Tracer(f"cli:{argv[0] if argv else ''}")
    tracer.record("cli.import", launch, t_import)
    tracing.install(tracer)
    try:
        rc = srptsim.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.dump(spans_file, import_s=t_import - launch)
    return rc


def main():
    mode, launch, spans_file = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    if mode == "cli":
        return run_cli(launch, spans_file, sys.argv[5:])
    run_workload(mode, launch, spans_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
