"""One workload in one fresh process; started by run.py, not by hand.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]
    worker.py --record        # rewrite reference.json from the current code

Prints one JSON line.  "ready" is the perf_counter reading once the package
is imported and the config and reference are built; run.py measures set-up
from its own reading just before it started this process.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE.parent / ".perfbench"


def import_package():
    """Import carlesonlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import carlesonlab
    if Path(carlesonlab.__file__).resolve().parent != SRC / "carlesonlab":
        raise SystemExit(f"carlesonlab imported from {carlesonlab.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads


def run_passes(wl, seconds, tracer):
    """Timed passes until the next one would overrun ``seconds``.

    With a tracer, passes alternate untraced / traced, so the traced run
    also measures its own overhead.
    """
    walls, traced, untraced, problems = [], [], [], []
    attempted = failed = 0
    min_passes = 1 if tracer is None else 2  # one untraced, one traced
    begin = time.perf_counter()
    k = 0
    while True:
        trace_this = tracer is not None and k % 2 == 1
        if trace_this:
            tracer.install()
            mark = tracer.mark()
        t0 = time.perf_counter()
        try:
            out = wl.run_pass(k)
        except Exception:  # a failed pass fails all of its operations
            problems.append(traceback.format_exc(limit=3))
            out = None
        wall = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        a, f = wl.check(k, out, problems)
        attempted += a
        failed += f
        if not trace_this:
            untraced.append(wall)
        elif out is not None:
            traced.append(tracer.pass_metrics(mark, wall,
                                              wl.skipped_frac(out)))
        walls.append(wall)
        k += 1
        elapsed = time.perf_counter() - begin
        if k >= min_passes and elapsed + statistics.median(walls) > seconds:
            break
    return walls, traced, untraced, attempted, failed, problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    workloads = import_package()

    if args.record:
        doc = {name: workloads.make(name, 0, None).record()
               for name in workloads.WORKLOADS}
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return

    if args.seed < 0:
        raise SystemExit("--seed must be nonnegative")
    reference = json.loads(REFERENCE.read_text())
    wl = workloads.make(args.workload, args.seed, reference)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    walls, traced, untraced, attempted, failed, problems = run_passes(
        wl, args.seconds, tracer)
    for line in problems:
        print(line, file=sys.stderr)

    import numpy
    result = {
        "ready": ready, "attempted": attempted,
        "failed": failed, "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if tracer is not None:
        if not traced:
            raise SystemExit("no traced pass completed")
        result["per_layer"] = {
            name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
            for name, value in tracing.summarize(traced, untraced).items()}
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracing.spans_json(tracer)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
