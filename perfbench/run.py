"""carlesonlab benchmark: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload kps_ladder --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; nothing needs installing, the
package is imported from ``src/``.  The workload runs in a child process
limited to one thread, so ``peak_rss_mb`` is that workload's alone; a few
more children only time set-up.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The line before it records the environment: python
and numpy versions, nproc, seed, commit and a digest of ``src/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("kps_ladder", "mixed_spiral_probe", "single_shot")
SETUP_RUNS = 10         # set-up-only children; the workload child adds one
DEADLINE_S = 170.0      # the whole call must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, deadline):
    """Run worker.py; returns (parsed last stdout line, launch time)."""
    launched = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "carlesonlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "carlesonlab" / "__init__.py").is_file():
        raise SystemExit(f"no carlesonlab sources under {ROOT / 'src'}")

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_RUNS):
        doc, launched = run_child(common + ["--setup-only"], deadline)
        setups.append(doc["ready"] - launched)
    res, launched = run_child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline)
    setups.append(res["ready"] - launched)

    walls = res["walls"]
    env = {"workload": args.workload, "seed": args.seed,
           "python": res["python"], "numpy": res["numpy"],
           "nproc": res["nproc"], "commit": commit(),
           "src_sha256": src_digest(), "passes": len(walls),
           "pass_wall_s": walls, "setup_samples_s": setups}
    print("# " + json.dumps(env))

    if args.trace:
        metrics = res["per_layer"]
    else:
        attempted = res["attempted"]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "success_rate": {"value": (attempted - res["failed"]) / attempted,
                             "unit": "ratio"},
        }
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
