"""Print one sha256 per carlesonlab output and one over all of them.

Run it on two checkouts and compare the lines to show that a change leaves
every output byte-identical:

    python tools/output_digest.py                   # the checkout it sits in
    python tools/output_digest.py --root ../other   # another checkout

A change that moves last bits, such as a new summation order, leaves no
hash equal.  ``--against`` compares the outputs of two checkouts instead and
prints, per output, ``identical`` (the same bytes), ``close`` (the same text
once numbers are set aside, each number within 1e-12 relative of its
counterpart; the largest relative difference follows) or ``DIFFERENT``:

    python tools/output_digest.py --against ../parent

The outputs are the probe and sweep reports of five probe configurations,
every ``single_shot`` call of ``perfbench/workloads.py``, the criteria
checks, the weight/submult/maximal CSV exports and a set of CLI invocations
(exit code, stdout and the files written).  Files go to a temporary
directory only; nothing is written inside the checkout, bytecode included.
A whole run takes about five seconds on two cores.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

RTOL = 1e-12  # how far a number may move for its output to be "close"
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _floats(values) -> str:
    return ",".join(f"{float(x):.17g}" for x in values)


def _outcome(fn, *args):
    """repr of fn's result, or the library error it raised, as text."""
    from carlesonlab.errors import CarlesonLabError

    try:
        res = fn(*args)
    except CarlesonLabError as exc:  # a rejection is an output too
        return f"{type(exc).__name__}: {exc}"
    if dataclasses.is_dataclass(res):
        res = dataclasses.astuple(res)
    return repr(res)


def probe_outputs(cl):
    out = {}
    kps = cl.ExperimentConfig(
        curve={"kind": "graded_circle", "radius": 1.0, "grade": 3.0},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.0, levels=(2048, 8192), seed=0)
    mixed = cl.ExperimentConfig(
        curve={"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min_scale": 118.0, "r_max": math.e ** 2},
        exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
        gamma=1j, levels=(4096, 8192, 16384), seed=0)
    sweeps = (("kps", kps, (-0.8, 0.0, 0.55)),
              ("mixed", mixed, (0.1j, 0.2 + 0.1j, 1j)))
    for name, config, gammas in sweeps:
        reports = cl.run_sweep(config, gammas)
        for rep in reports:
            key = f"probe/{name}/{rep.gamma.real:+g}{rep.gamma.imag:+g}j"
            out[key + ".csv"] = cl.harness.probe_report_csv(rep)
            out[key + ".json"] = cl.harness.probe_report_json(rep)
        out[f"sweep/{name}.csv"] = cl.harness.sweep_csv(reports)
    spiral = cl.ExperimentConfig(
        curve={"kind": "log_spiral", "delta": 1.0, "r_min_scale": 16.0},
        exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
        gamma=0.2 + 0.1j, levels=(512, 2048, 8192), seed=3,
        spirality=(1.0, 1.0))
    # t0 mid-array, and a depth where the nested arcs reach their cap
    corner = cl.ExperimentConfig(
        curve={"kind": "corner", "turn": math.pi / 2, "r_min_scale": 1.0},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.3, levels=(512, 1024, 2048), seed=2)
    segment = cl.ExperimentConfig(
        curve={"kind": "segment", "r_min": 1e-48},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.2 + 0.1j, levels=(1024,), seed=4, spirality=(0.0, 0.0))
    for name, config in (("spiral", spiral), ("corner", corner),
                         ("segment", segment)):
        rep = cl.run_probe(config)
        out[f"probe/{name}.csv"] = cl.harness.probe_report_csv(rep)
        out[f"probe/{name}.json"] = cl.harness.probe_report_json(rep)
    return out


def single_shot_outputs(root: Path):
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    out = {}
    for name, res in workloads.SingleShot(None).run_pass(0).items():
        text = (_floats(res) if isinstance(res, list)
                else f"{type(res).__name__}: {res}")
        out[f"single_shot/{name}"] = text
    return out


def criteria_outputs(cl):
    curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, 4096)
    p = cl.profile_exponent(curve, 0j, 1.8, 2.2)
    # p falls away from t0, so only arcs well inside d_t/4 qualify
    p_falling = cl.profile_exponent(curve, 0j, 2.2, 1.8)
    spir = cl.IndexPair(1.0, 1.0, {"source": "digest"})
    mixed = cl.IndexPair(-1.0, 1.0, {"source": "digest"})
    w = cl.phi(cl.unwrap_arg(curve, 0j), 0.2 + 0.1j)
    # criterion 6's curve and profile, which rises away from p(t0) = 1.8
    n = 4096
    p_mixed = cl.profile_exponent(cl.generate_mixed_spirality(
        -1.0, 1.0, 118.0 / n, math.e ** 2, n), 0j, 1.8, 2.2)
    return {
        "criteria/select_delta_and_eps": _outcome(
            cl.select_delta_and_eps, curve, p, 1.8, 0j, 0.1j, spir),
        "criteria/select_delta_and_eps/thin": _outcome(
            cl.select_delta_and_eps, curve, p_falling, 2.2, 0j, 0.45j, spir),
        "criteria/check_ersatz/limit": _outcome(
            cl.check_ersatz, 2.2, p_falling.p_min, 0.45j, spir),
        "criteria/check_ersatz/bounded": _outcome(
            cl.check_ersatz, 1.8, p.p_min, 0.1j, spir),
        "criteria/check_ersatz/violated": _outcome(
            cl.check_ersatz, 1.8, p.p_min, 0.6, spir),
        "criteria/check_ersatz/mixed_profile": _outcome(
            cl.check_ersatz, 1.8, p_mixed.p_min, 0.45, mixed),
        "criteria/check_main": _outcome(cl.check_main, 1.8, 0.2 + 0.1j,
                                        mixed),
        "criteria/check_kps/inside": _outcome(cl.check_kps, 2.0, 0.3),
        "criteria/check_kps/boundary": _outcome(cl.check_kps, 2.0, 0.5),
        "submult/power_sandwich": _outcome(cl.power_sandwich, curve, 0j, w,
                                           0.05, 0.01),
        "norms/dini_constant": f"{p.dini_constant:.17g}",
    }


def export_outputs(cl, tmp: Path):
    curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, 4096)
    branch = cl.unwrap_arg(curve, 0j)
    f = cl.omega_arc(curve, 0j, 0.05).astype(float)
    paths = {name: tmp / f"{name}.csv"
             for name in ("weight", "submult", "maximal")}
    cl.export_weight_csv(curve, cl.phi(branch, 0.2 + 0.1j), paths["weight"])
    cl.export_submult_csv(cl.compute_W(curve, 0j, cl.phi(branch, 1j)),
                          paths["submult"])
    res = cl.weighted_maximal(
        curve, f, 0j, 0.2 + 0.1j,
        evaluator=cl.MaximalEvaluator(curve, range(0, 4096, 16)))
    cl.export_maximal_csv(curve, res, paths["maximal"])
    return {f"export/{name}.csv": path.read_bytes()
            for name, path in paths.items()}


def cli_outputs(tmp: Path):
    from click.testing import CliRunner

    from carlesonlab.cli import main

    spiral = ["--kind", "log-spiral", "--delta", "1.0", "--r-min", "1e-3",
              "--n", "1024"]
    sp_json = ["--curve", "{out}/gen-curve/sp.json"]
    g_json = ["--curve", "{out}/gen-curve-graded-circle/curve.json"]
    points = tmp / "points.json"  # the curve file format before spec files
    points.parent.mkdir(parents=True, exist_ok=True)
    points.write_text('{"points":[[1,0],[0,1],[-1,0]],"closed":false,'
                      '"provenance":"user"}\n', encoding="utf-8")
    # curve specs whose values have the wrong type
    str_radius = tmp / "str-radius.json"
    str_radius.write_text('{"kind": "circle", "radius": "2", "n": 64}\n',
                          encoding="utf-8")
    list_kind = tmp / "list-kind.json"
    list_kind.write_text('{"kind": ["x"], "n": 64}\n', encoding="utf-8")
    kinds = {
        "circle": [], "graded-circle": ["--t0-angle", "0.5"],
        "log-spiral": ["--delta", "1.0"],
        "mixed-spirality": ["--alpha", "-1", "--beta", "1"],
        "segment": ["--r-max", "2"], "corner": ["--turn", "1"],
    }
    calls = {
        "gen-curve": ["gen-curve", "--kind", "log-spiral", "--delta", "1.0",
                      "--r-min", "1e-4", "--n", "4096", "--name", "sp.json"],
        **{f"gen-curve-{kind}": ["gen-curve", "--kind", kind, *opts, "--n",
                                 "1024"]
           for kind, opts in kinds.items()},
        "indices": ["indices", *sp_json, "--t0", "0", "--csv", "rho.csv"],
        "curve-and-kind": ["apcheck", *sp_json, "--kind", "log-spiral",
                           "--t0", "0", "--gamma", "0.3"],
        "apcheck-power": ["apcheck", "--kind", "graded-circle", "--n",
                          "2048", "--t0", "1", "--gamma", "0.3"],
        "apcheck-complex": ["apcheck", *spiral, "--t0", "0", "--gamma",
                            "0.2+0.1j"],
        "norm-power": ["norm", "--kind", "graded-circle", "--n", "2048",
                       "--t0", "1", "--gamma", "0.3"],
        "norm-plain": ["norm", "--kind", "circle", "--n", "2048", "--t0",
                       "0"],
        "maximal": ["maximal", *spiral, "--t0", "0", "--gamma", "0.2+0.1j",
                    "--arc-radius", "0.05"],
        "maximal-default-t0": ["maximal", "--kind", "graded-circle", "--n",
                               "1024", "--gamma", "0.3", "--arc-radius",
                               "0.05"],
        # 201 samples: an exact grid and a duplicate closure sample
        "maximal-circle": ["maximal", "--kind", "circle", "--n", "200"],
        "maximal-plain": ["maximal", "--kind", "graded-circle", "--n",
                          "1024", "--gamma", "0", "--arc-radius", "0.05"],
        "verdict": ["verdict", "--p-at", "2.0", "--gamma", "0.1j",
                    "--delta-minus", "-1", "--delta-plus", "1"],
        "probe": ["probe", "--levels", "256,512,1024", "--kind",
                  "graded-circle", "--gamma", "0.2", "--name", "gc"],
        "probe-t0": ["probe", "--levels", "256,512,1024", "--kind",
                     "graded-circle", "--gamma", "0.2", "--t0", "0.5",
                     "--name", "gc"],
        "sweep": ["sweep", "--levels", "256,512", "--kind", "log-spiral",
                  "--delta", "1.0", "--re-min", "-0.2", "--re-max", "0.2",
                  "--im-min", "0.0", "--im-max", "0.0", "--step", "0.2"],
        # a curve file read without --t0, an old points file, a missing one
        "apcheck-curve-no-t0": ["apcheck", *g_json, "--gamma", "0.3"],
        "indices-points-file": ["indices", "--curve", str(points), "--t0",
                                "0"],
        "apcheck-missing-curve": ["apcheck", "--curve", "nonexistent.json",
                                  "--t0", "0", "--gamma", "0.3"],
        "apcheck-str-radius": ["apcheck", "--curve", str(str_radius),
                               "--gamma", "0.3"],
        "apcheck-list-kind": ["apcheck", "--curve", str(list_kind),
                              "--gamma", "0.3"],
        # options a command does not read, and malformed probe input
        "verdict-curve-levels": ["verdict", "--curve", "nonexistent.json",
                                 "--levels", "1,2", "--p-at", "2",
                                 "--gamma", "0.3"],
        "gen-curve-curve": ["gen-curve", *sp_json, "--kind", "circle",
                            "--n", "64"],
        "probe-curve": ["probe", *sp_json, "--levels", "256,512,1024",
                        "--kind", "graded-circle", "--gamma", "0.2"],
        "norm-seed": ["norm", "--seed", "5", "--kind", "circle", "--n", "64",
                      "--t0", "0"],
        "apcheck-levels": ["apcheck", "--levels", "256,512", "--kind",
                           "graded-circle", "--n", "2048", "--t0", "1",
                           "--gamma", "0.3"],
        "probe-bad-levels": ["probe", "--levels", "256,abc", "--kind",
                             "graded-circle", "--gamma", "0.2"],
        "sweep-empty": ["sweep", "--levels", "256,512", "--kind",
                        "log-spiral", "--delta", "1", "--re-min", "0.2",
                        "--re-max", "-0.2", "--im-min", "0", "--im-max", "0",
                        "--step", "0.2"],
        # a partial profile exponent, and index options with a real gamma
        "probe-p-at": ["probe", "--levels", "256,512,1024", "--kind",
                       "graded-circle", "--gamma", "0.2", "--p-at", "1.5"],
        "verdict-real-deltas": ["verdict", "--p-at", "2", "--gamma", "0.3",
                                "--delta-minus", "5", "--delta-plus", "9"],
    }
    runner = CliRunner()
    out = {}
    for name, args in calls.items():
        out_dir = tmp / name
        if any("--out" in p.opts for p in main.commands[args[0]].params):
            args = [args[0], "--out", str(out_dir), *args[1:]]
        args = [a.replace("{out}", str(tmp)) for a in args]
        res = runner.invoke(main, args)
        text = f"exit {res.exit_code}\n{res.output}".replace(str(tmp),
                                                             "<out>")
        out[f"cli/{name}"] = text
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                out[f"cli/{name}/{path.name}"] = path.read_bytes()
    return out


def collect(root: Path) -> dict:
    """Every output of the checkout at root, as bytes by name."""
    sys.path.insert(0, str(root / "src"))
    import carlesonlab as cl

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = {}
        outputs.update(probe_outputs(cl))
        outputs.update(single_shot_outputs(root))
        outputs.update(criteria_outputs(cl))
        outputs.update(export_outputs(cl, tmp))
        outputs.update(cli_outputs(tmp / "cli"))
    return {name: data.encode("utf-8") if isinstance(data, str) else data
            for name, data in outputs.items()}


def compare(a: bytes, b: bytes):
    """The verdict on two outputs: "identical", ("close", the largest
    relative difference of their numbers) or "DIFFERENT"."""
    if a == b:
        return "identical"
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return "DIFFERENT"
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        if x != y:
            diff = abs(x - y) / max(abs(x), abs(y))
            if not diff <= RTOL:
                return "DIFFERENT"
            worst = max(worst, diff)
    return "close", worst


def against(root: Path, other: Path) -> int:
    """Print one comparison line per output of root against other's;
    returns 1 when some output differs, else 0."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--root",
         str(other), "--dump"], stdout=subprocess.PIPE, check=True)
    theirs = {name: base64.b64decode(data)
              for name, data in json.loads(proc.stdout).items()}
    ours = collect(root)
    counts = {"identical": 0, "close": 0, "DIFFERENT": 0}
    for name in sorted(ours.keys() | theirs.keys()):
        if name not in ours or name not in theirs:
            verdict = "DIFFERENT"
        else:
            verdict = compare(ours[name], theirs[name])
        if isinstance(verdict, tuple):
            print(f"close {verdict[1]:.1e}  {name}")
            verdict = "close"
        else:
            print(f"{verdict}  {name}")
        counts[verdict] += 1
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items())
          + f" (of {sum(counts.values())} outputs)")
    return 1 if counts["DIFFERENT"] else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("--against", type=Path,
                        help="checkout to compare every output with")
    parser.add_argument("--dump", action="store_true",
                        help=argparse.SUPPRESS)  # the outputs, for --against
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        sys.exit(against(root, args.against.resolve()))
    outputs = collect(root)
    if args.dump:
        print(json.dumps({name: base64.b64encode(data).decode("ascii")
                          for name, data in outputs.items()}))
        return
    lines = [f"{_sha(data)}  {name}" for name, data in outputs.items()]
    lines.append(f"{_sha(chr(10).join(lines))}  ALL ({len(outputs)} outputs)")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
