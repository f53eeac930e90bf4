"""Print one sha256 per carlesonlab output and one over all of them.

Run it on two checkouts and compare the lines to show that a change leaves
every output byte-identical:

    python tools/output_digest.py                   # the checkout it sits in
    python tools/output_digest.py --root ../other   # another checkout

The outputs are the probe and sweep reports of three probe configurations,
every ``single_shot`` call of ``perfbench/workloads.py``, the criteria
checks, the weight/submult/maximal CSV exports and a set of CLI invocations
(exit code, stdout and the files written).  Files go to a temporary
directory only; nothing is written inside the checkout, bytecode included.
A whole run takes about five seconds on two cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True


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
    rep = cl.run_probe(spiral)
    out["probe/spiral.csv"] = cl.harness.probe_report_csv(rep)
    out["probe/spiral.json"] = cl.harness.probe_report_json(rep)
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
    return {
        "criteria/select_delta_and_eps": _outcome(
            cl.select_delta_and_eps, curve, p, 0j, 0.1j, spir),
        "criteria/select_delta_and_eps/thin": _outcome(
            cl.select_delta_and_eps, curve, p_falling, 0j, 0.45j, spir),
        "criteria/check_ersatz/limit": _outcome(
            cl.check_ersatz, curve, p_falling, 0j, 0.45j, spir),
        "criteria/check_ersatz/bounded": _outcome(
            cl.check_ersatz, curve, p, 0j, 0.1j, spir),
        "criteria/check_ersatz/violated": _outcome(
            cl.check_ersatz, curve, p, 0j, 0.6, spir),
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
    res = cl.weighted_maximal(curve, f, 0j, 0.2 + 0.1j,
                              eval_indices=range(0, 4096, 16))
    cl.export_maximal_csv(curve, res, paths["maximal"])
    return {f"export/{name}.csv": path.read_bytes()
            for name, path in paths.items()}


def cli_outputs(tmp: Path):
    from click.testing import CliRunner

    from carlesonlab.cli import main

    # a checkout whose norm has no --gamma spells the power weight --lam
    weight = ("--gamma" if any(p.name == "gamma"
                               for p in main.commands["norm"].params)
              else "--lam")
    # a checkout whose group takes --curve, --out, --seed and --levels reads
    # them before the subcommand; one whose commands take them, after it
    group = {o for p in main.params for o in p.opts}
    spiral = ["--kind", "log-spiral", "--delta", "1.0", "--r-min", "1e-3",
              "--n", "1024"]
    sp_json = {"--curve": "{out}/gen-curve/sp.json"}
    # name: (subcommand and its own options, the options the group took)
    calls = {
        "gen-curve": (["gen-curve", "--kind", "log-spiral", "--delta", "1.0",
                       "--r-min", "1e-4", "--n", "4096", "--name",
                       "sp.json"], {}),
        "indices": (["indices", "--t0", "0", "--csv", "rho.csv"], sp_json),
        "curve-and-kind": (["apcheck", "--kind", "log-spiral", "--t0", "0",
                            "--gamma", "0.3"], sp_json),
        "apcheck-power": (["apcheck", "--kind", "graded-circle", "--n",
                           "2048", "--t0", "1", weight, "0.3"], {}),
        "apcheck-complex": (["apcheck", *spiral, "--t0", "0", "--gamma",
                             "0.2+0.1j"], {}),
        "norm-power": (["norm", "--kind", "graded-circle", "--n", "2048",
                        "--t0", "1", weight, "0.3"], {}),
        "norm-plain": (["norm", "--kind", "circle", "--n", "2048", "--t0",
                        "0"], {}),
        "maximal": (["maximal", *spiral, "--t0", "0", "--gamma", "0.2+0.1j",
                     "--arc-radius", "0.05"], {}),
        "maximal-default-t0": (["maximal", "--kind", "graded-circle", "--n",
                                "1024", "--gamma", "0.3", "--arc-radius",
                                "0.05"], {}),
        "verdict": (["verdict", "--p-at", "2.0", "--gamma", "0.1j",
                     "--delta-minus", "-1", "--delta-plus", "1"], {}),
        "probe": (["probe", "--kind", "graded-circle", "--gamma", "0.2",
                   "--name", "gc"], {"--levels": "256,512,1024"}),
        "probe-t0": (["probe", "--kind", "graded-circle", "--gamma", "0.2",
                      "--t0", "0.5", "--name", "gc"],
                     {"--levels": "256,512,1024"}),
        "sweep": (["sweep", "--kind", "log-spiral", "--delta", "1.0",
                   "--re-min", "-0.2", "--re-max", "0.2", "--im-min", "0.0",
                   "--im-max", "0.0", "--step", "0.2"],
                  {"--levels": "256,512"}),
        # options a command does not read, and malformed probe input
        "verdict-curve-levels": (["verdict", "--p-at", "2", "--gamma",
                                  "0.3"], {"--curve": "nonexistent.json",
                                           "--levels": "1,2"}),
        "gen-curve-curve": (["gen-curve", "--kind", "circle", "--n", "64"],
                            sp_json),
        "probe-curve": (["probe", "--kind", "graded-circle", "--gamma",
                         "0.2"], {**sp_json, "--levels": "256,512,1024"}),
        "norm-seed": (["norm", "--kind", "circle", "--n", "64", "--t0", "0"],
                      {"--seed": "5"}),
        "apcheck-levels": (["apcheck", "--kind", "graded-circle", "--n",
                            "2048", "--t0", "1", "--gamma", "0.3"],
                           {"--levels": "256,512"}),
        "probe-bad-levels": (["probe", "--kind", "graded-circle", "--gamma",
                              "0.2"], {"--levels": "256,abc"}),
        "sweep-empty": (["sweep", "--kind", "log-spiral", "--delta", "1",
                         "--re-min", "0.2", "--re-max", "-0.2", "--im-min",
                         "0", "--im-max", "0", "--step", "0.2"],
                        {"--levels": "256,512"}),
    }
    runner = CliRunner()
    out = {}
    for name, (args, opts) in calls.items():
        out_dir = tmp / name
        if "--out" in group or any("--out" in p.opts for p in
                                   main.commands[args[0]].params):
            opts = {"--out": str(out_dir), **opts}
        opts = {k: v.replace("{out}", str(tmp)) for k, v in opts.items()}
        before = [x for k, v in opts.items() if k in group for x in (k, v)]
        after = [x for k, v in opts.items() if k not in group for x in (k, v)]
        res = runner.invoke(main, [*before, args[0], *after, *args[1:]])
        text = f"exit {res.exit_code}\n{res.output}".replace(str(tmp),
                                                             "<out>")
        out[f"cli/{name}"] = text
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                out[f"cli/{name}/{path.name}"] = path.read_bytes()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ to run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
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
    lines = [f"{_sha(data)}  {name}" for name, data in outputs.items()]
    lines.append(f"{_sha(chr(10).join(lines))}  ALL ({len(outputs)} outputs)")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
