"""The three benchmark workloads and their correctness checks.

Each workload builds its inputs once (set-up), then runs timed passes.  A
pass returns its outputs; ``check`` compares them with the theory and with
``reference.json``, recorded from the seed code, and counts operations:

* a probe operation is one per-(gamma, level) ratio maximum or one
  per-gamma trend + verdict;
* a single_shot operation is one call.

An operation fails when it raises or its output mismatches.
"""

from __future__ import annotations

import math

import numpy as np

import carlesonlab as cl
from carlesonlab import harness

RTOL = 1e-8    # looser than the Luxemburg rtol 1e-10, so exact rewrites pass
ATOL = 1e-12   # for indices that are zero up to rounding (corner, circle)


def close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def gamma_key(g):
    return f"{g.real:+.3f}{g.imag:+.3f}j"


class Probe:
    """A criterion sweep: a refinement ladder over several gammas."""

    def __init__(self, config, gammas, per_pass, expect, reference):
        self.config = config
        self.gammas = [complex(g) for g in gammas]
        self.per_pass = per_pass
        self.expect = expect
        self.reference = reference

    def pass_gammas(self, k):
        if self.per_pass >= len(self.gammas):
            return self.gammas
        # rotate through the gammas so that runs with other seeds cover all
        start = (self.config.seed + k * self.per_pass) % len(self.gammas)
        return [self.gammas[(start + i) % len(self.gammas)]
                for i in range(self.per_pass)]

    def run_pass(self, k):
        return harness.run_sweep(self.config, self.pass_gammas(k))

    def skipped_frac(self, reports):
        skipped = sum(len(r.skipped) for r in reports)
        return skipped / (skipped + sum(len(r.rows) for r in reports))

    def record(self):
        reports = harness.run_sweep(self.config, self.gammas)
        return {gamma_key(r.gamma): _levels_doc(r) for r in reports}

    def check(self, k, reports, problems):
        """Returns (attempted, failed); ``reports`` is None if the pass raised."""
        gammas = self.pass_gammas(k)
        attempted = len(gammas) * (len(self.config.levels) + 1)
        if reports is None:
            return attempted, attempted
        failed = 0
        for gamma, rep in zip(gammas, reports):
            key = gamma_key(gamma)
            ref = self.reference[key]
            got = _levels_doc(rep)
            for n in self.config.levels:
                if not _level_matches(got.get(str(n)), ref[str(n)]):
                    failed += 1
                    problems.append(f"{key} level {n}: ratios differ from "
                                    "the reference")
            trend, label = self.expect(gamma)
            if (rep.trend, rep.verdict.classification) != (trend, label):
                failed += 1
                problems.append(f"{key}: {rep.trend}/"
                                f"{rep.verdict.classification}, expected "
                                f"{trend}/{label}")
        return attempted, failed


def _levels_doc(report):
    """Per level: the reported maximum and the seed-free rows' ratios.

    Random test functions depend on the seed; they are checked only through
    the maximum, which must be the largest of all rows.
    """
    doc = {}
    for n, best in zip(report.levels, report.max_ratios):
        rows = [r for r in report.rows if r["level"] == n]
        doc[str(n)] = {
            "max": best,
            "rows": {r["function"]: r["ratio"] for r in rows
                     if not r["function"].startswith("random_")},
            "random_max": max((r["ratio"] for r in rows
                               if r["function"].startswith("random_")),
                              default=0.0),
        }
    return doc


def _level_matches(got, ref):
    if got is None or set(got["rows"]) != set(ref["rows"]):
        return False
    if not all(close(got["rows"][f], ref["rows"][f]) for f in ref["rows"]):
        return False
    expected_max = max(max(ref["rows"].values()), got["random_max"])
    return close(got["max"], expected_max)


def kps_expect(gamma):
    inside = -0.5 < gamma.real < 0.5
    return (("stable", cl.KPS_BOUNDED) if inside
            else ("growing", cl.NECESSARY_VIOLATED))


def mixed_expect(gamma):
    if gamma == 1j:
        return "growing", cl.NECESSARY_VIOLATED
    return "stable", cl.MAIN_THM_BOUNDED


def kps_ladder(seed, reference):
    config = cl.ExperimentConfig(
        curve={"kind": "graded_circle", "radius": 1.0, "grade": 3.0},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.0, levels=(2048, 8192, 32768), seed=seed)
    lams = (-0.8, -0.4, 0.0, 0.3, 0.45, 0.55, 0.7)
    # the full 7-lambda sweep takes ~80 s; a pass is one lambda's ladder
    return Probe(config, lams, 1, kps_expect, reference)


def mixed_spiral_probe(seed, reference):
    config = cl.ExperimentConfig(
        curve={"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min_scale": 118.0, "r_max": math.e ** 2},
        exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
        gamma=1j, levels=(2048, 4096, 8192, 16384), seed=seed)
    gammas = (0.1j, -0.1j, 0.2 + 0.1j, 1j)
    return Probe(config, gammas, len(gammas), mixed_expect, reference)


ZOO = (
    ("graded_circle", {"kind": "graded_circle", "radius": 1.0}, 0.0),
    ("corner", {"kind": "corner", "turn": math.pi / 2, "r_min": 1e-6}, 0.0),
    ("spiral_1", {"kind": "log_spiral", "delta": 1.0}, 1.0),
    ("spiral_2", {"kind": "log_spiral", "delta": 2.0}, 2.0),
    ("mixed", {"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min": 1e-6}, None),
)
SHOT_N = 4096
MAXIMAL_CASES = (
    ("maximal/spiral_1", {"kind": "log_spiral", "delta": 1.0, "r_min": 1e-3},
     0.2 + 0.1j),
    ("maximal/graded_circle", {"kind": "graded_circle", "radius": 1.0}, 0.3),
)


def _fresh(spec):
    """Every call builds its own curve, as one CLI invocation does."""
    return harness.build_curve(spec, SHOT_N)


def _indices(spec):
    curve, t0, _ = _fresh(spec)
    pair = cl.spirality_indices(curve, t0)
    return [pair.alpha, pair.beta]


def _apcheck(spec):
    curve, t0, _ = _fresh(spec)
    w = cl.phi(cl.unwrap_arg(curve, t0), 0.2 + 0.1j)
    return [cl.muckenhoupt_ap(curve, w, 2.0)]


def _carleson(spec):
    curve, _, _ = _fresh(spec)
    t_points, eps_grid = cl.default_carleson_grids(curve)
    return [cl.carleson_constant(curve, t_points, eps_grid)]


def _exponent(spec):
    curve, t0, _ = _fresh(spec)
    p = cl.profile_exponent(curve, t0, 1.8, 2.2)
    return [p.p_min, p.p_max, p.dini_constant, float(np.sum(p.values))]


def _norm(spec):
    curve, t0, _ = _fresh(spec)
    w = cl.power_weight(curve, t0, 0.3)
    return [cl.luxemburg_norm(curve, 1.0, w, cl.constant_exponent(curve, 2.0))]


def _maximal(spec, gamma):
    curve, t0, join_ends = _fresh(spec)
    f = cl.omega_arc(curve, t0, 0.05, join_ends=join_ends).astype(float)
    # no evaluator passed: a full-grid one is built and used once
    res = cl.weighted_maximal(curve, f, t0, gamma)
    return [float(np.max(res.values)), float(np.sum(res.values))]


class SingleShot:
    """One call per fresh curve, mirroring the CLI's batch subcommands.

    There is no randomness: the seed changes nothing.
    """

    def __init__(self, reference):
        self.reference = reference
        self.calls = []
        for name, spec, delta in ZOO:
            self.calls += [(f"{name}/indices", _indices, (spec,)),
                           (f"{name}/apcheck", _apcheck, (spec,)),
                           (f"{name}/carleson", _carleson, (spec,)),
                           (f"{name}/exponent", _exponent, (spec,)),
                           (f"{name}/norm", _norm, (spec,))]
        self.calls += [(name, _maximal, (spec, gamma))
                       for name, spec, gamma in MAXIMAL_CASES]
        self.expected_index = {f"{name}/indices": delta
                               for name, _, delta in ZOO}

    def run_pass(self, k):
        out = {}
        for name, fn, args in self.calls:
            try:
                out[name] = fn(*args)
            except cl.CarlesonLabError as exc:
                out[name] = exc
        return out

    def skipped_frac(self, outputs):
        return 0.0

    def record(self):
        return self.run_pass(0)

    def check(self, k, outputs, problems):
        attempted = len(self.calls)
        if outputs is None:
            return attempted, attempted
        failed = 0
        for name, _, _ in self.calls:
            got = outputs.get(name)
            ok = isinstance(got, list)
            if not ok:
                problems.append(f"{name}: raised {got!r}")
            elif len(got) != len(self.reference[name]) or not all(
                    close(a, b) for a, b in zip(got, self.reference[name])):
                ok = False
                problems.append(f"{name}: {got} differs from the reference "
                                f"{self.reference[name]}")
            elif name in self.expected_index:
                # criteria 1-2: spirals within 0.1 of delta, smooth within 0.05
                delta = self.expected_index[name]
                if delta is not None:
                    tol = 0.05 if delta == 0.0 else 0.1
                    if max(abs(got[0] - delta), abs(got[1] - delta)) > tol:
                        ok = False
                        problems.append(f"{name}: {got} not within {tol} "
                                        f"of {delta}")
            failed += not ok
        return attempted, failed


WORKLOADS = ("kps_ladder", "mixed_spiral_probe", "single_shot")


def make(name, seed, reference):
    """The workload's inputs; ``reference`` is None while recording it."""
    ref = None if reference is None else reference[name]
    if name == "kps_ladder":
        return kps_ladder(seed, ref)
    if name == "mixed_spiral_probe":
        return mixed_spiral_probe(seed, ref)
    if name == "single_shot":
        return SingleShot(ref)
    raise ValueError(f"unknown workload {name!r}")
