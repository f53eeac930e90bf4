"""Experiment runner: boundedness probes over curve x exponent x gamma grids.

A probe evaluates, per refinement level, the ratio

    ||M_{t0,gamma} f||_{p(.)} / ||f||_{p(.)}

over a fixed test family and classifies the trend of the per-level maxima.
Boundedness is probed, not proved: a stable trend is evidence consistent
with the predicted verdict, a growing trend is evidence of unboundedness,
and anything else is reported as indeterminate.

Refinement levels deepen the graded discretization toward the weight
singularity, so configurations violating the necessary conditions see their
ratios grow like a power of the resolved scale.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import curves as _curves
from .argbranch import (ArgBranch, clamped_exp, phi, unit_weight,
                        unwrap_arg)
from .criteria import Verdict, check_kps, check_main, verdict_doc
from .curves import Curve, csv_text, strided_indices
from .errors import NotLocallyIntegrable, PreconditionError
from .maximal import MAX_RADII, MaximalEvaluator, weighted_maximal
from .norms import (ExponentField, constant_exponent, luxemburg_norm,
                    profile_exponent, tabulated_exponent)
from .submult import IndexPair, spirality_indices

TREND_STABLE = "stable"
TREND_GROWING = "growing"
TREND_INDETERMINATE = "indeterminate"

GROWING_FACTOR = 1.5
STABLE_FACTOR = 1.35
EXTREMAL_MARGIN = 0.1  # the extremal profile's exponent above -1/p
N_RANDOM = 8  # seeded random test functions per level
MAX_ARCS = 60  # nested arcs per level at most
EVAL_POINTS = 256  # points of a level's evaluation subgrid


@dataclass(frozen=True)
class ExperimentConfig:
    """One probe configuration: curve family, exponent, weight, levels.

    curve: {"kind": ..., kind-specific parameters}; CURVE_KEYS lists the
        kinds and the keys each reads.  The kinds with an r_min (spirals,
        segment, corner) accept r_min_scale, making r_min = r_min_scale / n
        so that refinement levels deepen the resolved scale.
    exponent: {"kind": "constant", "value": p} or
        {"kind": "profile", "p_at": ..., "p_far": ...}.
    gamma: a finite number, not a bool or a string.
    spirality: optional (alpha, beta) override, two finite real numbers
        (not bools); measured on the top-level curve when absent and gamma
        is not real.
    levels is a sequence; seed and each level are integers, not bools, of
    at least 0 and 2; PreconditionError otherwise.
    """

    curve: dict
    exponent: dict
    gamma: complex
    levels: tuple
    seed: int = 0
    spirality: tuple | None = None

    def __post_init__(self):
        try:
            levels = tuple(self.levels)
        except TypeError:
            raise PreconditionError("levels must be a sequence of integers, "
                                    f"got {self.levels!r}") from None
        for name, value, low in [("seed", self.seed, 0)] + [
                ("level", n, 2) for n in levels]:
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < low):
                raise PreconditionError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        spir = self.spirality
        if spir is not None and not (
                isinstance(spir, (tuple, list)) and len(spir) == 2
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                        and math.isfinite(x) for x in spir)):
            raise PreconditionError("spirality must be two finite real "
                                    f"numbers, got {spir!r}")
        levels = tuple(int(n) for n in levels)
        if len(levels) == 0 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise PreconditionError("levels must be strictly increasing")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "gamma", _finite_gamma(self.gamma, "gamma"))


def _finite_gamma(value, name: str) -> complex:
    """value as a complex gamma; PreconditionError naming it unless it is a
    finite number, not a bool or a string."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Complex)
            or not cmath.isfinite(value)):
        raise PreconditionError(
            f"{name} must be a finite number, got {value!r}")
    return complex(value)


@dataclass(frozen=True)
class ProbeReport:
    """Per-level ratio maxima, the predicted verdict, and the trend."""

    gamma: complex
    levels: tuple
    max_ratios: tuple
    trend: str
    verdict: Verdict
    rows: tuple = ()
    skipped: tuple = ()

    def __post_init__(self):
        if not all(math.isfinite(r) for r in self.max_ratios):
            raise PreconditionError("probe ratios must be finite")
        if any(r <= 0 for r in self.max_ratios):
            raise PreconditionError("probe ratios must be positive")


def classify_trend(ratios) -> str:
    """growing: monotone increase by >= 1.5x across the last three levels;
    stable: bounded within 1.35x over the same window; else indeterminate."""
    if not all(math.isfinite(r) for r in ratios):
        raise PreconditionError("a trend needs finite ratios")
    if len(ratios) < 3:
        return TREND_INDETERMINATE
    r1, r2, r3 = ratios[-3], ratios[-2], ratios[-1]
    if r1 < r2 < r3 and r3 >= GROWING_FACTOR * r1:
        return TREND_GROWING
    if r3 <= STABLE_FACTOR * r1:
        return TREND_STABLE
    return TREND_INDETERMINATE


_RADIAL_KEYS = ("r_min", "r_min_scale", "r_max")
# the keys each curve kind reads besides "kind"; any other key is rejected
CURVE_KEYS = {
    "circle": ("radius", "t0_angle"),
    "graded_circle": ("radius", "t0_angle", "grade"),
    "log_spiral": ("delta",) + _RADIAL_KEYS,
    "mixed_spirality": ("alpha", "beta") + _RADIAL_KEYS,
    "segment": _RADIAL_KEYS,
    "corner": ("turn",) + _RADIAL_KEYS,
}
# the keys a kind reads that have no default
REQUIRED_CURVE_KEYS = {
    "log_spiral": ("delta",),
    "mixed_spirality": ("alpha", "beta"),
}
# the keys each exponent kind reads, all of them required
EXPONENT_KEYS = {"constant": ("value",), "profile": ("p_at", "p_far")}


def _spec_kind(what: str, spec: dict, keys: dict, required: dict) -> str:
    """spec's kind; PreconditionError unless keys lists it and spec sets
    only keys the kind reads, every key of required[kind], and each to a
    finite real number (not a bool)."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in keys:
        raise PreconditionError(f"unknown {what} kind: {kind!r}")
    unknown = sorted(set(spec) - {"kind", *keys[kind]})
    if unknown:
        raise PreconditionError(
            f"{what} kind {kind!r} does not read "
            f"{', '.join(map(repr, unknown))}; it accepts "
            f"{', '.join(keys[kind])}")
    missing = [k for k in required.get(kind, ()) if k not in spec]
    if missing:
        raise PreconditionError(
            f"{what} kind {kind!r} requires {', '.join(map(repr, missing))}")
    for key, value in spec.items():
        if key == "kind":
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise PreconditionError(
                f"{what} key {key!r} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise PreconditionError(
                f"{what} key {key!r} must be finite, got {value!r}")
    return kind


def build_curve(spec: dict, n: int) -> tuple[Curve, complex, bool]:
    """Materialize a curve spec at refinement level n.

    Returns (curve, t0, join_ends): join_ends marks curves generated as a
    slit at t0, whose two array ends are adjacent through the singularity.
    Raises PreconditionError for an unknown kind, a key the kind does not
    read (see CURVE_KEYS), rather than ignore a misspelled parameter, a
    missing key the kind requires (see REQUIRED_CURVE_KEYS), or both r_min
    and r_min_scale.
    """
    kind = _spec_kind("curve", spec, CURVE_KEYS, REQUIRED_CURVE_KEYS)
    if kind in ("circle", "graded_circle"):
        radius = spec.get("radius", 1.0)
        angle = spec.get("t0_angle", 0.0)
        t0 = complex(radius * np.exp(1j * angle))
        if kind == "circle":
            curve = _curves.generate_circle(radius, n)
            return curve, t0, False
        curve = _curves.generate_graded_circle(
            radius, n, t0_angle=angle, grade=spec.get("grade", 3.0))
        return curve, t0, True
    if "r_min" in spec and "r_min_scale" in spec:
        raise PreconditionError("pass r_min or r_min_scale, not both")
    r_max = spec.get("r_max", 1.0)
    r_min = (spec["r_min_scale"] / n if "r_min_scale" in spec
             else spec.get("r_min", 1e-4))
    if kind == "log_spiral":
        curve = _curves.generate_log_spiral(spec["delta"], r_min, r_max, n)
    elif kind == "mixed_spirality":
        curve = _curves.generate_mixed_spirality(spec["alpha"], spec["beta"],
                                                 r_min, r_max, n)
    elif kind == "segment":
        if not 0 < r_min < r_max:  # the spiral's message names a delta
            raise PreconditionError("need 0 < r_min < r_max")
        curve = _curves.generate_log_spiral(0.0, r_min, r_max, n)
    else:  # the last kind: corner
        curve = _curves.generate_corner(spec.get("turn", np.pi / 2), r_min,
                                        r_max, n)
    return curve, 0j, False


def build_exponent(curve: Curve, spec: dict, t0: complex) -> ExponentField:
    kind = _spec_kind("exponent", spec, EXPONENT_KEYS, EXPONENT_KEYS)
    if kind == "constant":
        return constant_exponent(curve, spec["value"])
    return profile_exponent(curve, t0, spec["p_at"], spec["p_far"])


def _nested_arc_indicators(curve: Curve, t0: complex, join_ends: bool):
    """Indicators of nested arcs omega(t0, delta0 * 2^-j) down to resolution.

    Returns ([(tag, mask)], note): the masks are boolean, one byte per
    sample, and every consumer reads them as 0.0/1.0; note is None, or the
    reason no deeper arc is measured when MAX_ARCS arcs stop the halving
    above the resolution 2 * d_min.  All masks come from one distance pass:
    omega_arc's run around k0 = argmin d ends at the first sample each way
    whose distance reaches delta, where the running maximum of d outward
    from k0 reaches it, and its join through the array ends takes the runs
    of the running maxima from each end.
    """
    d = curve.distances_from(t0)
    delta0 = float(np.max(d)) / 4.0
    d_min = float(np.min(d))
    m = d.size
    k0 = int(np.argmin(d))
    # running maxima of d: right of k0, left of k0, from the start, from
    # the end; the samples before each reaches delta are inside the arc
    right, left, head, tail = (np.maximum.accumulate(run) for run in (
        d[k0:], d[k0::-1], d, d[::-1]))
    join = join_ends or curve.closed
    out = []
    delta = delta0
    while delta >= 2.0 * d_min and len(out) < MAX_ARCS:
        lo = k0 + 1 - int(np.searchsorted(left, delta))
        hi = k0 + int(np.searchsorted(right, delta))
        mask = np.zeros(m, dtype=bool)
        mask[lo:hi] = True
        n_head = int(np.searchsorted(head, delta))
        # the arc touches exactly one array end: join the run at the other
        if join and n_head < m:
            if lo == 0:
                mask[m - int(np.searchsorted(tail, delta)):] = True
            elif hi == m:
                mask[:n_head] = True
        if curve.closed:
            mask[-1] = mask[0] = mask[0] or mask[-1]
        out.append((f"arc_j{len(out)}", mask))
        delta *= 0.5
    note = None
    if delta >= 2.0 * d_min:
        note = (f"nested arcs stop at MAX_ARCS = {MAX_ARCS}: the last has "
                f"delta {2.0 * delta:.6g}, above the resolution 2 * d_min "
                f"= {2.0 * d_min:.6g}")
    return out, note


def _extremal_profile(curve: Curve, t0: complex, p: ExponentField,
                      log_phi: np.ndarray) -> np.ndarray:
    """Near-critical profile phi^-1 * |tau-t0|^(-1/p + EXTREMAL_MARGIN),
    truncated.

    Truncation (hard zero) below four times the closest approach keeps the
    profile sampled where the quadrature still resolves it.
    """
    d = curve.distances_from(t0)
    trunc = 4.0 * float(np.min(d))
    log_f = -log_phi + (-1.0 / p.values + EXTREMAL_MARGIN) * np.log(d)
    f = clamped_exp(log_f)
    f[d < trunc] = 0.0
    return f


class Group(NamedTuple):
    """Test functions measured together, one tag each: f itself when
    supports is None, else f * chi_S for each of the nested masks S.
    served holds the gammas that measure them; note, when set, is the
    skipped entry each of them reports after the group's rows."""

    tags: tuple
    f: np.ndarray
    supports: tuple | None
    served: tuple
    note: str | None = None


def build_family(config: ExperimentConfig, n: int, curve: Curve,
                 t0: complex, join_ends: bool, p: ExponentField,
                 branch: ArgBranch, gammas: tuple):
    """The level's test functions, built once and yielded as Groups.

    The nested arc indicators chi_{omega_j} are one group with f =
    chi_{omega_0}, and the seeded nonnegative random functions lone
    members; both serve every gamma.  Each gamma alone gets one group of
    weight-inverted arcs phi^-1 * chi_{omega_j} (the classical two-sided
    witnesses, which blow up at the full rate when the conditions fail),
    with f = chi_{omega_0} * phi^-1 on the arcs' masks, and one
    near-critical profile, so each gamma sees arcs, weighted arcs,
    profile, randoms, in that order.  Members are built as the consumer
    asks for them, so a level holds one full-length function at a time
    besides the arcs' masks, whatever its number of arcs.
    """
    arcs, note = _nested_arc_indicators(curve, t0, join_ends)
    tags = tuple(tag for tag, _ in arcs)
    masks = tuple(mask for _, mask in arcs)
    if arcs:
        yield Group(tags, masks[0], masks, gammas, note)
    for gamma in gammas:
        log_phi = phi(branch, gamma).log_values
        if arcs:
            yield Group(tuple(tag.replace("arc", "warc") for tag in tags),
                        masks[0] * clamped_exp(-log_phi), masks, (gamma,))
        yield Group(("extremal",), _extremal_profile(curve, t0, p, log_phi),
                    None, (gamma,))
    rng = np.random.default_rng([config.seed, n])
    for k in range(N_RANDOM):
        yield Group((f"random_{k}",), rng.uniform(0.0, 1.0, curve.n_samples),
                    None, gammas)


def _denominators(curve: Curve, group: Group, one, p: ExponentField):
    """Per tag of group: (the norm of its function, None), or (None, the
    reason it is skipped), from one luxemburg_norm call."""
    try:
        dens = luxemburg_norm(curve, group.f, one, p,
                              supports=group.supports)
    except NotLocallyIntegrable as exc:
        return [(None, str(exc))] * len(group.tags)
    if group.supports is None:
        dens = [dens]
    return [(None, "zero norm") if den == 0.0 else (den, None)
            for den in dens]


def _maxima(curve: Curve, group: Group, dens, t0: complex, gamma: complex,
            branch: ArgBranch, evaluator: MaximalEvaluator):
    """The weighted_maximal results of group's members whose denominator
    stands, in order, from at most one call; a group's results come as
    they are taken."""
    kept = [k for k, (den, _) in enumerate(dens) if den is not None]
    if not kept:
        return []
    if group.supports is None:
        return [weighted_maximal(curve, group.f, t0, gamma, branch=branch,
                                 evaluator=evaluator)]
    return weighted_maximal(curve, group.f, t0, gamma, branch=branch,
                            evaluator=evaluator,
                            supports=[group.supports[k] for k in kept])


def _subcurve(curve: Curve, idx: np.ndarray) -> Curve:
    cum = curve.cumlen[idx] - curve.cumlen[idx[0]]
    return Curve(curve.samples[idx].copy(), cum.copy(), False)


def _verdicts(config: ExperimentConfig, gammas) -> dict:
    """{gamma: predicted verdict}, from the specs' p(t0) and at most one
    spirality fit on the top-level curve, built only for that fit.

    p(t0) is the constant's value or the profile's p_at, its limit at t0.
    PreconditionError for a circle: it is not refined toward t0, so its
    ladder resolves no finer scale there (graded_circle is).
    """
    if _spec_kind("curve", config.curve, CURVE_KEYS,
                  REQUIRED_CURVE_KEYS) == "circle":
        raise PreconditionError("a probe needs a curve refined toward t0; "
                                "use graded_circle, not circle")
    constant = _spec_kind("exponent", config.exponent, EXPONENT_KEYS,
                          EXPONENT_KEYS) == "constant"
    p_t0 = float(config.exponent["value" if constant else "p_at"])
    spir = None
    if config.spirality is not None:
        spir = IndexPair(config.spirality[0], config.spirality[1],
                         {"source": "config"})
    elif any(gamma.imag != 0.0 for gamma in gammas):
        curve, t0, _ = build_curve(config.curve, config.levels[-1])
        spir = spirality_indices(curve, t0)
    return {gamma: check_kps(p_t0, gamma.real) if gamma.imag == 0.0
            else check_main(p_t0, gamma, spir) for gamma in gammas}


def _probe_levels(config: ExperimentConfig, gammas):
    """Shared level loop for probes and sweeps.

    Returns the verdicts, taken before the first level runs, so that a
    bad spec or a top-level curve too shallow for the spirality fit fails
    at once, and {gamma: (rows, skipped, max_ratios)}, lists over all
    levels with one max ratio per level.
    """
    verdicts = _verdicts(config, gammas)
    cells = {g: ([], [], []) for g in gammas}
    for n in config.levels:
        _probe_level(config, n, cells)
    return verdicts, cells


def _probe_level(config: ExperimentConfig, n: int, cells):
    """One refinement level: extends each gamma's cell in cells.

    A group's denominators are taken once for all the gammas it serves,
    and its numerators with one weighted_maximal call per gamma over the
    supports whose denominator stands.  Everything the level builds dies
    with the call, before the next level builds its own.
    """
    curve, t0, join_ends = build_curve(config.curve, n)
    p = build_exponent(curve, config.exponent, t0)
    branch = unwrap_arg(curve, t0)
    # an index stride: generated curves are log-graded near t0, so it is
    # a log stride in scale there; both array ends are included
    eval_idx = strided_indices(curve.n_samples, EVAL_POINTS)
    evaluator = MaximalEvaluator(curve, eval_idx, MAX_RADII)
    sub = _subcurve(curve, eval_idx)
    sub_p = tabulated_exponent(sub, p.values[eval_idx])
    sub_one = unit_weight(sub)
    one = unit_weight(curve)
    level_rows = {g: [] for g in cells}
    for group in build_family(config, n, curve, t0, join_ends, p, branch,
                              tuple(cells)):
        dens = _denominators(curve, group, one, p)
        for gamma in group.served:
            results = iter(_maxima(curve, group, dens, t0, gamma, branch,
                                   evaluator))
            for tag, (den, reason) in zip(group.tags, dens):
                if reason is None:
                    try:
                        num = luxemburg_norm(sub, next(results).values,
                                             sub_one, sub_p)
                    except NotLocallyIntegrable as exc:
                        reason = str(exc)
                if reason is None and not math.isfinite(num / den):
                    reason = "non-finite ratio"
                if reason is not None:
                    cells[gamma][1].append((n, tag, reason))
                    continue
                level_rows[gamma].append({"level": n, "function": tag,
                                          "ratio": num / den, "num": num,
                                          "den": den})
            if group.note is not None:
                cells[gamma][1].append((n, f"arc_j{MAX_ARCS}", group.note))
    for gamma, rows in level_rows.items():
        if not rows:
            raise PreconditionError(
                f"every test function was skipped at level {n}")
        cells[gamma][0].extend(rows)
        cells[gamma][2].append(max(r["ratio"] for r in rows))


def run_probe(config: ExperimentConfig) -> ProbeReport:
    """Run the full refinement ladder for one gamma and classify the trend."""
    return run_sweep(config, [config.gamma])[0]


def run_sweep(config: ExperimentConfig, gammas) -> list[ProbeReport]:
    """Run probes for several gammas sharing curves, evaluators and test
    functions per level.  The gammas must differ as complex numbers (0.7
    and 0.7+0j repeat each other, as do 0.0 and -0.0); PreconditionError
    names a repeat, and a circle curve, before any level runs."""
    gammas = [_finite_gamma(g, "each of gammas") for g in gammas]
    for k, gamma in enumerate(gammas):
        if gamma in gammas[:k]:
            raise PreconditionError(f"gamma {gamma} is repeated in gammas")
    verdicts, cells = _probe_levels(config, gammas)
    return [ProbeReport(gamma, config.levels, tuple(ratios),
                        classify_trend(ratios), verdicts[gamma],
                        tuple(rows), tuple(skipped))
            for gamma, (rows, skipped, ratios) in cells.items()]


def gamma_rectangle(re_min: float, re_max: float, im_min: float,
                    im_max: float, step: float) -> list[complex]:
    """Row-major complex grid over a rectangle with the given step."""
    for name, value in (("re_min", re_min), ("re_max", re_max),
                        ("im_min", im_min), ("im_max", im_max),
                        ("step", step)):
        if not math.isfinite(value):
            raise PreconditionError(f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise PreconditionError("step must be positive")
    if re_max < re_min or im_max < im_min:
        raise PreconditionError(
            f"empty gamma rectangle: re [{re_min:g}, {re_max:g}], "
            f"im [{im_min:g}, {im_max:g}]; a max is below its min")
    res = np.arange(0, math.floor((re_max - re_min) / step + 1e-9) + 1)
    ims = np.arange(0, math.floor((im_max - im_min) / step + 1e-9) + 1)
    return [complex(re_min + i * step, im_min + j * step)
            for i in res for j in ims]


def probe_report_csv(report: ProbeReport) -> str:
    """Per-(level, function) rows; byte-stable for a fixed config and seed."""
    keys = ("level", "function", "ratio", "num", "den")
    return csv_text(keys, ([row[k] for k in keys] for row in report.rows))


def probe_report_json(report: ProbeReport) -> str:
    doc = {
        "gamma": [report.gamma.real, report.gamma.imag],
        "levels": list(report.levels),
        "max_ratios": list(report.max_ratios),
        "trend": report.trend,
        "verdict": verdict_doc(report.verdict),
        "skipped": [list(s) for s in report.skipped],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def sweep_csv(reports) -> str:
    """One row per gamma cell: verdict, trend, and per-level ratio maxima."""
    n_levels = max(len(r.levels) for r in reports)
    header = ["re_gamma", "im_gamma", "lower", "upper", "classification",
              "trend"]
    header += [f"ratio_n{k}" for k in range(n_levels)]
    return csv_text(header, (
        [rep.gamma.real, rep.gamma.imag, rep.verdict.lower,
         rep.verdict.upper, rep.verdict.classification, rep.trend,
         *rep.max_ratios, *[""] * (n_levels - len(rep.max_ratios))]
        for rep in reports))
