"""The shared, streamed probe family against the list-building family it
replaced, and the grouped measurement of the nested arcs against the
per-member one.

``reference_nested_arc_indicators``, ``reference_level_functions`` and
``reference_build_family`` are the previous harness functions: they hold
float64 copies of every arc indicator, the level's random functions for
all gammas, and every weight-inverted companion at once, and build the
whole family again for each gamma.  ``reference_probe_level`` is the
previous level loop, which measured each member with its own
``weighted_maximal`` and ``luxemburg_norm`` calls.  They are kept here
only as test references.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import carlesonlab as cl
from carlesonlab import harness
from carlesonlab.argbranch import unit_weight, unwrap_arg
from carlesonlab.curves import d_t, omega_arc, strided_indices
from carlesonlab.errors import EmptyArc, NotLocallyIntegrable
from carlesonlab.harness import (Group, _denominator, _extremal_profile,
                                 _subcurve, build_curve, build_exponent,
                                 build_family, probe_report_csv,
                                 probe_report_json)
from carlesonlab.maximal import MAX_RADII, MaximalEvaluator
from carlesonlab.norms import as_sampled, tabulated_exponent


def reference_nested_arc_indicators(curve, t0, join_ends):
    """Indicators of nested arcs omega(t0, delta0 * 2^-j) down to resolution."""
    delta0 = d_t(curve, t0) / 4.0
    d_min = float(np.min(curve.distances_from(t0)))
    out = []
    j = 0
    delta = delta0
    while delta >= 2.0 * d_min and j < 60:
        try:
            mask = omega_arc(curve, t0, delta, join_ends=join_ends)
        except EmptyArc:
            break
        out.append((f"arc_j{j}", mask.astype(np.float64)))
        delta *= 0.5
        j += 1
    return out


def reference_level_functions(curve, t0, config, level_n, join_ends):
    """The gamma-independent test functions of one level.

    Returns (arcs, randoms): the nested arc indicators and the seeded
    nonnegative random functions, as (tag, values) lists.
    """
    arcs = reference_nested_arc_indicators(curve, t0, join_ends)
    rng = np.random.default_rng([config.seed, level_n])
    randoms = [(f"random_{k}", rng.uniform(0.0, 1.0, curve.n_samples))
               for k in range(harness.N_RANDOM)]
    return arcs, randoms


def reference_build_family(curve, t0, p, log_phi, arcs, randoms):
    """The probe's test functions.

    The level's nested arc indicators and their weight-inverted companions
    phi^-1 * chi (the classical two-sided witnesses, which blow up at the
    full rate when the conditions fail), one near-critical profile, and the
    level's seeded nonnegative random functions; arcs and randoms come from
    _level_functions.
    """
    inv_phi = np.exp(np.clip(-log_phi, -700.0, 700.0))
    family = list(arcs)
    family += [(tag.replace("arc", "warc"), f * inv_phi) for tag, f in arcs]
    family.append(("extremal", _extremal_profile(curve, t0, p, log_phi)))
    family += randoms
    return family


def reference_probe_level(config, n, cells):
    """One refinement level, each member measured on its own: one
    luxemburg_norm call for its denominator and, per gamma, one
    weighted_maximal and one luxemburg_norm call for its numerator.  The
    members are the reference family's, built again for each gamma."""
    curve, t0, join_ends = build_curve(config.curve, n)
    p = build_exponent(curve, config.exponent, t0)
    branch = unwrap_arg(curve, t0)
    eval_idx = strided_indices(curve.n_samples, harness.EVAL_POINTS)
    evaluator = MaximalEvaluator(curve, eval_idx, MAX_RADII)
    sub = _subcurve(curve, eval_idx)
    sub_p = tabulated_exponent(sub, p.values[eval_idx])
    sub_one = unit_weight(sub)
    one = unit_weight(curve)
    level_rows = {g: [] for g in cells}
    for gamma in cells:
        family = reference_build_family(
            curve, t0, p, _log_phi(branch, gamma),
            *reference_level_functions(curve, t0, config, n, join_ends))
        for tag, f in family:
            den, reason = _denominator(curve, f, one, p)
            if reason is None:
                try:
                    res = cl.weighted_maximal(curve, f, t0, gamma,
                                              branch=branch,
                                              evaluator=evaluator)
                    num = cl.luxemburg_norm(sub, res.values, sub_one, sub_p)
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
    for gamma, rows in level_rows.items():
        cells[gamma][0].extend(rows)
        cells[gamma][2].append(max(r["ratio"] for r in rows))


def members(stream):
    """(tag, values, gammas served) per member of a stream of Groups, a
    group's member j being f * chi_{S_j}."""
    for group in stream:
        if group.supports is None:
            yield group.tags[0], group.f, group.served
            continue
        for tag, mask in zip(group.tags, group.supports, strict=True):
            yield tag, group.f * mask, group.served


GRADED = cl.ExperimentConfig(
    curve={"kind": "graded_circle", "radius": 1.0, "grade": 3.0},
    exponent={"kind": "constant", "value": 2.0},
    gamma=0.55, levels=(2048, 8192), seed=3)
MIXED = cl.ExperimentConfig(
    curve={"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
           "r_min_scale": 118.0, "r_max": math.e ** 2},
    exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
    gamma=0.2 + 0.1j, levels=(2048, 8192), seed=5, spirality=(-1.0, 1.0))


def _level(config, n):
    """(curve, t0, join_ends, p, branch) of one level."""
    curve, t0, join_ends = build_curve(config.curve, n)
    p = build_exponent(curve, config.exponent, t0)
    return curve, t0, join_ends, p, unwrap_arg(curve, t0)


def _log_phi(branch, gamma):
    return gamma.real * branch.log_abs - gamma.imag * branch.values


def _families(config, n):
    """(reference, streamed) family of one level at config.gamma; the
    streamed one as its Groups."""
    curve, t0, join_ends, p, branch = _level(config, n)
    ref = reference_build_family(
        curve, t0, p, _log_phi(branch, config.gamma),
        *reference_level_functions(curve, t0, config, n, join_ends))
    new = build_family(config, n, curve, t0, join_ends, p, branch,
                       (config.gamma,))
    return curve, ref, list(new)


@pytest.mark.parametrize("config", [GRADED, MIXED], ids=["graded", "mixed"])
@pytest.mark.parametrize("level", [0, 1])
def test_streamed_family_matches_reference(config, level):
    curve, ref, groups = _families(config, config.levels[level])
    new = list(members(groups))
    assert [tag for tag, _, _ in new] == [tag for tag, _ in ref]
    assert all(served == (config.gamma,) for _, _, served in new)
    assert any(tag.startswith("warc") for tag, _, _ in new)
    for (tag, f_ref), (_, f_new, _) in zip(ref, new):
        a, b = as_sampled(curve, f_ref), as_sampled(curve, f_new)
        assert a.dtype == b.dtype, tag
        assert a.tobytes() == b.tobytes(), tag


def test_arc_indicators_are_masks():
    """The arcs and the weighted arcs are one group each, on the same
    boolean masks; the arcs' function is the outermost mask itself."""
    _, _, groups = _families(GRADED, 2048)
    arcs, warcs = groups[:2]
    assert arcs.tags[0] == "arc_j0" and warcs.tags[0] == "warc_j0"
    assert warcs.supports is arcs.supports and arcs.f is arcs.supports[0]
    assert len(arcs.supports) > 5
    assert all(mask.dtype == bool for mask in arcs.supports)


def test_stream_builds_shared_members_once_for_all_gammas():
    """A G-gamma stream yields each arc and each random function once,
    serving all G gammas, and each gamma reads its single-gamma family."""
    gammas = (0.1j, 0.2 + 0.1j, 1j)
    level = _level(MIXED, 2048)
    stream = list(members(build_family(MIXED, 2048, *level, gammas)))
    shared = [tag for tag, _, served in stream if served == gammas]
    n_arcs = sum(tag.startswith("arc") for tag in shared)
    assert n_arcs > 0
    assert shared == [f"arc_j{j}" for j in range(n_arcs)] + [
        f"random_{k}" for k in range(harness.N_RANDOM)]
    for gamma in gammas:
        own = [tag for tag, _, served in stream if served == (gamma,)]
        assert own == [f"warc_j{j}" for j in range(n_arcs)] + ["extremal"]
        single = members(build_family(MIXED, 2048, *level, (gamma,)))
        mine = [(tag, f) for tag, f, served in stream if gamma in served]
        for (tag, f), (tag1, f1, _) in zip(mine, single, strict=True):
            assert tag == tag1 and f.tobytes() == f1.tobytes(), tag
    assert len(stream) == len(shared) + len(gammas) * (n_arcs + 1)


def _reference_patch(monkeypatch):
    """Run the harness on the reference family, built again for each gamma,
    each drawing its own random functions.  Its arcs and weighted arcs go
    as the streamed family's groups, on masks of its float arcs."""
    def family(config, n, curve, t0, join_ends, p, branch, gammas):
        for gamma in gammas:
            arcs, randoms = reference_level_functions(curve, t0, config, n,
                                                      join_ends)
            ref = reference_build_family(
                curve, t0, p, _log_phi(branch, gamma), arcs, randoms)
            masks = tuple(f == 1.0 for _, f in arcs)
            for group in (ref[:len(arcs)], ref[len(arcs):2 * len(arcs)]):
                yield Group(tuple(tag for tag, _ in group), group[0][1],
                            masks, (gamma,))
            for tag, f in ref[2 * len(arcs):]:
                yield Group((tag,), f, None, (gamma,))

    monkeypatch.setattr(harness, "build_family", family)


@pytest.mark.parametrize("config, gammas", [
    (GRADED, [0.3, 0.55]),
    (MIXED, [0.1j, 0.2 + 0.1j]),
], ids=["graded", "mixed"])
def test_sweep_bytes_match_reference_family(monkeypatch, config, gammas):
    streamed = cl.run_sweep(config, gammas)
    with monkeypatch.context() as patch:
        _reference_patch(patch)
        reference = cl.run_sweep(config, gammas)
    for got, ref in zip(streamed, reference):
        assert probe_report_csv(got) == probe_report_csv(ref)
        assert probe_report_json(got) == probe_report_json(ref)


LADDER = cl.ExperimentConfig(
    curve={"kind": "graded_circle", "radius": 1.0, "grade": 3.0},
    exponent={"kind": "constant", "value": 2.0},
    gamma=0.3, levels=(8192, 32768), seed=1)


def _traced_peak(config):
    """(reports, tracemalloc peak in MB) of run_sweep at config.gamma.

    A warm-up level keeps first-call imports out of the measurement.
    """
    cl.run_sweep(dataclasses.replace(config, levels=(2048,)), [config.gamma])
    tracemalloc.start()
    try:
        reports = cl.run_sweep(config, [config.gamma])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return reports, peak / 2**20


def test_level_memory_does_not_grow_with_arcs():
    """A 32768 graded-circle level (34 arcs) stays within O(n) memory.

    Streamed, the level traces about 10.6 MB.  Holding its 34 weighted
    arcs at once adds 34 float64 arrays of length n (8.5 MB), and holding
    the whole family as float64 (34 arcs, 34 weighted arcs, the profile and
    8 randoms) traced about 29 MB.
    """
    config = dataclasses.replace(LADDER, levels=(32768,))
    (report,), peak = _traced_peak(config)
    assert sum(r["function"].startswith("warc") for r in report.rows) > 30
    assert peak < 16, f"traced peak {peak:.1f} MB"


def test_levels_release_their_state():
    """A level's evaluator and family are gone before the next level builds.

    The 8192 level adds about 0.5 MB to the 32768 level's peak: its curve,
    exponent and rows, which outlive it.  Keeping its evaluator, branch and
    arcs alive during the next build added 1.4 MB.
    """
    _, single = _traced_peak(dataclasses.replace(LADDER, levels=(32768,)))
    _, ladder = _traced_peak(LADDER)
    assert ladder - single < 1.0, f"{single:.2f} -> {ladder:.2f} MB"


SPIRAL = cl.ExperimentConfig(
    curve={"kind": "log_spiral", "delta": 1.0, "r_min_scale": 16.0},
    exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
    gamma=0.2 + 0.1j, levels=(512, 2048), seed=3, spirality=(1.0, 1.0))
CORNER = cl.ExperimentConfig(
    curve={"kind": "corner", "turn": math.pi / 2, "r_min": 1e-6},
    exponent={"kind": "constant", "value": 2.0},
    gamma=0.3, levels=(2048, 4096), seed=2)
DEEP_SEGMENT = cl.ExperimentConfig(
    curve={"kind": "segment", "r_min": 1e-48},
    exponent={"kind": "constant", "value": 2.0},
    gamma=0.3, levels=(8192,), seed=4)


def _arc_rows(report):
    return {(r["level"], r["function"]): r for r in report.rows
            if r["function"].startswith(("arc", "warc"))}


def _check_against_per_member(monkeypatch, config, gammas, rtol):
    """Every arc and weighted-arc row of the grouped sweep against the
    per-member reference: num bit for bit, den and ratio within rtol.
    Returns the grouped reports."""
    grouped = cl.run_sweep(config, gammas)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_probe_level", reference_probe_level)
        reference = cl.run_sweep(config, gammas)
    for got, ref in zip(grouped, reference, strict=True):
        rows, ref_rows = _arc_rows(got), _arc_rows(ref)
        assert list(rows) == list(ref_rows)
        assert any(tag.startswith("warc") for _, tag in rows)
        for key, row in rows.items():
            want = ref_rows[key]
            assert row["num"] == want["num"], key
            for name in ("den", "ratio"):
                assert row[name] == pytest.approx(want[name], rel=rtol,
                                                  abs=0.0), (key, name)
        # the reference never skips an arc; the grouped sweep adds only
        # the cap's entry
        assert not [s for s in ref.skipped if "arc" in s[1]]
        assert [s for s in got.skipped
                if s[1] != f"arc_j{harness.MAX_ARCS}"] == list(ref.skipped)
    return grouped


@pytest.mark.parametrize("config, gammas", [
    (GRADED, [-0.8, 0.0, 0.55, 0.7]),
    (MIXED, [0.1j, 0.2 + 0.1j, 1j]),
    (SPIRAL, [SPIRAL.gamma]),
    (CORNER, [CORNER.gamma]),
    (DEEP_SEGMENT, [DEEP_SEGMENT.gamma]),
], ids=["graded", "mixed", "spiral_profile", "corner", "segment_1e-48"])
def test_grouped_arcs_match_per_member_calls(monkeypatch, config, gammas):
    _check_against_per_member(monkeypatch, config, gammas, 1e-13)


def test_grouped_steep_weighted_arcs_keep_their_range(monkeypatch):
    """At gamma = -20 log g spans about 800 e-folds over omega_0: shifted
    by its maximum there, the deepest weighted arcs' integrands would be
    subnormal or 0.  Each support takes its own shift, so every weighted
    arc stays a finite row; den agrees to 1e-12, limited by that span."""
    config = dataclasses.replace(GRADED, gamma=-20.0)
    report, = _check_against_per_member(monkeypatch, config, [-20.0], 1e-12)
    warcs = [r for r in report.rows
             if r["level"] == 8192 and r["function"].startswith("warc")]
    assert [r["function"] for r in warcs] == [f"warc_j{j}"
                                              for j in range(30)]
    assert all(math.isfinite(r["ratio"]) and r["ratio"] > 0 for r in warcs)


@pytest.mark.parametrize("supports", [
    lambda m: [m[1], m[0]],
    lambda m: [m[0] & ~m[2], m[1]],
    lambda m: [m[0].astype(float)],
    lambda m: [m[0][:-1]],
    lambda m: [],
], ids=["inner-first", "not-nested", "float", "short", "empty"])
def test_supports_must_be_nested_masks(supports):
    curve, t0, join_ends, p, branch = _level(GRADED, 2048)
    masks = [mask for _, mask in
             harness._nested_arc_indicators(curve, t0, join_ends)[0]]
    bad = supports(masks)
    with pytest.raises(cl.PreconditionError, match="support"):
        cl.weighted_maximal(curve, masks[0], t0, 0.3, branch=branch,
                            supports=bad)
    with pytest.raises(cl.PreconditionError, match="support"):
        cl.luxemburg_norm(curve, masks[0], unit_weight(curve), p,
                          supports=bad)
