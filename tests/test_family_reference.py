"""The shared, streamed probe family against the list-building family it
replaced.

``reference_nested_arc_indicators``, ``reference_level_functions`` and
``reference_build_family`` are the previous harness functions: they hold
float64 copies of every arc indicator, the level's random functions for
all gammas, and every weight-inverted companion at once, and build the
whole family again for each gamma.  They are kept here only as test
references.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import carlesonlab as cl
from carlesonlab import harness
from carlesonlab.argbranch import unwrap_arg
from carlesonlab.curves import d_t, omega_arc
from carlesonlab.errors import EmptyArc
from carlesonlab.harness import (_extremal_profile, build_curve,
                                 build_exponent, build_family,
                                 probe_report_csv, probe_report_json)
from carlesonlab.norms import as_sampled


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
    streamed one as (tag, values, gammas served)."""
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
    curve, ref, new = _families(config, config.levels[level])
    assert [tag for tag, _, _ in new] == [tag for tag, _ in ref]
    assert all(served == (config.gamma,) for _, _, served in new)
    assert any(tag.startswith("warc") for tag, _, _ in new)
    for (tag, f_ref), (_, f_new, _) in zip(ref, new):
        a, b = as_sampled(curve, f_ref), as_sampled(curve, f_new)
        assert a.dtype == b.dtype, tag
        assert a.tobytes() == b.tobytes(), tag


def test_arc_indicators_are_masks():
    _, _, new = _families(GRADED, 2048)
    arcs = [f for tag, f, _ in new if tag.startswith("arc")]
    assert arcs and all(mask.dtype == bool for mask in arcs)


def test_stream_builds_shared_members_once_for_all_gammas():
    """A G-gamma stream yields each arc and each random function once,
    serving all G gammas, and each gamma reads its single-gamma family."""
    gammas = (0.1j, 0.2 + 0.1j, 1j)
    level = _level(MIXED, 2048)
    stream = list(build_family(MIXED, 2048, *level, gammas))
    shared = [tag for tag, _, served in stream if served == gammas]
    n_arcs = sum(tag.startswith("arc") for tag in shared)
    assert n_arcs > 0
    assert shared == [f"arc_j{j}" for j in range(n_arcs)] + [
        f"random_{k}" for k in range(harness.N_RANDOM)]
    for gamma in gammas:
        own = [tag for tag, _, served in stream if served == (gamma,)]
        assert own == [f"warc_j{j}" for j in range(n_arcs)] + ["extremal"]
        single = build_family(MIXED, 2048, *level, (gamma,))
        mine = [(tag, f) for tag, f, served in stream if gamma in served]
        for (tag, f), (tag1, f1, _) in zip(mine, single, strict=True):
            assert tag == tag1 and f.tobytes() == f1.tobytes(), tag
    assert len(stream) == len(shared) + len(gammas) * (n_arcs + 1)


def _reference_patch(monkeypatch):
    """Run the harness on the reference family, built again for each gamma,
    each drawing its own random functions."""
    def family(config, n, curve, t0, join_ends, p, branch, gammas):
        for gamma in gammas:
            arcs, randoms = reference_level_functions(curve, t0, config, n,
                                                      join_ends)
            for tag, f in reference_build_family(
                    curve, t0, p, _log_phi(branch, gamma), arcs, randoms):
                yield tag, f, (gamma,)

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
