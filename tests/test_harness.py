import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

import carlesonlab as cl
from carlesonlab import harness
from carlesonlab.cli import _read_spec, main
from carlesonlab.errors import AllAnnuliEmpty, PreconditionError
from carlesonlab.harness import (CURVE_KEYS, REQUIRED_CURVE_KEYS, Group,
                                 _denominators, build_curve, build_exponent,
                                 probe_report_csv, probe_report_json,
                                 sweep_csv)


def small_config(**overrides):
    base = dict(
        curve={"kind": "log_spiral", "delta": 1.0, "r_min_scale": 4.0},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.0,
        levels=(256, 512, 1024),
        seed=13,
    )
    base.update(overrides)
    return cl.ExperimentConfig(**base)


def test_config_validates_levels():
    """(256.9, 512, 1024) used to run level 256, (True, 512, 1024) level 1,
    levels below 2 were accepted, and levels=5 raised TypeError."""
    for levels in ((512, 512), (1024, 512), (256.9, 512, 1024),
                   (True, 512, 1024), (1, 2, 3), (-5, 2, 3), ("256",), 5):
        with pytest.raises(PreconditionError):
            small_config(levels=levels)


@pytest.mark.parametrize("name, bad", [
    ("seed", -1), ("seed", True), ("seed", "1"),
    # fixed ids, so that a case keeps its name when the list changes
    *(pytest.param("spirality", bad, id=f"spirality-bad{k}")
      for k, bad in enumerate([(1.0,), (1.0, "a"), (True, 1.0), (1.0, np.nan),
                               (-np.inf, 1.0), (1.0, 2.0, 3.0)], start=12)),
    ("spirality", 1.0),
    ("gamma", True), ("gamma", "0.3"), ("gamma", np.nan),
    ("gamma", complex(0.2, np.inf)), ("levels", 5),
])
def test_config_rejects_bad_integer_settings(name, bad):
    """Each used to run with a silently changed meaning or fail deep in
    the probe: spirality=(1.0,) raised IndexError in run_probe,
    gamma=True ran gamma = 1, "0.3" ran 0.3, a NaN gamma failed in
    run_probe on a non-finite sampled function, and levels=5 raised
    TypeError."""
    with pytest.raises(PreconditionError, match=name):
        small_config(**{name: bad})


@pytest.mark.parametrize("bad", [True, "0.3", np.nan, complex(np.inf, 0.0)])
def test_run_sweep_rejects_bad_gammas(bad):
    """Checked before any level runs, as the config checks its gamma."""
    with pytest.raises(PreconditionError, match="each of gammas"):
        cl.run_sweep(small_config(), [0.1, bad])


@pytest.mark.parametrize("gammas", [[0.7, 0.7 + 0j], [0.0, -0.0],
                                    [0.1j, 0.3, complex(-0.0, 0.1)]])
def test_run_sweep_rejects_repeated_gamma(monkeypatch, gammas):
    """A repeat used to run twice and land in both cells: each read every
    level and row twice and the trend indeterminate.  Checked before any
    level runs."""
    monkeypatch.setattr(harness, "build_curve", None)
    with pytest.raises(PreconditionError,
                       match=re.escape(f"gamma {complex(gammas[-1])} is "
                                       "repeated")):
        cl.run_sweep(small_config(), gammas)


def test_config_accepts_smallest_integer_settings():
    small_config(seed=0)
    small_config(seed=np.int64(7))
    small_config(levels=(np.int64(2), 3, 4), spirality=[np.float64(-1.0), 1])


def test_classify_trend():
    assert cl.classify_trend([1.0, 2.0, 4.0]) == "growing"
    assert cl.classify_trend([5.0, 5.1, 5.2]) == "stable"
    assert cl.classify_trend([1.0, 1.2, 1.45]) == "indeterminate"
    assert cl.classify_trend([1.0, 3.0, 2.9]) == "indeterminate"
    assert cl.classify_trend([4.0, 2.0, 1.0]) == "stable"
    assert cl.classify_trend([1.0, 2.0]) == "indeterminate"


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_classify_trend_rejects_non_finite(bad):
    with pytest.raises(PreconditionError):
        cl.classify_trend([1.0, bad, 2.0])
    with pytest.raises(PreconditionError):
        cl.classify_trend([bad])


def test_probe_report_rejects_non_finite():
    verdict = cl.check_kps(2.0, 0.0)
    with pytest.raises(PreconditionError):
        cl.ProbeReport(0j, (256, 512, 1024), (1.0, np.inf, 1.0), "stable",
                    verdict)


def test_non_finite_ratio_is_skipped():
    # phi^-1 reaches exp(700) on the extremal profile, whose norm is 1e-122
    config = cl.ExperimentConfig(
        curve={"kind": "log_spiral", "delta": 20.0, "r_min": 1e-3},
        exponent={"kind": "profile", "p_at": 1.5, "p_far": 2.5},
        gamma=10j, levels=(1024, 2048, 4096))
    report = cl.run_probe(config)
    assert report.skipped == tuple((n, "extremal", "non-finite ratio")
                                   for n in config.levels)
    assert all(np.isfinite(r) for r in report.max_ratios)
    assert all(np.isfinite(row["ratio"]) for row in report.rows)


def test_gamma_rectangle_count():
    grid = cl.gamma_rectangle(-0.6, 0.6, -0.6, 0.6, 0.2)
    assert len(grid) == 49
    assert min(abs(g) for g in grid) < 1e-12


def test_gamma_rectangle_rejects_empty():
    """A max below its min gave an empty grid, on which sweep crashed."""
    for bounds in ((0.2, -0.2, 0.0, 0.0), (0.0, 0.0, 0.1, -0.1)):
        with pytest.raises(PreconditionError, match="max is below its min"):
            cl.gamma_rectangle(*bounds, 0.2)


def test_build_curve_kinds():
    required = {"log_spiral": {"delta": 1.0},
                "mixed_spirality": {"alpha": -1.0, "beta": 1.0}}
    for kind in ("circle", "graded_circle", "log_spiral", "mixed_spirality",
                 "segment", "corner"):
        spec = {"kind": kind, **required.get(kind, {})}
        curve, t0, join = build_curve(spec, 512)
        assert curve.n_samples >= 256
        assert join == (kind == "graded_circle")
    with pytest.raises(PreconditionError):
        build_curve({"kind": "nonagon"}, 512)


@pytest.mark.parametrize("n", [7, 256, 4096])
def test_segment_kind_is_the_delta_zero_log_spiral(n):
    """The straight ray on log-spaced radii, byte for byte."""
    curve, t0, _ = build_curve({"kind": "segment", "r_min": 1e-3,
                                "r_max": 2.0}, n)
    spiral = cl.generate_log_spiral(0.0, 1e-3, 2.0, n)
    assert t0 == 0j
    assert curve.samples.tobytes() == spiral.samples.tobytes()
    assert curve.cumlen.tobytes() == spiral.cumlen.tobytes()
    r = np.geomspace(1e-3, 2.0, n)
    assert curve.samples.tobytes() == r.astype(np.complex128).tobytes()
    assert curve.cumlen.tobytes() == (r - 1e-3).tobytes()


def test_build_curve_rejects_unknown_key():
    """A misspelled key raises instead of falling back to the default."""
    with pytest.raises(PreconditionError,
                       match="'r_minscale'.*r_min, r_min_scale, r_max"):
        build_curve({"kind": "log_spiral", "delta": 1.0,
                     "r_minscale": 8.0}, 512)
    # a key that another kind reads is unknown to this one
    with pytest.raises(PreconditionError, match="'r_min_scale'"):
        build_curve({"kind": "graded_circle", "r_min_scale": 16.0}, 512)


def test_build_curve_rejects_missing_key():
    """A missing required key raises PreconditionError, not KeyError."""
    with pytest.raises(PreconditionError,
                       match="'log_spiral' requires 'delta'"):
        build_curve({"kind": "log_spiral"}, 512)
    with pytest.raises(PreconditionError,
                       match="'mixed_spirality' requires 'beta'"):
        build_curve({"kind": "mixed_spirality", "alpha": -1.0}, 512)
    with pytest.raises(PreconditionError, match="requires 'alpha', 'beta'"):
        build_curve({"kind": "mixed_spirality"}, 512)


def test_build_curve_rejects_r_min_with_r_min_scale():
    """r_min_scale would silently replace r_min; passing both raises."""
    with pytest.raises(PreconditionError, match="r_min or r_min_scale"):
        build_curve({"kind": "log_spiral", "delta": 1.0, "r_min": 1e-3,
                     "r_min_scale": 16.0}, 512)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "circle", "radius": "2"}, "'radius' must be a real number"),
    ({"kind": ["x"]}, "unknown curve kind: \\['x'\\]"),
    ({"kind": "log_spiral", "delta": None}, "'delta' must be a real number"),
    ({"kind": "circle", "radius": True}, "'radius' must be a real number"),
    ({"kind": "graded_circle", "grade": np.inf}, "'grade' must be finite"),
    ({"kind": "graded_circle", "grade": np.nan}, "'grade' must be finite"),
    ({"kind": "graded_circle", "radius": np.nan}, "'radius' must be finite"),
    ({"kind": "circle", "radius": np.inf}, "'radius' must be finite"),
    ({"kind": "graded_circle", "t0_angle": np.inf},
     "'t0_angle' must be finite"),
    ({"kind": "segment", "r_max": np.nan}, "'r_max' must be finite"),
    ({"kind": "mixed_spirality", "alpha": np.inf, "beta": 1.0},
     "'alpha' must be finite"),
    ({"kind": "segment", "r_min": 2.0, "r_max": 1.0},
     "^need 0 < r_min < r_max$"),
    ({"kind": "graded_circle", "grade": 0.0},
     "^grade 0 gives theta_min .* = 1 at n=64, which must lie below pi/4$"),
    ({"kind": "graded_circle", "grade": -2.0},
     "^grade -2 gives theta_min .* = 104 at n=64"),
], ids=["str", "list-kind", "none", "bool", "inf-grade", "nan-grade",
        "nan-radius", "inf-radius", "inf-t0_angle", "nan-r_max",
        "inf-alpha", "segment-r_min-above-r_max", "zero-grade",
        "negative-grade"])
def test_build_curve_rejects_values_of_the_wrong_type(spec, message):
    """A kind is a string and every other value a finite real number: a
    string radius and a list kind raised TypeError, a None delta too, a
    True radius built the unit circle, an infinite grade was accepted with
    theta_min at the float floor, a NaN one failed naming theta_min, and
    the other non-finite values failed as non-finite samples after numpy
    RuntimeWarnings, naming no key.  A segment with r_min above r_max
    failed naming a delta, which the segment spec does not have, and a
    graded circle whose grade gives theta_min >= pi/4 failed naming only
    theta_min, which it does not have either."""
    with pytest.raises(PreconditionError, match=message):
        build_curve(spec, 64)


def test_build_curve_reads_numpy_reals_not_numpy_bools():
    curve, t0, _ = build_curve({"kind": "circle", "radius": np.float64(2.0),
                                "t0_angle": np.int64(0)}, 64)
    want = build_curve({"kind": "circle", "radius": 2.0}, 64)[0]
    assert np.array_equal(curve.samples, want.samples)
    assert t0 == 2.0
    with pytest.raises(PreconditionError, match="must be a real number"):
        build_curve({"kind": "circle", "radius": np.True_}, 64)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "constant"}, "'constant' requires 'value'"),
    ({"kind": "profile", "p_at": 1.8}, "'profile' requires 'p_far'"),
    ({"kind": "constant", "value": 2.0, "p_far": 3.0},
     "'constant' does not read 'p_far'; it accepts value"),
    ({"kind": "table", "values": [2.0] * 256},
     "unknown exponent kind: 'table'"),
    ({"kind": "constant", "value": np.inf}, "'value' must be finite"),
    ({"kind": "profile", "p_at": np.nan, "p_far": 2.2},
     "'p_at' must be finite"),
    ({"kind": "profile", "p_at": 1.8, "p_far": np.inf},
     "'p_far' must be finite"),
])
def test_build_exponent_rejects_bad_spec(spec, message):
    """Exponent specs are checked like curve specs: PreconditionError, not
    KeyError, and no key is silently ignored."""
    curve = cl.generate_log_spiral(0.0, 1e-3, 1.0, 256)
    with pytest.raises(PreconditionError, match=message):
        build_exponent(curve, spec, 0j)


def test_probe_rejects_missing_key():
    config = small_config(curve={"kind": "log_spiral", "r_min_scale": 4.0})
    with pytest.raises(PreconditionError, match="requires 'delta'"):
        cl.run_probe(config)


def test_r_min_scale_deepens_with_level():
    spec = {"kind": "log_spiral", "delta": 1.0, "r_min_scale": 8.0}
    c1, _, _ = build_curve(spec, 256)
    c2, _, _ = build_curve(spec, 512)
    assert np.min(np.abs(c1.samples)) == pytest.approx(8.0 / 256)
    assert np.min(np.abs(c2.samples)) == pytest.approx(8.0 / 512)


def test_probe_deterministic_bytes():
    r1 = cl.run_probe(small_config())
    r2 = cl.run_probe(small_config())
    assert probe_report_csv(r1) == probe_report_csv(r2)
    assert probe_report_json(r1) == probe_report_json(r2)


def test_probe_ratio_sanity_nonnegative_family():
    # for gamma = 0 and constant p the arc-indicator ratios are near or
    # above 1: averages of nonnegative f dominate f itself at scale zero
    report = cl.run_probe(small_config())
    arc_rows = [r for r in report.rows if r["function"].startswith("arc")]
    assert arc_rows
    assert all(r["ratio"] >= 0.9 for r in arc_rows)


def test_probe_report_fields():
    report = cl.run_probe(small_config(gamma=0.2))
    assert report.levels == (256, 512, 1024)
    assert len(report.max_ratios) == 3
    assert all(r > 0 for r in report.max_ratios)
    assert report.verdict.classification == cl.KPS_BOUNDED
    assert report.trend in ("stable", "growing", "indeterminate")


def test_sweep_rows_and_csv():
    gammas = [0.0, 0.3, 0.7]
    reports = cl.run_sweep(small_config(), [complex(g) for g in gammas])
    text = sweep_csv(reports)
    lines = text.split("\r\n")
    assert lines[0].startswith("re_gamma,im_gamma,lower,upper")
    assert len(lines) == len(gammas) + 2
    assert "NECESSARY_VIOLATED" in lines[3]


def test_sweep_matches_single_probes_byte_for_byte():
    # the sweep shares arcs, random functions and their norms across gammas
    config = small_config(spirality=(1.0, 1.0))
    gammas = [0.0, 0.3 + 0.2j, -0.4]
    reports = cl.run_sweep(config, gammas)
    for gamma, swept in zip(gammas, reports):
        solo = cl.run_probe(small_config(gamma=gamma, spirality=(1.0, 1.0)))
        assert probe_report_csv(solo) == probe_report_csv(swept)
        assert probe_report_json(solo) == probe_report_json(swept)


def _rotated_sweep(angle):
    config = cl.ExperimentConfig(
        curve={"kind": "graded_circle", "radius": 1.0, "grade": 3.0,
               "t0_angle": angle},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.55, levels=(512, 1024, 2048), seed=0)
    return cl.run_sweep(config, [0.55, 0.3j])


@pytest.fixture(scope="module")
def unrotated_sweep():
    return _rotated_sweep(0.0)


@pytest.mark.parametrize("angle", [0.7, math.pi / 2, 2.0])
def test_probe_invariant_under_rotation(unrotated_sweep, angle):
    """The weights depend only on tau - t0, so rotating the graded circle
    with its t0 keeps every row, skip, verdict and trend; the ratios move
    by rounding only (at most 6.9e-9 relative, at pi/2)."""
    for want, got in zip(unrotated_sweep, _rotated_sweep(angle),
                         strict=True):
        assert got.trend == want.trend
        assert got.verdict.classification == want.verdict.classification
        assert got.skipped == want.skipped
        assert [(r["level"], r["function"]) for r in got.rows] \
            == [(r["level"], r["function"]) for r in want.rows]
        for row, ref in zip(got.rows, want.rows):
            assert row["ratio"] == pytest.approx(ref["ratio"], rel=1e-7,
                                                 abs=0.0), row["function"]


ARC_CURVES = {
    "graded_circle": ({"kind": "graded_circle", "radius": 1.0,
                       "grade": 3.0}, 8192),
    "segment": ({"kind": "segment", "r_min": 1e-6}, 4096),
    "spiral_1": ({"kind": "log_spiral", "delta": 1.0, "r_min": 1e-4}, 4096),
    "corner": ({"kind": "corner", "turn": math.pi / 2, "r_min": 1e-6}, 4096),
    "mixed": ({"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min_scale": 118.0, "r_max": math.e ** 2}, 4096),
    # closed, with t0 on its first sample: d_min = 0, so the cap binds
    "circle": ({"kind": "circle", "t0_angle": 0.0}, 1000),
}


@pytest.mark.parametrize("name", ARC_CURVES)
def test_nested_arcs_are_omega_arcs(name):
    """One distance pass gives omega_arc's masks byte for byte, each
    holding the next."""
    spec, n = ARC_CURVES[name]
    curve, t0, join_ends = build_curve(spec, n)
    arcs, _ = harness._nested_arc_indicators(curve, t0, join_ends)
    assert len(arcs) >= 5
    delta = cl.d_t(curve, t0) / 4.0
    for j, (tag, mask) in enumerate(arcs):
        assert tag == f"arc_j{j}"
        want = cl.omega_arc(curve, t0, delta, join_ends=join_ends)
        assert mask.dtype == bool and mask.tobytes() == want.tobytes(), tag
        delta *= 0.5
    for (_, outer), (_, inner) in zip(arcs, arcs[1:]):
        assert not np.any(inner & ~outer)


def test_nested_arc_cap_is_reported():
    """The segment at r_min 1e-48 resolves arcs far below delta_60; the
    halving stops at MAX_ARCS and each gamma's skipped list says so."""
    config = small_config(curve={"kind": "segment", "r_min": 1e-48},
                          levels=(8192,))
    curve, t0, join_ends = build_curve(config.curve, 8192)
    arcs, note = harness._nested_arc_indicators(curve, t0, join_ends)
    assert len(arcs) == harness.MAX_ARCS == 60
    assert note == ("nested arcs stop at MAX_ARCS = 60: the last has delta "
                    "4.33681e-19, above the resolution 2 * d_min = 2e-48")
    for report in cl.run_sweep(config, [0.3, 0.2 + 0.1j]):
        assert report.skipped == ((8192, "arc_j60", note),)
        assert sum(r["function"].startswith("warc") for r in report.rows) \
            == 60


@pytest.mark.parametrize("spec, levels, n_arcs", [
    ({"kind": "graded_circle", "radius": 1.0, "grade": 3.0},
     (2048, 8192, 32768), 34),
    ({"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
      "r_min_scale": 118.0, "r_max": math.e ** 2},
     (2048, 4096, 8192, 16384), 8),
], ids=["kps_ladder", "mixed_spiral_probe"])
def test_benchmark_ladders_stay_below_the_arc_cap(spec, levels, n_arcs):
    """The benchmark's probes resolve their arcs before the cap: no level
    reports it, and the top level has 34 and 8 arcs."""
    for n in levels:
        arcs, note = harness._nested_arc_indicators(*build_curve(spec, n))
        assert note is None
    assert len(arcs) == n_arcs


def test_denominator_skip_reasons(segment):
    one = cl.unit_weight(segment)
    p = cl.constant_exponent(segment, 2.0)

    def denominator(f, w):
        dens = _denominators(segment, Group(("f",), f, None, ()), w, p)
        assert len(dens) == 1
        return dens[0]

    assert denominator(np.zeros(segment.n_samples), one) \
        == (None, "zero norm")
    huge = np.full(segment.n_samples, 1e300)
    steep = cl.power_weight(segment, 0j, -50.0)
    den, reason = denominator(huge, steep)
    assert den is None and "overflows" in reason
    den, reason = denominator(np.ones(segment.n_samples), one)
    assert reason is None and den > 0.0


def test_spirality_override_used():
    config = small_config(gamma=0.1j, spirality=(-1.0, 1.0))
    report = cl.run_probe(config)
    assert report.verdict.lower == pytest.approx(0.5 - 0.1)
    assert report.verdict.upper == pytest.approx(0.5 + 0.1)


def test_sweep_fits_spirality_once(monkeypatch):
    calls = []

    def counted(curve, t0):
        calls.append(curve.n_samples)
        return cl.spirality_indices(curve, t0)

    monkeypatch.setattr(harness, "spirality_indices", counted)
    config = small_config(curve={"kind": "log_spiral", "delta": 1.0,
                                 "r_min": 1e-4})
    reports = cl.run_sweep(config, [0.1j, 0.0, 0.2 + 0.1j])
    assert len(calls) == 1
    assert [r.verdict.classification for r in reports] == [
        cl.MAIN_THM_BOUNDED, cl.KPS_BOUNDED, cl.MAIN_THM_BOUNDED]


def test_verdicts_come_before_the_ladder(monkeypatch):
    """A top-level curve too shallow for the spirality fit raises before
    any level builds an evaluator, not after the whole ladder."""
    def no_evaluator(*args, **kwargs):
        raise AssertionError("a level ran before the verdicts")

    monkeypatch.setattr(harness, "MaximalEvaluator", no_evaluator)
    config = cl.ExperimentConfig(
        curve={"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min_scale": 118.0, "r_max": math.e ** 2},
        exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
        gamma=1j, levels=(2048, 4096, 8192))
    with pytest.raises(AllAnnuliEmpty):
        cl.run_sweep(config, [0.1j, 0.2 + 0.1j, 1j])


@pytest.mark.parametrize("levels", [(256, 512, 1024), (1024, 2048, 4096)])
def test_verdict_reads_p_at_t0_from_the_profile(levels):
    """p(t0) is the profile's p_at, its limit at t0: lambda = 0.45 with
    p_at = 1.8 has the bracket 1/1.8 + 0.45 > 1 at every depth.  Read with
    p at the top-level sample nearest t0, the bracket was 0.954 at 1024
    and 0.973 at 4096, both KPS_BOUNDED."""
    report = cl.run_probe(cl.ExperimentConfig(
        curve={"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min_scale": 118.0, "r_max": math.e ** 2},
        exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
        gamma=0.45, levels=levels))
    assert report.verdict.lower == pytest.approx(1.0 / 1.8 + 0.45)
    assert report.verdict.classification == cl.NECESSARY_VIOLATED


def test_real_gamma_verdicts_build_no_curve(monkeypatch):
    """A real-gamma sweep reads p(t0) from the spec and fits no
    spirality, so it builds only its levels' curves."""
    built = []

    def counted(spec, n):
        built.append(n)
        return build_curve(spec, n)

    monkeypatch.setattr(harness, "build_curve", counted)
    cl.run_sweep(small_config(), [0.0, 0.3])
    assert built == [256, 512, 1024]


@pytest.mark.parametrize("curve, message", [
    ({"kind": "log_spiral", "delta": 1.0, "radius": 1.0},
     "does not read 'radius'"),
    ({"kind": "log_spiral", "delta": np.inf}, "'delta' must be finite"),
    ({"kind": "circle"}, "use graded_circle"),
    ({"kind": "circle", "t0_angle": 0.3}, "use graded_circle"),
], ids=["unknown-key", "inf-delta", "circle", "circle-off-sample"])
def test_run_sweep_checks_the_curve_spec_first(monkeypatch, curve, message):
    """A bad curve spec fails before any curve is built.  A circle is not
    refined toward t0, so its ladder resolves no finer scale there: its
    default t0 fell on sample 0 and failed naming that, and t0_angle 0.3
    read gamma = 0.7 as indeterminate, where the theory says unbounded."""
    monkeypatch.setattr(harness, "build_curve", None)
    with pytest.raises(PreconditionError, match=message):
        cl.run_sweep(small_config(curve=curve), [0.7, 0.2j])


# --- CLI ---------------------------------------------------------------------


def test_cli_gen_curve_and_indices(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gen-curve", "--out", str(tmp_path),
                               "--kind", "log-spiral", "--delta", "1.0",
                               "--r-min", "1e-4", "--n", "4096",
                               "--name", "sp.json"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "sp.json").exists()

    res = runner.invoke(main, ["indices",
                               "--curve", str(tmp_path / "sp.json"),
                               "--out", str(tmp_path), "--t0", "0",
                               "--csv", "rho.csv"])
    assert res.exit_code == 0, res.output
    assert "spirality indices" in res.output
    assert "(0.99" in res.output or "(1.00" in res.output
    assert (tmp_path / "rho.csv").exists()


def test_cli_exit_code_2_on_precondition(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gen-curve", "--out", str(tmp_path),
                               "--kind", "circle", "--n", "8"])
    assert res.exit_code == 2
    assert "precondition" in res.output


def test_cli_probe_missing_key_exits_2(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["probe", "--out", str(tmp_path),
                               "--levels", "256,512,1024",
                               "--kind", "log-spiral",
                               "--gamma", "0.2"])
    assert res.exit_code == 2
    assert "requires 'delta'" in res.output


def test_cli_probe_negative_seed_exits_2(tmp_path):
    """It used to exit 1 with numpy's traceback after the first level."""
    res = CliRunner().invoke(main, ["probe", "--out", str(tmp_path),
                                    "--levels", "256,512,1024",
                                    "--kind", "graded-circle",
                                    "--gamma", "0.2", "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert "seed must be an integer >= 0" in res.output
    assert not list(tmp_path.iterdir())


def test_cli_exit_code_3_on_numerical(tmp_path):
    # t0 is the midpoint of a chord of the 16-sample circle: the branch
    # unwrap sees an angular increment of pi there
    res = CliRunner().invoke(main, [
        "indices", "--kind", "circle", "--n", "16", "--out", str(tmp_path),
        "--t0", "0.9619397662556434+0.1913417161825449j"])
    assert res.exit_code == 3
    assert "numerical" in res.output
    assert "angular increment 3.141593" in res.output


def test_cli_apcheck_and_norm(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["apcheck",
                               "--kind", "graded-circle", "--n", "2048",
                               "--t0", "1", "--gamma", "0.3"])
    assert res.exit_code == 0, res.output
    assert "A_2 estimate" in res.output

    res = runner.invoke(main, ["norm",
                               "--kind", "circle", "--n", "2048",
                               "--t0", "0", "--p", "2.0"])
    assert res.exit_code == 0, res.output
    value = float(res.output.strip().split()[-1])
    assert value == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)


def test_cli_gamma_replaces_lam(tmp_path):
    """apcheck --gamma 0.3 and norm --gamma 0.3 print the lines that
    --lam 0.3 printed before; --lam is gone from both."""
    runner = CliRunner()
    args = ["--kind", "graded-circle", "--n", "2048", "--t0", "1"]
    expected = {"apcheck": "A_2 estimate: 3.795619\n",
                "norm": "norm: 2.6400753847\n"}
    for cmd, line in expected.items():
        res = runner.invoke(main, [cmd, *args, "--gamma", "0.3"])
        assert (res.exit_code, res.output) == (0, line)
        res = runner.invoke(main, [cmd, *args, "--lam", "0.3"])
        assert res.exit_code == 2
        assert "--lam" in res.output


# per kind, gen-curve options other than the kind's defaults
CURVE_OPTIONS = {
    "circle": ["--radius", "2", "--t0-angle", "0.5"],
    "graded_circle": ["--radius", "1.5", "--t0-angle", "1", "--grade",
                      "2.5"],
    "log_spiral": ["--delta", "1", "--r-min", "1e-3"],
    "mixed_spirality": ["--alpha", "-1", "--beta", "1", "--r-max", "7.389"],
    "segment": ["--r-min", "1e-3", "--r-max", "2"],
    "corner": ["--turn", "1", "--r-min", "1e-3"],
}


def _gen_curve(tmp_path, kind, n="512"):
    """The path of a gen-curve file of kind with CURVE_OPTIONS[kind]."""
    res = CliRunner().invoke(main, [
        "gen-curve", "--out", str(tmp_path), "--kind", kind.replace("_", "-"),
        *CURVE_OPTIONS[kind], "--n", n, "--name", f"{kind}.json"])
    assert res.exit_code == 0, res.output
    return tmp_path / f"{kind}.json"


@pytest.mark.parametrize("kind", list(CURVE_KEYS))
def test_cli_curve_file_is_the_spec(tmp_path, kind):
    """A gen-curve file is the spec and n, and builds the curve, t0 and
    join_ends that build_curve builds from them, bit for bit."""
    assert list(CURVE_OPTIONS) == list(CURVE_KEYS)
    path = _gen_curve(tmp_path, kind)
    spec = {"kind": kind}
    opts = CURVE_OPTIONS[kind]
    spec.update((k[2:].replace("-", "_"), float(v))
                for k, v in zip(opts[::2], opts[1::2]))
    text = path.read_text()
    assert text == json.dumps({**spec, "n": 512}, sort_keys=True) + "\n"
    want_curve, want_t0, want_join = build_curve(spec, 512)
    curve, t0, join_ends = build_curve(*_read_spec(path))
    assert curve.samples.tobytes() == want_curve.samples.tobytes()
    assert curve.cumlen.tobytes() == want_curve.cumlen.tobytes()
    assert curve.closed == want_curve.closed
    assert (t0, join_ends) == (want_t0, want_join)


@pytest.mark.parametrize("text, message", [
    ("not json", "malformed curve file"),
    ('{"kind": "circle", "radius": NaN, "n": 64}',
     "non-finite constant in curve file: NaN"),
    ('{"kind": "circle"}', "no integer 'n'"),
    ('{"kind": "circle", "n": 64.0}', "no integer 'n'"),
    ('{"kind": "circle", "n": true}', "no integer 'n'"),
    ('[{"kind": "circle", "n": 64}]', "must be a JSON object"),
    ('{"points":[[1,0],[0,1]],"closed":false,"provenance":"x"}',
     "regenerate it with gen-curve"),
    ('{"kind": "circle", "delta": 1.0, "n": 64}', "does not read 'delta'"),
    ('{"kind": "circle", "radius": "2", "n": 64}', "must be a real number"),
    ('{"kind": ["x"], "n": 64}', "unknown curve kind"),
    ('{"kind": "log_spiral", "delta": null, "n": 64}',
     "must be a real number"),
    ('{"kind": "circle", "radius": true, "n": 64}', "must be a real number"),
    (None, "does not exist"),
], ids=["malformed", "nonfinite", "missing-n", "float-n", "bool-n",
        "not-object", "points-file", "spec-error", "str-value", "list-kind",
        "null-value", "bool-value", "missing-path"])
def test_cli_bad_curve_file_exits_2(tmp_path, text, message):
    """A curve file that is no gen-curve spec exits 2, and so does a
    missing path, instead of a traceback with exit 1."""
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    res = CliRunner().invoke(main, ["apcheck", "--curve", str(path),
                                    "--gamma", "0.3"])
    assert res.exit_code == 2, res.output
    assert message in res.output


def _outcome(args, out):
    """(exit code, stdout, {file name: bytes}) of one CLI call writing to
    the fresh directory out, which stdout names as <out>."""
    out.mkdir()
    if args[0] in ("indices", "maximal"):
        args = [*args, "--out", str(out)]
    res = CliRunner().invoke(main, args)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return res.exit_code, res.output.replace(str(out), "<out>"), files


@pytest.mark.parametrize("kind", list(CURVE_KEYS))
def test_cli_curve_file_matches_kind(tmp_path, kind):
    """indices, apcheck, norm and maximal read the same curve and t0 from
    a gen-curve file, without --t0, as from --kind with the same options,
    and --t0 replaces t0 for both."""
    path = _gen_curve(tmp_path, kind)
    source = {"kind": ["--kind", kind.replace("_", "-"),
                       *CURVE_OPTIONS[kind], "--n", "512"],
              "file": ["--curve", str(path)]}
    for cmd in (["indices", "--csv", "rho.csv"],
                ["apcheck", "--gamma", "0.3"], ["norm", "--gamma", "0.2"],
                ["maximal", "--gamma", "0.3", "--arc-radius", "0.05"]):
        outcomes = []
        for t0 in ([], ["--t0", "0.001+0.002j"]):
            got = {name: _outcome([*cmd, *args, *t0],
                                  tmp_path / f"{name}-{cmd[0]}-{len(t0)}")
                   for name, args in source.items()}
            assert got["file"] == got["kind"], (cmd, t0)
            outcomes.append(got["file"])
        assert outcomes[0] != outcomes[1], cmd


def test_cli_curve_file_excludes_kind_options_and_n(tmp_path):
    """--curve exits 2 with --kind, a curve option or an explicit --n
    instead of letting the file win over them silently."""
    runner = CliRunner()
    res = runner.invoke(main, ["gen-curve", "--out", str(tmp_path), "--kind",
                               "graded-circle", "--n", "2048", "--name",
                               "g.json"])
    assert res.exit_code == 0, res.output
    top = ["apcheck", "--curve", str(tmp_path / "g.json"), "--gamma", "0.3"]
    for extra, named in ((["--kind", "graded-circle"], "--kind"),
                         (["--delta", "5"], "--delta"),
                         (["--n", "4096"], "--n")):
        res = runner.invoke(main, [*top, *extra])
        assert res.exit_code == 2, (extra, res.output)
        assert f"--curve excludes {named}" in res.output
    res = runner.invoke(main, top)
    assert (res.exit_code, res.output) == (0, "A_2 estimate: 3.795619\n")


@pytest.mark.parametrize("args", [
    ["probe", "--kind", "graded-circle", "--gamma", "0.2", "--t0", "0.5"],
    ["probe", "--kind", "graded-circle", "--gamma", "0.2", "--n", "7"],
    ["sweep", "--kind", "log-spiral", "--delta", "1.0", "--t0", "0",
     "--re-min", "0", "--re-max", "0", "--im-min", "0", "--im-max", "0",
     "--step", "0.2"],
    ["gen-curve", "--kind", "graded-circle", "--t0", "0.5"],
    # the options the command group used to take, which a command ignored
    ["--curve", "nonexistent.json", "--levels", "1,2", "verdict", "--p-at",
     "2", "--gamma", "0.3"],
    ["--curve", "g.json", "gen-curve", "--kind", "circle", "--n", "64"],
    ["--curve", "g.json", "--levels", "256,512,1024", "probe", "--kind",
     "graded-circle", "--gamma", "0.2"],
    ["--seed", "5", "norm", "--kind", "circle", "--n", "64", "--t0", "0"],
    ["--levels", "256,512", "apcheck", "--kind", "graded-circle", "--n",
     "2048", "--t0", "1", "--gamma", "0.3"],
])
def test_cli_rejects_options_a_command_ignores(tmp_path, monkeypatch, args):
    """probe and sweep read neither --n nor --t0, gen-curve no --t0, and
    the group no option; click exits 2 on each before anything runs."""
    monkeypatch.chdir(tmp_path)  # where a command without --out writes
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert "No such option" in res.output
    assert not any(tmp_path.iterdir())


def test_cli_commands_take_the_options_they_read():
    """--curve, --out, --levels and --seed sit on the commands that read
    them; the group takes none, and the 18 other pairs exit 2."""
    readers = {
        "--curve": {"indices", "apcheck", "norm", "maximal"},
        "--out": {"gen-curve", "indices", "maximal", "verdict", "probe",
                  "sweep"},
        "--levels": {"probe", "sweep"},
        "--seed": {"probe", "sweep"},
    }
    assert main.params == []
    runner = CliRunner()
    rejected = 0
    for name, command in main.commands.items():
        options = {o for param in command.params for o in param.opts}
        for option, commands in readers.items():
            assert (option in options) == (name in commands), (name, option)
            if name not in commands:
                res = runner.invoke(main, [name, option, "1"])
                assert res.exit_code == 2, (name, option)
                assert f"No such option '{option}'" in res.output
                rejected += 1
    assert rejected == 18


PROBE = ["probe", "--levels", "256,512,1024", "--kind", "graded-circle",
         "--gamma", "0.2"]
SWEEP = ["sweep", "--levels", "256,512", "--kind", "log-spiral", "--delta",
         "1", "--re-min", "0", "--re-max", "0", "--im-min", "0", "--im-max",
         "0", "--step", "0.2"]


@pytest.mark.parametrize("args, message", [
    (["probe", "--levels", "256,abc", "--kind", "graded-circle", "--gamma",
      "0.2"], "--levels takes comma-separated integers, got '256,abc'"),
    (["sweep", "--levels", "256,512", "--kind", "log-spiral", "--delta", "1",
      "--re-min", "0.2", "--re-max", "-0.2", "--im-min", "0", "--im-max", "0",
      "--step", "0.2"], "max is below its min"),
    ([*PROBE, "--p-at", "1.5"], "'profile' requires 'p_far'"),
    ([*PROBE, "--p-far", "2.2"], "'profile' requires 'p_at'"),
    ([*SWEEP, "--p-at", "1.5"], "'profile' requires 'p_far'"),
    ([*PROBE, "--p", "2", "--p-at", "1.8", "--p-far", "2.2"],
     "--p excludes --p-at and --p-far"),
    ([*SWEEP, "--p", "1.5", "--p-far", "2.2"],
     "--p excludes --p-at and --p-far"),
])
def test_cli_malformed_probe_input_exits_2(tmp_path, args, message):
    """A malformed --levels, an empty gamma rectangle, one of --p-at and
    --p-far without the other, and --p beside either are precondition
    errors, not a traceback with exit 1 or a silent constant p."""
    res = CliRunner().invoke(main, [*args, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "precondition error" in res.output and message in res.output
    assert not any(tmp_path.iterdir())


APCHECK = ["apcheck", "--kind", "graded-circle", "--n", "256", "--gamma",
           "0.3"]


@pytest.mark.parametrize("args, message", [
    ([*APCHECK, "--t0", "nan"], "complex number 'nan' is not finite"),
    ([*APCHECK, "--gamma", "nan"], "complex number 'nan' is not finite"),
    ([*APCHECK, "--gamma", "1e400"], "complex number '1e400' is not finite"),
    ([*PROBE, "--gamma", "nan"], "complex number 'nan' is not finite"),
    ([*SWEEP, "--step", "nan"], "step must be finite, got nan"),
    ([*SWEEP, "--re-min", "nan"], "re_min must be finite, got nan"),
    (["verdict", "--p-at", "2", "--gamma", "0.1j", "--delta-minus", "nan",
      "--delta-plus", "1"], "finite alpha and beta, got (nan, 1.0)"),
])
def test_cli_rejects_non_finite_numbers(tmp_path, args, message):
    """A NaN or overflowing --t0 or --gamma gave apcheck an A_2 estimate
    of 0 with exit 0, and probe a misleading error; a NaN --step or bound
    made sweep raise ValueError with exit 1; a NaN index made verdict
    write NaN, which is not JSON, into verdict.json."""
    if args[0] != "apcheck":
        args = [*args, "--out", str(tmp_path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "precondition error" in res.output and message in res.output
    assert not any(tmp_path.iterdir())


def test_cli_gen_curve_rejects_an_infinite_grade(tmp_path):
    """It used to write {"grade": Infinity, ...}, which --curve refused."""
    res = CliRunner().invoke(main, ["gen-curve", "--out", str(tmp_path),
                                    "--kind", "graded-circle", "--grade",
                                    "inf", "--n", "256"])
    assert res.exit_code == 2, res.output
    assert "curve key 'grade' must be finite, got inf" in res.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["probe", "--levels", "256,512,1024", "--gamma", "0.7"],
    ["sweep", "--levels", "256,512,1024", "--re-min", "0.7", "--re-max",
     "0.7", "--im-min", "0", "--im-max", "0", "--step", "0.1"],
], ids=["probe", "sweep"])
@pytest.mark.parametrize("angle", [[], ["--t0-angle", "0.3"]],
                         ids=["default", "off-sample"])
def test_cli_probes_reject_the_circle(tmp_path, command, angle):
    """probe and sweep name graded_circle and write nothing."""
    res = CliRunner().invoke(main, [*command, "--kind", "circle", *angle,
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "use graded_circle, not circle" in res.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra, named", [
    (["--delta-minus", "5"], "--delta-minus"),
    (["--delta-plus", "0"], "--delta-plus"),
    (["--delta-minus", "5", "--delta-plus", "9"],
     "--delta-minus, --delta-plus"),
], ids=["minus", "plus", "both"])
def test_cli_verdict_real_gamma_rejects_index_options(tmp_path, extra,
                                                      named):
    """check_kps reads no spirality indices: a real --gamma with either
    index option exits 2 and names them, instead of ignoring them."""
    args = ["verdict", "--out", str(tmp_path), "--p-at", "2", "--gamma",
            "0.3"]
    res = CliRunner().invoke(main, [*args, *extra])
    assert res.exit_code == 2, res.output
    assert f"a real --gamma reads no {named}\n" in res.output
    assert not any(tmp_path.iterdir())
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.output.startswith("KPS_BOUNDED (lower=0.800000")


def test_cli_kinds_are_the_curve_kinds(tmp_path):
    """--kind offers the kinds of CURVE_KEYS spelled with '-', and each
    generates from its required keys; the old alias 'mixed' is gone."""
    kind = next(p for p in main.commands["gen-curve"].params
                if p.name == "kind")
    assert list(kind.type.choices) == [k.replace("_", "-")
                                       for k in CURVE_KEYS]
    runner = CliRunner()
    for key in CURVE_KEYS:
        args = [a for k in REQUIRED_CURVE_KEYS.get(key, ())
                for a in (f"--{k}", "1.0")]
        res = runner.invoke(main, ["gen-curve", "--out", str(tmp_path),
                                   "--kind", key.replace("_", "-"), "--n",
                                   "512", *args])
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["gen-curve", "--out", str(tmp_path), "--kind",
                               "mixed", "--alpha", "-1", "--beta", "1"])
    assert res.exit_code == 2


def test_cli_maximal_and_verdict(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["maximal", "--out", str(tmp_path),
                               "--kind", "log-spiral", "--delta", "1.0",
                               "--r-min", "1e-3", "--n", "1024",
                               "--t0", "0", "--gamma", "0.2+0.1j",
                               "--arc-radius", "0.05"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "maximal.csv").exists()

    res = runner.invoke(main, ["verdict", "--out", str(tmp_path),
                               "--p-at", "2.0", "--gamma", "0.1j",
                               "--delta-minus", "-1", "--delta-plus", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["classification"] == "MAIN_THM_BOUNDED"


def test_cli_probe_graded_circle(tmp_path):
    """The probe adds r_min_scale only to kinds that read an r_min."""
    runner = CliRunner()
    res = runner.invoke(main, ["probe", "--out", str(tmp_path),
                               "--levels", "256,512,1024",
                               "--kind", "graded-circle",
                               "--gamma", "0.2", "--name", "gc"])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "gc.json").read_text())["levels"] == [
        256, 512, 1024]


def test_cli_probe_and_sweep(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["probe", "--out", str(tmp_path),
                               "--levels", "256,512",
                               "--kind", "log-spiral",
                               "--delta", "1.0", "--gamma", "0.2",
                               "--name", "p"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "p.csv").exists()
    assert (tmp_path / "p.json").exists()

    res = runner.invoke(main, ["sweep", "--out", str(tmp_path),
                               "--levels", "256,512",
                               "--kind", "log-spiral",
                               "--delta", "1.0",
                               "--re-min", "-0.2", "--re-max", "0.2",
                               "--im-min", "0.0", "--im-max", "0.0",
                               "--step", "0.2"])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "sweep.csv").read_bytes().decode().split("\r\n")
    assert len(lines) == 3 + 2  # header + 3 cells + trailing newline
