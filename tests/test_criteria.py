import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab.errors import NoAdmissibleDelta, PreconditionError

small_float = st.floats(-3.0, 3.0, allow_nan=False)


def test_check_main_bounded():
    v = cl.check_main(2.0, 0.3, cl.IndexPair(0.0, 0.0, {}))
    assert v.classification == cl.MAIN_THM_BOUNDED
    assert v.lower == pytest.approx(0.8)
    assert v.upper == pytest.approx(0.8)


def test_check_main_violated():
    v = cl.check_main(2.0, 1j, cl.IndexPair(-1.0, 1.0, {}))
    assert v.classification == cl.NECESSARY_VIOLATED
    assert v.lower == pytest.approx(-0.5)
    assert v.upper == pytest.approx(1.5)


def test_check_main_small_imaginary():
    v = cl.check_main(2.0, 0.1j, cl.IndexPair(-1.0, 1.0, {}))
    assert v.classification == cl.MAIN_THM_BOUNDED
    assert v.lower == pytest.approx(0.4)
    assert v.upper == pytest.approx(0.6)


def test_check_main_boundary_indeterminate():
    v = cl.check_main(2.0, 0.5, cl.IndexPair(0.0, 0.0, {}))
    assert v.classification == cl.INDETERMINATE


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_check_kps_rejects_non_finite_lambda(lam):
    """A NaN lam gave an INDETERMINATE verdict with NaN brackets, which
    verdict_to_json wrote as NaN, not valid JSON."""
    with pytest.raises(PreconditionError, match="lam must be finite"):
        cl.check_kps(2.0, lam)


@pytest.mark.parametrize("gamma", [math.nan, complex(0.3, math.nan),
                                   complex(math.inf, 0.0)])
def test_check_main_rejects_non_finite_gamma(gamma):
    """A NaN gamma failed in the index pair, whose message named alpha and
    beta, not gamma."""
    with pytest.raises(PreconditionError, match="gamma must be finite"):
        cl.check_main(2.0, gamma, cl.IndexPair(-1.0, 1.0, {}))


def test_kps_matches_main_for_real_gamma():
    spir = cl.IndexPair(-0.7, 1.3, {})
    for lam in (-0.6, 0.0, 0.3, 0.9):
        a = cl.check_main(1.5, lam, spir)
        b = cl.check_kps(1.5, lam)
        assert (a.lower, a.upper) == (b.lower, b.upper)


def test_kps_examples():
    assert cl.check_kps(2.0, 0.0).classification == cl.KPS_BOUNDED
    v = cl.check_kps(2.0, 0.5)
    assert v.classification == cl.INDETERMINATE
    assert v.iff_unbounded  # boundary is unbounded under the iff
    v = cl.check_kps(1.5, -0.6)
    assert v.classification == cl.KPS_BOUNDED
    assert v.lower == pytest.approx(1 / 1.5 - 0.6)
    v = cl.check_kps(2.0, 0.7)
    assert v.classification == cl.NECESSARY_VIOLATED and v.iff_unbounded


@settings(max_examples=100, deadline=None)
@given(p=st.floats(1.01, 20.0), re=small_float, im=small_float,
       dm=small_float, dp=small_float)
def test_main_swap_symmetry(p, re, im, dm, dp):
    # swapping the spirality indices while negating Im(gamma) leaves the
    # bracketing pair unchanged
    lo, hi = min(dm, dp), max(dm, dp)
    a = cl.check_main(p, complex(re, im), cl.IndexPair(lo, hi, {}))
    b = cl.check_main(p, complex(re, -im), cl.IndexPair(-hi, -lo, {}))
    assert a.lower == pytest.approx(b.lower, abs=1e-12)
    assert a.upper == pytest.approx(b.upper, abs=1e-12)
    assert a.classification == b.classification


def test_ersatz_constant_p_matches_main(segment):
    p = cl.constant_exponent(segment, 2.0)
    spir = cl.IndexPair(0.0, 0.0, {})
    v = cl.check_ersatz(2.0, p.p_min, 0.3, spir)
    m = cl.check_main(2.0, 0.3, spir)
    assert (v.lower, v.upper) == (m.lower, m.upper)
    assert v.upper_limit == 1.0
    assert v.classification == cl.ERSATZ_BOUNDED


def test_ersatz_variable_p_examples(segment):
    # p(t0) ~ 3 decaying to 1.5 away from the singularity
    p = cl.profile_exponent(segment, 0j, 3.0, 1.5)
    spir = cl.IndexPair(0.0, 0.0, {})
    ok = cl.check_ersatz(3.0, p.p_min, 0.1, spir)
    assert ok.classification == cl.ERSATZ_BOUNDED
    # gamma = 0.25 fails the ersatz bound while the main condition holds
    mid = cl.check_ersatz(3.0, p.p_min, 0.25, spir)
    assert mid.classification == cl.INDETERMINATE
    assert mid.upper > mid.upper_limit
    assert cl.check_main(3.0, 0.25, spir).classification \
        == cl.MAIN_THM_BOUNDED


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-0.4, 0.4), im=st.floats(- 0.3, 0.3),
       p0=st.floats(1.5, 4.0))
def test_ersatz_bounded_implies_main(segment, re, im, p0):
    spir = cl.IndexPair(-0.5, 0.5, {})
    pf = cl.constant_exponent(segment, p0)
    v = cl.check_ersatz(p0, pf.p_min, complex(re, im), spir)
    if v.classification == cl.ERSATZ_BOUNDED:
        m = cl.check_main(p0, complex(re, im), spir)
        assert m.classification == cl.MAIN_THM_BOUNDED


def test_select_constant_p_default_delta(segment):
    p = cl.constant_exponent(segment, 2.0)
    spir = cl.IndexPair(0.0, 0.0, {})
    delta, eps = cl.select_delta_and_eps(segment, p, 2.0, 0j, 0.3, spir)
    assert delta == pytest.approx(cl.d_t(segment, 0j) / 4.0)
    # margin of (0.8, 0.8) to {0, 1} is 0.2; eps is half of it
    assert eps == pytest.approx(0.1)


def test_select_eps_half_margin(segment):
    p = cl.constant_exponent(segment, 2.0)
    spir = cl.IndexPair(0.0, 0.0, {})
    _, eps = cl.select_delta_and_eps(segment, p, 2.0, 0j, 0.4, spir)
    assert eps == pytest.approx(0.05)
    assert eps > 0


def test_select_delta_shrinks_with_steepness(segment):
    # decaying profiles force smaller arcs; steeper decay, smaller delta
    spir = cl.IndexPair(0.0, 0.0, {})
    deltas = []
    for p_far in (2.2, 1.9, 1.6):
        p = cl.profile_exponent(segment, 0j, 3.0, p_far)
        d, _ = cl.select_delta_and_eps(segment, p, 3.0, 0j, 0.45, spir)
        deltas.append(d)
        # the selected arc satisfies the strict local inequality
        mask = cl.omega_arc(segment, 0j, d)
        p_star = min(p.values[mask].min(), 3.0)
        upper = cl.check_main(3.0, 0.45, spir).upper
        assert 1.0 + (upper - 1.0 / 3.0) * 3.0 < p_star
    assert deltas[0] >= deltas[1] >= deltas[2]
    assert deltas[2] < cl.d_t(segment, 0j) / 4.0


def test_select_requires_main(segment):
    p = cl.constant_exponent(segment, 2.0)
    with pytest.raises(PreconditionError):
        cl.select_delta_and_eps(segment, p, 2.0, 0j, 0.8,
                                cl.IndexPair(0, 0, {}))


def test_select_no_admissible_delta(segment):
    # a steep profile plus a near-boundary verdict: with the candidate
    # ladder cut down to its coarsest rungs no arc satisfies the inequality
    p = cl.profile_exponent(segment, 0j, 3.5, 1.51)
    p_near = p.values[np.argmin(segment.distances_from(0j))]
    spir = cl.IndexPair(0.0, 0.0, {})
    # 1 + 3.5*gamma just below p at the sample nearest t0
    gamma = (p_near - 1.0) / 3.5 - 1e-4
    assert cl.check_main(3.5, gamma, spir).classification \
        == cl.MAIN_THM_BOUNDED
    with pytest.raises(NoAdmissibleDelta):
        cl.select_delta_and_eps(segment, p, 3.5, 0j, gamma, spir,
                                max_candidates=1)
    # the full ladder reaches the one-sample arc, which qualifies
    delta, _ = cl.select_delta_and_eps(segment, p, 3.5, 0j, gamma, spir)
    assert 0 < delta < cl.d_t(segment, 0j)


def _criterion_6(n):
    """Criterion 6's curve with its profile, which rises from p(t0) = 1.8."""
    curve, t0, _ = cl.harness.build_curve(
        {"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
         "r_min_scale": 118.0, "r_max": math.e ** 2}, n)
    return curve, cl.profile_exponent(curve, t0, 1.8, 2.2)


@pytest.mark.parametrize("n", [2048, 4096, 16384])
def test_ersatz_reads_p_at_t0_not_the_nearest_sample(n):
    """p at the sample nearest t0 (1.913 at n = 4096) read ERSATZ_BOUNDED,
    with an upper that moved with n."""
    _, p = _criterion_6(n)
    v = cl.check_ersatz(1.8, p.p_min, 0.45, cl.IndexPair(-1.0, 1.0, {}))
    assert v.upper == 1.0 / 1.8 + 0.45
    assert v.classification == cl.NECESSARY_VIOLATED


@pytest.mark.parametrize("n", [2048, 4096, 16384])
def test_ersatz_limit_never_exceeds_one(n):
    """The sampled p_min lies above p(t0) on a rising profile; unclamped,
    the limit p_min/1.8 would read an upper of 1.0156 as ERSATZ_BOUNDED."""
    _, p = _criterion_6(n)
    v = cl.check_ersatz(1.8, p.p_min, 0.46, cl.IndexPair(-1.0, 1.0, {}))
    assert 1.0 < v.upper < p.p_min / 1.8
    assert v.upper_limit == 1.0
    assert v.classification == cl.NECESSARY_VIOLATED


@pytest.mark.parametrize("p_min", [1.0, 0.5, math.nan, math.inf])
def test_ersatz_rejects_p_min_outside_one_inf(p_min):
    with pytest.raises(PreconditionError, match="p_min must lie"):
        cl.check_ersatz(2.0, p_min, 0.3, cl.IndexPair(0.0, 0.0, {}))


def test_select_eps_does_not_move_with_n():
    """eps read 0.1923 / 0.1886 / 0.1842 at n = 2048 / 4096 / 16384 when
    p(t0) was p at the sample nearest t0."""
    spir = cl.IndexPair(-1.0, 1.0, {})
    half_margin = 0.5 * cl.check_main(1.8, 0.1j, spir).margin
    for n in (2048, 16384):
        curve, p = _criterion_6(n)
        _, eps = cl.select_delta_and_eps(curve, p, 1.8, 0j, 0.1j, spir)
        assert eps == half_margin == pytest.approx(0.17222, abs=1e-5)


def test_verdict_json():
    v = cl.check_kps(2.0, 0.3)
    doc = cl.criteria.verdict_to_json(v)
    assert '"classification": "KPS_BOUNDED"' in doc
    assert '"lower": 0.8' in doc
