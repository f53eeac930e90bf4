import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab.errors import NumericalError, PreconditionError
from carlesonlab.norms import as_sampled
from conftest import ZOO_SPECS, moved


def golden_section_norm(curve, f, w, p, tol=1e-8):
    """Independent 1-D solver: golden-section minimization of
    |modular(lam) - 1| on log lam."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    peak = float(np.max(np.abs(np.asarray(f, complex))
                        * np.exp(np.minimum(w.log_values, 700.0))))
    a, b = np.log(peak * 1e-12), np.log(peak * (curve.total_length + 1.0))

    def h(x):
        return abs(cl.modular(curve, f, w, p, np.exp(x)) - 1.0)

    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(200):
        if h(c) < h(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
        if b - a < tol:
            break
    return np.exp(0.5 * (a + b))


# --- exponent fields -------------------------------------------------------


def test_constant_exponent(unit_circle):
    p = cl.constant_exponent(unit_circle, 2.0)
    assert p.p_min == p.p_max == 2.0
    assert p.dini_constant == 0.0


def test_exponent_field_derives_its_bounds(spiral1):
    """p_min and p_max come from the values alone: bounds given beside
    them (5.0 and 1.5 for values in 1.86-2.2) were accepted."""
    p = cl.profile_exponent(spiral1, 0j, 1.8, 2.2)
    with pytest.raises(TypeError):
        cl.ExponentField(p.values, 5.0, 1.5, spiral1)
    q = cl.ExponentField(p.values, spiral1)
    assert (q.p_min, q.p_max) == (float(p.values.min()),
                                  float(p.values.max()))
    assert (p.p_min, p.p_max) == (q.p_min, q.p_max)
    with pytest.raises(PreconditionError, match="align with the curve"):
        cl.ExponentField(p.values[:-1], spiral1)


def test_constant_one_rejected(unit_circle):
    with pytest.raises(PreconditionError):
        cl.constant_exponent(unit_circle, 1.0)


def test_profile_exponent_dini(spiral1):
    p = cl.profile_exponent(spiral1, 0j, 1.5, 3.0)
    assert 1.5 <= p.p_min <= p.p_max <= 3.0
    assert np.isfinite(p.dini_constant) and p.dini_constant > 0
    # oracle: direct pair scan over a deterministic anchor subset
    idx = np.unique(np.linspace(0, spiral1.n_samples - 1, 256).round()
                    .astype(int))
    worst = 0.0
    for i in idx:
        d = np.abs(spiral1.samples - spiral1.samples[i])
        m = (d > 0) & (d <= 0.5)
        worst = max(worst, float(np.max(np.abs(p.values[m] - p.values[i])
                                        * (-np.log(d[m])))))
    assert p.dini_constant == pytest.approx(worst, rel=1e-12)


def test_dini_constant_is_measured_on_first_access(spiral1):
    norms_module = importlib.import_module("carlesonlab.norms")
    with mock.patch.object(norms_module, "_measure_dini",
                           wraps=norms_module._measure_dini) as measure:
        p = cl.profile_exponent(spiral1, 0j, 1.5, 3.0)
        assert measure.call_count == 0
        first = p.dini_constant
        assert p.dini_constant == first
        assert measure.call_count == 1
        assert cl.constant_exponent(spiral1, 2.0).dini_constant == 0.0
        assert measure.call_count == 1


def test_tabulated_exponent_validation(unit_circle):
    with pytest.raises(PreconditionError):
        cl.tabulated_exponent(unit_circle,
                              np.full(unit_circle.n_samples, 0.9))


# --- modular ----------------------------------------------------------------


def test_modular_constant(unit_circle):
    p = cl.constant_exponent(unit_circle, 2.0)
    v = cl.modular(unit_circle, 1.0, cl.unit_weight(unit_circle), p, 1.0)
    assert v == pytest.approx(2 * np.pi, rel=1e-6)


def test_modular_zero_function(unit_circle):
    p = cl.constant_exponent(unit_circle, 2.0)
    for lam in (0.1, 1.0, 10.0):
        assert cl.modular(unit_circle, 0.0, cl.unit_weight(unit_circle), p,
                          lam) == 0.0


def test_modular_singular_weight_vs_fine_quadrature():
    # |tau - 1|^(-0.3) squared integrates to a finite modular (-0.6 > -1);
    # a much finer graded curve is the quadrature oracle
    coarse = cl.generate_graded_circle(1.0, 4096)
    fine = cl.generate_graded_circle(1.0, 65536)
    val = []
    for c in (coarse, fine):
        w = cl.power_weight(c, 1.0 + 0j, -0.3)
        p = cl.constant_exponent(c, 2.0)
        val.append(cl.modular(c, 1.0, w, p, 1.0))
    assert val[0] == pytest.approx(val[1], rel=0.01)


def test_modular_overflow_reports_inf(unit_circle):
    p = cl.constant_exponent(unit_circle, 3.0)
    v = cl.modular(unit_circle, 1e200, cl.unit_weight(unit_circle), p, 1e-200)
    assert v == np.inf


def test_modular_decreasing_in_lam(spiral1):
    p = cl.profile_exponent(spiral1, 0j, 1.8, 2.2)
    w = cl.power_weight(spiral1, 0j, 0.2)
    vals = [cl.modular(spiral1, 1.0, w, p, lam)
            for lam in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- luxemburg norm ---------------------------------------------------------


def test_luxemburg_constant_p_identity(unit_circle):
    p = cl.constant_exponent(unit_circle, 2.0)
    v = cl.luxemburg_norm(unit_circle, 1.0, cl.unit_weight(unit_circle), p)
    assert v == pytest.approx(np.sqrt(2 * np.pi), rel=1e-8)


def test_luxemburg_zero(unit_circle):
    p = cl.constant_exponent(unit_circle, 2.0)
    assert cl.luxemburg_norm(unit_circle, 0.0, cl.unit_weight(unit_circle),
                             p) == 0.0


def test_luxemburg_homogeneity(unit_circle):
    rng = np.random.default_rng(1)
    f = rng.normal(size=unit_circle.n_samples)
    p = cl.profile_exponent(unit_circle, 1.1 + 0j, 1.7, 2.4)
    w = cl.unit_weight(unit_circle)
    base = cl.luxemburg_norm(unit_circle, f, w, p)
    scaled = cl.luxemburg_norm(unit_circle, 3.7 * f, w, p)
    assert scaled == pytest.approx(3.7 * base, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(0.01, 100.0))
def test_luxemburg_homogeneity_property(segment, seed, c):
    rng = np.random.default_rng(seed)
    f = rng.uniform(0, 1, segment.n_samples)
    p = cl.profile_exponent(segment, 0j, 1.6, 2.8)
    w = cl.power_weight(segment, 0j, 0.1)
    assert cl.luxemburg_norm(segment, c * f, w, p) == pytest.approx(
        c * cl.luxemburg_norm(segment, f, w, p), rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_luxemburg_unit_ball(segment, seed):
    rng = np.random.default_rng(seed)
    f = rng.uniform(0, 2, segment.n_samples)
    p = cl.profile_exponent(segment, 0j, 1.6, 2.8)
    w = cl.unit_weight(segment)
    norm = cl.luxemburg_norm(segment, f, w, p)
    mod1 = cl.modular(segment, f, w, p, 1.0)
    assert (norm <= 1.0 + 1e-9) == (mod1 <= 1.0 + 1e-6)


def test_luxemburg_modular_at_norm_is_one(spiral1):
    p = cl.profile_exponent(spiral1, 0j, 1.8, 2.2)
    w = cl.power_weight(spiral1, 0j, 0.1)
    f = 1.0 + np.abs(spiral1.samples)
    norm = cl.luxemburg_norm(spiral1, f, w, p)
    assert cl.modular(spiral1, f, w, p, norm) == pytest.approx(1.0, abs=1e-6)


def test_luxemburg_monotone(unit_circle):
    rng = np.random.default_rng(2)
    f2 = rng.uniform(0.5, 1.0, unit_circle.n_samples)
    f1 = f2 * rng.uniform(0.0, 1.0, unit_circle.n_samples)
    p = cl.profile_exponent(unit_circle, 1.1 + 0j, 1.7, 2.4)
    w = cl.unit_weight(unit_circle)
    assert cl.luxemburg_norm(unit_circle, f1, w, p) <= \
        cl.luxemburg_norm(unit_circle, f2, w, p) + 1e-12


def test_luxemburg_vs_golden_section(segment):
    # indicator of a small arc against a variable exponent profile
    p = cl.profile_exponent(segment, 0j, 1.6, 2.8)
    w = cl.power_weight(segment, 0j, 0.15)
    f = (np.abs(segment.samples) < 0.01).astype(float)
    lux = cl.luxemburg_norm(segment, f, w, p)
    oracle = golden_section_norm(segment, f, w, p)
    assert lux == pytest.approx(oracle, rel=1e-6)


def _tiny_first_arc():
    """64 samples whose first segment, of length 1e-20, is 1e18x shorter
    than the others, so sample 0 has arc weight 5e-21."""
    cumlen = np.concatenate(([0.0, 1e-20],
                             np.linspace(0.01, 1.0, 62) + 1e-20))
    return cl.Curve(np.exp(2j * np.pi * cumlen), cumlen, False)


def test_luxemburg_below_any_bracket():
    # a sample of arc weight 5e-21 carries all of f: the norm is
    # aw[0]**(1/p) = 7.9e-21, below the bisection's old lower bracket 1e-18
    curve = _tiny_first_arc()
    f = np.zeros(curve.n_samples)
    f[0] = 1.0
    p = cl.constant_exponent(curve, 1.01)
    norm = cl.luxemburg_norm(curve, f, cl.unit_weight(curve), p)
    assert norm == pytest.approx(curve.arc_weights[0] ** (1 / 1.01),
                                 rel=1e-12, abs=0.0)


def test_luxemburg_underflow_raises():
    # the norm 5e-324 * 5e-21**(1/1.01) is below the smallest subnormal
    curve = _tiny_first_arc()
    f = np.zeros(curve.n_samples)
    f[0] = 5e-324
    p = cl.constant_exponent(curve, 1.01)
    with pytest.raises(NumericalError):
        cl.luxemburg_norm(curve, f, cl.unit_weight(curve), p)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_luxemburg_extreme_scales(unit_circle, scale):
    # the bracket product lo * hi leaves the float range at these scales
    w = cl.unit_weight(unit_circle)
    for p in (cl.constant_exponent(unit_circle, 2.0),
              cl.profile_exponent(unit_circle, 1.1 + 0j, 1.7, 2.4)):
        norm = cl.luxemburg_norm(unit_circle, 1.0, w, p)
        assert cl.luxemburg_norm(unit_circle, scale, w, p) == pytest.approx(
            scale * norm, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("profile", [False, True])
def test_luxemburg_invariant_under_reversal(spiral1, spiral1_branch,
                                            profile):
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 1.0, spiral1.n_samples)
    w = cl.phi(spiral1_branch, 0.2 - 0.3j)
    p = (cl.profile_exponent(spiral1, 0j, 1.8, 2.2) if profile
         else cl.constant_exponent(spiral1, 2.5))
    rev = spiral1.reversed()
    w_rev = cl.Weight(log_values=w.log_values[::-1])
    p_rev = cl.tabulated_exponent(rev, p.values[::-1])
    assert cl.luxemburg_norm(rev, f[::-1], w_rev, p_rev) == pytest.approx(
        cl.luxemburg_norm(spiral1, f, w, p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1e-3, 0.37, 42.0])
def test_luxemburg_dilation(spiral1, c):
    rng = np.random.default_rng(4)
    f = rng.uniform(0.0, 1.0, spiral1.n_samples)
    dilated = cl.Curve(c * spiral1.samples, c * spiral1.cumlen,
                       spiral1.closed)
    for p_val in (1.3, 2.0, 3.5):
        norm = cl.luxemburg_norm(spiral1, f, cl.unit_weight(spiral1),
                                 cl.constant_exponent(spiral1, p_val))
        scaled = cl.luxemburg_norm(dilated, f, cl.unit_weight(dilated),
                                   cl.constant_exponent(dilated, p_val))
        assert scaled == pytest.approx(c ** (1 / p_val) * norm, rel=1e-12,
                                       abs=0.0)


# --- muckenhoupt -------------------------------------------------------------


def test_ap_unit_weight(unit_circle):
    v = cl.muckenhoupt_ap(unit_circle, cl.unit_weight(unit_circle), 2.0)
    assert np.isfinite(v) and v >= 1.0


def test_ap_requires_constant_p(unit_circle):
    with pytest.raises(PreconditionError):
        cl.muckenhoupt_ap(unit_circle, cl.unit_weight(unit_circle), 1.0)


@pytest.mark.parametrize("t", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_ap_rejects_non_finite_points(unit_circle, t):
    """A NaN t gave all-NaN distances and read 0.0."""
    with pytest.raises(PreconditionError, match="t_points must be finite"):
        cl.muckenhoupt_ap(unit_circle, cl.unit_weight(unit_circle), 2.0,
                          t_points=[1.0 + 0j, t])


def test_ap_rejects_empty_points(unit_circle):
    """It read 0.0, though [w]_Ap >= 1."""
    with pytest.raises(PreconditionError, match="t_points must be nonempty"):
        cl.muckenhoupt_ap(unit_circle, cl.unit_weight(unit_circle), 2.0,
                          t_points=[])


def test_as_sampled_keeps_real_input_real(segment):
    n = segment.n_samples
    real = np.linspace(0.0, 1.0, n)
    got = as_sampled(segment, real)
    assert got.dtype == np.float64 and np.array_equal(got, real)
    assert as_sampled(segment, 2).dtype == np.float64
    assert as_sampled(segment, 1j).dtype == np.complex128
    assert as_sampled(segment, real + 0j).dtype == np.complex128
    for bad in (np.full(n, np.inf), np.full(n, complex(0.0, np.nan)),
                np.ones(n - 1)):
        with pytest.raises(PreconditionError):
            as_sampled(segment, bad)


@pytest.mark.parametrize("name", sorted(ZOO_SPECS))
def test_ap_invariant_under_dilation(zoo, name):
    """Dilation about t0 scales the weight by c^Re(gamma) and every
    portion's measure by c, which the normalized A_p product cancels."""
    curve, t0 = zoo[name]
    gamma = 0.2 + 0.1j
    base = cl.muckenhoupt_ap(curve, cl.phi(cl.unwrap_arg(curve, t0), gamma),
                             2.0)
    for c in (0.25, 3.0):
        dilated = moved(curve, t0, c)
        scaled = cl.muckenhoupt_ap(
            dilated, cl.phi(cl.unwrap_arg(dilated, t0), gamma), 2.0)
        assert scaled == pytest.approx(base, rel=1e-12, abs=0.0)


def test_ap_power_weight_inside_range_stable():
    vals = [cl.muckenhoupt_ap(c, cl.power_weight(c, 1.0 + 0j, 0.3), 2.0)
            for c in (cl.generate_graded_circle(1.0, 2048),
                      cl.generate_graded_circle(1.0, 8192),
                      cl.generate_graded_circle(1.0, 32768))]
    assert np.isfinite(vals[-1])
    assert abs(vals[2] - vals[1]) / vals[1] < 0.05
    assert vals[2] == pytest.approx(3.7965, rel=0.05)  # frozen baseline


def test_ap_power_weight_outside_range_grows():
    vals = [cl.muckenhoupt_ap(c, cl.power_weight(c, 1.0 + 0j, 0.7), 2.0)
            for c in (cl.generate_graded_circle(1.0, 2048),
                      cl.generate_graded_circle(1.0, 8192),
                      cl.generate_graded_circle(1.0, 32768))]
    assert vals[1] > 1.5 * vals[0]
    assert vals[2] > 1.5 * vals[1]


def test_ap_oscillating_weight_on_spiral():
    # phi_{0, i s} behaves like the power weight r^s on the unit-rate spiral:
    # finite for |s| < 1/2 at p = 2, divergent beyond
    def series(s):
        out = []
        for r_min in (1e-3, 1e-5, 1e-7):
            sp = cl.generate_log_spiral(1.0, r_min, 1.0, 8192)
            w = cl.phi(cl.unwrap_arg(sp, 0j), 1j * s)
            out.append(cl.muckenhoupt_ap(sp, w, 2.0))
        return out
    good = series(0.4)
    assert abs(good[2] - good[1]) / good[1] < 0.05
    bad = series(0.7)
    assert bad[1] > 1.5 * bad[0]
    assert bad[2] > 1.5 * bad[1]


def test_ap_monotone_under_grid_refinement(graded_circle):
    # nested t grids at fixed eps resolution: the candidate set only grows
    w = cl.power_weight(graded_circle, 1.0 + 0j, 0.3)
    t_small = graded_circle.samples[::1024]
    t_big = graded_circle.samples[::256]
    v1 = cl.muckenhoupt_ap(graded_circle, w, 2.0, t_points=t_small)
    v2 = cl.muckenhoupt_ap(graded_circle, w, 2.0, t_points=t_big)
    assert v2 >= v1 - 1e-12
