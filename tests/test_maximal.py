import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab import argbranch
from carlesonlab.errors import PreconditionError
from carlesonlab.harness import build_curve


def brute_force_maximal_at(curve, f, i):
    """Exhaustive scan over every realized radius at sample i, plus the
    radius below the nearest neighbor (portion = the point itself)."""
    absf = np.abs(np.asarray(f, complex))
    aw = curve.arc_weights
    d = np.abs(curve.samples - curve.samples[i])
    pos = np.unique(d[d > 0])
    grid = np.concatenate(([pos[0] * (1 - 1e-12)], pos * (1 + 1e-12)))
    best = 0.0
    for eps in grid:
        sel = d < eps
        best = max(best, float((absf[sel] * aw[sel]).sum() / aw[sel].sum()))
    return best


def test_constant_function(unit_circle):
    ev = cl.MaximalEvaluator(unit_circle, np.arange(0, 4096, 64))
    res = cl.weighted_maximal(unit_circle, 1.0, 0j, 0, evaluator=ev)
    assert np.max(np.abs(res.values - 1.0)) == 0.0


def test_bounded_by_sup(unit_circle):
    rng = np.random.default_rng(0)
    f = rng.normal(size=unit_circle.n_samples) \
        + 1j * rng.normal(size=unit_circle.n_samples)
    ev = cl.MaximalEvaluator(unit_circle, np.arange(0, 4096, 128))
    res = cl.weighted_maximal(unit_circle, f, 0j, 0, evaluator=ev)
    assert np.all(res.values <= np.max(np.abs(f)) + 1e-12)


def test_against_brute_force_scan():
    c = cl.generate_circle(1.0, 1024)
    mask = cl.omega_arc(c, 1.0 + 0j, 0.2).astype(float)
    eval_idx = np.array([0, 3, 127, 255, 512, 700])
    ev = cl.MaximalEvaluator(c, eval_idx, max_radii=2048)
    res = cl.weighted_maximal(c, mask, 0j, 0, evaluator=ev)
    for k, i in enumerate(eval_idx):
        oracle = brute_force_maximal_at(c, mask, i)
        assert res.values[k] == pytest.approx(oracle, rel=1e-12)


def test_indicator_is_one_on_support():
    c = cl.generate_circle(1.0, 1024)
    mask = cl.omega_arc(c, 1.0 + 0j, 0.2)
    res = cl.weighted_maximal(c, mask.astype(float), 0j, 0)
    on = mask[res.eval_indices]
    assert np.all(res.values[on] >= 1.0 - 1e-12)
    assert np.all(res.values <= 1.0 + 1e-12)


def test_dominates_every_radius(unit_circle):
    rng = np.random.default_rng(3)
    f = rng.uniform(0, 1, unit_circle.n_samples)
    i = 17
    ev = cl.MaximalEvaluator(unit_circle, np.array([i]))
    res = cl.weighted_maximal(unit_circle, f, 0j, 0, evaluator=ev)
    d = np.abs(unit_circle.samples - unit_circle.samples[i])
    aw = unit_circle.arc_weights
    for eps in (0.01, 0.1, 1.0, 2.0):
        sel = d < eps
        avg = (f[sel] * aw[sel]).sum() / aw[sel].sum()
        assert res.values[0] >= avg - 1e-12


def test_positive_homogeneity(spiral1):
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 1, spiral1.n_samples)
    ev = cl.MaximalEvaluator(spiral1, np.arange(0, spiral1.n_samples, 256))
    base = cl.weighted_maximal(spiral1, f, 0j, 0, evaluator=ev)
    doubled = cl.weighted_maximal(spiral1, 2.0 * f, 0j, 0, evaluator=ev)
    assert np.array_equal(doubled.values, 2.0 * base.values)
    scaled = cl.weighted_maximal(spiral1, 3.7 * f, 0j, 0, evaluator=ev)
    assert scaled.values == pytest.approx(3.7 * base.values, rel=1e-13)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sublinearity(segment, spiral1, spiral1_branch, seed):
    rng = np.random.default_rng(seed)
    for curve, gamma, branch in ((segment, 0, None),
                                 (spiral1, 0.3 + 0.2j, spiral1_branch)):
        f = rng.uniform(0, 1, curve.n_samples)
        g = rng.uniform(0, 1, curve.n_samples)
        idx = np.arange(0, curve.n_samples, 64)
        ev = cl.MaximalEvaluator(curve, idx)

        def m(h):
            return cl.weighted_maximal(curve, h, 0j, gamma, branch=branch,
                                       evaluator=ev).values

        assert np.all(m(f + g) <= m(f) + m(g) + 1e-12)


# --- rejected inputs ----------------------------------------------------------


def test_rejects_negative_eval_index(segment):
    with pytest.raises(PreconditionError):
        cl.MaximalEvaluator(segment, [-1])


def test_rejects_fractional_eval_index(segment):
    with pytest.raises(PreconditionError):
        cl.MaximalEvaluator(segment, [1.5])


def test_rejects_eval_index_past_the_end(segment):
    with pytest.raises(PreconditionError):
        cl.MaximalEvaluator(segment, [10**6])


def test_rejects_two_dimensional_eval_indices(segment):
    with pytest.raises(PreconditionError):
        cl.MaximalEvaluator(segment, np.array([[0, 1], [2, 3]]))


def test_empty_eval_indices_give_empty_result(segment):
    ev = cl.MaximalEvaluator(segment, [])
    res = cl.weighted_maximal(segment, 1.0, 0j, 0, evaluator=ev)
    assert res.values.shape == res.argmax_eps.shape == (0,)
    assert res.eval_indices.shape == (0,)
    res = cl.weighted_maximal(segment, 1.0, 0j, 0.2 + 0.1j, evaluator=ev)
    assert res.values.shape == (0,)


def test_rejects_nonpositive_max_radii(segment):
    with pytest.raises(PreconditionError):
        cl.MaximalEvaluator(segment, [0, 5], max_radii=0)


def test_rejects_bool_max_radii(segment):
    """True is not one radius."""
    with pytest.raises(PreconditionError, match="max_radii"):
        cl.MaximalEvaluator(segment, [0, 5], max_radii=True)


@pytest.fixture(scope="module")
def circle_65():
    curve = cl.generate_circle(1.0, 64)
    assert curve.n_samples == 65
    return cl.MaximalEvaluator(curve)


def test_sup_average_rejects_negative_integrand(circle_65):
    """g = -1 used to average to all zeros."""
    with pytest.raises(PreconditionError, match="nonnegative"):
        circle_65.sup_average(-np.ones(65))


def test_sup_average_rejects_one_negative_sample(circle_65):
    """Ones with a final -5 used to average to 0.953, neither g nor |g|."""
    with pytest.raises(PreconditionError, match="nonnegative"):
        circle_65.sup_average(np.append(np.ones(64), -5.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sup_average_rejects_non_finite_integrand(circle_65, bad):
    """NaN and +inf used to give NaN with a RuntimeWarning."""
    with pytest.raises(PreconditionError, match="finite"):
        circle_65.sup_average(np.append(np.ones(64), bad))


@pytest.mark.parametrize("size", [64, 66])
def test_sup_average_rejects_wrong_length(circle_65, size):
    """Used to raise a bare broadcasting ValueError."""
    with pytest.raises(PreconditionError, match="65 samples"):
        circle_65.sup_average(np.ones(size))


def test_sup_average_rejects_complex_integrand(circle_65):
    with pytest.raises(PreconditionError, match="real"):
        circle_65.sup_average(np.ones(65, dtype=complex))


def test_sup_average_reads_integer_and_boolean_integrands(circle_65):
    ones, _ = circle_65.sup_average(np.ones(65))
    for g in (np.ones(65, dtype=int), np.ones(65, dtype=bool)):
        assert np.array_equal(circle_65.sup_average(g)[0], ones)


@pytest.mark.parametrize("name", ["eval_indices", "max_radii"])
def test_evaluator_is_the_only_source_of_points_and_radii(segment, name):
    """weighted_maximal takes its evaluation points and radii from the
    evaluator alone, which keeps neither as a second copy."""
    with pytest.raises(TypeError):
        cl.weighted_maximal(segment, 1.0, 0j, 0, **{name: 1})
    assert not hasattr(cl.MaximalEvaluator(segment, [0, 5]), "max_radii")


def test_rejects_an_evaluator_of_another_curve(segment):
    """A spiral's evaluator read the segment's f on the spiral's portions."""
    spiral = cl.generate_log_spiral(1.0, 1e-4, 1.0, segment.n_samples)
    ev = cl.MaximalEvaluator(spiral, np.arange(0, segment.n_samples, 64))
    f = np.linspace(1.0, 2.0, segment.n_samples)
    with pytest.raises(PreconditionError, match="another curve"):
        cl.weighted_maximal(segment, f, 0j, 0, evaluator=ev)


def test_overflowing_total_stays_finite():
    """f = 1.5e308 integrates past the float range over the circle; the
    engine scales it by a power of two, so Mf is still f."""
    c = cl.generate_circle(1.0, 256)
    ev = cl.MaximalEvaluator(c, np.arange(0, 256, 16))
    res = cl.weighted_maximal(c, 1.5e308, 0j, 0, evaluator=ev)
    assert np.all(np.isfinite(res.values))
    np.testing.assert_allclose(res.values, 1.5e308, rtol=1e-12, atol=0.0)


# --- weighted variants ------------------------------------------------------


def test_gamma_zero_coincides_exactly(spiral1):
    """gamma = 0 is the plain operator, sup_average(|f|) bit for bit, and
    reads no t0: one on a sample, which any weight rejects, is fine."""
    rng = np.random.default_rng(5)
    f = rng.uniform(-1, 1, spiral1.n_samples)
    ev = cl.MaximalEvaluator(spiral1, np.arange(0, spiral1.n_samples, 128))
    values, eps = ev.sup_average(np.abs(f))
    with pytest.raises(PreconditionError):
        cl.power_weight(spiral1, spiral1.samples[7], 0.3)
    res = cl.weighted_maximal(spiral1, f, spiral1.samples[7], 0.0,
                              evaluator=ev)
    assert np.array_equal(res.values, values)
    assert np.array_equal(res.argmax_eps, eps)


def test_real_gamma_equals_power_variant(spiral1, spiral1_branch):
    """A given branch supplies log|tau - t0|: no power weight is built,
    and the values are the branch-free power_weight route's bit for bit."""
    rng = np.random.default_rng(6)
    f = rng.uniform(0, 1, spiral1.n_samples)
    ev = cl.MaximalEvaluator(spiral1, np.arange(0, spiral1.n_samples, 128))
    for lam in (0.4, 0.0, -0.3):
        b = cl.weighted_maximal(spiral1, f, 0j, lam, evaluator=ev)
        with mock.patch.object(argbranch, "power_weight",
                               side_effect=AssertionError):
            a = cl.weighted_maximal(spiral1, f, 0j, lam,
                                    branch=spiral1_branch, evaluator=ev)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.argmax_eps, b.argmax_eps)


def brute_force_weighted_at(curve, f, log_phi, i):
    absf = np.abs(np.asarray(f, complex))
    aw = curve.arc_weights
    d = np.abs(curve.samples - curve.samples[i])
    g = absf * np.exp(-log_phi)
    pos = np.unique(d[d > 0])
    grid = np.concatenate(([pos[0] * (1 - 1e-12)], pos * (1 + 1e-12)))
    best = 0.0
    for eps in grid:
        sel = d < eps
        best = max(best, float((g[sel] * aw[sel]).sum() / aw[sel].sum()))
    return best * np.exp(log_phi[i])


def test_weighted_against_brute_force():
    c = cl.generate_log_spiral(1.0, 1e-3, 1.0, 1024)
    br = cl.unwrap_arg(c, 0j)
    mask = cl.omega_arc(c, 0j, 0.05).astype(float)
    log_phi = cl.phi(br, 1j).log_values
    eval_idx = np.array([0, 50, 400, 1023])
    ev = cl.MaximalEvaluator(c, eval_idx, max_radii=2048)
    res = cl.weighted_maximal(c, mask, 0j, 1j, branch=br, evaluator=ev)
    for k, i in enumerate(eval_idx):
        oracle = brute_force_weighted_at(c, mask, log_phi, i)
        assert res.values[k] == pytest.approx(oracle, rel=1e-10)


def test_power_dominance_outside_arc(spiral1, spiral1_branch):
    gamma = 0.3 + 0.2j
    w = cl.phi(spiral1_branch, gamma)
    idx = cl.estimate_indices(cl.compute_W(spiral1, 0j, w))
    eps = 0.1
    delta = cl.d_t(spiral1, 0j) / 8
    c1, c2 = cl.power_sandwich(spiral1, 0j, w, eps, delta, indices=idx)
    mask = cl.omega_arc(spiral1, 0j, delta)
    ev = cl.MaximalEvaluator(spiral1, np.arange(0, spiral1.n_samples, 64))

    f_in = mask.astype(float)
    mw = cl.weighted_maximal(spiral1, f_in, 0j, gamma, branch=spiral1_branch,
                             evaluator=ev)
    mp = cl.weighted_maximal(spiral1, f_in, 0j, idx.beta + eps,
                             evaluator=ev)
    outside = ~mask[ev.eval_indices]
    assert np.all(mw.values[outside] <= c1 * mp.values[outside] + 1e-10)

    f_out = (~mask).astype(float)
    mw2 = cl.weighted_maximal(spiral1, f_out, 0j, gamma,
                              branch=spiral1_branch, evaluator=ev)
    mp2 = cl.weighted_maximal(spiral1, f_out, 0j, idx.alpha - eps,
                              evaluator=ev)
    inside = mask[ev.eval_indices]
    assert np.all(mw2.values[inside] <= c2 * mp2.values[inside] + 1e-10)


def test_decompose_dominates(spiral1, spiral1_branch):
    """Splitting f across the arc omega(0, delta) never lowers the maximal
    function: M f <= M(f on the arc) + M(f off the arc)."""
    rng = np.random.default_rng(7)
    f = rng.uniform(0, 1, spiral1.n_samples)
    delta = cl.d_t(spiral1, 0j) / 8
    mask = cl.omega_arc(spiral1, 0j, delta)
    ev = cl.MaximalEvaluator(spiral1, np.arange(0, spiral1.n_samples, 64))

    def m(h):
        return cl.weighted_maximal(spiral1, h, 0j, 0.3 + 0.2j,
                                   branch=spiral1_branch, evaluator=ev).values

    total = m(np.where(mask, f, 0.0)) + m(np.where(mask, 0.0, f))
    assert np.all(m(f) <= total + 1e-10)


def test_csv_export(tmp_path, unit_circle):
    ev = cl.MaximalEvaluator(unit_circle, np.arange(0, 4096, 512))
    res = cl.weighted_maximal(unit_circle, 1.0, 0j, 0, evaluator=ev)
    path = tmp_path / "m.csv"
    cl.export_maximal_csv(unit_circle, res, path)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "arclen,Mf,argmax_eps"
    assert len(lines) == res.values.size + 2


def _dyadic(curve):
    """The curve with cumlen on a 2^-40 grid, so that reversal is exact."""
    cum = np.round(curve.cumlen * 2.0**40) / 2.0**40
    return cl.Curve(curve.samples, cum, curve.closed)


@pytest.mark.parametrize("make, t0", [
    (lambda: cl.generate_log_spiral(1.0, 1e-4, 1.0, 4096), 0j),
    (lambda: cl.generate_graded_circle(1.0, 2048), 1.0 + 0j),
    (lambda: cl.generate_mixed_spirality(-1.0, 1.0, 1e-3, 1.0, 2048), 0j),
])
def test_weighted_invariant_under_reversal(make, t0):
    # Curve.reversed() recomputes cumlen as L - cumlen, whose rounding moves
    # the smallest arc weights; on dyadic cumlen the weights map exactly
    curve = _dyadic(make())
    rev = curve.reversed()
    assert np.array_equal(rev.arc_weights[::-1], curve.arc_weights)
    n = curve.n_samples
    idx = np.unique(np.linspace(0, n - 1, 64).round().astype(int))
    f = np.random.default_rng(8).uniform(0.0, 1.0, n)
    fwd_ev = cl.MaximalEvaluator(curve, idx)
    bwd_ev = cl.MaximalEvaluator(rev, n - 1 - idx)
    for gamma in (0.3, -0.4, 0.2 - 0.3j, 1j):
        fwd = cl.weighted_maximal(curve, f, t0, gamma, evaluator=fwd_ev)
        bwd = cl.weighted_maximal(rev, f[::-1], t0, gamma, evaluator=bwd_ev)
        np.testing.assert_allclose(bwd.values, fwd.values, rtol=1e-12,
                                   atol=0.0)


# --- the one-use full grid ---------------------------------------------------

# (spec, n): open, slit at t0 (wrapped intervals), closed with a duplicate
# closure sample, an exact grid (n <= 256: R = n) and sample counts that
# are not multiples of the 256-row block
ONE_USE_CASES = {
    "log_spiral": ({"kind": "log_spiral", "delta": 1.0, "r_min": 1e-3}, 1024),
    "graded_circle": ({"kind": "graded_circle", "radius": 1.0}, 1024),
    "circle": ({"kind": "circle", "t0_angle": 0.3}, 600),
    "exact_grid": ({"kind": "circle", "t0_angle": 0.3}, 200),
    "odd_spiral": ({"kind": "log_spiral", "delta": 2.0, "r_min": 1e-4}, 1300),
}


@pytest.mark.parametrize("name", sorted(ONE_USE_CASES))
def test_one_use_grid_equals_full_grid_evaluator(name):
    """With no evaluator every sample is evaluated in row blocks, each
    built and freed in turn; the result is one full-grid evaluator's, bit
    for bit."""
    spec, n = ONE_USE_CASES[name]
    curve, t0, _ = build_curve(spec, n)
    rng = np.random.default_rng(9)
    f = rng.uniform(0.0, 1.0, curve.n_samples)
    f[rng.uniform(size=f.size) < 0.3] = 0.0
    full = cl.MaximalEvaluator(curve)
    for gamma in (0, 0.3, 0.2 + 0.1j):
        res = cl.weighted_maximal(curve, f, t0, gamma)
        ref = cl.weighted_maximal(curve, f, t0, gamma, evaluator=full)
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.argmax_eps, ref.argmax_eps)
        assert np.array_equal(res.eval_indices, ref.eval_indices)
        assert res.clipped == ref.clipped


@pytest.mark.parametrize("spec, gamma", [
    ({"kind": "log_spiral", "delta": 1.0, "r_min": 1e-3}, 0.2 + 0.1j),
    ({"kind": "graded_circle", "radius": 1.0}, 0.3),
], ids=["spiral_1", "graded_circle"])
def test_one_use_grid_holds_one_row_block(spec, gamma):
    """At n = 4096 one full-grid evaluator holds 16 MB of slots; the row
    blocks hold 1 MB each, one at a time."""
    curve, t0, join_ends = build_curve(spec, 4096)
    f = cl.omega_arc(curve, t0, 0.05, join_ends=join_ends).astype(float)
    tracemalloc.start()
    try:
        cl.weighted_maximal(curve, f, t0, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_zero_integrand_reads_the_grid_for_every_gamma():
    """f = 0 gives Mf = 0 at the grid's first radius for every gamma, with
    and without an evaluator, and clips nothing."""
    curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, 300)
    rows = np.array([0, 100, 200])
    ev = cl.MaximalEvaluator(curve, rows)
    first = ev._radius(np.zeros(rows.size, dtype=np.intp))
    for gamma in (0, 0.3):
        for res, at in ((cl.weighted_maximal(curve, 0.0, 0j, gamma,
                                             evaluator=ev), np.s_[:]),
                        (cl.weighted_maximal(curve, 0.0, 0j, gamma), rows)):
            assert np.all(res.values[at] == 0.0)
            assert np.array_equal(res.argmax_eps[at], first)
            assert not res.clipped
