from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab.curves import Curve, _inside_fractions, _mixed_phase
from carlesonlab.errors import EmptyArc, PreconditionError


# The disk portion that carleson_constant's one-pass sweep replaced, kept as
# its reference.
@dataclass(frozen=True)
class Portion:
    """Curve portion inside an open disk: index ranges plus arc measure.

    ranges: half-open sample index ranges [start, stop); every listed sample
    lies strictly inside the disk.  measure additionally counts the
    interpolated fractions of boundary segments.
    """

    ranges: tuple
    measure: float


def portion(curve: Curve, t: complex, eps: float) -> Portion:
    """Curve portion inside the open disk |tau - t| < eps.

    Boundary segments contribute the interpolated chord fraction up to the
    disk crossing (one crossing per boundary, so a segment dipping into the
    disk with both endpoints outside is not seen).
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    d = curve.distances_from(t)
    inside = d < eps
    if not inside.any():
        return Portion((), 0.0)
    padded = np.concatenate(([False], inside, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    ranges = tuple(zip(edges[0::2].tolist(), edges[1::2].tolist()))
    seg = curve.seg_lengths
    measure = float(seg[inside[:-1] & inside[1:]].sum())
    partial = inside[:-1] ^ inside[1:]
    if partial.any():
        idx = np.flatnonzero(partial)
        frac = _inside_fractions(curve, idx, t, eps, inside[idx])
        measure += float((frac * seg[idx]).sum())
    return Portion(ranges, measure)


def brute_portion_measure(curve, t, eps):
    """Independent linear scan: full segments by membership, partials by
    bisection on the chord (no quadratic formula)."""
    d = np.abs(curve.samples - t)
    seg = np.diff(curve.cumlen)
    total = 0.0
    for k in range(len(seg)):
        a_in, b_in = d[k] < eps, d[k + 1] < eps
        if a_in and b_in:
            total += seg[k]
        elif a_in != b_in:
            lo, hi = 0.0, 1.0
            a, b = curve.samples[k], curve.samples[k + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                inside = abs(a + mid * (b - a) - t) < eps
                if inside == a_in:
                    lo = mid
                else:
                    hi = mid
            total += seg[k] * (lo if a_in else 1.0 - lo)
    return total


# --- generators ---------------------------------------------------------


def test_circle_length(unit_circle):
    assert unit_circle.closed
    assert unit_circle.total_length == pytest.approx(2 * np.pi, rel=1e-6)


def test_circle_scaling():
    c = cl.generate_circle(2.0, 4096)
    assert c.total_length == pytest.approx(4 * np.pi, rel=1e-6)


def test_circle_too_coarse():
    with pytest.raises(PreconditionError):
        cl.generate_circle(1.0, 8)


def test_log_spiral_zero_delta_is_real_segment():
    s = cl.generate_log_spiral(0.0, 1e-4, 1.0, 4096)
    assert np.max(np.abs(s.samples.imag)) < 1e-12


def test_log_spiral_arg_exact():
    s = cl.generate_log_spiral(1.0, 1e-4, 1.0, 8192)
    r = np.abs(s.samples)
    # wrapped position angle agrees with -log r up to the branch cut
    dev = np.angle(s.samples * np.exp(1j * np.log(r)))
    assert np.max(np.abs(dev)) < 1e-9


def test_log_spiral_angular_step_guard():
    # delta * log(r_max/r_min) / (n-1) = log(10)/5 = 0.46 > pi/8
    with pytest.raises(PreconditionError):
        cl.generate_log_spiral(1.0, 1e-1, 1.0, 6)
    # at n = 16 the step is log(10)/15 = 0.154 < pi/8, so this must build
    cl.generate_log_spiral(1.0, 1e-1, 1.0, 16)


def test_mixed_collapses_to_log_spiral():
    m = cl.generate_mixed_spirality(0.5, 0.5, 1e-4, 1.0, 8192)
    s = cl.generate_log_spiral(0.5, 1e-4, 1.0, 8192)
    assert np.max(np.abs(m.samples - s.samples)) < 1e-12


def test_mixed_rejects_reversed_indices():
    with pytest.raises(PreconditionError):
        cl.generate_mixed_spirality(1.0, 0.0, 1e-4, 1.0, 4096)


def reference_mixed_cumlen(alpha, beta, r_min, r_max, n):
    """generate_mixed_spirality's arc length before it took the Gauss nodes
    one at a time: all four on one (n - 1) x 4 array, summed by row."""
    r = np.geomspace(r_min, r_max, n)
    nodes, gw = np.polynomial.legendre.leggauss(4)
    lr = np.log(r)
    mid = 0.5 * (lr[1:] + lr[:-1])
    half = 0.5 * np.diff(lr)
    ri = np.exp(mid[:, None] + half[:, None] * nodes[None, :])
    _, dth = _mixed_phase(ri.ravel(), alpha, beta)
    speed = np.sqrt(1.0 + dth.reshape(ri.shape) ** 2) * ri
    seg = half * (speed * gw[None, :]).sum(axis=1)
    return np.concatenate(([0.0], np.cumsum(seg)))


@pytest.mark.parametrize("spec", [
    (-1.0, 1.0, 1e-6, 1.0), (-1.0, 1.0, 1e-3, 1.0), (0.5, 0.5, 1e-4, 2.0),
    (-2.0, 3.0, 1e-8, 0.5), (0.0, 1.0, 1e-6, 1.0),
])
@pytest.mark.parametrize("n", [1000, 4097, 16384])
def test_mixed_cumlen_matches_row_sum_reference(spec, n):
    m = cl.generate_mixed_spirality(*spec, n)
    assert np.array_equal(m.cumlen, reference_mixed_cumlen(*spec, n))


def test_mixed_arclength_close_to_chords():
    m = cl.generate_mixed_spirality(-1.0, 1.0, 1e-6, 1.0, 8192)
    chords = np.sum(np.abs(np.diff(m.samples)))
    assert m.total_length == pytest.approx(chords, rel=1e-3)
    assert m.total_length >= chords


def test_curve_validation():
    with pytest.raises(PreconditionError):
        cl.Curve(np.array([1.0, 1.0]), np.array([0.0, 1.0]), False)
    with pytest.raises(PreconditionError):
        cl.Curve(np.array([0.0, 1.0]), np.array([0.0, -1.0]), False)
    with pytest.raises(PreconditionError):
        cl.Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), True)


def test_curve_takes_strided_samples(spiral1):
    """A reversed view used to fail with numpy's raw ValueError from the
    finiteness check's float view of a non-contiguous array."""
    cum = spiral1.cumlen[-1] - spiral1.cumlen[::-1]
    rev = cl.Curve(spiral1.samples[::-1], cum, False)
    assert np.array_equal(rev.samples, spiral1.reversed().samples)
    bad = spiral1.samples.copy()
    bad[5] = complex(np.nan, 0.0)
    with pytest.raises(PreconditionError, match="finite"):
        cl.Curve(bad[::-1], cum, False)


# --- portions -----------------------------------------------------------


def test_portion_whole_circle(unit_circle):
    p = portion(unit_circle, 1.0 + 0j, 2.1)
    assert len(p.ranges) == 1
    assert p.measure == pytest.approx(2 * np.pi, rel=1e-6)


def test_portion_empty(unit_circle):
    p = portion(unit_circle, 0j, 0.5)
    assert p.ranges == ()
    assert p.measure == 0.0


def test_portion_against_brute_force(spiral1):
    for eps in (0.1, 0.01, 0.37):
        p = portion(spiral1, 0j, eps)
        oracle = brute_portion_measure(spiral1, 0j, eps)
        assert p.measure == pytest.approx(oracle, rel=1e-9)
        d = np.abs(spiral1.samples)
        for lo, hi in p.ranges:
            assert np.all(d[lo:hi] < eps)


def test_portion_monotone_in_eps(spiral1):
    eps_grid = np.geomspace(1e-3, 2.0, 24)
    measures = [portion(spiral1, 0j, e).measure for e in eps_grid]
    assert all(a <= b + 1e-12 for a, b in zip(measures, measures[1:]))


def test_portion_rejects_bad_eps(unit_circle):
    with pytest.raises(PreconditionError):
        portion(unit_circle, 0j, 0.0)


# --- carleson constant and d_t ------------------------------------------


def test_carleson_circle(unit_circle):
    t_pts, eps = cl.default_carleson_grids(unit_circle)
    v = cl.carleson_constant(unit_circle, t_pts, eps)
    assert 1.0 <= v <= np.pi + 1e-9
    assert v >= np.pi - 0.05


def test_carleson_circle_brute_force_pairs():
    c = cl.generate_circle(1.0, 512)
    t_pts = c.samples[::16]
    eps = np.geomspace(0.05, 2.0, 64)
    fast = cl.carleson_constant(c, t_pts, eps)
    oracle = max(brute_portion_measure(c, t, e) / e
                 for t in t_pts for e in eps)
    assert fast == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("t_points, eps_grid, name", [
    ([0.5 + 0j], [np.nan, 0.1], "eps_grid"),
    ([0.5 + 0j], [0.1, np.inf], "eps_grid"),
    ([complex(np.nan, 0.0)], [0.1], "t_points"),
    ([complex(0.5, np.inf)], [0.1], "t_points"),
])
def test_carleson_rejects_non_finite_grids(segment, t_points, eps_grid,
                                           name):
    """Python's max dropped a NaN ratio, so a NaN eps or t read 0.0."""
    with pytest.raises(PreconditionError, match=f"{name} must be finite"):
        cl.carleson_constant(segment, t_points, eps_grid)


def test_carleson_segment_is_two(segment):
    # a line meets every disk in one chord of length up to 2*eps: around an
    # interior point both half-chords count, so the ratio tops out at 2
    t_pts, eps = cl.default_carleson_grids(segment)
    v = cl.carleson_constant(segment, t_pts, eps)
    assert 1.8 <= v <= 2.0 + 1e-6


def test_carleson_spiral_regression_and_drift():
    sp4 = cl.generate_log_spiral(1.0, 1e-4, 1.0, 4096)
    t_pts, eps = cl.default_carleson_grids(sp4)
    v4 = cl.carleson_constant(sp4, t_pts, eps)
    assert v4 == pytest.approx(2.3187, abs=0.05)  # frozen first-run baseline
    sp8 = cl.generate_log_spiral(1.0, 1e-4, 1.0, 8192)
    t_pts, eps = cl.default_carleson_grids(sp8)
    v8 = cl.carleson_constant(sp8, t_pts, eps)
    assert abs(v8 - v4) / v4 < 0.10


def test_carleson_monotone_under_grid_refinement(unit_circle):
    t_small = unit_circle.samples[::512]
    t_big = unit_circle.samples[::128]
    eps_small = np.geomspace(0.1, 2.0, 8)
    eps_big = np.concatenate([eps_small, np.geomspace(0.05, 1.9, 17)])
    v1 = cl.carleson_constant(unit_circle, t_small, eps_small)
    v2 = cl.carleson_constant(unit_circle, t_big, eps_big)
    assert v2 >= v1 - 1e-12


ZOO = {
    "circle": lambda n: cl.generate_circle(1.0, max(n, 16)),
    "graded_circle": lambda n: cl.generate_graded_circle(1.0, max(n, 16)),
    "spiral": lambda n: cl.generate_log_spiral(1.0, 1e-3, 1.0, n),
    "spiral_2": lambda n: cl.generate_log_spiral(2.0, 1e-2, 1.0, 4 * n),
    "mixed": lambda n: cl.generate_mixed_spirality(-1.0, 1.0, 1e-3, 1.0,
                                                   4 * n),
    "segment": lambda n: cl.generate_log_spiral(0.0, 1e-3, 1.0, n),
    "corner": lambda n: cl.generate_corner(np.pi / 2, 1e-3, 1.0, n),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_carleson_equals_portion_grid_max(name):
    curve = ZOO[name](400)
    t_pts, eps = cl.default_carleson_grids(curve)
    t_pts = np.concatenate((t_pts, [0j, 0.3 + 0.2j]))
    v = cl.carleson_constant(curve, t_pts, eps[::-1])
    ref = max(portion(curve, t, e).measure / e
              for t in t_pts for e in eps)
    assert v == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_d_t(unit_circle, spiral1):
    assert cl.d_t(unit_circle, 1.0 + 0j) == pytest.approx(2.0, rel=1e-6)
    assert cl.d_t(unit_circle, 0j) == pytest.approx(1.0, rel=1e-12)
    assert cl.d_t(spiral1, 0j) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("t", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_d_t_rejects_non_finite_point(t):
    """A NaN t read nan."""
    curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, 1024)
    with pytest.raises(PreconditionError, match="t must be finite"):
        cl.d_t(curve, t)


# every entry point that reads distances to a singular point t0
T0_ENTRY_POINTS = {
    "unwrap_arg": cl.unwrap_arg,
    "power_weight": lambda c, t0: cl.power_weight(c, t0, 0.3),
    "gamma_weight": lambda c, t0: cl.gamma_weight(c, t0, 0.3j),
    "profile_exponent": lambda c, t0: cl.profile_exponent(c, t0, 1.8, 2.2),
    "compute_W": lambda c, t0: cl.compute_W(
        c, t0, cl.Weight(np.zeros(c.n_samples))),
    "spirality_indices": cl.spirality_indices,
}


@pytest.mark.parametrize("t0", [complex(np.nan, 0.0), complex(0.0, np.inf)],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(T0_ENTRY_POINTS))
def test_t0_entry_points_reject_non_finite_t0(entry, t0):
    """A NaN t0 gave an all-NaN branch or weight, and "R_grid must be
    finite and positive" from the spirality fit, which named the wrong
    input."""
    curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, 1024)
    with pytest.raises(PreconditionError, match="t0 must be finite"):
        T0_ENTRY_POINTS[entry](curve, t0)


def test_reversal_invariance(spiral1):
    rev = spiral1.reversed()
    assert rev.total_length == pytest.approx(spiral1.total_length, rel=1e-12)
    for eps in (0.05, 0.5):
        a = portion(spiral1, 0j, eps).measure
        b = portion(rev, 0j, eps).measure
        assert a == pytest.approx(b, rel=1e-9)
    assert cl.d_t(rev, 0j) == cl.d_t(spiral1, 0j)


# --- omega arcs ----------------------------------------------------------


def test_omega_arc_subset_of_portion(spiral1):
    delta = 0.05
    mask = cl.omega_arc(spiral1, 0j, delta)
    d = np.abs(spiral1.samples)
    assert np.all(d[mask] < delta)
    p = portion(spiral1, 0j, delta)
    in_portion = np.zeros(spiral1.n_samples, dtype=bool)
    for lo, hi in p.ranges:
        in_portion[lo:hi] = True
    assert np.all(~mask | in_portion)
    # spirals re-enter the disk: the portion is strictly larger
    assert spiral1.seg_lengths[mask[:-1] & mask[1:]].sum() < p.measure


def test_omega_arc_joins_slit_ends(graded_circle):
    mask = cl.omega_arc(graded_circle, 1.0 + 0j, 0.1, join_ends=True)
    assert mask[0] and mask[-1]
    assert not mask[graded_circle.n_samples // 2]


def test_omega_arc_empty(spiral1):
    with pytest.raises(EmptyArc):
        cl.omega_arc(spiral1, 0j, 1e-7)


def loop_omega_arc(curve, t0, delta, join_ends=False):
    """The sample-by-sample walk omega_arc replaced, kept as its oracle."""
    d = curve.distances_from(t0)
    inside = d < delta
    k0 = int(np.argmin(d))
    if not inside[k0]:
        raise EmptyArc(f"no sample within {delta} of t0={t0}")
    m = d.size
    mask = np.zeros(m, dtype=bool)
    lo = k0
    while lo > 0 and inside[lo - 1]:
        lo -= 1
    hi = k0
    while hi + 1 < m and inside[hi + 1]:
        hi += 1
    mask[lo:hi + 1] = True
    wrap = join_ends or curve.closed
    if wrap and (mask[0] != mask[-1]):
        if mask[0] and inside[-1]:
            j = m - 1
            while j > 0 and inside[j - 1] and not mask[j - 1]:
                j -= 1
            mask[j:] = True
        elif mask[-1] and inside[0]:
            j = 0
            while j + 1 < m and inside[j + 1] and not mask[j + 1]:
                j += 1
            mask[:j + 1] = True
    if curve.closed:
        mask[-1] = mask[0] = mask[0] or mask[-1]
    return mask


@st.composite
def arc_cases(draw):
    curve = ZOO[draw(st.sampled_from(sorted(ZOO)))](
        draw(st.integers(32, 200)))
    n = curve.n_samples
    where = draw(st.sampled_from(["origin", "sample", "near", "anchor"]))
    if where == "origin":
        t0 = 0j
    elif where == "anchor":
        t0 = 1.0 + 0j
    else:
        t0 = complex(curve.samples[draw(st.integers(0, n - 1))])
        if where == "near":
            t0 += complex(draw(st.floats(-0.1, 0.1)),
                          draw(st.floats(-0.1, 0.1)))
    delta = 10.0 ** draw(st.floats(-4.0, 0.5))
    return curve, t0, delta, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=arc_cases())
def test_omega_arc_matches_loop(case):
    curve, t0, delta, join_ends = case
    try:
        expected = loop_omega_arc(curve, t0, delta, join_ends)
    except EmptyArc:
        with pytest.raises(EmptyArc):
            cl.omega_arc(curve, t0, delta, join_ends=join_ends)
        return
    mask = cl.omega_arc(curve, t0, delta, join_ends=join_ends)
    assert mask.dtype == bool
    assert np.array_equal(mask, expected)


def test_cached_lengths_are_readonly(spiral1):
    seg = np.diff(spiral1.cumlen)
    aw = np.zeros(spiral1.n_samples)
    aw[:-1] += 0.5 * seg
    aw[1:] += 0.5 * seg
    for got, want in ((spiral1.seg_lengths, seg),
                      (spiral1.arc_weights, aw),
                      (spiral1.log_arc_weights, np.log(aw))):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    assert spiral1.seg_lengths is spiral1.seg_lengths
    assert spiral1.arc_weights is spiral1.arc_weights
    assert spiral1.log_arc_weights is spiral1.log_arc_weights


# --- shared helpers: the index stride and the CSV writer ----------------------


def stride_forms(m, count):
    """The six strided-index expressions that strided_indices replaced."""
    with_min = np.unique(np.linspace(0, m - 1, min(count, m)).round()
                         .astype(int))
    forms = {"eval_subgrid": with_min, "measure_dini": with_min,
             "ap_t_points": with_min, "ap_eps_ranks": with_min}
    if m > 0:  # default_carleson_grids' form: curves have samples
        forms["carleson_t_points"] = np.unique(
            np.linspace(0, m - 1, count).round().astype(int))
    # select_delta_and_eps subsampled only above max_candidates
    forms["delta_ranks"] = (np.arange(m) if m <= count else np.unique(
        np.linspace(0, m - 1, count).round().astype(int)))
    return forms


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 5000), count=st.integers(1, 400),
       offset=st.sampled_from([None, -1, 0, 1]))
def test_strided_indices_equals_replaced_forms(m, count, offset):
    if offset is not None:  # count just below, at and just above m
        count = max(1, m + offset)
    got = cl.curves.strided_indices(m, count)
    for name, expected in stride_forms(m, count).items():
        assert np.array_equal(got, expected), name


def test_csv_text_exact_bytes(tmp_path):
    header = ["a", "b", "c", "d", "e"]
    rows = [[0.1, np.float64(1.0) / 3.0, 7, "arc_j0", ""],
            [2.0, np.float64(1e-300), np.int64(-3), "random_1", ""],
            (-0.0, np.float64("inf"), 0, "", "x")]
    expected = ("a,b,c,d,e\r\n"
                "0.10000000000000001,0.33333333333333331,7,arc_j0,\r\n"
                "2,1e-300,-3,random_1,\r\n"
                "-0,inf,0,,x\r\n")
    assert cl.curves.csv_text(header, rows) == expected
    # repr would print 0.1 and 2.0: no float takes that route
    assert "0.1," not in expected and "2.0" not in expected
    path = tmp_path / "t.csv"
    cl.curves.write_csv(path, header, rows)
    assert path.read_bytes() == expected.encode("ascii")


def test_curve_carries_no_label():
    """A curve is its samples, cumlen and closed flag; the provenance label
    that nothing read is gone from Curve and from_points."""
    with pytest.raises(TypeError):
        cl.Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), False, "x")
    with pytest.raises(TypeError):
        cl.from_points([0.0, 1.0], provenance="x")


def test_array_dataclasses_compare_by_identity():
    """Results that hold arrays answer == by identity instead of raising
    on the truth value of an elementwise comparison."""
    curve = cl.generate_circle(1.0, 16)
    f = np.ones(curve.n_samples)
    spiral = cl.generate_log_spiral(1.0, 1e-4, 1.0, 1024)
    branch = cl.unwrap_arg(spiral, 0j)
    evaluator = cl.MaximalEvaluator(curve)
    makers = {
        "Curve": lambda: cl.generate_circle(1.0, 16),
        "ExponentField": lambda: cl.constant_exponent(curve, 2.0),
        "ArgBranch": lambda: cl.unwrap_arg(curve, 0j),
        "Weight": lambda: cl.power_weight(curve, 0j, 0.3),
        "MaximalResult": lambda: cl.weighted_maximal(
            curve, f, 0j, 0.0, evaluator=evaluator),
        "SubmultSamples": lambda: cl.compute_W(spiral, 0j,
                                               cl.phi(branch, 0.2j)),
    }
    for name, make in makers.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert a == a and a != b, name
        assert len({a, a, b}) == 2, name
