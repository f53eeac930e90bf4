import numpy as np
import pytest

import carlesonlab as cl
from carlesonlab.errors import (AllAnnuliEmpty, GridTooNarrow,
                                PreconditionError)
from carlesonlab.submult import _band_extrema
from conftest import ZOO_SPECS, moved


def brute_force_W(curve, t0, log_psi, x_grid, R_grid, widen=1.01):
    """Direct double loop with explicit band membership; the oracle for
    compute_W."""
    d = np.abs(curve.samples - t0)
    order = np.argsort(d)
    ld, lp = np.log(d[order]), log_psi[order]

    def band(q):
        j = np.searchsorted(ld, q)
        jc = min(max(j, 1), ld.size - 1)
        hw = 0.5 * widen * (ld[jc] - ld[jc - 1])
        sel = (ld >= q - hw) & (ld <= q + hw)
        if not sel.any():
            return None
        return lp[sel].max(), lp[sel].min()

    out = np.empty(x_grid.size)
    for i, x in enumerate(x_grid):
        best = -np.inf
        for R in R_grid:
            if x <= 1.0:
                num, den = band(np.log(x * R)), band(np.log(R))
            else:
                num, den = band(np.log(R)), band(np.log(R / x))
            if num is not None and den is not None:
                best = max(best, num[0] - den[1])
        out[i] = best
    return np.exp(out)


def aligned_segment_setup(lam=0.7):
    """Segment sampled on the x-grid's exponent lattice: multiplying a sample
    radius by a grid x lands exactly on another sample, every annulus band
    holds one point, and the majorant of a power weight is x^lam up to float
    rounding."""
    xs = cl.default_x_grid()
    per = 8
    sub = (6.0 / 128.0) / per  # x-grid decade step, eight sub-steps each
    exps = np.arange(-680, 1) * sub  # ~3.98 decades, on-lattice
    radii = 10.0 ** exps
    curve = cl.from_points(radii.astype(complex))
    w = cl.power_weight(curve, 0j, lam)
    R_grid = radii[:: per * 16].copy()
    return curve, w, xs, R_grid


def test_segment_power_weight_exact():
    curve, w, xs, R_grid = aligned_segment_setup(0.7)
    s = cl.compute_W(curve, 0j, w, x_grid=xs, R_grid=R_grid)
    assert np.max(np.abs(s.log_vals - 0.7 * np.log(xs))) < 1e-9


def test_compute_W_against_brute_force(spiral1, spiral1_branch):
    e = cl.phi(spiral1_branch, 1j)
    xs = cl.default_x_grid()[::8]
    R = cl.default_radius_grid(spiral1, 0j)[::4]
    s = cl.compute_W(spiral1, 0j, e, x_grid=xs, R_grid=R)
    oracle = brute_force_W(spiral1, 0j, e.log_values, xs, R)
    assert np.max(np.abs(np.log(oracle) - s.log_vals)) < 1e-12


def loop_log_W(curve, t0, psi, x_grid, R_grid):
    """compute_W's log rho before its one pass: one x at a time, the radius
    pairs kept where both bands hold a sample.  The same arithmetic, so the
    one pass must match it bit for bit."""
    d = curve.distances_from(t0)
    order = np.argsort(d)
    log_d = np.log(d[order])
    log_psi = np.append(psi.log_values[order], 0.0)
    log_R = np.log(R_grid)
    out = np.empty(x_grid.size)
    for i, x in enumerate(x_grid):
        lx = np.log(x)
        if x <= 1.0:
            num_q, den_q = log_R + lx, log_R
        else:
            num_q, den_q = log_R, log_R - lx
        nmax, _ = _band_extrema(log_d, log_psi, num_q)
        _, dmin = _band_extrema(log_d, log_psi, den_q)
        ok = np.isfinite(nmax) & np.isfinite(dmin)
        out[i] = np.max(nmax[ok] - dmin[ok])
    return out


def test_compute_W_matches_loop(zoo):
    xs = cl.default_x_grid()
    for curve, t0 in zoo.values():
        R = cl.default_radius_grid(curve, t0)
        for gamma in (1j, 0.3 - 0.2j):
            w = cl.gamma_weight(curve, t0, gamma)
            loop = loop_log_W(curve, t0, w, xs, R)
            assert np.array_equal(cl.compute_W(curve, t0, w).vals,
                                  np.exp(loop))


def test_W_of_eta_on_spiral_is_power(spiral1, spiral1_branch):
    s = cl.compute_W(spiral1, 0j, cl.phi(spiral1_branch, 1j))
    mask = (s.xs >= 1e-2) & (s.xs <= 1e2)
    assert np.max(np.abs(s.vals[mask] / s.xs[mask] - 1.0)) < 0.10


def test_W_of_unit_weight(spiral1):
    s = cl.compute_W(spiral1, 0j, cl.unit_weight(spiral1))
    assert np.max(np.abs(s.vals - 1.0)) < 1e-12


def test_W_at_one_is_at_least_one(graded_circle):
    b = cl.unwrap_arg(graded_circle, 1.0 + 0j)
    s = cl.compute_W(graded_circle, 1.0 + 0j, cl.phi(b, 1j))
    mid = np.argmin(np.abs(s.xs - 1.0))
    assert s.xs[mid] == 1.0
    assert s.vals[mid] >= 1.0


def test_W_degenerate_grid_raises(spiral1, spiral1_branch):
    with pytest.raises(AllAnnuliEmpty):
        cl.compute_W(spiral1, 0j, cl.phi(spiral1_branch, 1j),
                     R_grid=np.array([1e-4]))


@pytest.mark.parametrize("name, bad", [
    ("x_grid", np.nan), ("x_grid", np.inf),
    ("R_grid", np.nan), ("R_grid", np.inf),
])
def test_compute_W_rejects_non_finite_grids(spiral1, name, bad):
    """A NaN passed the positivity test: a non-finite x read as a
    numerical failure (AllAnnuliEmpty), a non-finite radius was skipped."""
    grids = {"x_grid": cl.default_x_grid(),
             "R_grid": cl.default_radius_grid(spiral1, 0j)}
    grids[name][3] = bad
    with pytest.raises(PreconditionError, match=f"{name} must be finite"):
        cl.compute_W(spiral1, 0j, cl.unit_weight(spiral1), **grids)


# --- index estimation -----------------------------------------------------


def test_estimate_exact_power():
    xs = cl.default_x_grid()
    s = cl.SubmultSamples(xs, xs ** 0.6, {})
    pair = cl.estimate_indices(s)
    assert pair.alpha == pytest.approx(0.6, abs=1e-6)
    assert pair.beta == pytest.approx(0.6, abs=1e-6)


def test_estimate_two_power_envelope():
    # rho = max(x^a, x^b) has indices (a, b) by the limit formulas
    a, b = -0.4, 1.3
    xs = cl.default_x_grid()
    s = cl.SubmultSamples(xs, np.maximum(xs ** a, xs ** b), {})
    pair = cl.estimate_indices(s)
    assert pair.alpha == pytest.approx(a, abs=1e-3)
    assert pair.beta == pytest.approx(b, abs=1e-3)


def test_estimate_constant():
    xs = cl.default_x_grid()
    pair = cl.estimate_indices(cl.SubmultSamples(xs, np.ones_like(xs), {}))
    assert pair.alpha == pytest.approx(0.0, abs=1e-9)
    assert pair.beta == pytest.approx(0.0, abs=1e-9)


def test_estimate_narrow_grid_rejected():
    xs = 10.0 ** np.linspace(-2, 2, 65)
    with pytest.raises(GridTooNarrow):
        cl.estimate_indices(cl.SubmultSamples(xs, np.ones_like(xs), {}))


def test_index_pair_ordering():
    with pytest.raises(PreconditionError):
        cl.IndexPair(1.0, 0.0, {})


@pytest.mark.parametrize("alpha, beta", [
    (np.nan, 1.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf),
])
def test_index_pair_rejects_non_finite(alpha, beta):
    """A NaN index compared false against the other and was kept, so a
    verdict read lower = upper = nan."""
    with pytest.raises(PreconditionError, match="finite alpha and beta"):
        cl.IndexPair(alpha, beta, {})


# --- spirality -------------------------------------------------------------


def test_spirality_circle(graded_circle):
    pair = cl.spirality_indices(graded_circle, 1.0 + 0j)
    assert abs(pair.alpha) < 0.05 and abs(pair.beta) < 0.05


def test_spirality_spiral(spiral1):
    pair = cl.spirality_indices(spiral1, 0j)
    assert pair.alpha == pytest.approx(1.0, abs=0.1)
    assert pair.beta == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("name", sorted(ZOO_SPECS))
def test_spirality_invariant_under_rotation_and_dilation(zoo, name):
    """The indices depend on tau - t0 only through |tau - t0| and the
    increments of its argument, which rotation and dilation about t0
    keep."""
    curve, t0 = zoo[name]
    base = cl.spirality_indices(curve, t0)
    for z in (np.exp(0.7j), np.exp(-2.5j), 3.0, 0.25):
        pair = cl.spirality_indices(moved(curve, t0, z), t0)
        assert pair.alpha == pytest.approx(base.alpha, rel=0.0, abs=1e-6)
        assert pair.beta == pytest.approx(base.beta, rel=0.0, abs=1e-6)


def test_spirality_mixed_monotone_widening():
    """The lower index of the mixed curve walks toward its target as the
    resolved scale deepens; the upper index saturates at the value set by
    the slow double-log phase within float range (frozen baselines)."""
    measured = []
    for r_min in (1e-4, 1e-8, 1e-12):
        m = cl.generate_mixed_spirality(-1.0, 1.0, r_min, 1.0, 16384)
        measured.append(cl.spirality_indices(m, 0j))
    alphas = [p.alpha for p in measured]
    assert all(a2 <= a1 + 1e-6 for a1, a2 in zip(alphas, alphas[1:]))
    assert -1.0 - 0.15 <= alphas[-1] <= alphas[0]
    assert alphas[-1] == pytest.approx(-0.9356, abs=0.05)
    assert measured[-1].beta == pytest.approx(0.4776, abs=0.05)


def test_spirality_mixed_regression_baseline():
    m = cl.generate_mixed_spirality(-1.0, 1.0, 1e-6, 1.0, 16384)
    pair = cl.spirality_indices(m, 0j)
    assert pair.alpha == pytest.approx(0.1812, abs=0.05)
    assert pair.beta == pytest.approx(0.4776, abs=0.05)


# --- closed form -----------------------------------------------------------


def test_phi_indices_real_gamma():
    spir = cl.IndexPair(-1.0, 1.0, {})
    pair = cl.phi_indices_closed_form(0.3, spir)
    assert (pair.alpha, pair.beta) == (pytest.approx(0.3), pytest.approx(0.3))


def test_phi_indices_imaginary_gamma():
    spir = cl.IndexPair(-1.0, 1.0, {})
    pair = cl.phi_indices_closed_form(1j, spir)
    assert (pair.alpha, pair.beta) == (pytest.approx(-1.0),
                                       pytest.approx(1.0))


def test_phi_indices_mixed_gamma():
    spir = cl.IndexPair(0.0, 2.0, {})
    pair = cl.phi_indices_closed_form(0.5 - 1j, spir)
    assert pair.alpha == pytest.approx(-1.5)
    assert pair.beta == pytest.approx(0.5)


def test_phi_indices_match_measurement_on_delta2():
    s = cl.generate_log_spiral(2.0, 1e-4, 1.0, 8192)
    b = cl.unwrap_arg(s, 0j)
    spir = cl.spirality_indices(s, 0j)
    gamma = 0.5 - 1j
    measured = cl.estimate_indices(cl.compute_W(s, 0j, cl.phi(b, gamma)))
    predicted = cl.phi_indices_closed_form(gamma, spir)
    assert measured.alpha == pytest.approx(predicted.alpha, abs=0.05)
    assert measured.beta == pytest.approx(predicted.beta, abs=0.05)


# --- power sandwich --------------------------------------------------------


def brute_force_sandwich(curve, t0, w, eps, delta, indices):
    """Exhaustive pair scan; quadratic, run at modest n only."""
    d = np.abs(curve.samples - t0)
    mask = cl.omega_arc(curve, t0, delta)
    lw = w.log_values
    b = indices.beta + eps
    a = indices.alpha - eps
    outs, ins = np.flatnonzero(~mask), np.flatnonzero(mask)
    c1 = max(np.exp(lw[t] - lw[ins] - b * (np.log(d[t]) - np.log(d[ins])))
             .max() for t in outs)
    c2 = max(np.exp(lw[t] - lw[outs] - a * (np.log(d[t]) - np.log(d[outs])))
             .max() for t in ins)
    return c1, c2


def test_sandwich_matches_pair_scan():
    curve = cl.generate_log_spiral(1.0, 1e-3, 1.0, 1024)
    b = cl.unwrap_arg(curve, 0j)
    w = cl.phi(b, 1j)
    idx = cl.estimate_indices(cl.compute_W(curve, 0j, w))
    delta = cl.d_t(curve, 0j) / 8
    c1, c2 = cl.power_sandwich(curve, 0j, w, 0.1, delta, indices=idx)
    o1, o2 = brute_force_sandwich(curve, 0j, w, 0.1, delta, idx)
    assert c1 == pytest.approx(o1, rel=1e-9)
    assert c2 == pytest.approx(o2, rel=1e-9)


def test_sandwich_unit_weight_finite_and_stable():
    vals = []
    for n in (1024, 2048):
        curve = cl.generate_log_spiral(1.0, 1e-3, 1.0, n)
        idx = cl.IndexPair(0.0, 0.0, {})
        vals.append(cl.power_sandwich(curve, 0j, cl.unit_weight(curve), 0.1,
                                      cl.d_t(curve, 0j) / 8, indices=idx))
    (c1a, c2a), (c1b, c2b) = vals
    assert np.isfinite(c1a) and np.isfinite(c2a)
    assert abs(c1b - c1a) / c1a < 0.10
    assert abs(c2b - c2a) / c2a < 0.10


def test_sandwich_power_weight_close_to_one(spiral1):
    w = cl.power_weight(spiral1, 0j, 0.5)
    idx = cl.estimate_indices(cl.compute_W(spiral1, 0j, w))
    c1, c2 = cl.power_sandwich(spiral1, 0j, w, 0.1,
                               cl.d_t(spiral1, 0j) / 8, indices=idx)
    assert 0.9 <= c1 <= 1.1
    assert 0.9 <= c2 <= 1.1


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
def test_sandwich_rejects_bad_eps(spiral1, eps):
    """A NaN eps passed the positivity test and gave (nan, nan)."""
    w = cl.power_weight(spiral1, 0j, 0.5)
    with pytest.raises(PreconditionError, match="eps must be finite"):
        cl.power_sandwich(spiral1, 0j, w, eps, cl.d_t(spiral1, 0j) / 8,
                          indices=cl.IndexPair(0.5, 0.5, {}))


def test_sandwich_rejects_bad_delta(spiral1, spiral1_branch):
    w = cl.phi(spiral1_branch, 1j)
    idx = cl.IndexPair(1.0, 1.0, {})
    with pytest.raises(PreconditionError):
        cl.power_sandwich(spiral1, 0j, w, 0.1, 2.0, indices=idx)


# --- property suites (shared with acceptance) ------------------------------


def grid_submultiplicativity_excess(s):
    """max over on-grid products of log rho(x1 x2) - log rho(x1) - log
    rho(x2); nonpositive means exactly submultiplicative."""
    n = len(s.xs)
    mid = n // 2
    lv = s.log_vals
    worst = -np.inf
    idx = np.arange(n)
    for i in range(n):
        k = idx + i - mid
        m = (k >= 0) & (k < n)
        worst = max(worst, float(np.max(lv[k[m]] - lv[i] - lv[idx[m]])))
    return worst


def test_submultiplicative_exact_on_aligned_segment():
    curve, w, xs, R_grid = aligned_segment_setup(0.7)
    s = cl.compute_W(curve, 0j, w, x_grid=xs, R_grid=R_grid)
    assert grid_submultiplicativity_excess(s) < 1e-9


def test_submultiplicative_on_spiral(spiral1, spiral1_branch):
    s = cl.compute_W(spiral1, 0j, cl.phi(spiral1_branch, 1j))
    assert grid_submultiplicativity_excess(s) < np.log(1.05)


def test_export_csv(tmp_path, spiral1, spiral1_branch):
    s = cl.compute_W(spiral1, 0j, cl.phi(spiral1_branch, 1j))
    path = tmp_path / "w.csv"
    cl.export_submult_csv(s, path)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "x,rho,log_x,log_rho"
    assert len(lines) == len(s.xs) + 2
