"""The bucket-table maximal engine against the two kernels it replaced.

``SortedCumsumEvaluator`` is the first ``MaximalEvaluator``: per
evaluation point it sorts every distance, keeps the sort order and the
cumulative arc weights, and answers each integrand with a gather and a
cumulative sum.  ``ReduceatEvaluator`` is the bucket table with the run
sums taken by ``np.add.reduceat`` over every sample, as before the
compensated prefix sums.  Both are kept here only as test references.
``dense_reference_table`` is the bucket-table build before the block
build and the closed-form bucket ids: every distance of every row, each row
searched with ``np.searchsorted``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab import maximal as engine_module
from carlesonlab.harness import _eval_subgrid


class SortedCumsumEvaluator:
    """Reference engine: per-point sort order plus cumulative sums."""

    def __init__(self, curve, eval_indices, max_radii):
        self.eval_indices = np.asarray(eval_indices, dtype=np.intp)
        self.arc_weights = curve.arc_weights
        self.rows = []
        for i in self.eval_indices:
            dists = np.abs(curve.samples - curve.samples[i])
            order = np.argsort(dists)
            ds = dists[order]
            cum_aw = np.cumsum(self.arc_weights[order])
            d_lo = ds[min((ds <= 0.0).sum(), ds.size - 1)]
            d_hi = ds[-1] * (1.0 + 1e-9)
            if ds.size <= max_radii:
                eps = np.where(ds > 0.0, ds * (1.0 + 1e-12),
                               d_lo * (1.0 - 1e-12))
            else:
                eps = np.exp(np.linspace(np.log(d_lo * (1.0 - 1e-12)),
                                         np.log(d_hi), max_radii))
            ks = np.maximum(np.searchsorted(ds, eps, side="left"), 1)
            self.rows.append((order, cum_aw, eps, ks))

    def averages(self, g):
        """Per point: the radius grid and the portion average at each radius."""
        gw = g * self.arc_weights
        out = []
        for order, cum_aw, eps, ks in self.rows:
            cum_g = np.cumsum(gw[order])
            out.append((eps, cum_g[ks - 1] / cum_aw[ks - 1]))
        return out

    def sup_average(self, g):
        table = self.averages(g)
        hits = [np.argmax(avg) for _, avg in table]
        return (np.array([avg[h] for (_, avg), h in zip(table, hits)]),
                np.array([eps[h] for (eps, _), h in zip(table, hits)]))


class ReduceatEvaluator(cl.MaximalEvaluator):
    """Reference kernel: each run sum added up term by term."""

    def _portion_sums(self, g: np.ndarray) -> np.ndarray:
        """E x R table: per row and radius, the sum of g * arc_weights."""
        gw = np.zeros(self._aw.size + 1)  # the boundary runs' zero sentinel
        np.multiply(g, self._aw, out=gw[:-1])
        run_sums = np.add.reduceat(gw, self._starts)
        table = np.bincount(self._bins, weights=run_sums,
                            minlength=self._shape[0] * self._shape[1])
        return np.cumsum(table.reshape(self._shape)[:, :-1], axis=1)


def dense_reference_table(curve, eval_indices, max_radii):
    """Reference build: (eps, starts, bins) from every distance, each row
    bucketed by searchsorted on its grid."""
    n = curve.n_samples
    eval_indices = np.asarray(eval_indices, dtype=np.intp)
    rows = eval_indices.size
    exact = n <= max_radii
    n_radii = n if exact else int(max_radii)
    slots = n_radii + 1
    eps_table = np.empty((rows, n_radii))
    starts = [np.empty(0, dtype=np.intp)]  # no rows: an empty table
    bins = [np.empty(0, dtype=np.intp)]
    chunk = max(1, (1 << 18) // n)
    for lo in range(0, rows, chunk):
        idx = eval_indices[lo:lo + chunk]
        dists = np.abs(curve.samples[None, :] - curve.samples[idx, None])
        d_lo = np.min(dists, axis=1, where=dists > 0.0, initial=np.inf)
        eps = eps_table[lo:lo + idx.size]
        if exact:
            # every realized distance: the scan is exact at this size
            ds = np.sort(dists, axis=1)
            eps[:] = np.where(ds > 0.0, ds * (1.0 + 1e-12),
                              d_lo[:, None] * (1.0 - 1e-12))
        else:
            d_hi = np.max(dists, axis=1) * (1.0 + 1e-9)
            eps[:] = np.exp(np.linspace(np.log(d_lo * (1.0 - 1e-12)),
                                        np.log(d_hi), max_radii, axis=1))
        bucket = np.empty(dists.shape, dtype=np.intp)
        for r in range(idx.size):
            bucket[r] = np.searchsorted(eps[r], dists[r], side="right")
        del dists
        new_run = np.ones(bucket.shape, dtype=bool)
        np.not_equal(bucket[:, 1:], bucket[:, :-1], out=new_run[:, 1:])
        row, col = np.nonzero(new_run)
        # each row's runs, then its boundary: shift by earlier boundaries
        pos = np.arange(row.size) + row
        ends = np.cumsum(np.bincount(row, minlength=idx.size)) \
            + np.arange(idx.size)
        chunk_starts = np.empty(row.size + idx.size, dtype=np.intp)
        chunk_bins = np.empty_like(chunk_starts)
        chunk_starts[pos] = col
        chunk_bins[pos] = (lo + row) * slots + bucket[row, col]
        chunk_starts[ends] = n
        chunk_bins[ends] = (lo + np.arange(idx.size)) * slots + n_radii
        starts.append(chunk_starts)
        bins.append(chunk_bins)
    return eps_table, np.concatenate(starts), np.concatenate(bins)


def _assert_same_table(engine, curve, idx, max_radii):
    eps, starts, bins = dense_reference_table(curve, idx, max_radii)
    assert np.array_equal(engine._eps, eps)
    assert np.array_equal(engine._starts, starts)
    assert np.array_equal(engine._bins, bins)


def _square(n):
    """Closed polygon whose last sample duplicates its first."""
    t = np.linspace(0.0, 4.0, n + 1)
    side = np.floor(t).astype(int) % 4
    u = t - np.floor(t)
    corners = np.array([0, 1, 1 + 1j, 1j, 0])
    pts = corners[side] + u * (corners[side + 1] - corners[side])
    pts[-1] = pts[0]
    return cl.from_points(pts, closed=True)


CURVES = {
    "circle": lambda n: cl.generate_circle(1.0, n),
    "graded_circle": lambda n: cl.generate_graded_circle(1.0, n),
    "spiral": lambda n: cl.generate_log_spiral(1.0, 1e-3, 1.0, n),
    "segment": lambda n: cl.generate_segment(1e-3, 1.0, n),
    "corner": lambda n: cl.generate_corner(np.pi / 2, 1e-3, 1.0, n),
    "closed_square": _square,
}


@st.composite
def engine_cases(draw):
    curve = CURVES[draw(st.sampled_from(sorted(CURVES)))](
        draw(st.integers(64, 320)))
    n = curve.n_samples
    idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                       max_size=24))))
    if draw(st.booleans()):
        max_radii = draw(st.integers(1, n - 1))    # log-spaced grid
    else:
        max_radii = draw(st.integers(n, 2 * n))    # every realized distance
    # a few eval rows per build chunk, so that rows span several chunks
    chunk_entries = draw(st.integers(1, 8)) * n
    seed = draw(st.integers(0, 2**32 - 1))
    return curve, idx, max_radii, chunk_entries, seed


def _integrands(curve, seed):
    rng = np.random.default_rng(seed)
    n = curve.n_samples
    sparse = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.2)
    lo, hi = np.sort(rng.integers(0, n, 2))
    indicator = np.zeros(n)
    indicator[lo:hi + 1] = 1.0
    spiky = np.exp(rng.normal(0.0, 8.0, n))
    return [rng.uniform(0.0, 1.0, n), sparse, indicator, spiky]


@settings(max_examples=60, deadline=None)
@given(case=engine_cases())
def test_bucket_table_matches_sorted_cumsum(case):
    curve, idx, max_radii, chunk_entries, seed = case
    with mock.patch.object(engine_module, "_CHUNK_ENTRIES", chunk_entries):
        engine = cl.MaximalEvaluator(curve, idx, max_radii)
    oracle = SortedCumsumEvaluator(curve, idx, max_radii)
    reduceat = ReduceatEvaluator(curve, idx, max_radii)
    ones, _ = engine.sup_average(np.ones(curve.n_samples))
    assert np.all(ones == 1.0)
    for g in _integrands(curve, seed):
        values, eps = engine.sup_average(g)
        np.testing.assert_allclose(values, reduceat.sup_average(g)[0],
                                   rtol=1e-12, atol=0.0)
        ref_values, ref_eps = oracle.sup_average(g)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        for row in np.flatnonzero(eps != ref_eps):
            # a different radius only where the averages tie within 1e-12
            grid, avg = oracle.averages(g)[row]
            at = np.flatnonzero(grid == eps[row])
            assert at.size > 0
            assert avg[at[0]] == pytest.approx(ref_values[row], rel=1e-12)


def _tight_spiral(n):
    """Twenty turns 6.3e-4 apart, sampled more coarsely than that, so a
    point's nearest samples lie on the neighbouring turns."""
    theta = np.linspace(0.0, 40.0 * np.pi, n)
    return cl.from_points((1.0 - 1e-4 * theta) * np.exp(1j * theta))


BUILD_CURVES = {
    **CURVES,
    "tight_spiral": _tight_spiral,
    "mixed_spirality": lambda n: cl.generate_mixed_spirality(
        -1.0, 1.0, 1e-3, 1.0, n),
}

# (max_radii, sample counts) on every side of the size rule: every
# realized distance for n <= max_radii; the block build once
# isqrt(n // max_radii) >= 8, else the dense scan
BUILD_SIZES = [
    (256, (32, 256)), (256, (257, 4096)), (256, (16384, 20000)),
    (1, (32, 63)), (1, (64, 400)),
    (2, (32, 127)), (2, (128, 400)),
]


@st.composite
def build_cases(draw):
    max_radii, (n_lo, n_hi) = draw(st.sampled_from(BUILD_SIZES))
    curve = BUILD_CURVES[draw(st.sampled_from(sorted(BUILD_CURVES)))](
        draw(st.integers(n_lo, n_hi)))
    n = curve.n_samples
    inner = draw(st.sets(st.integers(0, n - 1), max_size=22))
    idx = np.array(sorted(inner | {0, n - 1}))
    chunk_entries = draw(st.integers(1, 8)) * n
    return curve, idx, max_radii, chunk_entries


@settings(max_examples=80, deadline=None)
@given(case=build_cases())
def test_build_matches_dense_reference(case):
    """The block build and the closed-form ids give the reference table
    bit for bit, on every path and across chunks."""
    curve, idx, max_radii, chunk_entries = case
    with mock.patch.object(engine_module, "_CHUNK_ENTRIES", chunk_entries):
        engine = cl.MaximalEvaluator(curve, idx, max_radii)
    _assert_same_table(engine, curve, idx, max_radii)


def test_build_matches_dense_reference_deep():
    curve = cl.generate_graded_circle(1.0, 131072)
    idx = _eval_subgrid(curve, 256)
    _assert_same_table(cl.MaximalEvaluator(curve, idx), curve, idx, 256)


@pytest.mark.parametrize("make", [
    lambda: cl.generate_graded_circle(1.0, 4096),
    lambda: cl.generate_log_spiral(1.0, 1e-3, 1.0, 4096),
], ids=["graded_circle", "log_spiral"])
def test_full_grid_build_matches_dense_reference(make):
    """The default full grid (eval_indices=None) runs the dense scan."""
    curve = make()
    engine = cl.MaximalEvaluator(curve)
    _assert_same_table(engine, curve, np.arange(curve.n_samples), 256)


def test_full_grid_build_across_chunks_closed_square():
    """Five rows per chunk, so that run heads are found on flat buffers of
    several rows; the square's last sample repeats its first, so rows 0
    and n - 1 have a second zero distance."""
    curve = _square(1024)
    n = curve.n_samples
    with mock.patch.object(engine_module, "_CHUNK_ENTRIES", 5 * n):
        engine = cl.MaximalEvaluator(curve)
    _assert_same_table(engine, curve, np.arange(n), 256)


def test_closed_form_ids_next_to_grid_points():
    """Distances exactly on grid radii and one ulp to either side, where
    the closed form alone cannot tell the bucket, get the searched one."""
    eps = engine_module._log_grid(np.array([1e-9, 0.25]),
                                  np.array([2.0, 3.0]), 256)
    for row in range(2):
        grid = eps[row]
        d = np.concatenate([[0.0], grid, np.nextafter(grid, 0.0),
                            np.nextafter(grid, np.inf)])
        buf = d.copy()
        engine_module._bucket_ids(buf, eps, np.full(d.size, row),
                                  np.arange(d.size), d.astype(complex),
                                  np.zeros(2, dtype=complex))
        assert np.array_equal(buf, np.searchsorted(grid, d, side="right"))


def _assert_same_sup(engine, reference, g):
    """Values to 1e-12; a different radius only where averages tie."""
    values, eps = engine.sup_average(g)
    ref_values, ref_eps = reference.sup_average(g)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
    avg = reference._portion_sums(g) / reference._den
    for row in np.flatnonzero(eps != ref_eps):
        at = np.flatnonzero(reference._eps[row] == eps[row])
        assert avg[row, at[0]] == pytest.approx(ref_values[row], rel=1e-12)


def test_prefix_kernel_matches_reduceat_deep():
    """Tiny runs far down the array, where each prefix sum is about the
    whole length: a plain prefix difference is off by up to a few percent
    here, the compensated one is not."""
    curve = cl.generate_graded_circle(1.0, 32768)
    idx = _eval_subgrid(curve, 256)
    engine = cl.MaximalEvaluator(curve, idx)
    reference = ReduceatEvaluator(curve, idx)
    d = np.abs(curve.samples - 1.0)
    rng = np.random.default_rng(5)
    for g in (d ** -0.8, d ** 0.7, rng.uniform(0.0, 1.0, curve.n_samples)):
        _assert_same_sup(engine, reference, g)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_single_radius_is_exact(name):
    """With one radius the largest portion does not cover the curve, so
    the prefix error bound does not apply: every read run is one sample,
    taken as it is."""
    curve = CURVES[name](200)
    idx = np.arange(curve.n_samples)
    g = _integrands(curve, 11)[3]
    values, _ = cl.MaximalEvaluator(curve, idx, 1).sup_average(g)
    ref_values, _ = ReduceatEvaluator(curve, idx, 1).sup_average(g)
    assert np.array_equal(values, ref_values)


def test_cumsum_is_sequential():
    """The TwoSum correction assumes c[k] = fl(c[k-1] + x[k]) exactly."""
    rng = np.random.default_rng(6)
    for x in (rng.uniform(0.0, 1.0, 100_003),
              np.exp(rng.normal(0.0, 20.0, 100_003))):
        c = np.cumsum(x)
        assert np.array_equal(c[1:], c[:-1] + x[1:])
