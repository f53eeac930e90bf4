"""The bucket-table maximal engine against the sorted-cumsum engine it replaced.

``SortedCumsumEvaluator`` is the previous ``MaximalEvaluator``: per
evaluation point it sorts every distance, keeps the sort order and the
cumulative arc weights, and answers each integrand with a gather and a
cumulative sum.  It is kept here only as a test reference.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl

# the package re-exports the function maximal() under the module's name
engine_module = importlib.import_module("carlesonlab.maximal")


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


def _square(n):
    """Closed polygon whose last sample duplicates its first."""
    t = np.linspace(0.0, 4.0, n + 1)
    side = np.floor(t).astype(int) % 4
    u = t - np.floor(t)
    corners = np.array([0, 1, 1 + 1j, 1j, 0])
    pts = corners[side] + u * (corners[side + 1] - corners[side])
    pts[-1] = pts[0]
    return cl.from_points(pts, closed=True, provenance="square")


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
    ones, _ = engine.sup_average(np.ones(curve.n_samples))
    assert np.all(ones == 1.0)
    for g in _integrands(curve, seed):
        values, eps = engine.sup_average(g)
        ref_values, ref_eps = oracle.sup_average(g)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        for row in np.flatnonzero(eps != ref_eps):
            # a different radius only where the averages tie within 1e-12
            grid, avg = oracle.averages(g)[row]
            at = np.flatnonzero(grid == eps[row])
            assert at.size > 0
            assert avg[at[0]] == pytest.approx(ref_values[row], rel=1e-12)
