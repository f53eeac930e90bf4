"""The streamed per-portion maximal engine against the kernels it replaced.

``SortedCumsumEvaluator`` is the first ``MaximalEvaluator``: per
evaluation point it sorts every distance, keeps the sort order and the
cumulative arc weights, and answers each integrand with a gather and a
cumulative sum.  Two read the run-length bucket table that the engine
stored before its per-portion intervals: ``ReduceatEvaluator`` takes each
run sum by ``np.add.reduceat`` over every sample, as before the compensated
prefix sums, and ``PrefixRunEvaluator`` as a difference of two compensated
prefix sums, bucketed and accumulated over the radii.
``IntervalTableEvaluator`` is the per-portion kernel before it streamed its
table: three E x R index arrays and a whole E x R table of portion sums per
call; the engine must match it bit for bit.  All four are kept here only as
test references.  ``dense_reference_table`` is the run table's build before
the block build and the closed-form bucket ids: every distance of every
row, each row searched with ``np.searchsorted``.  ``stretch_portions`` is
the engine's interval kernel before its walks: it split each row's runs
into the stretches after and before the eval run and found each radius's
nearest block by keyed running minima (``nearest_block``); the engine's
kernel must give its p, q and extra segments on every build chunk.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab import maximal as engine_module
from carlesonlab.curves import strided_indices
from carlesonlab.maximal import _gap_samples


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


class TableEvaluator:
    """A reference engine that holds a whole E x R table of portion sums
    per call; subclasses give _portion_sums, _eps and _den."""

    def sup_average(self, g):
        shift = math.frexp(float(np.max(g)))[1] - 1
        if shift:  # the weighted path's maximum is exactly 1: no copy
            g = np.ldexp(g, -shift)
        avg = self._portion_sums(g)
        avg /= self._den
        hit = np.argmax(avg, axis=1)
        rows = np.arange(avg.shape[0])
        return np.ldexp(avg[rows, hit], shift), self._eps[rows, hit]


class RunTableEvaluator(TableEvaluator):
    """A reference engine on dense_reference_table's run table: each row's
    runs, then a boundary start at n whose bucket is never read."""

    def __init__(self, curve, eval_indices, max_radii=256):
        self.eval_indices = np.asarray(eval_indices, dtype=np.intp)
        self._eps, self._starts, self._bins = dense_reference_table(
            curve, self.eval_indices, max_radii)
        self._shape = (self._eps.shape[0], self._eps.shape[1] + 1)
        # one-sample runs: a boundary (n) is never followed by n + 1
        self._single = np.flatnonzero(np.diff(self._starts) == 1)
        self._aw = curve.arc_weights
        self._den = self._portion_sums(np.ones(curve.n_samples))

    def _table(self, run_sums):
        """Run sums bucketed per row and accumulated over the radii."""
        table = np.bincount(self._bins, weights=run_sums,
                            minlength=self._shape[0] * self._shape[1])
        return np.cumsum(table.reshape(self._shape)[:, :-1], axis=1)


class ReduceatEvaluator(RunTableEvaluator):
    """Reference kernel: each run sum added up term by term."""

    def _portion_sums(self, g):
        gw = np.zeros(self._aw.size + 1)  # the boundary runs' zero sentinel
        np.multiply(g, self._aw, out=gw[:-1])
        return self._table(np.add.reduceat(gw, self._starts))


class PrefixRunEvaluator(RunTableEvaluator):
    """Reference kernel: the engine's run sums before its per-portion
    intervals, each a difference of two compensated prefix sums."""

    GATHER_BLOCK = 1 << 14  # run starts per prefix-sum gather

    def _run_sums(self, g):
        """Per entry of starts: the sum of g * arc_weights over its run."""
        x = g * self._aw
        # compensated prefix sums: sum(x[:k]) = pre[k].real + pre[k].imag
        pre = np.zeros(x.size + 1, dtype=np.complex128)
        hi, lo = pre.real, pre.imag
        np.cumsum(x, out=hi[1:])
        # TwoSum: the exact rounding error of hi[k+1] = hi[k] + x[k]
        b = hi[2:] - hi[1:-1]
        err = (hi[1:-1] - (hi[2:] - b)) + (x[1:] - b)
        np.cumsum(err, out=lo[2:])
        starts = self._starts
        run_sums = np.zeros(starts.size)
        at = np.empty(self.GATHER_BLOCK + 1, dtype=np.complex128)
        diff = np.empty(self.GATHER_BLOCK, dtype=np.complex128)
        # run i ends at starts[i + 1]; the last (a boundary) stays 0
        for a in range(0, starts.size - 1, self.GATHER_BLOCK):
            m = min(self.GATHER_BLOCK, starts.size - 1 - a)
            np.take(pre, starts[a:a + m + 1], out=at[:m + 1])
            np.subtract(at[1:m + 1], at[:m], out=diff[:m])
            np.add(diff[:m].real, diff[:m].imag, out=run_sums[a:a + m])
        np.maximum(run_sums, 0.0, out=run_sums)
        # a one-sample run is its sample, with no prefix cancellation
        run_sums[self._single] = x[starts[self._single]]
        return run_sums

    def _portion_sums(self, g):
        return self._table(self._run_sums(g))


def reference_portions(starts, bins, eval_indices, n, n_radii):
    """Per row and radius, from the run table: the interval around the
    point as (start, end, head), and the other segments of the portion.

    The interval is the cyclic stretch of runs with ids <= r around the
    eval run.  It wraps across the array's ends when start > end; then end
    is n and head the end of its piece at the array's start, else head is
    0.  The other stretches of runs with ids <= r, cut at the array's
    ends, are the extra segments (row * R + r, start, end).
    """
    rows = eval_indices.size
    start, end, head = np.zeros((3, rows, n_radii), dtype=np.intp)
    extras = [np.empty((3, 0), dtype=np.intp)]
    radii = np.arange(n_radii)
    bounds = np.flatnonzero(starts == n)
    for row in range(rows):
        lo = bounds[row - 1] + 1 if row else 0
        cols = starts[lo:bounds[row]]
        stops = starts[lo + 1:bounds[row] + 1]
        ids = bins[lo:bounds[row]] - row * (n_radii + 1)
        n_runs = cols.size
        own = np.searchsorted(cols, eval_indices[row], side="right") - 1
        # the runs in turn away from the eval run, to the right and to the
        # left, going on at the other end of the array: the interval stops
        # at the first run whose id is above r, so it holds run k from the
        # smallest running maximum of the ids up to k on either side
        steps = np.arange(1, n_runs)
        p, q = np.zeros(n_radii, dtype=np.intp), np.full(n_radii, n)
        reach = np.zeros((2, n_runs), dtype=np.intp)
        for side, order in enumerate(((own + steps) % n_runs,
                                      (own - steps) % n_runs)):
            top = np.maximum.accumulate(ids[order])
            reach[side, order] = top
            first = np.searchsorted(top, radii, side="right")
            blocked = first < steps.size
            block = order[first[blocked]]
            if side == 0:
                q[blocked] = np.where(cols[block] == 0, n, cols[block])
            else:
                p[blocked] = np.where(stops[block] == n, 0, stops[block])
        wrap = p > q
        start[row] = p
        end[row] = np.where(wrap, n, q)
        head[row] = np.where(wrap, q, 0)
        reach = reach.min(axis=0)
        # radius by run: the runs outside the interval, and where each of
        # their stretches starts and ends; only runs below their reach can
        # be outside, so the table spans those alone
        some = np.flatnonzero(ids < reach)
        if not some.size:
            continue
        span = np.s_[some[0]:some[-1] + 1]
        extra = (radii[:, None] >= ids[span]) & (radii[:, None] < reach[span])
        width = extra.shape[1]
        pad = np.zeros((n_radii, 1), dtype=bool)
        r, k = np.divmod(np.flatnonzero(
            extra & ~np.hstack([pad, extra[:, :-1]])), width)
        k_end = np.flatnonzero(extra & ~np.hstack([extra[:, 1:], pad])) % width
        extras.append(np.stack([row * n_radii + r, cols[span][k],
                                stops[span][k_end]]))
    return start, end, head, np.concatenate(extras, axis=1)


class IntervalTableEvaluator(TableEvaluator):
    """Reference kernel: the engine's before it streamed its table.  Each
    portion is the interval of reference_portions in three E x R int32
    arrays start, end and head, and a call fills the whole table of
    portion sums, each one difference of compensated prefix sums."""

    BLOCK_SLOTS = 1 << 14  # portions per prefix-sum gather

    def __init__(self, curve, eval_indices, max_radii=256):
        self._eps, starts, bins = dense_reference_table(curve, eval_indices,
                                                        max_radii)
        n_radii = self._eps.shape[1]
        *interval, self._extra = reference_portions(
            starts, bins, np.asarray(eval_indices), curve.n_samples, n_radii)
        self._start, self._end, self._head = np.array(interval,
                                                      dtype=np.int32)
        self._single = np.flatnonzero(self._end - self._start == 1)
        self._wraps = np.any(self._head, axis=1)
        self._aw = curve.arc_weights
        self._buf = np.empty((2, max(1, self.BLOCK_SLOTS // n_radii),
                              n_radii), dtype=np.complex128)
        self._den = self._portion_sums(np.ones(curve.n_samples))

    def _portion_sums(self, g):
        """E x R table: per row and radius, the sum of g * arc_weights."""
        x = g * self._aw
        # compensated prefix sums: sum(x[:k]) = pre[k].real + pre[k].imag
        pre = np.zeros(x.size + 1, dtype=np.complex128)
        hi, lo = pre.real, pre.imag
        np.cumsum(x, out=hi[1:])
        # TwoSum: the exact rounding error of hi[k+1] = hi[k] + x[k]
        b = hi[2:] - hi[1:-1]
        err = (hi[1:-1] - (hi[2:] - b)) + (x[1:] - b)
        np.cumsum(err, out=lo[2:])
        sums = np.empty(self._start.shape)
        buf = self._buf
        rows = buf.shape[1]
        for a in range(0, sums.shape[0], rows):
            at = np.s_[a:a + rows]
            t, s = buf[:, :sums[at].shape[0]]
            # every index is in [0, n]: "clip" only skips the bounds check
            np.take(pre, self._end[at], out=t, mode="clip")
            np.take(pre, self._start[at], out=s, mode="clip")
            t -= s
            if self._wraps[at].any():
                # (pre[n] - pre[p]) + pre[q]: the close values first
                np.take(pre, self._head[at], out=s, mode="clip")
                t += s
            np.add(t.real, t.imag, out=sums[at])
        flat = sums.reshape(-1)
        single = self._single
        head = pre[self._head.reshape(-1)[single]]
        flat[single] = x[self._start.reshape(-1)[single]] + (head.real
                                                            + head.imag)
        np.maximum(sums, 0.0, out=sums)
        if self._extra.size:
            slot, start, end = self._extra
            seg = pre[end] - pre[start]
            seg = np.maximum(seg.real + seg.imag, 0.0)
            one = end - start == 1
            seg[one] = x[start[one]]
            np.add.at(flat, slot, seg)
        return sums


def nearest_block(side, prev, row, key, width: int, out: np.ndarray):
    """Per row and radius r: the key of the nearest run on one side whose
    cyclic running maximum side exceeds r, 2n (the keys' bound) if none.

    side rises over prev at a blocking run, which blocks the radii from
    prev up to its id; the keys grow with the distance from the point, so
    the smallest key over the rises above r is the nearest block.  out
    holds the rows' R + 1 columns; column 0 is scratch.
    """
    rise = np.flatnonzero(side > prev)
    out.reshape(-1)[row[rise] * width + side[rise]] = key[rise]
    flip = out[:, ::-1]
    np.minimum.accumulate(flip, axis=1, out=flip)


def stretch_portions(row, col, bucket, centres, n: int, p, q):
    """Fill one chunk's rows of the interval indices p and q from their
    run heads, and return their extra segments; see MaximalEvaluator.

    row, col and bucket give each run's row (ascending from 0), first sample
    and bucket id, and centres each row's own sample.  The extra segments
    come as (row * R + radius, start, end), ordered by slot.
    """
    m, n_radii = p.shape
    width = n_radii + 1
    runs = bucket.size
    b = bucket.astype(np.intp)
    first = np.searchsorted(row, np.arange(m))
    last = np.append(first[1:], runs) - 1
    stop = np.empty_like(col)
    stop[:-1] = col[1:]
    stop[last] = n
    # the eval run holds the row's own sample
    own = np.searchsorted(row * n + col, np.arange(m) * n + centres,
                          side="right") - 1
    # stretch 2 * row + 1 holds a row's runs after the eval run, 2 * row
    # the others; offsets by stretch keep each stretch's running maximum of
    # the ids to itself, forward and backward, in one pass each
    has_after = own < last
    step = np.zeros(runs, dtype=np.intp)
    step[first[1:]] = 2 - has_after[:-1]
    step[own[has_after] + 1] = 1
    stretch = np.cumsum(step)
    odd = (stretch & 1).astype(bool)
    even = ~odd
    off = stretch * width
    right = np.maximum.accumulate(b + off)
    right -= off
    off -= (2 * m - 1) * width
    left = np.maximum.accumulate((b - off)[::-1])[::-1]
    left += off
    del off, step, stretch
    # cyclic: a side that runs off the array goes on at its other end, so
    # it holds the whole other stretch's maximum there
    top_right = np.where(has_after, right[last], 0)
    top_left = left[first]
    np.maximum(right, top_right[row], out=right, where=even)
    np.maximum(left, top_left[row], out=left, where=odd)
    right[own] = 0
    left[own] = 0
    # the interval ends at the nearest right block's first sample and
    # starts at the nearest left block's end; keys run from the point
    # around the cycle, col + n past the array's end to the right, and
    # n - stop, 2n - stop past it to the left
    ends = np.full((m, width), 2 * n, dtype=np.intp)
    prev = np.empty_like(right)
    prev[1:] = right[:-1]
    prev[first] = top_right
    nearest_block(right, prev, row, col + n * even, width, ends)
    starts = np.full((m, width), 2 * n, dtype=np.intp)
    prev[:-1] = left[1:]
    prev[last] = top_left
    nearest_block(left, prev, row, n + n * odd - stop, width, starts)
    del prev
    q[:] = ends[:, 1:]
    np.subtract(q, n, out=q, where=q > n)  # a block at 0: end n
    np.subtract(n, starts[:, 1:], out=p)
    np.add(p, n, out=p, where=p < 0)  # a block ending at n: 0
    del ends, starts
    # a wrapped interval, [p, n) then [0, q), is read from the second half
    # of the prefix table: (p + n + 1, q)
    np.add(p, n + 1, out=p, where=p > q)
    # a run outside the interval at radius r, below its reach (the radius
    # from which the interval holds it), starts an extra segment when its
    # left neighbour is above r and ends one when its right neighbour is
    reach = np.minimum(right, left)
    outside = np.flatnonzero(reach > b)
    reach = reach[outside]
    segs = []
    for nb, edge in ((outside - 1, first), (outside + 1, last)):
        # the neighbour's id, or R past the row's end
        nb_id = np.where(outside == edge[row[outside]], n_radii,
                         b[np.clip(nb, 0, runs - 1)])
        count = np.minimum(nb_id, reach) - b[outside]
        at = np.flatnonzero(count > 0)
        radius, j = _gap_samples(b[outside[at]], count[at])
        at = outside[at[j]]
        slot = row[at] * n_radii + radius
        order = np.argsort(slot, kind="stable")
        segs.append((slot[order], at[order]))
    (slot, seg_first), (_, seg_last) = segs
    return slot, col[seg_first], stop[seg_last]


def _assert_same_table(engine, curve, idx, max_radii, integrands=()):
    """The grid bit for bit, every portion as the run table gives it, and
    the streamed sums bit for bit those of the whole-table kernel on it."""
    reference = IntervalTableEvaluator(curve, idx, max_radii)
    eps = reference._eps
    rows, n_radii = eps.shape
    n = curve.n_samples
    if n <= max_radii:
        assert np.array_equal(engine._radii, eps)
    else:
        # the row grid ends give linspace's grid, and the radius of a hit
        assert np.array_equal(engine_module._log_grid(engine._radii, n_radii),
                              eps)
        for k in {0, 1, n_radii // 2, n_radii - 2} & set(range(n_radii)):
            assert np.array_equal(engine._radius(np.full(rows, k)), eps[:, k])
        hit = np.arange(rows) % n_radii
        assert np.array_equal(engine._radius(hit), eps[np.arange(rows), hit])
    # a wrapped interval [p, n) then [0, q) is stored as (p + n + 1, q); a
    # first piece of one sample is the slot's first extra segment, leaving
    # the empty (q, q), or (0, q) after a wrap
    wrap = reference._head > 0
    single = reference._end - reference._start == 1
    q = np.where(wrap, reference._head, reference._end)
    p = np.where(wrap, reference._start + n + 1, reference._start)
    assert np.array_equal(engine._p, np.where(single, q * ~wrap, p))
    assert np.array_equal(engine._q, q)
    slot = reference._single
    start = reference._start.reshape(-1)[slot]
    extra = np.concatenate([[slot, start, start + 1], reference._extra],
                           axis=1)
    assert np.array_equal(engine._extra,
                          extra[:, np.argsort(extra[0], kind="stable")])
    assert engine._den.tobytes() == reference._den.tobytes()
    for g in integrands:
        values, eps = engine.sup_average(g)
        ref_values, ref_eps = reference.sup_average(g)
        assert values.tobytes() == ref_values.tobytes()
        assert eps.tobytes() == ref_eps.tobytes()


def _square(n):
    """Closed polygon whose last sample duplicates its first."""
    t = np.linspace(0.0, 4.0, n + 1)
    side = np.floor(t).astype(int) % 4
    u = t - np.floor(t)
    corners = np.array([0, 1, 1 + 1j, 1j, 0])
    pts = corners[side] + u * (corners[side + 1] - corners[side])
    pts[-1] = pts[0]
    return cl.from_points(pts, closed=True)


def _tight_spiral(n):
    """Twenty turns 6.3e-4 apart, sampled more coarsely than that, so a
    point's nearest samples lie on the neighbouring turns."""
    theta = np.linspace(0.0, 40.0 * np.pi, n)
    return cl.from_points((1.0 - 1e-4 * theta) * np.exp(1j * theta))


CURVES = {
    "circle": lambda n: cl.generate_circle(1.0, n),
    "graded_circle": lambda n: cl.generate_graded_circle(1.0, n),
    "spiral": lambda n: cl.generate_log_spiral(1.0, 1e-3, 1.0, n),
    "segment": lambda n: cl.generate_log_spiral(0.0, 1e-3, 1.0, n),
    "corner": lambda n: cl.generate_corner(np.pi / 2, 1e-3, 1.0, n),
    "closed_square": _square,
    "tight_spiral": _tight_spiral,
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
    prefix_runs = PrefixRunEvaluator(curve, idx, max_radii)
    ones, _ = engine.sup_average(np.ones(curve.n_samples))
    assert np.all(ones == 1.0)
    for g in _integrands(curve, seed):
        values, eps = engine.sup_average(g)
        for reference in (reduceat, prefix_runs):
            np.testing.assert_allclose(values, reference.sup_average(g)[0],
                                       rtol=1e-12, atol=0.0)
        ref_values, ref_eps = oracle.sup_average(g)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        for row in np.flatnonzero(eps != ref_eps):
            # a different radius only where the averages tie within 1e-12
            grid, avg = oracle.averages(g)[row]
            at = np.flatnonzero(grid == eps[row])
            assert at.size > 0
            assert avg[at[0]] == pytest.approx(ref_values[row], rel=1e-12)


BUILD_CURVES = {
    **CURVES,
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
    # pieces of 1 to 3 rows of the dense scan, which need not divide its
    # chunks, and of any entry count of the block build's gap samples
    piece_entries = draw(st.integers(n, 4 * n - 1))
    return curve, idx, max_radii, chunk_entries, piece_entries


def _build_sizes(chunk_entries, piece_entries=engine_module._PIECE_ENTRIES):
    """The build's chunks and pieces set to these entry counts."""
    return mock.patch.multiple(engine_module, _CHUNK_ENTRIES=chunk_entries,
                               _PIECE_ENTRIES=piece_entries)


@settings(max_examples=80, deadline=None)
@given(case=build_cases())
def test_build_matches_dense_reference(case):
    """The block build and the closed-form ids give the reference table
    bit for bit, on every path, across chunks and across pieces."""
    curve, idx, max_radii, *sizes = case
    with _build_sizes(*sizes):
        engine = cl.MaximalEvaluator(curve, idx, max_radii)
    _assert_same_table(engine, curve, idx, max_radii,
                       _integrands(curve, curve.n_samples))


def _assert_same_portions(curve, idx, max_radii, *sizes):
    """Every build chunk's p, q and extra segments from the engine's walk
    kernel and from stretch_portions, at the chunk and piece entry counts
    sizes (see _build_sizes)."""
    walk_portions = engine_module._portions
    chunks = []

    def both(row, col, bucket, centres, n, p, q):
        ref_p, ref_q = np.empty_like(p), np.empty_like(q)
        ref = stretch_portions(row, col, bucket, centres, n, ref_p, ref_q)
        out = walk_portions(row, col, bucket, centres, n, p, q)
        assert np.array_equal(p, ref_p) and np.array_equal(q, ref_q)
        for got, want in zip(out, ref):
            assert np.array_equal(got, want)
        chunks.append(p.shape[0])
        return out

    with mock.patch.object(engine_module, "_portions", both), \
            _build_sizes(*sizes):
        cl.MaximalEvaluator(curve, idx, max_radii)
    assert sum(chunks) == len(idx)


@settings(max_examples=120, deadline=None)
@given(case=build_cases())
def test_walk_portions_match_stretch_portions(case):
    _assert_same_portions(*case)


@pytest.mark.parametrize("name, n, stride", [
    ("graded_circle", 4096, 1), ("spiral", 4096, 1),
    ("closed_square", 1024, 1), ("tight_spiral", 16384, 97),
    ("closed_square", 16384, 97),
])
def test_walk_portions_match_stretch_portions_full_grids(name, n, stride):
    """The full grids (every sample a row, the dense scan) and the block
    build's curves of many segments and of wrapped portions."""
    curve = CURVES[name](n)
    n = curve.n_samples
    idx = np.append(np.arange(0, n - 1, stride), n - 1)
    _assert_same_portions(curve, idx, 256, engine_module._CHUNK_ENTRIES)


def test_build_matches_dense_reference_deep():
    curve = cl.generate_graded_circle(1.0, 131072)
    idx = strided_indices(curve.n_samples, 256)
    _assert_same_table(cl.MaximalEvaluator(curve, idx), curve, idx, 256,
                       _integrands(curve, 3))


@pytest.mark.parametrize("make", [
    lambda: cl.generate_graded_circle(1.0, 4096),
    lambda: cl.generate_log_spiral(1.0, 1e-3, 1.0, 4096),
], ids=["graded_circle", "log_spiral"])
def test_full_grid_build_matches_dense_reference(make):
    """The default full grid (eval_indices=None) runs the dense scan."""
    curve = make()
    engine = cl.MaximalEvaluator(curve)
    _assert_same_table(engine, curve, np.arange(curve.n_samples), 256,
                       _integrands(curve, 4))


def test_full_grid_build_across_chunks_closed_square():
    """Five rows per chunk in pieces of two, so that run heads are found on
    flat buffers of several rows and the last piece of a chunk is short;
    the square's last sample repeats its first, so rows 0 and n - 1 have a
    second zero distance."""
    curve = _square(1024)
    n = curve.n_samples
    with _build_sizes(5 * n, 2 * n):
        engine = cl.MaximalEvaluator(curve)
    _assert_same_table(engine, curve, np.arange(n), 256,
                       _integrands(curve, 5))


def test_closed_form_ids_next_to_grid_points():
    """Distances exactly on grid radii and one ulp to either side, where
    the closed form alone cannot tell the bucket, get the searched one."""
    eps = engine_module._log_grid(engine_module._log_ends(
        np.array([1e-9, 0.25]), np.array([2.0, 3.0])), 256)
    for row in range(2):
        grid = eps[row]
        d = np.concatenate([[0.0], grid, np.nextafter(grid, 0.0),
                            np.nextafter(grid, np.inf)])
        buf = d.copy()
        engine_module._bucket_ids(buf, eps, np.full(d.size, row),
                                  np.arange(d.size), d.astype(complex),
                                  np.zeros(2, dtype=complex))
        assert np.array_equal(buf, np.searchsorted(grid, d, side="right"))


def test_antipodal_block_compares_one_radius_per_entry():
    """Rows opposite a graded circle's t0 see its dense cluster of samples
    within the margin of their top radius, about 10^4 entries next to a
    grid point in one chunk; each is settled by one comparison, so the
    build holds no (entries x radii) table, and its ids are the searched
    ones."""
    curve = cl.generate_graded_circle(1.0, 16384)
    idx = np.arange(7936, 8192)
    tracemalloc.start()
    try:
        engine = cl.MaximalEvaluator(curve, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    _assert_same_table(engine, curve, idx, 256, _integrands(curve, 12))


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
    idx = strided_indices(curve.n_samples, 256)
    engine = cl.MaximalEvaluator(curve, idx)
    references = (ReduceatEvaluator(curve, idx), PrefixRunEvaluator(curve, idx))
    d = np.abs(curve.samples - 1.0)
    rng = np.random.default_rng(5)
    integrands = (d ** -0.8, d ** 0.7, rng.uniform(0.0, 1.0, curve.n_samples))
    for g in integrands:
        for reference in references:
            _assert_same_sup(engine, reference, g)
    _assert_same_table(engine, curve, idx, 256, integrands)


@pytest.mark.parametrize("name", ["tight_spiral", "closed_square"])
def test_portion_kernel_matches_run_kernels(name):
    """Portions of many segments (the tight spiral's neighbouring turns)
    and portions that wrap across the array's ends (the closed square,
    whose last sample repeats its first), on the block build."""
    curve = CURVES[name](16384)
    n = curve.n_samples
    idx = np.append(np.arange(0, n, 97), n - 1)
    engine = cl.MaximalEvaluator(curve, idx)
    assert engine._extra.shape[1] > 0 if name == "tight_spiral" \
        else np.any(engine._p > n)
    references = (ReduceatEvaluator(curve, idx), PrefixRunEvaluator(curve, idx))
    d = np.abs(curve.samples - curve.samples[0])
    d[d == 0.0] = 1.0
    integrands = (d ** -0.8, d ** 0.7, *_integrands(curve, 7))
    for g in integrands:
        for reference in references:
            _assert_same_sup(engine, reference, g)
    _assert_same_table(engine, curve, idx, 256, integrands)


@pytest.fixture(scope="module")
def full_grid():
    """The default full grid at n = 4096: E = 4096 rows of R = 256 radii."""
    curve = cl.generate_graded_circle(1.0, 4096)
    return curve, cl.MaximalEvaluator(curve)


def _held_arrays(engine):
    """Every array the evaluator holds, its curve's aside."""
    for value in vars(engine).values():
        for a in (value if isinstance(value, tuple) else (value,)):
            if isinstance(a, np.ndarray) and a is not engine._aw:
                yield a


def test_full_grid_holds_sixteen_bytes_per_slot(full_grid):
    """Two int32 interval indices and a float64 denominator per (point,
    radius) slot; everything else it holds is below one byte per slot."""
    curve, engine = full_grid
    slots = curve.n_samples * 256
    per_slot = [a for a in _held_arrays(engine) if a.size >= slots]
    assert sum(a.nbytes for a in per_slot) <= 16 * slots
    assert sum(a.nbytes for a in _held_arrays(engine)
               if a.size < slots) < slots


def test_sup_average_streams_its_table(full_grid):
    """A call holds one block of the table at a time: nothing of E x R
    float64 entries (8 MB here) is allocated, nor any eighth of it."""
    curve, engine = full_grid
    g = np.random.default_rng(8).uniform(0.0, 1.0, curve.n_samples)
    engine.sup_average(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.sup_average(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < curve.n_samples * 256


@pytest.mark.parametrize("name", sorted(CURVES))
def test_single_radius_is_exact(name):
    """With one radius the largest portion does not cover the curve, so
    the prefix error bound does not apply: every portion is one sample,
    taken as it is, or a closed curve's first sample and its copy at the
    end, added once."""
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
