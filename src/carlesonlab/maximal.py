"""Discrete Hardy-Littlewood maximal operator on curves, weighted by phi.

At each evaluation point the supremum over radii is restricted to realized
inter-sample distances, capped at a fixed number of log-spaced
representatives: the portion average is piecewise constant in the radius
between realized distances, so the scan is exact whenever the cap exceeds
the number of distinct distances.

The engine is a run-length bucket table.  For an evaluation point with
radius grid eps_0 <= ... <= eps_{R-1}, sample j gets the bucket id
b_j = #{r : eps_r <= d_j}, so that j lies in the radius-r portion
(d_j < eps_r) exactly when b_j <= r.  Along the curve the distance to the
point changes slowly, so b_j, taken in sample order, is constant over long
runs: one rise and fall of the distance gives at most about 2R runs, and
the probe curves have 260-460 runs per point at R = 256 from n = 2048 to
131072.  Only the run starts and their bucket ids are stored; a portion sum
is the sum of its run sums, bucketed and accumulated over the radii.  Each
run sum is a difference of two compensated prefix sums of the integrand, so
one evaluation costs O(n + runs), not O(E * n).

The build need not compute every distance either.  On large curves it
places nodes every B ~ sqrt(n / R) samples; a polyline bound from the node
distances and the gap's length confines each gap's distances, and a gap
confined to one bucket takes it whole, so a point costs about n / B + B *
runs distances instead of n.  Bucket ids of log-spaced grids come in closed
form from the log of the distance, with an exact search only next to a
grid point.  The table is bit for bit the one of the full scan.

Portion integrals use per-sample arc weights (trapezoid in disguise), and
averages over empty portions never arise because evaluation points are curve
samples, each inside its own portion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .argbranch import ArgBranch, LOG_CLAMP, clamped_exp, gamma_weight
from .curves import Curve, omega_arc, write_csv
from .errors import PreconditionError
from .norms import as_sampled

MAX_RADII = 256
_CHUNK_ENTRIES = 1 << 18  # distances per build chunk: bounds its memory
_MIN_BLOCK = 8  # smallest node spacing at which the block build pays
_SLACK = 1e-12  # relative widening of a gap's polyline distance bound
_GATHER_BLOCK = 1 << 14  # run starts per prefix-sum gather


@dataclass(frozen=True)
class MaximalResult:
    """Mf at the evaluation points plus the radius achieving each supremum."""

    values: np.ndarray
    argmax_eps: np.ndarray
    eval_indices: np.ndarray
    clipped: bool = False


def _check_eval_indices(eval_indices, n: int) -> np.ndarray:
    idx = np.asarray(eval_indices)
    if idx.ndim != 1:
        raise PreconditionError(
            "eval_indices must be a one-dimensional index array")
    if idx.size == 0:
        return np.empty(0, dtype=np.intp)
    if not np.issubdtype(idx.dtype, np.integer):
        raise PreconditionError(
            f"eval_indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n:
        raise PreconditionError(
            f"eval_indices must lie in [0, {n}), got [{idx.min()}, "
            f"{idx.max()}]")
    return idx.astype(np.intp)


def _log_grid(d_lo, d_hi, n_radii: int) -> np.ndarray:
    """Per row: n_radii log-spaced radii from just below its smallest
    positive distance d_lo to just above its largest distance d_hi."""
    return np.exp(np.linspace(np.log(d_lo * (1.0 - 1e-12)),
                              np.log(d_hi * (1.0 + 1e-9)), n_radii, axis=1))


def _grid_position(buf: np.ndarray, eps: np.ndarray, row) -> np.ndarray:
    """Overwrite the distances buf with their closed-form bucket ids.

    A distance d of row r sits at u = (log d - log eps_0) * (R - 1) /
    (log eps_{R-1} - log eps_0) on the row's log grid, and its bucket id
    #{k : eps_k <= d} is floor(u) + 1 unless u lies so close to an integer
    that the float grid point may fall on either side.  Returns the mask of
    those entries and of the entries whose u is not finite (d = 0, or a
    single radius); their ids in buf are not valid.  row gives each entry's
    row of eps and broadcasts against buf.
    """
    n_radii = eps.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log0 = np.log(eps[:, 0])
        log_top = np.log(eps[:, -1])
        scale = (n_radii - 1) / (log_top - log0)
        # the logs, the grid's own linspace and exp, and the arithmetic on
        # u put u within about 2^-48 * scale * (|log0| + |log_top| + 1) of
        # the grid's fractional index of d; the margin is 2^18 times that,
        # taken at the largest over the rows so that one scalar serves all
        tol = np.max(2.0 ** -30 * scale * (np.abs(log0) + np.abs(log_top)
                                           + 1.0))
        # u + 1 = log d * scale - (log0 * scale - 1): floor gives the id
        shift = log0 * scale - 1.0
        np.log(buf, out=buf)
        np.multiply(buf, scale[row], out=buf)
        np.subtract(buf, shift[row], out=buf)
        off = np.rint(buf)
        np.subtract(buf, off, out=off)
        np.abs(off, out=off)
        fix = np.greater_equal(off, tol)
    del off
    np.logical_not(fix, out=fix)  # NaN compares false: fixed up too
    np.floor(buf, out=buf)
    return fix


def _count_le(eps: np.ndarray, row: np.ndarray, d: np.ndarray) -> np.ndarray:
    """searchsorted(eps[row[k]], d[k], side="right") for every k at once."""
    n_radii = eps.shape[1]
    flat = eps.ravel()
    base = row * n_radii
    lo = np.zeros(d.size, dtype=np.intp)
    hi = np.full(d.size, n_radii, dtype=np.intp)
    for _ in range(n_radii.bit_length()):
        mid = (lo + hi) >> 1
        le = flat[base + np.minimum(mid, n_radii - 1)] <= d
        le &= mid < hi
        lo = np.where(le, mid + 1, lo)
        hi = np.where(le, hi, mid)
    return lo


def _bucket_ids(buf, eps, row, col, samples, centres):
    """Overwrite the distances buf = |samples[col] - centres[row]| with
    their bucket ids on the grids eps; row and col broadcast against buf.

    The closed form of _grid_position, with an exact search for the few
    entries next to a grid point, whose distances are recomputed from the
    samples because buf no longer holds them.
    """
    at = np.unravel_index(np.flatnonzero(_grid_position(buf, eps, row)),
                          buf.shape)
    r = np.broadcast_to(row, buf.shape)[at]
    c = np.broadcast_to(col, buf.shape)[at]
    buf[at] = _count_le(eps, r, np.abs(samples[c] - centres[r]))


def _dense_runs(samples, eval_indices, eps_out, exact: bool):
    """Run heads of every row from all of its distances, chunk by chunk.

    Yields (first row, rows, row, start, bucket id) per chunk of at most
    _CHUNK_ENTRIES distances.  With exact set, the grid is every realized
    distance and each row is searched; otherwise the grid is log-spaced
    and the ids come in closed form.
    """
    n = samples.size
    chunk = max(1, _CHUNK_ENTRIES // n)
    for lo in range(0, eval_indices.size, chunk):
        idx = eval_indices[lo:lo + chunk]
        m = idx.size
        eps = eps_out[lo:lo + m]
        centres = samples[idx]
        dists = np.abs(samples[None, :] - centres[:, None])
        # the smallest positive distance: a plain minimum with each row's
        # own zero masked, and the masked reduction only for rows with a
        # second zero, such as a closed curve's duplicate closure sample
        own = (np.arange(m), idx)
        dists[own] = np.inf
        d_lo = np.min(dists, axis=1)
        dists[own] = 0.0
        dup = np.flatnonzero(d_lo == 0.0)
        if dup.size:
            d = dists[dup]
            d_lo[dup] = np.min(d, axis=1, where=d > 0.0, initial=np.inf)
        if exact:
            # every realized distance: the scan is exact at this size
            ds = np.sort(dists, axis=1)
            eps[:] = np.where(ds > 0.0, ds * (1.0 + 1e-12),
                              d_lo[:, None] * (1.0 - 1e-12))
            del ds
            for r in range(m):
                dists[r] = np.searchsorted(eps[r], dists[r], side="right")
        else:
            eps[:] = _log_grid(d_lo, np.max(dists, axis=1), eps.shape[1])
            _bucket_ids(dists, eps, np.arange(m)[:, None],
                        np.arange(n)[None, :], samples, centres)
        # run heads on the flat row-major buffer; every row starts a run,
        # so none joins a row's last sample to the next row's first
        flat = dists.ravel()
        new_run = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
        new_run[::n] = True
        heads = np.flatnonzero(new_run)
        ids = flat[heads]
        del dists, flat, new_run  # before the next chunk's distances
        row, col = np.divmod(heads, n)
        del heads  # not held while the caller assembles the chunk
        yield lo, m, row, col, ids


def _gap_samples(first: np.ndarray, size: np.ndarray):
    """The samples of gaps given by their first sample and sample count,
    in order, and for each sample the position of its gap in the input."""
    k = np.repeat(np.arange(size.size), size)
    return np.arange(k.size) + (first - (np.cumsum(size) - size))[k], k


def _block_runs(samples, eval_indices, eps_out, block: int):
    """Run heads of every row from the node distances and the distances
    of the gaps that the polyline bound does not put in one bucket; see
    MaximalEvaluator.  Nodes sit every `block` samples and at the last.
    Yields chunks as _dense_runs does.
    """
    n = samples.size
    n_radii = eps_out.shape[1]
    nodes = np.arange(0, n, block)
    if nodes[-1] != n - 1:
        nodes = np.append(nodes, n - 1)
    first = nodes[:-1]
    size = np.diff(nodes)
    size[-1] += 1  # the last gap also holds the last node
    # from the samples: differences of cumlen can round below the chord
    ell = np.add.reduceat(np.abs(np.diff(samples)), first)
    n_gaps = first.size
    # a row holds n_gaps gaps and about as many computed samples, each in
    # several arrays: this keeps a chunk's temporaries below the dense scan's
    chunk = max(1, _CHUNK_ENTRIES // (8 * n_gaps))
    for lo in range(0, eval_indices.size, chunk):
        idx = eval_indices[lo:lo + chunk]
        m = idx.size
        eps = eps_out[lo:lo + m]
        centres = samples[idx]
        d_node = np.abs(samples[nodes][None, :] - centres[:, None])
        near = np.min(d_node, axis=1, where=d_node > 0.0, initial=np.inf)
        far = np.max(d_node, axis=1)
        mid = d_node[:, :-1] + d_node[:, 1:]
        del d_node
        slack = (mid + ell) * _SLACK
        mid *= 0.5
        half = 0.5 * ell
        d_min = mid - half - slack
        d_max = mid + half + slack
        del mid, slack
        # the gaps that can hold the row's smallest positive or largest
        # distance, which set its grid: computed first
        forced = (d_min <= near[:, None]) | (d_max >= far[:, None])
        row, gap = np.nonzero(forced)
        j, k = _gap_samples(first[gap], size[gap])
        d = np.abs(samples[j] - centres[row[k]])
        np.minimum.at(near, row[k], np.where(d > 0.0, d, np.inf))
        np.maximum.at(far, row[k], d)
        eps[:] = _log_grid(near, far, n_radii)
        rows = np.arange(m)[:, None]
        uniform = _grid_position(d_min, eps, rows)
        uniform |= _grid_position(d_max, eps, rows)
        uniform |= forced
        np.logical_not(uniform, out=uniform)
        uniform &= d_min == d_max
        del d_max, forced
        # one piece per uniform gap and one per sample of the other gaps,
        # in sample order
        count = np.where(uniform, 1, size[None, :])
        offset = np.cumsum(count, axis=None).reshape(m, n_gaps) - count
        piece_start = np.empty(int(count.sum()), dtype=np.intp)
        piece_id = np.empty(piece_start.size)
        del count
        at = offset[uniform]
        piece_start[at] = np.broadcast_to(first, uniform.shape)[uniform]
        piece_id[at] = d_min[uniform]
        row, gap = np.nonzero(~uniform)
        del d_min, uniform
        j, k = _gap_samples(first[gap], size[gap])
        r = row[k]
        at = j + (offset[row, gap] - first[gap])[k]
        del row, gap, k
        d = np.abs(samples[j] - centres[r])
        _bucket_ids(d, eps, r, j, samples, centres)
        piece_start[at] = j
        piece_id[at] = d
        row_first = offset[:, 0]
        new_run = np.ones(piece_id.size, dtype=bool)
        np.not_equal(piece_id[1:], piece_id[:-1], out=new_run[1:])
        new_run[row_first] = True
        heads = np.flatnonzero(new_run)
        row = np.searchsorted(row_first, heads, side="right") - 1
        yield lo, m, row, piece_start[heads], piece_id[heads]


class MaximalEvaluator:
    """Reusable sup-of-portion-averages engine for one curve and point set.

    Stores, per evaluation point (row), its radius grid eps (R entries: every
    realized distance when the curve has at most max_radii samples, else
    max_radii log-spaced representatives) and the run-length encoding of its
    bucket ids b_j in sample order.  All rows are flattened into one
    ``starts``/``bins`` pair: each run's first sample index and its slot
    row * (R + 1) + b in an E x (R + 1) bucket table.  Every row ends with a
    boundary start at n, so that its last run stops there and not at the
    next row's first start; a run ends at the next entry of ``starts``, and
    the boundary's own entry goes to the row's last slot, the bucket beyond
    the largest radius, which is never read.

    One evaluation takes the prefix sums hi of x = g * arc_weights by one
    sequential ``cumsum`` and the exact rounding error of each of its steps
    by TwoSum; their running sum is lo.  A run [s, s') then sums to
    (hi[s'] - hi[s]) + (lo[s'] - lo[s]), clamped at 0, and a run of one
    sample is that sample's x.  The run sums go into the bucket table by one
    ``np.bincount`` and are accumulated along the radii by one ``cumsum``.
    The prefix sums are gathered in blocks of _GATHER_BLOCK runs, so the run
    sums are the only temporary with one entry per run.  The denominators come
    from the same kernel applied to g = 1, so a constant averages to
    exactly 1.

    Error: hi + lo is the prefix sum up to an absolute error of about
    n * u^2 * sum(x) (u the unit roundoff), against u * sum(x) for hi alone,
    which puts tiny runs far down the array, where hi is about sum(x), off
    by percents.  The largest radius covers the whole curve, so each row's
    sup is at least sum(x) / L (L the curve length), and the relative error
    of a returned sup is at most about n * u^2 * L / (smallest portion
    measure).  With a single radius (max_radii = 1) no portion covers the
    curve; there every read run is one sample, summed exactly.
    sup_average scales g by a power of two, so that an integrand whose
    total overflows still gives a finite sup.

    Storage is O(E * runs) rather than the O(E * n) that a per-point sort
    order with cumulative weights needs.

    Build.  With n <= max_radii the grid is every realized distance and
    each row is bucketed by ``np.searchsorted``.  Otherwise the grid is
    log-spaced from just below the row's smallest positive distance d_lo
    to just above its largest d_hi, and a bucket id comes in closed form:
    u = (log d - log eps_0) * (R - 1) / (log eps_{R-1} - log eps_0) puts d
    on the grid and b = floor(u) + 1.  An entry whose u is not finite, or
    lies within 2^-30 * (R - 1) * (|log eps_0| + |log eps_{R-1}| + 1) /
    (log eps_{R-1} - log eps_0) of an integer (2^18 times u's rounding
    error; 2.4e-7 to 3.1e-7 on the probe curves; one margin, the largest
    of the chunk's rows, serves the whole chunk), is searched exactly
    instead.  That is about three entries per row: the point itself
    (d = 0) and the d_lo and d_hi samples.  u is computed in place over
    the distance buffer, the searched entries are found by
    ``np.flatnonzero`` on it, and their distances are recomputed from the
    samples.

    The dense scan works on each chunk's row-major distance buffer as one
    flat array.  d_lo is a plain row minimum with each row's own zero set
    to +inf for the moment; only a row with a second zero distance, such as
    a closed curve's end rows, takes the masked reduction.  Run heads come
    from one comparison of neighbouring ids over the flat buffer, with every
    row's first entry set as a head, so that no run joins one row's last
    sample to the next row's first; ``np.divmod`` by n gives their rows and
    columns.

    Which distances are computed follows from n and max_radii alone: with
    B = isqrt(n // max_radii) below _MIN_BLOCK, all of them, in chunks of
    at most _CHUNK_ENTRIES; from there on, the block build.  It puts nodes
    every B samples and at the last.  By the triangle inequality every
    distance in the gap between nodes a and b lies in
    [(d_a + d_b - l) / 2, (d_a + d_b + l) / 2], with l the gap's polyline
    length sum |tau_{k+1} - tau_k|, taken from the samples because
    differences of cumlen can round below the chord.  Widened by a relative
    _SLACK (1e-12, far above the rounding of d_a, d_b, l and of the
    distances themselves), an interval whose ends fall in one bucket gives
    the whole gap that bucket.  The distances of every other gap are
    computed, as are those of the gaps whose interval reaches the nodes'
    smallest positive distance or their largest, so that d_lo and d_hi
    are exact: this covers spiral turns that nearly touch and zero
    distances away from the point, such as a closed curve's duplicate
    closure sample.  A row then computes about n / B node distances and B
    per run, not n, and the table is the one the dense scan gives, bit for
    bit.  Rows go in chunks of about _CHUNK_ENTRIES / (8 * n / B), which
    keeps a chunk's temporaries below the dense scan's.
    """

    def __init__(self, curve: Curve, eval_indices=None,
                 max_radii: int = MAX_RADII):
        n = curve.n_samples
        if eval_indices is None:
            eval_indices = np.arange(n)
        if not isinstance(max_radii, numbers.Integral) or max_radii < 1:
            raise PreconditionError(
                f"max_radii must be a positive integer, got {max_radii!r}")
        self.curve = curve
        self.eval_indices = _check_eval_indices(eval_indices, n)
        rows = self.eval_indices.size
        exact = n <= max_radii
        n_radii = n if exact else int(max_radii)
        slots = n_radii + 1
        self._eps = np.empty((rows, n_radii))
        block = 0 if exact else math.isqrt(n // n_radii)
        if block >= _MIN_BLOCK:
            chunks = _block_runs(curve.samples, self.eval_indices, self._eps,
                                 block)
        else:
            chunks = _dense_runs(curve.samples, self.eval_indices, self._eps,
                                 exact)
        starts = [np.empty(0, dtype=np.intp)]  # no rows: an empty table
        bins = [np.empty(0, dtype=np.intp)]
        for lo, m, row, col, bucket in chunks:
            # each row's runs, then its boundary: shift by earlier boundaries
            pos = np.arange(row.size) + row
            ends = np.cumsum(np.bincount(row, minlength=m)) + np.arange(m)
            chunk_starts = np.empty(row.size + m, dtype=np.intp)
            chunk_bins = np.empty_like(chunk_starts)
            chunk_starts[pos] = col
            chunk_bins[pos] = (lo + row) * slots + bucket.astype(np.intp)
            chunk_starts[ends] = n
            chunk_bins[ends] = (lo + np.arange(m)) * slots + n_radii
            starts.append(chunk_starts)
            bins.append(chunk_bins)
        self._starts = np.concatenate(starts)
        self._bins = np.concatenate(bins)
        del starts, bins  # before the denominators' evaluation below
        # one-sample runs: a boundary (n) is never followed by n + 1
        self._single = np.flatnonzero(np.diff(self._starts) == 1)
        self._shape = (rows, slots)
        self._aw = curve.arc_weights
        self._den = self._portion_sums(np.ones(n))

    def _run_sums(self, g: np.ndarray) -> np.ndarray:
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
        at = np.empty(_GATHER_BLOCK + 1, dtype=np.complex128)
        diff = np.empty(_GATHER_BLOCK, dtype=np.complex128)
        # run i ends at starts[i + 1]; the last (a boundary) stays 0
        for a in range(0, starts.size - 1, _GATHER_BLOCK):
            m = min(_GATHER_BLOCK, starts.size - 1 - a)
            np.take(pre, starts[a:a + m + 1], out=at[:m + 1])
            np.subtract(at[1:m + 1], at[:m], out=diff[:m])
            np.add(diff[:m].real, diff[:m].imag, out=run_sums[a:a + m])
        np.maximum(run_sums, 0.0, out=run_sums)
        # a one-sample run is its sample, with no prefix cancellation
        run_sums[self._single] = x[starts[self._single]]
        return run_sums

    def _portion_sums(self, g: np.ndarray) -> np.ndarray:
        """E x R table: per row and radius, the sum of g * arc_weights."""
        table = np.bincount(self._bins, weights=self._run_sums(g),
                            minlength=self._shape[0] * self._shape[1])
        return np.cumsum(table.reshape(self._shape)[:, :-1], axis=1)

    def sup_average(self, g: np.ndarray):
        """Per evaluation point: max over radii of avg(g over the portion).

        g must be a nonnegative per-sample array.  It is scaled by an exact
        power of two so that its maximum lies in [1, 2), and the sup scaled
        back, so that an integrand whose total overflows still gives a
        finite sup.
        """
        shift = math.frexp(float(np.max(g)))[1] - 1
        if shift:  # the weighted path's maximum is exactly 1: no copy
            g = np.ldexp(g, -shift)
        avg = self._portion_sums(g) / self._den
        hit = np.argmax(avg, axis=1)
        rows = np.arange(avg.shape[0])
        return np.ldexp(avg[rows, hit], shift), self._eps[rows, hit]


def weighted_maximal(curve: Curve, f, t0: complex, gamma: complex,
                     branch: ArgBranch | None = None,
                     evaluator: MaximalEvaluator | None = None
                     ) -> MaximalResult:
    """The weight-conjugated maximal operator for phi_{t0,gamma}.

    Computes phi(t) * sup of portion averages of |f| / phi in log-space.
    gamma = 0 is the plain maximal operator, the sup of portion averages of
    |f| bit for bit, and reads neither t0 nor branch; any other gamma takes
    its weight from gamma_weight.  The evaluator, built on this curve, sets
    the evaluation points and radii; by default every sample, at MAX_RADII.
    """
    if evaluator is not None and evaluator.curve is not curve:
        raise PreconditionError("the evaluator was built on another curve")
    gamma = complex(gamma)
    log_phi = (None if gamma == 0
               else gamma_weight(curve, t0, gamma, branch).log_values)
    if evaluator is None:
        evaluator = MaximalEvaluator(curve)
    absf = np.abs(as_sampled(curve, f))
    if log_phi is None:
        values, eps = evaluator.sup_average(absf)
        return MaximalResult(values, eps, evaluator.eval_indices)
    # log g, its shifted form and g itself share absf's buffer
    with np.errstate(divide="ignore"):
        log_g = np.log(absf, out=absf)
    log_g -= log_phi
    finite = np.isfinite(log_g)
    shift = float(np.max(log_g, where=finite, initial=-np.inf))
    if shift == -np.inf:
        values = np.zeros(evaluator.eval_indices.size)
        return MaximalResult(values, values.copy(), evaluator.eval_indices)
    log_g -= shift
    log_g[~finite] = -np.inf
    g = np.exp(log_g, out=log_g)
    avg, eps = evaluator.sup_average(g)
    with np.errstate(divide="ignore"):
        log_vals = log_phi[evaluator.eval_indices] + shift + np.log(avg)
    nonzero = avg > 0.0
    clipped = bool(np.any(np.abs(log_vals[nonzero]) > LOG_CLAMP))
    values = clamped_exp(log_vals)
    values[~nonzero] = 0.0
    return MaximalResult(values, eps, evaluator.eval_indices, clipped)


@dataclass(frozen=True)
class Decomposition:
    """The four arc-localized pieces of the weighted maximal operator.

    pieces[0]: chi_omega   M chi_omega f      (singularity core)
    pieces[1]: chi_complement M chi_omega f
    pieces[2]: chi_omega   M chi_complement f
    pieces[3]: chi_complement M chi_complement f
    Their pointwise sum dominates the un-split operator on the shared
    radius grid.
    """

    pieces: tuple
    omega_mask: np.ndarray
    eval_indices: np.ndarray


def decompose(curve: Curve, f, t0: complex, gamma: complex, delta: float,
              branch: ArgBranch | None = None,
              evaluator: MaximalEvaluator | None = None,
              join_ends: bool = False) -> Decomposition:
    """Split the weighted maximal operator across the arc omega(t0, delta);
    the evaluator is weighted_maximal's, built here when not given."""
    f = as_sampled(curve, f)
    mask = omega_arc(curve, t0, delta, join_ends=join_ends)
    if evaluator is None:
        evaluator = MaximalEvaluator(curve)
    f_in = np.where(mask, f, 0.0)
    f_out = np.where(mask, 0.0, f)
    m_in = weighted_maximal(curve, f_in, t0, gamma, branch=branch,
                            evaluator=evaluator)
    m_out = weighted_maximal(curve, f_out, t0, gamma, branch=branch,
                             evaluator=evaluator)
    at_eval = mask[evaluator.eval_indices]
    pieces = (np.where(at_eval, m_in.values, 0.0),
              np.where(at_eval, 0.0, m_in.values),
              np.where(at_eval, m_out.values, 0.0),
              np.where(at_eval, 0.0, m_out.values))
    return Decomposition(pieces, mask, evaluator.eval_indices)


def export_maximal_csv(curve: Curve, result: MaximalResult, path):
    """Write arclen, Mf, argmax_eps rows."""
    write_csv(path, ["arclen", "Mf", "argmax_eps"],
              zip(curve.cumlen[result.eval_indices], result.values,
                  result.argmax_eps))
