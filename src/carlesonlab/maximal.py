"""Discrete Hardy-Littlewood maximal operator on curves, weighted by phi.

At each evaluation point the supremum over radii is taken on a grid.  The
portion average is piecewise constant in the radius between realized
distances, so the scan is exact on the grid of every realized distance,
which it uses when the curve has at most max_radii samples; a larger curve
gets max_radii log-spaced radii, and its sup is a lower bound.

The engine stores each portion as an interval of samples.  For an
evaluation point with radius grid eps_0 <= ... <= eps_{R-1}, sample j gets
the bucket id b_j = #{r : eps_r <= d_j}, so that j lies in the radius-r
portion (d_j < eps_r) exactly when b_j <= r.  Along the curve the distance
to the point changes slowly, so b_j, taken in sample order, is constant
over long runs, and the samples around the point with ids <= r form one
cyclic interval [p, q) of the sample array: it wraps across the array's
ends when p > q, as on a curve closed or slit at t0.  Nearly every portion
is that interval alone (1.00 to 1.01 segments per portion on the probe
curves at R = 256); the few others keep their further segments in a short
list.  A portion sum is then one difference of two compensated prefix sums
of the integrand, so one evaluation costs O(n + E * R), not O(E * n).  A
portion is held as two int32 indices into the prefix table and its float64
denominator, 16 bytes per (point, radius) slot, and an evaluation streams
its table of portion averages block by block, so it never holds E * R
values.

The build need not compute every distance either.  On large curves it
places nodes every B ~ sqrt(n / R) samples; a polyline bound from the node
distances and the gap's length confines each gap's distances, and a gap
confined to one bucket takes it whole, so a point costs about n / B + B *
runs distances instead of n.  Bucket ids of log-spaced grids come in closed
form from the log of the distance, and next to a grid point from one
comparison with it.  The runs are bit for bit the ones of the full scan.

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
from .curves import Curve, write_csv
from .errors import PreconditionError
from .norms import as_sampled, nested_shells, support_maxima

MAX_RADII = 256
_CHUNK_ENTRIES = 1 << 17  # distances per build chunk: bounds its memory
_PIECE_ENTRIES = 1 << 15  # entries per row piece of a chunk's passes
_MIN_BLOCK = 8  # smallest node spacing at which the block build pays
_SLACK = 1e-12  # relative widening of a gap's polyline distance bound
_BLOCK_SLOTS = 1 << 14  # portions per prefix-sum gather
_ROW_BLOCK = 256  # rows per evaluator that weighted_maximal builds itself


@dataclass(frozen=True, eq=False)
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


def _log_ends(d_lo, d_hi) -> np.ndarray:
    """Per row: the logs of the ends of its radius grid, from just below
    its smallest positive distance d_lo to just above its largest d_hi."""
    return np.stack([np.log(d_lo * (1.0 - 1e-12)),
                     np.log(d_hi * (1.0 + 1e-9))])


def _log_radii(ends, k, n_radii: int) -> np.ndarray:
    """Radius k of the log grids with ends = (start, stop), by
    ``np.linspace``'s own arithmetic: exp(k * step + start) with step =
    (stop - start) / (n_radii - 1), and exp(stop) at the last index.  The
    build's grids and a radius recomputed from a row's ends so agree bit
    for bit.  start, stop and k broadcast."""
    start, stop = ends
    y = k * ((stop - start) / max(n_radii - 1, 1)) + start
    if n_radii > 1:
        y = np.where(k == n_radii - 1, stop, y)
    return np.exp(y)


def _log_grid(ends, n_radii: int) -> np.ndarray:
    """Per row of ends (2 x rows): its n_radii log-spaced radii."""
    return _log_radii(ends[:, :, None], np.arange(n_radii), n_radii)


def _grid_position(buf: np.ndarray, eps: np.ndarray, row) -> np.ndarray:
    """Overwrite the distances buf with u + 1, their place on the grid.

    A distance d of row r sits at u = (log d - log eps_0) * (R - 1) /
    (log eps_{R-1} - log eps_0) on the row's log grid, and its bucket id
    #{k : eps_k <= d} is floor(u) + 1 unless u lies so close to an integer
    that the float grid point may fall on either side.  Returns the mask of
    those entries and of the entries whose u is not finite (d = 0, or a
    single radius); the floor of buf is the id of every other entry.  row
    gives each entry's row of eps and has buf's first axis.  buf is taken
    in pieces of rows of about _PIECE_ENTRIES entries, so the only
    temporary the size of a piece is the distance to the nearest integer.
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
        # u + 1 = log d * scale - (log0 * scale - 1)
        shift = log0 * scale - 1.0
        fix = np.empty(buf.shape, dtype=bool)
        step = max(1, _PIECE_ENTRIES // math.prod(buf.shape[1:]))
        for a in range(0, len(buf), step):
            u, r = buf[a:a + step], row[a:a + step]
            np.log(u, out=u)
            np.multiply(u, scale[r], out=u)
            np.subtract(u, shift[r], out=u)
            off = np.rint(u)
            np.subtract(u, off, out=off)
            np.abs(off, out=off)
            np.greater_equal(off, tol, out=fix[a:a + step])
    np.logical_not(fix, out=fix)  # NaN compares false: fixed up too
    return fix


def _bucket_ids(buf, eps, row, col, samples, centres):
    """Overwrite the distances buf = |samples[col] - centres[row]| with
    their bucket ids on the grids eps; row and col broadcast against buf.

    The closed form of _grid_position, with one comparison for the entries
    next to a grid point, whose distances are recomputed from the samples
    because buf no longer holds them.  There u lies within the margin of
    an integer K, far less than 1 away, so eps_{K-1} <= d < eps_{K+1} and
    the id is K + [eps_K <= d], with K clipped to [0, R - 1]; an entry
    whose u is not finite takes K = 0.
    """
    at = np.unravel_index(np.flatnonzero(_grid_position(buf, eps, row)),
                          buf.shape)
    k = np.rint(buf[at]) - 1.0
    np.floor(buf, out=buf)
    k = np.where(np.isfinite(k), np.clip(k, 0, eps.shape[1] - 1), 0)
    k = k.astype(np.intp)
    r = np.broadcast_to(row, buf.shape)[at]
    c = np.broadcast_to(col, buf.shape)[at]
    d = np.abs(samples[c] - centres[r])
    buf[at] = k + (eps[r, k] <= d)


def _dense_runs(samples, eval_indices, radii, n_radii: int, exact: bool):
    """Run heads of every row from all of its distances, chunk by chunk.

    Yields (first row, rows, row, start, bucket id) per chunk of at most
    _CHUNK_ENTRIES distances, held in one float64 buffer that each piece
    of about _PIECE_ENTRIES entries fills, so no complex difference the
    size of the chunk is made.  With exact set, the grid is every realized
    distance, written to the rows of the table radii, and each row is
    searched; otherwise the grid is log-spaced, its ends are written to
    the columns of radii (2 x rows) and the ids come in closed form.
    """
    n = samples.size
    chunk = max(1, _CHUNK_ENTRIES // n)
    step = max(1, _PIECE_ENTRIES // n)
    for lo in range(0, eval_indices.size, chunk):
        idx = eval_indices[lo:lo + chunk]
        m = idx.size
        centres = samples[idx]
        # the chunk's one distance buffer, filled a piece of rows at a time
        dists = np.empty((m, n))
        for a in range(0, m, step):
            np.abs(samples - centres[a:a + step, None], out=dists[a:a + step])
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
            eps = radii[lo:lo + m]
            ds = np.sort(dists, axis=1)
            eps[:] = np.where(ds > 0.0, ds * (1.0 + 1e-12),
                              d_lo[:, None] * (1.0 - 1e-12))
            del ds
            for r in range(m):
                dists[r] = np.searchsorted(eps[r], dists[r], side="right")
        else:
            ends = radii[:, lo:lo + m]
            ends[:] = _log_ends(d_lo, np.max(dists, axis=1))
            eps = _log_grid(ends, n_radii)
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


def _block_runs(samples, eval_indices, ends_out, n_radii: int, block: int):
    """Run heads of every row from the node distances and the distances
    of the gaps that the polyline bound does not put in one bucket; see
    MaximalEvaluator.  Nodes sit every `block` samples and at the last.
    Writes each row's log grid ends to ends_out and yields chunks as
    _dense_runs does.
    """
    n = samples.size
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
    # several arrays: a quarter of a dense chunk's entries in gaps keeps the
    # temporaries to a few MB (an eighth took 9 to 24 % longer to build)
    chunk = max(1, _CHUNK_ENTRIES // (4 * n_gaps))
    for lo in range(0, eval_indices.size, chunk):
        idx = eval_indices[lo:lo + chunk]
        m = idx.size
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
        ends = ends_out[:, lo:lo + m]
        ends[:] = _log_ends(near, far)
        eps = _log_grid(ends, n_radii)
        rows = np.arange(m)[:, None]
        uniform = _grid_position(d_min, eps, rows)
        uniform |= _grid_position(d_max, eps, rows)
        uniform |= forced
        np.logical_not(uniform, out=uniform)
        # the bound's ends in one bucket: the floors of u + 1 agree
        uniform &= np.floor(d_min, out=d_min) == np.floor(d_max, out=d_max)
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


def _portions(row, col, bucket, centres, n: int, p, q):
    """Fill one chunk's rows of the interval indices p and q from their
    run heads, and return their extra segments; see MaximalEvaluator.

    row, col and bucket give each run's row (ascending from 0), first sample
    and bucket id, and centres each row's own sample.  The extra segments
    come as the rows (row * R + radius, start, end), ordered by slot.
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
    # each row's walks from its eval run around the cycle of its runs, two
    # ranges each: own up to last, then first up to own - 1, to the right;
    # own down to first, then last down to own + 1, to the left
    size, o, back = last + 1 - first, own - first, own + first
    pos = np.arange(runs)
    right = pos + np.repeat(np.column_stack([o, o - size]).ravel(),
                            np.column_stack([size - o, o]).ravel())
    left = np.repeat(np.column_stack([back, back + size]).ravel(),
                     np.column_stack([o + 1, size - o - 1]).ravel()) - pos
    off = row * width
    reach = []
    for walk, bound, out, none in ((right, col, q, n), (left, stop, p, 0)):
        # running maxima of the ids, kept to each row by its offset
        top = np.maximum.accumulate(b[walk] + off)
        # per slot: the count of places whose maximum is at most r, in its
        # row and the rows before, which is the place of the run blocking r
        at = np.cumsum(np.bincount(top, minlength=m * width))
        # a block ends the interval at its first sample on the right and
        # starts it at its end on the left, n and 0 at the array's far end;
        # a row with no block reads the eval run (which never blocks) of
        # the next row's walk, or the end: [0, n)
        edge = np.append(bound[walk], none)
        edge[edge == n - none] = none
        edge[first] = none
        out[:] = edge[at.reshape(m, width)[:, :n_radii]]
        reach.append(np.empty_like(top))
        reach[-1][walk] = top - off
    # a wrapped interval, [p, n) then [0, q), is read from the second half
    # of the prefix table: (p + n + 1, q)
    np.add(p, n + 1, out=p, where=p > q)
    # a run outside the interval at radius r, below its reach (the radius
    # from which the interval holds it), starts an extra segment when its
    # left neighbour is above r and ends one when its right neighbour is
    reach = np.minimum(*reach)
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
    return np.stack([slot, col[seg_first], stop[seg_last]])


class MaximalEvaluator:
    """Reusable sup-of-portion-averages engine for one curve and point set.

    Stores, per evaluation point (row), its radius grid and, per row and
    radius (slot), the portion's interval around the point as two int32
    indices into the prefix table (see below): a plain interval
    [p, q) as (p, q), a wrapped one, [p, n) then [0, q), as (p + n + 1, q).
    Every other piece of a portion is an extra segment (slot, start, end)
    in one short list, ordered by slot: each further stretch of a portion
    whose other samples lie elsewhere, and a first piece of one sample,
    [j, j + 1) or the [n - 1, n) of a wrap, listed ahead of the slot's
    other segments.  The interval then keeps what is left, the empty
    (q, q), or the plain (0, q) after a wrap.

    The grid is every realized distance (R = n entries) when the curve has
    at most max_radii samples; otherwise R = max_radii log-spaced radii, of
    which a row keeps only the logs of the ends, start = log(d_lo * (1 -
    1e-12)) and stop = log(d_hi * (1 + 1e-9)).  Radius k is exp(k * step +
    start) with step = (stop - start) / (R - 1), and exp(stop) at k =
    R - 1: ``np.linspace``'s own arithmetic.  The build makes each chunk's
    grids from the ends with the same helper that recomputes the radius of
    a hit, so the two agree bit for bit.

    Memory: two indices and a denominator are 16 bytes per slot, 16 MB for
    the full grid at n = 4096 (E = 4096, R = 256); the slot lists, the row
    ends and the prefix table are O(E + n), and a call allocates O(n)
    beside the evaluator's buffers.  weighted_maximal with no evaluator
    builds and evaluates 256 rows at a time (1 MB of slots at R = 256),
    each block's evaluator freed before the next, so that its memory does
    not grow with n * R.  The dense build holds one chunk's distances, 1 MB
    in one float64 buffer, and beside it the temporaries of one piece of
    rows: a one-use call peaks at 2.7 to 2.8 MiB under tracemalloc at
    n = 4096 (on the log spiral and the graded circle of the tests).

    The intervals come from the runs of equal bucket ids, chunk by chunk as
    the build yields them.  Going right from the point's own run (the eval
    run, id 0) and on from the array's start past its end, the portion at
    radius r stops at the first run whose id exceeds r, its right block,
    whose first sample ends the interval; going left, the left block's end
    starts it.  Each row so walks its runs twice from the eval run around
    the cycle, once per direction, each walk two ranges of run indices.
    One ``np.maximum.accumulate`` of the ids along a direction's walks,
    offset by row so that each row's maximum stays its own, gives their
    running maxima; the maximum is at most r exactly at the places before
    the block of r, so one ``np.bincount`` of the maxima and its
    ``np.cumsum`` give every slot the place of its block.  A row with no
    block reads the place after its walk, which holds [0, n).  A run with
    id b that neither walk reaches before radius m > b (the smaller of its
    two running maxima) lies outside the interval for the radii in [b, m);
    where its neighbour's id is above r it starts or ends an extra segment.

    One evaluation takes the prefix sums hi of x = g * arc_weights by one
    sequential ``cumsum`` and the exact rounding error of each of its steps
    by TwoSum; their running sum is lo, and pre = hi + lo.  The prefix
    table is T = [pre | pre - pre[n]] (2(n + 1) entries; its second half
    only when some portion wraps), and a portion sums to T[q] - T[p'] for
    its stored pair (p', q), its pieces of hi and of lo differenced apart
    before they are joined.  On a wrap that is pre[q] - (pre[p] - pre[n]),
    exactly (pre[n] - pre[p]) + pre[q], the two close values first, since
    negation is exact.  Every sum is clamped at 0.  Extra segments are
    summed the same way, and one of one sample as that sample's x, so a
    one-sample portion is exact: its empty interval sums to exactly 0, and
    a wrap's pre[q] + x[n - 1] is the same addition as x[n - 1] + pre[q].
    They are added after the clamp, in list order.

    One kernel streams the table in blocks of rows of at most _BLOCK_SLOTS
    slots: gather both ends, join hi and lo, clamp at 0 and add the extra
    segments.  The build stores its blocks for g = 1 as the denominators,
    so a constant averages to exactly 1; a call divides each block by its
    rows of them and keeps each row's maximum and its index, so it writes
    E values and E indices.  The prefix table and the block buffers belong
    to the evaluator, which so serves one call at a time; each call
    rewrites them.

    Error: hi + lo is the prefix sum up to an absolute error of about
    n * u^2 * sum(x) (u the unit roundoff), against u * sum(x) for hi alone,
    which puts tiny portions far down the array, where hi is about sum(x),
    off by percents.  The largest radius covers the whole curve, so each
    row's sup is at least sum(x) / L (L the curve length), and the relative
    error of a portion's average, against that sup, is at most about
    n * u^2 * L / (the portion's measure).  With a single radius
    (max_radii = 1) no portion covers the curve; there every portion is one
    sample, or a closed curve's first sample and its copy at the end, and
    is summed exactly.  sup_average scales g by a power of two, so that an
    integrand whose total overflows still gives a finite sup.

    Storage is O(E * R), against the O(E * n) that a per-point sort order
    with cumulative weights needs; the runs are never held for all rows,
    nor a grid of radii in log mode.

    Build.  With n <= max_radii the grid is every realized distance and
    each row is bucketed by ``np.searchsorted``.  Otherwise the grid is
    log-spaced from just below the row's smallest positive distance d_lo
    to just above its largest d_hi, and a bucket id comes in closed form:
    u = (log d - log eps_0) * (R - 1) / (log eps_{R-1} - log eps_0) puts d
    on the grid and b = floor(u) + 1.  An entry whose u is not finite, or
    lies within 2^-30 * (R - 1) * (|log eps_0| + |log eps_{R-1}| + 1) /
    (log eps_{R-1} - log eps_0) of an integer (2^18 times u's rounding
    error; 2.4e-7 to 3.1e-7 on the probe curves; one margin, the largest
    of the chunk's rows, serves the whole chunk), lies next to the grid
    index K = rint(u), so that eps_{K-1} <= d < eps_{K+1}, and takes the id
    K + [eps_K <= d] (K clipped to [0, R - 1]; K = 0 where u is not
    finite).  Most rows have about three such entries: the point itself
    (d = 0) and the d_lo and d_hi samples.  Rows opposite a graded
    circle's t0 have thousands, the dense cluster of samples around t0
    within the margin of their top radius, and one comparison each keeps
    them cheap.  u is computed in place over the distance buffer, those
    entries are found by ``np.flatnonzero`` on it, and their distances are
    recomputed from the samples.

    The dense scan works on each chunk's row-major distance buffer.  The
    distances, and then their places on the grid and the test for the
    entries next to a grid point, are computed a piece of rows at a time
    (about _PIECE_ENTRIES entries, which fit in L2), each written into the
    buffer, so that neither the complex differences nor the nearest
    integers exist for the whole chunk at once; every id depends only on
    its entry's distance and its row's grid, so the pieces change no bit.
    d_lo is a plain row minimum with each row's own zero set to +inf for
    the moment; only a row with a second zero distance, such as a closed
    curve's end rows, takes the masked reduction.  Run heads come from one
    comparison of neighbouring ids over the buffer as one flat array, with
    every row's first entry set as a head, so that no run joins one row's
    last sample to the next row's first; ``np.divmod`` by n gives their
    rows and columns.

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
    per run, not n, and the runs are the ones the dense scan gives, bit for
    bit.  Rows go in chunks of about _CHUNK_ENTRIES / (4 * n / B).
    """

    def __init__(self, curve: Curve, eval_indices=None,
                 max_radii: int = MAX_RADII):
        n = curve.n_samples
        if eval_indices is None:
            eval_indices = np.arange(n)
        if (isinstance(max_radii, bool)
                or not isinstance(max_radii, numbers.Integral)
                or max_radii < 1):
            raise PreconditionError(
                f"max_radii must be a positive integer, got {max_radii!r}")
        self.curve = curve
        self.eval_indices = _check_eval_indices(eval_indices, n)
        rows = self.eval_indices.size
        self._exact = n <= max_radii
        n_radii = n if self._exact else int(max_radii)
        # the realized distances, or the log grid ends of each row
        self._radii = np.empty((rows, n_radii) if self._exact else (2, rows))
        block = 0 if self._exact else math.isqrt(n // n_radii)
        if block >= _MIN_BLOCK:
            chunks = _block_runs(curve.samples, self.eval_indices,
                                 self._radii, n_radii, block)
        else:
            chunks = _dense_runs(curve.samples, self.eval_indices,
                                 self._radii, n_radii, self._exact)
        # prefix table indices: int32 holds 2n + 1 for any n that fits in
        # memory, at half the table's size
        self._p, self._q = np.empty((2, rows, n_radii), dtype=np.int32)
        extras = [np.empty((3, 0), dtype=np.intp)]  # no rows: none
        self._wraps = False
        for lo, m, row, col, bucket in chunks:
            at = np.s_[lo:lo + m]
            p, q = self._p[at], self._q[at]
            segs = _portions(row, col, bucket, self.eval_indices[at], n, p, q)
            # a first piece of one sample, [j, j + 1) or [n - 1, n) then
            # [0, q), becomes the slot's first extra segment; the interval
            # keeps the empty [q, q), or [0, q) after a wrap
            slot = np.flatnonzero((q - p == 1) | (p == 2 * n))
            first = p.reshape(-1)[slot]
            np.put(p, slot, np.where(first > n, 0, q.reshape(-1)[slot]))
            j = first % (n + 1)
            segs = np.concatenate([np.stack([slot, j, j + 1]), segs], axis=1)
            segs = segs[:, np.argsort(segs[0], kind="stable")]
            segs[0] += lo * n_radii
            extras.append(segs)
            self._wraps |= bool(np.any(p > n))
        self._extra = np.concatenate(extras, axis=1)
        self._aw = curve.arc_weights
        # the prefix table and the block buffers live with the evaluator,
        # which so serves one call at a time: taking and freeing them on
        # every call leaves the heap more fragmented, and a fresh table
        # that glibc maps for each call costs its page faults every time;
        # a call writes all of the table but pre[0] and lo[1], which stay 0
        self._table = np.zeros((n + 1) * (1 + self._wraps),
                               dtype=np.complex128)
        block_rows = max(1, _BLOCK_SLOTS // n_radii)
        self._buf = np.empty((2, block_rows, n_radii), dtype=np.complex128)
        # per block of rows: where its extra segments start and end
        bounds = np.arange(0, rows + block_rows, block_rows) * n_radii
        cuts = np.searchsorted(self._extra[0], bounds).tolist()
        self._cuts = list(zip(cuts, cuts[1:]))
        self._den = np.empty((rows, n_radii))
        for at, sums in self._blocks(np.ones(n)):
            self._den[at] = sums

    def _blocks(self, g: np.ndarray):
        """Per block of rows: its slice and its table of portion sums of
        g * arc_weights, in a buffer that the next block overwrites."""
        x = g * self._aw
        n = x.size
        # compensated prefix sums: sum(x[:k]) = pre[k].real + pre[k].imag,
        # followed by pre - pre[n] when some portion wraps
        table = self._table
        pre = table[:n + 1]
        hi, lo = pre.real, pre.imag
        np.cumsum(x, out=hi[1:])
        # TwoSum: the exact rounding error of hi[k+1] = hi[k] + x[k]
        b = hi[2:] - hi[1:-1]
        err = (hi[1:-1] - (hi[2:] - b)) + (x[1:] - b)
        np.cumsum(err, out=lo[2:])
        del b, err
        if self._wraps:
            np.subtract(pre, pre[n], out=table[n + 1:])
        extra_slot, start, end = self._extra
        if extra_slot.size:
            seg = pre[end] - pre[start]
            seg = np.maximum(seg.real + seg.imag, 0.0)
            one = end - start == 1
            seg[one] = x[start[one]]
        total, n_radii = self._p.shape
        rows = self._buf.shape[1]
        for a, (k, m) in zip(range(0, total, rows), self._cuts):
            at = np.s_[a:a + rows]
            t, s = self._buf[:, :min(rows, total - a)]
            # every index is in [0, 2n + 1]: "clip" only skips the bounds
            # check
            np.take(table, self._q[at], out=t, mode="clip")
            np.take(table, self._p[at], out=s, mode="clip")
            t -= s
            # the sums take the first half of s's memory
            sums = s.reshape(-1).view(np.float64)[:t.size].reshape(t.shape)
            np.add(t.real, t.imag, out=sums)
            np.maximum(sums, 0.0, out=sums)
            if m > k:
                np.add.at(sums.reshape(-1), extra_slot[k:m] - a * n_radii,
                          seg[k:m])
            yield at, sums

    def _radius(self, hit: np.ndarray) -> np.ndarray:
        """Per row: the radius of grid index hit[row]."""
        if self._exact:
            return self._radii[np.arange(hit.size), hit]
        return _log_radii(self._radii, hit, self._p.shape[1])

    def sup_average(self, g):
        """Per evaluation point: max over radii of avg(g over the portion).

        g must be a real, finite, nonnegative array of the curve's samples;
        PreconditionError otherwise.  It is scaled by an exact power of two
        so that its maximum lies in [1, 2), and the sup scaled back, so that
        an integrand whose total overflows still gives a finite sup.
        """
        g = np.asarray(g)
        if g.shape != self._aw.shape or g.dtype.kind not in "biuf":
            raise PreconditionError(
                f"sup_average needs a real array of the curve's "
                f"{self._aw.size} samples, got {g.dtype} of shape {g.shape}")
        top = float(np.max(g))
        if not math.isfinite(top) or np.min(g) < 0:
            raise PreconditionError(
                "sup_average needs a finite nonnegative integrand")
        shift = math.frexp(top)[1] - 1
        if shift:  # the weighted path's maximum is exactly 1: no copy
            g = np.ldexp(g, -shift)
        values = np.empty(self._den.shape[0])
        hit = np.empty(values.size, dtype=np.intp)
        for at, avg in self._blocks(g):
            avg /= self._den[at]
            np.argmax(avg, axis=1, out=hit[at])
            values[at] = avg[np.arange(avg.shape[0]), hit[at]]
        return np.ldexp(values, shift), self._radius(hit)


def _sup_average(curve: Curve, g, evaluator):
    """The evaluator's sup_average of g and its evaluation points; with no
    evaluator, every sample of the curve at MAX_RADII, each block of
    _ROW_BLOCK consecutive rows built, evaluated and freed in turn.  Every
    row's grid and portions depend on that row alone, so the blocks give
    the full grid's values and radii bit for bit."""
    if evaluator is not None:
        return (*evaluator.sup_average(g), evaluator.eval_indices)
    n = curve.n_samples
    blocks = [MaximalEvaluator(curve, np.arange(a, min(a + _ROW_BLOCK, n)))
              .sup_average(g) for a in range(0, n, _ROW_BLOCK)]
    values, eps = map(np.concatenate, zip(*blocks))
    return values, eps, np.arange(n)


def weighted_maximal(curve: Curve, f, t0: complex, gamma: complex,
                     branch: ArgBranch | None = None,
                     evaluator: MaximalEvaluator | None = None,
                     supports=None):
    """The weight-conjugated maximal operator for phi_{t0,gamma}.

    Computes phi(t) * sup of portion averages of |f| / phi in log-space.
    gamma = 0 is the plain maximal operator, the sup of portion averages of
    |f| bit for bit, and reads neither t0 nor branch; any other gamma takes
    its weight from gamma_weight.  The evaluator, built on this curve, sets
    the evaluation points and radii.  With none, every sample is evaluated
    at MAX_RADII, 256 rows at a time: each block's evaluator is built,
    used once and freed before the next, so the call holds one block's
    slots (1 MB), not the full grid's 16 bytes per sample and radius, and
    returns what one full-grid evaluator gives, bit for bit.

    supports, a sequence of nested boolean masks (see norms.nested_shells),
    returns instead an iterator over the results for f * chi_S, one per
    mask S in order, each what a call on f * chi_S alone returns, bit for
    bit; it needs an evaluator, which every support's integrand goes
    through.  supports None, the default, is the whole curve, whose result
    is returned alone.  The weight and log g = log|f| - log phi are taken
    once, and each support's shift M_S, the largest finite log g on S,
    from the maxima on the shells; its integrand exp(log g - M_S) is
    computed on S's samples only, so no deep support loses range to the
    outermost one.  Each integrand is made when its result is taken, so a
    consumer taking the results one at a time holds one integrand at a
    time.
    """
    if evaluator is not None and evaluator.curve is not curve:
        raise PreconditionError("the evaluator was built on another curve")
    if supports is not None and evaluator is None:
        raise PreconditionError("supports need an evaluator")
    order, starts = nested_shells(curve, supports)
    masks = [True] if supports is None else supports
    gamma = complex(gamma)
    log_phi = (None if gamma == 0
               else gamma_weight(curve, t0, gamma, branch).log_values)
    absf = np.abs(as_sampled(curve, f))
    if log_phi is None:
        results = (MaximalResult(*_sup_average(
            curve, absf if mask is True else np.where(mask, absf, 0.0),
            evaluator)) for mask in masks)
    else:
        # log g shares absf's buffer; the logs that are not finite, log 0
        # = -inf, stay -inf, and an f that is 0 everywhere gives
        # shift = -inf and g = 0
        with np.errstate(divide="ignore"):
            log_g = np.log(absf, out=absf)
        log_g -= log_phi
        ordered = log_g[order]
        shifts = support_maxima(
            np.where(np.isfinite(ordered), ordered, -np.inf), starts)
        results = _support_results(curve, log_g, masks, shifts, log_phi,
                                   evaluator)
    return next(results) if supports is None else results


def _support_results(curve: Curve, log_g: np.ndarray, masks, shifts,
                     log_phi: np.ndarray, evaluator):
    """Per mask S and its shift M_S: the result for exp(log g) * chi_S,
    each computed when it is taken.  The mask True, the whole curve, is
    the only support and writes its integrand into log g's buffer."""
    for mask, shift in zip(masks, shifts):
        # the single call's integrand on the support and 0 off it: the
        # shift leaves the logs that are not finite as they are, and a
        # support with no finite log g (shift = -inf) is not shifted
        g = log_g if mask is True else np.zeros(log_g.size)
        np.subtract(log_g, shift if shift > -np.inf else 0.0, out=g,
                    where=mask)
        np.exp(g, out=g, where=mask)
        yield _conjugated(curve, g, shift, log_phi, evaluator)
        del g  # before the next integrand is made


def _conjugated(curve: Curve, g: np.ndarray, shift: float,
                log_phi: np.ndarray, evaluator) -> MaximalResult:
    """phi times the sup of portion averages of g * exp(shift), with
    g = |f| / phi scaled by exp(-shift)."""
    avg, eps, eval_indices = _sup_average(curve, g, evaluator)
    with np.errstate(divide="ignore"):
        log_vals = log_phi[eval_indices] + shift + np.log(avg)
    nonzero = avg > 0.0
    clipped = bool(np.any(np.abs(log_vals[nonzero]) > LOG_CLAMP))
    values = clamped_exp(log_vals)
    values[~nonzero] = 0.0
    return MaximalResult(values, eps, eval_indices, clipped)


def export_maximal_csv(curve: Curve, result: MaximalResult, path):
    """Write arclen, Mf, argmax_eps rows."""
    write_csv(path, ["arclen", "Mf", "argmax_eps"],
              zip(curve.cumlen[result.eval_indices], result.values,
                  result.argmax_eps))
