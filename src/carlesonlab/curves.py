"""Rectifiable simple curves as dense sample sequences with arc-length structure.

A curve is an ordered array of points in the complex plane plus cumulative
arc length per sample.  Generators produce the curve zoo (circles, graded
circles, log spirals, mixed-spirality spirals, segments, corners); metric
primitives compute the Carleson constant estimate, d_t and arcs.

All Curve values are immutable after construction and every operation is a
pure function of its inputs.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyArc, PreconditionError

# Discretization floors.
MAX_ANGULAR_STEP = math.pi / 8
MIN_CIRCLE_SAMPLES = 16
CARLESON_T_POINTS = 48  # grid points t of default_carleson_grids
CARLESON_EPS_POINTS = 48  # radii of default_carleson_grids


@dataclass(frozen=True, eq=False)
class Curve:
    """Discretized rectifiable curve.

    samples: ordered points in the complex plane.
    cumlen:  cumulative arc length per sample, cumlen[0] == 0, strictly
             increasing.  Generators fill in the exact arc length of the
             underlying analytic curve; from_points falls back to chord
             sums.
    closed:  whether the last sample closes the loop onto the first.
    """

    samples: np.ndarray
    cumlen: np.ndarray
    closed: bool

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        cumlen = np.asarray(self.cumlen, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise PreconditionError("a curve needs at least two samples")
        if cumlen.shape != samples.shape:
            raise PreconditionError("cumlen must align with samples")
        if not np.all(np.isfinite(samples)):
            raise PreconditionError("curve samples must be finite")
        if cumlen[0] != 0.0:
            raise PreconditionError("cumlen must start at 0")
        if not np.all(np.diff(cumlen) > 0):
            raise PreconditionError("cumlen must be strictly increasing")
        if np.any(samples[1:] == samples[:-1]):
            raise PreconditionError("consecutive samples must be distinct")
        if self.closed:
            gap = abs(samples[-1] - samples[0])
            scale = max(1.0, abs(samples[0]))
            if gap > 1e-12 * scale:
                raise PreconditionError("closed curve must end where it starts")
        samples.setflags(write=False)
        cumlen.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "cumlen", cumlen)

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def total_length(self) -> float:
        return float(self.cumlen[-1])

    @cached_property
    def seg_lengths(self) -> np.ndarray:
        """Arc length of each segment; computed once, read-only."""
        seg = np.diff(self.cumlen)
        seg.setflags(write=False)
        return seg

    @cached_property
    def arc_weights(self) -> np.ndarray:
        """Per-sample quadrature weights (half the adjacent segment lengths).

        Computed once per curve and read-only.
        """
        seg = self.seg_lengths
        w = np.zeros(self.n_samples)
        w[:-1] += 0.5 * seg
        w[1:] += 0.5 * seg
        w.setflags(write=False)
        return w

    @cached_property
    def log_arc_weights(self) -> np.ndarray:
        """log(arc_weights); computed once, read-only."""
        log_w = np.log(self.arc_weights)
        log_w.setflags(write=False)
        return log_w

    def distances_from(self, t: complex) -> np.ndarray:
        return np.abs(self.samples - t)

    def reversed(self) -> "Curve":
        cum = self.cumlen[-1] - self.cumlen[::-1]
        return Curve(self.samples[::-1].copy(), cum.copy(), self.closed)


def from_points(points, closed: bool = False) -> Curve:
    """Build a curve from raw points; cumlen falls back to chord sums."""
    pts = np.asarray(points, dtype=np.complex128)
    cum = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(pts)))))
    return Curve(pts, cum, closed)


# ---------------------------------------------------------------------------
# generators


def generate_circle(radius: float, n: int) -> Curve:
    """Circle of given radius, n uniformly spaced samples plus closure.

    cumlen carries the exact arc length, so the total length equals
    2*pi*radius for every admissible n.
    """
    if radius <= 0:
        raise PreconditionError("radius must be positive")
    if n < MIN_CIRCLE_SAMPLES:
        raise PreconditionError(
            f"need at least {MIN_CIRCLE_SAMPLES} samples, got {n}")
    theta = 2.0 * np.pi * np.arange(n + 1) / n
    samples = radius * np.exp(1j * theta)
    samples[-1] = samples[0]
    return Curve(samples, radius * theta, True)


def _min_resolvable_theta(n: int) -> float:
    """Smallest graded-circle offset whose log steps survive float64.

    The first geometric step is theta*(rho-1) with rho-1 ~ 2*log(pi/theta)/n;
    it must clear the rounding scale of angles near 2*pi by a wide margin.
    """
    t = 1.2e-14 * n
    for _ in range(3):
        t = 1.2e-14 * n / math.log(math.pi / t)
    return t


def generate_graded_circle(radius: float, n: int, t0_angle: float = 0.0,
                           grade: float = 3.0,
                           theta_min: float | None = None) -> Curve:
    """Circle discretized with log-graded angular spacing around one point.

    Samples accumulate geometrically toward the anchor radius*exp(i*t0_angle)
    from both sides, down to angular offset theta_min (default (2*pi/n)**grade,
    floored at 1e-13 to stay clear of cancellation in tau - t0).  The anchor
    itself is excluded; the returned curve is the circle slit at the anchor,
    which is where singular weights are anchored downstream.
    """
    if radius <= 0:
        raise PreconditionError("radius must be positive")
    if n < MIN_CIRCLE_SAMPLES:
        raise PreconditionError(
            f"need at least {MIN_CIRCLE_SAMPLES} samples, got {n}")
    floor = _min_resolvable_theta(n)
    if theta_min is None:
        theta_min = max((2.0 * np.pi / n) ** grade, floor)
        if not theta_min < np.pi / 4:
            raise PreconditionError(
                f"grade {grade:g} gives theta_min = (2*pi/n)**grade = "
                f"{theta_min:.3g} at n={n}, which must lie below pi/4")
    if not floor <= theta_min < np.pi / 4:
        raise PreconditionError(
            f"theta_min must lie in [{floor:.3g}, pi/4) at n={n}")
    side = n // 2
    offsets = np.geomspace(theta_min, np.pi, side)
    phis = np.concatenate([t0_angle + offsets,
                           t0_angle + 2.0 * np.pi - offsets[-2::-1]])
    samples = radius * np.exp(1j * phis)
    cumlen = radius * (phis - phis[0])
    return Curve(samples, cumlen, False)


def _check_angular_steps(theta: np.ndarray, what: str):
    step = float(np.max(np.abs(np.diff(theta))))
    if step >= MAX_ANGULAR_STEP:
        raise PreconditionError(
            f"{what}: angular step {step:.4g} exceeds pi/8; increase n")


def generate_log_spiral(delta: float, r_min: float, r_max: float,
                        n: int) -> Curve:
    """Logarithmic spiral tau(r) = r*exp(-i*delta*log r) on log-spaced radii.

    The distinguished point t0 = 0 is approached but never sampled.  By
    construction arg(tau) = -delta*log|tau| at every sample.
    """
    if not (0 < r_min < r_max) or not math.isfinite(delta):
        raise PreconditionError("need 0 < r_min < r_max and finite delta")
    if n < 2:
        raise PreconditionError("need at least two samples")
    r = np.geomspace(r_min, r_max, n)
    theta = -delta * np.log(r)
    _check_angular_steps(theta, "log spiral")
    samples = r * np.exp(1j * theta)
    # |tau'(r)| = sqrt(1 + delta^2) is constant, so arc length is exact.
    cumlen = math.sqrt(1.0 + delta * delta) * (r - r_min)
    return Curve(samples, cumlen, False)


def _mixed_phase(r: np.ndarray, alpha: float, beta: float):
    a = 0.5 * (alpha + beta)
    b = 0.5 * (beta - alpha)
    ell = -np.log(r)
    u = np.log(ell + math.e)
    theta = a * ell + b * ell * np.sin(u)
    # d(theta)/d(ell); bounded, so the curve stays rectifiable.
    dtheta = a + b * (np.sin(u) + ell * np.cos(u) / (ell + math.e))
    return theta, dtheta


def generate_mixed_spirality(alpha: float, beta: float, r_min: float,
                             r_max: float, n: int) -> Curve:
    """Spiral whose local winding rate oscillates between alpha and beta.

    tau(r) = r*exp(i*theta(r)) with theta(r) = a*L + b*L*sin(log(L+e)),
    L = log(1/r), a = (alpha+beta)/2, b = (beta-alpha)/2.  For alpha == beta
    this reduces pointwise to generate_log_spiral(alpha).  The spirality
    indices of the sampled curve are established empirically, not assumed.
    """
    if alpha > beta:
        raise PreconditionError("need alpha <= beta")
    # log(log(1/r) + e) caps the admissible outer radius at e^e
    if not (0 < r_min < r_max < math.e ** math.e):
        raise PreconditionError("need 0 < r_min < r_max < e^e")
    if n < 2:
        raise PreconditionError("need at least two samples")
    r = np.geomspace(r_min, r_max, n)
    theta, dtheta = _mixed_phase(r, alpha, beta)
    _check_angular_steps(theta, "mixed spirality")
    samples = r * np.exp(1j * theta)
    # |tau'(r)| = sqrt(1 + (dtheta/dlog(1/r))^2); 4-point Gauss per segment,
    # one node at a time, summed in node order
    nodes, gw = np.polynomial.legendre.leggauss(4)
    lr = np.log(r)
    mid = 0.5 * (lr[1:] + lr[:-1])
    half = 0.5 * np.diff(lr)
    seg = np.zeros(n - 1)
    for node, weight in zip(nodes, gw):
        ri = np.exp(mid + half * node)
        _, dth = _mixed_phase(ri, alpha, beta)
        seg += np.sqrt(1.0 + dth ** 2) * ri * weight
    seg *= half
    cumlen = np.concatenate(([0.0], np.cumsum(seg)))
    return Curve(samples, cumlen, False)


def generate_corner(turn: float, r_min: float, r_max: float, n: int) -> Curve:
    """Two-ray polyline with a corner at the (unsampled) origin.

    Runs in from radius r_max along angle 0, crosses near 0, and runs out to
    r_max along angle `turn`.  Piecewise smooth; the canonical zero-spirality
    companion to the spiral generators.
    """
    if not (0 < abs(turn) < np.pi):
        raise PreconditionError("need 0 < |turn| < pi")
    if not (0 < r_min < r_max):
        raise PreconditionError("need 0 < r_min < r_max")
    side = max(n // 2, 2)
    r_in = np.geomspace(r_max, r_min, side)
    r_out = np.geomspace(r_min, r_max, side)
    samples = np.concatenate([r_in.astype(np.complex128),
                              r_out * np.exp(1j * turn)])
    bridge = abs(r_min * np.exp(1j * turn) - r_min)
    cumlen = np.concatenate([r_max - r_in,
                             (r_max - r_min) + bridge + (r_out - r_min)])
    return Curve(samples, cumlen, False)


# ---------------------------------------------------------------------------
# metric primitives


def _inside_fractions(curve: Curve, k, t: complex, eps, first_inside):
    """Fraction of each segment k that lies in the disk |tau - t| < eps.

    Every segment crosses the circle once, leaving the disk when its first
    end is inside and entering it otherwise.
    """
    u = curve.samples[k] - t
    v = curve.samples[k + 1] - curve.samples[k]
    a = (v * v.conj()).real
    b = 2.0 * (u * v.conj()).real
    c = (u * u.conj()).real - eps * eps
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    r1 = (-b - sq) / (2.0 * a)
    r2 = (-b + sq) / (2.0 * a)
    s = np.where((r1 >= 0.0) & (r1 <= 1.0), r1, r2)
    s = np.clip(s, 0.0, 1.0)
    return np.where(first_inside, s, 1.0 - s)


def t0_distances(curve: Curve, t0: complex) -> np.ndarray:
    """|tau - t0| per sample, for a singular point t0 of the weights.

    PreconditionError unless t0 is finite and off the curve samples.
    """
    if not cmath.isfinite(t0):
        raise PreconditionError(f"t0 must be finite, got {t0!r}")
    d = curve.distances_from(t0)
    if np.any(d == 0):
        raise PreconditionError("t0 coincides with a curve sample")
    return d


def d_t(curve: Curve, t: complex) -> float:
    """Largest distance from t to the curve samples; t must be finite."""
    if not cmath.isfinite(t):
        raise PreconditionError(f"t must be finite, got {t!r}")
    return float(np.max(curve.distances_from(t)))


def carleson_constant(curve: Curve, t_points, eps_grid) -> float:
    """Grid maximum of |Gamma(t, eps)| / eps, a lower bound for C_Gamma.

    |Gamma(t, eps)| is the arc length of the curve inside the open disk
    |tau - t| < eps: the segments with both ends inside, plus the chord
    fraction of each segment up to its one crossing of the circle.
    Nondecreasing under grid refinement.  Each t takes one distance pass for
    every eps at once: the segments with both ends inside the disk are a
    prefix of the segments sorted by their farther end, and the quadratic
    crossing is solved only for the (eps, segment) pairs with one end
    inside.  Cost is O(|t| * (n log n + |eps| + crossings)).
    """
    t_points = np.atleast_1d(np.asarray(t_points, dtype=np.complex128))
    eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=np.float64))
    if t_points.size == 0 or eps_grid.size == 0:
        raise PreconditionError("grids must be nonempty")
    if not np.all(np.isfinite(t_points)):
        raise PreconditionError("t_points must be finite")
    if not np.all(np.isfinite(eps_grid) & (eps_grid > 0)):
        raise PreconditionError("eps_grid must be finite and positive")
    eps = np.sort(eps_grid)
    seg = curve.seg_lengths
    best = 0.0
    for t in t_points:
        d = curve.distances_from(t)
        near = np.minimum(d[:-1], d[1:])
        far = np.maximum(d[:-1], d[1:])
        # segments inside the disk: far < eps
        order = np.argsort(far)
        full = np.concatenate(([0.0], np.cumsum(seg[order])))
        measure = full[np.searchsorted(far[order], eps, side="left")]
        # segments crossing the circle: near < eps <= far
        first = np.searchsorted(eps, near, side="right")
        count = np.searchsorted(eps, far, side="right") - first
        k = np.repeat(np.arange(seg.size), count)
        e = np.repeat(first - np.cumsum(count) + count, count) \
            + np.arange(k.size)
        frac = _inside_fractions(curve, k, t, eps[e], d[k] < eps[e])
        measure = measure + np.bincount(e, weights=frac * seg[k],
                                        minlength=eps.size)
        best = max(best, float(np.max(measure / eps)))
    return best


def strided_indices(m: int, count: int) -> np.ndarray:
    """min(count, m) evenly strided indices into range(m), rounded: 0, and
    m - 1 when count >= 2; every index when count >= m."""
    return np.unique(np.linspace(0, m - 1, min(count, m)).round().astype(int))


def default_carleson_grids(curve: Curve):
    """Deterministic sub-grids: CARLESON_T_POINTS strided samples and
    CARLESON_EPS_POINTS log-spaced radii."""
    t_points = curve.samples[strided_indices(curve.n_samples,
                                             CARLESON_T_POINTS)]
    dmax = max(d_t(curve, t) for t in t_points)
    seg_min = float(curve.seg_lengths.min())
    eps_grid = np.geomspace(seg_min, dmax * (1 + 1e-9), CARLESON_EPS_POINTS)
    return t_points, eps_grid


def omega_arc(curve: Curve, t0: complex, delta: float,
              join_ends: bool = False) -> np.ndarray:
    """Boolean sample mask of the open arc around t0 within radius delta.

    The arc is the maximal contiguous sample run around the closest approach
    to t0 inside the delta-disk.  With join_ends=True the two array ends are
    treated as adjacent through t0 (curves generated as a slit at t0, e.g.
    graded circles).  Closed curves always join through the duplicate
    endpoint.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    d = curve.distances_from(t0)
    inside = d < delta
    k0 = int(np.argmin(d))
    if not inside[k0]:
        raise EmptyArc(f"no sample within {delta} of t0={t0}")
    m = d.size
    mask = np.zeros(m, dtype=bool)
    # the run of inside samples around k0 lies between two outside ones
    outside = np.flatnonzero(~inside)
    pos = int(np.searchsorted(outside, k0))
    lo = int(outside[pos - 1]) + 1 if pos > 0 else 0
    hi = int(outside[pos]) if pos < outside.size else m
    mask[lo:hi] = True
    # the arc touches exactly one array end: join the run at the other end
    if (join_ends or curve.closed) and outside.size:
        if lo == 0 and inside[-1]:
            mask[outside[-1] + 1:] = True
        elif hi == m and inside[0]:
            mask[:outside[0]] = True
    if curve.closed:
        mask[-1] = mask[0] = mask[0] or mask[-1]
    return mask


# ---------------------------------------------------------------------------
# file formats


def csv_text(header, rows) -> str:
    """RFC 4180 text: CRLF line ends and a header row; floats (NumPy's
    included) at 17 significant digits, every other cell as str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([f"{x:.17g}" if isinstance(x, float) else str(x)
                      for x in row] for row in rows)
    return buf.getvalue()


def write_csv(path, header, rows):
    """Write csv_text(header, rows) to path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text(header, rows))

