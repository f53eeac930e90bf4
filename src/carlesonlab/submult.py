"""Submultiplicative majorants of weights and their lower/upper indices.

For a weight psi with a single singularity at t0, the majorant

    rho(x) = sup_R  max{psi on |tau-t0| = x*R} / min{psi on |tau-t0| = R}

(and the mirrored formula for x > 1) is evaluated on a multiplicative grid.
Exact circles have sampling measure zero, so each circle is replaced by an
adaptive annulus band whose log-radius half-width is half the local sample
spacing; the band extrema converge to the circle extrema under refinement.

Indices are tail slopes of log rho against log x over the extreme decade of
the grid: the limit formulas justify tail slopes, while raw ratios at
moderate x are biased by the bounded prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .argbranch import Weight, gamma_weight
from .curves import Curve, d_t, omega_arc, t0_distances, write_csv
from .errors import AllAnnuliEmpty, GridTooNarrow, PreconditionError

X_DECADES = 3
X_POINTS_PER_SIDE = 64
R_POINTS = 64
BAND_WIDEN = 1.01  # safety factor on the annulus band half-width


@dataclass(frozen=True, eq=False)
class SubmultSamples:
    """Majorant estimates rho(x) on a multiplicative grid.

    xs is sorted ascending, contains 1, and is symmetric under x -> 1/x;
    meta records the inner radius grid and band policy.
    """

    xs: np.ndarray
    vals: np.ndarray
    meta: dict

    @property
    def log_xs(self) -> np.ndarray:
        return np.log(self.xs)

    @property
    def log_vals(self) -> np.ndarray:
        return np.log(self.vals)


@dataclass(frozen=True)
class IndexPair:
    """Lower/upper indices of a regular submultiplicative function."""

    alpha: float
    beta: float
    diagnostics: dict

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise PreconditionError("index pair needs finite alpha and beta, "
                                    f"got ({self.alpha!r}, {self.beta!r})")
        if self.alpha > self.beta:
            raise PreconditionError("index pair needs alpha <= beta")


def default_x_grid() -> np.ndarray:
    """Log-uniform grid over [10^-X_DECADES, 10^X_DECADES], 1 at the center.

    Uniform log spacing keeps products of grid points on the grid, which the
    submultiplicativity checks rely on.
    """
    return 10.0 ** np.linspace(-X_DECADES, X_DECADES,
                               2 * X_POINTS_PER_SIDE + 1)


def default_radius_grid(curve: Curve, t0: complex) -> np.ndarray:
    """R_POINTS log-spaced radii in [min|tau - t0|, d_t].

    The grid reaches the innermost realized radius: flooring it higher makes
    the factor estimates miss deep denominator circles that the product
    estimate realizes, which breaks grid submultiplicativity on curves with
    strongly varying local winding.
    """
    d = curve.distances_from(t0)
    lo = float(np.min(d))
    hi = d_t(curve, t0)
    if lo >= hi:
        raise PreconditionError("curve spans too few scales around t0")
    return np.geomspace(lo, hi, R_POINTS)


def _band_extrema(log_d: np.ndarray, log_psi: np.ndarray, queries: np.ndarray):
    """Max/min of log psi over adaptive annulus bands at the query radii.

    Band half-width is half the log-spacing of the gap containing the query
    (times BAND_WIDEN), so any query inside the sampled radius
    range finds at least one sample.  log_psi carries one padding entry past
    log_d, so that a band may end at the last sample.  The results take the
    queries' shape; an empty band reads -inf (max) and +inf (min).
    """
    m = log_d.size
    j = np.searchsorted(log_d, queries)
    jc = np.clip(j, 1, m - 1)
    hw = 0.5 * BAND_WIDEN * (log_d[jc] - log_d[jc - 1])
    lo = np.searchsorted(log_d, queries - hw, side="left")
    hi = np.searchsorted(log_d, queries + hw, side="right")
    ok = hi > lo
    bmax = np.full(queries.shape, -np.inf)
    bmin = np.full(queries.shape, np.inf)
    if ok.any():
        # even cuts open the bands [lo, hi); odd ones the gaps, dropped
        cuts = np.column_stack((lo[ok], hi[ok])).ravel()
        bmax[ok] = np.maximum.reduceat(log_psi, cuts)[0::2]
        bmin[ok] = np.minimum.reduceat(log_psi, cuts)[0::2]
    return bmax, bmin


def compute_W(curve: Curve, t0: complex, psi: Weight,
              x_grid: np.ndarray | None = None,
              R_grid: np.ndarray | None = None) -> SubmultSamples:
    """Evaluate the submultiplicative majorant of psi at t0 on a grid.

    For each grid x the supremum runs over the radius grid; radius pairs with
    an empty annulus on either side are skipped.  Raises AllAnnuliEmpty when
    some x admits no radius at all, which signals a degenerate grid.
    """
    d = t0_distances(curve, t0)
    if psi.log_values.shape != d.shape:
        raise PreconditionError("psi must be tabulated on the curve")
    if x_grid is None:
        x_grid = default_x_grid()
    if R_grid is None:
        R_grid = default_radius_grid(curve, t0)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    R_grid = np.asarray(R_grid, dtype=np.float64)
    for name, grid in (("x_grid", x_grid), ("R_grid", R_grid)):
        if not np.all(np.isfinite(grid) & (grid > 0)):
            raise PreconditionError(f"{name} must be finite and positive")

    order = np.argsort(d)
    log_d = np.log(d[order])
    log_psi = np.append(psi.log_values[order], 0.0)  # _band_extrema's pad
    log_R = np.log(R_grid)

    # per x (rows) and R: the circles R * min(x, 1) over R / max(x, 1); a
    # pair with an empty band reads -inf, so the row maxima skip it
    lx = np.log(x_grid)[:, None]
    nmax, _ = _band_extrema(log_d, log_psi, log_R + np.minimum(lx, 0.0))
    _, dmin = _band_extrema(log_d, log_psi, log_R - np.maximum(lx, 0.0))
    log_vals = np.max(nmax - dmin, axis=1, initial=-np.inf)
    empty = np.flatnonzero(log_vals == -np.inf)
    if empty.size:
        raise AllAnnuliEmpty(
            f"no admissible radius for x={x_grid[empty[0]]:.6g}; widen the "
            "radius grid or deepen the curve")

    # band quantization floor: estimates carry +-(halfwidth * local slope)
    max_hw = 0.5 * BAND_WIDEN * float(np.max(np.diff(log_d)))
    meta = {"t0": t0, "R_grid": R_grid, "widen": BAND_WIDEN,
            "max_halfwidth": max_hw}
    return SubmultSamples(x_grid, np.exp(log_vals), meta)


def estimate_indices(s: SubmultSamples) -> IndexPair:
    """Tail-slope estimates of the lower and upper indices.

    alpha is the least-squares slope of log rho vs log x over the smallest
    decade of the grid, beta over the largest.  Requires at least three
    decades on each side of 1.  The raw slopes are clamped into
    alpha <= beta; diagnostics carry both raw values and fit residuals.
    """
    xs, lv = s.xs, s.log_vals
    if xs[0] > 1e-3 * (1 + 1e-9) or xs[-1] < 1e3 * (1 - 1e-9):
        raise GridTooNarrow("grid must span 3 decades on each side of 1")
    lo = xs <= xs[0] * 10.0 * (1 + 1e-12)
    hi = xs >= xs[-1] / 10.0 * (1 - 1e-12)
    if lo.sum() < 3 or hi.sum() < 3:
        raise GridTooNarrow("tail decades must contain at least 3 points")

    def _fit(mask):
        coef, diag = np.polynomial.polynomial.polyfit(
            np.log(xs[mask]), lv[mask], 1, full=True)
        n = int(mask.sum())
        rms = float(np.sqrt(diag[0][0] / n)) if diag[0].size else 0.0
        return float(coef[1]), rms

    a_raw, a_res = _fit(lo)
    b_raw, b_res = _fit(hi)
    alpha, beta = min(a_raw, b_raw), max(a_raw, b_raw)
    return IndexPair(alpha, beta, {
        "alpha_raw": a_raw, "beta_raw": b_raw,
        "alpha_residual": a_res, "beta_residual": b_res,
        "x_min": float(xs[0]), "x_max": float(xs[-1]),
    })


def spirality_indices(curve: Curve, t0: complex) -> IndexPair:
    """Lower/upper spirality indices at t0: the indices of W_{t0} eta_{t0},
    eta_{t0} = exp(-arg(tau - t0)) being phi at gamma = i."""
    samples = compute_W(curve, t0, gamma_weight(curve, t0, 1j))
    return estimate_indices(samples)


def phi_indices_closed_form(gamma: complex, spirality: IndexPair) -> IndexPair:
    """Indices of W_{t0} phi_{t0,gamma} from the spirality indices.

    alpha = Re(gamma) + min(dm*Im, dp*Im), beta = Re(gamma) + max(...),
    where (dm, dp) are the spirality indices.
    """
    gamma = complex(gamma)
    lo = gamma.real + min(spirality.alpha * gamma.imag,
                          spirality.beta * gamma.imag)
    hi = gamma.real + max(spirality.alpha * gamma.imag,
                          spirality.beta * gamma.imag)
    return IndexPair(lo, hi, {"gamma": gamma,
                              "spirality": (spirality.alpha, spirality.beta)})


def power_sandwich(curve: Curve, t0: complex, w: Weight, eps: float,
                   delta: float, indices: IndexPair | None = None,
                   join_ends: bool = False) -> tuple[float, float]:
    """Smallest constants sandwiching w between power weights across the arc.

    C1 bounds w(t)/w(tau) <= C1 * |(t-t0)/(tau-t0)|^(beta+eps) for t outside
    and tau inside the arc omega(t0, delta); C2 is the mirrored bound with
    exponent alpha-eps for t inside and tau outside.  The pairwise maximum
    factorizes as max(g) / min(g) with g = w / |tau-t0|^exponent, so both
    constants are exact maxima over all sample pairs at O(n) cost.
    """
    if not 0 < eps < math.inf:
        raise PreconditionError(f"eps must be finite and positive, got {eps}")
    if not (0 < delta < d_t(curve, t0)):
        raise PreconditionError("need 0 < delta < d_t")
    if indices is None:
        indices = estimate_indices(compute_W(curve, t0, w))
    mask = omega_arc(curve, t0, delta, join_ends=join_ends)
    if mask.all():
        raise PreconditionError("delta leaves no samples outside the arc")
    log_d = np.log(curve.distances_from(t0))
    g1 = w.log_values - (indices.beta + eps) * log_d
    c1 = float(np.exp(np.max(g1[~mask]) - np.min(g1[mask])))
    g2 = w.log_values - (indices.alpha - eps) * log_d
    c2 = float(np.exp(np.max(g2[mask]) - np.min(g2[~mask])))
    return c1, c2


def export_submult_csv(s: SubmultSamples, path):
    """Write x, rho, log_x, log_rho rows."""
    write_csv(path, ["x", "rho", "log_x", "log_rho"],
              zip(s.xs, s.vals, s.log_xs, s.log_vals))
