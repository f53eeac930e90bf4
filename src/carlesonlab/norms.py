"""Variable exponents, the modular, the Luxemburg norm, and the A_p estimator.

Quadrature is trapezoidal on the curve's own samples; the generators place
log-spaced nodes near weight singularities, which gives uniform relative
resolution exactly where the modular concentrates.

The Luxemburg norm is solved in s = log lam.  The trapezoid modular equals
sum_i aw_i * |f_i w_i / lam|^p_i with aw the arc weights, so its log is
F(s) = logsumexp(x - p*s) with x_i = p_i*log|f_i w_i| + log aw_i: convex,
because F'' is the variance of p under the normalized terms, and
decreasing, because F' = -(their p-weighted mean) < 0.  For constant p the
root is exactly logsumexp(x)/p.  Otherwise Newton started left of the root
never overshoots it on a convex decreasing function, so the iterates climb
to it monotonically.  Nothing is bracketed, so no bracket end can be
returned in place of the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .argbranch import LOG_CLAMP, Weight
from .curves import Curve, strided_indices, t0_distances
from .errors import NotLocallyIntegrable, NumericalError, PreconditionError

LUXEMBURG_RTOL = 1e-10
NEWTON_MAX_STEPS = 50
DINI_ANCHORS = 256
AP_T_POINTS = 48  # default grid points t of muckenhoupt_ap
AP_EPS_POINTS = 64  # radii per grid point of muckenhoupt_ap


@dataclass(frozen=True, eq=False)
class ExponentField:
    """Variable exponent p(.) with verified bounds 1 < p_min <= p_max < inf.

    curve is the curve the values are sampled on, one per sample;
    dini_constant reads it.  p_min and p_max are derived from the values.
    """

    values: np.ndarray
    curve: Curve = field(repr=False, compare=False)
    p_min: float = field(init=False)
    p_max: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.curve.samples.shape:
            raise PreconditionError(
                "exponent values must align with the curve")
        if np.any(v <= 1.0) or not np.all(np.isfinite(v)):
            raise PreconditionError("exponents must lie in (1, inf)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "p_min", float(v.min()))
        object.__setattr__(self, "p_max", float(v.max()))

    @cached_property
    def dini_constant(self) -> float:
        """The measured log-Holder constant: the max over sampled pairs with
        |tau - t| <= 1/2 of |p(tau) - p(t)| * (-log|tau - t|).

        Measured on first access; exactly 0.0 for a constant exponent.
        """
        if self.p_min == self.p_max:
            return 0.0
        return _measure_dini(self.curve, self.values)


def _measure_dini(curve: Curve, values: np.ndarray) -> float:
    worst = 0.0
    for i in strided_indices(curve.n_samples, DINI_ANCHORS):
        d = curve.distances_from(curve.samples[i])
        mask = (d > 0) & (d <= 0.5)
        if mask.any():
            c = np.abs(values[mask] - values[i]) * (-np.log(d[mask]))
            worst = max(worst, float(c.max()))
    return worst


def constant_exponent(curve: Curve, p: float) -> ExponentField:
    """Constant exponent field; dini constant is exactly 0."""
    if not (1.0 < p < np.inf):
        raise PreconditionError("p must lie in (1, inf)")
    return ExponentField(np.full(curve.n_samples, float(p)), curve)


def profile_exponent(curve: Curve, t0: complex, p_at: float,
                     p_far: float) -> ExponentField:
    """Log-Holder profile p(tau) = p_at + (p_far - p_at)/max(1, -log|tau-t0|).

    Takes the value p_at in the limit tau -> t0 and is capped at p_far for
    |tau - t0| >= 1/e.  Dini-Lipschitz by construction; the constant is still
    measured by pair sampling.
    """
    if not (1.0 < p_at < np.inf and 1.0 < p_far < np.inf):
        raise PreconditionError("exponents must lie in (1, inf)")
    d = t0_distances(curve, t0)
    values = p_at + (p_far - p_at) / np.maximum(1.0, -np.log(d))
    return ExponentField(values, curve)


def tabulated_exponent(curve: Curve, values) -> ExponentField:
    """Exponent field from an explicit per-sample table."""
    return ExponentField(values, curve)


def as_sampled(curve: Curve, f) -> np.ndarray:
    """Coerce f to a finite per-sample array; scalars broadcast.

    Real input stays float64 and complex input becomes complex128; every
    consumer reads |f|, which is the same either way.  Boolean masks read
    as 0.0/1.0.
    """
    arr = np.asarray(f)
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64,
                     copy=False)
    if arr.ndim == 0:
        arr = np.full(curve.n_samples, arr)
    if arr.shape != curve.samples.shape:
        raise PreconditionError("sampled function must align with the curve")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("sampled function must be finite")
    return arr


def modular(curve: Curve, f, w: Weight, p: ExponentField,
            lam: float) -> float:
    """Trapezoidal quadrature of |f * w / lam|^p against arc length.

    Overflowing integrands are reported as +inf rather than raised.
    """
    if lam <= 0:
        raise PreconditionError("lam must be positive")
    f = as_sampled(curve, f)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_term = p.values * (np.log(np.abs(f)) + w.log_values - np.log(lam))
        vals = np.exp(log_term)
    vals = np.where(np.isnan(vals), 0.0, vals)  # |f| == 0 contributes nothing
    seg = curve.seg_lengths
    return float(np.sum(0.5 * (vals[:-1] + vals[1:]) * seg))


def nested_shells(curve: Curve, supports) -> tuple:
    """(order, starts): the curve's samples ordered, stably, by how many
    of the nested boolean masks supports hold them, and where each mask's
    samples start, so that mask k holds order[starts[k]:] and its shell,
    the samples of mask k outside mask k + 1, is
    order[starts[k]:starts[k + 1]] (starts[-1] = n).  supports None, the
    whole curve as one support and one shell, gives (slice(None), [0, n]).

    PreconditionError unless supports is None or a nonempty sequence of
    boolean masks of the curve's samples, each holding the next.
    """
    if supports is None:
        return slice(None), [0, curve.n_samples]
    masks = [np.asarray(s) for s in supports]
    if not masks:
        raise PreconditionError("supports must be a nonempty sequence")
    if any(m.dtype != bool or m.shape != curve.samples.shape for m in masks):
        raise PreconditionError("each support must be a boolean mask of the "
                                "curve's samples")
    if any(np.any(inner > outer) for outer, inner in zip(masks, masks[1:])):
        raise PreconditionError("supports must be nested, each holding the "
                                "next")
    depth = np.zeros(curve.n_samples,
                     dtype=np.uint8 if len(masks) < 256 else np.intp)
    for mask in masks:
        depth += mask
    order = np.argsort(depth, kind="stable")
    starts = np.cumsum(np.bincount(depth, minlength=len(masks) + 1))
    return order, starts.tolist()


def support_maxima(values: np.ndarray, starts) -> np.ndarray:
    """Per support: the max of values, ordered as nested_shells orders
    the samples, over the support (-inf on an empty one), the largest of
    its own shell's maximum and its inner shells'."""
    shell_max = [values[a:b].max(initial=-np.inf)
                 for a, b in zip(starts, starts[1:])]
    return np.maximum.accumulate(shell_max[::-1])[::-1]


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) for an array whose maximum is finite."""
    m = float(x.max())
    return m + float(np.log(np.exp(x - m).sum()))


def _support_logsumexp(x: np.ndarray, starts) -> list:
    """Per support: log(sum(exp(x))) over it, for an x below +inf ordered
    as nested_shells orders the samples; -inf where x is.

    One log-sum-exp per shell, accumulated from the innermost shell
    outward at the running maximum of x.
    """
    out = []
    top, mass = -np.inf, 0.0
    with np.errstate(divide="ignore"):
        for a, b in zip(starts[-2::-1], starts[:0:-1]):
            m = float(x[a:b].max(initial=-np.inf))
            if m > -np.inf:
                new = max(top, m)
                mass *= np.exp(top - new)
                mass += float(np.exp(x[a:b] - m).sum()) * np.exp(m - new)
                top = new
            out.append(top + float(np.log(mass)))
    return out[::-1]


def _newton_log_lambda(x: np.ndarray, p_values: np.ndarray, p_min: float,
                       p_max: float) -> float:
    """Root s of F(s) = log(sum exp(x - p*s)) by Newton from the left.

    F is convex and decreasing, and s0 = min(L/p_min, L/p_max) with
    L = F(0) has F(s0) >= 0 for any p_min <= p_values <= p_max, so every
    iterate stays left of the root and the iterates increase
    monotonically to it.  Raises NumericalError rather than return an
    iterate that has not converged.
    """
    log_mass = _logsumexp(x)
    s = min(log_mass / p_min, log_mass / p_max)
    for _ in range(NEWTON_MAX_STEPS):
        y = x - p_values * s
        m = float(y.max())
        np.subtract(y, m, out=y)
        e = np.exp(y, out=y)
        mass = float(e.sum())
        # -F / F'(s), with F'(s) the negated p-weighted mean of the terms
        step = (m + np.log(mass)) * mass / float(np.dot(p_values, e))
        s += step
        if step <= 0.1 * LUXEMBURG_RTOL:
            return s
    raise NumericalError(
        f"Luxemburg Newton solve did not converge in {NEWTON_MAX_STEPS} steps")


def luxemburg_norm(curve: Curve, f, w: Weight, p: ExponentField,
                   supports=None):
    """inf{lam > 0 : modular(f, w, p, lam) <= 1}, solved in s = log lam.

    With x_i = p_i*log|f_i*w_i| + log aw_i (aw the arc weights, whose logs
    the curve caches), the trapezoid modular is exactly
    sum_i exp(x_i - p_i*s).  For constant p the norm is
    exp(logsumexp(x)/p) in closed form; otherwise Newton on the convex
    log-modular converges monotonically (see _newton_log_lambda) and stops
    once a step is at most LUXEMBURG_RTOL/10 in log lam.  Returns 0 for f*w
    identically zero.  Raises NotLocallyIntegrable when f*w overflows, when
    a term of the modular is infinite, or when the norm exceeds
    max|f*w| * (total length + 1); NumericalError when the norm itself
    leaves the float range.

    supports, a sequence of nested boolean masks (see nested_shells),
    returns instead the list of the norms of f * chi_S, one per mask S,
    from one x ordered shell by shell: for constant p every logsumexp
    comes from one pass over the shells (see _support_logsumexp); for
    variable p each support's Newton solve runs on its own samples only.
    A support that raises raises for all of them.  supports None, the
    default, is the whole curve, whose norm is returned alone.
    """
    order, starts = nested_shells(curve, supports)
    p_values = p.values[order]
    peak, x = _log_terms(np.abs(as_sampled(curve, f))[order],
                         w.log_values[order], p_values,
                         curve.log_arc_weights[order])
    fmax = support_maxima(peak, starts)
    # the outermost support holds every other one
    if not math.isfinite(fmax[0]):
        raise NotLocallyIntegrable("f * w overflows the float range")
    if (x[starts[0]:] == np.inf).any():
        raise NotLocallyIntegrable("modular exceeds 1 at the upper bracket")
    if p.p_min == p.p_max:
        log_lams = [lse / p.p_min for lse in _support_logsumexp(x, starts)]
    norms = []
    for k, top in enumerate(fmax):
        if top == 0.0:
            norms.append(0.0)
            continue
        if p.p_min == p.p_max:
            s = log_lams[k]
        else:
            at = slice(starts[k], None)
            s = _newton_log_lambda(x[at], p_values[at], p.p_min, p.p_max)
        norms.append(_checked_norm(curve, s, top))
    return norms[0] if supports is None else norms


def _log_terms(abs_f: np.ndarray, log_w: np.ndarray, p_values: np.ndarray,
               log_aw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|f*w| with log w capped at LOG_CLAMP, x = p*log|f*w| + log aw), x
    -inf where |f| == 0."""
    with np.errstate(over="ignore"):
        peak = abs_f * np.exp(np.minimum(log_w, LOG_CLAMP))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.log(abs_f)
        x += log_w
        x *= p_values
        x += log_aw
    x[np.isnan(x)] = -np.inf  # |f| == 0 contributes nothing
    return peak, x


def _checked_norm(curve: Curve, s: float, fmax: float) -> float:
    """exp(s), the norm solved in s = log lam; NotLocallyIntegrable when it
    exceeds fmax * (total length + 1), NumericalError outside the floats."""
    if s > np.log(fmax) + np.log(curve.total_length + 1.0):
        raise NotLocallyIntegrable("modular exceeds 1 at the upper bracket")
    norm = float(np.exp(s))
    if not 0.0 < norm < np.inf:
        raise NumericalError("Luxemburg norm outside the float range")
    return norm


def _cum_logsumexp(x_sorted: np.ndarray) -> tuple[float, np.ndarray]:
    """Shift and cumulative sums for log of prefix sums of exp(x)."""
    shift = float(np.max(x_sorted))
    if not np.isfinite(shift):
        shift = 0.0
    return shift, np.cumsum(np.exp(x_sorted - shift))


def muckenhoupt_ap(curve: Curve, w: Weight, p: float,
                   t_points=None) -> float:
    """Grid maximum of the two-factor A_p product, a lower bound for [w]_Ap.

    For each grid point t the epsilon grid reuses the realized sample radii
    |tau_k - t| (log-subsampled to AP_EPS_POINTS): every distinct portion is
    realized at one of those radii, so no supremum information is lost
    between grid points.  Nondecreasing under grid refinement.
    """
    if not (1.0 < p < np.inf):
        raise PreconditionError("p must be a constant in (1, inf)")
    q = p / (p - 1.0)
    if t_points is None:
        t_points = curve.samples[strided_indices(curve.n_samples,
                                                 AP_T_POINTS)]
    t_points = np.atleast_1d(np.asarray(t_points, dtype=np.complex128))
    if t_points.size == 0:
        raise PreconditionError("t_points must be nonempty")
    if not np.all(np.isfinite(t_points)):
        raise PreconditionError("t_points must be finite")
    log_aw = curve.log_arc_weights
    best = 0.0
    for t in t_points:
        d = curve.distances_from(t)
        order = np.argsort(d)
        ds = d[order]
        xp = p * w.log_values[order] + log_aw[order]
        xq = -q * w.log_values[order] + log_aw[order]
        sp, cp = _cum_logsumexp(xp)
        sq, cq = _cum_logsumexp(xq)
        pos = ds[ds > 0]
        if pos.size == 0:
            continue
        ranks = strided_indices(pos.size, AP_EPS_POINTS)
        eps_grid = pos[ranks] * (1.0 + 1e-12)
        ks = np.searchsorted(ds, eps_grid, side="left")
        with np.errstate(divide="ignore"):
            log_ip = sp + np.log(cp[ks - 1])
            log_iq = sq + np.log(cq[ks - 1])
        log_eps = np.log(eps_grid)
        vals = (log_ip - log_eps) / p + (log_iq - log_eps) / q
        with np.errstate(over="ignore"):
            cand = float(np.max(np.exp(vals)))
        best = max(best, cand)
    return best
