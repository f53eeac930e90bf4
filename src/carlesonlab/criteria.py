"""Boundedness decision predicates for the weighted maximal operator.

Each check reduces to the bracketing pair

    lower = 1/p(t0) + Re(gamma) + min(dm*Im(gamma), dp*Im(gamma))
    upper = 1/p(t0) + Re(gamma) + max(dm*Im(gamma), dp*Im(gamma))

with (dm, dp) the spirality indices.  Strict 0 < lower and upper < 1 is the
sufficient condition; lower < 0 or upper > 1 violates the necessary
inequalities; equalities classify as INDETERMINATE, except that for power
weights the two-sided characterization makes any non-interior value provably
unbounded (carried by a flag so the boundary stays distinguishable).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import Curve, d_t, omega_arc, strided_indices
from .errors import NoAdmissibleDelta, PreconditionError
from .norms import ExponentField
from .submult import IndexPair, phi_indices_closed_form

MAIN_THM_BOUNDED = "MAIN_THM_BOUNDED"
KPS_BOUNDED = "KPS_BOUNDED"
ERSATZ_BOUNDED = "ERSATZ_BOUNDED"
NECESSARY_VIOLATED = "NECESSARY_VIOLATED"
INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a boundedness predicate.

    lower/upper are the bracketing quantities; margins measure the distance
    to 0 and to the applicable upper limit (1, or p_*/p(t0) for the ersatz
    check).  iff_unbounded marks verdicts backed by a two-sided criterion.
    """

    lower: float
    upper: float
    classification: str
    upper_limit: float = 1.0
    iff_unbounded: bool = False

    @property
    def margins(self) -> tuple[float, float]:
        return (self.lower, self.upper_limit - self.upper)

    @property
    def margin(self) -> float:
        return min(self.margins)


def _classify(lower: float, upper: float, bounded_label: str,
              limit: float = 1.0) -> str:
    """bounded_label strictly inside (0, limit), NECESSARY_VIOLATED outside
    [0, 1], INDETERMINATE otherwise."""
    if 0.0 < lower and upper < limit:
        return bounded_label
    if lower < 0.0 or upper > 1.0:
        return NECESSARY_VIOLATED
    return INDETERMINATE


def check_main(p_at_t0: float, gamma: complex, spirality: IndexPair) -> Verdict:
    """Sufficient condition for general Carleson curves and complex gamma."""
    if not (1.0 < p_at_t0 < np.inf):
        raise PreconditionError("p(t0) must lie in (1, inf)")
    if not cmath.isfinite(gamma):
        raise PreconditionError(f"gamma must be finite, got {gamma}")
    idx = phi_indices_closed_form(gamma, spirality)
    lower = 1.0 / p_at_t0 + idx.alpha
    upper = 1.0 / p_at_t0 + idx.beta
    return Verdict(lower, upper, _classify(lower, upper, MAIN_THM_BOUNDED))


def check_kps(p_at_t0: float, lam: float) -> Verdict:
    """Power-weight criterion; two-sided, so failure is provable unboundedness.

    Boundary values classify INDETERMINATE under the strict reading but are
    flagged unbounded via iff_unbounded.
    """
    if not (1.0 < p_at_t0 < np.inf):
        raise PreconditionError("p(t0) must lie in (1, inf)")
    if not math.isfinite(lam):
        raise PreconditionError(f"lam must be finite, got {lam}")
    v = 1.0 / p_at_t0 + lam
    cls = _classify(v, v, KPS_BOUNDED)
    return Verdict(v, v, cls, iff_unbounded=not (0.0 < v < 1.0))


def check_ersatz(p_at_t0: float, p_min: float, gamma: complex,
                 spirality: IndexPair) -> Verdict:
    """Exponent-minimum sufficient condition over the whole curve.

    The upper bracket is compared against p_*/p(t0) with p_* =
    min(p_min, p(t0)), since t0 lies in the closure of the curve, so the
    limit never exceeds 1.  For constant p this is the main condition.
    """
    if not (1.0 < p_min < np.inf):
        raise PreconditionError("p_min must lie in (1, inf)")
    v = check_main(p_at_t0, gamma, spirality)
    limit = min(p_min, p_at_t0) / p_at_t0
    cls = _classify(v.lower, v.upper, ERSATZ_BOUNDED, limit)
    return replace(v, classification=cls, upper_limit=limit)


def select_delta_and_eps(curve: Curve, p: ExponentField, p_at_t0: float,
                         t0: complex, gamma: complex, spirality: IndexPair,
                         join_ends: bool = False,
                         max_candidates: int = 64) -> tuple[float, float]:
    """Choose the arc radius and the exponent margin.

    eps is half the minimum margin of the main condition to {0, 1}.  delta is
    the largest candidate radius (d_t/4 and realized sample radii below it)
    whose arc satisfies 1 + beta*p(t0) < p_* strictly, p_* = min(p on the
    arc, p(t0)).  Constant exponents accept the default d_t/4 immediately.
    """
    verdict = check_main(p_at_t0, gamma, spirality)
    if verdict.classification != MAIN_THM_BOUNDED:
        raise PreconditionError(
            f"main condition does not hold ({verdict.classification})")
    eps = 0.5 * verdict.margin
    beta = verdict.upper - 1.0 / p_at_t0
    dt = d_t(curve, t0)
    dists = curve.distances_from(t0)
    # nudge above the realized radii so each candidate arc holds its sample
    below = np.sort(np.unique(dists[(dists < dt / 4.0) & (dists > 0)]))[::-1]
    below = below[strided_indices(below.size, max_candidates)] * (1.0 + 1e-12)
    for delta in np.concatenate(([dt / 4.0], below)):
        try:
            mask = omega_arc(curve, t0, delta, join_ends=join_ends)
        except PreconditionError:
            continue
        p_star = min(float(p.values[mask].min()), p_at_t0)
        if 1.0 + beta * p_at_t0 < p_star:
            return float(delta), float(eps)
    raise NoAdmissibleDelta(
        "no arc radius satisfies 1 + beta*p(t0) < p_*; the margin is too thin")


def verdict_doc(verdict: Verdict) -> dict:
    """The verdict's JSON document: brackets, classification, margins."""
    return {
        "lower": verdict.lower,
        "upper": verdict.upper,
        "classification": verdict.classification,
        "margins": list(verdict.margins),
    }


def verdict_to_json(verdict: Verdict) -> str:
    return json.dumps(verdict_doc(verdict), indent=2, sort_keys=True)
