"""Continuous argument branches along a curve and the weights built from them.

Given a curve and a distinguished point t0 off the sample set, unwrap_arg
produces a continuous branch of arg(tau - t0).  From the branch comes the
weight phi_{t0,gamma} = |(tau - t0)^gamma|; its special cases are the power
weights (real gamma), the oscillating factor eta_t0 = exp(-arg) (gamma = i)
and the unit weight (gamma = 0).

All weight arithmetic lives in log-space: on deep spirals eta spans hundreds
of orders of magnitude, so linear values are derived quantities, clamped to
the representable range with a diagnostic flag.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, t0_distances, write_csv
from .errors import BranchJump, PreconditionError

# exp() clamp keeping values finite and strictly positive in float64.
LOG_CLAMP = 700.0


def clamped_exp(log_values) -> np.ndarray:
    """exp(log_values) with the logs clamped to [-LOG_CLAMP, LOG_CLAMP]."""
    return np.exp(np.clip(log_values, -LOG_CLAMP, LOG_CLAMP))


@dataclass(frozen=True, eq=False)
class ArgBranch:
    """A continuous branch of arg(tau - t0) sampled along the curve.

    The branch is unique up to a global 2*pi*k shift; it is pinned by taking
    the principal value at the first sample.  log_abs carries log|tau - t0|
    alongside, since every consumer needs both.
    """

    t0: complex
    values: np.ndarray
    log_abs: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Weight:
    """Per-sample positive weight, stored as natural logs.

    clipped marks weights whose linear values hit the exp() clamp somewhere.
    """

    log_values: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return clamped_exp(self.log_values)

    @property
    def clipped(self) -> bool:
        return bool(np.any(np.abs(self.log_values) > LOG_CLAMP))


def unwrap_arg(curve: Curve, t0: complex) -> ArgBranch:
    """Continuous branch of arg(tau - t0) along the sample sequence.

    Raises BranchJump when a consecutive angular increment of size >= pi is
    detected, which signals under-sampling near t0.
    """
    dist = t0_distances(curve, t0)
    d = curve.samples - t0
    inc = np.angle(d[1:] * np.conj(d[:-1]))
    # wrapped increments this close to pi are indistinguishable from >= pi
    if np.any(np.abs(inc) >= np.pi - 1e-6):
        k = int(np.argmax(np.abs(inc)))
        raise BranchJump(
            f"angular increment {abs(inc[k]):.6f} at sample {k}; "
            "curve is under-sampled near t0")
    values = np.empty(curve.n_samples)
    values[0] = np.angle(d[0])
    values[1:] = values[0] + np.cumsum(inc)
    return ArgBranch(t0, values, np.log(dist))


def phi(branch: ArgBranch, gamma: complex) -> Weight:
    """The weight |(tau - t0)^gamma|, computed in log-space.

    log phi = Re(gamma)*log|tau - t0| - Im(gamma)*arg(tau - t0).
    """
    gamma = complex(gamma)
    return Weight(gamma.real * branch.log_abs - gamma.imag * branch.values)


def power_weight(curve: Curve, t0: complex, lam: float) -> Weight:
    """phi at real gamma = lam, |tau - t0|^lam, without unwrapping a branch."""
    if not math.isfinite(lam):
        raise PreconditionError(f"lam must be finite, got {lam}")
    return Weight(lam * np.log(t0_distances(curve, t0)))


def unit_weight(curve: Curve) -> Weight:
    return Weight(np.zeros(curve.n_samples))


def gamma_weight(curve: Curve, t0: complex, gamma: complex,
                 branch: ArgBranch | None = None) -> Weight:
    """phi_{t0,gamma}: unit_weight at gamma = 0, reading neither t0 nor
    branch; power_weight for real gamma without a branch, with no unwrap;
    otherwise phi on the given branch, which must be around t0, or on one
    unwrapped here."""
    gamma = complex(gamma)
    if not cmath.isfinite(gamma):
        raise PreconditionError(f"gamma must be finite, got {gamma}")
    if gamma == 0:
        return unit_weight(curve)
    if branch is not None and branch.t0 != complex(t0):
        raise PreconditionError(f"the branch is around {branch.t0}, not the "
                                f"t0 {complex(t0)}")
    if branch is None and gamma.imag == 0.0:
        return power_weight(curve, t0, gamma.real)
    return phi(branch if branch is not None else unwrap_arg(curve, t0), gamma)


def equivalent(w1: Weight, w2: Weight) -> float:
    """sup(w1/w2) * sup(w2/w1) over the shared samples (>= 1).

    Finite, refinement-stable values mean the weights are equivalent, i.e.
    they differ by a factor bounded and bounded away from zero.
    """
    if w1.log_values.shape != w2.log_values.shape:
        raise PreconditionError("weights must be tabulated on the same curve")
    diff = w1.log_values - w2.log_values
    return float(np.exp(np.max(diff) + np.max(-diff)))


def export_weight_csv(curve: Curve, weight: Weight, path):
    """Write arclen, re, im, weight_log rows (log-space survives round-trips)."""
    write_csv(path, ["arclen", "re", "im", "weight_log"],
              zip(curve.cumlen, curve.samples.real, curve.samples.imag,
                  weight.log_values))
