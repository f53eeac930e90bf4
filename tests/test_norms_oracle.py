"""The direct Luxemburg solve against the bisection it replaced.

``bisection_luxemburg_norm`` is the previous ``luxemburg_norm``: it brackets
the norm between fmax*1e-18 and fmax*(length + 1) and halves the bracket in
log lam, one ``modular`` call per step, until it is narrower than rtol.  It
is kept here only as a test reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab.argbranch import LOG_CLAMP as LOG_SAFE
from carlesonlab.errors import NotLocallyIntegrable
from carlesonlab.norms import LUXEMBURG_RTOL, as_sampled, modular


def bisection_luxemburg_norm(curve, f, w, p, rtol=LUXEMBURG_RTOL):
    """inf{lam > 0 : modular(f, w, p, lam) <= 1} by bisection on log lam.

    Returns 0 for f*w identically zero.  For constant p this equals the
    classical weighted p-norm up to the bisection tolerance.
    """
    f = as_sampled(curve, f)
    with np.errstate(over="ignore"):
        peak = np.abs(f) * np.exp(np.minimum(w.log_values, LOG_SAFE))
    fmax = float(np.max(peak))
    if fmax == 0.0:
        return 0.0
    if not np.isfinite(fmax):
        raise NotLocallyIntegrable("f * w overflows the float range")
    lo = fmax * 1e-18
    hi = fmax * (curve.total_length + 1.0)
    if modular(curve, f, w, p, hi) > 1.0:
        raise NotLocallyIntegrable("modular exceeds 1 at the upper bracket")
    if modular(curve, f, w, p, lo) <= 1.0:
        return lo
    while hi / lo > 1.0 + rtol:
        mid = np.sqrt(lo * hi)
        if modular(curve, f, w, p, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return float(hi)


# each zoo curve with a distinguished point off its samples
CURVES = {
    "circle": lambda n: (cl.generate_circle(1.0, n), 0j),
    "graded_circle": lambda n: (cl.generate_graded_circle(1.0, n), 1 + 0j),
    "log_spiral": lambda n: (cl.generate_log_spiral(1.0, 1e-3, 1.0, n), 0j),
    "segment": lambda n: (cl.generate_log_spiral(0.0, 1e-3, 1.0, n), 0j),
    "corner": lambda n: (cl.generate_corner(np.pi / 2, 1e-3, 1.0, n), 0j),
    "mixed_spirality": lambda n: (
        cl.generate_mixed_spirality(-1.0, 1.0, 1e-3, 1.0, n), 0j),
}


# (log-weight offset, scale of f).  The reference bisects at
# sqrt(lo * hi), and lo * hi = fmax**2 * 1e-18 * (length + 1) leaves the
# float range unless roughly 1e-150 < fmax < 1e160, so the regimes stay
# inside that, except the two that raise before bisecting: a weight past
# the exp(LOG_SAFE) clamp, and f * w overflowing.
REGIMES = [(0.0, 1.0), (-100.0, 1e50), (100.0, 1e-50), (0.0, 1e-60),
           (0.0, 1e60), (LOG_SAFE + 20.0, 1e-150), (300.0, 1e300)]


def _function(kind, n, rng):
    if kind == "dense":
        return np.exp(rng.normal(0.0, 2.0, n)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, n))
    if kind == "sparse":
        return rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.05)
    lo, hi = np.sort(rng.integers(0, n, 2))
    f = np.zeros(n)
    f[lo:hi + 1] = 1.0
    return f


@st.composite
def norm_cases(draw):
    curve, t0 = CURVES[draw(st.sampled_from(sorted(CURVES)))](
        draw(st.integers(64, 1024)))
    if draw(st.booleans()):
        p = cl.constant_exponent(curve, draw(st.floats(1.05, 4.0)))
    else:
        p = cl.profile_exponent(curve, t0, draw(st.floats(1.1, 3.5)),
                                draw(st.floats(1.1, 3.5)))
    gamma = complex(draw(st.floats(-0.9, 0.9)),
                    draw(st.sampled_from([0.0, -1.0, -0.3, 0.3, 1.0])))
    base = cl.phi(cl.unwrap_arg(curve, t0), gamma)
    offset, scale = draw(st.sampled_from(REGIMES))
    w = cl.Weight(log_values=base.log_values + offset)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = scale * _function(
        draw(st.sampled_from(["dense", "sparse", "indicator"])),
        curve.n_samples, rng)
    return curve, f, w, p


def _solve(solver, curve, f, w, p):
    try:
        return solver(curve, f, w, p)
    except NotLocallyIntegrable as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(case=norm_cases())
def test_direct_solve_matches_bisection(case):
    curve, f, w, p = case
    norm = _solve(cl.luxemburg_norm, curve, f, w, p)
    ref = _solve(bisection_luxemburg_norm, curve, f, w, p)
    if isinstance(ref, NotLocallyIntegrable):
        assert isinstance(norm, NotLocallyIntegrable)
        assert str(norm) == str(ref)
        return
    assert not isinstance(norm, NotLocallyIntegrable), norm
    assert norm == pytest.approx(ref, rel=1e-9, abs=0.0)
    if norm > 0.0:
        tol = 1e-12 if p.p_min == p.p_max else 1e-9
        assert modular(curve, f, w, p, norm) == pytest.approx(1.0, abs=tol)
