import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlesonlab as cl
from carlesonlab.errors import BranchJump, PreconditionError

finite_gamma = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                  allow_infinity=False)


def test_unwrap_circle_winds_once(unit_circle):
    b = cl.unwrap_arg(unit_circle, 0j)
    assert b.values[-1] - b.values[0] == pytest.approx(2 * np.pi, rel=1e-9)
    assert np.all(np.diff(b.values) > 0)


def test_unwrap_spiral_matches_construction(spiral1, spiral1_branch):
    # the branch equals -log r up to the global 2*pi*k anchor shift
    r = np.abs(spiral1.samples)
    shift = spiral1_branch.values + np.log(r)
    assert np.max(np.abs(shift - shift[0])) < 1e-9
    k = shift[0] / (2 * np.pi)
    assert k == pytest.approx(round(k), abs=1e-9)


def test_unwrap_segment_is_zero(segment):
    b = cl.unwrap_arg(segment, 0j)
    assert np.max(np.abs(b.values)) == 0.0


def test_unwrap_consistency_invariant(spiral1, spiral1_branch):
    d = spiral1.samples - 0j
    recon = np.exp(1j * spiral1_branch.values)
    assert np.max(np.abs(recon - d / np.abs(d))) < 1e-9


def test_unwrap_rejects_sample_at_t0(unit_circle):
    with pytest.raises(PreconditionError):
        cl.unwrap_arg(unit_circle, unit_circle.samples[7])


def test_unwrap_branch_jump():
    # two samples nearly antipodal around t0 = 0
    pts = np.array([1.0 + 0.0j, -1.0 + 1e-8j, -1.0 + 1.0j])
    curve = cl.from_points(pts)
    with pytest.raises(BranchJump):
        cl.unwrap_arg(curve, 0j)


def test_eta_trivials(segment, spiral1, spiral1_branch):
    b = cl.unwrap_arg(segment, 0j)
    assert np.max(np.abs(cl.phi(b, 1j).values - 1.0)) == 0.0
    # on the unit-rate spiral arg = -log r, so eta = r
    r = np.abs(spiral1.samples)
    ratio = cl.phi(spiral1_branch, 1j).values / r
    assert ratio == pytest.approx(ratio[0], rel=1e-9)


def test_eta_reciprocal_spiral():
    s = cl.generate_log_spiral(-1.0, 1e-3, 1.0, 4096)
    b = cl.unwrap_arg(s, 0j)
    r = np.abs(s.samples)
    ratio = cl.phi(b, 1j).values * r
    assert ratio == pytest.approx(ratio[0], rel=1e-9)


def test_phi_gamma_zero_is_one(spiral1_branch):
    w = cl.phi(spiral1_branch, 0.0)
    assert np.max(np.abs(w.values - 1.0)) == 0.0


def test_phi_real_gamma_is_power_weight(spiral1, spiral1_branch):
    w = cl.phi(spiral1_branch, 0.7)
    pw = cl.power_weight(spiral1, 0j, 0.7)
    assert np.array_equal(w.log_values, pw.log_values)


def test_phi_at_i_is_eta(spiral1_branch, graded_circle):
    """eta_t0 = exp(-arg(tau - t0)) is phi at gamma = i, exactly."""
    for b in (spiral1_branch, cl.unwrap_arg(graded_circle, 1.0 + 0j)):
        assert np.array_equal(cl.phi(b, 1j).log_values, -b.values)


def test_phi_imaginary_on_spiral(spiral1, spiral1_branch):
    # gamma = i gives |tau|^0 * eta^1 = eta = r (up to the anchor constant)
    w = cl.phi(spiral1_branch, 1j)
    r = np.abs(spiral1.samples)
    ratio = w.values / r
    assert ratio == pytest.approx(ratio[0], rel=1e-9)
    # cross-check against direct |exp(gamma * log(tau))| with the same branch
    direct = np.abs(np.exp(1j * (spiral1_branch.log_abs
                                 + 1j * spiral1_branch.values)))
    assert np.max(np.abs(w.values - direct) / direct) < 1e-9


@settings(max_examples=50, deadline=None)
@given(g1=finite_gamma, g2=finite_gamma)
def test_phi_group_law(spiral1_branch, g1, g2):
    lhs = cl.phi(spiral1_branch, g1 + g2).log_values
    rhs = cl.phi(spiral1_branch, g1).log_values \
        + cl.phi(spiral1_branch, g2).log_values
    scale = 1.0 + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-10


def test_phi_inverse(spiral1_branch):
    prod = cl.phi(spiral1_branch, 0.4 - 0.9j).log_values \
        + cl.phi(spiral1_branch, -0.4 + 0.9j).log_values
    assert np.max(np.abs(prod)) < 1e-10


def test_weight_overflow_clamped(spiral1_branch):
    w = cl.phi(spiral1_branch, 200j)  # eta^200 spans ~800 orders of magnitude
    assert w.clipped
    v = w.values
    assert np.all(np.isfinite(v)) and np.all(v > 0)


def test_equivalent_trivials(spiral1, spiral1_branch):
    w = cl.phi(spiral1_branch, 0.3 + 0.1j)
    assert cl.equivalent(w, w) == pytest.approx(1.0, abs=1e-12)
    w2 = cl.Weight(log_values=w.log_values + np.log(2.0))
    assert cl.equivalent(w, w2) == pytest.approx(1.0, abs=1e-12)


def test_equivalent_requires_same_length(spiral1_branch, segment):
    w1 = cl.phi(spiral1_branch, 1j)
    w2 = cl.unit_weight(segment)
    with pytest.raises(PreconditionError):
        cl.equivalent(w1, w2)


def test_exponent_rescaled_weights_equivalent(spiral1, spiral1_branch):
    # the variable-exponent power of phi differs from phi at the rescaled
    # exponent by a bounded factor when p is log-Holder
    p = cl.profile_exponent(spiral1, 0j, 1.8, 2.2)
    gamma = 0.2 + 0.1j
    ph = cl.phi(spiral1_branch, gamma)
    # p at the sample nearest t0
    p_t0 = float(p.values[np.argmin(spiral1.distances_from(0j))])
    w1 = cl.Weight(log_values=(p.values / p.p_min) * ph.log_values)
    w2 = cl.phi(spiral1_branch, gamma * p_t0 / p.p_min)
    v = cl.equivalent(w1, w2)
    assert 1.0 <= v < 2.0
    assert v == pytest.approx(1.1495, abs=0.02)  # frozen baseline


def test_weight_csv_roundtrip(tmp_path, spiral1, spiral1_branch):
    w = cl.phi(spiral1_branch, 1j)
    path = tmp_path / "w.csv"
    cl.export_weight_csv(spiral1, w, path)
    text = path.read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[0] == "arclen,re,im,weight_log"
    assert len(lines) == spiral1.n_samples + 2  # header + rows + trailing
    back = np.array([float(line.split(",")[3])
                     for line in lines[1:-1]])
    assert np.array_equal(back, w.log_values)


# --- gamma_weight: the one gamma -> weight route -----------------------------


def test_gamma_weight_zero_is_unit_and_reads_no_t0(spiral1):
    """gamma = 0 is the unit weight; t0 on a sample, which every other
    route rejects, is fine."""
    t0 = spiral1.samples[7]
    with pytest.raises(PreconditionError):
        cl.power_weight(spiral1, t0, 0.3)
    w = cl.gamma_weight(spiral1, t0, 0)
    assert np.array_equal(w.log_values, np.zeros(spiral1.n_samples))


def test_gamma_weight_real_is_power_weight_without_unwrap(spiral1):
    for lam in (0.7, -0.3):
        w = cl.gamma_weight(spiral1, 0j, lam)
        assert np.array_equal(w.log_values,
                              cl.power_weight(spiral1, 0j, lam).log_values)
    # under-sampled around t0 = 0: no branch exists, a power weight does
    sparse = cl.from_points([1.0, -1.0 + 1e-9j, -1.0 + 1.0j])
    with pytest.raises(BranchJump):
        cl.unwrap_arg(sparse, 0j)
    w = cl.gamma_weight(sparse, 0j, 0.3)
    assert np.array_equal(w.log_values,
                          cl.power_weight(sparse, 0j, 0.3).log_values)


def test_gamma_weight_complex_is_phi_on_the_branch(spiral1, spiral1_branch):
    for gamma in (0.2 + 0.1j, 1j, -0.4j):
        expected = cl.phi(cl.unwrap_arg(spiral1, 0j), gamma).log_values
        assert np.array_equal(cl.gamma_weight(spiral1, 0j, gamma).log_values,
                              expected)
        given = cl.gamma_weight(spiral1, 0j, gamma, branch=spiral1_branch)
        assert np.array_equal(given.log_values, expected)


@pytest.mark.parametrize("make, name", [
    (lambda c: cl.power_weight(c, 0j, np.nan), "lam"),
    (lambda c: cl.power_weight(c, 0j, -np.inf), "lam"),
    (lambda c: cl.gamma_weight(c, 0j, np.nan), "gamma"),
    (lambda c: cl.gamma_weight(c, 0j, complex(np.nan, 1.0)), "gamma"),
    (lambda c: cl.gamma_weight(c, 0j, complex(0.0, np.inf)), "gamma"),
], ids=["lam-nan", "lam-inf", "gamma-nan", "gamma-nan-real", "gamma-inf-imag"])
def test_weights_reject_non_finite_exponents(make, name):
    """Each gave an all-NaN or infinite log weight."""
    c = cl.generate_log_spiral(1.0, 1e-4, 1.0, 1024)
    with pytest.raises(PreconditionError, match=f"{name} must be finite"):
        make(c)


def test_gamma_weight_rejects_a_branch_around_another_point():
    """A branch carries its own t0; around 0 it gave a t0 = 0.5 weight and
    maximal operator that silently used 0 (log-weights off by up to 2.29)."""
    c = cl.generate_log_spiral(1.0, 1e-4, 1.0, 1024)
    branch = cl.unwrap_arg(c, 0j)
    with pytest.raises(PreconditionError, match="branch is around"):
        cl.gamma_weight(c, 0.5, 0.3j, branch=branch)
    ev = cl.MaximalEvaluator(c, [0, 100, 500])
    with pytest.raises(PreconditionError, match="branch is around"):
        cl.weighted_maximal(c, 1.0, 0.5, 0.3j, branch=branch, evaluator=ev)
    # the same point in another numeric type is the same t0
    same = cl.gamma_weight(c, 0, 0.3j, branch=branch)
    assert np.array_equal(same.log_values, cl.phi(branch, 0.3j).log_values)


def test_branch_needs_its_log_abs(spiral1):
    """phi reads log_abs; it has no default."""
    with pytest.raises(TypeError):
        cl.ArgBranch(0j, np.zeros(spiral1.n_samples))
