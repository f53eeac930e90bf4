"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here, not tuned at runtime; regression baselines are frozen first-run
measurements.
"""

import math
import time

import numpy as np

import carlesonlab as cl

E2 = math.e ** 2


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_spirality_oracle():
    worst = 0.0
    slowest = 0.0
    for delta in (-1.0, 0.0, 0.5, 1.0, 2.0):
        t0 = time.time()
        curve = cl.generate_log_spiral(delta, 1e-4, 1.0, 8192)
        pair = cl.spirality_indices(curve, 0j)
        elapsed = time.time() - t0
        slowest = max(slowest, elapsed)
        worst = max(worst, abs(pair.alpha - delta), abs(pair.beta - delta))
        assert abs(pair.alpha - delta) <= 0.1
        assert abs(pair.beta - delta) <= 0.1
        assert elapsed <= 60.0
    report("criterion 1 (spirality oracle)", True,
           f"max index deviation {worst:.2e} over deltas in "
           f"{{-1,0,0.5,1,2}}, slowest curve {slowest:.2f}s <= 60s")


# -- 2 -----------------------------------------------------------------------


def test_criterion_2_piecewise_smooth_oracle():
    circle = cl.generate_graded_circle(1.0, 8192)
    pc = cl.spirality_indices(circle, 1.0 + 0j)
    poly = cl.generate_corner(np.pi / 2, 1e-6, 1.0, 8192)
    pp = cl.spirality_indices(poly, 0j)
    worst = max(abs(pc.alpha), abs(pc.beta), abs(pp.alpha), abs(pp.beta))
    report("criterion 2 (piecewise-smooth oracle)", worst <= 0.05,
           f"circle ({pc.alpha:+.4f},{pc.beta:+.4f}), "
           f"polyline ({pp.alpha:+.4f},{pp.beta:+.4f}), bound 0.05")


# -- 3 -----------------------------------------------------------------------


def test_criterion_3_closed_form_consistency():
    curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, 8192)
    branch = cl.unwrap_arg(curve, 0j)
    spir = cl.spirality_indices(curve, 0j)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        measured = cl.estimate_indices(
            cl.compute_W(curve, 0j, cl.phi(branch, gamma)))
        predicted = cl.phi_indices_closed_form(gamma, spir)
        worst = max(worst, abs(measured.alpha - predicted.alpha),
                    abs(measured.beta - predicted.beta))
    report("criterion 3 (closed-form consistency)", worst <= 0.15,
           f"20 seeded gammas, worst deviation {worst:.2e} <= 0.15")


# -- 4 -----------------------------------------------------------------------


def test_criterion_4_norm_identity():
    curve = cl.generate_circle(1.0, 4096)
    weights = [cl.unit_weight(curve),
               cl.power_weight(curve, 1.1 + 0j, 0.3)]
    rng = np.random.default_rng(7)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        pf = cl.constant_exponent(curve, p)
        for k in range(50):
            f = rng.normal(size=curve.n_samples) \
                + 1j * rng.normal(size=curve.n_samples)
            w = weights[k % 2]
            lux = cl.luxemburg_norm(curve, f, w, pf)
            classic = cl.modular(curve, f, w, pf, 1.0) ** (1.0 / p)
            worst = max(worst, abs(lux - classic) / classic)
    report("criterion 4 (norm identity)", worst <= 1e-8,
           f"150 cases over p in {{1.5,2,3}}, worst relative gap "
           f"{worst:.2e} <= 1e-8")


# -- 5 -----------------------------------------------------------------------


def test_criterion_5_kps_confusion_matrix():
    t0 = time.time()
    config = cl.ExperimentConfig(
        curve={"kind": "graded_circle", "radius": 1.0, "grade": 3.0},
        exponent={"kind": "constant", "value": 2.0},
        gamma=0.0, levels=(2048, 8192, 32768), seed=11)
    lams = [-0.8, -0.4, 0.0, 0.3, 0.45, 0.55, 0.7]
    reports = cl.run_sweep(config, [complex(x) for x in lams])
    elapsed = time.time() - t0
    wrong = []
    for lam, rep in zip(lams, reports):
        expected = "stable" if -0.5 < lam < 0.5 else "growing"
        if rep.trend != expected:
            wrong.append((lam, rep.trend, expected))
        # verdicts agree with the two-sided power-weight criterion
        inside = 0.0 < 0.5 + lam < 1.0
        assert (rep.verdict.classification == cl.KPS_BOUNDED) == inside
    ok = not wrong and elapsed <= 600.0
    report("criterion 5 (KPS confusion matrix)", ok,
           f"{7 - len(wrong)}/7 cells correct{wrong or ''}, "
           f"runtime {elapsed:.0f}s <= 600s")


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_main_theorem_probe():
    config = cl.ExperimentConfig(
        curve={"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
               "r_min_scale": 118.0, "r_max": E2},
        exponent={"kind": "profile", "p_at": 1.8, "p_far": 2.2},
        gamma=1j, levels=(2048, 4096, 8192, 16384), seed=7)
    gammas = [0.1j, -0.1j, 0.2 + 0.1j, 1j]
    reports = cl.run_sweep(config, gammas)
    detail = []
    ok = True
    for gamma, rep in zip(gammas, reports):
        if gamma == 1j:
            ok &= rep.verdict.classification == cl.NECESSARY_VIOLATED
            ok &= rep.trend == "growing"
        else:
            ok &= rep.verdict.classification == cl.MAIN_THM_BOUNDED
            ok &= rep.verdict.margin >= 0.1
            ok &= rep.trend == "stable"
        detail.append(f"{gamma}:{rep.verdict.classification[:4]}"
                      f"/{rep.trend}/m={rep.verdict.margin:+.2f}")
    report("criterion 6 (main-theorem probe)", ok, "; ".join(detail))


# -- 7 -----------------------------------------------------------------------


def test_criterion_7_sandwich():
    gamma = 0.3 + 0.2j
    eps = 0.1
    results = {}
    for n in (4096, 8192):
        curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, n)
        branch = cl.unwrap_arg(curve, 0j)
        w = cl.phi(branch, gamma)
        idx = cl.estimate_indices(cl.compute_W(curve, 0j, w))
        delta = cl.d_t(curve, 0j) / 8.0
        results[n] = (cl.power_sandwich(curve, 0j, w, eps, delta,
                                        indices=idx),
                      curve, w, idx, delta)
    (c1, c2), curve, w, idx, delta = results[4096]
    # independent full pair check at n = 4096
    mask = cl.omega_arc(curve, 0j, delta)
    log_d = np.log(np.abs(curve.samples))
    lw = w.log_values
    ins, outs = np.flatnonzero(mask), np.flatnonzero(~mask)
    viol1 = viol2 = 0
    for t in outs:
        lhs = lw[t] - lw[ins]
        rhs = np.log(c1) + (idx.beta + eps) * (log_d[t] - log_d[ins])
        viol1 += int(np.any(lhs > rhs + 1e-12))
    for t in ins:
        lhs = lw[t] - lw[outs]
        rhs = np.log(c2) + (idx.alpha - eps) * (log_d[t] - log_d[outs])
        viol2 += int(np.any(lhs > rhs + 1e-12))
    (c1b, c2b), *_ = results[8192]
    drift1 = abs(c1b - c1) / c1
    drift2 = abs(c2b - c2) / c2
    ok = viol1 == 0 and viol2 == 0 and drift1 < 0.10 and drift2 < 0.10
    report("criterion 7 (sandwich)", ok,
           f"C1={c1:.4f} C2={c2:.4f}, violations {viol1}+{viol2}, "
           f"doubling drift {drift1:.3%}/{drift2:.3%} < 10%")


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_weight_equivalence():
    gamma = 0.2 + 0.1j
    vals = {}
    for n in (8192, 16384):
        curve = cl.generate_log_spiral(1.0, 1e-4, 1.0, n)
        branch = cl.unwrap_arg(curve, 0j)
        p = cl.profile_exponent(curve, 0j, 1.8, 2.2)
        ph = cl.phi(branch, gamma)
        # p at the sample nearest t0
        p_t0 = float(p.values[np.argmin(curve.distances_from(0j))])
        w1 = cl.Weight(log_values=(p.values / p.p_min) * ph.log_values)
        w2 = cl.phi(branch, gamma * p_t0 / p.p_min)
        vals[n] = cl.equivalent(w1, w2)
    change = abs(vals[16384] - vals[8192]) / vals[8192]
    ok = np.isfinite(vals[8192]) and np.isfinite(vals[16384]) \
        and change < 0.05
    report("criterion 8 (weight equivalence)", ok,
           f"values {vals[8192]:.6f} -> {vals[16384]:.6f}, "
           f"change {change:.3%} < 5%")


# -- 9 -----------------------------------------------------------------------


def _zoo():
    yield "graded circle", cl.generate_graded_circle(1.0, 8192), 1.0 + 0j
    yield "segment", cl.generate_log_spiral(0.0, 1e-4, 1.0, 4096), 0j
    yield "corner", cl.generate_corner(np.pi / 2, 1e-5, 1.0, 8192), 0j
    for d in (-1.0, 0.5, 1.0, 2.0):
        yield (f"spiral {d}", cl.generate_log_spiral(d, 1e-4, 1.0, 8192), 0j)
    yield ("mixed", cl.generate_mixed_spirality(-1.0, 1.0, 1e-6, 1.0, 8192),
           0j)


def _submult_excess(s):
    n = len(s.xs)
    mid = n // 2
    lv = s.log_vals
    idx = np.arange(n)
    worst = -np.inf
    for i in range(n):
        k = idx + i - mid
        m = (k >= 0) & (k < n)
        worst = max(worst, float(np.max(lv[k[m]] - lv[i] - lv[idx[m]])))
    return worst


def test_criterion_9_property_suites():
    details = []
    for name, curve, t0 in _zoo():
        s = cl.compute_W(curve, t0, cl.phi(cl.unwrap_arg(curve, t0), 1j))
        pair = cl.estimate_indices(s)
        excess = _submult_excess(s)
        assert excess <= np.log(1.05), f"{name}: submultiplicativity"
        lx, lv = s.log_xs, s.log_vals
        res_a = pair.diagnostics["alpha_residual"]
        res_b = pair.diagnostics["beta_residual"]
        # banding noise floor: annulus snapping shifts log rho by up to the
        # band half-width times the local log-slope of the weight
        slack = 1e-9 + 2.0 * s.meta["max_halfwidth"] \
            * (1.0 + max(abs(pair.alpha), abs(pair.beta)))
        neg, pos = lx < 0, lx > 0
        # lower bounds with residual adjustment in the safe direction
        assert np.all(lv[neg] >= (pair.alpha + res_a) * lx[neg] - slack), name
        assert np.all(lv[pos] >= (pair.beta - res_b) * lx[pos] - slack), name
        # tail-domination witness x0 for margin 0.25
        eps = 0.25
        ok_hi = lv[pos] <= (pair.beta + res_b + eps) * lx[pos] + slack
        ok_lo = lv[neg] <= (pair.alpha - res_a - eps) * lx[neg] + slack
        x0 = None
        for cand in np.flatnonzero(pos):
            above = lx > lx[cand]
            below = lx < -lx[cand]
            if np.all(ok_hi[above[pos]]) and np.all(ok_lo[below[neg]]):
                x0 = s.xs[cand]
                break
        assert x0 is not None, f"{name}: no tail witness found"
        details.append(f"{name}: excess {np.exp(excess):.3f}, x0 {x0:.3g}")
    report("criterion 9 (submultiplicativity + index bounds)", True,
           "; ".join(details))
