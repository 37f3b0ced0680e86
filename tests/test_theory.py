import dataclasses
import math

import numpy as np
import pytest

from qsass import theory
from qsass.errors import ConfigurationError, SpecFileError
from qsass.theory import (TheoryInputs, accuracy_floor, failure_probability,
                          iteration_bound, progress_constants, report_text,
                          success_probability, theory_inputs_from_file,
                          true_iteration_probability)


def nc_inputs(**overrides):
    base = dict(lipschitz=1.0, theta=0.2, kappa=1.0, eta=0.1, tau=10.0,
                eps=1.0, delta=0.1, p_hat=0.8, initial_gap=1.0)
    base.update(overrides)
    return TheoryInputs(**base)


def sc_inputs(**overrides):
    base = dict(lipschitz=0.8, kappa=0.4, theta=0.2, eta=0.1, tau=10.0,
                eps=1.0, delta=0.1, strong_convexity=0.5, alpha0=1.875,
                gamma=0.8, p_hat=0.8, initial_gap=100.0)
    base.update(overrides)
    return TheoryInputs(**base)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(lipschitz=0.0),
        dict(theta=1.0),
        dict(gamma=1.5),
        dict(alpha0=-1.0),
        dict(sigma_lb=2.0, sigma_ub=1.0),
        dict(kappa=0.0),
        dict(eta=1.0),
        dict(eps=0.0),
        dict(eps_f=-1.0),
        dict(delta=0.5),
        dict(strong_convexity=-0.5),
        dict(nu=0.0),
        dict(p_hat=1.0),
        dict(tail_slack=-0.1),
        dict(initial_gap=-1.0),
        dict(bounded_noise=False),  # nu, b, noise_margin missing
        # A check spelled ``value < 0`` would let NaN through.
        dict(tau=math.nan),
        dict(eps_f=math.nan),
        dict(eps_g=math.nan),
        dict(tail_slack=math.nan),
        dict(initial_gap=math.nan),
        dict(noise_margin=math.nan),
        dict(noise_margin=math.inf),
    ])
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            nc_inputs(**bad)

    def test_sc_constants_need_beta(self):
        with pytest.raises(ConfigurationError):
            progress_constants(nc_inputs(), "strongly-convex")

    def test_bounds_need_p_hat_and_gap(self):
        with pytest.raises(ConfigurationError):
            iteration_bound(nc_inputs(p_hat=None), "nonconvex")
        with pytest.raises(ConfigurationError):
            iteration_bound(nc_inputs(initial_gap=None), "nonconvex")

    def test_failure_probability_preconditions(self):
        with pytest.raises(ConfigurationError):
            failure_probability(0.9, 0.7, 0.0)
        with pytest.raises(ConfigurationError):
            failure_probability(0.7, 0.9, 10.0)
        with pytest.raises(ConfigurationError):
            failure_probability(0.9, 0.7, 10.0, tail_slack=-1.0)


class TestFrozenNonconvex:
    def test_alpha_bar_and_branches(self):
        c = progress_constants(nc_inputs(), "nonconvex")
        assert c.alpha_bar_curvature == pytest.approx(8.0 / 15.0, rel=1e-14)
        assert c.alpha_bar_bias == pytest.approx(1.24 / 0.9, rel=1e-14)
        assert c.alpha_bar == pytest.approx(8.0 / 15.0, rel=1e-14)

    def test_m1_picks_tau_branch(self):
        c = progress_constants(nc_inputs(), "nonconvex")
        assert c.m1_tau_branch == pytest.approx(0.2 / 121.0, rel=1e-14)
        assert c.m1_eta_branch == pytest.approx(0.162, rel=1e-14)
        assert c.m1 == pytest.approx(0.2 / 121.0, rel=1e-14)

    def test_probability_and_tail_threshold(self):
        c = progress_constants(nc_inputs(), "nonconvex")
        assert c.p == 0.9
        assert c.p_ell == 0.5
        assert c.feasible
        assert c.issues == ()

    def test_iteration_bound_pieces(self):
        bound = iteration_bound(nc_inputs(), "nonconvex")
        assert bound.gap_term == pytest.approx(1134.375, rel=1e-12)
        warmup = math.log(1.875) / (-2.0 * math.log(0.8))
        assert bound.warmup_term == pytest.approx(warmup, rel=1e-12)
        assert bound.t_min == pytest.approx((1134.375 + warmup) / 0.3,
                                            rel=1e-12)
        assert bound.t_min == pytest.approx(3.79e3, rel=0.01)

    def test_zero_gap_and_matched_alpha0_give_zero(self):
        c = progress_constants(nc_inputs(), "nonconvex")
        v = nc_inputs(initial_gap=0.0, alpha0=c.alpha_bar)
        assert iteration_bound(v, "nonconvex").t_min == 0.0

    def test_first_term_scales_inverse_square(self):
        terms = [iteration_bound(nc_inputs(eps=e), "nonconvex").gap_term
                 for e in (1.0, 0.5, 0.25)]
        assert terms[1] / terms[0] == pytest.approx(4.0, rel=1e-12)
        assert terms[2] / terms[1] == pytest.approx(4.0, rel=1e-12)

    def test_renewal_parameters_double_the_noise(self):
        c = progress_constants(nc_inputs(nu=0.3, b=0.7), "nonconvex")
        assert c.nu_r == pytest.approx(0.6, rel=1e-14)
        assert c.b_r == pytest.approx(1.4, rel=1e-14)


class TestFrozenStronglyConvex:
    def test_alpha_bar_hits_one(self):
        c = progress_constants(sc_inputs(), "strongly-convex")
        assert c.alpha_bar == pytest.approx(1.0, rel=1e-14)
        assert c.alpha_bar_curvature == pytest.approx(1.0, rel=1e-14)

    def test_progress_unit(self):
        c = progress_constants(sc_inputs(), "strongly-convex")
        assert c.h_tau_branch == pytest.approx(-math.log1p(-0.1 / 121.0),
                                               rel=1e-10)
        assert c.h_eta_branch == pytest.approx(-math.log(0.919), rel=1e-12)
        assert c.progress_unit == c.h_tau_branch
        assert c.progress_unit == pytest.approx(8.267e-4, rel=1e-3)
        assert c.p_ell == 0.5

    def test_iteration_bound(self):
        bound = iteration_bound(sc_inputs(), "strongly-convex")
        assert bound.warmup_term == pytest.approx(1.4085, rel=1e-4)
        assert bound.t_min == pytest.approx(1.858e4, rel=0.01)

    def test_gap_at_target_is_free(self):
        c = progress_constants(sc_inputs(), "strongly-convex")
        v = sc_inputs(initial_gap=1.0, alpha0=c.alpha_bar)
        assert iteration_bound(v, "strongly-convex").t_min == 0.0

    def test_renewal_parameters_closed_form(self):
        c = progress_constants(sc_inputs(nu=1.0, b=1.0, eps_f=0.0),
                               "strongly-convex")
        expected = 8.0 * math.e ** 2 + 4.0 * math.e
        assert c.nu_r == pytest.approx(expected, rel=1e-14)
        assert c.b_r == c.nu_r

    def test_t_min_decreases_toward_p(self):
        values = [iteration_bound(sc_inputs(p_hat=ph),
                                  "strongly-convex").t_min
                  for ph in np.linspace(0.55, 0.88, 12)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestTailThresholdBoundary:
    @pytest.mark.parametrize("make,mode", [
        (nc_inputs, "nonconvex"),
        (sc_inputs, "strongly-convex"),
    ])
    def test_half_exactly_when_offsets_vanish(self, make, mode):
        assert progress_constants(make(eps_f=0.0, tail_slack=0.0),
                                  mode).p_ell == 0.5
        assert progress_constants(make(eps_f=1e-9), mode).p_ell > 0.5
        assert progress_constants(make(nu=1.0, b=1.0, tail_slack=1e-9),
                                  mode).p_ell > 0.5


class TestFailureProbability:
    def test_frozen_drift_term(self):
        bound = failure_probability(0.9, 0.7, 100.0)
        assert bound - 1.0 == pytest.approx(math.exp(-4.0 / 1.62), rel=1e-12)
        assert bound - 1.0 == pytest.approx(0.0847, abs=5e-5)

    def test_vacuous_without_slack(self):
        assert failure_probability(0.9, 0.7, 1e9) >= 1.0
        assert success_probability(0.9, 0.7, 1e9) == 0.0

    def test_monotone_in_t(self):
        grid = np.logspace(0, 4, 25)
        values = [failure_probability(0.85, 0.7, t, tail_slack=0.5,
                                      nu_r=2.0, b_r=2.0) for t in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_drift_gap(self):
        values = [failure_probability(0.9, ph, 500.0, tail_slack=0.5,
                                      nu_r=2.0, b_r=2.0)
                  for ph in (0.85, 0.8, 0.7, 0.6)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_success_probability_becomes_useful(self):
        good = success_probability(0.9, 0.7, 5000.0, tail_slack=1.0,
                                   nu_r=2.0, b_r=2.0)
        assert 0.99 < good <= 1.0


class TestAccuracyFloors:
    def test_noiseless_floor_is_zero(self):
        assert accuracy_floor(nc_inputs(), "nonconvex").value == 0.0
        assert accuracy_floor(sc_inputs(), "strongly-convex").value == 0.0

    def test_nonconvex_gradient_branch_dominates(self):
        floor = accuracy_floor(nc_inputs(eps_g=0.01, eps_f=1e-12), "nonconvex")
        assert floor.branches[0] == pytest.approx(0.1, rel=1e-12)
        assert floor.branches[1] < 1e-3
        assert floor.value == floor.branches[0]

    def test_strongly_convex_first_branch(self):
        floor = accuracy_floor(sc_inputs(eps_g=0.01), "strongly-convex")
        assert floor.branches[0] == pytest.approx(0.01, rel=1e-12)
        assert floor.value == pytest.approx(0.01, rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            accuracy_floor(nc_inputs(), "convex")


class TestInfeasibilityReports:
    def test_eta_at_limit_is_reported_not_raised(self):
        v = nc_inputs()
        bad = nc_inputs(eta=v.eta_limit + 0.01)
        c = progress_constants(bad, "nonconvex")
        assert not c.feasible
        assert any("eta" in issue for issue in c.issues)

    def test_negative_alpha_bar_bias_branch(self):
        # With sigma_lb < sigma_ub the bias branch turns negative before
        # eta reaches its limit.
        bad = nc_inputs(sigma_lb=0.25, sigma_ub=1.0, eta=0.18)
        assert bad.eta < bad.eta_limit
        c = progress_constants(bad, "nonconvex")
        assert c.alpha_bar_bias < 0.0
        assert not c.feasible
        assert any("alpha_bar" in issue for issue in c.issues)
        assert math.isnan(c.p_ell)

    def test_small_margin_probability_reported(self):
        bad = nc_inputs(bounded_noise=False, nu=1.0, b=1.0, noise_margin=0.01,
                        delta=0.4)
        c = progress_constants(bad, "nonconvex")
        assert c.p <= 0.5
        assert any("p=" in issue for issue in c.issues)

    def test_progress_requirement_failure(self):
        c = progress_constants(nc_inputs(eps_f=1.0), "nonconvex")
        assert not c.progress_requirement
        assert any("progress requirement" in issue for issue in c.issues)

    def test_p_hat_outside_interval_reported(self):
        bound = iteration_bound(nc_inputs(p_hat=0.95), "nonconvex")
        assert not bound.feasible
        assert math.isnan(bound.t_min)
        assert any("admissible interval" in issue for issue in bound.issues)


# ---------------------------------------------------------------------------
# Dual-implementation agreement.  Every closed form is recomputed here with
# a different algebraic arrangement; both must agree to 1e-12 relative on
# randomly drawn valid parameter sets.
# ---------------------------------------------------------------------------

def ref_alpha_bar(v):
    curvature = ((2.0 * v.sigma_lb - 2.0 * v.theta * v.sigma_lb)
                 / (2.0 * v.kappa * v.sigma_ub
                    + v.lipschitz * v.sigma_ub ** 2))
    ratio = v.sigma_lb / v.sigma_ub
    bias = ((2.0 * (1.0 - v.theta) * (1.0 - v.eta) * ratio - 2.0 * v.eta)
            / ((v.lipschitz - v.lipschitz * v.eta) * v.sigma_ub))
    return min(curvature, bias)


def ref_m1(v):
    tau_branch = (v.theta / (1.0 + v.tau)) * (v.sigma_lb / (1.0 + v.tau))
    eta_branch = (v.sigma_lb * (1.0 - v.eta)) * (v.theta * (1.0 - v.eta))
    return min(tau_branch, eta_branch)


def ref_p(v):
    if v.bounded_noise:
        return 1.0 - v.delta
    exponent = min(0.5 * (v.noise_margin / v.nu) ** 2,
                   0.5 * v.noise_margin / v.b)
    return (1.0 - v.delta) - math.exp(-exponent)


def ref_nc_p_ell(v):
    progress = (ref_m1(v) * v.eps) * (ref_alpha_bar(v) * v.eps)
    return 0.5 + (4.0 * v.eps_f + v.tail_slack) / progress


def ref_sc_h(v):
    beta = v.strong_convexity
    ab = ref_alpha_bar(v)
    arg_tau = 1.0 - (ab * beta) * (v.sigma_lb * v.theta) / (1.0 + v.tau) ** 2
    arg_eta = 1.0 - (ab * beta) * (v.sigma_lb * v.theta) * (1.0 - v.eta) ** 2
    return min(-math.log(arg_tau), -math.log(arg_eta))


def ref_sc_p_ell(v):
    # log(1 + x) as 2 atanh(x / (2 + x)): a different route through libm
    # that keeps the offset accurate when 4 eps_f / eps is far below 1,
    # where forming 1 + x explicitly loses up to ulp(1) / (2 x) relative.
    x = (4.0 / v.eps) * v.eps_f
    offset = 2.0 * math.atanh(x / (2.0 + x))
    return 0.5 + (offset + v.tail_slack) / ref_sc_h(v)


def ref_sc_nu_r(v):
    scaled = max((2.0 * v.nu) / v.eps, (2.0 * v.b) / v.eps)
    return (2.0 * math.e) ** 2 * scaled \
        + 4.0 * math.e + (16.0 * math.e) * (v.eps_f / v.eps)


def ref_warmup(v, alpha_bar):
    return max(math.log(v.alpha0 / alpha_bar) / (-2.0 * math.log(v.gamma)),
               0.0)


def ref_nc_t_min(v):
    progress = (ref_m1(v) * v.eps) * (ref_alpha_bar(v) * v.eps)
    total = v.initial_gap / progress + ref_warmup(v, ref_alpha_bar(v))
    return total / (v.p_hat - ref_nc_p_ell(v))


def ref_sc_t_min(v):
    gap = max(math.log(v.initial_gap) - math.log(v.eps), 0.0) \
        if v.initial_gap > v.eps else 0.0
    total = gap / ref_sc_h(v) + ref_warmup(v, ref_alpha_bar(v))
    return total / (v.p_hat - ref_sc_p_ell(v))


def ref_nc_floor(v):
    grad = v.eps_g / v.eta
    denom = ref_m1(v) * ref_alpha_bar(v) * (ref_p(v) - 0.5)
    noise = 0.0 if v.eps_f == 0.0 else 2.0 * math.sqrt(v.eps_f / denom)
    return max(grad, noise)


def ref_sc_floor(v):
    beta = v.strong_convexity
    grad = (v.eps_g / v.eta) ** 2 / (2.0 * beta)
    base = 1.0 - ref_m1(v) * beta * ref_alpha_bar(v)
    if v.eps_f == 0.0:
        ratio = 0.0
    else:
        ratio = 4.0 * v.eps_f / (math.exp((0.5 - ref_p(v)) * math.log(base))
                                 - 1.0)
    return max(grad, ratio, 4.0 * v.eps_f)


def ref_failure(p, p_hat, t, s, nu_r, b_r):
    drift = math.exp(-(t / 2.0) * ((p - p_hat) / p) ** 2)
    if s == 0.0:
        return drift + 1.0
    return drift + math.exp(-t * min(s * s / (2.0 * nu_r * nu_r),
                                     s / (2.0 * b_r)))


def agree(a, b, rel=1e-12):
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def draw_valid_inputs(rng, strongly_convex):
    """Sample a feasible parameter set, noise offsets included.

    Drawn in two phases: base geometry first, then eps_f / tail_slack scaled
    to the realized progress unit so the progress requirement keeps a
    margin, then p_hat placed inside the admissible interval.
    """
    while True:
        theta = rng.uniform(0.1, 0.6)
        sigma_ub = rng.uniform(1.0, 5.0)
        sigma_lb = sigma_ub * rng.uniform(0.3, 1.0)
        ratio = sigma_lb / sigma_ub
        bias_cap = ((1.0 - theta) * ratio
                    / (1.0 + (1.0 - theta) * ratio))
        base = dict(
            lipschitz=rng.uniform(0.5, 3.0),
            theta=theta,
            gamma=rng.uniform(0.5, 0.95),
            alpha0=rng.uniform(0.2, 4.0),
            sigma_lb=sigma_lb,
            sigma_ub=sigma_ub,
            tau=rng.uniform(0.0, 5.0),
            kappa=rng.uniform(0.5, 2.0),
            eta=rng.uniform(0.1, 0.6) * bias_cap,
            eps=rng.uniform(0.5, 2.0),
            eps_g=rng.uniform(1e-4, 1e-2),
            delta=rng.uniform(0.01, 0.3),
            initial_gap=rng.uniform(0.1, 100.0),
        )
        if strongly_convex:
            base["strong_convexity"] = rng.uniform(0.1, 1.0)
        if rng.random() < 0.5:
            nu = rng.uniform(0.1, 1.0)
            b = rng.uniform(0.1, 1.0)
            base.update(bounded_noise=False, nu=nu, b=b,
                        noise_margin=rng.uniform(2.0, 5.0) * (nu + b))
        elif strongly_convex:
            # keep nu, b available for the renewal closed form
            base.update(nu=rng.uniform(0.1, 1.0), b=rng.uniform(0.1, 1.0))
        v = TheoryInputs(**base)
        constants = progress_constants(
            v, "strongly-convex" if strongly_convex else "nonconvex")
        if constants.alpha_bar <= 0.0 or constants.p <= 0.55:
            continue
        # Below ~1e-3 the log contraction h sits so close to the rounding
        # of 1 - x that no two arrangements can agree to 1e-12 relative.
        min_progress = 2e-3 if strongly_convex else 1e-4
        if not constants.progress_unit > min_progress:
            continue
        # second phase: offsets proportional to the realized progress
        budget = constants.progress_unit * (constants.p - 0.5)
        slack = rng.uniform(0.0, 0.3) * budget
        if strongly_convex:
            eps_f = (math.expm1(rng.uniform(0.0, 0.3) * budget)
                     * v.eps / 4.0)
        else:
            eps_f = rng.uniform(0.0, 0.3) * budget / 4.0
        v = dataclasses.replace(v, eps_f=eps_f, tail_slack=slack)
        constants = progress_constants(
            v, "strongly-convex" if strongly_convex else "nonconvex")
        if not constants.feasible:
            continue
        p_hat = constants.p_ell + rng.uniform(0.3, 0.9) \
            * (constants.p - constants.p_ell)
        return dataclasses.replace(v, p_hat=p_hat)


def check_nonconvex_agreement(v):
    c = progress_constants(v, "nonconvex")
    assert agree(c.alpha_bar, ref_alpha_bar(v))
    assert agree(c.m1, ref_m1(v))
    assert agree(c.p, ref_p(v))
    assert agree(c.p_ell, ref_nc_p_ell(v))
    assert agree(iteration_bound(v, "nonconvex", c).t_min, ref_nc_t_min(v))
    assert agree(accuracy_floor(v, "nonconvex").value, ref_nc_floor(v))


def check_strongly_convex_agreement(v):
    c = progress_constants(v, "strongly-convex")
    assert agree(c.alpha_bar, ref_alpha_bar(v))
    assert agree(c.progress_unit, ref_sc_h(v))
    assert agree(c.p_ell, ref_sc_p_ell(v))
    if v.nu is not None and v.b is not None:
        assert agree(c.nu_r, ref_sc_nu_r(v))
    assert agree(iteration_bound(v, "strongly-convex", c).t_min,
                 ref_sc_t_min(v))
    assert agree(accuracy_floor(v, "strongly-convex").value, ref_sc_floor(v))


class TestDualImplementations:
    def test_nonconvex_random_sweep(self):
        rng = np.random.default_rng(1729)
        for _ in range(150):
            check_nonconvex_agreement(draw_valid_inputs(rng, False))

    def test_strongly_convex_random_sweep(self):
        rng = np.random.default_rng(1730)
        for _ in range(150):
            check_strongly_convex_agreement(draw_valid_inputs(rng, True))

    def test_failure_probability_sweep(self):
        rng = np.random.default_rng(1731)
        for _ in range(300):
            p = rng.uniform(0.55, 0.99)
            p_hat = rng.uniform(0.5, p - 1e-3)
            t = rng.uniform(1.0, 1e5)
            s = rng.choice([0.0, rng.uniform(0.01, 2.0)])
            nu_r = rng.uniform(0.1, 10.0)
            b_r = rng.uniform(0.1, 10.0)
            assert agree(failure_probability(p, p_hat, t, s, nu_r, b_r),
                         ref_failure(p, p_hat, t, s, nu_r, b_r))


class TestInputFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "theory.txt"
        path.write_text(
            "# complexity inputs\n"
            "lipschitz = 0.8\n"
            "kappa = 0.4\n"
            "strong_convexity = 0.5\n"
            "alpha0 = 1.875\n"
            "p_hat = 0.8\n"
            "initial_gap = 100\n"
            "bounded_noise = true\n")
        v = theory_inputs_from_file(path)
        assert v.lipschitz == 0.8
        assert v.strong_convexity == 0.5
        assert v.bounded_noise is True
        assert v.theta == 0.2  # default survives

    @pytest.mark.parametrize("body", [
        "lipschitz = 1\nmystery = 3\n",
        "lipschitz = much\n",
        "theta = 0.2\n",                       # lipschitz missing
        "lipschitz = 1\nbounded_noise = maybe\n",
        "lipschitz = 1\ntheta = 2\n",          # well-formed but invalid
    ])
    def test_bad_files(self, tmp_path, body):
        path = tmp_path / "theory.txt"
        path.write_text(body)
        with pytest.raises(SpecFileError):
            theory_inputs_from_file(path)


class TestReportText:
    def test_full_report_sections(self):
        text = report_text(sc_inputs(nu=1.0, b=1.0))
        assert "nonconvex case" in text
        assert "strongly convex case" in text
        assert "t_min" in text
        assert "accuracy_floor" in text
        assert "success prob at t_min" in text
        assert "!" not in text  # fully feasible inputs

    def test_infeasible_inputs_show_issues(self):
        v = nc_inputs(sigma_lb=0.25, sigma_ub=1.0, eta=0.18)
        text = report_text(v)
        assert "! " in text
        assert "alpha_bar" in text

    def test_true_iteration_probability_helper(self):
        assert true_iteration_probability(nc_inputs()) == 0.9


def test_both_cases_share_one_constants_type():
    v = sc_inputs(nu=1.0, b=1.0)
    nc = progress_constants(v, "nonconvex")
    sc = progress_constants(v, "strongly-convex")
    assert type(nc) is type(sc)
    assert (nc.mode, sc.mode) == ("nonconvex", "strongly-convex")
    assert math.isnan(nc.h_tau_branch) and math.isnan(nc.h_eta_branch)
    assert sc.progress_unit == min(sc.h_tau_branch, sc.h_eta_branch)
    shared = ("alpha_bar", "alpha_bar_curvature", "alpha_bar_bias", "m1",
              "m1_tau_branch", "m1_eta_branch", "p", "spectrum_ratio",
              "eta_limit")
    assert all(getattr(nc, name) == getattr(sc, name) for name in shared)


# ---------------------------------------------------------------------------
# Frozen per-case reference.  Before the constants and the bounds took
# ``mode`` as an argument, each case had its own pair of functions; this is
# a verbatim copy of those six, with a report built from them.  The mode-keyed
# entry points must give the same report, byte for byte, wherever these ran.
# ---------------------------------------------------------------------------

def frozen_constants_head(inputs):
    curvature, bias = theory._alpha_bar_branches(inputs)
    alpha_bar = min(curvature, bias)
    tau_branch, eta_branch = theory._m1_branches(inputs)
    p = true_iteration_probability(inputs)
    issues = []
    if inputs.eta >= inputs.eta_limit:
        issues.append(
            f"eta={inputs.eta:g} is not below its limit {inputs.eta_limit:.6g}")
    if alpha_bar <= 0.0:
        issues.append("alpha_bar is not positive: "
                      "eta is too large for the spectrum bounds")
    if p <= 0.5:
        issues.append(f"true-iteration probability p={p:.6g} is not above 1/2")
    head = dict(spectrum_ratio=inputs.spectrum_ratio,
                eta_limit=inputs.eta_limit, alpha_bar=alpha_bar,
                alpha_bar_curvature=curvature, alpha_bar_bias=bias,
                m1=min(tau_branch, eta_branch), m1_tau_branch=tau_branch,
                m1_eta_branch=eta_branch, p=p)
    return head, issues


def frozen_nonconvex_constants(inputs):
    head, issues = frozen_constants_head(inputs)
    alpha_bar, p = head["alpha_bar"], head["p"]
    offset = 4.0 * inputs.eps_f
    if alpha_bar > 0.0:
        progress = head["m1"] * alpha_bar * inputs.eps ** 2
        p_ell = 0.5 + (offset + inputs.tail_slack) / progress
    else:
        progress = math.nan
        p_ell = math.nan
    requirement = (alpha_bar > 0.0 and p > 0.5
                   and progress * (p - 0.5) > offset)
    if not requirement and alpha_bar > 0.0 and p > 0.5:
        issues.append("progress requirement fails: "
                      "h(alpha_bar) <= 4*eps_f / (p - 1/2)")
    nu_r = 2.0 * inputs.nu if inputs.nu is not None else math.nan
    b_r = 2.0 * inputs.b if inputs.b is not None else math.nan
    if inputs.tail_slack > 0.0 and (inputs.nu is None or inputs.b is None):
        issues.append("tail_slack > 0 requires the nu and b noise parameters")
    return theory.ProgressConstants(
        mode="nonconvex", feasible=not issues, issues=tuple(issues), **head,
        p_ell=p_ell, progress_unit=progress, decrease_offset=offset,
        progress_requirement=requirement, nu_r=nu_r, b_r=b_r)


def frozen_strongly_convex_constants(inputs):
    beta = inputs.strong_convexity
    head, issues = frozen_constants_head(inputs)
    alpha_bar, p = head["alpha_bar"], head["p"]
    h_tau = h_eta = progress = math.nan
    if alpha_bar > 0.0:
        arg_tau = 1.0 - (alpha_bar * inputs.sigma_lb * inputs.theta * beta
                         / (1.0 + inputs.tau) ** 2)
        arg_eta = 1.0 - (alpha_bar * inputs.sigma_lb * beta * inputs.theta
                         * (1.0 - inputs.eta) ** 2)
        if arg_tau <= 0.0 or arg_eta <= 0.0:
            issues.append("progress function undefined: "
                          "alpha_bar too large relative to strong_convexity")
        else:
            h_tau = -math.log(arg_tau)
            h_eta = -math.log(arg_eta)
            progress = min(h_tau, h_eta)
    offset = math.log1p(4.0 * inputs.eps_f / inputs.eps)
    p_ell = 0.5 + (offset + inputs.tail_slack) / progress \
        if progress > 0.0 else math.nan
    requirement = (progress > 0.0 and p > 0.5
                   and progress * (p - 0.5) > offset)
    if not requirement and progress > 0.0 and p > 0.5:
        issues.append("progress requirement fails: "
                      "h(alpha_bar) <= log(1 + 4*eps_f/eps) / (p - 1/2)")
    if inputs.nu is not None and inputs.b is not None:
        scale = math.e
        nu_r = (4.0 * scale ** 2
                * max(2.0 * inputs.nu / inputs.eps, 2.0 * inputs.b / inputs.eps)
                + 4.0 * scale * (1.0 + 4.0 * inputs.eps_f / inputs.eps))
    else:
        nu_r = math.nan
        if inputs.tail_slack > 0.0:
            issues.append("tail_slack > 0 requires the nu and b noise parameters")
    return theory.ProgressConstants(
        mode="strongly-convex", feasible=not issues, issues=tuple(issues),
        **head, p_ell=p_ell, progress_unit=progress, h_tau_branch=h_tau,
        h_eta_branch=h_eta, decrease_offset=offset,
        progress_requirement=requirement, nu_r=nu_r, b_r=nu_r)


def frozen_iteration_bound(inputs, constants, gap_in_progress_units):
    issues = list(constants.issues)
    if constants.alpha_bar > 0.0:
        warmup = max(-(math.log(inputs.alpha0) - math.log(constants.alpha_bar))
                     / (2.0 * math.log(inputs.gamma)), 0.0)
    else:
        warmup = math.nan
    margin = inputs.p_hat - constants.p_ell
    if (math.isnan(constants.p_ell)
            or not constants.p_ell < inputs.p_hat < constants.p):
        issues.append(f"p_hat={inputs.p_hat:g} is outside the admissible "
                      f"interval (p_ell, p) = ({constants.p_ell:.6g}, "
                      f"{constants.p:.6g})")
        t_min = math.nan
    else:
        t_min = (gap_in_progress_units + warmup) / margin
    return theory.IterationBound(
        feasible=not issues, issues=tuple(issues), t_min=t_min,
        gap_term=gap_in_progress_units, warmup_term=warmup, margin=margin)


def frozen_nonconvex_iteration_bound(inputs, constants):
    gap_term = inputs.initial_gap / constants.progress_unit
    return frozen_iteration_bound(inputs, constants, gap_term)


def frozen_strongly_convex_iteration_bound(inputs, constants):
    if inputs.initial_gap <= inputs.eps:
        log_gap = 0.0
    else:
        log_gap = math.log(inputs.initial_gap / inputs.eps)
    return frozen_iteration_bound(inputs, constants,
                                  log_gap / constants.progress_unit)


def frozen_report_text(inputs):
    """The report as the per-case functions built it, printed by this
    module's own section helpers."""
    lines = ["theory inputs"]
    for field in dataclasses.fields(TheoryInputs):
        theory._table(lines, field.name, getattr(inputs, field.name))
    cases = [("nonconvex", frozen_nonconvex_constants,
              frozen_nonconvex_iteration_bound)]
    if inputs.strong_convexity is not None:
        cases.append(("strongly-convex", frozen_strongly_convex_constants,
                      frozen_strongly_convex_iteration_bound))
    for mode, constants_of, bound_of in cases:
        lines.append("")
        constants = constants_of(inputs)
        theory._constants_section(lines, constants)
        theory._floor_section(lines, accuracy_floor(inputs, mode))
        if inputs.initial_gap is not None and inputs.p_hat is not None:
            theory._bound_section(lines, inputs, constants,
                                  bound_of(inputs, constants))
    lines.append("")
    return "\n".join(lines)


def draw_any_inputs(rng):
    """Valid inputs over wide log-uniform ranges, feasible or not, with
    every optional field present or absent at random."""
    def log_uniform(low, high):
        return float(10.0 ** rng.uniform(low, high))

    sigma_lb = log_uniform(-2, 2)
    kw = dict(lipschitz=log_uniform(-3, 3), theta=rng.uniform(0.01, 0.99),
              gamma=rng.uniform(0.01, 0.99), alpha0=log_uniform(-3, 3),
              sigma_lb=sigma_lb, sigma_ub=sigma_lb * log_uniform(0, 2),
              tau=log_uniform(-3, 3) if rng.random() < 0.9 else 0.0,
              kappa=log_uniform(-3, 3), eta=rng.uniform(0.001, 0.99),
              eps=log_uniform(-6, 3),
              eps_f=log_uniform(-12, 0) if rng.random() < 0.7 else 0.0,
              eps_g=log_uniform(-8, 0) if rng.random() < 0.7 else 0.0,
              delta=rng.uniform(0.0, 0.49))
    if rng.random() < 0.6:
        kw["strong_convexity"] = log_uniform(-4, 2)
    if rng.random() < 0.5:
        kw.update(nu=log_uniform(-3, 1), b=log_uniform(-3, 1))
    if rng.random() < 0.3:
        kw.update(bounded_noise=False, nu=log_uniform(-3, 1),
                  b=log_uniform(-3, 1), noise_margin=log_uniform(-2, 2))
    if rng.random() < 0.7:
        kw["p_hat"] = rng.uniform(0.01, 0.99)
    if rng.random() < 0.7:
        kw["initial_gap"] = log_uniform(-3, 4) if rng.random() < 0.9 else 0.0
    if rng.random() < 0.4:
        kw["tail_slack"] = log_uniform(-8, 0)
    return TheoryInputs(**kw)


def test_report_matches_the_frozen_per_case_functions():
    rng = np.random.default_rng(2323)
    compared = 0
    for _ in range(2500):
        v = draw_any_inputs(rng)
        try:
            expected = frozen_report_text(v)
        except ZeroDivisionError:  # a progress unit of 0; see below
            continue
        assert report_text(v) == expected, v
        assert repr(progress_constants(v, "nonconvex")) \
            == repr(frozen_nonconvex_constants(v))
        if v.strong_convexity is not None:
            assert repr(progress_constants(v, "strongly-convex")) \
                == repr(frozen_strongly_convex_constants(v))
        compared += 1
    assert compared >= 2000


@pytest.mark.parametrize("body", [
    # eps**2 underflows: the nonconvex progress unit is 0.
    "lipschitz = 1\neps = 1e-170\n",
    # 1 - alpha_bar * ... * strong_convexity rounds to 1: the log unit is 0.
    "lipschitz = 1\nstrong_convexity = 1e-320\np_hat = 0.8\ninitial_gap = 1\n",
])
def test_zero_progress_unit_is_reported(tmp_path, body):
    path = tmp_path / "theory.txt"
    path.write_text(body)
    v = theory_inputs_from_file(path)
    text = report_text(v)
    assert "    ! progress unit " in text
    mode = "nonconvex" if v.strong_convexity is None else "strongly-convex"
    c = progress_constants(v, mode)
    assert c.progress_unit == 0.0
    assert math.isnan(c.p_ell)
    assert not c.feasible
    if v.p_hat is not None:
        bound = iteration_bound(v, mode)
        assert math.isnan(bound.gap_term) and math.isnan(bound.t_min)
        assert not bound.feasible


@pytest.mark.parametrize("body, issue", [
    # (1 + tau)**2 overflows: m1, hence the progress unit, is 0.
    ("lipschitz = 1\ntau = 1e160\n", "! progress unit 0 is not positive"),
    ("lipschitz = 1\ntau = 1e160\nstrong_convexity = 0.5\n",
     "! progress unit -0 is not positive"),
    ("lipschitz = 1\neps = 1e160\n", "! eps**2 overflows"),
    # nu_r**2 underflows to 0 in the noise term of the tail bound.
    ("lipschitz = 1\neps = 1\nnu = 1e-200\nb = 1\ntail_slack = 1e-5\n"
     "p_hat = 0.8\ninitial_gap = 1\n",
     "! success probability at t_min is undefined"),
])
def test_extreme_inputs_are_reported(tmp_path, body, issue):
    path = tmp_path / "theory.txt"
    path.write_text(body)
    assert issue in report_text(theory_inputs_from_file(path))


def test_failure_probability_is_nan_where_its_noise_term_is():
    assert math.isnan(failure_probability(0.9, 0.8, 10.0, 1e-5, 2e-200, 2.0))
    assert math.isnan(failure_probability(0.9, 0.8, 10.0, 1e200, 1e200, 2.0))
    assert math.isnan(success_probability(0.9, 0.8, 10.0, 1e-5, 2e-200, 2.0))


def test_contraction_within_an_ulp_of_one_gives_a_nan_floor():
    # m1 * strong_convexity * alpha_bar = 2**-53: 1 - that is below 1, but
    # its power rounds back to 1.
    c = progress_constants(nc_inputs(), "nonconvex")
    v = nc_inputs(strong_convexity=2.0 ** -53 / (c.m1 * c.alpha_bar),
                  eps_f=1e-3)
    floor = accuracy_floor(v, "strongly-convex")
    assert math.isnan(floor.branches[1]) and math.isnan(floor.value)
    assert "strongly convex case" in report_text(v)


@pytest.mark.parametrize("body, issue", [
    # 2 nu**2 underflows to 0: the Gaussian exponent is huge, the b branch
    # decides.
    ("lipschitz = 1\nbounded_noise = false\nnu = 1e-170\nb = 1\n"
     "noise_margin = 1\n",
     "! true-iteration probability p=0.293469 is not above 1/2"),
    # u**2 and 2 nu**2 both overflow: the Gaussian exponent is 1/2.
    ("lipschitz = 1\nbounded_noise = false\nnu = 1e160\nb = 1\n"
     "noise_margin = 1e160\n",
     "! true-iteration probability p=0.293469 is not above 1/2"),
])
def test_noise_tail_exponent_survives_extreme_nu(tmp_path, body, issue):
    path = tmp_path / "theory.txt"
    path.write_text(body)
    v = theory_inputs_from_file(path)
    # The tail exponent is 1/2 in both cases.
    p = true_iteration_probability(v)
    assert p == pytest.approx(1.0 - 0.1 - math.exp(-0.5))
    assert issue in report_text(v)


def test_margin_far_below_zero_gives_minus_infinite_p():
    v = nc_inputs(bounded_noise=False, nu=1.0, b=1.0, noise_margin=-1e300)
    assert true_iteration_probability(v) == -math.inf
    assert "! true-iteration probability p=-inf is not above 1/2" \
        in report_text(v)


def test_subnormal_spectrum_bounds_give_an_infinite_bias_branch():
    # lipschitz * sigma_ub * (1 - eta) underflows to 0.
    v = TheoryInputs(lipschitz=0.1, sigma_lb=5e-324, sigma_ub=5e-324)
    c = progress_constants(v, "nonconvex")
    assert c.alpha_bar_bias == math.inf
    assert c.alpha_bar == c.alpha_bar_curvature
    assert "! progress unit 0 is not positive" in report_text(v)


def test_subnormal_curvature_denominator_is_reassociated():
    # (2 kappa + lipschitz sigma_ub) sigma_ub underflows to 0; the branch
    # is 2 (1 - theta) / (2 kappa) at a spectrum ratio of 1.
    v = TheoryInputs(lipschitz=1e-300, kappa=1e-300, sigma_lb=1e-30,
                     sigma_ub=1e-30)
    c = progress_constants(v, "nonconvex")
    assert c.alpha_bar_curvature == pytest.approx(0.8e300)
    assert "alpha_bar" in report_text(v)


@pytest.mark.parametrize("overrides, branch", [
    # 2 strong_convexity eta**2 underflows; the gradient branch is 0 for
    # a noiseless gradient.
    (dict(strong_convexity=5e-324), 0.0),
    # eta**2 underflows; eps_g**2 / (2 strong_convexity eta**2) = 5e19.
    (dict(strong_convexity=1.0, eta=1e-170, eps_g=1e-160), 5e19),
])
def test_strongly_convex_floor_survives_an_underflowed_denominator(
        overrides, branch):
    v = TheoryInputs(lipschitz=1.0, **overrides)
    floor = accuracy_floor(v, "strongly-convex")
    assert floor.branches[0] == pytest.approx(branch)
    assert floor.value == pytest.approx(branch)
    assert "strongly convex case" in report_text(v)


def test_report_survives_one_extreme_field():
    """Fuzz: one field log-uniform over [1e-323, 1e308], the rest drawn
    as in ``draw_any_inputs``.  Every valid draw gives a report whose
    ``p`` and ``alpha_bar`` are numbers.  ``sigma_ub`` is drawn with
    ``sigma_lb`` at its drawn ratio below it; any other out-of-range draw
    is rejected by ``TheoryInputs`` itself."""
    names = [f.name for f in dataclasses.fields(TheoryInputs)
             if f.name != "bounded_noise"]
    rng = np.random.default_rng(2610)
    reported = 0
    for _ in range(4000):
        kw = dataclasses.asdict(draw_any_inputs(rng))
        name = names[rng.integers(len(names))]
        value = float(10.0 ** rng.uniform(-323.0, 308.0))
        if name == "sigma_ub":
            kw["sigma_lb"] = value * kw["sigma_lb"] / kw["sigma_ub"]
        kw[name] = value
        try:
            v = TheoryInputs(**kw)
        except ConfigurationError:
            continue
        report_text(v)
        for mode in theory.MODES:
            if mode == "nonconvex" or v.strong_convexity is not None:
                c = progress_constants(v, mode)
                assert not math.isnan(c.p) and not math.isnan(c.alpha_bar), kw
        reported += 1
    assert reported >= 3000


@pytest.mark.parametrize("fields_at_once", [2, 3])
def test_report_survives_several_extreme_fields(fields_at_once):
    """Fuzz: ``fields_at_once`` distinct fields extreme together, each
    log-uniform over [1e-323, 1e308] or, one time in four, infinite; the
    rest drawn as in ``draw_any_inputs``.  ``TheoryInputs`` rejects the
    infinities it does not accept (``sigma_ub``, ``noise_margin`` and the
    fields bounded to an interval).  Every valid draw gives a report whose
    ``p`` and ``alpha_bar`` are numbers, or whose section says why not in
    a ``!`` issue line."""
    names = [f.name for f in dataclasses.fields(TheoryInputs)
             if f.name != "bounded_noise"]
    rng = np.random.default_rng(2710 + fields_at_once)
    reported = infinite = 0
    for _ in range(3000):
        kw = dataclasses.asdict(draw_any_inputs(rng))
        for index in rng.choice(len(names), fields_at_once, replace=False):
            name = names[index]
            value = (math.inf if rng.random() < 0.25
                     else float(10.0 ** rng.uniform(-323.0, 308.0)))
            if name == "sigma_ub" and math.isfinite(value):
                kw["sigma_lb"] = value * kw["sigma_lb"] / kw["sigma_ub"]
            kw[name] = value
        try:
            v = TheoryInputs(**kw)
        except ConfigurationError:
            continue
        text = report_text(v)
        for mode in theory.MODES:
            if mode == "nonconvex" or v.strong_convexity is not None:
                c = progress_constants(v, mode)
                if math.isnan(c.p) or math.isnan(c.alpha_bar):
                    assert c.issues and "    ! " in text, kw
        reported += 1
        infinite += math.inf in kw.values()
    assert reported >= 1200 and infinite >= 500
