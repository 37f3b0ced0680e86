import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsass.errors import UnsupportedProblemError
from qsass.oracles import (NoiseRecord, OracleModel, OracleParams,
                           adaptive_eps_f, adaptive_eps_g,
                           allocate_shot_budget, chebyshev_sample_size,
                           fd_gradient_estimate, fd_radius, fd_sample_size,
                           parameter_shift_gradient)
from qsass.problems import Problem, builtin_problem, vqe_problem

BUILTIN_FAMILIES = ["quadratic", "ill-conditioned-quadratic",
                    "rosenbrock-chain", "cosine-chain", "trig-sum"]


def constant_problem(value, dim=1):
    return Problem("const", dim, lambda x: value,
                   lambda x: np.zeros(dim), np.zeros(dim))


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    return Problem("linear", a.size, lambda x: float(a @ x),
                   lambda x: a.copy(), np.zeros(a.size))


class TestFunctionDraws:
    def test_exact_passthrough(self):
        model = OracleModel("exact")
        p = constant_problem(5.0)
        for n in (1, 7, 1000):
            value, used = model.function_estimate(p, np.zeros(1), n)
            assert value == 5.0
            assert used == 1

    def test_additive_mean_concentrates(self):
        model = OracleModel("additive", seed=2024)
        p = constant_problem(0.0)
        value, _ = model.function_estimate(p, np.zeros(1), 10000)
        assert abs(value) <= 0.04     # 4 sigma of N(0, 1/10000)

    def test_multiplicative_zero_value_is_exact(self):
        model = OracleModel("multiplicative", seed=5)
        p = constant_problem(0.0)
        for _ in range(10):
            value, _ = model.function_estimate(p, np.zeros(1), 3)
            assert value == 0.0

    def test_reported_and_realized_variance_agree(self):
        # Both the spread of the averaged values and the reported sample
        # variance should track the single-draw variance.
        model = OracleModel("additive", seed=8)
        p = constant_problem(0.0)
        n = 100
        values, reported = [], []
        for _ in range(1000):
            est = model.function_estimate(p, np.zeros(1), n)
            values.append(est.value)
            reported.append(est.variance)
        assert np.var(values) == pytest.approx(1.0 / n, rel=0.20)
        assert np.mean(reported) == pytest.approx(1.0, rel=0.20)

    def test_sample_count_validated(self):
        model = OracleModel("additive", seed=0)
        with pytest.raises(ValueError):
            model.function_estimate(constant_problem(0.0), np.zeros(1), 0)


class TestGradientDraws:
    def test_exact(self):
        model = OracleModel("exact")
        p = builtin_problem("quadratic", 3)
        x = np.array([1.0, -2.0, 0.5])
        vec, used = model.gradient_estimate(p, x, 50)
        assert_allclose(vec, p.gradient(x))
        assert used == 1

    def test_multiplicative_stationary_point_is_exact(self):
        model = OracleModel("multiplicative", seed=4)
        p = builtin_problem("quadratic", 3)
        vec, _ = model.gradient_estimate(p, np.zeros(3), 5)
        assert_allclose(vec, 0.0)

    def test_component_variance_scales_with_samples(self):
        model = OracleModel("additive", seed=12)
        p = builtin_problem("quadratic", 2)
        n = 50
        draws = np.array([model.gradient_estimate(p, np.ones(2), n).vector
                          for _ in range(1000)])
        for i in range(2):
            assert np.var(draws[:, i]) == pytest.approx(1.0 / n, rel=0.20)

    def test_mixed_regime_is_per_call(self):
        # Every call is entirely small-noise or entirely large-noise; with
        # n_samples > 1 the per-call coordinate scatter reveals which.
        params = OracleParams(mixed_small=1e-6, mixed_large=1e6,
                              mixed_large_prob=0.2)
        model = OracleModel("mixed-gaussian", params=params, seed=77)
        p = builtin_problem("quadratic", 4)
        big = 0
        for _ in range(400):
            vec, _ = model.gradient_estimate(p, np.ones(4), 2)
            spread = np.abs(vec - p.gradient(np.ones(4)))
            assert spread.max() < 1e3 or spread.min() > 1e2
            big += spread.max() > 1e2
        assert 40 <= big <= 130      # binomial(400, 0.2) within ~5 sigma

    def test_vqe_measurement_model_has_no_direct_draws(self):
        with pytest.raises(ValueError):
            OracleModel("vqe-measurement", gradient_mode="direct")
        # ``auto`` resolves to the shift rule, drawn bit for bit as the
        # estimator itself draws it.
        model = OracleModel("vqe-measurement", seed=1)
        reference = OracleModel("vqe-measurement", seed=1)
        p = vqe_problem("toy-1q")
        est = model.gradient_estimate(p, np.array([0.3]), 5)
        ref = parameter_shift_gradient(reference, p, np.array([0.3]), 5)
        assert np.array_equal(est.vector, ref.vector)
        assert est.samples == ref.samples
        assert est.variance == ref.variance
        assert (model.rng.bit_generator.state
                == reference.rng.bit_generator.state)


class TestAdaptiveTolerances:
    def test_eps_f_examples(self):
        assert adaptive_eps_f(1e-4, 1.0, 0.2, 1.0) == pytest.approx(0.002)
        assert adaptive_eps_f(1.0, 1.0, 0.2, 1.0) == 1.0
        assert adaptive_eps_f(1e-3, 2.0, 0.3, 0.0) == 1e-3

    def test_eps_g_examples(self):
        assert adaptive_eps_g(0.01, 10.0, 1.0, 0.5, 2.0) == pytest.approx(1.0)
        assert adaptive_eps_g(0.01, 0.1, 1.0, 5.0, 2.0) == pytest.approx(0.2)
        assert adaptive_eps_g(0.01, 10.0, 1.0, 0.5, 0.0) == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_eps_f(-1.0, 1.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            adaptive_eps_g(0.01, 10.0, 1.0, -1.0, 2.0)


def parent_compute_sample_sizes(var_f, var_g, eps_f_k, eps_g_k, delta,
                                cap=10 ** 8):
    """The former joint ``(n_f, n_g)`` sizing rule, frozen."""
    cap = int(cap)
    n_f = math.ceil(var_f / (eps_f_k * eps_f_k))
    n_g = math.ceil(var_g / (delta * eps_g_k * eps_g_k))
    return (min(max(n_f, 1), cap), min(max(n_g, 1), cap))


def parent_zero_tolerance_budget(variance, cap):
    """The former solver's function budget at ``eps_f_k <= 0``, frozen."""
    return 1 if variance == 0.0 else int(cap)


class TestSampleSizes:
    def test_examples(self):
        assert chebyshev_sample_size(0.0, 0.1, 1.0) == 1
        assert chebyshev_sample_size(1.0, 1.0, 0.1) == 10
        assert chebyshev_sample_size(4.0, 0.1, 1.0) == 400
        assert chebyshev_sample_size(9.0, 1.0, 0.1) == 90

    def test_cap(self):
        assert chebyshev_sample_size(1e30, 1e-6, 1.0, cap=10 ** 8) == 10 ** 8
        assert chebyshev_sample_size(1e30, 1e-6, 0.1, cap=10 ** 8) == 10 ** 8

    def test_zero_tolerance(self):
        # One draw when there is no noise to average, the cap otherwise.
        for eps in (0.0, -1.0):
            assert chebyshev_sample_size(0.0, eps, 0.1, cap=50) == 1
            assert chebyshev_sample_size(2.0, eps, 1.0, cap=50) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_sample_size(-1.0, 0.1, 0.1)
        for delta in (0.0, 1.5):
            with pytest.raises(ValueError):
                chebyshev_sample_size(1.0, 0.1, delta)
        with pytest.raises(ValueError):
            chebyshev_sample_size(1.0, 0.1, 0.1, cap=0)

    def test_matches_the_former_joint_rule_bit_for_bit(self):
        # n_g is the joint rule's gradient half at the step's delta, n_f its
        # function half at delta = 1, over variances that include 0.
        rng = np.random.default_rng(70)
        variances = np.concatenate([[0.0], 10.0 ** rng.uniform(-12, 12, 60)])
        tolerances = 10.0 ** rng.uniform(-8, 3, 40)
        caps = (1, 7, 10 ** 8, 10 ** 12)
        for var, eps, cap in itertools.product(variances, tolerances, caps):
            delta = float(rng.uniform(1e-3, 0.5))
            n_f = parent_compute_sample_sizes(var, 0.0, eps, 1.0, delta,
                                              cap)[0]
            n_g = parent_compute_sample_sizes(0.0, var, 1.0, eps, delta,
                                              cap)[1]
            assert chebyshev_sample_size(var, eps, 1.0, cap) == n_f
            assert chebyshev_sample_size(var, eps, delta, cap) == n_g

    def test_zero_tolerance_matches_the_former_function_budget(self):
        model = OracleModel("additive")
        for var, eps, cap in itertools.product((0.0, 1e-300, 0.5, 1e30),
                                               (0.0, -0.0, -1e-3),
                                               (1, 7, 10 ** 8)):
            noise = NoiseRecord(var_f=var)
            assert (model.function_budget(noise, eps, cap)
                    == parent_zero_tolerance_budget(var, cap))

    def test_fd_budget(self):
        # l_bar^2 n^2 var_f / (4 (n+1) delta^2 eps^4) with a floor of n+1
        raw = (2.0 ** 2 * 3 ** 2 * 0.5) / (4.0 * 4 * 0.1 ** 2 * 0.2 ** 4)
        assert fd_sample_size(0.5, 2.0, 3, 0.1, 0.2) == int(np.ceil(raw))
        assert fd_sample_size(0.0, 2.0, 3, 0.1, 0.2) == 4

    def test_fd_budget_of_a_diverged_iterate(self):
        # A float power raises on overflow: eps^4 that overflows counts as
        # infinite and floors the budget; an infinite variance, an eps^4
        # that underflows to 0, or inf / inf takes the cap.
        assert fd_sample_size(1e185, 2e3, 4, 0.1, 1e80) == 5
        assert fd_sample_size(np.inf, 2e3, 4, 0.1, 1.0, cap=1000) == 1000
        assert fd_sample_size(np.inf, 2e3, 4, 0.1, 1e80, cap=1000) == 1000
        assert fd_sample_size(1.0, 2e3, 4, 0.1, 1e-90, cap=1000) == 1000
        assert fd_sample_size(0.0, 2e3, 4, 0.1, 1e-90, cap=1000) == 5


class TestAllocation:
    def test_equal_variances(self):
        alloc = allocate_shot_budget([2.0, 2.0], 10)
        assert_allclose(alloc.weights, [0.5, 0.5])
        assert list(alloc.shots) == [5, 5]

    def test_proportional_to_std(self):
        alloc = allocate_shot_budget([1.0, 4.0], 9)
        assert_allclose(alloc.weights, [1.0 / 3.0, 2.0 / 3.0])
        assert list(alloc.shots) == [3, 6]

    def test_zero_variance_gets_floor_weight(self):
        alloc = allocate_shot_budget([0.0, 1.0], 100)
        assert alloc.weights[0] > 0.0
        assert alloc.weights[0] == pytest.approx(1e-6, rel=1e-3)
        assert alloc.shots[0] >= 1
        assert alloc.shots.sum() == 100

    def test_all_zero_variances_uniform(self):
        alloc = allocate_shot_budget([0.0, 0.0, 0.0], 7)
        assert_allclose(alloc.weights, 1.0 / 3.0)
        assert alloc.shots.sum() == 7
        assert alloc.shots.min() >= 2

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            allocate_shot_budget([1.0, 1.0, 1.0], 2)

    def test_weights_minimize_objective_against_grid_search(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(1e-3, 1.0 - 1e-3, 201)
        for k in (2, 3):
            for _ in range(5):
                var = rng.uniform(0.1, 5.0, k)
                w = allocate_shot_budget(var, 1000).weights
                mine = np.sum(var / w)
                if k == 2:
                    candidates = ((a, 1.0 - a) for a in grid)
                else:
                    candidates = ((a, b, 1.0 - a - b)
                                  for a, b in itertools.product(grid, grid)
                                  if 1.0 - a - b > 1e-3)
                best = min(np.sum(var / np.array(c)) for c in candidates)
                assert mine <= best + 1e-6 * max(best, 1.0)


class TestFiniteDifferences:
    def test_radius_rule(self):
        assert fd_radius(1e-4, 1.0) == 2.0 * np.sqrt(1e-4) + 1e-8
        assert fd_radius(0.0, 5.0) == 1e-8
        with pytest.raises(ValueError):
            fd_radius(-1.0, 1.0)
        with pytest.raises(ValueError):
            fd_radius(1.0, 0.0)

    def test_linear_function_is_differenced_exactly(self):
        # Power-of-two slopes and x = 0 keep every float operation exact.
        a = np.array([2.0, 0.5, -4.0])
        p = linear_problem(a)
        model = OracleModel("exact")
        est = fd_gradient_estimate(model, p, np.zeros(3), 40, l_bar=1.0,
                                   e_std=0.0)
        assert list(est.vector) == list(a)

    def test_budget_floor(self):
        p = linear_problem(np.ones(3))
        with pytest.raises(ValueError):
            fd_gradient_estimate(OracleModel("exact"), p, np.zeros(3), 3)

    def test_chebyshev_style_guarantee(self):
        # With the simplified budget rule the estimate should land within
        # eps_g of the true gradient in at least 85 of 100 trials.  The
        # budget rule only controls sampling noise; the difference bias at
        # the chosen radius is sqrt(2 (n+1) delta) * eps, so delta must be
        # small for the combined error to clear the threshold.
        p = builtin_problem("quadratic", 2)
        x = np.array([0.7, -0.3])
        delta, eps = 0.01, 0.25
        l_bar = p.hessian_norm_hint
        var_f = 1.0
        budget = fd_sample_size(var_f, l_bar, 2, delta, eps)
        s0 = budget // 3
        e_std = np.sqrt(var_f / s0)
        hits = 0
        model = OracleModel("additive", seed=31)
        for _ in range(100):
            est = fd_gradient_estimate(model, p, x, budget, l_bar=l_bar,
                                       e_std=e_std)
            hits += np.linalg.norm(est.vector - p.gradient(x)) <= eps
        assert hits >= 85


class TestParameterShift:
    def test_toy_stationary_point(self):
        p = vqe_problem("toy-1q")
        model = OracleModel("exact")
        est = parameter_shift_gradient(model, p, np.zeros(1), 2)
        assert est.vector[0] == pytest.approx(0.0, abs=1e-15)

    def test_toy_quarter_turn(self):
        p = vqe_problem("toy-1q")
        model = OracleModel("exact")
        est = parameter_shift_gradient(model, p, np.array([0.5 * np.pi]), 2)
        assert est.vector[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_analytic_gradient(self):
        p = vqe_problem("h2-like")
        model = OracleModel("exact")
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, 3)
            est = parameter_shift_gradient(model, p, x, 6)
            assert np.max(np.abs(est.vector - p.gradient(x))) <= 1e-12

    def test_non_vqe_problem_rejected(self):
        p = builtin_problem("quadratic", 2)
        with pytest.raises(UnsupportedProblemError):
            parameter_shift_gradient(OracleModel("exact"), p, np.zeros(2), 4)

    def test_measurement_budget_allocation(self):
        p = vqe_problem("toy-1q")
        model = OracleModel("vqe-measurement", seed=9)
        est = parameter_shift_gradient(model, p, np.array([1.0]), 1000)
        assert est.samples == 1000
        assert est.point_variances.shape == (2,)
        assert est.variance > 0.0


class TestOracleContracts:
    def test_unbiased_single_draw_means(self):
        rng_x = np.random.default_rng(40)
        for kind in ("additive", "multiplicative"):
            for family in BUILTIN_FAMILIES:
                p = builtin_problem(family, 3)
                model = OracleModel(kind, seed=41)
                for _ in range(10):
                    x = p.start_point + rng_x.standard_normal(3)
                    est = model.function_estimate(p, x, 10 ** 5)
                    se = np.sqrt(est.variance / 10 ** 5)
                    assert abs(est.value - p.objective(x)) <= 4.0 * se + 1e-12

    def test_unbiased_measurement_means(self):
        model = OracleModel("vqe-measurement", seed=42)
        rng_x = np.random.default_rng(43)
        for preset in ("toy-1q", "h2-like"):
            p = vqe_problem(preset)
            for _ in range(10):
                x = rng_x.uniform(-np.pi, np.pi, p.dim)
                est = model.function_estimate(p, x, 10 ** 5)
                se = np.sqrt(est.variance / 10 ** 5)
                assert abs(est.value - p.objective(x)) <= 4.0 * se + 1e-12

    def test_first_order_event_frequency(self):
        # Chebyshev sizing must deliver the gradient event at rate >= 1 -
        # delta - 0.05.
        p = builtin_problem("quadratic", 4)
        x = 0.5 * np.ones(4)
        delta, eps_g, tau, kappa, alpha = 0.1, 0.5, 10.0, 1.0, 0.05
        model = OracleModel("additive", seed=50)
        var_g = 4.0          # four unit-variance coordinates
        n_g = chebyshev_sample_size(var_g, eps_g, delta)
        hits = 0
        for _ in range(1000):
            est = model.gradient_estimate(p, x, n_g)
            bound = max(eps_g, min(tau, kappa * alpha)
                        * np.linalg.norm(est.vector))
            hits += np.linalg.norm(est.vector - p.gradient(x)) <= bound
        assert hits / 1000.0 >= (1.0 - delta) - 0.05

    def test_zeroth_order_first_moment(self):
        p = constant_problem(2.0)
        eps_f_k = 0.05
        model = OracleModel("additive", seed=51)
        n_f = chebyshev_sample_size(1.0, eps_f_k, 1.0)
        errs = [abs(model.function_estimate(p, np.zeros(1), n_f).value - 2.0)
                for _ in range(1000)]
        assert np.mean(errs) <= 1.05 * eps_f_k


# -- the one gradient entry point against the solver's former branches -------

def reference_direct_draw(model, problem, x, n_samples):
    """A direct gradient draw as the solver's direct branch made it."""
    grad = problem.gradient(x)
    n = grad.shape[0]
    if model.kind == "exact":
        return grad, 1, 0.0
    if model.kind == "additive":
        scales = np.full(n, model.params.gradient_scale)
    else:
        assert model.kind == "mixed-gaussian"
        large = model.rng.random() < model.params.mixed_large_prob
        scales = np.full(n, model.params.mixed_large if large
                         else model.params.mixed_small)
    vector = grad + scales * model.rng.standard_normal(n) / np.sqrt(n_samples)
    if n_samples < 2:
        return vector, n_samples, None
    chis = model.rng.chisquare(n_samples - 1, size=n)
    return (vector, n_samples,
            float(np.sum(scales ** 2 * chis / (n_samples - 1))))


def reference_budget(mode, state, problem, eps_g_k, delta, cap):
    """The solver's per-mode gradient budget rule."""
    n = problem.dim
    if mode == "fd":
        if eps_g_k <= 0.0:
            return max(chebyshev_sample_size(state["var_f"], eps_g_k, delta,
                                             cap), n + 1)
        return fd_sample_size(state["var_f"],
                              max(problem.hessian_norm_hint, 1e-8), n, delta,
                              eps_g_k, cap)
    n_g = chebyshev_sample_size(state["var_g"], eps_g_k, delta, cap)
    return max(n_g, 2 * n) if mode == "shift" else n_g


def reference_draw(model, problem, x, budget, state, pilot):
    """One gradient draw by the solver's per-mode branches, updating
    ``state`` (``var_f``, ``var_g``, ``points``) as the pilot or a step
    did; returns ``(vector, samples)``."""
    n = problem.dim
    mode = model.gradient_mode
    if mode == "direct":
        vector, used, variance = reference_direct_draw(model, problem, x,
                                                       budget)
        if pilot:
            state["var_g"] = variance if variance is not None else 0.0
        elif variance is not None:
            state["var_g"] = variance
        return vector, used
    if mode == "shift":
        est = parameter_shift_gradient(model, problem, x, budget,
                                       state["points"])
        if pilot:
            state["var_g"] = est.variance if est.variance is not None else 0.0
            state["points"] = est.point_variances
        elif est.variance is not None:
            state["var_g"] = est.variance
            state["points"] = est.point_variances
        return est.vector, est.samples
    s0 = budget // (n + 1) if pilot else max(budget // (n + 1), 1)
    est = fd_gradient_estimate(model, problem, x, budget,
                               e_std=np.sqrt(state["var_f"] / s0),
                               point_variances=state["points"])
    if pilot or est.point_variances is not None:
        state["points"] = est.point_variances
    if est.base_variance is not None:
        state["var_f"] = est.base_variance
    return est.vector, est.samples


GRADIENT_CASES = [
    ("additive", "direct", None), ("mixed-gaussian", "direct", None),
    ("exact", "shift", "h2-like"), ("vqe-measurement", "shift", "h2-like"),
    ("additive", "fd", None), ("vqe-measurement", "fd", "lih-like"),
]


class TestGradientEntryPoint:
    @pytest.mark.parametrize("kind, mode, preset", GRADIENT_CASES)
    def test_matches_the_solver_branches_bit_for_bit(self, kind, mode,
                                                     preset):
        p = (vqe_problem(preset) if preset is not None
             else builtin_problem("quadratic", 4, condition=10.0))
        params = OracleParams(mixed_small=1e-2, mixed_large=1e2,
                              mixed_large_prob=0.5)
        model = OracleModel(kind, params, seed=61, gradient_mode=mode)
        ref = OracleModel(kind, params, seed=61, gradient_mode=mode)
        delta, cap, pilot = 0.1, 10 ** 8, 30
        rng_x = np.random.default_rng(62)

        def check(est, budget, vector, samples, ref_budget):
            assert np.array_equal(est.vector, vector)
            assert est.samples == samples and budget == ref_budget
            assert (noise.var_f, noise.var_g) == (state["var_f"],
                                                  state["var_g"])
            if state["points"] is None:
                assert noise.point_vars is None
            else:
                assert np.array_equal(noise.point_vars, state["points"])
            assert (model.rng.bit_generator.state
                    == ref.rng.bit_generator.state)

        # The pilot: function draws, then pilot draws per evaluation point.
        var_f = model.function_estimate(p, p.start_point, pilot).variance
        assert ref.function_estimate(p, p.start_point, pilot).variance == var_f
        noise = NoiseRecord(var_f=var_f)
        state = {"var_f": var_f, "var_g": 0.0, "points": None}
        budget = pilot * model.evaluation_points(p)
        est = model.gradient_estimate(p, p.start_point, budget, noise)
        ref_budget = pilot * {"direct": 1, "shift": 2 * p.dim,
                              "fd": p.dim + 1}[mode]
        vector, samples = reference_draw(ref, p, p.start_point, ref_budget,
                                         state, pilot=True)
        check(est, budget, vector, samples, ref_budget)

        # Steps; an eps_g_k of 1e6 puts the budget at its floor, where
        # single-shot draws report no variance and the record carries over.
        for eps_g_k in (0.5, 1e6, 1e-3, 1e6, 0.02):
            x = p.start_point + 0.3 * rng_x.standard_normal(p.dim)
            budget = model.gradient_budget(p, noise, eps_g_k, delta, cap)
            ref_budget = reference_budget(mode, state, p, eps_g_k, delta, cap)
            est = model.gradient_estimate(p, x, budget, noise)
            vector, samples = reference_draw(ref, p, x, ref_budget, state,
                                             pilot=False)
            check(est, budget, vector, samples, ref_budget)

    def test_fd_budget_at_zero_tolerance(self):
        # fd_sample_size needs eps_g_k > 0; at 0 the budget takes the
        # Chebyshev rule's one draw or cap, floored at the n + 1 points.
        p = builtin_problem("quadratic", 3)
        model = OracleModel("additive", gradient_mode="fd")
        for var_f, cap, want in ((0.0, 50, 4), (0.5, 50, 50), (0.5, 2, 4)):
            noise = NoiseRecord(var_f=var_f)
            assert model.gradient_budget(p, noise, 0.0, 0.1, cap) == want

    def test_none_variance_draw_keeps_the_record(self):
        p = builtin_problem("quadratic", 3)
        model = OracleModel("additive", seed=63)
        points = np.array([1.0, 2.0, 3.0])
        noise = NoiseRecord(var_f=0.5, var_g=7.0, point_vars=points)
        est = model.gradient_estimate(p, np.ones(3), 1, noise)
        assert est.variance is None
        assert noise == NoiseRecord(0.5, 7.0, points)
