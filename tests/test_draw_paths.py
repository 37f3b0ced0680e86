"""The single-point draw paths against the forms they replace, bit for bit.

``OracleModel.function_estimate`` draws a synthetic point directly, not as
a one-row ``function_estimates`` batch; ``_draw_gradient`` draws additive
and mixed-Gaussian noise from one scalar scale, not through a per-coordinate
scale array; the step loop averages its two function variances with float
arithmetic, not ``np.mean``.  Each must give the same value, sample count,
variance and random stream as the form it replaced.
"""

import itertools
import math

import numpy as np
import pytest

from qsass.oracles import GradientEstimate, OracleModel, OracleParams
from qsass.problems import builtin_problem
from qsass.solver import _mean_variance

SYNTHETIC = ("exact", "additive", "multiplicative", "mixed-gaussian")
SAMPLE_COUNTS = (1, 2, 10 ** 9)
# A scale of 1e-170 squares to 0.0, so its variance takes the zero branch;
# the parent's mask drew no chi-square for a NaN square either.
SCALES = (0.0, 1e-170, 1e-6, 1.0, 1e6, math.nan)


def params_with_scale(scale):
    return OracleParams(function_scale=scale, gradient_scale=scale,
                        relative_percent=scale, mixed_small=scale,
                        mixed_large=scale)


def twin_models(kind, params, seed):
    return (OracleModel(kind, params, seed=seed),
            OracleModel(kind, params, seed=seed))


def assert_same_stream(first, second):
    assert first.rng.bit_generator.state == second.rng.bit_generator.state


def same_float(a, b):
    """Equal bits, or both ``None``."""
    if a is None or b is None:
        return a is None and b is None
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def points(problem, count, seed):
    rng = np.random.default_rng(seed)
    return [problem.start_point] + [
        problem.start_point + rng.standard_normal(problem.dim)
        for _ in range(count - 1)]


class ParentGradientDraw:
    """The direct gradient draw as it was written before the scalar-scale
    form: a full scale array and a masked chi-square over its nonzero
    squares."""

    def __init__(self, model):
        self.model = model

    def coord_variances(self, true_vars, n_samples):
        if n_samples < 2:
            return None
        out = np.zeros_like(true_vars)
        nonzero = true_vars > 0.0
        k = int(np.count_nonzero(nonzero))
        if k:
            chis = self.model.rng.chisquare(n_samples - 1, size=k)
            out[nonzero] = true_vars[nonzero] * chis / (n_samples - 1)
        return out

    def __call__(self, problem, x, n_samples):
        model = self.model
        grad = problem.gradient(np.asarray(x, dtype=float))
        n = grad.shape[0]
        if model.kind == "exact":
            return GradientEstimate(grad, 1, 0.0)
        if model.kind == "additive":
            scales = np.full(n, model.params.gradient_scale)
        elif model.kind == "multiplicative":
            scales = np.abs(grad) * model.params.relative_percent / 100.0
        else:
            large = model.rng.random() < model.params.mixed_large_prob
            scales = np.full(n, model.params.mixed_large if large
                             else model.params.mixed_small)
        vector = (grad + scales * model.rng.standard_normal(n)
                  / math.sqrt(n_samples))
        coord_var = self.coord_variances(scales ** 2, n_samples)
        total = float(np.sum(coord_var)) if coord_var is not None else None
        return GradientEstimate(vector, n_samples, total)


@pytest.mark.parametrize("kind", SYNTHETIC)
@pytest.mark.parametrize("scale", SCALES)
class TestSinglePointDraws:
    def test_function_estimate_is_the_one_row_batch(self, kind, scale):
        problem = builtin_problem("rosenbrock-chain", 4)
        direct, batch = twin_models(kind, params_with_scale(scale), 17)
        for x, n in itertools.product(points(problem, 3, 1), SAMPLE_COUNTS):
            got = direct.function_estimate(problem, x, n)
            values, samples, variances = batch.function_estimates(
                problem, x[None], [n])
            assert same_float(got.value, values[0])
            assert type(got.value) is float
            assert got.samples == samples
            assert same_float(got.variance,
                              None if variances is None else variances[0])
            assert_same_stream(direct, batch)

    def test_gradient_draw_is_the_parent_form(self, kind, scale):
        problem = builtin_problem("cosine-chain", 4)
        new, old = twin_models(kind, params_with_scale(scale), 23)
        parent = ParentGradientDraw(old)
        # Enough calls that the mixed model meets both regimes.
        for x, n in itertools.product(points(problem, 6, 2), SAMPLE_COUNTS):
            got = new._draw_gradient(problem, x, n)
            want = parent(problem, x, n)
            assert got.vector.tobytes() == want.vector.tobytes()
            assert got.samples == want.samples
            assert same_float(got.variance, want.variance)
            assert_same_stream(new, old)


def test_mixed_draws_meet_both_regimes():
    problem = builtin_problem("cosine-chain", 4)
    model = OracleModel("mixed-gaussian", seed=23)
    variances = {model._draw_gradient(problem, problem.start_point, 2).variance
                 > 1.0 for _ in range(18)}
    assert variances == {False, True}


class TestVarianceAverage:
    def test_matches_np_mean_on_random_pairs(self):
        rng = np.random.default_rng(5)
        pairs = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (5e-324, 5e-324),
                 (1e308, 1e307), (math.nextafter(1.0, 2.0), 1.0)]
        for _ in range(2000):
            a, b = 10.0 ** rng.uniform(-300, 300, 2) * rng.random(2)
            pairs.append((float(a), float(b)))
            pairs.append((float(rng.random()), float(rng.random())))
        for a, b in pairs:
            want = float(np.mean([a, b]))
            assert same_float(_mean_variance(a, b), want)

    def test_one_variance_missing(self):
        for v in (0.0, 5e-324, 0.7, 1e300):
            assert same_float(_mean_variance(v, None), float(np.mean([v])))
            assert same_float(_mean_variance(None, v), float(np.mean([v])))

    def test_both_missing(self):
        assert _mean_variance(None, None) is None
