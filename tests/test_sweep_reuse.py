"""The exact VQE gradient reads its forward states from the remembered
rotation sweep, and batch estimates come back as arrays: both must repeat
the forms they replaced bit for bit, random stream included.

``parent_energy_gradient`` is the gradient as written before, with its own
forward sweep and scalar ``cos``/``sin`` calls; ``parent_shift_gradient``
and ``parent_fd_gradient`` are the shift rule and forward differences as
written before, post-processing one estimate object per row (the finite
differences measuring the base point and the shifted points as one batch).
"""

import math

import numpy as np
import pytest

from qsass.oracles import (FunctionEstimate, GradientEstimate, OracleModel,
                           allocate_shot_budget, fd_gradient_estimate,
                           fd_radius, parameter_shift_gradient)
from qsass.problems import builtin_problem, vqe_problem

PRESETS = ["toy-1q", "h2-like", "lih-like"]
KINDS = ["vqe-measurement", "exact", "additive"]


def parent_energy_gradient(p, x):
    x = np.asarray(x, dtype=float)
    states = [p.reference_state]
    for g, xi in zip(p._generators, x):
        psi = states[-1]
        states.append(np.cos(0.5 * xi) * psi + np.sin(0.5 * xi) * (g @ psi))
    w = 2.0 * (p.hamiltonian @ states[-1])
    grad = np.zeros(p.dim)
    for i in range(p.dim - 1, -1, -1):
        g = p._generators[i]
        grad[i] = 0.5 * float(w @ (g @ states[i + 1]))
        ct, st = np.cos(0.5 * x[i]), np.sin(0.5 * x[i])
        w = ct * w - st * (g @ w)
    return grad


def parent_function_estimates(model, problem, xs, n_samples):
    """One estimate object per row: a measurement model measures the rows
    as one batch, a synthetic model draws them one by one."""
    if model.kind == "vqe-measurement":
        means, variances = problem.measure_batch(xs, n_samples, model.rng)
        return [FunctionEstimate(mean, n, var if n > 1 else None)
                for mean, var, n in zip(means.tolist(), variances.tolist(),
                                        n_samples)]
    return [model.function_estimate(problem, x, n)
            for x, n in zip(xs, n_samples)]


def parent_variances(estimates):
    variances = [est.variance for est in estimates]
    if any(v is None for v in variances):
        return None
    return np.array(variances, dtype=float)


def parent_shift_gradient(model, problem, x, budget, point_variances=None):
    n = problem.dim
    num_points = 2 * n
    if model.kind == "exact":
        shots = np.ones(num_points, dtype=np.int64)
    else:
        point_variances = np.asarray(
            np.ones(num_points) if point_variances is None else point_variances,
            dtype=float)
        shots = allocate_shot_budget(point_variances, budget).shots
    shift = np.diag(np.full(n, 0.5 * math.pi))
    points = np.empty((num_points, n))
    points[0::2] = x + shift
    points[1::2] = x - shift
    estimates = parent_function_estimates(model, problem, points,
                                          shots.tolist())
    values = np.array([est.value for est in estimates])
    vector = 0.5 * (values[0::2] - values[1::2])
    used = sum(est.samples for est in estimates)
    variances = parent_variances(estimates)
    if variances is None:
        return GradientEstimate(vector, used)
    sizing = 0.25 * float(np.sum(np.sqrt(variances))) ** 2
    return GradientEstimate(vector, used, sizing, point_variances=variances)


def parent_fd_gradient(model, problem, x, budget, e_std, point_variances):
    n = problem.dim
    l_bar = max(float(problem.hessian_norm_hint), 1e-8)
    s0 = max(budget // (n + 1), 1)
    h = fd_radius(e_std, l_bar)
    if point_variances is None:
        point_variances = np.ones(n)
    alloc = allocate_shot_budget(point_variances, max(budget - s0, n))
    points = np.vstack([x, x + np.diag(np.full(n, h))])
    base, *shifted = parent_function_estimates(
        model, problem, points, [s0, *alloc.shots.tolist()])
    vector = (np.array([est.value for est in shifted]) - base.value) / h
    variances = parent_variances([base, *shifted])
    return GradientEstimate(
        vector, base.samples + sum(est.samples for est in shifted),
        point_variances=None if variances is None else variances[1:],
        base_variance=base.variance)


def same_float(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def same_array(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_estimate(got, want, new, old):
    assert same_array(got.vector, want.vector)
    assert got.samples == want.samples
    assert same_float(got.variance, want.variance)
    assert same_array(got.point_variances, want.point_variances)
    assert same_float(got.base_variance, want.base_variance)
    assert new.rng.bit_generator.state == old.rng.bit_generator.state


@pytest.mark.parametrize("preset", PRESETS)
def test_exact_gradient_equals_the_parent(preset):
    p = vqe_problem(preset)
    rng = np.random.default_rng(3)
    # The start point, points in one period, and large angles.
    points = ([p.start_point]
              + [rng.uniform(-np.pi, np.pi, p.dim) for _ in range(6)]
              + [rng.uniform(-60.0, 60.0, p.dim) for _ in range(6)])
    for x in points:
        want = parent_energy_gradient(p, x)
        # A fresh point prepares its sweep; the next call finds it.
        assert p._energy_gradient(x).tobytes() == want.tobytes()
        assert p._energy_gradient(x).tobytes() == want.tobytes()
        # As in the step loop: the trial point is measured first, then the
        # memoized gradient is taken there.
        y = x + 0.1 * rng.standard_normal(p.dim)
        p.measure_moments(y, 5, rng)
        assert (p.gradient(y).tobytes()
                == parent_energy_gradient(p, y).tobytes())


def test_array_cos_and_sin_equal_scalar_calls():
    """The sweep and the gradient take ``cos``/``sin`` of the half angles as
    arrays; the gradient they replace took them one numpy scalar at a time.
    The two agree only if numpy's array loops give the scalar calls' bits
    at the angles the solver meets."""
    rng = np.random.default_rng(7)
    angles = 0.5 * np.concatenate([
        rng.uniform(-np.pi, np.pi, 20000),
        rng.uniform(-np.pi, np.pi, 10000) + 0.5 * np.pi,
        rng.uniform(-np.pi, np.pi, 10000) - 0.5 * np.pi,
        rng.uniform(-100.0, 100.0, 20000),
        rng.choice([-1.0, 1.0], 10000) * 10.0 ** rng.uniform(-12, 4, 10000),
        [0.0, -0.0, 0.2, 0.3, -0.2, 0.25 * np.pi, 0.5 * np.pi, np.pi],
    ])
    for fn in (np.cos, np.sin):
        looped = np.array([fn(a) for a in angles])
        assert fn(angles).tobytes() == looped.tobytes()
        # Any leading shape, as the batch sweep's (n, k, 1) half angles.
        assert fn(angles.reshape(-1, 2, 1)).tobytes() == looped.tobytes()


def test_memoized_sweep_is_read_only():
    p = vqe_problem("h2-like")
    x = p.start_point + 0.3
    psi = p.state(x)
    sweep = p._sweep_at(x)
    assert sweep.shape == (p.dim + 1, p.state_dim)
    assert not sweep.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sweep[-1, 0] = 1.0
    assert sweep[0].tobytes() == p.reference_state.tobytes()
    assert sweep[-1].tobytes() == psi.tobytes()
    assert not np.shares_memory(psi, sweep)
    psi[:] = 0.0
    assert p.state(x).tobytes() == sweep[-1].tobytes()


def models(kind, seed):
    return OracleModel(kind, seed=seed), OracleModel(kind, seed=seed)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("kind", KINDS)
class TestEstimatorsEqualTheParent:
    def test_parameter_shift(self, preset, kind):
        p = vqe_problem(preset)
        fresh = vqe_problem(preset)
        new, old = models(kind, 41)
        n = p.dim
        rng_x = np.random.default_rng(42)
        point_vars = None
        # The minimum budget gives every point one shot; the tiny weight
        # then starves one point down to a single shot among many.
        for budget, tweak in ((2 * n, None), (300, None), (300, 1e-12),
                              (10 ** 6, None)):
            x = rng_x.uniform(-np.pi, np.pi, n)
            if tweak is not None and point_vars is not None:
                point_vars = point_vars.copy()
                point_vars[0] = tweak
            for _ in range(2):  # a batch-memo miss, then a hit
                got = parameter_shift_gradient(new, p, x, budget, point_vars)
                want = parent_shift_gradient(old, fresh, x, budget,
                                             point_vars)
                assert_same_estimate(got, want, new, old)
            if got.point_variances is not None:
                point_vars = got.point_variances

    def test_finite_differences(self, preset, kind):
        p = vqe_problem(preset)
        fresh = vqe_problem(preset)
        new, old = models(kind, 51)
        n = p.dim
        rng_x = np.random.default_rng(52)
        coord_vars = None
        # The minimum budget gives every point one draw, 2n + 1 the base
        # point one and the others two; the tiny weight then leaves the
        # base point many draws and one shifted point one.
        for budget, e_std, seen, tiny in ((n + 1, 0.0, False, False),
                                          (2 * n + 1, 0.0, True, False),
                                          (40 * n, 0.01, True, False),
                                          (40 * n, 0.01, True, True),
                                          (10 ** 6, 0.3, False, False)):
            x = p.start_point + 0.3 * rng_x.standard_normal(n)
            if seen:
                # The base point's sweep is remembered already.
                p.state(x)
            if tiny:
                coord_vars = np.ones(n)
                coord_vars[0] = 1e-12
            got = fd_gradient_estimate(new, p, x, budget, e_std=e_std,
                                       point_variances=coord_vars)
            want = parent_fd_gradient(old, fresh, x, budget, e_std,
                                      coord_vars)
            assert_same_estimate(got, want, new, old)
            if got.point_variances is not None:
                coord_vars = got.point_variances


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "exact"])
def test_finite_differences_on_a_synthetic_problem(kind):
    p = builtin_problem("rosenbrock-chain", 4)
    new, old = models(kind, 61)
    rng_x = np.random.default_rng(62)
    coord_vars = None
    # 9 draws leave the base point one and each shifted point two, so
    # neither variance is kept; 12 leave the base point two and one
    # shifted point one, so the base variance is kept and the coordinate
    # variances are not.
    for budget, e_std, vars_in in ((5, 0.0, None), (9, 0.0, None),
                                   (12, 0.1, [1.0, 1e4, 1e4, 1e4]),
                                   (900, 0.1, None), (10 ** 7, 1.0, None)):
        x = p.start_point + 0.2 * rng_x.standard_normal(p.dim)
        if vars_in is not None:
            coord_vars = np.array(vars_in)
        got = fd_gradient_estimate(new, p, x, budget, e_std=e_std,
                                   point_variances=coord_vars)
        want = parent_fd_gradient(old, p, x, budget, e_std, coord_vars)
        assert_same_estimate(got, want, new, old)
        if vars_in is not None and kind != "exact":
            assert got.base_variance is not None
            assert got.point_variances is None
        if got.point_variances is not None:
            coord_vars = got.point_variances


@pytest.mark.parametrize("kind, problem", [
    ("vqe-measurement", vqe_problem("h2-like")),
    ("exact", vqe_problem("h2-like")),
    ("additive", builtin_problem("quadratic", 3)),
])
def test_function_estimates_returns_arrays(kind, problem):
    model = OracleModel(kind, seed=3)
    xs = np.full((3, problem.dim), 0.3)
    values, samples, variances = model.function_estimates(problem, xs,
                                                          [4, 5, 6])
    assert values.dtype == float and values.shape == (3,)
    assert variances.dtype == float and variances.shape == (3,)
    assert samples == (3 if kind == "exact" else 15)
    # A row of one draw has no sample variance; the exact model's rows
    # all have variance 0.
    values, samples, variances = model.function_estimates(problem, xs,
                                                          [4, 1, 6])
    if kind == "exact":
        assert variances.tobytes() == np.zeros(3).tobytes()
    else:
        assert variances is None
