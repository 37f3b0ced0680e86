"""The batched state sweep and the one-call gradient estimators must repeat
the per-point computations bit for bit, random stream included."""

import math

import numpy as np
import pytest

from qsass.oracles import (OracleModel, allocate_shot_budget,
                           fd_gradient_estimate, fd_radius,
                           parameter_shift_gradient)
from qsass.bench import ExperimentSpec, run_experiment, write_experiment
from qsass.problems import VqeProblem, builtin_problem, vqe_problem

from test_bench import read_tree

PRESETS = ["toy-1q", "h2-like", "lih-like"]


def looped_state(problem, x):
    """One rotation at a time, one point at a time."""
    psi = problem.reference_state
    for g, xi in zip(problem._generators, x):
        psi = np.cos(0.5 * xi) * psi + np.sin(0.5 * xi) * (g @ psi)
    return psi


class RecordingGenerator:
    """A numpy generator that keeps the probabilities of every multinomial
    draw, one entry per drawn row (a 2-D ``pvals`` draws a row each)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.probabilities = []

    def multinomial(self, n, pvals):
        self.probabilities.extend(np.array(row) for row in np.atleast_2d(pvals))
        return self._rng.multinomial(n, pvals)


def per_row_measure_batch(problem, xs, shots, rng):
    """Row-at-a-time measurement: a ``V' psi`` product, a 1-D multinomial
    draw and 1-D moment dots for each row on its own, with Python float
    arithmetic for the moments."""
    means, variances = [], []
    for psi, n in zip(problem.states(np.asarray(xs, dtype=float)), shots):
        amps = problem.eigenvectors.T @ psi
        p = amps ** 2
        counts = rng.multinomial(n, p / p.sum())
        mean = float(counts @ problem.eigenvalues) / n
        means.append(mean)
        if n == 1:
            variances.append(0.0)
            continue
        sq = float(counts @ problem.eigenvalues ** 2)
        variances.append(max((sq - n * mean * mean) / (n - 1), 0.0))
    return np.array(means, dtype=float), np.array(variances, dtype=float)


def moment_pairs(batch):
    """``(mean, variance)`` pairs of a measured batch, as Python floats."""
    means, variances = batch
    return list(zip(means.tolist(), variances.tolist()))


def points_and_shifts(problem, rng, count):
    base = rng.uniform(-np.pi, np.pi, (count, problem.dim))
    shift = 0.5 * np.pi * np.eye(problem.dim)
    return np.vstack([base] + [x + shift for x in base]
                     + [x - shift for x in base])


class TestStates:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_batch_equals_single_points(self, preset):
        p = vqe_problem(preset)
        xs = points_and_shifts(p, np.random.default_rng(11), 12)
        batched = p.states(xs)
        assert np.array_equal(batched, np.stack([p.state(x) for x in xs]))
        assert np.array_equal(batched,
                              np.stack([looped_state(p, x) for x in xs]))

    def test_measure_batch_matches_measure_moments(self):
        p = vqe_problem("lih-like")
        xs = points_and_shifts(p, np.random.default_rng(13), 2)
        shots = [1 + 37 * i for i in range(len(xs))]
        rng_a = RecordingGenerator(5)
        rng_b = np.random.default_rng(5)
        batched = p.measure_batch(xs, shots, rng_a)
        looped = [p.measure_moments(x, n, rng_b) for x, n in zip(xs, shots)]
        assert moment_pairs(batched) == looped
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        # The draws rarely reveal a last-bit change in the probabilities,
        # so compare those directly with a per-point projection.
        for x, probs in zip(xs, rng_a.probabilities):
            amps = p.eigenvectors.T @ looped_state(p, x)
            assert np.array_equal(probs, amps ** 2 / np.sum(amps ** 2))

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("rows", ["1", "n+1", "2n"])
    def test_measure_batch_equals_per_row_reference(self, preset, rows):
        p = vqe_problem(preset)
        count = {"1": 1, "n+1": p.dim + 1, "2n": 2 * p.dim}[rows]
        rng_x = np.random.default_rng(17)
        for trial in range(8):
            xs = rng_x.uniform(-np.pi, np.pi, (count, p.dim))
            shots = [(1, 2, 7, 100, 4096)[(trial + j) % 5]
                     for j in range(count)]
            rng_a = RecordingGenerator(trial)
            rng_b = RecordingGenerator(trial)
            batched = p.measure_batch(xs, shots, rng_a)
            reference = per_row_measure_batch(p, xs, shots, rng_b)
            assert (np.array(batched).tobytes()
                    == np.array(reference).tobytes())
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            # A last-bit change in the projection rarely moves a draw.
            assert (np.array(rng_a.probabilities).tobytes()
                    == np.array(rng_b.probabilities).tobytes())

    def test_empty_batch(self):
        p = vqe_problem("h2-like")
        means, variances = p.measure_batch(np.zeros((0, p.dim)), [],
                                           np.random.default_rng(0))
        assert means.shape == variances.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_invalid_normalization_raises(self, bad):
        p = vqe_problem("h2-like")
        psis = p.states(np.zeros((3, p.dim)))
        psis[1] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="normalization"):
            p._probabilities(psis)

    @pytest.mark.parametrize("width", [2, 5])
    def test_rows_of_the_wrong_width_raise(self, width):
        # h2-like has three parameters: extra columns must not be ignored,
        # and missing ones must not skip rotations.
        p = vqe_problem("h2-like")
        xs = np.full((2, width), 0.3)
        with pytest.raises(ValueError, match="shape"):
            p.states(xs)
        with pytest.raises(ValueError, match="shape"):
            p.measure_batch(xs, [10, 10], np.random.default_rng(0))

    def test_measure_batch_validates_every_count(self):
        p = vqe_problem("toy-1q")
        with pytest.raises(ValueError):
            p.measure_batch(np.zeros((2, 1)), [3, 0], np.random.default_rng(0))


class TestRowAndCountLengths:
    """A row without a count (or a count without a row) used to be dropped
    silently by ``zip``."""

    @pytest.mark.parametrize("counts", [[10, 10], [10], [10, 10, 10, 10]])
    def test_measure_batch(self, counts):
        p = vqe_problem("h2-like")
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="rows"):
            p.measure_batch(np.full((3, p.dim), 0.3), counts, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("kind, problem", [
        ("vqe-measurement", vqe_problem("h2-like")),
        ("additive", builtin_problem("quadratic", 3)),
    ])
    @pytest.mark.parametrize("counts", [[10, 10], [10], [10, 10, 10, 10]])
    def test_function_estimates(self, kind, problem, counts):
        model = OracleModel(kind, seed=0)
        before = model.rng.bit_generator.state
        with pytest.raises(ValueError, match="points"):
            model.function_estimates(problem, np.full((3, problem.dim), 0.3),
                                     counts)
        assert model.rng.bit_generator.state == before


class TestGridMatchesPerRowReference:
    def test_trace_bytes(self, tmp_path, monkeypatch):
        # Shift-rule batches of 2n rows, finite-difference batches of n + 1
        # and the solver's single-row draws, on both multi-qubit presets.
        specs = [ExperimentSpec(problems=("vqe:h2-like", "vqe:lih-like"),
                                solvers=("qsass", "qsass-bfgs"), seeds=2,
                                oracle="vqe-measurement", gradient_mode=mode,
                                max_iterations=30, stop_factor=0.3,
                                name=f"grid-{mode}")
                 for mode in ("shift", "fd")]
        for spec in specs:
            write_experiment(run_experiment(spec, workers=1),
                             tmp_path / "batched" / spec.name)
        monkeypatch.setattr(VqeProblem, "measure_batch",
                            per_row_measure_batch)
        for spec in specs:
            write_experiment(run_experiment(spec, workers=1),
                             tmp_path / "per-row" / spec.name)
        batched = read_tree(tmp_path / "batched")
        assert len(batched) == 2 * (2 * 2 * 2 + 6)
        assert batched == read_tree(tmp_path / "per-row")


def looped_shift_gradient(model, problem, x, budget, point_variances):
    """The shift rule with one ``function_estimate`` per shifted point."""
    n = problem.dim
    if point_variances is None:
        point_variances = np.ones(2 * n)
    shots = allocate_shot_budget(point_variances, budget).shots
    vector = np.empty(n)
    point_vars = np.empty(2 * n)
    used = 0
    for i in range(n):
        e = np.zeros(n)
        e[i] = 0.5 * math.pi
        plus = model.function_estimate(problem, x + e, int(shots[2 * i]))
        minus = model.function_estimate(problem, x - e, int(shots[2 * i + 1]))
        used += plus.samples + minus.samples
        vector[i] = 0.5 * (plus.value - minus.value)
        point_vars[2 * i] = plus.variance
        point_vars[2 * i + 1] = minus.variance
    return vector, point_vars, used


def looped_fd_gradient(model, problem, x, budget, e_std, point_variances):
    """Forward differences with one ``function_estimate`` per point."""
    n = problem.dim
    s0 = max(budget // (n + 1), 1)
    h = fd_radius(e_std, max(float(problem.hessian_norm_hint), 1e-8))
    if point_variances is None:
        point_variances = np.ones(n)
    alloc = allocate_shot_budget(point_variances, max(budget - s0, n))
    base = model.function_estimate(problem, x, s0)
    vector = np.empty(n)
    coord_vars = np.empty(n)
    used = base.samples
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        est = model.function_estimate(problem, x + e, int(alloc.shots[i]))
        used += est.samples
        vector[i] = (est.value - base.value) / h
        coord_vars[i] = est.variance
    return vector, coord_vars, base.variance, used


class TestGradientsMatchPerPointLoops:
    @pytest.mark.parametrize("preset", ["h2-like", "lih-like"])
    def test_parameter_shift(self, preset):
        p = vqe_problem(preset)
        batched = OracleModel("vqe-measurement", seed=21)
        looped = OracleModel("vqe-measurement", seed=21)
        rng_x = np.random.default_rng(22)
        point_vars = None
        for budget in (2 * p.dim, 500, 40000, 10 ** 7):
            x = rng_x.uniform(-np.pi, np.pi, p.dim)
            est = parameter_shift_gradient(batched, p, x, budget, point_vars)
            vector, ref_vars, used = looped_shift_gradient(
                looped, p, x, budget, point_vars)
            assert np.array_equal(est.vector, vector)
            if budget > 2 * p.dim:
                assert np.array_equal(est.point_variances, ref_vars)
                point_vars = est.point_variances
            assert est.samples == used
            assert (batched.rng.bit_generator.state
                    == looped.rng.bit_generator.state)

    @pytest.mark.parametrize("kind, preset", [
        ("vqe-measurement", "h2-like"), ("vqe-measurement", "lih-like"),
        ("additive", None),
    ])
    def test_finite_differences(self, kind, preset):
        p = (vqe_problem(preset) if preset is not None
             else builtin_problem("quadratic", 4))
        batched = OracleModel(kind, seed=31)
        looped = OracleModel(kind, seed=31)
        rng_x = np.random.default_rng(32)
        coord_vars = None
        for budget, e_std in ((p.dim + 1, 0.0), (900, 0.01), (10 ** 6, 0.3)):
            x = p.start_point + 0.3 * rng_x.standard_normal(p.dim)
            est = fd_gradient_estimate(batched, p, x, budget, e_std=e_std,
                                       point_variances=coord_vars)
            vector, ref_vars, base_var, used = looped_fd_gradient(
                looped, p, x, budget, e_std, coord_vars)
            assert np.array_equal(est.vector, vector)
            assert est.samples == used
            assert est.base_variance == base_var
            if est.point_variances is not None:
                assert np.array_equal(est.point_variances, ref_vars)
                coord_vars = est.point_variances
            assert (batched.rng.bit_generator.state
                    == looped.rng.bit_generator.state)
