"""A lone VQE point is measured by ``VqeProblem.measure_moments`` from the
probabilities kept beside its sweep, the exact gradient takes its products
stacked, and a synthetic oracle takes the exact values of a batch's rows
from one sweep.  Each must repeat the form it replaced bit for bit, random
stream included.

``parent_one_row_measure`` is a lone point measured as a one-row
``measure_batch``, ``parent_energy_gradient`` the adjoint sweep with one
``gemv`` and one ``ddot`` per coordinate, and ``parent_objectives`` one
memoized ``objective`` call per row, each as written before.
"""

import numpy as np
import pytest

from qsass.oracles import OracleModel
from qsass.problems import (POINT_MEMO_SIZE, VqeProblem, builtin_problem,
                            list_builtin_problems, list_vqe_presets,
                            vqe_problem)
from qsass.solver import SolverConfig, run

PRESETS = ["toy-1q", "h2-like", "lih-like"]
SHOTS = (1, 2, 3, 7, 100, 4096, 10 ** 6, 10 ** 9)


def parent_one_row_measure(p, x, shots, rng):
    """A point measured as a one-row batch: a stacked projection, a 1-D
    ``multinomial`` and stacked moment dots over float counts."""
    probs = p._probabilities(p.states(np.asarray(x, dtype=float)[None]))
    counts = rng.multinomial(shots, probs[0])[None]
    counts = counts.astype(float)[:, None, :]
    sums = np.matmul(counts, p.eigenvalues[:, None]).ravel()
    sqs = np.matmul(counts, (p.eigenvalues ** 2)[:, None]).ravel()
    n = np.array([shots], dtype=float)
    means = sums / n
    spread = (sqs - n * means * means) / np.maximum(n - 1.0, 1.0)
    variances = np.where((n > 1.0) & ~(spread < 0.0), spread, 0.0)
    return float(means[0]), float(variances[0])


def parent_energy_gradient(p, x):
    """The adjoint sweep over the remembered forward states, one ``gemv``
    and one ``ddot`` per coordinate."""
    x = np.asarray(x, dtype=float)
    states = p._sweep(x)
    half = 0.5 * x
    cos, sin = np.cos(half).tolist(), np.sin(half).tolist()
    w = 2.0 * (p.hamiltonian @ states[-1])
    grad = np.zeros(p.dim)
    for i in range(p.dim - 1, -1, -1):
        g = p._generators[i]
        grad[i] = 0.5 * float(w @ (g @ states[i + 1]))
        w = cos[i] * w - sin[i] * (g @ w)
    return grad


def parent_objectives(problem, xs):
    return [problem.objective(x) for x in np.asarray(xs, dtype=float)]


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def count_projections(problem):
    """Tally the eigenbasis projections a problem makes."""
    calls = []
    project = problem._probabilities

    def counting(psis):
        calls.append(len(psis))
        return project(psis)

    problem._probabilities = counting
    return calls


def walk(problem, rng, steps):
    """The step loop's single-point draws: the iterate, then a trial point
    that an accepted step makes the next iterate."""
    x = problem.start_point
    for _ in range(steps):
        trial = x + 0.3 * rng.standard_normal(problem.dim)
        yield x
        yield trial
        if rng.random() < 0.5:
            x = trial


class TestMeasureMoments:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_equals_the_one_row_batch(self, preset):
        p = vqe_problem(preset)
        ref = vqe_problem(preset)
        projections = count_projections(p)
        rng_new, rng_old = (np.random.default_rng(5) for _ in range(2))
        rng_x = np.random.default_rng(6)
        seen = set()
        for k, x in enumerate(walk(p, rng_x, 60)):
            shots = SHOTS[k % len(SHOTS)]
            got = p.measure_moments(x, shots, rng_new)
            want = parent_one_row_measure(ref, x, shots, rng_old)
            assert all(type(v) is float for v in got)
            assert same_float(got[0], want[0]) and same_float(got[1], want[1])
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            seen.add(x.tobytes())
        # Every point was projected once: the iterate's draws were hits.
        assert len(projections) == len(seen) == 61
        assert set(projections) == {1}

    @pytest.mark.parametrize("preset", PRESETS)
    def test_large_angles_and_evictions(self, preset):
        p = vqe_problem(preset)
        ref = vqe_problem(preset)
        rng_new, rng_old = (np.random.default_rng(7) for _ in range(2))
        rng_x = np.random.default_rng(8)
        xs = [rng_x.uniform(-60.0, 60.0, p.dim) for _ in range(4)]
        # Three points cycle through a two-point memo, so every draw after
        # the first round is a miss; then the first repeats, a hit.
        order = [0, 1, 2, 0, 1, 2, 2, 3, 3]
        for k, j in enumerate(order):
            shots = SHOTS[k % len(SHOTS)]
            got = p.measure_moments(xs[j], shots, rng_new)
            want = parent_one_row_measure(ref, xs[j], shots, rng_old)
            assert same_float(got[0], want[0]) and same_float(got[1], want[1])
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert POINT_MEMO_SIZE == 2

    def test_a_prepared_point_is_projected_on_its_first_draw(self):
        # The exact objective and gradient prepare the sweep without the
        # probabilities; the first draw adds them to the same entry.
        p = vqe_problem("lih-like")
        ref = vqe_problem("lih-like")
        projections = count_projections(p)
        x = p.start_point + 0.2
        p.gradient(x)
        p.objective(x)
        assert p._prepared(x).probabilities is None
        assert projections == []
        rng_new, rng_old = (np.random.default_rng(9) for _ in range(2))
        for shots in (1, 50, 50):
            got = p.measure_moments(x, shots, rng_new)
            want = parent_one_row_measure(ref, x, shots, rng_old)
            assert same_float(got[0], want[0]) and same_float(got[1], want[1])
        assert projections == [1]
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @pytest.mark.parametrize("preset", PRESETS)
    def test_function_estimate_draws_the_single_point(self, preset):
        p = vqe_problem(preset)
        ref = vqe_problem(preset)
        model = OracleModel("vqe-measurement", seed=11)
        rng_old = np.random.default_rng(11)
        rng_x = np.random.default_rng(12)
        for k, x in enumerate(walk(p, rng_x, 10)):
            shots = SHOTS[k % len(SHOTS)]
            est = model.function_estimate(p, x, shots)
            mean, variance = parent_one_row_measure(ref, x, shots, rng_old)
            assert type(est.value) is float and same_float(est.value, mean)
            assert est.samples == shots
            if shots == 1:
                assert est.variance is None
            else:
                assert same_float(est.variance, variance)
            assert model.rng.bit_generator.state == rng_old.bit_generator.state

    def test_cached_probabilities_are_read_only(self):
        p = vqe_problem("h2-like")
        x = p.start_point + 0.4
        p.measure_moments(x, 20, np.random.default_rng(0))
        probs = p._prepared(x).probabilities
        assert not probs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            probs[0] = 1.0

        class ScribblingGenerator:
            def multinomial(self, n, pvals):
                pvals[...] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            p.measure_moments(x, 20, ScribblingGenerator())
        rng, fresh_rng = (np.random.default_rng(6) for _ in range(2))
        got = p.measure_moments(x, 20, rng)
        want = vqe_problem("h2-like").measure_moments(x, 20, fresh_rng)
        assert same_float(got[0], want[0]) and same_float(got[1], want[1])

    def test_bad_input_raises_before_any_draw(self):
        p = vqe_problem("h2-like")
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="shots"):
            p.measure_moments(p.start_point, 0, rng)
        with pytest.raises(ValueError, match="shape"):
            p.measure_moments(np.zeros(p.dim + 1), 5, rng)
        assert rng.bit_generator.state == before


class TestExactGradient:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_equals_the_parent(self, preset):
        p = vqe_problem(preset)
        rng = np.random.default_rng(3)
        points = ([p.start_point]
                  + [rng.uniform(-np.pi, np.pi, p.dim) for _ in range(10)]
                  + [rng.uniform(-60.0, 60.0, p.dim) for _ in range(10)])
        for x in points:
            want = parent_energy_gradient(p, x)
            for _ in range(2):  # a miss, then a hit on the sweep memo
                assert p._energy_gradient(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 15, 16, 17, 33, 64])
    def test_stacked_products_equal_per_row_products(self, d):
        """The bits rest on numpy taking a stacked ``(1, d) @ (d, 1)`` as
        the ``ddot`` of ``w @ v`` and a stacked ``(d, d) @ (d, 1)`` as the
        ``gemv`` of ``A @ v``."""
        rng = np.random.default_rng(d)
        for scale in (1.0, 1e-150, 1e150):
            ws = scale * rng.standard_normal((17, d))
            vs = rng.standard_normal((17, d))
            a = rng.standard_normal((d, d))
            stacked = np.matmul(ws[:, None, :], vs[:, :, None]).ravel()
            assert stacked.tobytes() == np.array(
                [w @ v for w, v in zip(ws, vs)]).tobytes()
            moved = np.matmul(a, ws[:, :, None])[:, :, 0]
            assert moved.tobytes() == np.array([a @ w for w in ws]).tobytes()


def all_problems():
    dims = {"quadratic": 3, "ill-conditioned-quadratic": 5,
            "rosenbrock-chain": 4, "cosine-chain": 4, "trig-sum": 3}
    return ([builtin_problem(name, dims[name])
             for name in list_builtin_problems()]
            + [vqe_problem(preset) for preset in list_vqe_presets()])


@pytest.mark.parametrize("problem", all_problems(), ids=repr)
def test_objectives_equal_objective_and_leave_the_memo(problem):
    rng = np.random.default_rng(4)
    xs = problem.start_point + rng.uniform(-3.0, 3.0, (9, problem.dim))
    problem.objective(problem.start_point)
    memo = list(problem._objective_memo._entries)
    got = problem.objectives(xs)
    assert list(problem._objective_memo._entries) == memo
    assert all(type(v) is float for v in got)
    want = [problem._exact_objective(x) for x in xs]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert problem.objectives(np.zeros((0, problem.dim))) == []


class TestShiftRuleOnSyntheticOracles:
    """With a synthetic oracle the shift rule's 2n rows once went one by one
    through the two-point memo, evicting the iterate and the trial point:
    a 40-iteration lih-like run prepared 1394 sweeps for 745 points."""

    @staticmethod
    def counted_run(kind):
        p = vqe_problem("lih-like")
        sweeps = []
        sweep = p._sweep

        def counting(x):
            sweeps.append(x.tobytes())
            return sweep(x)

        p._sweep = counting
        trace = run(p, SolverConfig(max_iterations=40),
                    OracleModel(kind, seed=3, gradient_mode="shift"))
        return trace, sweeps

    @pytest.mark.parametrize("kind", ["exact", "additive", "multiplicative"])
    def test_each_point_is_prepared_once(self, kind, monkeypatch):
        trace, sweeps = self.counted_run(kind)
        assert trace.iterations == 40
        assert len(sweeps) == len(set(sweeps)) == 41
        monkeypatch.setattr(VqeProblem, "objectives", parent_objectives)
        parent, parent_sweeps = self.counted_run(kind)
        assert len(parent_sweeps) > 10 * len(sweeps)
        assert trace.to_text() == parent.to_text()
