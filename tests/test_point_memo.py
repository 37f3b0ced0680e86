"""Exact evaluations are memoized per point, and the probabilities of a VQE
measurement batch per batch: the memo must return the raw maps' values bit
for bit, hand out no buffer it keeps, evict the least recently used point,
and spare every repeat inside the step loop.  Draws are never memoized."""

import math
from collections import Counter

import numpy as np
import pytest

from qsass.oracles import OracleModel
from qsass.problems import (POINT_MEMO_SIZE, Problem, builtin_problem,
                            list_builtin_problems, list_vqe_presets,
                            vqe_problem)
from qsass.solver import SolverConfig, StoppingRule, run

FAMILY_DIMS = {"quadratic": 3, "ill-conditioned-quadratic": 5,
               "rosenbrock-chain": 4, "cosine-chain": 4, "trig-sum": 3}


def all_problems():
    problems = [builtin_problem(name, FAMILY_DIMS[name])
                for name in list_builtin_problems()]
    return problems + [vqe_problem(preset) for preset in list_vqe_presets()]


def count_raw_calls(problem):
    """Wrap the raw maps, and the VQE rotation sweep of a single point, so
    that every call is tallied by the bytes of its point."""
    counts = {"objective": Counter(), "gradient": Counter(),
              "state": Counter()}

    def counting(kind, fn):
        def wrapper(x):
            counts[kind][np.asarray(x, dtype=float).tobytes()] += 1
            return fn(x)
        return wrapper

    problem._objective = counting("objective", problem._objective)
    problem._gradient = counting("gradient", problem._gradient)
    if hasattr(problem, "_sweep"):
        problem._sweep = counting("state", problem._sweep)
    return counts


def sign_problem():
    """A map that tells ``-0.0`` from ``+0.0``."""
    return Problem("sign", 1, lambda x: math.copysign(1.0, x[0]),
                   lambda x: np.array([math.copysign(2.0, x[0])]),
                   [1.0], hessian_norm_hint=1.0, check_gradient=False)


@pytest.mark.parametrize("problem", all_problems(), ids=repr)
def test_memoized_values_equal_raw_maps(problem):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = problem.start_point + rng.standard_normal(problem.dim)
        raw_f = float(problem._objective(x))
        raw_g = np.asarray(problem._gradient(x), dtype=float)
        for _ in range(2):  # a miss, then a hit
            f = problem.objective(x)
            assert np.float64(f).tobytes() == np.float64(raw_f).tobytes()
            assert problem.gradient(x).tobytes() == raw_g.tobytes()
        if hasattr(problem, "states"):
            raw_psi = problem.states(x[None])[0]
            for _ in range(2):
                assert problem.state(x).tobytes() == raw_psi.tobytes()


def test_mutating_results_leaves_memo_intact():
    for problem in (builtin_problem("rosenbrock-chain", 4),
                    vqe_problem("h2-like")):
        x = problem.start_point + 0.1
        g = problem.gradient(x)
        expected_g = g.copy()
        g[:] = 7.0
        assert np.array_equal(problem.gradient(x), expected_g)
        if hasattr(problem, "state"):
            psi = problem.state(x)
            expected_psi = psi.copy()
            psi[:] = 0.0
            assert np.array_equal(problem.state(x), expected_psi)


def test_mutating_the_point_changes_the_key():
    p = builtin_problem("quadratic", 2)
    x = np.array([1.0, 2.0])
    before = p.objective(x)
    x[0] = 3.0
    assert p.objective(x) != before
    assert p.objective(x) == p.objective(np.array([3.0, 2.0]))


def test_signed_zeros_are_distinct_points():
    p = sign_problem()
    counts = count_raw_calls(p)
    for _ in range(2):
        assert p.objective(np.array([0.0])) == 1.0
        assert p.objective(np.array([-0.0])) == -1.0
        assert p.gradient(np.array([0.0]))[0] == 2.0
        assert p.gradient(np.array([-0.0]))[0] == -2.0
    assert sorted(counts["objective"].values()) == [1, 1]
    assert sorted(counts["gradient"].values()) == [1, 1]


def test_memo_holds_two_points_and_evicts_least_recently_used():
    assert POINT_MEMO_SIZE == 2
    p = vqe_problem("h2-like")
    counts = count_raw_calls(p)
    a, b, c = (np.full(p.dim, v) for v in (0.1, 0.2, 0.3))
    for x in (a, b, a, c, a):
        p.objective(x)
        p.gradient(x)
        p.state(x)
        for memo in (p._objective_memo, p._gradient_memo, p._state_memo):
            assert len(memo) <= POINT_MEMO_SIZE
    # ``a`` was used after ``b``, so ``c`` evicted ``b`` and ``a`` never
    # left; a first-in first-out memo would compute ``a`` twice.
    for kind in ("objective", "gradient", "state"):
        assert counts[kind][a.tobytes()] == 1, kind
    assert counts["objective"][b.tobytes()] == 1
    p.objective(b)
    assert counts["objective"][b.tobytes()] == 2


@pytest.mark.parametrize("entry, kind", [
    ("cosine-chain", "mixed-gaussian"),
    ("rosenbrock-chain", "additive"),
    ("h2-like", "vqe-measurement"),
])
def test_step_loop_evaluates_each_point_once(entry, kind):
    if kind == "vqe-measurement":
        p = vqe_problem(entry)
        config = SolverConfig(alpha0=20.0, eps_f=1e-4, max_iterations=50)
    else:
        p = builtin_problem(entry, 4)
        config = SolverConfig(alpha0=20.0, eps_f=1e-4, eps_g=1e-3,
                              max_iterations=50)
    counts = count_raw_calls(p)
    trace = run(p, config, OracleModel(kind, seed=7),
                stopping=StoppingRule("none"))
    assert trace.iterations == 50
    successes = "".join(str(rec.success) for rec in trace.records)
    assert "000" in successes, "the run must contain a streak of rejections"
    assert counts["objective"] and counts["gradient"]
    for kind_counts in counts.values():
        assert max(kind_counts.values(), default=1) == 1


def count_sweeps(problem):
    """Tally the multi-row state sweeps of a VQE problem."""
    sweeps = []
    states = problem.states

    def counting_states(xs):
        if len(xs) > 1:
            sweeps.append(np.array(xs))
        return states(xs)

    problem.states = counting_states
    return sweeps


def shift_batch(problem, x):
    shift = 0.5 * np.pi * np.eye(problem.dim)
    return np.vstack([x + shift, x - shift])


class TestBatchMemo:
    """A multi-row measurement remembers its eigenbasis probabilities, keyed
    by the batch's bytes; its draws are made anew every time."""

    def test_repeated_batch_runs_one_sweep(self):
        p = vqe_problem("lih-like")
        sweeps = count_sweeps(p)
        xs = shift_batch(p, p.start_point + 0.1)
        rng = np.random.default_rng(0)
        first = p.measure_batch(xs, [50] * len(xs), rng)
        second = p.measure_batch(xs.copy(), [50] * len(xs), rng)
        assert len(sweeps) == 1
        assert (np.array(first).tobytes() != np.array(second).tobytes()), \
            "each call draws anew"
        # A rejected step leaves the iterate, so the next shift-rule
        # gradient is served from the memo too.
        model = OracleModel("vqe-measurement", seed=1)
        x = p.start_point + 0.2
        for _ in range(3):
            model.gradient_estimate(p, x, 4000)
        assert len(sweeps) == 2

    @pytest.mark.parametrize("kind", ["exact", "additive"])
    def test_synthetic_shift_rule_sweeps_each_batch_once(self, kind):
        # Under a synthetic oracle the shift rule reads the rows' exact
        # energies through ``objectives``; after a rejected step the batch
        # at the unchanged iterate is read from the memo, not swept again.
        p = vqe_problem("lih-like")
        sweeps = count_sweeps(p)
        trace = run(p, SolverConfig(max_iterations=40),
                    OracleModel(kind, seed=3, gradient_mode="shift"),
                    stopping=StoppingRule("none"))
        assert trace.iterations == 40
        assert not all(rec.success for rec in trace.records)
        distinct = {xs.tobytes() for xs in sweeps}
        assert len(sweeps) == len(distinct) < trace.iterations

    def test_objectives_hit_equals_a_fresh_problem(self):
        p = vqe_problem("lih-like")
        xs = shift_batch(p, p.start_point + 0.2)
        first = p.objectives(xs)
        first[0] = math.nan  # a caller's list is its own
        hit = p.objectives(xs.copy())
        fresh = vqe_problem("lih-like").objectives(xs)
        assert np.array(hit).tobytes() == np.array(fresh).tobytes()
        assert hit == [p.objective(x) for x in xs]
        # Measuring the batch reuses the states the energies came from.
        sweeps = count_sweeps(p)
        p.measure_batch(xs, [5] * len(xs), np.random.default_rng(0))
        assert not sweeps

    @pytest.mark.parametrize("preset", ["h2-like", "lih-like"])
    def test_draws_after_a_hit_equal_a_fresh_problem(self, preset):
        p = vqe_problem(preset)
        xs = shift_batch(p, p.start_point - 0.3)
        shots = [1 + 13 * j for j in range(len(xs))]
        rng = np.random.default_rng(4)
        p.measure_batch(xs, shots, rng)
        hit = p.measure_batch(xs, shots, rng)
        assert len(p._batch_memo) == 1
        fresh_rng = np.random.default_rng(4)
        vqe_problem(preset).measure_batch(xs, shots, fresh_rng)
        fresh = vqe_problem(preset).measure_batch(xs, shots, fresh_rng)
        assert np.array(hit).tobytes() == np.array(fresh).tobytes()
        assert rng.bit_generator.state == fresh_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [(4, 8), (8, 4), (32, 1)])
    def test_colliding_bytes_of_another_shape_raise(self, shape):
        p = vqe_problem("lih-like")
        assert p.dim == 16
        xs = np.arange(32.0).reshape(2, 16)
        rng = np.random.default_rng(0)
        p.measure_batch(xs, [10, 10], rng)
        other = xs.reshape(shape)
        assert other.tobytes() == xs.tobytes()
        with pytest.raises(ValueError, match=r"shape \(k, 16\)"):
            p.measure_batch(other, [10] * shape[0], rng)

    def test_signed_zeros_are_distinct_batches(self):
        p = vqe_problem("h2-like")
        sweeps = count_sweeps(p)
        plus = np.zeros((2, p.dim))
        minus = plus.copy()
        minus[1, 2] = -0.0
        rng = np.random.default_rng(0)
        for _ in range(2):
            for xs in (plus, minus):
                p.measure_batch(xs, [5, 5], rng)
        assert len(sweeps) == 2
        assert len(p._batch_memo) == 2

    def test_memoized_probabilities_cannot_be_mutated(self):
        p = vqe_problem("h2-like")
        xs = shift_batch(p, p.start_point + 0.4)
        shots = [20] * len(xs)

        class ScribblingGenerator:
            def multinomial(self, n, pvals):
                pvals[...] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            p.measure_batch(xs, shots, ScribblingGenerator())
        # The batch was remembered before the draw; it still measures as a
        # freshly built problem does.
        assert len(p._batch_memo) == 1
        rng, fresh_rng = (np.random.default_rng(6) for _ in range(2))
        assert (np.array(p.measure_batch(xs, shots, rng)).tobytes()
                == np.array(vqe_problem("h2-like").measure_batch(
                    xs, shots, fresh_rng)).tobytes())

    def test_mutating_the_batch_changes_the_key(self):
        p = vqe_problem("h2-like")
        sweeps = count_sweeps(p)
        xs = shift_batch(p, p.start_point)
        rng = np.random.default_rng(0)
        p.measure_batch(xs, [5] * len(xs), rng)
        xs[0, 0] += 0.5
        rng, fresh_rng = (np.random.default_rng(8) for _ in range(2))
        assert (np.array(p.measure_batch(xs, [5] * len(xs), rng)).tobytes()
                == np.array(vqe_problem("h2-like").measure_batch(
                    xs, [5] * len(xs), fresh_rng)).tobytes())
        assert len(sweeps) == 2

    def test_memo_holds_two_batches(self):
        p = vqe_problem("h2-like")
        sweeps = count_sweeps(p)
        a, b, c = (shift_batch(p, np.full(p.dim, v)) for v in (0.1, 0.2, 0.3))
        rng = np.random.default_rng(0)
        for xs in (a, b, a, c, a):
            p.measure_batch(xs, [3] * len(xs), rng)
            assert len(p._batch_memo) <= POINT_MEMO_SIZE
        # ``c`` evicted ``b``, the least recently used batch, not ``a``.
        assert [s.tobytes() for s in sweeps] == [a.tobytes(), b.tobytes(),
                                                 c.tobytes()]
