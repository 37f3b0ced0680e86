from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dense_b, summary_text
from qsass.bench import (ExperimentSpec, problem_from_entry, replay_trace,
                         run_experiment, solver_config_for)
from qsass.errors import ConfigurationError
from qsass.oracles import OracleModel, OracleParams
from qsass.problems import builtin_problem, vqe_problem
from qsass.solver import (STOP_REASONS, VARIANTS, IterationRecord, RunTrace,
                          SolverConfig, StoppingRule, _norm, config_from_text,
                          config_to_text, initialize_state, qsass_step, run,
                          sufficient_decrease_test)


def exact_config(**overrides):
    base = dict(eps_f=0.0, adaptive_eps_f=False)
    base.update(overrides)
    return SolverConfig(**base)


@pytest.mark.parametrize("n", [1, 4, 16, 256])
def test_norm_equals_numpy_norm_bitwise(n):
    rng = np.random.default_rng(n)
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        for _ in range(20):
            v = scale * rng.standard_normal(n)
            assert (np.float64(_norm(v)).tobytes()
                    == np.linalg.norm(v).tobytes())


class TestSufficientDecrease:
    def test_accepts_enough_decrease(self):
        assert sufficient_decrease_test(0.9, 1.0, 1.0, 0.2, 0.4, 0.01)

    def test_rejects_short_decrease(self):
        assert not sufficient_decrease_test(0.95, 1.0, 1.0, 0.2, 0.4, 0.01)

    def test_boundary_equality_accepts(self):
        assert sufficient_decrease_test(1.0, 1.0, 1.0, 0.2, 0.0, 0.0)


class TestSingleStep:
    def setup_problem(self):
        return builtin_problem("quadratic", 2, condition=1.0)

    def test_successful_first_iteration(self):
        p = self.setup_problem()
        p.start_point[:] = [1.0, 0.0]
        config = exact_config(alpha0=1.0)
        oracle = OracleModel("exact")
        state = initialize_state(p, config, oracle)
        rec = qsass_step(p, config, oracle, state, 0,
                         p.gradient(state.x), p.objective(state.x))
        assert rec.success == 1
        assert rec.alpha == 1.0
        assert rec.f_est == 0.5
        assert rec.f_plus_est == 0.0
        assert rec.gd_inner == pytest.approx(1.0)
        assert state.alpha == pytest.approx(1.25)
        assert_allclose(state.x, [0.0, 0.0], atol=1e-15)

    def test_failed_step_keeps_iterate(self):
        p = self.setup_problem()
        p.start_point[:] = [1.0, 0.0]
        config = exact_config(alpha0=10.0)
        oracle = OracleModel("exact")
        state = initialize_state(p, config, oracle)
        rec = qsass_step(p, config, oracle, state, 0,
                         p.gradient(state.x), p.objective(state.x))
        # x+ = (1,0) - 10*(1,0) = (-9,0), phi = 40.5 > 0.5 - 10*0.2*1
        assert rec.success == 0
        assert rec.f_plus_est == pytest.approx(40.5)
        assert state.alpha == pytest.approx(8.0)
        assert_allclose(state.x, [1.0, 0.0])

    def test_sass_never_stores_pairs(self):
        p = builtin_problem("quadratic", 4, condition=10.0)
        config = exact_config(variant="sass", c=2.0, max_iterations=25)
        trace = run(p, config, OracleModel("exact"))
        assert all(rec.pairs == 0 for rec in trace.records)
        # d = g / c for every iteration
        for rec in trace.records:
            assert rec.d_norm == pytest.approx(rec.g_norm / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Scripted reference implementation of the full step-search loop, used to
# cross-check run() end to end.  Deliberately plain: dense matrices, a
# python list for the pair memory, no shared helpers.
# ---------------------------------------------------------------------------

def _dense_b(pairs, c, n):
    b = c * np.eye(n)
    for s, y in pairs:
        bs = b @ s
        b = b - np.outer(bs, bs) / float(s @ bs) + np.outer(y, y) / float(y @ s)
    return b


def reference_run(problem, theta, gamma, alpha0, capacity, c, lb, ub,
                  curvature_tol, stop_threshold, max_iterations):
    x = problem.start_point.copy()
    alpha = alpha0
    pairs = []
    x_prev = g_prev = None
    rows = []
    n = problem.dim
    for _ in range(max_iterations):
        if np.linalg.norm(problem.gradient(x)) <= stop_threshold:
            return rows, x, True
        g = problem.gradient(x)
        if x_prev is not None:
            s = x - x_prev
            y = g - g_prev
            if float(s @ y) > curvature_tol:
                pairs.append((s, y))
                if len(pairs) > capacity:
                    pairs.pop(0)
            while pairs:
                eigs = np.linalg.eigvalsh(_dense_b(pairs, c, n))
                if eigs[-1] >= ub or eigs[0] <= lb:
                    pairs.pop(0)
                else:
                    break
        d = np.linalg.solve(_dense_b(pairs, c, n), g)
        gd = float(d @ g)
        x_plus = x - alpha * d
        f = problem.objective(x)
        f_plus = problem.objective(x_plus)
        success = f_plus <= f - alpha * theta * gd
        rows.append((alpha, success, f, f_plus, gd))
        if success:
            x_prev, g_prev = x, g
            x = x_plus
            alpha = alpha / gamma
        else:
            alpha = alpha * gamma
    return rows, x, False


class TestRunAgainstReference:
    def test_exact_quadratic_matches_scripted_loop(self):
        p = builtin_problem("quadratic", 10, condition=30.0)
        threshold = 1e-6 * np.linalg.norm(p.gradient(p.start_point))
        config = exact_config(memory=10, max_iterations=200)
        trace = run(p, config, OracleModel("exact"),
                    StoppingRule("gradient-norm", threshold))
        assert trace.hit
        assert trace.iterations <= 200

        capacity = min(config.memory, p.dim // 2)
        rows, x_ref, hit_ref = reference_run(
            p, config.theta, config.gamma, config.alpha0, capacity, config.c,
            config.spectrum_lb, config.spectrum_ub, config.curvature_tol,
            threshold, 200)
        assert hit_ref
        assert len(rows) == trace.iterations
        for rec, (alpha, success, f, f_plus, gd) in zip(trace.records, rows):
            assert rec.alpha == alpha          # same multiplication order
            assert rec.success == int(success)
            assert rec.f_est == pytest.approx(f, rel=1e-9, abs=1e-12)
            assert rec.f_plus_est == pytest.approx(f_plus, rel=1e-9, abs=1e-12)
            assert rec.gd_inner == pytest.approx(gd, rel=1e-8, abs=1e-12)
        assert trace.final_x_norm == pytest.approx(np.linalg.norm(x_ref),
                                                   rel=1e-8)

    def test_exact_rosenbrock_matches_scripted_loop(self):
        # Nonconvex path: exercises failures, evictions and enforcement.
        p = builtin_problem("rosenbrock-chain", 4)
        config = exact_config(memory=2, max_iterations=150, alpha0=0.5)
        trace = run(p, config, OracleModel("exact"))
        capacity = min(config.memory, p.dim // 2)
        rows, x_ref, _ = reference_run(
            p, config.theta, config.gamma, config.alpha0, capacity, config.c,
            config.spectrum_lb, config.spectrum_ub, config.curvature_tol,
            -1.0, 150)
        assert len(rows) == trace.iterations == 150
        n_success = sum(rec.success for rec in trace.records)
        assert 0 < n_success < 150
        # The acceptance ledger must agree bit for bit; the analog values
        # separate exponentially along a nonconvex path (compact vs dense
        # round-off), so they only get a loose tolerance.
        for rec, (alpha, success, f, f_plus, gd) in zip(trace.records, rows):
            assert rec.alpha == alpha
            assert rec.success == int(success)
            assert rec.gd_inner == pytest.approx(gd, rel=2e-5, abs=1e-10)
        assert trace.final_x_norm == pytest.approx(np.linalg.norm(x_ref),
                                                   rel=1e-6)


class TestRunBasics:
    def test_zero_iteration_budget(self):
        p = builtin_problem("quadratic", 2)
        trace = run(p, SolverConfig(max_iterations=0), OracleModel("exact"))
        assert trace.records == []
        assert trace.stop_reason == "iteration-budget"
        assert not trace.hit

    def test_noisy_quadratic_hits_threshold(self):
        p = builtin_problem("quadratic", 2)
        params = OracleParams(function_scale=1e-5, gradient_scale=1e-4)
        oracle = OracleModel("additive", params=params, seed=7)
        threshold = 1e-3 * np.linalg.norm(p.gradient(p.start_point))
        config = SolverConfig(eps_f=1e-8, eps_g=1e-4, max_iterations=1000)
        trace = run(p, config, oracle, StoppingRule("gradient-norm", threshold))
        assert trace.hit
        assert trace.stop_reason == "stopping-rule"

    def test_gap_stopping_needs_known_optimum(self):
        p = builtin_problem("quadratic", 2)
        p.optimal_value = None
        with pytest.raises(ConfigurationError):
            run(p, SolverConfig(), OracleModel("exact"),
                StoppingRule("optimality-gap", 1e-6))

    def test_sample_budget_stop(self):
        p = builtin_problem("quadratic", 2)
        oracle = OracleModel("additive", seed=3)
        config = SolverConfig(max_iterations=10 ** 6, max_samples=2000)
        trace = run(p, config, oracle)
        assert trace.stop_reason == "sample-budget"
        assert trace.total_samples >= 2000

    def test_unknown_stopping_kind(self):
        with pytest.raises(ConfigurationError):
            StoppingRule("wallclock", 1.0)

    def test_default_rule_is_gradient_norm(self):
        rule = StoppingRule()
        assert rule.kind == "gradient-norm"
        assert rule.threshold == 1e-3

    def test_alpha_cap(self):
        p = builtin_problem("quadratic", 2)
        config = exact_config(alpha_max=1.1, max_iterations=30)
        trace = run(p, config, OracleModel("exact"))
        assert max(rec.alpha for rec in trace.records) <= 1.1


class TestTraceInvariants:
    def make_noisy_trace(self, variant="qsass", seed=11):
        p = builtin_problem("rosenbrock-chain", 2)
        params = OracleParams(function_scale=1e-4, gradient_scale=1e-3)
        oracle = OracleModel("additive", params=params, seed=seed)
        config = SolverConfig(variant=variant, eps_f=1e-6, eps_g=1e-3,
                              max_iterations=300)
        return run(p, config, oracle)

    def test_alpha_ledger_is_bit_exact(self):
        trace = self.make_noisy_trace()
        gamma = trace.config.gamma
        for prev, nxt in zip(trace.records, trace.records[1:]):
            if prev.success:
                assert nxt.alpha == prev.alpha / gamma
            else:
                assert nxt.alpha == prev.alpha * gamma

    def test_search_directions_never_ascend(self):
        trace = self.make_noisy_trace()
        assert all(rec.gd_inner >= 0.0 for rec in trace.records)

    def test_cumulative_samples_non_decreasing(self):
        trace = self.make_noisy_trace()
        cums = [rec.cum_samples for rec in trace.records]
        assert all(b >= a for a, b in zip(cums, cums[1:]))
        assert trace.total_samples >= cums[-1]

    def test_exact_objective_monotone_when_accepted(self):
        p = builtin_problem("quadratic", 6, condition=30.0)
        trace = run(p, exact_config(max_iterations=120), OracleModel("exact"))
        values = [rec.f_est for rec in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_sass_equals_qsass_with_zero_memory(self):
        t_sass = self.make_noisy_trace(variant="sass", seed=21)
        p = builtin_problem("rosenbrock-chain", 2)
        params = OracleParams(function_scale=1e-4, gradient_scale=1e-3)
        oracle = OracleModel("additive", params=params, seed=21)
        config = SolverConfig(variant="qsass", memory=0, eps_f=1e-6,
                              eps_g=1e-3, max_iterations=300)
        t_q0 = run(p, config, oracle)
        assert len(t_sass.records) == len(t_q0.records)
        for a, b in zip(t_sass.records, t_q0.records):
            assert (a.alpha, a.success, a.f_est, a.g_norm, a.x_norm) \
                == (b.alpha, b.success, b.f_est, b.g_norm, b.x_norm)

    def test_true_iteration_frequency(self):
        # Gradient noise only: the function oracle is then error-free and
        # the bounded-noise success probability p = 1 - delta applies.
        p = builtin_problem("quadratic", 2)
        params = OracleParams(function_scale=0.0, gradient_scale=1.0)
        oracle = OracleModel("additive", params=params, seed=29)
        config = SolverConfig(eps_f=1e-6, eps_g=0.05, delta=0.1,
                              max_iterations=300)
        trace = run(p, config, oracle)
        flags = [(rec.true_flag_g, rec.true_flag_f) for rec in trace.records]
        assert all(fg in (0, 1) and ff in (0, 1) for fg, ff in flags)
        freq = np.mean([fg == 1 and ff == 1 for fg, ff in flags])
        assert freq >= (1.0 - config.delta) - 0.05


class TestSerialization:
    def test_trace_text_round_trip(self):
        p = builtin_problem("quadratic", 3, condition=5.0)
        oracle = OracleModel("additive", seed=2)
        trace = run(p, SolverConfig(max_iterations=40), oracle,
                    StoppingRule("gradient-norm", 1e-4),
                    labels={"experiment": "unit", "seed_index": "0"})
        text = trace.to_text()
        back = RunTrace.from_text(text)
        assert back.to_text() == text
        assert back.labels == trace.labels
        assert back.config == trace.config
        assert back.stopping == trace.stopping
        assert len(back.records) == len(trace.records)
        assert back.records[-1] == trace.records[-1]

    def test_no_stopping_rule_round_trip(self):
        p = builtin_problem("quadratic", 2)
        trace = run(p, SolverConfig(max_iterations=3), OracleModel("exact"),
                    StoppingRule("none"), labels={"experiment": "unit"})
        text = trace.to_text()
        back = RunTrace.from_text(text)
        assert back.stopping == trace.stopping
        assert back.to_text() == text

    def test_other_trace_format_rejected(self):
        p = builtin_problem("quadratic", 2)
        text = run(p, SolverConfig(max_iterations=3), OracleModel("exact"),
                   StoppingRule("none")).to_text()
        assert text.startswith("# trace-format = 2\n")
        for other in ("1", "3"):
            with pytest.raises(ValueError, match="trace format"):
                RunTrace.from_text(text.replace("# trace-format = 2",
                                                f"# trace-format = {other}"))

    def test_config_text_round_trip(self):
        config = SolverConfig(variant="qsass-bfgs", theta=0.3, memory=7,
                              eps_f=1e-5, alpha_max=2.5, max_iterations=123)
        assert config_from_text(config_to_text(config)) == config

    def test_summary_mentions_outcome(self):
        p = builtin_problem("quadratic", 2)
        trace = run(p, SolverConfig(max_iterations=3), OracleModel("exact"),
                    StoppingRule("none"))
        text = summary_text(trace)
        assert "iteration-budget" in text
        assert "iterations" in text

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(variant="newton")


def test_census_flag_tracks_census_matrix():
    # The qsass-bfgs census is cached per insertion and mostly decided from
    # norm bounds; after every step the recorded flag must still equal a
    # fresh eigensolve of the store's BFGS matrix as it stands.
    spec = ExperimentSpec(problems=("cosine-chain:n=4",),
                          solvers=("qsass-bfgs",), oracle="mixed-gaussian")
    problem = problem_from_entry(spec.problems[0])
    config = replace(solver_config_for(spec, problem, "qsass-bfgs"),
                     max_iterations=150)
    flags_seen = set()
    rejected = 0
    for seed in range(3):
        oracle = OracleModel(spec.oracle, spec.oracle_params, seed)
        state = initialize_state(problem, config, oracle)
        for k in range(config.max_iterations):
            attempted = state.x_prev is not None
            rec = qsass_step(problem, config, oracle, state, k,
                             problem.gradient(state.x),
                             problem.objective(state.x))
            eigs = np.linalg.eigvalsh(dense_b(state.store))
            fresh = int(not state.bounds.admits(float(eigs[-1]),
                                                float(eigs[0])))
            assert rec.would_violate == fresh
            flags_seen.add(rec.would_violate)
            rejected += attempted and not rec.inserted
    assert flags_seen == {0, 1}
    assert rejected > 0


def test_diverging_runs_stop_with_a_recorded_reason(tmp_path):
    # Under 50% multiplicative noise some rosenbrock-chain iterates diverge
    # until the gradient overflows; such a run must end "non-finite", not
    # raise from sample sizing on a NaN variance, and its trace replays.
    spec = ExperimentSpec(problems=("rosenbrock-chain:n=4",),
                          solvers=VARIANTS, seeds=4, oracle="multiplicative",
                          oracle_params=OracleParams(relative_percent=50.0),
                          max_iterations=300)
    with np.errstate(over="ignore", invalid="ignore"):
        traces = run_experiment(spec).traces.values()
        assert len(traces) == 12
        assert all(trace.stop_reason in STOP_REASONS for trace in traces)
        diverged = [t for t in traces if t.stop_reason == "non-finite"]
        assert diverged
        path = tmp_path / "diverged.trace"
        path.write_text(diverged[0].to_text())
        match, _ = replay_trace(path)
    assert match


@pytest.mark.parametrize("master_seed", [5, 7])
def test_diverging_fd_runs_stop_with_a_recorded_reason(master_seed, tmp_path):
    # Under finite differences a diverging run sizes its gradient draw from
    # the previous gradient norm (~1e80) and from a function variance that
    # may have overflowed; the budget used to raise OverflowError there,
    # before the step's finiteness checks (master seed 5 through eps^4,
    # 7 through an infinite variance).
    spec = ExperimentSpec(problems=("rosenbrock-chain:n=4",),
                          solvers=VARIANTS, seeds=4, oracle="multiplicative",
                          oracle_params=OracleParams(relative_percent=50.0),
                          gradient_mode="fd", max_iterations=300,
                          master_seed=master_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        traces = run_experiment(spec).traces.values()
        assert len(traces) == 12
        assert all(trace.stop_reason in STOP_REASONS for trace in traces)
        diverged = [t for t in traces if t.stop_reason == "non-finite"]
        assert diverged
        path = tmp_path / "diverged.trace"
        path.write_text(diverged[0].to_text())
        match, _ = replay_trace(path)
    assert match
