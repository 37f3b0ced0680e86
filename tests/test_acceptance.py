"""Acceptance suite: one test per release criterion.

Each test is a single pass/fail line under ``pytest -v``; tolerances and
counts are part of the release contract and must not be loosened.  The
stochastic criteria (6, 7, 8, 10) run the full benchmark harness and take
the bulk of the suite's runtime; everything is seeded and deterministic.
"""

import math
import time

import numpy as np

from conftest import dense_b, make_random_store
from test_theory import (check_nonconvex_agreement,
                         check_strongly_convex_agreement, draw_valid_inputs)

from qsass.bench import ExperimentSpec, run_experiment, write_experiment
from qsass.oracles import OracleModel
from qsass.problems import builtin_problem, list_vqe_presets, vqe_problem
from qsass.profiles import (MetricTable, data_profile, performance_profile,
                            performance_ratios)
from qsass.solver import SolverConfig, StoppingRule, run
from qsass.store import CurvaturePairStore, SpectrumBounds
from qsass.theory import (TheoryInputs, failure_probability, iteration_bound,
                          progress_constants)

from test_bench import QUIET, read_tree


def test_c01_spectrum_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(100):
        dim = int(rng.integers(1, 11))
        # The compact representation needs 2 m <= n, which is also the
        # store's own capacity clamp; honor it when drawing pair counts.
        pairs = int(rng.integers(0, min(5, dim // 2) + 1))
        store = make_random_store(rng, dim, pairs, c=1.0)
        sigma_l, sigma_s = store.extreme_eigenvalues()
        eigs = np.linalg.eigvalsh(dense_b(store))
        assert abs(sigma_l - eigs[-1]) <= 1e-8 * max(abs(eigs[-1]), 1.0)
        assert abs(sigma_s - eigs[0]) <= 1e-8 * max(abs(eigs[0]), 1.0)
    assert time.monotonic() - started < 5.0


def test_c02_two_loop_round_trip():
    rng = np.random.default_rng(102)
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        pairs = int(rng.integers(0, min(6, dim // 2 + 1)))
        store = make_random_store(rng, dim, pairs, c=1.0, min_cos=0.05)
        g = rng.normal(size=dim)
        d = store.apply_inverse(g)
        residual = np.linalg.norm(dense_b(store) @ d - g)
        assert residual <= 1e-8 * np.linalg.norm(g)


def test_c03_enforcement_guarantee():
    rng = np.random.default_rng(103)
    bounds = SpectrumBounds(1e-4, 1e4)
    evictions = 0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        store = CurvaturePairStore(dim, capacity=None, c=1.0)
        for _ in range(int(rng.integers(1, 7))):
            s = rng.normal(size=dim)
            scale = 10.0 ** rng.uniform(-9.0, 9.0)
            y = scale * s + 0.1 * scale * rng.normal(size=dim)
            if float(s @ y) > store.curvature_tol:
                store.try_insert(s, y)
        evictions += store.enforce_spectrum(bounds)
        if len(store):
            eigs = np.linalg.eigvalsh(dense_b(store))
            assert eigs[0] >= bounds.lower - 1e-9
            assert eigs[-1] <= bounds.upper + 1e-9
    assert evictions > 0  # the adversarial seeding actually bites


def test_c04_search_direction_invariant():
    instances = [("quadratic", 10, dict(condition=100.0)),
                 ("rosenbrock-chain", 4, {}),
                 ("cosine-chain", 4, {}),
                 ("trig-sum", 4, {}),
                 ("ill-conditioned-quadratic", 10, {})]
    for family, dim, kw in instances:
        problem = builtin_problem(family, dim, **kw)
        for lb, ub in ((1e-4, 1e4), (0.05, 20.0)):
            config = SolverConfig(eps_f=0.0, adaptive_eps_f=False,
                                  spectrum_lb=lb, spectrum_ub=ub,
                                  max_iterations=200)
            trace = run(problem, config, OracleModel("exact"),
                        StoppingRule("none"))
            s_lo, s_hi = 1.0 / ub, 1.0 / lb
            for rec in trace.records:
                if rec.g_norm == 0.0:
                    continue
                cosine = rec.gd_inner / (rec.d_norm * rec.g_norm)
                assert cosine >= s_lo / s_hi - 1e-9
                assert rec.d_norm >= s_lo * rec.g_norm - 1e-9
                assert rec.d_norm <= s_hi * rec.g_norm + 1e-9


def test_c05_noiseless_convergence():
    problem = builtin_problem("quadratic", 10, condition=100.0)
    threshold = 1e-6 * np.linalg.norm(problem.gradient(problem.start_point))
    config = SolverConfig(eps_f=0.0, adaptive_eps_f=False, max_iterations=300)
    started = time.monotonic()
    trace = run(problem, config, OracleModel("exact"),
                StoppingRule("gradient-norm", threshold))
    elapsed = time.monotonic() - started
    assert trace.hit
    assert trace.iterations <= 300
    assert elapsed < 1.0


def test_c06_stochastic_convergence():
    spec = ExperimentSpec(problems=("quadratic:n=2", "rosenbrock-chain:n=2"),
                          solvers=("qsass",), seeds=30, oracle="additive",
                          name="acceptance-c6")
    table = run_experiment(spec).tables["iterations"]
    for p in range(2):
        rows = table.values[p * 30:(p + 1) * 30, 0]
        assert np.isfinite(rows).sum() >= 24


def test_c07_quasi_newton_beats_baseline():
    problems = ("quadratic:n=8:condition=100", "rosenbrock-chain:n=4",
                "cosine-chain:n=4", "trig-sum:n=4",
                "ill-conditioned-quadratic:n=8")
    spec = ExperimentSpec(problems=problems, solvers=("qsass", "sass"),
                          seeds=30, oracle="additive", name="acceptance-c7")
    table = run_experiment(spec).tables["iterations"]
    wins = 0
    for p in range(len(problems)):
        rows = slice(p * 30, (p + 1) * 30)
        wins += (np.median(table.values[rows, 0])
                 <= np.median(table.values[rows, 1]))
    assert wins >= 3


def test_c08_mixed_noise_robustness():
    common = dict(problems=("cosine-chain:n=4",),
                  solvers=("qsass", "qsass-bfgs"), seeds=30)
    mixed = run_experiment(ExperimentSpec(oracle="mixed-gaussian",
                                          name="acceptance-c8m", **common))
    additive = run_experiment(ExperimentSpec(oracle="additive",
                                             name="acceptance-c8a", **common))

    def census_fraction(result, solver):
        for entry, label, iters, fraction in result.census:
            if label == solver:
                return fraction
        raise AssertionError(f"no census row for {solver}")

    # The census tracks the non-enforcing variant: the fraction of its
    # iterations whose store would fail the eigenvalue bounds.
    assert census_fraction(mixed, "qsass-bfgs") > 0.5
    assert census_fraction(additive, "qsass-bfgs") < 0.05

    table = mixed.tables["iterations"]
    hits_qsass = np.isfinite(table.values[:, 0]).sum()
    hits_bfgs = np.isfinite(table.values[:, 1]).sum()
    assert hits_qsass >= hits_bfgs


def test_c09_parameter_shift_exactness():
    rng = np.random.default_rng(109)
    for preset in list_vqe_presets():
        problem = vqe_problem(preset)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, size=problem.dim)
            i = int(rng.integers(problem.dim))
            grad = problem.gradient(x)[i]
            lifted = x.copy()
            lifted[i] += 0.5 * np.pi
            lowered = x.copy()
            lowered[i] -= 0.5 * np.pi
            shift = 0.5 * (problem.objective(lifted)
                           - problem.objective(lowered))
            worst = max(worst, abs(shift - grad))
        assert worst <= 1e-12


def test_c10_toy_vqe_solve():
    spec = ExperimentSpec(problems=("vqe:h2-like",), solvers=("qsass",),
                          seeds=30, oracle="vqe-measurement",
                          stopping="optimality-gap", stop_value=1e-3,
                          eps_f=1e-4, kappa=0.5, max_iterations=500,
                          max_samples=1e8, name="acceptance-c10")
    result = run_experiment(spec)
    solved = sum(1 for trace in result.traces.values()
                 if trace.hit and trace.stop_iteration <= 500
                 and trace.total_samples <= 10 ** 8)
    assert solved >= 20


def test_c11_theory_cross_validation():
    rng = np.random.default_rng(111)
    for _ in range(500):
        check_nonconvex_agreement(draw_valid_inputs(rng, False))
        check_strongly_convex_agreement(draw_valid_inputs(rng, True))

    base = dict(lipschitz=1.0, eps=1.0, p_hat=0.8, initial_gap=1.0,
                strong_convexity=0.5)
    clean = TheoryInputs(**base)
    assert progress_constants(clean, "nonconvex").p_ell == 0.5
    assert progress_constants(clean, "strongly-convex").p_ell == 0.5
    noisy = TheoryInputs(eps_f=1e-9, **base)
    assert progress_constants(noisy, "nonconvex").p_ell > 0.5
    assert progress_constants(noisy, "strongly-convex").p_ell > 0.5

    values = [failure_probability(0.85, 0.7, t, tail_slack=0.5,
                                  nu_r=2.0, b_r=2.0)
              for t in np.logspace(0, 4, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))

    terms = [iteration_bound(TheoryInputs(lipschitz=1.0, eps=e, p_hat=0.8,
                                          initial_gap=1.0),
                             "nonconvex").gap_term
             for e in (1.0, 0.5, 0.25)]
    assert abs(terms[1] / terms[0] - 4.0) <= 4.0 * 1e-12
    assert abs(terms[2] / terms[1] - 4.0) <= 4.0 * 1e-12


def test_c12_profile_generators():
    table = MetricTable("iterations", ("p1", "p2"), (3, 5), ("a", "b"),
                        [[10.0, 20.0], [40.0, 20.0]])
    ratios, _, _ = performance_ratios(table)
    assert np.array_equal(ratios, [[1.0, 2.0], [2.0, 1.0]])
    curves = performance_profile(table, tau_grid=[1.0, 2.0])
    assert np.array_equal(curves.fractions, [[0.5, 0.5], [1.0, 1.0]])

    single = MetricTable("samples", ("p1",), (1,), ("a",), [[4.0]])
    data = data_profile(single, alpha_grid=[2.0])
    assert data.fractions[0, 0] == 1.0  # 4 <= 2 * (1 + 1)
    zero = MetricTable("samples", ("p1",), (1,), ("a",), [[0.0]])
    assert data_profile(zero, alpha_grid=[0.0]).fractions[0, 0] == 1.0
    failed = MetricTable("samples", ("p1",), (1,), ("a",), [[math.inf]])
    assert data_profile(failed, alpha_grid=[1e6]).fractions[0, 0] == 0.0

    rng = np.random.default_rng(112)
    for _ in range(20):
        n_problems = int(rng.integers(2, 10))
        n_solvers = int(rng.integers(1, 5))
        values = np.exp(rng.normal(3.0, 1.0, size=(n_problems, n_solvers)))
        values[rng.random(values.shape) < 0.2] = math.inf
        if not np.isfinite(values.min(axis=1)).any():
            values[0, 0] = 1.0
        random_table = MetricTable(
            "iterations", tuple(f"p{i}" for i in range(n_problems)),
            tuple(rng.integers(1, 20) for _ in range(n_problems)),
            tuple(f"s{j}" for j in range(n_solvers)), values)
        for curves in (performance_profile(random_table),
                       data_profile(random_table)):
            assert np.all(curves.fractions >= 0.0)
            assert np.all(curves.fractions <= 1.0)
            assert np.all(np.diff(curves.fractions, axis=0) >= 0.0)


def test_c13_replay_determinism(tmp_path):
    spec = ExperimentSpec(problems=("quadratic:n=2", "rosenbrock-chain:n=2"),
                          solvers=("qsass", "sass"), seeds=2,
                          oracle="additive", oracle_params=QUIET,
                          max_iterations=40, stop_factor=0.05,
                          name="acceptance-c13")
    write_experiment(run_experiment(spec, workers=1), tmp_path / "first")
    write_experiment(run_experiment(spec, workers=1), tmp_path / "second")
    write_experiment(run_experiment(spec, workers=3), tmp_path / "parallel")
    first = read_tree(tmp_path / "first")
    assert first == read_tree(tmp_path / "second")
    assert first == read_tree(tmp_path / "parallel")
    assert any(name.endswith(".trace") for name in first)
