import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsass.bench import problem_from_entry
from qsass.errors import ConfigurationError, RegistryError, SpecFileError
from qsass.problems import (GRADIENT_CHECK_DIRECTIONS, GRADIENT_CHECK_POINTS,
                            Problem, builtin_problem, list_builtin_problems,
                            list_vqe_presets, load_problem_manifest,
                            vqe_problem)

ALL_FAMILIES = ["cosine-chain", "ill-conditioned-quadratic",
                "quadratic", "rosenbrock-chain", "trig-sum"]


def central_differences(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestRegistry:
    def test_listing_is_sorted_and_complete(self):
        assert list_builtin_problems() == ALL_FAMILIES

    def test_unknown_family(self):
        with pytest.raises(RegistryError):
            builtin_problem("does-not-exist", 4)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            builtin_problem("quadratic", 2, condition=0.5)
        with pytest.raises(ValueError):
            builtin_problem("cosine-chain", 1)

    @pytest.mark.parametrize("family, dim, params", [
        ("quadratic", 4, {"condition": 0.0}),
        ("quadratic", 4, {"condition": float("nan")}),
        ("quadratic", 4, {"condition": float("inf")}),
        ("quadratic", 4, {"bogus": 1.0}),
        ("rosenbrock-chain", 1, {}),
    ])
    def test_refused_parameters_are_configuration_errors(self, family, dim,
                                                          params):
        with pytest.raises(ConfigurationError, match="bad parameters"):
            builtin_problem(family, dim, **params)


class TestBuiltins:
    def test_unit_quadratic(self):
        p = builtin_problem("quadratic", 2, condition=1.0)
        assert p.objective(np.array([3.0, 4.0])) == pytest.approx(12.5)
        assert_allclose(p.gradient(np.array([3.0, 4.0])), [3.0, 4.0])
        assert p.optimal_value == 0.0
        assert p.hessian_norm_hint == 1.0

    def test_conditioned_quadratic_spread(self):
        p = builtin_problem("quadratic", 5, condition=100.0)
        a = p.quadratic_matrix
        eigs = np.linalg.eigvalsh(a)
        assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-9)
        assert p.hessian_norm_hint == pytest.approx(100.0)

    def test_rosenbrock_standard_start(self):
        p = builtin_problem("rosenbrock-chain", 2)
        assert_allclose(p.start_point, [-1.2, 1.0])
        assert p.objective(p.start_point) == pytest.approx(24.2)
        assert_allclose(p.gradient(np.ones(2)), 0.0, atol=1e-12)
        assert p.optimal_value == 0.0

    def test_cosine_chain_origin(self):
        p = builtin_problem("cosine-chain", 2)
        assert p.objective(np.zeros(2)) == pytest.approx(1.0)
        assert_allclose(p.gradient(np.zeros(2)), [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gradient_matches_finite_differences(self, family):
        p = builtin_problem(family, 4)
        rng = np.random.default_rng(101)
        for _ in range(20):
            x = p.start_point + rng.standard_normal(4)
            g = p.gradient(x)
            fd = central_differences(p.objective, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_hessian_norm_hint_present(self, family):
        p = builtin_problem(family, 4)
        assert p.hessian_norm_hint is not None
        assert p.hessian_norm_hint > 0.0

    def test_self_test_rejects_wrong_gradient(self):
        with pytest.raises(ValueError, match="disagrees"):
            Problem("broken", 2, lambda x: float(x @ x),
                    lambda x: 3.0 * x, np.ones(2))


class TestDirectionalSelfTest:
    def test_one_wrong_coordinate_is_caught_at_every_coordinate(self):
        # Central differences along every coordinate catch this error at all
        # 64 coordinates (and at none with 2e-3 in place of 3e-3).
        p = builtin_problem("quadratic", 64, condition=100.0)
        a = p.quadratic_matrix
        for i in range(p.dim):
            def wrong_gradient(x, i=i):
                g = a @ x
                g[i] += 3e-3
                return g

            with pytest.raises(ValueError, match="disagrees"):
                Problem(p.name, p.dim, lambda x: 0.5 * float(x @ (a @ x)),
                        wrong_gradient, p.start_point)

    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_objective_calls_do_not_grow_with_dimension(self, n):
        calls = []

        def objective(x):
            calls.append(None)
            return 0.5 * float(x @ x)

        Problem("count", n, objective, lambda x: x, np.ones(n))
        assert len(calls) == 2 * GRADIENT_CHECK_DIRECTIONS * GRADIENT_CHECK_POINTS

    @pytest.mark.parametrize("objective, gradient", [
        (lambda x: float("nan"), lambda x: 2 * x),
        (lambda x: float("inf"), lambda x: 2 * x),
        (lambda x: float(x @ x), lambda x: np.array([np.inf, 0.0])),
        (lambda x: float(x @ x), lambda x: np.array([np.nan, 0.0])),
    ], ids=["nan-objective", "inf-objective", "inf-gradient", "nan-gradient"])
    def test_non_finite_values_fail(self, objective, gradient):
        with pytest.raises(ValueError, match="disagrees"):
            Problem("x", 2, objective, gradient, np.ones(2))

    @pytest.mark.parametrize("entry", [
        *[f"{f}:n={n}" for f in ALL_FAMILIES for n in (4, 64)],
        *[f"vqe:{p}" for p in list_vqe_presets()],
    ])
    def test_hessian_hint_is_untouched_by_the_check(self, monkeypatch, entry):
        checked = problem_from_entry(entry).hessian_norm_hint
        init = Problem.__init__

        def init_unchecked(self, *args, **kwargs):
            init(self, *args, **dict(kwargs, check_gradient=False))

        monkeypatch.setattr(Problem, "__init__", init_unchecked)
        assert problem_from_entry(entry).hessian_norm_hint.hex() == checked.hex()


class TestManifest(object):
    GOOD = """\
# toy 2-D quadratic
name   = manifest-quad
dim    = 2
matrix = 2 0 ; 0 4
linear = 1 -1
start  = 0 0
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text(self.GOOD)
        p = load_problem_manifest(path)
        assert p.name == "manifest-quad"
        assert p.dim == 2
        x = np.array([1.0, 2.0])
        assert p.objective(x) == pytest.approx(0.5 * (2 + 16) + (1 - 2))
        assert_allclose(p.gradient(x), [2.0 + 1.0, 8.0 - 1.0])
        # minimizer of 0.5 x'Ax + b'x is -A^{-1} b
        assert p.optimal_value == pytest.approx(-0.375)
        assert_allclose(p.start_point, [0.0, 0.0])
        assert p.hessian_norm_hint == pytest.approx(4.0)

    def test_defaults(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text("dim = 1\nmatrix = 2\n")
        p = load_problem_manifest(path)
        assert_allclose(p.start_point, [1.0])
        assert p.optimal_value == pytest.approx(0.0)

    @pytest.mark.parametrize("body", [
        "dim = 2\n",                                   # missing matrix
        "dim = 2\nmatrix = 1 0 ; 0\n",                 # ragged rows
        "dim = 2\nmatrix = 1 2 ; 0 1\n",               # asymmetric
        "dim = 2\nmatrix = 1 0 ; 0 -1\n",              # not positive definite
        "dim = two\nmatrix = 1 0 ; 0 1\n",             # unparseable dim
        "dim 2\nmatrix = 1 0 ; 0 1\n",                 # missing separator
        "dim = 2\nmatrix = 1 0 ; 0 1\nstart = 1\n",    # start wrong length
        "dim = 2\nmatrix = 1 0 ; 0 1\nstart = nan 0\n",  # non-finite start
        "dim = 2\nmatrix = 1 0 ; 0 1\nlinear = inf 0\n",  # non-finite linear
        "dim = 2\nmatrix = inf 0 ; 0 1\n",           # non-finite matrix
    ])
    def test_malformed_files(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(SpecFileError):
            load_problem_manifest(path)


class TestVqe:
    def test_preset_listing(self):
        assert list_vqe_presets() == ["h2-like", "lih-like", "toy-1q"]
        with pytest.raises(RegistryError):
            vqe_problem("toy-2q")

    def test_toy_is_negative_cosine(self):
        p = vqe_problem("toy-1q")
        assert p.dim == 1 and p.state_dim == 2
        assert p.ground_energy == -1.0
        assert p.optimal_value == -1.0
        for x in np.linspace(-7.0, 7.0, 41):
            assert p.objective([x]) == pytest.approx(-np.cos(x), abs=1e-12)
            assert p.gradient([x])[0] == pytest.approx(np.sin(x), abs=1e-12)

    @pytest.mark.parametrize("preset", ["toy-1q", "h2-like", "lih-like"])
    def test_zero_angles_give_reference_energy(self, preset):
        p = vqe_problem(preset)
        ref = float(p.reference_state @ (p.hamiltonian @ p.reference_state))
        assert p.objective(np.zeros(p.dim)) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("preset", ["toy-1q", "h2-like", "lih-like"])
    def test_rayleigh_bounds_and_unit_states(self, preset):
        p = vqe_problem(preset)
        lo, hi = p.eigenvalues[0], p.eigenvalues[-1]
        rng = np.random.default_rng(55)
        for _ in range(1000):
            x = rng.uniform(-np.pi, np.pi, p.dim)
            assert abs(np.linalg.norm(p.state(x)) - 1.0) <= 1e-12
            e = p.objective(x)
            assert lo - 1e-10 <= e <= hi + 1e-10

    @pytest.mark.parametrize("preset", ["toy-1q", "h2-like", "lih-like"])
    def test_shift_rule_identity(self, preset):
        p = vqe_problem(preset)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, p.dim)
            i = int(rng.integers(p.dim))
            e = np.zeros(p.dim)
            e[i] = 0.5 * np.pi
            shift = 0.5 * (p.objective(x + e) - p.objective(x - e))
            assert shift == pytest.approx(p.gradient(x)[i], abs=1e-12)

    def test_coordinate_dependence_is_frequency_one(self):
        # phi restricted to one coordinate must be a + b cos t + c sin t;
        # fit the three coefficients and predict held-out points.
        p = vqe_problem("h2-like")
        rng = np.random.default_rng(23)
        for i in range(p.dim):
            x = rng.uniform(-np.pi, np.pi, p.dim)

            def slice_phi(t):
                z = x.copy()
                z[i] = t
                return p.objective(z)

            ts = np.array([0.1, 1.3, 2.9])
            design = np.column_stack(
                [np.ones(3), np.cos(ts), np.sin(ts)])
            coef = np.linalg.solve(design, [slice_phi(t) for t in ts])
            for t in np.linspace(-3.0, 3.0, 7):
                pred = coef[0] + coef[1] * np.cos(t) + coef[2] * np.sin(t)
                assert slice_phi(t) == pytest.approx(pred, abs=1e-10)


class TestVqeMeasure:
    def test_aligned_state_is_deterministic(self):
        p = vqe_problem("toy-1q")
        rng = np.random.default_rng(0)
        # x = 0 leaves psi on the first eigenvector, eigenvalue -1.
        assert p.measure_moments(np.zeros(1), 100, rng)[0] == -1.0
        mean, var = p.measure_moments(np.zeros(1), 100, rng)
        assert (mean, var) == (-1.0, 0.0)

    def test_balanced_superposition_statistics(self):
        p = vqe_problem("toy-1q")
        rng = np.random.default_rng(99)
        x = np.array([0.5 * np.pi])     # phi = 0, +/-1 equally likely
        mean, var = p.measure_moments(x, 100000, rng)
        assert abs(mean) <= 0.02
        assert var == pytest.approx(1.0, rel=0.10)

    def test_single_shot_lands_in_spectrum(self):
        p = vqe_problem("toy-1q")
        rng = np.random.default_rng(3)
        for _ in range(20):
            f_hat = p.measure_moments(np.array([1.1]), 1, rng)[0]
            assert min(abs(f_hat - p.eigenvalues)) <= 1e-12

    def test_unbiasedness(self):
        p = vqe_problem("h2-like")
        rng = np.random.default_rng(123)
        shots = 200000
        for _ in range(5):
            x = rng.uniform(-np.pi, np.pi, p.dim)
            probs = p.measurement_probabilities(x)
            phi = p.objective(x)
            true_var = float(probs @ p.eigenvalues ** 2) - phi ** 2
            se = np.sqrt(true_var / shots)
            mean = p.measure_moments(x, shots, rng)[0]
            assert abs(mean - phi) <= 5.0 * se

    def test_shot_count_validated(self):
        p = vqe_problem("toy-1q")
        with pytest.raises(ValueError):
            p.measure_moments(np.zeros(1), 0, np.random.default_rng(0))
