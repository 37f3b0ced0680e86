import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsass.errors import ConfigurationError, SpecFileError
from qsass.profiles import (MetricTable, curves_to_text, data_profile,
                            default_alpha_grid, default_tau_grid,
                            performance_profile, performance_ratios,
                            table_from_text, table_to_text)

INF = float("inf")


def two_solver_table():
    return MetricTable(metric="iterations",
                       problems=("p1", "p2"), dims=(3, 5),
                       solvers=("a", "b"),
                       values=np.array([[10.0, 20.0], [40.0, 20.0]]))


class TestTableValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            MetricTable("iterations", ("p1",), (2,), ("a", "b"),
                        np.zeros((2, 2)))

    def test_dims_mismatch(self):
        with pytest.raises(ConfigurationError):
            MetricTable("iterations", ("p1", "p2"), (2,), ("a",),
                        np.zeros((2, 1)))

    def test_duplicate_solvers(self):
        with pytest.raises(ConfigurationError):
            MetricTable("iterations", ("p1",), (2,), ("a", "a"),
                        np.zeros((1, 2)))

    def test_whitespace_name(self):
        with pytest.raises(ConfigurationError):
            MetricTable("iterations", ("p 1",), (2,), ("a",), np.zeros((1, 1)))

    def test_negative_and_nan_values(self):
        with pytest.raises(ConfigurationError):
            MetricTable("iterations", ("p1",), (2,), ("a",), [[-1.0]])
        with pytest.raises(ConfigurationError):
            MetricTable("iterations", ("p1",), (2,), ("a",), [[float("nan")]])


class TestPerformanceProfile:
    def test_hand_example(self):
        curves = performance_profile(two_solver_table(),
                                     tau_grid=[1.0, 2.0])
        # ratios: a -> (1, 2), b -> (2, 1)
        assert_allclose(curves.fractions[:, 0], [0.5, 1.0])
        assert_allclose(curves.fractions[:, 1], [0.5, 1.0])
        assert curves.kind == "performance"
        assert curves.dropped == ()

    def test_ratios_best_is_exactly_one(self):
        ratios, kept, dropped = performance_ratios(two_solver_table())
        assert ratios[0, 0] == 1.0
        assert ratios[1, 1] == 1.0
        assert ratios[0, 1] == 2.0
        assert kept.all() and dropped == ()

    def test_single_solver_counts_solved_fraction(self):
        table = MetricTable("iterations", ("p1", "p2", "p3"), (2, 2, 2),
                            ("only",), [[5.0], [INF], [3.0]])
        curves = performance_profile(table, tau_grid=[1.0])
        assert curves.fractions[0, 0] == pytest.approx(2.0 / 3.0)
        assert curves.dropped == ("p2",)

    def test_ties_give_everyone_ratio_one(self):
        table = MetricTable("samples", ("p1", "p2"), (2, 2), ("a", "b"),
                            [[7.0, 7.0], [3.0, 3.0]])
        curves = performance_profile(table, tau_grid=[1.0])
        assert_allclose(curves.fractions, [[1.0, 1.0]])

    def test_all_fail_row_dropped_and_reported(self):
        table = MetricTable("iterations", ("dead", "alive"), (2, 2),
                            ("a", "b"), [[INF, INF], [1.0, 2.0]])
        ratios, kept, dropped = performance_ratios(table)
        assert dropped == ("dead",)
        assert ratios.shape == (1, 2)
        curves = performance_profile(table)
        assert curves.dropped == ("dead",)
        # the dropped problem still counts toward the denominator
        assert curves.fractions[-1, 0] == 0.5

    def test_everything_failing_gives_zero_curves(self):
        table = MetricTable("iterations", ("p1", "p2"), (2, 3), ("a", "b"),
                            [[INF, INF], [INF, INF]])
        curves = performance_profile(table)
        assert curves.fractions.shape == (curves.grid.size, 2)
        assert not curves.fractions.any()
        assert curves.dropped == ("p1", "p2")
        assert curves_to_text(curves).endswith(
            "# dropped (all solvers failed): p1 p2\n")

    def test_tau_grid_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            performance_profile(two_solver_table(), tau_grid=[0.5, 2.0])
        with pytest.raises(ConfigurationError):
            performance_profile(two_solver_table(), tau_grid=[])

    def test_default_grid(self):
        grid = default_tau_grid()
        assert grid.shape == (64,)
        assert grid[0] == 1.0
        assert grid[-1] == pytest.approx(2.0 ** 10)


class TestDataProfile:
    def test_zero_metric_solved_at_zero_budget(self):
        table = MetricTable("samples", ("p1", "p2"), (4, 9), ("a",),
                            [[0.0], [0.0]])
        curves = data_profile(table, alpha_grid=[0.0, 1.0])
        assert_allclose(curves.fractions, [[1.0], [1.0]])

    def test_threshold_arithmetic(self):
        table = MetricTable("samples", ("p1",), (1,), ("a",), [[4.0]])
        curves = data_profile(table, alpha_grid=[1.9, 2.0])
        # budget alpha * (n + 1): 4 <= 2 * 2 counts, 4 <= 3.8 does not
        assert_allclose(curves.fractions[:, 0], [0.0, 1.0])

    def test_failures_never_counted(self):
        table = MetricTable("samples", ("p1", "p2"), (2, 2), ("a",),
                            [[INF], [1.0]])
        curves = data_profile(table, alpha_grid=[1e6])
        assert curves.fractions[0, 0] == 0.5

    def test_dims_override(self):
        table = MetricTable("samples", ("p1",), (1,), ("a",), [[4.0]])
        curves = data_profile(table, alpha_grid=[1.0], dims=[9])
        assert curves.fractions[0, 0] == 1.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            data_profile(two_solver_table(), alpha_grid=[-1.0])

    def test_default_grid(self):
        grid = default_alpha_grid()
        assert grid.shape == (64,)
        assert grid[0] == 1.0
        assert grid[-1] == pytest.approx(1e6)


class TestCurveInvariants:
    def random_table(self, rng):
        n_problems = rng.integers(2, 12)
        n_solvers = rng.integers(1, 5)
        values = np.exp(rng.normal(4.0, 1.0, size=(n_problems, n_solvers)))
        fail = rng.random(values.shape) < 0.2
        values[fail] = INF
        if not np.isfinite(values.min(axis=1)).any():
            values[0, 0] = 1.0
        return MetricTable(
            "iterations",
            tuple(f"p{i}" for i in range(n_problems)),
            tuple(rng.integers(1, 30) for _ in range(n_problems)),
            tuple(f"s{j}" for j in range(n_solvers)),
            values)

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(404)
        for _ in range(25):
            table = self.random_table(rng)
            for curves in (performance_profile(table), data_profile(table)):
                assert np.all(curves.fractions >= 0.0)
                assert np.all(curves.fractions <= 1.0)
                assert np.all(np.diff(curves.fractions, axis=0) >= 0.0)

    def test_kept_rows_have_a_unit_ratio(self):
        rng = np.random.default_rng(405)
        for _ in range(25):
            ratios, _, _ = performance_ratios(self.random_table(rng))
            assert np.all(ratios.min(axis=1) == 1.0)


class TestTextFormats:
    def test_table_round_trip(self):
        table = MetricTable(
            "samples", ("p1", "p2"), (3, 5), ("a", "b"),
            [[10.0, INF], [40.5, 20.0]],
            failure_reasons={("p1", "b"): "sample-budget"})
        text = table_to_text(table)
        back = table_from_text(text)
        assert back.metric == table.metric
        assert back.problems == table.problems
        assert back.dims == table.dims
        assert back.solvers == table.solvers
        assert_allclose(back.values, table.values)
        assert back.failure_reasons == table.failure_reasons
        assert table_to_text(back) == text

    @pytest.mark.parametrize("body", [
        "metric = iterations\n",                          # no solvers/rows
        "solvers = a\np1 2 3.0 4.0\n",                    # wrong cell count
        "metric = x\nsolvers = a\np1 two 3.0\n",          # malformed number
        "p1 2 3.0\nmetric = x\nsolvers = a\n",            # row before header
        "metric = x\nsolvers = a\nfailure p1 a\n",        # short failure row
    ])
    def test_malformed_tables(self, body):
        with pytest.raises(SpecFileError):
            table_from_text(body)

    def test_comments_and_blanks_ignored(self):
        text = ("# generated\n\nmetric = iterations\nsolvers = a\n"
                "p1\t2\t5.0\n")
        table = table_from_text(text)
        assert table.values[0, 0] == 5.0

    def test_curve_text_layout(self):
        table = MetricTable("iterations", ("dead", "alive"), (2, 2),
                            ("a", "b"), [[INF, INF], [1.0, 2.0]])
        text = curves_to_text(performance_profile(table, tau_grid=[1.0, 4.0]))
        lines = text.strip().splitlines()
        assert lines[0] == "# performance profile"
        assert lines[1].split() == ["#", "tau", "a", "b"]
        assert len(lines) == 5  # header, axis row, 2 grid rows, dropped note
        assert lines[-1].startswith("# dropped")
        assert "dead" in lines[-1]

    def test_data_curve_axis_label(self):
        text = curves_to_text(data_profile(two_solver_table(),
                                           alpha_grid=[1.0]))
        assert "alpha" in text.splitlines()[1]
