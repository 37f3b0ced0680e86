import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qsass import bench
from qsass.bench import (ExperimentSpec, census_to_text, entry_label,
                         enforcement_fraction, experiment_spec_from_file,
                         metric_value, problem_from_entry, replay_trace,
                         run_experiment, solver_labels, spec_to_text,
                         write_experiment)
from qsass.errors import (BudgetExhaustedError, ConfigurationError,
                          RegistryError, SpecFileError)
from qsass.oracles import OracleParams
from qsass.problems import VqeProblem
from qsass.solver import RunTrace


def tiny_spec(**overrides):
    base = dict(problems=("quadratic:n=2",), solvers=("qsass",), seeds=1,
                oracle="exact", max_iterations=60, stop_factor=0.05,
                name="unit")
    base.update(overrides)
    return ExperimentSpec(**base)


QUIET = OracleParams(function_scale=1e-3, gradient_scale=1e-3)


class TestProblemEntries:
    def test_builtin_with_parameters(self):
        p = problem_from_entry("quadratic:n=10:condition=100")
        assert p.dim == 10
        assert p.hessian_norm_hint == pytest.approx(100.0)

    def test_default_dimension(self):
        assert problem_from_entry("rosenbrock-chain").dim == 2

    def test_vqe_entry(self):
        p = problem_from_entry("vqe:toy-1q")
        assert isinstance(p, VqeProblem)

    def test_file_entry(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("dim = 2\nmatrix = 2 0 ; 0 1\n")
        p = problem_from_entry(f"file:{path}")
        assert p.dim == 2

    @pytest.mark.parametrize("entry", [
        "vqe", "vqe:a:b", "quadratic:n=abc", "quadratic:loose-segment",
        "quadratic:condition=big",
    ])
    def test_malformed_entries(self, entry):
        with pytest.raises(RegistryError):
            problem_from_entry(entry)

    def test_unknown_family(self):
        with pytest.raises(RegistryError):
            problem_from_entry("nosuch:n=2")

    def test_entry_label_is_path_safe(self):
        label = entry_label("quadratic:n=10:condition=100")
        assert label == "quadratic_n-10_condition-100"
        assert "/" not in entry_label("file:/tmp/x.txt")

    def test_solver_labels_deduplicate(self):
        assert solver_labels(("qsass", "sass", "qsass")) \
            == ("qsass", "sass", "qsass#2")


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [
        dict(problems=()),
        dict(solvers=()),
        dict(solvers=("newton",)),
        dict(oracle="bernoulli"),
        dict(seeds=0),
        dict(metric="wallclock"),
        dict(stopping="optimality-gap"),          # needs stop_value
        dict(stop_factor=0.0),
        dict(max_iterations=-1),
        dict(max_samples=0.0),
        dict(time_limit=0.0),
        dict(gradient_mode="nope"),
        dict(gradient_mode="Shift"),
        dict(oracle="vqe-measurement", gradient_mode="direct"),
        dict(seeds=2.5),
        dict(master_seed=1.5),
        dict(memory=float("nan")),
        dict(sample_cap=float("inf")),
        dict(pilot_samples="30"),
        dict(max_iterations=60.5),
        dict(seeds=None),
        dict(master_seed=-1),
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises(ConfigurationError):
            tiny_spec(**bad)

    @pytest.mark.parametrize("mode", ["auto", "direct", "shift", "fd"])
    def test_gradient_modes_accepted(self, mode):
        assert tiny_spec(gradient_mode=mode).gradient_mode == mode

    def test_integral_floats_stored_as_ints(self):
        spec = tiny_spec(seeds=2.0, master_seed=np.float64(1.0), memory=4.0,
                         sample_cap=1e6, pilot_samples=np.int64(30),
                         max_iterations=60.0)
        for name, value in [("seeds", 2), ("master_seed", 1), ("memory", 4),
                            ("sample_cap", 10 ** 6), ("pilot_samples", 30),
                            ("max_iterations", 60)]:
            assert type(getattr(spec, name)) is int
            assert getattr(spec, name) == value
        assert spec == tiny_spec(seeds=2, master_seed=1, memory=4,
                                 sample_cap=10 ** 6, pilot_samples=30)
        assert "seeds = 2\n" in spec_to_text(spec)

    def test_integral_float_master_seed_runs(self):
        # A float master seed used to reach SeedSequence and raise TypeError
        # in every cell.
        floats, ints = (run_experiment(tiny_spec(master_seed=seed,
                                                 oracle="additive",
                                                 oracle_params=QUIET))
                        for seed in (1.0, 1))
        assert ([t.to_text() for t in floats.traces.values()]
                == [t.to_text() for t in ints.traces.values()])

    def test_unresolvable_problem_fails_before_running(self):
        spec = tiny_spec(problems=("nosuch:n=2",))
        with pytest.raises(RegistryError):
            run_experiment(spec)

    def test_negative_seed_override_refused(self):
        with pytest.raises(ConfigurationError, match="master_seed"):
            replace(tiny_spec(), master_seed=-1)

    @pytest.mark.parametrize("overrides", [
        dict(gradient_mode="shift"),
        dict(oracle="vqe-measurement"),
        dict(oracle="vqe-measurement", gradient_mode="fd",
             problems=("rosenbrock-chain:n=2",)),
        dict(oracle="vqe-measurement", gradient_mode="shift",
             problems=("vqe:toy-1q", "quadratic:n=2")),
    ])
    def test_problem_without_the_oracle_or_mode_fails_before_running(
            self, overrides, monkeypatch):
        spec = tiny_spec(**overrides)
        monkeypatch.setattr(bench, "run_cell", None)   # no cell may start
        with pytest.raises(ConfigurationError, match="needs a vqe"):
            run_experiment(spec)

    @pytest.mark.parametrize("overrides", [
        dict(problems=("vqe:toy-1q",), gradient_mode="shift",
             oracle="additive"),
        dict(problems=("vqe:toy-1q",), oracle="vqe-measurement"),
        dict(problems=("vqe:h2-like",), oracle="vqe-measurement",
             gradient_mode="fd"),
        dict(gradient_mode="fd", oracle="additive"),
    ])
    def test_supported_problems_resolve(self, overrides):
        assert len(tiny_spec(**overrides).resolve_problems()) == 1

    def test_bad_worker_count(self, monkeypatch):
        monkeypatch.setenv("QSASS_WORKERS", "plenty")
        with pytest.raises(ConfigurationError):
            run_experiment(tiny_spec())


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec(problems=("quadratic:n=4:condition=10", "vqe:toy-1q"),
                         solvers=("qsass", "sass"), seeds=3, oracle="additive",
                         oracle_params=QUIET, eps_g=1e-3, max_samples=1e6)
        path = tmp_path / "spec.txt"
        path.write_text(spec_to_text(spec))
        assert experiment_spec_from_file(path) == spec

    def test_defaults_and_none_values(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("problems = quadratic:n=2\nmax_iterations = none\n")
        spec = experiment_spec_from_file(path)
        assert spec.seeds == 30
        assert spec.max_iterations is None
        assert spec.solvers == ("qsass",)

    @pytest.mark.parametrize("body", [
        "solvers = qsass\n",                        # problems missing
        "problems = quadratic:n=2\nseeds = few\n",
        "problems = quadratic:n=2\nwhat = 7\n",
        "problems = quadratic:n=2\nseeds = 0\n",    # invalid after parsing
    ])
    def test_bad_spec_files(self, tmp_path, body):
        path = tmp_path / "spec.txt"
        path.write_text(body)
        with pytest.raises(SpecFileError):
            experiment_spec_from_file(path)


class TestRunExperiment:
    def test_single_cell_matches_trace(self):
        result = run_experiment(tiny_spec())
        trace = result.traces[(0, 0, 0)]
        assert trace.hit
        table = result.tables["iterations"]
        assert table.values.shape == (1, 1)
        assert table.values[0, 0] == float(trace.stop_iteration)
        assert result.tables["samples"].values[0, 0] \
            == float(trace.total_samples)
        assert table.failure_reasons == {}

    def test_identical_configs_give_identical_columns(self):
        spec = tiny_spec(solvers=("qsass", "qsass"), seeds=2,
                         oracle="additive", oracle_params=QUIET)
        result = run_experiment(spec)
        table = result.primary_table
        assert table.solvers == ("qsass", "qsass#2")
        assert np.array_equal(table.values[:, 0], table.values[:, 1])
        for s in range(2):
            a = result.traces[(0, 0, s)]
            b = result.traces[(0, 1, s)]
            assert a.records == b.records

    def test_zero_iteration_budget_gives_all_inf(self):
        spec = tiny_spec(max_iterations=0, seeds=2)
        result = run_experiment(spec)
        values = result.primary_table.values
        assert np.isinf(values).all()
        reasons = set(result.primary_table.failure_reasons.values())
        assert reasons == {"iteration-budget"}

    def test_fd_at_zero_gradient_tolerance_finishes_every_cell(self):
        # Fd gradients that read exactly 0 make eps_g_k 0; the budget then
        # takes the zero-tolerance rule instead of raising.
        spec = tiny_spec(problems=("vqe:h2-like",), oracle="vqe-measurement",
                         gradient_mode="fd", stop_factor=0.3,
                         max_iterations=60, eps_g=0.0,
                         solvers=("qsass", "sass", "qsass-bfgs"), seeds=3)
        result = run_experiment(spec)
        assert len(result.traces) == 9
        assert any(rec.eps_g_k == 0.0 for trace in result.traces.values()
                   for rec in trace.records)
        for trace in result.traces.values():
            assert trace.stop_reason in ("stopping-rule", "iteration-budget")

    def test_seeds_differ_across_problems_not_solvers(self):
        spec = tiny_spec(problems=("quadratic:n=2", "quadratic:n=2"),
                         solvers=("qsass",), seeds=1, oracle="additive",
                         oracle_params=QUIET)
        result = run_experiment(spec)
        a = result.traces[(0, 0, 0)]
        b = result.traces[(1, 0, 0)]
        assert a.records != b.records  # independent streams per problem

    def test_time_limit_exhaustion(self):
        spec = tiny_spec(seeds=5, time_limit=1e-9)
        with pytest.raises(BudgetExhaustedError):
            run_experiment(spec)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_time_limit_is_checked_between_cells_only(self, monkeypatch,
                                                      workers):
        # The clock reads the number of finished cells, in seconds.  Only
        # bench's own clock is replaced: pool workers keep the real one.
        finished = []
        monkeypatch.setattr(bench, "time", SimpleNamespace(
            monotonic=lambda: float(len(finished))))
        spec = tiny_spec(seeds=3, time_limit=2.5)
        result = run_experiment(spec, workers=workers,
                                progress=finished.append)
        assert sorted(result.traces) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
        for k in (1, 2):
            finished.clear()
            with pytest.raises(BudgetExhaustedError,
                               match=f"after {k} of 3 cells"):
                run_experiment(replace(spec, time_limit=k - 0.5),
                               workers=workers, progress=finished.append)

    def test_metric_value_mapping(self):
        result = run_experiment(tiny_spec())
        trace = result.traces[(0, 0, 0)]
        assert metric_value(trace, "iterations") == float(trace.stop_iteration)
        assert metric_value(trace, "samples") == float(trace.total_samples)
        budget = run_experiment(tiny_spec(max_iterations=0))
        assert metric_value(budget.traces[(0, 0, 0)], "iterations") == math.inf


class TestCensus:
    def test_mixed_noise_triggers_enforcement(self):
        common = dict(problems=("cosine-chain:n=4",), solvers=("qsass",),
                      seeds=2, max_iterations=120, stop_factor=1e-6)
        quiet = run_experiment(tiny_spec(oracle="additive",
                                         oracle_params=QUIET, **common))
        noisy = run_experiment(tiny_spec(oracle="mixed-gaussian", **common))
        quiet_fraction = quiet.census[0][3]
        noisy_fraction = noisy.census[0][3]
        assert quiet_fraction < 0.05
        assert noisy_fraction > quiet_fraction

    def test_enforcement_fraction_edge_cases(self):
        empty = run_experiment(tiny_spec(max_iterations=0)).traces[(0, 0, 0)]
        assert enforcement_fraction(empty) == 0.0
        exact = run_experiment(tiny_spec()).traces[(0, 0, 0)]
        assert 0.0 <= enforcement_fraction(exact) <= 1.0

    def test_census_text(self):
        result = run_experiment(tiny_spec())
        text = census_to_text(result.census)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# problem")
        assert lines[1].split("\t")[0] == "quadratic_n-2"


def read_tree(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


class TestOutputAndDeterminism:
    def determinism_spec(self):
        return tiny_spec(problems=("quadratic:n=2", "rosenbrock-chain:n=2"),
                         solvers=("qsass", "sass"), seeds=2,
                         oracle="additive", oracle_params=QUIET,
                         max_iterations=40)

    def test_write_layout(self, tmp_path):
        result = run_experiment(tiny_spec())
        out = tmp_path / "exp"
        write_experiment(result, out)
        names = set(os.listdir(out))
        assert {"spec.txt", "table-iterations.txt", "table-samples.txt",
                "performance-profile.txt", "data-profile.txt",
                "census.txt", "traces"} <= names
        traces = os.listdir(out / "traces")
        assert traces == ["quadratic_n-2__qsass__s0.trace"]

    def test_all_failed_grid_writes_every_file(self, tmp_path):
        spec = tiny_spec(problems=("quadratic:n=2", "rosenbrock-chain:n=2"),
                         solvers=("qsass", "sass"), seeds=2,
                         max_iterations=0)
        out = tmp_path / "exp"
        write_experiment(run_experiment(spec), out)
        assert {"spec.txt", "table-iterations.txt", "table-samples.txt",
                "performance-profile.txt", "data-profile.txt",
                "census.txt", "traces"} <= set(os.listdir(out))
        assert len(os.listdir(out / "traces")) == 8
        profile = (out / "performance-profile.txt").read_text()
        assert profile.endswith(
            "# dropped (all solvers failed): quadratic_n-2#s0 quadratic_n-2#s1"
            " rosenbrock-chain_n-2#s0 rosenbrock-chain_n-2#s1\n")
        match, _ = replay_trace(sorted((out / "traces").iterdir())[0])
        assert match

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = self.determinism_spec()
        write_experiment(run_experiment(spec), tmp_path / "a")
        write_experiment(run_experiment(spec), tmp_path / "b")
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_parallel_matches_serial(self, tmp_path):
        spec = self.determinism_spec()
        write_experiment(run_experiment(spec, workers=1), tmp_path / "serial")
        write_experiment(run_experiment(spec, workers=3), tmp_path / "par")
        assert read_tree(tmp_path / "serial") == read_tree(tmp_path / "par")


class TestReplay:
    def write_one(self, tmp_path, **overrides):
        spec = tiny_spec(**{"oracle": "additive", "oracle_params": QUIET,
                            **overrides})
        result = run_experiment(spec)
        out = tmp_path / "exp"
        write_experiment(result, out)
        traces = sorted((out / "traces").iterdir())
        return traces[0]

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(gradient_mode="fd"),
        dict(problems=("vqe:h2-like",), oracle="vqe-measurement",
             gradient_mode="shift", stop_factor=0.5),
        dict(problems=("vqe:h2-like",), oracle="vqe-measurement",
             gradient_mode="fd", stop_factor=0.5),
    ], ids=["direct-additive", "fd-additive", "shift-vqe", "fd-vqe"])
    def test_replay_matches(self, tmp_path, overrides):
        path = self.write_one(tmp_path, **overrides)
        match, text = replay_trace(path)
        assert match
        assert text == path.read_text()

    def test_replay_detects_tampering(self, tmp_path):
        path = self.write_one(tmp_path)
        trace = RunTrace.from_text(path.read_text())
        trace.labels["seed_index"] = "1"  # points at a different stream
        path.write_text(trace.to_text())
        match, _ = replay_trace(path)
        assert not match

    def test_replay_needs_labels(self, tmp_path):
        path = self.write_one(tmp_path)
        trace = RunTrace.from_text(path.read_text())
        del trace.labels["master_seed"]
        path.write_text(trace.to_text())
        with pytest.raises(SpecFileError):
            replay_trace(path)
