"""Problems are built once per process; ``file:`` manifests are re-read."""

import os

import pytest

from qsass import bench
from qsass.bench import (ExperimentSpec, replay_trace, run_cell,
                         run_experiment, write_experiment)


@pytest.fixture
def builds(monkeypatch):
    """Entries passed to ``problem_from_entry``, starting from an empty
    memo."""
    built = []
    real = bench.problem_from_entry

    def counting(entry):
        built.append(entry)
        return real(entry)

    monkeypatch.setattr(bench, "problem_from_entry", counting)
    monkeypatch.setattr(bench, "_BUILT", {})
    return built


def test_grid_and_replay_build_once(builds, tmp_path):
    spec = ExperimentSpec(
        problems=("vqe:h2-like",), solvers=("qsass", "sass"), seeds=3,
        oracle="vqe-measurement", stopping="optimality-gap", stop_value=1e-3,
        eps_f=1e-4, kappa=0.5, max_iterations=100, name="build-once")
    result = run_experiment(spec, workers=1)
    write_experiment(result, tmp_path)
    trace_dir = tmp_path / "traces"
    match, _ = replay_trace(str(trace_dir / sorted(os.listdir(trace_dir))[0]))
    assert match
    assert builds == ["vqe:h2-like"]


def test_file_manifest_is_reread(builds, tmp_path):
    path = tmp_path / "model.txt"
    spec = ExperimentSpec(problems=(f"file:{path}",), seeds=1,
                          oracle="exact", max_iterations=0)
    path.write_text("dim = 2\nmatrix = 2 0 ; 0 1\n")
    first = run_cell(spec, 0, 0, 0)
    path.write_text("dim = 3\nmatrix = 3 0 0 ; 0 2 0 ; 0 0 1\n")
    second = run_cell(spec, 0, 0, 0)
    assert builds == [f"file:{path}"] * 2
    # Zero iterations leave x at the manifest's start point of ones.
    assert first.final_x_norm == pytest.approx(2 ** 0.5)
    assert second.final_x_norm == pytest.approx(3 ** 0.5)


def test_builder_returns_fresh_objects():
    first = bench.problem_from_entry("quadratic:n=3")
    second = bench.problem_from_entry("quadratic:n=3")
    assert first is not second
