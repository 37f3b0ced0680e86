import subprocess
import sys

import pytest

from qsass.bench import run_experiment, write_experiment
from qsass.cli import main
from qsass.oracles import OracleModel
from qsass.problems import builtin_problem
from qsass.solver import RunTrace, SolverConfig, StoppingRule, run

from test_bench import tiny_spec, QUIET

GOOD_SPEC = ("name = cli-check\n"
             "problems = quadratic:n=2\n"
             "solvers = qsass\n"
             "seeds = 1\n"
             "oracle = exact\n"
             "max_iterations = 60\n"
             "stop_factor = 0.05\n")

GOOD_THEORY = ("lipschitz = 1\n"
               "strong_convexity = 0.5\n"
               "p_hat = 0.8\n"
               "initial_gap = 1\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_success(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", GOOD_SPEC)
        out = tmp_path / "exp"
        assert main(["run", spec, "--out", str(out)]) == 0
        assert "1 runs ->" in capsys.readouterr().out
        assert (out / "table-iterations.txt").exists()
        assert (out / "performance-profile.txt").exists()

    def test_seed_override_lands_in_echo(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", GOOD_SPEC)
        out = tmp_path / "exp"
        assert main(["run", spec, "--seed", "7", "--out", str(out)]) == 0
        assert "master_seed = 7" in (out / "spec.txt").read_text()

    def test_spec_echo_of_int_in_float_field_is_stable(self, tmp_path,
                                                       capsys):
        first = tmp_path / "first"
        write_experiment(run_experiment(tiny_spec(mu=1)), first)
        echo = (first / "spec.txt").read_text()
        assert "mu = 1.0\n" in echo
        second = tmp_path / "second"
        assert main(["run", str(first / "spec.txt"), "--out", str(second)]) == 0
        assert (second / "spec.txt").read_text() == echo

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", "solvers = qsass\n")
        assert main(["run", spec]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        "gradient_mode = nope\n",
        "oracle = vqe-measurement\ngradient_mode = direct\n",
    ])
    def test_invalid_gradient_mode_exits_two(self, tmp_path, capsys, extra):
        spec = write(tmp_path, "spec.txt", GOOD_SPEC + extra)
        out = tmp_path / "exp"
        assert main(["run", spec, "--out", str(out)]) == 2
        assert "gradient" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem, extra", [
        ("quadratic:n=2", "master_seed = -1\n"),
        ("quadratic:n=2", "gradient_mode = shift\n"),
        ("quadratic:n=2", "oracle = vqe-measurement\n"),
        ("rosenbrock-chain:n=2",
         "oracle = vqe-measurement\ngradient_mode = fd\n"),
        ("quadratic:n=4:condition=0", ""),
        ("quadratic:n=4:condition=nan", ""),
        ("quadratic:n=4:bogus=1", ""),
        ("rosenbrock-chain:n=1", ""),
    ])
    def test_incompatible_spec_exits_two(self, tmp_path, capsys, problem,
                                         extra):
        spec = write(tmp_path, "spec.txt",
                     GOOD_SPEC.replace("quadratic:n=2", problem) + extra)
        out = tmp_path / "exp"
        assert main(["run", spec, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [
        "dim = 2\nmatrix = 1 0 ; 0 1\nstart = nan 0\n",
        "dim = 2\nmatrix = 1 0 ; 0 1\nlinear = inf 0\n",
        "dim = 2\nmatrix = inf 0 ; 0 1\n",
    ], ids=["nan-start", "inf-linear", "inf-matrix"])
    def test_refused_manifest_exits_two(self, tmp_path, capsys, manifest):
        path = write(tmp_path, "problem.txt", manifest)
        spec = write(tmp_path, "spec.txt",
                     GOOD_SPEC.replace("quadratic:n=2", f"file:{path}"))
        out = tmp_path / "exp"
        assert main(["run", spec, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", GOOD_SPEC)
        out = tmp_path / "exp"
        assert main(["run", spec, "--seed", "-1", "--out", str(out)]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.txt")]) == 2

    def test_unresolvable_problem_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt",
                     GOOD_SPEC.replace("quadratic:n=2", "martian:n=2"))
        assert main(["run", spec, "--out", str(tmp_path / "exp")]) == 2

    def test_time_budget_exits_three(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt",
                     GOOD_SPEC + "seeds = 5\ntime_limit = 1e-9\n")
        assert main(["run", spec, "--out", str(tmp_path / "exp")]) == 3
        assert "time limit" in capsys.readouterr().err


class TestProfileCommand:
    TABLE = ("metric = iterations\n"
             "solvers = a b\n"
             "p1 2 10.0 20.0\n"
             "p2 2 40.0 20.0\n")

    def test_success(self, tmp_path, capsys):
        table = write(tmp_path, "table.txt", self.TABLE)
        assert main(["profile", table, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "performance-profile.txt" in out
        assert (tmp_path / "data-profile.txt").exists()

    def test_dropped_problems_reported(self, tmp_path, capsys):
        table = write(tmp_path, "table.txt",
                      self.TABLE + "p3 2 inf inf\n")
        assert main(["profile", table, "--out", str(tmp_path)]) == 0
        assert "dropped" in capsys.readouterr().out

    def test_malformed_table_exits_two(self, tmp_path, capsys):
        table = write(tmp_path, "table.txt", "metric = iterations\n")
        assert main(["profile", table]) == 2


class TestTheoryCommand:
    def test_success(self, tmp_path, capsys):
        inputs = write(tmp_path, "theory.txt", GOOD_THEORY)
        assert main(["theory", inputs]) == 0
        out = capsys.readouterr().out
        assert "nonconvex case" in out
        assert "strongly convex case" in out
        assert "t_min" in out

    def test_invalid_values_exit_two(self, tmp_path, capsys):
        inputs = write(tmp_path, "theory.txt", "lipschitz = 1\ntheta = 2\n")
        assert main(["theory", inputs]) == 2


class TestListProblems:
    def test_lists_families_and_presets(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ("quadratic", "rosenbrock-chain", "cosine-chain",
                     "trig-sum", "ill-conditioned-quadratic",
                     "toy-1q", "h2-like", "lih-like"):
            assert name in out


class TestReplayCommand:
    def write_trace(self, tmp_path):
        spec = tiny_spec(oracle="additive", oracle_params=QUIET)
        out = tmp_path / "exp"
        write_experiment(run_experiment(spec), out)
        return sorted((out / "traces").iterdir())[0]

    def test_match_exits_zero(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["replay", str(path)]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_mismatch_exits_one(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        trace = RunTrace.from_text(path.read_text())
        trace.labels["seed_index"] = "1"
        path.write_text(trace.to_text())
        assert main(["replay", str(path)]) == 1
        assert "DIFFERS" in capsys.readouterr().err

    def test_missing_labels_exit_two(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        trace = RunTrace.from_text(path.read_text())
        del trace.labels["oracle"]
        path.write_text(trace.to_text())
        assert main(["replay", str(path)]) == 2

    def test_garbage_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        for garbage in (b"\x00\xff\xfe binary", b"# config = ???\n",
                        b"not a trace\n"):
            path.write_bytes(garbage)
            assert main(["replay", str(path)]) == 2
            assert str(path) in capsys.readouterr().err

    def test_truncated_trace_exits_two(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        text = path.read_text()
        path.write_text(text[:text.index("stop_reason")])
        assert main(["replay", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_format_one_trace_exits_two(self, tmp_path, capsys):
        # Format 1 carried a clamp_memory config key that no longer exists.
        path = self.write_trace(tmp_path)
        text = path.read_text()
        assert text.startswith("# trace-format = 2\n")
        head, _, rest = text.partition("\n")
        rest = rest.replace(",alpha_max=none\n",
                            ",alpha_max=none,clamp_memory=1\n")
        assert "clamp_memory=1" in rest
        path.write_text("# trace-format = 1\n" + rest)
        assert main(["replay", str(path)]) == 2
        assert str(path) in capsys.readouterr().err
        # The same header labelled as the current format still fails on
        # the unknown config key.
        path.write_text(head + "\n" + rest)
        assert main(["replay", str(path)]) == 2
        assert "clamp_memory" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        dict(alpha0=1),
        dict(memory=10.0),
        dict(stopping="optimality-gap", stop_value=1),
    ])
    def test_value_of_another_type_replays(self, tmp_path, capsys, overrides):
        # A value is written by its field's declared type, so a float field
        # given an int, or an int field given an integral float, reads back
        # as the value the replay writes again.
        spec = tiny_spec(oracle="additive", oracle_params=QUIET, **overrides)
        out = tmp_path / "exp"
        write_experiment(run_experiment(spec), out)
        path = sorted((out / "traces").iterdir())[0]
        assert main(["replay", str(path)]) == 0

    def test_integral_float_memory_trace_reads_back(self):
        trace = run(builtin_problem("quadratic", 2),
                    SolverConfig(memory=10.0, max_iterations=3),
                    OracleModel("exact"), StoppingRule("none"))
        text = trace.to_text()
        assert ",memory=10," in text
        back = RunTrace.from_text(text)
        assert back.config.memory == 10
        assert back.to_text() == text

    @pytest.mark.parametrize("label, value", [
        ("master_seed", "abc"),
        ("oracle", "nope"),
        ("gradient_mode", "nope"),
        ("oracle_params", "function_scale=abc"),
        ("problem", "quadratic:n=0"),
    ])
    def test_malformed_label_exits_two(self, tmp_path, capsys, label, value):
        path = self.write_trace(tmp_path)
        trace = RunTrace.from_text(path.read_text())
        trace.labels[label] = value
        path.write_text(trace.to_text())
        assert main(["replay", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qsass.cli", "list-problems"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quadratic" in proc.stdout
