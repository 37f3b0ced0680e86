"""Every text format the package both writes and reads back round-trips
byte for byte: the trace's config line, the spec echo, theory input files,
whole traces and metric tables.

Float fields are also given ints and int fields integral floats, because
a value is spelled by its field's declared type, not by its runtime type.
A trace row with too few or too many fields is refused.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsass.bench import ExperimentSpec, experiment_spec_from_file, spec_to_text
from qsass.errors import ConfigurationError
from qsass.kvfile import field_kinds, format_field
from qsass.oracles import (GRADIENT_MODES, ORACLE_KINDS, OracleModel,
                           OracleParams)
from qsass.profiles import MetricTable, table_from_text, table_to_text
from qsass.problems import Problem, builtin_problem
from qsass.solver import (STOP_REASONS, VARIANTS, IterationRecord, RunTrace,
                          SolverConfig, StoppingRule, config_from_text,
                          config_to_text, run)
from qsass.theory import TheoryInputs, theory_inputs_from_file

settings.register_profile("text-formats", max_examples=60, deadline=None)
settings.load_profile("text-formats")


def floats(lo=None, hi=None, lo_open=False, hi_open=False):
    """Finite floats in the range, and the ints inside it that a float
    holds exactly."""
    as_float = st.floats(lo, hi, exclude_min=lo_open and lo is not None,
                         exclude_max=hi_open and hi is not None,
                         allow_nan=False, allow_infinity=False)
    exact = 2 ** 53
    int_lo = -exact if lo is None else max(
        math.floor(lo) + 1 if lo_open else math.ceil(lo), -exact)
    int_hi = exact if hi is None else min(
        math.ceil(hi) - 1 if hi_open else math.floor(hi), exact)
    if int_lo > int_hi:
        return as_float
    return st.one_of(as_float, st.integers(int_lo, int_hi))


def ints(lo=None, hi=None):
    """Ints in the range, and the same values as integral floats."""
    values = st.integers(lo, hi)
    return st.one_of(values, values.map(float))


def optional(strategy):
    return st.one_of(st.none(), strategy)


def positive():
    return floats(0.0, 1e300, lo_open=True)


# Text a ``key = value`` line carries unchanged: no comment mark, no line
# break, no surrounding whitespace.
words = st.text(min_size=1, max_size=12).filter(
    lambda s: "#" not in s and len(s.splitlines()) == 1 and s == s.strip())
list_items = words.filter(lambda s: "," not in s)


@st.composite
def solver_configs(draw):
    lb = draw(floats(1e-8, 1e8, lo_open=True))
    ub = draw(floats(lb, 1e8))
    return SolverConfig(
        variant=draw(st.sampled_from(VARIANTS)),
        theta=draw(floats(0.0, 1.0, True, True)),
        gamma=draw(floats(0.0, 1.0, True, True)),
        alpha0=draw(positive()),
        memory=draw(ints(0, 100)),
        c=draw(floats(lb, ub)),
        spectrum_lb=lb,
        spectrum_ub=ub,
        curvature_tol=draw(floats()),
        eps_f=draw(floats(0.0, 1e300)),
        eps_g=draw(floats(0.0, 1e300)),
        tau=draw(positive()),
        kappa=draw(positive()),
        delta=draw(floats(0.0, 0.5, True, True)),
        adaptive_eps_f=draw(st.booleans()),
        sample_cap=draw(ints(1, 10 ** 12)),
        pilot_samples=draw(ints(2, 1000)),
        max_iterations=draw(ints(0, 10 ** 6)),
        max_samples=draw(st.one_of(positive(), st.just(math.inf))),
        alpha_max=draw(optional(positive())),
    )


@given(solver_configs())
def test_config_text_round_trips(config):
    text = config_to_text(config)
    back = config_from_text(text)
    assert back == config
    assert config_to_text(back) == text


oracle_params = st.builds(
    OracleParams, **{name: floats() for name in field_kinds(OracleParams)})


@st.composite
def experiment_specs(draw):
    stopping = draw(st.sampled_from(("gradient-norm", "optimality-gap")))
    stop_value = draw(optional(floats()) if stopping == "gradient-norm"
                      else floats())
    oracle = draw(st.sampled_from(ORACLE_KINDS))
    modes = [mode for mode in GRADIENT_MODES
             if not (oracle == "vqe-measurement" and mode == "direct")]
    return ExperimentSpec(
        problems=tuple(draw(st.lists(list_items, min_size=1, max_size=3))),
        solvers=tuple(draw(st.lists(st.sampled_from(VARIANTS), min_size=1,
                                    max_size=3))),
        name=draw(words),
        oracle=oracle,
        oracle_params=draw(oracle_params),
        gradient_mode=draw(st.sampled_from(modes)),
        seeds=draw(ints(1, 1000)),
        master_seed=draw(ints(0, 2 ** 63)),
        metric=draw(st.sampled_from(("iterations", "samples"))),
        stopping=stopping,
        stop_factor=draw(positive()),
        stop_value=stop_value,
        target_eps_bar=draw(optional(floats())),
        mu=draw(floats()),
        kappa=draw(floats()),
        theta=draw(floats()),
        gamma=draw(floats()),
        alpha0=draw(floats()),
        memory=draw(ints(0, 100)),
        delta=draw(floats()),
        tau=draw(floats()),
        eps_f=draw(optional(floats())),
        eps_g=draw(optional(floats())),
        max_iterations=draw(optional(ints(0, 10 ** 6))),
        max_samples=draw(st.one_of(positive(), st.just(math.inf))),
        sample_cap=draw(ints(1, 10 ** 12)),
        pilot_samples=draw(ints(2, 1000)),
        time_limit=draw(optional(positive())),
    )


def write_and_read(text, reader):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return reader(path)


@given(experiment_specs())
def test_spec_echo_round_trips(spec):
    text = spec_to_text(spec)
    back = write_and_read(text, experiment_spec_from_file)
    assert back == spec
    assert spec_to_text(back) == text


@pytest.mark.parametrize("field, value", [
    ("name", "a#b"), ("name", "a\nb"), ("name", " padded"),
    ("name", "a b"), ("problems", ("quadratic:n=2", "a,b")),
    ("problems", ("quadratic:n=2", "")),
])
def test_unreadable_spec_text_is_refused(field, value):
    spec = ExperimentSpec(**{"problems": ("quadratic:n=2",), field: value})
    with pytest.raises(ValueError, match="cannot be written"):
        spec_to_text(spec)


@st.composite
def theory_inputs(draw):
    lb = draw(floats(1e-8, 1e8, lo_open=True))
    bounded = draw(st.booleans())
    noise = optional(positive()) if bounded else positive()
    return TheoryInputs(
        lipschitz=draw(positive()),
        theta=draw(floats(0.0, 1.0, True, True)),
        gamma=draw(floats(0.0, 1.0, True, True)),
        alpha0=draw(positive()),
        sigma_lb=lb,
        sigma_ub=draw(floats(lb, 1e8)),
        tau=draw(floats(0.0, 1e300)),
        kappa=draw(positive()),
        eta=draw(floats(0.0, 1.0, True, True)),
        eps=draw(positive()),
        eps_f=draw(floats(0.0, 1e300)),
        eps_g=draw(floats(0.0, 1e300)),
        delta=draw(floats(0.0, 0.5, hi_open=True)),
        strong_convexity=draw(optional(positive())),
        bounded_noise=bounded,
        nu=draw(noise),
        b=draw(noise),
        noise_margin=draw(optional(floats()) if bounded else floats()),
        p_hat=draw(optional(floats(0.0, 1.0, True, True))),
        tail_slack=draw(floats(0.0, 1e300)),
        initial_gap=draw(optional(floats(0.0, 1e300))),
    )


def theory_text(inputs):
    return "".join(
        f"{name} = {format_field(TheoryInputs, name, getattr(inputs, name))}\n"
        for name in field_kinds(TheoryInputs))


@given(theory_inputs())
def test_theory_inputs_round_trip(inputs):
    text = theory_text(inputs)
    back = write_and_read(text, theory_inputs_from_file)
    assert back == inputs
    assert theory_text(back) == text


def test_theory_inputs_accept_bool_words(tmp_path):
    path = tmp_path / "theory.txt"
    for word, value in (("1", True), ("On", True), ("no", False), ("0", False)):
        path.write_text(f"lipschitz = 1\nnu = 1\nb = 1\nnoise_margin = 1\n"
                        f"bounded_noise = {word}\n")
        assert theory_inputs_from_file(path).bounded_noise is value


# A float column or summary value may be handed an int: the solver's
# tolerances pass an int ``eps_f`` or ``eps_g`` through unchanged.
record_values = {int: st.integers(-10 ** 18, 10 ** 18),
                 float: st.floats(allow_nan=True, allow_infinity=True)
                 | st.integers(-10 ** 6, 10 ** 6)}


@st.composite
def run_traces(draw):
    kinds = field_kinds(IterationRecord)
    records = draw(st.lists(st.builds(IterationRecord, **{
        name: record_values[base] for name, (base, _) in kinds.items()}),
        max_size=4))
    labels = draw(st.dictionaries(
        st.sampled_from(("experiment", "problem", "instance", "solver",
                         "oracle", "oracle_params", "seed_index")),
        words))
    kind = draw(st.sampled_from(("gradient-norm", "optimality-gap", "none")))
    return RunTrace(
        labels=labels, config=draw(solver_configs()),
        stopping=StoppingRule(kind, draw(positive())),
        records=records,
        stop_reason=draw(st.sampled_from(STOP_REASONS)),
        hit=draw(st.booleans()),
        stop_iteration=draw(optional(st.integers(0, 10 ** 6))),
        iterations=len(records),
        total_samples=draw(st.integers(0, 10 ** 18)),
        ground_truth_evals=draw(st.integers(0, 10 ** 6)),
        final_true_grad_norm=draw(record_values[float]),
        final_gap=draw(record_values[float]),
        final_alpha=draw(record_values[float]),
        final_x_norm=draw(record_values[float]),
    )


@given(run_traces())
def test_trace_text_round_trips(trace):
    text = trace.to_text()
    assert RunTrace.from_text(text).to_text() == text


def column(text, name):
    """The cells of one trace column, as written."""
    lines = text.splitlines()
    start = lines.index("\t".join(field_kinds(IterationRecord))) + 1
    index = list(field_kinds(IterationRecord)).index(name)
    return [line.split("\t")[index] for line in lines[start:lines.index("")]]


@pytest.mark.parametrize("problem, config, oracle", [
    # A fixed tolerance is used as given, so eps_f_k is the int itself.
    (builtin_problem("quadratic", 4),
     SolverConfig(eps_f=0, adaptive_eps_f=False, max_iterations=3),
     "additive"),
    # At a stationary start every gradient is zero, so
    # eps_g_k = max(eps_g, 0.0) is the int itself.
    (Problem("bowl", 2, lambda x: float(x @ x), lambda x: 2.0 * x,
             np.zeros(2), optimal_value=0.0, hessian_norm_hint=2.0),
     SolverConfig(eps_g=0, max_iterations=3), "exact"),
], ids=["eps_f", "eps_g"])
def test_int_tolerances_are_written_as_floats(problem, config, oracle):
    trace = run(problem, config, OracleModel(oracle, seed=1),
                StoppingRule("none"))
    text = trace.to_text()
    name = "eps_f_k" if config.eps_f == 0 else "eps_g_k"
    assert column(text, name) == ["0.0"] * 3
    back = RunTrace.from_text(text)
    assert back.to_text() == text
    # The config line spells the tolerance 0.0 too, so a run from the
    # trace's own config writes the same bytes.
    again = run(problem, back.config, OracleModel(oracle, seed=1),
                StoppingRule("none"))
    assert again.to_text() == text


@pytest.mark.parametrize("damage", ["drop last", "drop three", "add one"])
def test_rows_of_the_wrong_width_are_refused(damage):
    trace = run(builtin_problem("quadratic", 2), SolverConfig(max_iterations=2),
                OracleModel("exact"), StoppingRule("none"))
    lines = trace.to_text().splitlines()
    row = lines.index("\t".join(field_kinds(IterationRecord))) + 1
    cells = lines[row].split("\t")
    lines[row] = "\t".join({"drop last": cells[:-1],
                            "drop three": cells[:-3],
                            "add one": cells + ["0"]}[damage])
    with pytest.raises(ValueError, match="fields"):
        RunTrace.from_text("\n".join(lines) + "\n")


names = st.text(min_size=1, max_size=8).filter(
    lambda s: not any(ch.isspace() for ch in s) and "=" not in s
    and not s.startswith("#"))


@st.composite
def metric_tables(draw):
    problems = draw(st.lists(names.filter(lambda s: s != "failure"),
                             min_size=1, max_size=4))
    solvers = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    values = draw(st.lists(
        st.lists(st.one_of(st.floats(0.0, 1e300), st.just(math.inf)),
                 min_size=len(solvers), max_size=len(solvers)),
        min_size=len(problems), max_size=len(problems)))
    reasons = draw(st.dictionaries(
        st.tuples(st.sampled_from(problems), st.sampled_from(solvers)),
        st.sampled_from(STOP_REASONS)))
    return MetricTable(
        metric=draw(names), problems=tuple(problems),
        dims=tuple(draw(st.lists(ints(0, 10 ** 6), min_size=len(problems),
                                 max_size=len(problems)))),
        solvers=tuple(solvers), values=np.array(values, dtype=float),
        failure_reasons=reasons)


@given(metric_tables())
def test_metric_table_text_round_trips(table):
    text = table_to_text(table)
    assert table_to_text(table_from_text(text)) == text


@pytest.mark.parametrize("problem", ["metric", "metrics", "solvers",
                                     "failures", "p#1"])
def test_table_names_like_format_keys_round_trip(problem):
    table = MetricTable("iterations", (problem,), (2,), ("a", "b"),
                        [[1.0, math.inf]],
                        failure_reasons={(problem, "b"): "iteration-budget"})
    text = table_to_text(table)
    assert table_to_text(table_from_text(text)) == text


@pytest.mark.parametrize("problems, solvers", [
    (("#p",), ("a",)), (("p=1",), ("a",)), (("p",), ("a=b",)),
    (("failure",), ("a", "b")),
])
def test_table_names_the_format_cannot_carry_are_refused(problems, solvers):
    with pytest.raises(ConfigurationError, match="table"):
        MetricTable("iterations", problems, (2,), solvers,
                    np.ones((1, len(solvers))))
