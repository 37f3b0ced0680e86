"""Experiment orchestration over problem / solver / seed grids.

An :class:`ExperimentSpec` names the problems, the solver variants, the
oracle, and the seeding; :func:`run_experiment` executes every cell of the
grid with an independent random stream per (problem, seed) pair, measures
iterations and samples to the stopping time, and assembles metric tables,
profile curves, and a census of spectrum-enforcement activity.

The master seed spawns one stream per (master, problem index, seed index)
triple, so two solver columns with identical configurations see identical
noise and produce identical results, while nothing is shared between
problems or seeds.  Cells may execute on a process pool; results are merged
in grid order, so the emitted bytes never depend on the worker count.

Each problem entry is built once per process and the cells that name it
share that object read-only; pool workers inherit the problems resolved
before the pool starts.  ``file:`` entries are the exception: a manifest
can change on disk, so it is re-read on every call.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExhaustedError, ConfigurationError, RegistryError,
                     SpecFileError)
from .kvfile import (field_kinds, fields_from_text, fields_to_text,
                     format_field, parse_field, read_key_values)
from .oracles import (GRADIENT_MODES, ORACLE_KINDS, OracleModel, OracleParams,
                      SAMPLE_CAP_DEFAULT, resolve_gradient_mode)
from .problems import (VqeProblem, builtin_problem, load_problem_manifest,
                       vqe_problem)
from .profiles import MetricTable, data_profile, performance_profile, \
    curves_to_text, table_to_text
from .solver import RunTrace, SolverConfig, StoppingRule, VARIANTS, run

WORKER_COUNT_ENV = "QSASS_WORKERS"

METRICS = ("iterations", "samples")

ITERATION_BUDGET_CAP = 30000
ITERATION_BUDGET_PER_DIM = 500


def problem_from_entry(entry):
    """Build a problem from a registry entry string.

    Grammar: ``family:key=value:...`` with ``n`` for the dimension, e.g.
    ``quadratic:n=10:condition=100``.  Two special families: ``vqe:<preset>``
    selects a measurement-model preset, and ``file:<path>`` loads a
    quadratic manifest from disk.
    """
    parts = entry.split(":")
    family = parts[0]
    if family == "vqe":
        if len(parts) != 2:
            raise RegistryError(f"vqe entries look like vqe:<preset>, got {entry!r}")
        return vqe_problem(parts[1])
    if family == "file":
        if len(parts) < 2:
            raise RegistryError(f"file entries look like file:<path>, got {entry!r}")
        return load_problem_manifest(":".join(parts[1:]))
    params = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise RegistryError(f"bad entry segment {part!r} in {entry!r}")
        params[key.strip()] = value.strip()
    try:
        dim = int(params.pop("n", params.pop("dim", 2)))
    except ValueError:
        raise RegistryError(f"dimension in {entry!r} must be an integer") from None
    try:
        params = {key: float(value) for key, value in params.items()}
    except ValueError:
        raise RegistryError(f"parameters in {entry!r} must be numbers") from None
    return builtin_problem(family, dim, **params)


# Module level so that pool workers forked after resolve_problems inherit it.
_BUILT = {}


def _cached_problem(entry):
    """The problem for ``entry``, built on first use in this process.

    ``file:`` manifests are re-read every time.
    """
    if entry.startswith("file:"):
        return problem_from_entry(entry)
    problem = _BUILT.get(entry)
    if problem is None:
        problem = _BUILT[entry] = problem_from_entry(entry)
    return problem


def entry_label(entry):
    """Filesystem- and table-safe label for a problem entry."""
    return entry.replace(":", "_").replace("=", "-").replace("/", "-")


def solver_labels(solvers):
    """Unique column labels; repeats of a variant get a ``#k`` suffix.

    An experiment may list the same variant twice (for determinism checks);
    the runs are identical but table columns need distinct names.
    """
    labels = []
    seen = {}
    for name in solvers:
        seen[name] = seen.get(name, 0) + 1
        labels.append(name if seen[name] == 1 else f"{name}#{seen[name]}")
    return tuple(labels)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment, including seeding.

    Tolerances follow the synthetic-noise convention unless overridden:
    ``eps_bar = target_eps_bar * |grad phi(x0)|``, ``eps_g = mu * eps_bar``
    and ``eps_f = eps_g ** 2``, with the stopping threshold at
    ``stop_factor * |grad phi(x0)|`` (or the absolute ``stop_value``).
    Iteration budgets default to ``min(30000, 500 n)`` per problem.
    """

    problems: tuple[str, ...]
    solvers: tuple[str, ...] = ("qsass",)
    name: str = "experiment"
    oracle: str = "additive"
    oracle_params: OracleParams = field(default_factory=OracleParams)
    gradient_mode: str = "auto"
    seeds: int = 30
    master_seed: int = 0
    metric: str = "iterations"
    stopping: str = "gradient-norm"
    stop_factor: float = 1e-3
    stop_value: float | None = None
    target_eps_bar: float | None = None
    mu: float = 0.01
    kappa: float = 1.0
    theta: float = 0.2
    gamma: float = 0.8
    alpha0: float = 1.0
    memory: int = 10
    delta: float = 0.1
    tau: float = 10.0
    eps_f: float | None = None
    eps_g: float | None = None
    max_iterations: int | None = None
    max_samples: float = math.inf
    sample_cap: int = SAMPLE_CAP_DEFAULT
    pilot_samples: int = 30
    time_limit: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        for name, (base, optional) in field_kinds(ExperimentSpec).items():
            value = getattr(self, name)
            if base is int and not (optional and value is None):
                object.__setattr__(self, name, _integral(name, value))
        if not self.problems:
            raise ConfigurationError("an experiment needs at least one problem")
        if not self.solvers:
            raise ConfigurationError("an experiment needs at least one solver")
        for solver in self.solvers:
            if solver not in VARIANTS:
                raise ConfigurationError(
                    f"unknown solver {solver!r}; known: {VARIANTS}")
        if self.oracle not in ORACLE_KINDS:
            raise ConfigurationError(
                f"unknown oracle {self.oracle!r}; known: {ORACLE_KINDS}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ConfigurationError(
                f"unknown gradient_mode {self.gradient_mode!r}; "
                f"known: {GRADIENT_MODES}")
        try:
            resolve_gradient_mode(self.oracle, self.gradient_mode)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.seeds < 1:
            raise ConfigurationError("seeds must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        if self.metric not in METRICS:
            raise ConfigurationError(f"metric must be one of {METRICS}")
        if self.stopping not in ("gradient-norm", "optimality-gap"):
            raise ConfigurationError(
                "stopping must be gradient-norm or optimality-gap")
        if self.stopping == "optimality-gap" and self.stop_value is None:
            raise ConfigurationError(
                "optimality-gap stopping needs an absolute stop_value")
        if self.stop_factor <= 0.0:
            raise ConfigurationError("stop_factor must be > 0")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ConfigurationError("max_iterations must be >= 0")
        if self.max_samples <= 0.0:
            raise ConfigurationError("max_samples must be > 0")
        if self.time_limit is not None and self.time_limit <= 0.0:
            raise ConfigurationError("time_limit must be > 0 when set")

    def resolve_problems(self):
        """Build every problem entry and check that each supports the
        oracle and gradient mode, failing before any run starts."""
        problems = [_cached_problem(entry) for entry in self.problems]
        mode = resolve_gradient_mode(self.oracle, self.gradient_mode)
        if mode == "shift" or self.oracle == "vqe-measurement":
            needs = ("the vqe-measurement oracle"
                     if self.oracle == "vqe-measurement" else "the shift rule")
            for entry, problem in zip(self.problems, problems):
                if not isinstance(problem, VqeProblem):
                    raise ConfigurationError(
                        f"{needs} needs a vqe: problem, got {entry!r}")
        return problems


def _integral(name, value):
    """``value`` of int field ``name`` as an ``int``, so ``2.0`` becomes
    ``2``; anything but a whole number raises ``ConfigurationError``."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def solver_config_for(spec, problem, variant):
    """Per-problem solver configuration with derived tolerances."""
    g0 = float(np.linalg.norm(problem.gradient(problem.start_point)))
    factor = (spec.target_eps_bar if spec.target_eps_bar is not None
              else spec.stop_factor)
    eps_bar = factor * g0
    eps_g = spec.eps_g if spec.eps_g is not None else spec.mu * eps_bar
    eps_f = spec.eps_f if spec.eps_f is not None else eps_g ** 2
    hint = problem.hessian_norm_hint or 1.0
    sigma_ub = max(hint, 1e4)
    if spec.max_iterations is not None:
        max_iterations = spec.max_iterations
    else:
        max_iterations = min(ITERATION_BUDGET_CAP,
                             ITERATION_BUDGET_PER_DIM * problem.dim)
    return SolverConfig(
        variant=variant, theta=spec.theta, gamma=spec.gamma,
        alpha0=spec.alpha0, memory=spec.memory,
        spectrum_lb=1.0 / sigma_ub, spectrum_ub=sigma_ub,
        eps_f=eps_f, eps_g=eps_g, tau=spec.tau, kappa=spec.kappa,
        delta=spec.delta, sample_cap=spec.sample_cap,
        pilot_samples=spec.pilot_samples, max_iterations=max_iterations,
        max_samples=spec.max_samples)


def stopping_rule_for(spec, problem):
    if spec.stop_value is not None:
        return StoppingRule(kind=spec.stopping, threshold=spec.stop_value)
    g0 = float(np.linalg.norm(problem.gradient(problem.start_point)))
    return StoppingRule(kind=spec.stopping, threshold=spec.stop_factor * g0)


def run_cell(spec, problem_index, solver_index, seed_index):
    """Execute one (problem, solver, seed) grid cell and return its trace."""
    entry = spec.problems[problem_index]
    problem = _cached_problem(entry)
    variant = spec.solvers[solver_index]
    config = solver_config_for(spec, problem, variant)
    stopping = stopping_rule_for(spec, problem)
    seed = np.random.SeedSequence((spec.master_seed, problem_index, seed_index))
    oracle = OracleModel(spec.oracle, spec.oracle_params, seed,
                         spec.gradient_mode)
    labels = {
        "experiment": spec.name,
        "problem": entry,
        "instance": f"{entry_label(entry)}#s{seed_index}",
        "solver": solver_labels(spec.solvers)[solver_index],
        "oracle": spec.oracle,
        "oracle_params": fields_to_text(spec.oracle_params),
        "gradient_mode": spec.gradient_mode,
        "master_seed": str(spec.master_seed),
        "problem_index": str(problem_index),
        "seed_index": str(seed_index),
    }
    return run(problem, config, oracle, stopping=stopping, labels=labels)


def _run_cell_star(args):
    spec, indices = args
    return indices, run_cell(spec, *indices)


def metric_value(trace, metric):
    """Iterations or samples to the stopping time; ``inf`` if never hit."""
    if not trace.hit:
        return math.inf
    if metric == "iterations":
        return float(trace.stop_iteration)
    return float(trace.total_samples)


def enforcement_fraction(trace):
    """Fraction of iterations where enforcement removed a pair (or, for the
    non-enforcing variant, where it would have)."""
    if not trace.records:
        return 0.0
    if trace.config.variant == "qsass-bfgs":
        flags = [rec.would_violate == 1 for rec in trace.records]
    else:
        flags = [rec.removed > 0 for rec in trace.records]
    return float(np.mean(flags))


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    traces: dict                 # (problem_index, solver_index, seed_index) -> RunTrace
    tables: dict                 # metric -> MetricTable
    census: list                 # (problem entry, solver, iterations, fraction)

    @property
    def primary_table(self):
        return self.tables[self.spec.metric]


def _resolve_workers(workers):
    if workers is None:
        workers = os.environ.get(WORKER_COUNT_ENV, "1")
    try:
        workers = int(workers)
    except ValueError:
        raise ConfigurationError(
            f"worker count must be an integer, got {workers!r}") from None
    return max(1, workers)


def run_experiment(spec, workers=None, progress=None):
    """Execute the full grid and aggregate tables and census counts.

    ``workers`` defaults to the ``QSASS_WORKERS`` environment variable (or
    1).  ``progress`` is an optional callable receiving each finished
    ``(problem_index, solver_index, seed_index)``.  Raises
    :class:`~qsass.errors.BudgetExhaustedError` when ``spec.time_limit``
    has run out after a cell and cells remain; serial and pooled runs
    check it at the same points.
    """
    problems = spec.resolve_problems()
    workers = _resolve_workers(workers)
    indices = [(p, v, s)
               for p in range(len(spec.problems))
               for v in range(len(spec.solvers))
               for s in range(spec.seeds)]
    started = time.monotonic()
    traces = {}
    cells = [(spec, triple) for triple in indices]
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for triple, trace in (map if pool is None else pool.map)(
                _run_cell_star, cells):
            traces[triple] = trace
            if progress is not None:
                progress(triple)
            # Checked between cells only: a grid whose last cell has
            # finished is returned, whatever the clock reads by then.
            if spec.time_limit is not None and len(traces) < len(indices) \
                    and time.monotonic() - started > spec.time_limit:
                raise BudgetExhaustedError(
                    f"experiment exceeded its {spec.time_limit:g} s time limit "
                    f"after {len(traces)} of {len(indices)} cells")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    instance_names = []
    instance_dims = []
    for p, entry in enumerate(spec.problems):
        for s in range(spec.seeds):
            instance_names.append(f"{entry_label(entry)}#s{s}")
            instance_dims.append(problems[p].dim)
    columns = solver_labels(spec.solvers)
    tables = {}
    for metric in METRICS:
        values = np.empty((len(instance_names), len(spec.solvers)))
        reasons = {}
        for (p, v, s), trace in traces.items():
            row = p * spec.seeds + s
            values[row, v] = metric_value(trace, metric)
            if not trace.hit:
                reasons[(instance_names[row], columns[v])] = trace.stop_reason
        tables[metric] = MetricTable(
            metric=metric, problems=tuple(instance_names),
            dims=tuple(instance_dims), solvers=columns,
            values=values, failure_reasons=reasons)

    census = []
    for p, entry in enumerate(spec.problems):
        for v, label in enumerate(columns):
            iters = 0
            enforced = 0.0
            for s in range(spec.seeds):
                trace = traces[(p, v, s)]
                iters += trace.iterations
                enforced += enforcement_fraction(trace) * trace.iterations
            fraction = enforced / iters if iters else 0.0
            census.append((entry, label, iters, fraction))

    return ExperimentResult(spec=spec, traces=traces, tables=tables,
                            census=census)


def census_to_text(census):
    lines = ["# problem\tsolver\titerations\tenforced_fraction"]
    for entry, solver, iters, fraction in census:
        lines.append(f"{entry_label(entry)}\t{solver}\t{iters}"
                     f"\t{repr(float(fraction))}")
    return "\n".join(lines) + "\n"


def write_experiment(result, out_dir):
    """Write tables, profiles, census, spec echo and all traces.

    Layout: ``spec.txt``, ``table-iterations.txt``, ``table-samples.txt``,
    ``performance-profile.txt`` and ``data-profile.txt`` (on the spec's
    primary metric), ``census.txt``, and one file per run under ``traces/``.
    """
    os.makedirs(out_dir, exist_ok=True)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    def _write(name, text):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    _write("spec.txt", spec_to_text(result.spec))
    for metric, table in sorted(result.tables.items()):
        _write(f"table-{metric}.txt", table_to_text(table))
    primary = result.primary_table
    _write("performance-profile.txt",
           curves_to_text(performance_profile(primary)))
    _write("data-profile.txt", curves_to_text(data_profile(primary)))
    _write("census.txt", census_to_text(result.census))
    columns = solver_labels(result.spec.solvers)
    for (p, v, s), trace in sorted(result.traces.items()):
        name = (f"{entry_label(result.spec.problems[p])}"
                f"__{columns[v].replace('#', '-')}__s{s}.trace")
        with open(os.path.join(trace_dir, name), "w", encoding="utf-8") as fh:
            fh.write(trace.to_text())


# ---------------------------------------------------------------------------
# Spec file format
# ---------------------------------------------------------------------------

def _spec_file_keys():
    """``(key, dataclass)`` for every line of a spec file: the spec's own
    fields, with ``oracle_params`` flattened into its fields."""
    return ([(name, ExperimentSpec) for name in field_kinds(ExperimentSpec)
             if name != "oracle_params"]
            + [(name, OracleParams) for name in field_kinds(OracleParams)])


def experiment_spec_from_file(path):
    """Read an :class:`ExperimentSpec` from a ``key = value`` text file.

    ``problems`` and ``solvers`` are comma-separated lists; oracle noise
    scales use the :class:`~qsass.oracles.OracleParams` field names.
    Optional keys accept ``none``.
    """
    owners = dict(_spec_file_keys())
    kwargs = {}
    params = {}
    for key, raw in read_key_values(path).items():
        owner = owners.get(key)
        if owner is None:
            raise SpecFileError(f"{path}: unknown experiment key {key!r}")
        try:
            value = parse_field(owner, key, raw)
        except ValueError:
            raise SpecFileError(
                f"{path}: malformed value for {key!r}: {raw!r}") from None
        (kwargs if owner is ExperimentSpec else params)[key] = value
    if "problems" not in kwargs:
        raise SpecFileError(f"{path}: the 'problems' entry is required")
    if params:
        kwargs["oracle_params"] = OracleParams(**params)
    try:
        return ExperimentSpec(**kwargs)
    except (ConfigurationError, TypeError) as exc:
        raise SpecFileError(f"{path}: {exc}") from None


def spec_to_text(spec):
    """Canonical echo of a spec, readable by
    :func:`experiment_spec_from_file`."""
    lines = []
    for name, owner in _spec_file_keys():
        value = getattr(spec if owner is ExperimentSpec else spec.oracle_params,
                        name)
        lines.append(f"{name} = {format_field(owner, name, value)}")
    return "\n".join(lines) + "\n"


def replay_trace(path):
    """Re-run a trace file's cell and compare the regenerated bytes.

    Resolves the problem and rebuilds the configuration, stopping rule and
    oracle stream from the trace header, runs the solver again, and returns
    ``(match, new_text)``.  A file that does not parse as a trace of this
    version raises ``SpecFileError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            original = fh.read()
        trace = RunTrace.from_text(original)
    except (ValueError, TypeError, KeyError) as exc:
        raise SpecFileError(f"{path}: not a readable trace: {exc}") from exc
    labels = trace.labels
    missing = [key for key in ("problem", "oracle", "oracle_params",
                               "gradient_mode", "master_seed",
                               "problem_index", "seed_index")
               if key not in labels]
    if missing:
        raise SpecFileError(
            f"{path}: trace header lacks replay labels: {', '.join(missing)}")
    try:
        problem = _cached_problem(labels["problem"])
        params = fields_from_text(OracleParams, labels["oracle_params"])
        seed = np.random.SeedSequence((int(labels["master_seed"]),
                                       int(labels["problem_index"]),
                                       int(labels["seed_index"])))
        oracle = OracleModel(labels["oracle"], params, seed,
                             labels["gradient_mode"])
    except ValueError as exc:
        raise SpecFileError(f"{path}: bad replay labels: {exc}") from exc
    fresh = run(problem, trace.config, oracle, stopping=trace.stopping,
                labels=dict(labels))
    new_text = fresh.to_text()
    return new_text == original, new_text
