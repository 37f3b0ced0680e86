"""Adaptive step-search loop with quasi-Newton directions and noisy oracles.

One iteration estimates the gradient with an adaptively chosen number of
draws, refreshes the curvature store (inserting the newest displacement /
gradient-difference pair and enforcing the eigenvalue band), forms the
trial point ``x - alpha * H g``, and accepts or rejects it with a
sufficient-decrease test relaxed by twice the current function tolerance.
Successes grow the step size by ``1 / gamma``, failures shrink it by
``gamma``.

Variants
--------
``qsass``       ``min(memory, n // 2)`` pairs, enforcement on (the default);
                directions from the two-loop recursion over the pairs
``sass``        no memory at all; directions are ``g / c``
``qsass-bfgs``  unbounded memory, where a pair that repeats the newest
                pair's ``s`` replaces it (the model is the same in exact
                arithmetic), no enforcement; each iteration records
                whether enforcement would have removed at least one pair,
                i.e. whether the spectrum of the store's own dense model
                leaves the band, decided from norms of that model and of
                its kept inverse, or by an eigensolve when those leave it
                open.  The direction is that kept inverse times ``g``, so
                the step follows exactly the model the census reads; a
                pair whose computed ``s^T B s`` is not positive updates
                neither model and so does not enter the direction, though
                it is stored and counted in ``pairs``

Traces serialize to a plain text table with a key-value header and summary
so that runs can be archived, compared byte for byte, and replayed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .kvfile import (field_kinds, fields_from_text, fields_to_text,
                     format_field, parse_field)
from .oracles import (SAMPLE_CAP_DEFAULT, NoiseRecord, OracleModel,
                      adaptive_eps_f, adaptive_eps_g)
# Unused here; perfbench/tracing.py patches these two names on this module.
from .oracles import fd_gradient_estimate, parameter_shift_gradient  # noqa: F401
from .store import CURVATURE_TOL, CurvaturePairStore, SpectrumBounds

VARIANTS = ("qsass", "sass", "qsass-bfgs")

STOP_RULE_KINDS = ("gradient-norm", "optimality-gap", "none")

STOP_REASONS = ("stopping-rule", "iteration-budget", "sample-budget",
                "non-finite")

# Version 2 dropped the ``clamp_memory`` config key.
TRACE_FORMAT = 2


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the step search.  Defaults follow the standard synthetic
    noise protocol except for the problem-dependent tolerances.
    ``qsass`` keeps ``min(memory, n // 2)`` pairs in dimension ``n``: the
    store's compact eigenvalue query needs ``2 m <= n``.  ``qsass-bfgs``
    ignores ``memory`` and keeps every accepted pair, except that a pair
    repeating the newest pair's ``s`` (as after a rejected step) replaces
    it."""

    variant: str = "qsass"
    theta: float = 0.2
    gamma: float = 0.8
    alpha0: float = 1.0
    memory: int = 10
    c: float = 1.0
    spectrum_lb: float = 1e-4
    spectrum_ub: float = 1e4
    curvature_tol: float = CURVATURE_TOL
    eps_f: float = 1e-6
    eps_g: float = 1e-3
    tau: float = 10.0
    kappa: float = 1.0
    delta: float = 0.1
    adaptive_eps_f: bool = True
    sample_cap: int = SAMPLE_CAP_DEFAULT
    pilot_samples: int = 30
    max_iterations: int = 1000
    max_samples: float = 1e20
    alpha_max: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(f"theta must lie in (0, 1), got {self.theta}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.alpha0 <= 0.0:
            raise ConfigurationError("alpha0 must be > 0")
        if int(self.memory) != self.memory or self.memory < 0:
            raise ConfigurationError("memory must be a non-negative integer")
        if not (0.0 < self.spectrum_lb <= self.spectrum_ub < math.inf):
            raise ConfigurationError("need 0 < spectrum_lb <= spectrum_ub < inf")
        if not (self.spectrum_lb <= self.c <= self.spectrum_ub):
            raise ConfigurationError(
                f"base scale c = {self.c} outside spectrum band "
                f"[{self.spectrum_lb}, {self.spectrum_ub}]")
        if self.eps_f < 0.0 or self.eps_g < 0.0:
            raise ConfigurationError("tolerances must be >= 0")
        if self.tau <= 0.0 or self.kappa <= 0.0:
            raise ConfigurationError("tau and kappa must be > 0")
        if not 0.0 < self.delta < 0.5:
            raise ConfigurationError("delta must lie in (0, 1/2)")
        if int(self.sample_cap) < 1:
            raise ConfigurationError("sample_cap must be >= 1")
        if int(self.pilot_samples) < 2:
            raise ConfigurationError("pilot_samples must be >= 2")
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 0:
            raise ConfigurationError("max_iterations must be a non-negative integer")
        if self.max_samples <= 0.0:
            raise ConfigurationError("max_samples must be > 0")
        if self.alpha_max is not None and self.alpha_max <= 0.0:
            raise ConfigurationError("alpha_max must be > 0 when set")


@dataclass(frozen=True)
class StoppingRule:
    """When to declare a run finished, measured on ground truth."""

    kind: str = "gradient-norm"
    threshold: float = 1e-3

    def __post_init__(self):
        if self.kind not in STOP_RULE_KINDS:
            raise ConfigurationError(f"unknown stopping rule {self.kind!r}")
        if self.kind != "none" and self.threshold <= 0.0:
            raise ConfigurationError("stopping threshold must be > 0")


def sufficient_decrease_test(f_plus, f_current, alpha, theta, gd_inner, eps_f_k):
    """Accept the trial point when ``f_plus <= f_current - alpha * theta *
    <g, d> + 2 * eps_f_k`` (equality accepts)."""
    return f_plus <= f_current - alpha * theta * gd_inner + 2.0 * eps_f_k


@dataclass
class IterationRecord:
    k: int
    alpha: float
    success: int
    f_est: float
    f_plus_est: float
    gd_inner: float
    g_norm: float
    d_norm: float
    eps_f_k: float
    eps_g_k: float
    n_f: int
    n_g: int
    pairs: int
    inserted: int
    removed: int
    cum_samples: int
    x_norm: float
    true_grad_norm: float = math.nan
    true_gap: float = math.nan
    true_flag_g: int = -1
    true_flag_f: int = -1
    would_violate: int = -1


# Like kvfile.format_field, a trace row spells each column by its declared
# type, never by the value's runtime type: ``repr(float(v))`` in a float
# column (an int tolerance of 0 reads ``0.0``) and ``repr(int(v))`` in an
# int column.  The same types read a row back.
_COLUMNS = tuple(field_kinds(IterationRecord))
_COLUMN_TYPES = tuple(base for base, _
                      in field_kinds(IterationRecord).values())
_COLUMN_HEADER = "\t".join(_COLUMNS)
_column_values = operator.attrgetter(*_COLUMNS)

# The summary lines under the table, in order.  ``hit`` reads true/false;
# every other value is spelled by kvfile.format_field.
_SUMMARY_FIELDS = ("stop_reason", "iterations", "total_samples",
                   "ground_truth_evals", "hit", "stop_iteration",
                   "final_true_grad_norm", "final_gap", "final_alpha",
                   "final_x_norm")


@dataclass
class SolverState:
    """Mutable loop state; built by :func:`initialize_state`.  ``noise``
    holds the variances that size the next draws: the oracle's gradient
    draws update it, and :func:`qsass_step` sets ``var_f`` from its
    function draws."""

    x: np.ndarray
    alpha: float
    store: CurvaturePairStore
    bounds: SpectrumBounds
    g_prev_norm: float
    noise: NoiseRecord
    x_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    samples: int = 0
    gt_evals: int = 0


def _norm(v):
    """Euclidean norm of a real 1-D array: numpy's ``norm`` computes
    ``sqrt(v.dot(v))`` for these too, so the value is the same to the bit,
    without its dispatch cost on the loop's short vectors."""
    return math.sqrt(float(v.dot(v)))


def _mean_variance(a, b):
    """Mean of the variances that are not ``None``, or ``None`` if neither
    is given.  ``(a + b) / 2`` is what ``np.mean`` computes for two
    floats, to the bit."""
    if a is None:
        return b
    if b is None:
        return a
    return (a + b) / 2.0


def _store_capacity(config):
    if config.variant == "sass":
        return 0
    if config.variant == "qsass-bfgs":
        return None
    return int(config.memory)


def initialize_state(problem, config, oracle):
    """Pilot draws at the start point seed the variance estimates and the
    reference gradient norm: ``pilot_samples`` function draws, then
    ``pilot_samples`` gradient draws per evaluation point."""
    x0 = problem.start_point.copy()
    store = CurvaturePairStore(problem.dim, capacity=_store_capacity(config),
                               c=config.c, curvature_tol=config.curvature_tol)
    bounds = SpectrumBounds(config.spectrum_lb, config.spectrum_ub)
    pilot = int(config.pilot_samples)
    f_est = oracle.function_estimate(problem, x0, pilot)
    noise = NoiseRecord(var_f=f_est.variance if f_est.variance is not None
                        else 0.0)
    g_est = oracle.gradient_estimate(
        problem, x0, pilot * oracle.evaluation_points(problem), noise)
    return SolverState(x=x0, alpha=float(config.alpha0), store=store,
                       bounds=bounds, g_prev_norm=_norm(g_est.vector),
                       noise=noise, samples=f_est.samples + g_est.samples)


def qsass_step(problem, config, oracle, state, k, true_g, true_phi):
    """Run one iteration, mutate ``state``, and return its record, or
    ``None`` if a draw came back non-finite.

    ``true_g`` and ``true_phi`` are the ground-truth gradient and objective
    at the incoming iterate; the record carries oracle-accuracy flags
    measured against them (the flag for the function estimates costs one
    extra ground-truth objective evaluation at the trial point).

    The gradient norm and the noise record are checked right after the
    gradient draw, the two function values right after the function draws:
    a value that is not finite (an iterate that diverged until it
    overflowed) would size the next draws from NaN, so the step stops
    there.  The draws already made count in ``state.samples``.

    Once a step has been accepted, every iteration offers the store the
    pair ``(x - x_prev, g - g_prev)``.  A rejected step moves neither ``x``
    nor ``x_prev``, so the pair after it repeats the previous ``s``, with a
    ``y`` that differs only by this iteration's fresh gradient draw.  The
    unbounded ``qsass-bfgs`` store replaces its newest pair with it; a
    bounded store appends it.
    """
    x = state.x
    alpha = state.alpha
    eps_g_k = adaptive_eps_g(config.eps_g, config.tau, config.kappa, alpha,
                             state.g_prev_norm)
    n_g = oracle.gradient_budget(problem, state.noise, eps_g_k, config.delta,
                                 config.sample_cap)
    g_est = oracle.gradient_estimate(problem, x, n_g, state.noise)
    state.samples += g_est.samples
    g = g_est.vector
    g_norm = _norm(g)
    noise = state.noise
    if not (math.isfinite(g_norm) and math.isfinite(noise.var_f)
            and math.isfinite(noise.var_g)
            and (noise.point_vars is None
                 or np.isfinite(noise.point_vars).all())):
        return None

    inserted = False
    removed = 0
    if state.x_prev is not None:
        s = x - state.x_prev
        y = g - state.g_prev
        inserted = state.store.try_insert(s, y)
        if config.variant != "qsass-bfgs":
            removed = state.store.enforce_spectrum(state.bounds)
    # Norm bounds decide the census; a fallback eigensolve is cached until
    # the next insertion.
    would_violate = -1
    if config.variant == "qsass-bfgs":
        would_violate = int(state.store.violates(state.bounds))

    d = state.store.apply_inverse(g)
    gd = float(d @ g)
    x_plus = x - alpha * d

    if config.adaptive_eps_f:
        eps_f_k = adaptive_eps_f(config.eps_f, alpha, config.theta, gd)
    else:
        eps_f_k = config.eps_f
    n_f = oracle.function_budget(state.noise, eps_f_k, config.sample_cap)
    f_est = oracle.function_estimate(problem, x, n_f)
    f_plus_est = oracle.function_estimate(problem, x_plus, n_f)
    state.samples += f_est.samples + f_plus_est.samples
    var_f = _mean_variance(f_est.variance, f_plus_est.variance)
    if var_f is not None:
        state.noise.var_f = var_f
    if not (math.isfinite(f_est.value) and math.isfinite(f_plus_est.value)):
        return None

    success = sufficient_decrease_test(f_plus_est.value, f_est.value, alpha,
                                       config.theta, gd, eps_f_k)

    bound = adaptive_eps_g(config.eps_g, config.tau, config.kappa, alpha, g_norm)
    true_flag_g = int(_norm(g - true_g) <= bound)
    phi_plus = problem.objective(x_plus)
    state.gt_evals += 1
    err = abs(f_est.value - true_phi) + abs(f_plus_est.value - phi_plus)
    true_flag_f = int(err <= 2.0 * eps_f_k)
    true_gap = math.nan
    if problem.optimal_value is not None:
        true_gap = true_phi - problem.optimal_value

    if success:
        state.x_prev = x
        state.g_prev = g
        state.x = x_plus
        new_alpha = alpha / config.gamma
        if config.alpha_max is not None:
            new_alpha = min(new_alpha, config.alpha_max)
    else:
        new_alpha = alpha * config.gamma
    state.g_prev_norm = g_norm
    state.alpha = new_alpha

    return IterationRecord(
        k=k, alpha=alpha, success=int(success), f_est=f_est.value,
        f_plus_est=f_plus_est.value, gd_inner=gd, g_norm=g_norm,
        d_norm=_norm(d), eps_f_k=eps_f_k, eps_g_k=eps_g_k,
        n_f=n_f, n_g=n_g,
        pairs=len(state.store), inserted=int(inserted), removed=removed,
        cum_samples=state.samples, x_norm=_norm(x),
        true_grad_norm=_norm(true_g), true_gap=true_gap,
        true_flag_g=true_flag_g, true_flag_f=true_flag_f,
        would_violate=would_violate)


@dataclass
class RunTrace:
    """Everything a run produced, serializable to a plain text table."""

    labels: dict
    config: SolverConfig
    stopping: StoppingRule
    records: list = field(default_factory=list)
    stop_reason: str = "iteration-budget"
    hit: bool = False
    stop_iteration: int | None = None
    iterations: int = 0
    total_samples: int = 0
    ground_truth_evals: int = 0
    final_true_grad_norm: float = math.nan
    final_gap: float = math.nan
    final_alpha: float = math.nan
    final_x_norm: float = math.nan

    def to_text(self):
        lines = [f"# trace-format = {TRACE_FORMAT}"]
        for key in sorted(self.labels):
            lines.append(f"# {key} = {self.labels[key]}")
        lines.append(f"# config = {config_to_text(self.config)}")
        lines.append(f"# stopping = {self.stopping.kind}")
        lines.append("# threshold = " + format_field(
            StoppingRule, "threshold", self.stopping.threshold))
        lines.append(_COLUMN_HEADER)
        for rec in self.records:
            lines.append("\t".join([repr(kind(v)) for kind, v in
                                    zip(_COLUMN_TYPES, _column_values(rec))]))
        lines.append("")
        for name in _SUMMARY_FIELDS:
            value = getattr(self, name)
            text = (("true" if value else "false") if name == "hit"
                    else format_field(RunTrace, name, value))
            lines.append(f"{name} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        labels = {}
        config = None
        stop_kind = None
        threshold = None
        records = []
        summary = {}
        lines = text.splitlines()
        i = 0
        while i < len(lines) and lines[i].startswith("# "):
            body = lines[i][2:]
            key, _, value = body.partition(" = ")
            if key == "config":
                config = config_from_text(value)
            elif key == "stopping":
                stop_kind = value
            elif key == "threshold":
                threshold = parse_field(StoppingRule, "threshold", value)
            elif key == "trace-format":
                if value != str(TRACE_FORMAT):
                    raise ValueError(f"unsupported trace format {value!r}; "
                                     f"this version reads {TRACE_FORMAT}")
            else:
                labels[key] = value
            i += 1
        if config is None or stop_kind is None or threshold is None:
            raise ValueError("trace text is missing its header")
        if lines[i:i + 1] != [_COLUMN_HEADER]:
            raise ValueError("trace table header does not match this format")
        i += 1
        while i < len(lines) and lines[i]:
            values = lines[i].split("\t")
            if len(values) != len(_COLUMNS):
                raise ValueError(f"trace line {i + 1} has {len(values)} "
                                 f"fields, the table has {len(_COLUMNS)}")
            records.append(IterationRecord(
                *[kind(v) for kind, v in zip(_COLUMN_TYPES, values)]))
            i += 1
        for line in lines[i:]:
            if line:
                key, _, value = line.partition(" = ")
                summary[key] = value
        missing = [name for name in _SUMMARY_FIELDS if name not in summary]
        if missing:
            raise ValueError(f"trace summary lacks {', '.join(missing)}")
        stopping = StoppingRule(kind=stop_kind, threshold=threshold)
        return cls(labels=labels, config=config, stopping=stopping,
                   records=records,
                   **{name: parse_field(cls, name, summary[name])
                      for name in _SUMMARY_FIELDS})


def config_to_text(config):
    return fields_to_text(config)


def config_from_text(text):
    return fields_from_text(SolverConfig, text)


def run(problem, config, oracle, stopping=None, labels=None):
    """Drive the loop until a stopping rule, iteration, or sample budget, or
    until a draw comes back non-finite.

    ``oracle`` is a seeded :class:`~qsass.oracles.OracleModel`; the run is
    deterministic given the oracle's seed, the configuration, and the
    problem.  Every iteration evaluates the ground-truth gradient and
    objective at the iterate, for the stopping rule and the records'
    accuracy flags; these evaluations are metered separately from oracle
    samples.  ``trace.stop_reason`` is one of :data:`STOP_REASONS`.
    """
    stopping = stopping if stopping is not None else StoppingRule()
    if stopping.kind == "optimality-gap" and problem.optimal_value is None:
        raise ConfigurationError(
            f"problem {problem.name!r} has no known optimum for the "
            "optimality-gap rule")
    if not isinstance(oracle, OracleModel):
        raise TypeError("oracle must be an OracleModel")
    trace = RunTrace(labels=dict(labels or {}), config=config,
                     stopping=stopping)
    state = initialize_state(problem, config, oracle)

    reason = "iteration-budget"
    for k in range(int(config.max_iterations)):
        true_g = problem.gradient(state.x)
        true_phi = problem.objective(state.x)
        state.gt_evals += 2
        if stopping.kind == "gradient-norm":
            measure = _norm(true_g)
        elif stopping.kind == "optimality-gap":
            measure = true_phi - problem.optimal_value
        else:
            measure = math.inf
        if measure <= stopping.threshold:
            trace.hit = True
            trace.stop_iteration = k
            reason = "stopping-rule"
            break
        if state.samples >= config.max_samples:
            reason = "sample-budget"
            break
        rec = qsass_step(problem, config, oracle, state, k, true_g, true_phi)
        if rec is None:
            reason = "non-finite"
            break
        trace.records.append(rec)

    trace.stop_reason = reason
    trace.iterations = len(trace.records)
    trace.total_samples = state.samples
    trace.final_alpha = state.alpha
    trace.final_x_norm = _norm(state.x)
    final_g = problem.gradient(state.x)
    state.gt_evals += 1
    trace.final_true_grad_norm = _norm(final_g)
    if problem.optimal_value is not None:
        trace.final_gap = problem.objective(state.x) - problem.optimal_value
        state.gt_evals += 1
    trace.ground_truth_evals = state.gt_evals
    return trace
