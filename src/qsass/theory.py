"""Numeric evaluation of the solver's high-probability complexity guarantees.

The step-search analysis produces, for each objective class (general smooth
and strongly convex), a package of constants: a step-size threshold
``alpha_bar`` below which every true iteration must succeed, a progress
function ``h`` measuring the guaranteed decrease on such iterations, a lower
bound ``p`` on the probability of an iteration being true, and from these an
iteration count ``t_min`` beyond which the stopping time has been reached
with a quantified tail probability.  There is also an achievable-accuracy
floor: below it the oracle noise and bias make the target meaningless.

Each question has one entry point keyed by the case, ``mode`` in
:data:`MODES`: :func:`progress_constants`, :func:`iteration_bound` and
:func:`accuracy_floor`; :func:`report_text` asks all three for every case
the inputs cover.

Everything here is a pure function of :class:`TheoryInputs`.  Parameter sets
that break one of the analysis' assumptions (nonpositive ``alpha_bar``,
``p <= 1/2``, a progress unit that is not positive, vacuous tail bounds,
degenerate logarithms) produce reports
with ``feasible=False`` and a list of readable issues instead of raising;
mapping out the feasible region is part of this module's job.  Structurally
malformed inputs (``theta`` outside ``(0, 1)``, negative noise levels, ...)
raise :class:`~qsass.errors.ConfigurationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError, SpecFileError
from .kvfile import field_kinds, parse_field, read_key_values

MODES = ("nonconvex", "strongly-convex")


@dataclass(frozen=True)
class TheoryInputs:
    """Problem, oracle and solver parameters entering the complexity bounds.

    ``sigma_lb`` and ``sigma_ub`` bound the spectrum of the inverse model
    Hessian applied to gradients (the reciprocals of the enforced matrix
    bounds).  ``eps`` is the target accuracy: a gradient-norm threshold in
    nonconvex mode, an optimality gap in strongly convex mode.  ``nu`` and
    ``b`` are the subexponential parameters of the function-noise tail and
    ``noise_margin`` is the worst-case slack of the noise mean below
    ``eps_f``; all three are only needed when ``bounded_noise`` is off or a
    positive ``tail_slack`` is used.  ``initial_gap`` is the starting
    objective gap and ``p_hat`` the success-probability level the iteration
    bounds are evaluated at.
    """

    lipschitz: float
    theta: float = 0.2
    gamma: float = 0.8
    alpha0: float = 1.0
    sigma_lb: float = 1.0
    sigma_ub: float = 1.0
    tau: float = 10.0
    kappa: float = 1.0
    eta: float = 0.1
    eps: float = 1e-3
    eps_f: float = 0.0
    eps_g: float = 0.0
    delta: float = 0.1
    strong_convexity: float | None = None
    bounded_noise: bool = True
    nu: float | None = None
    b: float | None = None
    noise_margin: float | None = None
    p_hat: float | None = None
    tail_slack: float = 0.0
    initial_gap: float | None = None

    def __post_init__(self):
        if not self.lipschitz > 0:
            raise ConfigurationError("lipschitz must be positive")
        if not 0 < self.theta < 1:
            raise ConfigurationError("theta must lie in (0, 1)")
        if not 0 < self.gamma < 1:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not self.alpha0 > 0:
            raise ConfigurationError("alpha0 must be positive")
        if not 0 < self.sigma_lb <= self.sigma_ub < math.inf:
            raise ConfigurationError(
                "need 0 < sigma_lb <= sigma_ub < inf for the spectrum bounds")
        if not self.tau >= 0:
            raise ConfigurationError("tau must be nonnegative")
        if not self.kappa > 0:
            raise ConfigurationError("kappa must be positive")
        if not 0 < self.eta < 1:
            raise ConfigurationError("eta must lie in (0, 1)")
        if not self.eps > 0:
            raise ConfigurationError("eps must be positive")
        if not (self.eps_f >= 0 and self.eps_g >= 0):
            raise ConfigurationError("eps_f and eps_g must be nonnegative")
        if not 0 <= self.delta < 0.5:
            raise ConfigurationError("delta must lie in [0, 1/2)")
        if self.strong_convexity is not None and not self.strong_convexity > 0:
            raise ConfigurationError("strong_convexity must be positive when given")
        for label in ("nu", "b"):
            value = getattr(self, label)
            if value is not None and not value > 0:
                raise ConfigurationError(f"{label} must be positive when given")
        if self.noise_margin is not None and not math.isfinite(self.noise_margin):
            raise ConfigurationError("noise_margin must be finite when given")
        if not self.bounded_noise:
            missing = [label for label in ("nu", "b", "noise_margin")
                       if getattr(self, label) is None]
            if missing:
                raise ConfigurationError(
                    "unbounded noise mode requires " + ", ".join(missing))
        if self.p_hat is not None and not 0 < self.p_hat < 1:
            raise ConfigurationError("p_hat must lie in (0, 1) when given")
        if not self.tail_slack >= 0:
            raise ConfigurationError("tail_slack must be nonnegative")
        if self.initial_gap is not None and not self.initial_gap >= 0:
            raise ConfigurationError("initial_gap must be nonnegative when given")

    @property
    def spectrum_ratio(self) -> float:
        """sigma_lb / sigma_ub, the reciprocal conditioning of the model."""
        return self.sigma_lb / self.sigma_ub

    @property
    def eta_limit(self) -> float:
        """Strict upper limit the bias fraction ``eta`` must stay below."""
        ratio = self.spectrum_ratio
        return (1.0 - self.theta * ratio) / (1.0 + (1.0 - self.theta) * ratio)


@dataclass(frozen=True)
class ProgressConstants:
    """Progress constants of one case (``mode`` in :data:`MODES`), with
    diagnostics.  The ``h`` branches are NaN in the nonconvex case."""

    mode: str
    feasible: bool
    issues: tuple[str, ...]
    spectrum_ratio: float
    eta_limit: float
    alpha_bar: float
    alpha_bar_curvature: float
    alpha_bar_bias: float
    m1: float
    m1_tau_branch: float
    m1_eta_branch: float
    p: float
    p_ell: float
    progress_unit: float
    decrease_offset: float
    progress_requirement: bool
    nu_r: float
    b_r: float
    h_tau_branch: float = math.nan
    h_eta_branch: float = math.nan


@dataclass(frozen=True)
class IterationBound:
    """Iteration count guaranteeing the stopping time at level ``p_hat``."""

    feasible: bool
    issues: tuple[str, ...]
    t_min: float
    gap_term: float
    warmup_term: float
    margin: float


@dataclass(frozen=True)
class AccuracyFloor:
    """Smallest meaningful target accuracy given the oracle noise levels."""

    mode: str
    feasible: bool
    issues: tuple[str, ...]
    value: float
    branches: tuple[float, ...]


def _alpha_bar_branches(inputs: TheoryInputs) -> tuple[float, float]:
    curvature = (2.0 * (1.0 - inputs.theta) * inputs.sigma_lb
                 / ((2.0 * inputs.kappa + inputs.lipschitz * inputs.sigma_ub)
                    * inputs.sigma_ub))
    ratio = inputs.spectrum_ratio
    bias = (2.0 * ((1.0 - inputs.theta) * (1.0 - inputs.eta) * ratio - inputs.eta)
            / (inputs.lipschitz * inputs.sigma_ub * (1.0 - inputs.eta)))
    return curvature, bias


def _square(x: float) -> float:
    """``x ** 2``, or inf where that overflows: a float power raises
    ``OverflowError`` there instead of rounding to inf."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _m1_branches(inputs: TheoryInputs) -> tuple[float, float]:
    tau_branch = inputs.sigma_lb * inputs.theta / _square(1.0 + inputs.tau)
    eta_branch = inputs.sigma_lb * inputs.theta * (1.0 - inputs.eta) ** 2
    return tau_branch, eta_branch


def true_iteration_probability(inputs: TheoryInputs) -> float:
    """Lower bound ``p`` on the probability that an iteration is true.

    ``1 - delta`` for bounded function noise; otherwise reduced by the
    subexponential tail of the noise exceeding its ``noise_margin``.
    """
    if inputs.bounded_noise:
        return 1.0 - inputs.delta
    u, nu, b = inputs.noise_margin, inputs.nu, inputs.b
    exponent = min(u * u / (2.0 * nu * nu), u / (2.0 * b))
    return 1.0 - inputs.delta - math.exp(-exponent)


def _progress_unit(inputs, mode, alpha_bar, m1):
    """``(unit, h_tau, h_eta, issue)``: the progress unit of ``mode``, its
    two log branches (NaN in nonconvex mode), and the issue that leaves the
    unit undefined or not positive, or ``None``."""
    h_tau = h_eta = unit = math.nan
    if alpha_bar > 0.0 and mode == "nonconvex":
        eps_sq = _square(inputs.eps)
        if eps_sq == math.inf:
            return unit, h_tau, h_eta, (
                "eps**2 overflows: the progress unit, p_ell and the "
                "iteration bound are undefined")
        unit = m1 * alpha_bar * eps_sq
    elif alpha_bar > 0.0:
        beta = inputs.strong_convexity
        arg_tau = 1.0 - (alpha_bar * inputs.sigma_lb * inputs.theta * beta
                         / _square(1.0 + inputs.tau))
        arg_eta = 1.0 - (alpha_bar * inputs.sigma_lb * beta * inputs.theta
                         * (1.0 - inputs.eta) ** 2)
        if arg_tau <= 0.0 or arg_eta <= 0.0:
            return unit, h_tau, h_eta, (
                "progress function undefined: "
                "alpha_bar too large relative to strong_convexity")
        h_tau = -math.log(arg_tau)
        h_eta = -math.log(arg_eta)
        unit = min(h_tau, h_eta)
    issue = None
    if alpha_bar > 0.0 and not unit > 0.0:
        issue = (f"progress unit {unit:.6g} is not positive: "
                 "p_ell and the iteration bound are undefined")
    return unit, h_tau, h_eta, issue


def progress_constants(inputs: TheoryInputs, mode: str) -> ProgressConstants:
    """Progress constants of one case, ``mode`` in :data:`MODES`.

    ``alpha_bar`` and ``M1`` (each with both branches), the true-iteration
    probability ``p`` and the tail threshold ``p_ell`` follow one set of
    rules.  The progress unit and the decrease offset are ``M1 * alpha_bar
    * eps**2`` and ``4 eps_f`` in nonconvex mode.  In strongly convex mode,
    which needs ``strong_convexity``, they are the log-scale contraction
    ``h(alpha_bar) = min over both branches of -log(1 - alpha_bar * ...)``
    and ``log(1 + 4 eps_f / eps)``.  A unit that is not positive leaves
    ``p_ell`` NaN and is reported as an issue.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}")
    if mode == "strongly-convex" and inputs.strong_convexity is None:
        raise ConfigurationError(
            "strongly convex constants need the strong_convexity input")
    curvature, bias = _alpha_bar_branches(inputs)
    alpha_bar = min(curvature, bias)
    tau_branch, eta_branch = _m1_branches(inputs)
    m1 = min(tau_branch, eta_branch)
    p = true_iteration_probability(inputs)
    issues = []
    if inputs.eta >= inputs.eta_limit:
        issues.append(
            f"eta={inputs.eta:g} is not below its limit {inputs.eta_limit:.6g}")
    if alpha_bar <= 0.0:
        issues.append("alpha_bar is not positive: "
                      "eta is too large for the spectrum bounds")
    if p <= 0.5:
        issues.append(f"true-iteration probability p={p:.6g} is not above 1/2")

    progress, h_tau, h_eta, issue = _progress_unit(inputs, mode, alpha_bar, m1)
    if issue is not None:
        issues.append(issue)
    if mode == "nonconvex":
        offset, offset_text = 4.0 * inputs.eps_f, "4*eps_f"
    else:
        offset = math.log1p(4.0 * inputs.eps_f / inputs.eps)
        offset_text = "log(1 + 4*eps_f/eps)"
    p_ell = 0.5 + (offset + inputs.tail_slack) / progress \
        if progress > 0.0 else math.nan
    requirement = (progress > 0.0 and p > 0.5
                   and progress * (p - 0.5) > offset)
    if not requirement and progress > 0.0 and p > 0.5:
        issues.append("progress requirement fails: "
                      f"h(alpha_bar) <= {offset_text} / (p - 1/2)")

    nu, b, eps = inputs.nu, inputs.b, inputs.eps
    if mode == "nonconvex":
        nu_r = 2.0 * nu if nu is not None else math.nan
        b_r = 2.0 * b if b is not None else math.nan
    elif nu is not None and b is not None:
        nu_r = b_r = (4.0 * math.e ** 2 * max(2.0 * nu / eps, 2.0 * b / eps)
                      + 4.0 * math.e * (1.0 + 4.0 * inputs.eps_f / eps))
    else:
        nu_r = b_r = math.nan
    if inputs.tail_slack > 0.0 and (nu is None or b is None):
        issues.append("tail_slack > 0 requires the nu and b noise parameters")

    return ProgressConstants(
        mode=mode, feasible=not issues, issues=tuple(issues),
        spectrum_ratio=inputs.spectrum_ratio, eta_limit=inputs.eta_limit,
        alpha_bar=alpha_bar, alpha_bar_curvature=curvature,
        alpha_bar_bias=bias, m1=m1, m1_tau_branch=tau_branch,
        m1_eta_branch=eta_branch, p=p, p_ell=p_ell, progress_unit=progress,
        decrease_offset=offset, progress_requirement=requirement,
        nu_r=nu_r, b_r=b_r, h_tau_branch=h_tau, h_eta_branch=h_eta)


def iteration_bound(inputs: TheoryInputs, mode: str,
                    constants: ProgressConstants | None = None,
                    ) -> IterationBound:
    """Iterations to reach the target ``eps`` of ``mode`` with probability
    ``p_hat``, from :func:`progress_constants` unless ``constants`` are given.

    The gap term is ``initial_gap`` in progress units in nonconvex mode, so
    the bound grows as ``1/eps**2``; in strongly convex mode the gap enters
    on a log scale, and one already at or below ``eps`` contributes zero.
    A progress unit that is not positive leaves it and ``t_min`` NaN.
    """
    if inputs.initial_gap is None:
        raise ConfigurationError("iteration bounds need the initial_gap input")
    if constants is None:
        constants = progress_constants(inputs, mode)
    if inputs.p_hat is None:
        raise ConfigurationError("iteration bounds need the p_hat input")
    if mode == "nonconvex":
        gap = inputs.initial_gap
    elif inputs.initial_gap <= inputs.eps:
        gap = 0.0
    else:
        gap = math.log(inputs.initial_gap / inputs.eps)
    unit = constants.progress_unit
    gap_term = gap / unit if unit > 0.0 else math.nan
    issues = list(constants.issues)
    if constants.alpha_bar > 0.0:
        warmup = max(-(math.log(inputs.alpha0) - math.log(constants.alpha_bar))
                     / (2.0 * math.log(inputs.gamma)), 0.0)
    else:
        warmup = math.nan
    margin = inputs.p_hat - constants.p_ell
    if math.isnan(constants.p_ell) or not constants.p_ell < inputs.p_hat < constants.p:
        issues.append(f"p_hat={inputs.p_hat:g} is outside the admissible interval "
                      f"(p_ell, p) = ({constants.p_ell:.6g}, {constants.p:.6g})")
        t_min = math.nan
    else:
        t_min = (gap_term + warmup) / margin
    return IterationBound(feasible=not issues, issues=tuple(issues),
                          t_min=t_min, gap_term=gap_term, warmup_term=warmup,
                          margin=margin)


def failure_probability(p: float, p_hat: float, t: float,
                        tail_slack: float = 0.0,
                        nu_r: float = math.nan,
                        b_r: float = math.nan) -> float:
    """Tail bound on the probability that the stopping time exceeds ``t``.

    Sum of a drift term, decaying in ``(p - p_hat)**2 * t``, and a noise
    term decaying in ``tail_slack``.  With ``tail_slack = 0`` the noise term
    is identically one and the bound is vacuous; consumers should report
    ``success_probability`` instead, which clamps to ``[0, 1]``.  The bound
    is NaN where ``nu_r ** 2`` underflows to 0 or both squares overflow:
    the noise term's Gaussian exponent is then not a number in floats.
    """
    if not t > 0:
        raise ConfigurationError("t must be positive")
    if not 0.0 < p_hat < p <= 1.0:
        raise ConfigurationError("need 0 < p_hat < p <= 1")
    if tail_slack < 0:
        raise ConfigurationError("tail_slack must be nonnegative")
    drift = math.exp(-((p - p_hat) ** 2) * t / (2.0 * p * p))
    if tail_slack == 0.0:
        return drift + 1.0
    spread = 2.0 * _square(nu_r)
    if not spread > 0.0:
        return math.nan
    gaussian = _square(tail_slack) * t / spread
    if math.isnan(gaussian):
        return math.nan
    return drift + math.exp(-min(gaussian, tail_slack * t / (2.0 * b_r)))


def success_probability(p: float, p_hat: float, t: float,
                        tail_slack: float = 0.0,
                        nu_r: float = math.nan,
                        b_r: float = math.nan) -> float:
    """``1 - failure_probability``, clamped to ``[0, 1]``; NaN where that
    bound is."""
    bound = failure_probability(p, p_hat, t, tail_slack, nu_r, b_r)
    if math.isnan(bound):
        return bound
    return min(1.0, max(0.0, 1.0 - bound))


def accuracy_floor(inputs: TheoryInputs, mode: str) -> AccuracyFloor:
    """Smallest target accuracy the oracles can meaningfully support.

    In nonconvex mode the floor is the larger of a gradient-bias branch
    ``eps_g / eta`` and a function-noise branch involving ``sqrt(eps_f)``;
    in strongly convex mode it is a three-way maximum whose middle branch
    involves the log-scale contraction factor.  Noiseless oracles give a
    floor of zero.
    """
    constants = progress_constants(inputs, mode)
    issues = [text for text in constants.issues
              if "progress requirement" not in text]
    if mode == "nonconvex":
        grad_branch = inputs.eps_g / inputs.eta
        denom = constants.m1 * constants.alpha_bar * (constants.p - 0.5)
        if inputs.eps_f == 0.0:
            noise_branch = 0.0
        elif denom > 0.0:
            noise_branch = math.sqrt(4.0 * inputs.eps_f / denom)
        else:
            noise_branch = math.nan
        branches = (grad_branch, noise_branch)
    else:
        beta = inputs.strong_convexity
        grad_branch = _square(inputs.eps_g) / (2.0 * beta * inputs.eta ** 2)
        base = 1.0 - constants.m1 * beta * constants.alpha_bar
        # Rounds to 0 when base is within an ulp or so of 1.
        growth = (base ** (0.5 - constants.p) - 1.0
                  if 0.0 < base < 1.0 and constants.p > 0.5 else math.nan)
        if inputs.eps_f == 0.0:
            ratio_branch = 0.0
        elif growth > 0.0:
            ratio_branch = 4.0 * inputs.eps_f / growth
        else:
            ratio_branch = math.nan
            if base <= 0.0:
                issues.append("contraction factor not in (0, 1): "
                              "m1 * strong_convexity * alpha_bar >= 1")
        branches = (grad_branch, ratio_branch, 4.0 * inputs.eps_f)
    if any(math.isnan(value) for value in branches):
        value = math.nan
    else:
        value = max(branches)
    return AccuracyFloor(
        mode=mode,
        feasible=not issues,
        issues=tuple(issues),
        value=value,
        branches=branches,
    )


def theory_inputs_from_file(path) -> TheoryInputs:
    """Read a :class:`TheoryInputs` from a ``key = value`` text file.

    Keys are the dataclass field names; ``bounded_noise`` accepts ``1/0``
    and ``true/false``.  Unknown keys and unparsable values raise
    :class:`~qsass.errors.SpecFileError`.
    """
    kwargs = {}
    for key, raw in read_key_values(path).items():
        if key not in field_kinds(TheoryInputs):
            raise SpecFileError(f"{path}: unknown theory input '{key}'")
        try:
            kwargs[key] = parse_field(TheoryInputs, key, raw)
        except ValueError:
            raise SpecFileError(
                f"{path}: malformed value for '{key}': {raw!r}") from None
    if "lipschitz" not in kwargs:
        raise SpecFileError(f"{path}: the 'lipschitz' entry is required")
    try:
        return TheoryInputs(**kwargs)
    except ConfigurationError as exc:
        raise SpecFileError(f"{path}: {exc}") from None


def _table(lines, label, value):
    if isinstance(value, float):
        text = f"{value:.12g}"
    else:
        text = str(value)
    lines.append(f"  {label:<22} {text}")


def _constants_section(lines, constants):
    lines.append(constants.mode.replace("-", " ") + " case")
    _table(lines, "feasible", constants.feasible)
    for issue in constants.issues:
        lines.append(f"    ! {issue}")
    _table(lines, "spectrum_ratio", constants.spectrum_ratio)
    _table(lines, "eta_limit", constants.eta_limit)
    _table(lines, "alpha_bar", constants.alpha_bar)
    _table(lines, "  curvature branch", constants.alpha_bar_curvature)
    _table(lines, "  bias branch", constants.alpha_bar_bias)
    _table(lines, "m1", constants.m1)
    _table(lines, "  tau branch", constants.m1_tau_branch)
    _table(lines, "  eta branch", constants.m1_eta_branch)
    if constants.mode == "strongly-convex":
        _table(lines, "h(alpha_bar)", constants.progress_unit)
        _table(lines, "  tau branch", constants.h_tau_branch)
        _table(lines, "  eta branch", constants.h_eta_branch)
    else:
        _table(lines, "progress_unit", constants.progress_unit)
    _table(lines, "decrease_offset", constants.decrease_offset)
    _table(lines, "p", constants.p)
    _table(lines, "p_ell", constants.p_ell)
    _table(lines, "progress_req_met", constants.progress_requirement)
    _table(lines, "nu_r", constants.nu_r)
    _table(lines, "b_r", constants.b_r)


def _floor_section(lines, floor):
    _table(lines, "accuracy_floor", floor.value)
    for index, branch in enumerate(floor.branches, 1):
        _table(lines, f"  branch {index}", branch)


def _bound_section(lines, inputs, constants, bound):
    _table(lines, "t_min", bound.t_min)
    _table(lines, "  gap term", bound.gap_term)
    _table(lines, "  warmup term", bound.warmup_term)
    _table(lines, "  margin", bound.margin)
    for issue in bound.issues:
        if issue not in constants.issues:
            lines.append(f"    ! {issue}")
    if bound.feasible and math.isfinite(bound.t_min) and bound.t_min > 0:
        success = success_probability(constants.p, inputs.p_hat, bound.t_min,
                                      inputs.tail_slack,
                                      constants.nu_r, constants.b_r)
        if math.isnan(success):
            lines.append("    ! success probability at t_min is undefined: "
                         "the noise term's exponent is not a number in floats")
        else:
            _table(lines, "success prob at t_min", success)


def report_text(inputs: TheoryInputs) -> str:
    """Labeled table of all constants, floors and bounds for ``inputs``.

    Always covers the nonconvex case; adds the strongly convex case when
    ``strong_convexity`` is set, and the iteration bounds when
    ``initial_gap`` and ``p_hat`` are set.
    """
    lines = ["theory inputs"]
    for field in fields(TheoryInputs):
        _table(lines, field.name, getattr(inputs, field.name))
    for mode in MODES:
        if mode == "strongly-convex" and inputs.strong_convexity is None:
            continue
        lines.append("")
        constants = progress_constants(inputs, mode)
        _constants_section(lines, constants)
        _floor_section(lines, accuracy_floor(inputs, mode))
        if inputs.initial_gap is not None and inputs.p_hat is not None:
            _bound_section(lines, inputs, constants,
                           iteration_bound(inputs, mode, constants))
    lines.append("")
    return "\n".join(lines)
