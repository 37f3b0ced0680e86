"""Stochastic function and gradient oracles with noise-aware sample sizing.

A model owns its own random generator and every estimate consumes fresh
draws from it; nothing is shared across calls or across runs.  Averages of
Gaussian draws are sampled in closed form (the mean of ``N`` i.i.d. normals
is normal with variance ``var / N``, and their sample variance is an
independent scaled chi-square), which is exact in distribution and keeps
the cost of an estimate independent of the sample count -- the adaptive
sample sizes routinely reach 1e10 and beyond.  Measurement-based estimates
aggregate their shots through a multinomial over the Hamiltonian
eigenvalues, which is the same distribution as drawing the shots one by
one.

Estimate objects unpack as ``(value, samples_used)`` tuples and carry the
sample variances needed to size the next iteration's draws; a batch of
function estimates comes back as arrays instead.  Every gradient
goes through :meth:`OracleModel.gradient_estimate`, which keeps those
variances in a :class:`NoiseRecord`, from which
:meth:`OracleModel.function_budget` and :meth:`OracleModel.gradient_budget`
size the next draws by one Chebyshev rule, :func:`chebyshev_sample_size`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedProblemError
from .problems import VqeProblem

ORACLE_KINDS = ("exact", "additive", "multiplicative", "mixed-gaussian",
                "vqe-measurement")

GRADIENT_MODES = ("auto", "direct", "shift", "fd")

# Per-call ceiling on adaptive sample sizes; hitting it is recorded by the
# caller, never an error.
SAMPLE_CAP_DEFAULT = 10 ** 8

# Floor weight assigned to zero-variance entries before renormalizing.
ALLOCATION_FLOOR = 1e-6

# Additive offset keeping the finite-difference radius positive with
# noiseless estimates.
FD_RADIUS_OFFSET = 1e-8


@dataclass(frozen=True)
class OracleParams:
    """Noise scales for the synthetic oracle models.

    ``function_scale`` and ``gradient_scale`` are the standard deviations
    of a single additive draw; ``relative_percent`` scales multiplicative
    noise as ``(1 + xi * relative_percent / 100)``; the ``mixed_*`` fields
    set the two gradient regimes of the mixed-Gaussian model and the
    probability of the bad one.
    """

    function_scale: float = 1.0
    gradient_scale: float = 1.0
    relative_percent: float = 1.0
    mixed_small: float = 1e-6
    mixed_large: float = 1e6
    mixed_large_prob: float = 0.2


@dataclass
class FunctionEstimate:
    value: float
    samples: int
    variance: float | None = None

    def __iter__(self):
        return iter((self.value, self.samples))


@dataclass
class GradientEstimate:
    """Per-point variances in ``point_variances``: the shift rule's 2n
    points, or finite differences' n shifted points, whose base point's
    variance is ``base_variance``."""

    vector: np.ndarray
    samples: int
    variance: float | None = None
    point_variances: np.ndarray | None = None
    base_variance: float | None = None

    def __iter__(self):
        return iter((self.vector, self.samples))


@dataclass
class NoiseRecord:
    """Sample variances carried from one draw to the next: ``var_f`` sizes
    function draws and finite differences, ``var_g`` direct and shift-rule
    draws; ``point_vars`` splits the next gradient's shots over its points
    (2n for the shift rule, n for finite differences)."""

    var_f: float = 0.0
    var_g: float = 0.0
    point_vars: np.ndarray | None = None


@dataclass(frozen=True)
class SampleAllocation:
    weights: np.ndarray
    shots: np.ndarray


class OracleModel:
    """Noisy access to a problem's objective and gradient.

    Parameters
    ----------
    kind : str
        One of ``ORACLE_KINDS``.
    params : OracleParams
        Noise scales; defaults apply when omitted.
    seed : int or numpy SeedSequence or Generator
        Source of the model's private stream.
    gradient_mode : str
        ``"auto"`` (measurement models use the shift rule, everything else
        direct draws), ``"direct"``, ``"shift"``, or ``"fd"``.
    """

    def __init__(self, kind, params=None, seed=None, gradient_mode="auto"):
        if kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {kind!r}; known: {ORACLE_KINDS}")
        if gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient mode {gradient_mode!r}")
        self.kind = kind
        self.params = params if params is not None else OracleParams()
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        self.gradient_mode = resolve_gradient_mode(kind, gradient_mode)

    # -- zeroth order -----------------------------------------------------

    def function_estimate(self, problem, x, n_samples):
        """Average of ``n_samples`` independent objective observations at
        one point.

        A synthetic model draws through the same primitive as
        :meth:`function_estimates` does for each of its rows, so the value,
        the variance and the stream match those of a one-row batch.  A
        measurement model measures the point with
        :meth:`VqeProblem.measure_moments`, which gives a one-row batch's
        numbers from the probabilities the problem keeps for the point.
        """
        n_samples = _check_samples(n_samples)
        if self.kind == "vqe-measurement":
            mean, variance = _measurement_problem(problem).measure_moments(
                x, n_samples, self.rng)
            return FunctionEstimate(mean, n_samples,
                                    None if n_samples == 1 else variance)
        return FunctionEstimate(*self._draw_function(problem.objective(x),
                                                     n_samples))

    def function_estimates(self, problem, xs, n_samples):
        """Estimates at every row of ``xs``, the ``j``-th averaging
        ``n_samples[j]`` observations: the batch entry point of finite
        differences and the shift rule.

        Returns ``(values, samples, variances)``: the rows' values as a
        float array, the draws used (the exact model counts one per row),
        and the rows' sample variances as a float array, or ``None`` when
        a row has none, as a row of one draw from a noisy model does.
        Synthetic models take the rows' exact values from
        :meth:`Problem.objectives`, which leaves the problem's point memo
        alone, and draw row by row, so the stream advances exactly as under
        one :meth:`function_estimate` per point; measurement models measure
        the whole batch in one pass.  ``xs`` and ``n_samples`` must have
        the same length.
        """
        n_samples = [_check_samples(n) for n in n_samples]
        xs = np.asarray(xs, dtype=float)
        if len(n_samples) != len(xs):
            raise ValueError(f"{len(xs)} points need as many sample counts, "
                             f"got {len(n_samples)}")
        if self.kind == "vqe-measurement":
            values, variances = _measurement_problem(problem).measure_batch(
                xs, n_samples, self.rng)
            return (values, sum(n_samples),
                    None if 1 in n_samples else variances)
        draws = [self._draw_function(phi, n)
                 for phi, n in zip(problem.objectives(xs), n_samples)]
        values, used, variances = zip(*draws) if draws else ((), (), ())
        return (np.array(values, dtype=float), sum(used),
                None if None in variances
                else np.array(variances, dtype=float))

    def _draw_function(self, phi, n_samples):
        """``(value, samples, variance)`` of one synthetic estimate of the
        exact value ``phi``."""
        if self.kind == "exact":
            return phi, 1, 0.0
        if self.kind == "multiplicative":
            scale = abs(phi) * self.params.relative_percent / 100.0
        else:  # additive and mixed-gaussian share the additive f model
            scale = self.params.function_scale
        value = phi + scale * self.rng.standard_normal() / math.sqrt(n_samples)
        variance = self._sample_variance(scale * scale, n_samples)
        return float(value), n_samples, variance

    # -- first order ------------------------------------------------------

    def evaluation_points(self, problem):
        """Points one gradient estimate evaluates: 1 for direct draws, 2n
        for the shift rule, n + 1 for finite differences."""
        n = problem.dim
        return {"direct": 1, "shift": 2 * n, "fd": n + 1}[self.gradient_mode]

    def function_budget(self, noise, eps_f_k, cap):
        """Draws for each function estimate of a step to meet ``eps_f_k``:
        :func:`chebyshev_sample_size` on ``noise.var_f`` with ``delta = 1``."""
        return chebyshev_sample_size(noise.var_f, eps_f_k, 1.0, cap)

    def gradient_budget(self, problem, noise, eps_g_k, delta, cap):
        """Draws for the next :meth:`gradient_estimate` to meet ``eps_g_k``
        with probability ``1 - delta``: :func:`chebyshev_sample_size` on
        ``noise.var_g``, or on ``noise.var_f`` for finite differences, which
        use :func:`fd_sample_size` at a positive ``eps_g_k``.  Never below
        :meth:`evaluation_points`."""
        fd = self.gradient_mode == "fd"
        if fd and eps_g_k > 0.0:
            n_g = fd_sample_size(noise.var_f,
                                 max(problem.hessian_norm_hint, 1e-8),
                                 problem.dim, delta, eps_g_k, cap)
        else:
            n_g = chebyshev_sample_size(noise.var_f if fd else noise.var_g,
                                        eps_g_k, delta, cap)
        return max(n_g, self.evaluation_points(problem))

    def gradient_estimate(self, problem, x, budget, noise=None):
        """One gradient estimate from ``budget`` draws by this model's
        gradient mode: direct draws, :func:`parameter_shift_gradient` or
        :func:`fd_gradient_estimate`.  The draw reads the :class:`NoiseRecord`
        ``noise`` and writes its variances back; any that come back ``None``
        keep their previous value."""
        budget = _check_samples(budget)
        if noise is None:
            noise = NoiseRecord()
        if self.gradient_mode == "direct":
            est = self._draw_gradient(problem, x, budget)
        elif self.gradient_mode == "shift":
            est = parameter_shift_gradient(self, problem, x, budget,
                                           noise.point_vars)
        else:
            s0 = max(budget // (problem.dim + 1), 1)
            est = fd_gradient_estimate(self, problem, x, budget,
                                       e_std=math.sqrt(noise.var_f / s0),
                                       point_variances=noise.point_vars)
            if est.base_variance is not None:
                noise.var_f = est.base_variance
        if est.variance is not None:
            noise.var_g = est.variance
        if est.point_variances is not None:
            noise.point_vars = est.point_variances
        return est

    def _draw_gradient(self, problem, x, n_samples):
        grad = problem.gradient(np.asarray(x, dtype=float))
        n = grad.shape[0]
        if self.kind == "exact":
            return GradientEstimate(grad, 1, 0.0)
        if self.kind == "multiplicative":
            scale = np.abs(grad) * self.params.relative_percent / 100.0
        elif self.kind == "additive":
            scale = self.params.gradient_scale
        else:  # mixed-gaussian: one regime per call, shared by all samples
            large = self.rng.random() < self.params.mixed_large_prob
            scale = self.params.mixed_large if large else self.params.mixed_small
        # A scalar scale, shared by every coordinate, gives the same numbers
        # in the same order as an array of n equal scales would.
        vector = grad + scale * self.rng.standard_normal(n) / math.sqrt(n_samples)
        if self.kind == "multiplicative":
            coord_var = self._coord_variances(scale ** 2, n_samples)
            total = float(np.sum(coord_var)) if coord_var is not None else None
        else:
            total = self._summed_variance(scale * scale, n, n_samples)
        return GradientEstimate(vector, n_samples, total)

    # -- helpers ----------------------------------------------------------

    def _sample_variance(self, true_var, n_samples):
        if n_samples < 2:
            return None
        if true_var == 0.0:
            return 0.0
        return true_var * self.rng.chisquare(n_samples - 1) / (n_samples - 1)

    def _summed_variance(self, true_var, n, n_samples):
        """Sum of ``n`` coordinate sample variances sharing ``true_var``:
        what :meth:`_coord_variances` sums for ``n`` equal entries, with one
        chi-square draw per coordinate and none when ``true_var`` is 0."""
        if n_samples < 2:
            return None
        if not true_var > 0.0:
            return 0.0
        chis = self.rng.chisquare(n_samples - 1, size=n)
        # The reduction np.sum makes, without its Python-level dispatch.
        return float(np.add.reduce(true_var * chis / (n_samples - 1)))

    def _coord_variances(self, true_vars, n_samples):
        if n_samples < 2:
            return None
        out = np.zeros_like(true_vars)
        nonzero = true_vars > 0.0
        k = int(np.count_nonzero(nonzero))
        if k:
            chis = self.rng.chisquare(n_samples - 1, size=k)
            out[nonzero] = true_vars[nonzero] * chis / (n_samples - 1)
        return out


def _measurement_problem(problem):
    if not isinstance(problem, VqeProblem):
        raise UnsupportedProblemError("measurement oracles need a VQE problem")
    return problem


def resolve_gradient_mode(kind, gradient_mode):
    """The gradient mode an oracle of ``kind`` runs under ``gradient_mode``:
    ``"auto"`` means the shift rule for measurement models and direct draws
    for everything else."""
    if gradient_mode == "auto":
        gradient_mode = "shift" if kind == "vqe-measurement" else "direct"
    if kind == "vqe-measurement" and gradient_mode == "direct":
        raise ValueError("measurement models have no direct gradient draws; "
                         "use the shift rule or finite differences")
    return gradient_mode


def _check_samples(n_samples):
    n = int(n_samples)
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return n


# ---------------------------------------------------------------------------
# Adaptive accuracy targets and sample sizing
# ---------------------------------------------------------------------------

def adaptive_eps_f(eps_f, alpha, theta, gd_inner):
    """Per-iteration function tolerance: a hundredth of the expected
    decrease, floored at ``eps_f``."""
    if eps_f < 0.0:
        raise ValueError(f"eps_f must be >= 0, got {eps_f}")
    if alpha <= 0.0 or not 0.0 < theta < 1.0:
        raise ValueError("need alpha > 0 and theta in (0, 1)")
    return max(eps_f, 0.01 * alpha * theta * gd_inner)


def adaptive_eps_g(eps_g, tau, kappa, alpha, g_prev_norm):
    """Per-iteration gradient tolerance ``max(eps_g, min(tau, kappa *
    alpha) * |g_prev|)``."""
    if eps_g < 0.0 or tau <= 0.0 or kappa <= 0.0 or alpha <= 0.0:
        raise ValueError("need eps_g >= 0 and tau, kappa, alpha > 0")
    if g_prev_norm < 0.0:
        raise ValueError("g_prev_norm must be >= 0")
    return max(eps_g, min(tau, kappa * alpha) * g_prev_norm)


def chebyshev_sample_size(variance, eps, delta, cap=SAMPLE_CAP_DEFAULT):
    """Draws putting an average within ``eps`` with probability ``1 - delta``:
    ``ceil(variance / (delta * eps^2))``, floored at 1 and capped at ``cap``.
    A tolerance of 0 takes one draw when ``variance`` is 0, else ``cap``."""
    cap = int(cap)
    if variance < 0.0 or not 0.0 < delta <= 1.0 or cap < 1:
        raise ValueError("need variance >= 0, delta in (0, 1] and cap >= 1")
    if eps <= 0.0:
        return 1 if variance == 0.0 else cap
    return min(max(math.ceil(variance / (delta * eps * eps)), 1), cap)


def fd_sample_size(var_f, l_bar, dim, delta, eps_g_k, cap=SAMPLE_CAP_DEFAULT):
    """Budget for a finite-difference gradient estimate.

    Closed form for equal function-draw variances:
    ``ceil(l_bar^2 n^2 var_f / (4 (n+1) delta^2 eps^4))``, floored at
    ``n + 1`` draws (one per evaluation point) and capped.

    A diverged iterate brings huge or infinite values here.  An ``eps^4``
    that overflows counts as infinite, so the budget floors; one that
    underflows to 0, an infinite ``var_f`` or a quotient that is not a
    number takes the cap.
    """
    if var_f < 0.0 or l_bar <= 0.0 or dim < 1:
        raise ValueError("need var_f >= 0, l_bar > 0, dim >= 1")
    if eps_g_k <= 0.0 or not 0.0 < delta < 0.5:
        raise ValueError("need eps_g_k > 0 and delta in (0, 1/2)")
    n = int(dim)
    cap = max(int(cap), n + 1)
    try:
        eps4 = eps_g_k ** 4
    except OverflowError:  # a float power raises where a product gives inf
        eps4 = math.inf
    need = l_bar * l_bar * n * n * var_f
    if need == 0.0:
        return n + 1
    room = 4.0 * (n + 1) * delta * delta * eps4
    raw = need / room if room > 0.0 else math.inf
    if not raw < cap:
        return cap
    return max(math.ceil(raw), n + 1)


def allocate_shot_budget(variances, budget):
    """Split ``budget`` draws over estimation points to minimize total
    variance.

    The continuous optimum puts weight proportional to each point's
    standard deviation; zero-variance points get a floor weight of
    ``ALLOCATION_FLOOR`` before renormalizing.  Integer shots come from
    largest-remainder rounding, each point receives at least one shot and
    the shots sum exactly to ``budget``.
    """
    var = np.asarray(variances, dtype=float)
    if var.ndim != 1 or var.size < 1:
        raise ValueError("variances must be a non-empty 1-D array")
    if np.any(var < 0.0) or not np.all(np.isfinite(var)):
        raise ValueError("variances must be finite and >= 0")
    k = var.size
    budget = int(budget)
    if budget < k:
        raise ValueError(f"budget {budget} cannot give each of {k} points a shot")
    std = np.sqrt(var)
    total = std.sum()
    if total == 0.0:
        weights = np.full(k, 1.0 / k)
    else:
        weights = std / total
        floor = weights < ALLOCATION_FLOOR
        if np.any(floor):
            weights = np.where(floor, ALLOCATION_FLOOR, weights)
            weights = weights / weights.sum()
    raw = weights * budget
    shots = np.floor(raw).astype(np.int64)
    remainder = budget - int(shots.sum())
    if remainder > 0:
        order = np.lexsort((np.arange(k), -(raw - shots)))
        shots[order[:remainder]] += 1
    # Largest-remainder rounding can starve a point; steal from the richest.
    while np.any(shots == 0):
        shots[np.argmax(shots)] -= 1
        shots[np.argmin(shots)] += 1
    return SampleAllocation(weights=weights, shots=shots)


# ---------------------------------------------------------------------------
# Derived gradient estimators
# ---------------------------------------------------------------------------

def fd_radius(e_std, l_bar):
    """Forward-difference radius balancing oracle noise against curvature:
    ``2 sqrt(e_std / l_bar)`` plus a small offset keeping it positive for
    noiseless estimates."""
    if e_std < 0.0 or l_bar <= 0.0:
        raise ValueError("need e_std >= 0 and l_bar > 0")
    return 2.0 * math.sqrt(e_std / l_bar) + FD_RADIUS_OFFSET


def fd_gradient_estimate(model, problem, x, budget, l_bar=None, e_std=0.0,
                         point_variances=None):
    """Forward-difference gradient from noisy function estimates.

    ``budget`` draws are split as ``s0 = budget // (n + 1)`` for the base
    point and the rest over the ``n`` shifted points by
    :func:`allocate_shot_budget` on ``point_variances``.  ``e_std``, the
    standard error of one averaged evaluation, sets the radius through
    :func:`fd_radius`.  No draws are shared between evaluation points.
    """
    x = np.asarray(x, dtype=float)
    n = problem.dim
    budget = int(budget)
    if budget < n + 1:
        raise ValueError(f"budget {budget} is below the {n + 1} evaluation points")
    if l_bar is None:
        l_bar = problem.hessian_norm_hint
    l_bar = max(float(l_bar), 1e-8)
    s0 = max(budget // (n + 1), 1)
    h = fd_radius(e_std, l_bar)
    if point_variances is None:
        point_variances = np.ones(n)
    alloc = allocate_shot_budget(point_variances, max(budget - s0, n))
    # The base point is drawn on its own, as the single point it is: its
    # variance sizes the next function draws even when a shifted point has
    # none, and it is the iterate, whose exact value or probabilities the
    # problem remembers.
    base = model.function_estimate(problem, x, s0)
    values, used, variances = model.function_estimates(
        problem, x + np.diag(np.full(n, h)), alloc.shots.tolist())
    vector = (values - base.value) / h
    return GradientEstimate(
        vector, base.samples + used,
        point_variances=None if base.variance is None else variances,
        base_variance=base.variance)


def parameter_shift_gradient(model, problem, x, budget, point_variances=None):
    """Two-point shift-rule gradient, exact for frequency-one coordinates.

    Each partial derivative is ``(f(x + (pi/2) e_i) - f(x - (pi/2) e_i)) / 2``.
    The ``budget`` (at least ``2 n``) is split over the ``2 n`` evaluation
    points (ordered ``+e_0, -e_0, +e_1, -e_1, ...``) by
    :func:`allocate_shot_budget` using ``point_variances``; an exact model
    ignores the shot counts and spends one evaluation per point.  Returns
    per-point sample variances for the next allocation and a sizing
    variance ``(sum of point stds)^2 / 4`` matching the optimal-allocation
    error model.
    """
    if not isinstance(problem, VqeProblem):
        raise UnsupportedProblemError(
            "the shift rule needs trigonometric coordinate dependence; "
            f"problem {getattr(problem, 'name', problem)!r} does not provide it")
    x = np.asarray(x, dtype=float)
    n = problem.dim
    num_points = 2 * n
    budget = int(budget)
    if budget < num_points:
        raise ValueError(
            f"budget {budget} is below the {num_points} evaluation points")
    point_variances = np.asarray(
        np.ones(num_points) if point_variances is None else point_variances,
        dtype=float)
    if point_variances.shape != (num_points,):
        raise ValueError(f"point_variances must have shape ({num_points},)")
    shots = allocate_shot_budget(point_variances, budget).shots
    shift = np.diag(np.full(n, 0.5 * math.pi))
    points = np.empty((num_points, n))
    points[0::2] = x + shift
    points[1::2] = x - shift
    values, used, variances = model.function_estimates(problem, points,
                                                       shots.tolist())
    vector = 0.5 * (values[0::2] - values[1::2])
    if variances is None:
        return GradientEstimate(vector, used)
    sizing = 0.25 * float(np.sum(np.sqrt(variances))) ** 2
    return GradientEstimate(vector, used, sizing, point_variances=variances)
