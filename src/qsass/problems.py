"""Benchmark problems: smooth analytic families and small variational
quantum eigenvalue (VQE) models.

Every problem carries ground truth (exact objective and gradient) used for
stopping rules and instrumentation; noisy access goes through the oracle
models, never through this module.  Analytic gradients are checked against
central differences along a few seeded random directions at construction
(O(1) objective calls per check point, whatever the dimension), so a
problem that constructs is a problem whose gradient can be trusted.
"""

from __future__ import annotations

import math
import zlib
from collections import OrderedDict

import numpy as np

from .errors import ConfigurationError, RegistryError, SpecFileError
from .kvfile import read_key_values

# Gradient self-test: at each of GRADIENT_CHECK_POINTS seeded points, central
# differences fd_j along GRADIENT_CHECK_DIRECTIONS seeded unit directions u_j
# must give sqrt(n * mean_j (fd_j - g.u_j)^2) <= GRADIENT_CHECK_TOL * max(1, |g|).
# E[(e.u)^2] = |e|^2 / n for u uniform on the sphere, so this estimates the
# error |fd - g| of a check along all n coordinates at 2k calls, not 2n.  An
# error e in one coordinate is weighed by u_i^2 ~ 1/n, which the factor n
# undoes: at each point the statistic is |e| times the root of a chi-square
# with k degrees of freedom over k, so an error past the tolerance at most
# points is caught at one of them.  NaN or infinite values fail.
GRADIENT_CHECK_POINTS = 20
GRADIENT_CHECK_DIRECTIONS = 4
GRADIENT_CHECK_TOL = 1e-5

# Points whose exact values a problem remembers, per map.  One iteration of
# the step loop evaluates the exact maps at two points only, the iterate and
# the trial point, so two entries catch every repeat.  A VQE problem keeps
# as many multi-row measurement batches.  Batch values never go through the
# point memo: the rows of a gradient estimate would evict both points.
POINT_MEMO_SIZE = 2


def _stable_seed(*parts):
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def fd_hessian_norm(gradient, x0, iters=80, seed=0):
    """Spectral norm estimate of the Hessian at ``x0`` by power iteration
    on central gradient differences."""
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x0.shape[0])
    v /= np.linalg.norm(v)
    t = 1e-6 * (1.0 + np.linalg.norm(x0))
    lam = 0.0
    for _ in range(iters):
        hv = (gradient(x0 + t * v) - gradient(x0 - t * v)) / (2.0 * t)
        new_lam = np.linalg.norm(hv)
        if new_lam == 0.0:
            return 0.0
        v = hv / new_lam
        if abs(new_lam - lam) <= 1e-10 * max(1.0, new_lam):
            return float(new_lam)
        lam = new_lam
    return float(lam)


class _PointMemo:
    """Values of one deterministic map at the last ``POINT_MEMO_SIZE``
    points (or batches of points) used, keyed by their bytes.  A caller
    checks the shape first: equal bytes mean an equal point only for
    arrays of one shape.

    The least recently used entry goes first, not the oldest inserted:
    after a rejected step the iterate is the older entry, and evicting it
    when the next trial point arrives would recompute it next iteration.
    """

    def __init__(self):
        self._entries = OrderedDict()

    def get(self, x, compute):
        """``compute(x)``, or the value it returned for the same bytes."""
        key = x.tobytes()
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
            return value
        value = compute(x)
        entries[key] = value
        if len(entries) > POINT_MEMO_SIZE:
            entries.popitem(last=False)
        return value

    def __len__(self):
        return len(self._entries)


class Problem:
    """A smooth unconstrained minimization problem with ground truth.

    Parameters
    ----------
    name : str
        Family name, e.g. ``"rosenbrock-chain"``.
    dim : int
        Number of variables.
    objective, gradient : callables
        Exact maps ``R^dim -> R`` and ``R^dim -> R^dim``.
    start_point : array_like
        Standard starting point.
    optimal_value : float or None
        Known minimum value, if any.
    hessian_norm_hint : float or None
        Estimate of the Hessian spectral norm at the start; computed by
        power iteration when omitted.

    ``objective`` and ``gradient`` remember their values at the last
    ``POINT_MEMO_SIZE`` points, so the step loop computes each exact value
    once per point; oracle draws never go through this memo.
    """

    def __init__(self, name, dim, objective, gradient, start_point,
                 optimal_value=None, hessian_norm_hint=None,
                 check_gradient=True):
        self.name = str(name)
        self.dim = int(dim)
        self._objective = objective
        self._gradient = gradient
        self._objective_memo = _PointMemo()
        self._gradient_memo = _PointMemo()
        self.start_point = np.array(start_point, dtype=float)
        if self.start_point.shape != (self.dim,):
            raise ValueError(f"start point shape {self.start_point.shape} does not "
                             f"match dim {self.dim}")
        self.optimal_value = None if optimal_value is None else float(optimal_value)
        if check_gradient:
            self._self_test_gradient()
        if hessian_norm_hint is None:
            hessian_norm_hint = fd_hessian_norm(self.gradient, self.start_point,
                                                seed=_stable_seed(name, dim, "hess"))
        self.hessian_norm_hint = float(hessian_norm_hint)

    def objective(self, x):
        return self._objective_memo.get(self._check_point(x),
                                        self._exact_objective)

    def objectives(self, xs):
        """Exact objective values at the rows of ``xs``, as Python floats,
        each what :meth:`objective` gives for the row.  The point memo is
        neither read nor written: it holds the iterate and the trial point,
        which a batch's rows would evict."""
        return [self._exact_objective(self._check_point(x))
                for x in np.asarray(xs, dtype=float)]

    def gradient(self, x):
        # A copy: a caller writing into the result must not change the memo.
        return self._gradient_memo.get(self._check_point(x),
                                       self._exact_gradient).copy()

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {x.shape}")
        return x

    def _exact_objective(self, x):
        return float(self._objective(x))

    def _exact_gradient(self, x):
        # np.array copies, so the memo never shares a buffer with the callable.
        g = np.array(self._gradient(x), dtype=float)
        if g.shape != (self.dim,):
            raise ValueError("gradient callable returned a wrong shape")
        return g

    def _self_test_gradient(self):
        rng = np.random.default_rng(_stable_seed(self.name, self.dim, "gradcheck"))
        scale = 1.0 + np.abs(self.start_point)
        for _ in range(GRADIENT_CHECK_POINTS):
            x = self.start_point + 0.5 * scale * rng.standard_normal(self.dim)
            g = self.gradient(x)
            u = rng.standard_normal((GRADIENT_CHECK_DIRECTIONS, self.dim))
            u /= np.linalg.norm(u, axis=1)[:, None]
            h = 1e-6 * (1.0 + np.linalg.norm(x))
            fd = [(self._objective(x + h * v) - self._objective(x - h * v)) / (2.0 * h)
                  for v in u]
            err = math.sqrt(self.dim * np.mean(np.subtract(fd, u @ g) ** 2))
            if not err <= GRADIENT_CHECK_TOL * max(1.0, np.linalg.norm(g)) < math.inf:
                raise ValueError(
                    f"analytic gradient of {self.name} (n={self.dim}) disagrees "
                    f"with central differences: error {err:.3e}")

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Built-in analytic families
# ---------------------------------------------------------------------------

def _rotation(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    # Fix signs so the factor is unique given the seed.
    return q * np.sign(np.diag(r))


def _make_quadratic(name, dim, condition):
    if dim < 1:
        raise ValueError("quadratic needs dim >= 1")
    if not 1.0 <= condition < math.inf:
        raise ValueError(f"condition must be finite and >= 1, got {condition}")
    if condition == 1.0:
        a = np.eye(dim)
    else:
        eigs = np.logspace(0.0, np.log10(condition), dim)
        q = _rotation(dim, _stable_seed(name, dim, condition))
        a = (q * eigs) @ q.T
        a = 0.5 * (a + a.T)
    start = np.ones(dim)

    def objective(x, a=a):
        return 0.5 * float(x @ (a @ x))

    def gradient(x, a=a):
        return a @ x

    prob = Problem(name, dim, objective, gradient, start,
                   optimal_value=0.0, hessian_norm_hint=float(condition))
    prob.quadratic_matrix = a
    return prob


def _make_rosenbrock(name, dim):
    if dim < 2:
        raise ValueError("rosenbrock-chain needs dim >= 2")
    start = np.empty(dim)
    start[0::2] = -1.2
    start[1::2] = 1.0

    def objective(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))

    def gradient(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[:-1] += -400.0 * t * x[:-1] - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hess_norm_at(x0):
        h = np.zeros((dim, dim))
        for i in range(dim - 1):
            h[i, i] += 1200.0 * x0[i] ** 2 - 400.0 * x0[i + 1] + 2.0
            h[i + 1, i + 1] += 200.0
            h[i, i + 1] += -400.0 * x0[i]
            h[i + 1, i] += -400.0 * x0[i]
        return float(np.max(np.abs(np.linalg.eigvalsh(h))))

    return Problem(name, dim, objective, gradient, start,
                   optimal_value=0.0, hessian_norm_hint=hess_norm_at(start))


def _make_cosine_chain(name, dim):
    if dim < 2:
        raise ValueError("cosine-chain needs dim >= 2")
    start = np.ones(dim)

    def objective(x):
        return float(np.sum(np.cos(-0.5 * x[1:] + x[:-1] ** 2)))

    def gradient(x):
        g = np.zeros_like(x)
        sin_t = np.sin(-0.5 * x[1:] + x[:-1] ** 2)
        g[:-1] += -2.0 * x[:-1] * sin_t
        g[1:] += 0.5 * sin_t
        return g

    return Problem(name, dim, objective, gradient, start,
                   optimal_value=-(dim - 1.0))


def _make_trig_sum(name, dim):
    if dim < 1:
        raise ValueError("trig-sum needs dim >= 1")
    start = np.full(dim, 1.0 / dim)
    idx = np.arange(1, dim + 1, dtype=float)

    def residuals(x):
        return (dim - np.sum(np.cos(x))) + idx * (1.0 - np.cos(x)) - np.sin(x)

    def objective(x):
        return float(np.sum(residuals(x) ** 2))

    def gradient(x):
        f = residuals(x)
        # d f_i / d x_j = sin x_j + delta_ij (i sin x_i - cos x_i)
        g = 2.0 * np.sin(x) * np.sum(f)
        g += 2.0 * f * (idx * np.sin(x) - np.cos(x))
        return g

    return Problem(name, dim, objective, gradient, start, optimal_value=0.0)


_BUILTIN_FAMILIES = {
    "quadratic": lambda name, dim, condition=1.0: _make_quadratic(name, dim, condition),
    "ill-conditioned-quadratic":
        lambda name, dim, condition=1e4: _make_quadratic(name, dim, condition),
    "rosenbrock-chain": lambda name, dim: _make_rosenbrock(name, dim),
    "cosine-chain": lambda name, dim: _make_cosine_chain(name, dim),
    "trig-sum": lambda name, dim: _make_trig_sum(name, dim),
}


def list_builtin_problems():
    """Sorted names of the built-in analytic families."""
    return sorted(_BUILTIN_FAMILIES)


def builtin_problem(name, dim, **params):
    """Construct a built-in problem by family name and dimension; a
    parameter the family refuses raises ``ConfigurationError``."""
    try:
        builder = _BUILTIN_FAMILIES[name]
    except KeyError:
        raise RegistryError(
            f"unknown problem {name!r}; known: {', '.join(list_builtin_problems())}"
        ) from None
    try:
        return builder(name, int(dim), **params)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# User-supplied quadratic manifests
# ---------------------------------------------------------------------------

def load_problem_manifest(path):
    """Read a quadratic problem ``0.5 x'Ax + b'x`` from a small text file.

    The format is line oriented, ``key = value`` with ``#`` comments:

        name   = my-quadratic
        dim    = 2
        matrix = 2 0 ; 0 4
        linear = 1 -1
        start  = 0 0

    ``matrix`` rows are separated by ``;``.  ``linear`` defaults to zero and
    ``start`` to ones.  ``A`` must be symmetric positive definite, and
    every entry finite.
    """
    entries = read_key_values(path)
    if "dim" not in entries or "matrix" not in entries:
        raise SpecFileError(f"{path}: 'dim' and 'matrix' entries are required")
    try:
        dim = int(entries["dim"])
    except ValueError:
        raise SpecFileError(f"{path}: dim must be an integer") from None
    if dim < 1:
        raise SpecFileError(f"{path}: dim must be positive")
    name = entries.get("name", "user-quadratic")
    try:
        rows = [np.array([float(v) for v in row.split()])
                for row in entries["matrix"].split(";")]
        a = np.vstack(rows)
    except ValueError:
        raise SpecFileError(f"{path}: matrix entries must be numbers") from None
    if a.shape != (dim, dim):
        raise SpecFileError(f"{path}: matrix shape {a.shape} does not match dim {dim}")
    if not np.isfinite(a).all():
        raise SpecFileError(f"{path}: matrix entries must be finite")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise SpecFileError(f"{path}: matrix must be symmetric")
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0.0:
        raise SpecFileError(f"{path}: matrix must be positive definite "
                            f"(smallest eigenvalue {eigs[0]:.3e})")

    def parse_vector(key, default):
        if key not in entries:
            return default
        try:
            v = np.array([float(t) for t in entries[key].split()])
        except ValueError:
            raise SpecFileError(f"{path}: {key} entries must be numbers") from None
        if v.shape != (dim,):
            raise SpecFileError(f"{path}: {key} must have {dim} entries")
        if not np.isfinite(v).all():
            raise SpecFileError(f"{path}: {key} entries must be finite")
        return v

    b = parse_vector("linear", np.zeros(dim))
    start = parse_vector("start", np.ones(dim))
    xstar = np.linalg.solve(a, -b)
    fstar = 0.5 * float(xstar @ (a @ xstar)) + float(b @ xstar)

    def objective(x, a=a, b=b):
        return 0.5 * float(x @ (a @ x)) + float(b @ x)

    def gradient(x, a=a, b=b):
        return a @ x + b

    prob = Problem(name, dim, objective, gradient, start,
                   optimal_value=fstar, hessian_norm_hint=float(eigs[-1]))
    prob.quadratic_matrix = a
    return prob


# ---------------------------------------------------------------------------
# VQE models
# ---------------------------------------------------------------------------

class _PreparedPoint:
    """What a VQE problem remembers at one point: its rotation sweep and,
    once the point is measured, its read-only eigenbasis probabilities."""

    __slots__ = ("sweep", "probabilities")

    def __init__(self, sweep):
        self.sweep = sweep
        self.probabilities = None


class VqeProblem(Problem):
    """Expected energy ``phi(x) = psi(x)' H psi(x)`` of a parameterized state.

    Each parameter applies ``U_i(x_i) = cos(x_i/2) I + sin(x_i/2) G_i``
    where ``G_i`` is an orthogonal complex structure: an oriented pairing
    of all state coordinates, so ``G_i^2 = -I``.  A lone coordinate pair
    inside a larger space would not do; components outside the rotation
    plane then enter the quadratic form linearly in ``cos(x_i/2)`` and the
    half frequency breaks the two-point shift rule.  With a full pairing
    the dependence on each coordinate is exactly
    ``a + b cos(x_i) + c sin(x_i)`` and the shift rule is exact.

    ``rotation_plan`` is a sequence with one entry per parameter; each
    entry lists ordered pairs ``(a, b)`` (meaning ``G e_a = e_b``,
    ``G e_b = -e_a``) that together cover every coordinate exactly once.

    Only the shots of a measurement are random; the state, and so each
    eigenbasis probability, depends on the point alone.  The problem
    therefore remembers the deterministic half of its measurements at the
    last ``POINT_MEMO_SIZE`` point sets.  For a single point that is its
    rotation sweep, shared by the exact objective and the exact gradient,
    and beside it, once the point is measured, its eigenbasis
    probabilities.  For a batch of rows (:meth:`measure_batch`) it is the
    rows' probabilities, keyed by the batch's bytes.  The solver measures
    the iterate and the trial point with :meth:`measure_moments`, so after
    an accepted or a rejected step the draw at the iterate, and the exact
    gradient there, prepare nothing.  After a rejected step the shift-rule
    batch at the unchanged iterate is drawn from without a new sweep.  A
    finite-difference batch repeats only if its radius does, and the radius
    follows the function-noise estimate, which moves every iteration.
    Draws and their moments are never remembered, so the random stream is
    the same as without the memo.
    """

    def __init__(self, name, hamiltonian, rotation_plan, start_point,
                 reference_state=None):
        h = np.asarray(hamiltonian, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be a square matrix")
        if np.max(np.abs(h - h.T), initial=0.0) > 1e-12 * np.max(np.abs(h)):
            raise ValueError("hamiltonian must be symmetric")
        self.hamiltonian = 0.5 * (h + h.T)
        self.state_dim = h.shape[0]
        self.rotation_plan = [[(int(a), int(b)) for a, b in plan]
                              for plan in rotation_plan]
        # One (n, d, d) array, so the exact gradient can stack its products.
        self._generators = np.array(
            [self._structure_matrix(plan) for plan in self.rotation_plan]
        ).reshape(len(self.rotation_plan), self.state_dim, self.state_dim)
        if reference_state is None:
            psi0 = np.zeros(self.state_dim)
            psi0[0] = 1.0
        else:
            psi0 = np.asarray(reference_state, dtype=float)
            psi0 = psi0 / np.linalg.norm(psi0)
        self.reference_state = psi0
        eigvals, eigvecs = np.linalg.eigh(self.hamiltonian)
        self.eigenvalues = eigvals
        self._eigenvalue_squares = eigvals ** 2
        self._eigenvalue_column = eigvals[:, None]
        self._eigenvalue_sq_column = self._eigenvalue_squares[:, None]
        self.eigenvectors = eigvecs
        self.ground_energy = float(eigvals[0])
        self._state_memo = _PointMemo()
        self._batch_memo = _PointMemo()
        dim = len(self.rotation_plan)
        super().__init__(name, dim, self._energy, self._energy_gradient,
                         start_point, optimal_value=self.ground_energy)

    def _structure_matrix(self, plan):
        d = self.state_dim
        g = np.zeros((d, d))
        seen = set()
        for a, b in plan:
            if not (0 <= a < d and 0 <= b < d) or a == b:
                raise ValueError(f"bad rotation pair ({a}, {b})")
            if a in seen or b in seen:
                raise ValueError(f"coordinate reused in rotation plan: ({a}, {b})")
            seen.update((a, b))
            g[b, a] = 1.0
            g[a, b] = -1.0
        if len(seen) != d:
            raise ValueError("each parameter's pairs must cover every "
                             f"coordinate; got {sorted(seen)} of {d}")
        return g

    def states(self, xs):
        """The unit vectors ``psi(x)`` for the rows of a ``(k, n)`` batch,
        prepared by one rotation sweep over the whole batch."""
        xs = self._check_batch(xs)
        half = 0.5 * xs.T[:, :, None]
        psis = np.tile(self.reference_state, (xs.shape[0], 1))
        for g, c, s in zip(self._generators, np.cos(half), np.sin(half)):
            psis = c * psis + s * psis.dot(g.T)
        return psis

    def _check_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(
                f"xs must have shape (k, {self.dim}), got {xs.shape}")
        return xs

    def state(self, x):
        """The parameterized unit vector ``psi(x)``, the last row of the
        sweep remembered at the last ``POINT_MEMO_SIZE`` points; each call
        returns a fresh copy."""
        return self._sweep_at(self._check_point(x))[-1].copy()

    def _prepared(self, x):
        return self._state_memo.get(x, self._prepare)

    def _prepare(self, x):
        return _PreparedPoint(self._sweep(x))

    def _sweep_at(self, x):
        return self._prepared(x).sweep

    def _sweep(self, x):
        """The rotation sweep of one point: the reference state and the
        state after each rotation, a read-only ``(n + 1, d)`` array.  Its
        rows are those :meth:`states` prepares for the point, to the bit:
        ``G_i`` has one entry of +-1 per row, so any product with it only
        moves and signs coordinates, whichever BLAS kernel forms it, and
        array ``cos``/``sin`` give the bits of per-angle calls.  Those
        products are taken with ``ndarray.dot``, which costs less per call
        than ``@`` on these small arrays."""
        psis = [self.reference_state]
        half = 0.5 * x
        for g, c, s in zip(self._generators, np.cos(half).tolist(),
                           np.sin(half).tolist()):
            psi = psis[-1]
            psis.append(c * psi + s * g.dot(psi))
        sweep = np.array(psis)
        sweep.flags.writeable = False
        return sweep

    def _energy(self, x):
        psi = self.state(x)
        return float(psi @ (self.hamiltonian @ psi))

    def objectives(self, xs):
        """Exact energies at the rows of ``xs``, from one :meth:`states`
        sweep and two stacked products (a ``gemv`` and a ``ddot`` per row,
        as :meth:`objective` takes them); the point memo is left alone."""
        psis = self.states(xs)
        h_psis = np.matmul(self.hamiltonian, psis[:, :, None])
        return np.matmul(psis[:, None, :], h_psis).ravel().tolist()

    def _energy_gradient(self, x):
        """Exact gradient by an adjoint sweep over the remembered forward
        states, so a point already measured or evaluated costs no new
        forward sweep.

        Only the adjoint recursion is sequential.  Every ``G_i psi_{i+1}``
        is one stacked product, exact as every product with a ``G_i`` is,
        and the n dot products are another: numpy takes a stacked
        ``(1, d) @ (d, 1)`` as the ``ddot`` of ``w_i @ v_i``, so the
        gradient has the bits of one dot per coordinate."""
        x = self._check_point(x)
        states = self._sweep_at(x)
        half = 0.5 * x
        cos, sin = np.cos(half).tolist(), np.sin(half).tolist()
        # d psi / d x_i = (later rotations) (1/2) G_i U_i states[i];
        # U_i and G_i commute, so the half-derivative acts on states[i+1].
        moved = np.matmul(self._generators, states[1:, :, None])
        # Adjoint sweep: ws[i] is (product of rotations after i)^T (2 H psi).
        ws = np.empty((self.dim, self.state_dim))
        w = ws[-1] = 2.0 * (self.hamiltonian @ states[-1])
        for i in range(self.dim - 1, 0, -1):
            w = ws[i - 1] = cos[i] * w - sin[i] * self._generators[i].dot(w)
        return 0.5 * np.matmul(ws[:, None, :], moved).ravel()

    def _probabilities(self, psis):
        """Eigenbasis probabilities of each row of a ``(k, d)`` batch of
        states: one stacked ``V' psi`` product (a ``gemv`` per row), squared
        and normalized row by row."""
        amps = np.matmul(self.eigenvectors.T, psis[:, :, None])[:, :, 0]
        probs = amps ** 2
        totals = probs.sum(axis=1)
        # A NaN total fails the comparisons; an empty batch passes.
        if not all(0.0 < t < math.inf for t in totals.tolist()):
            raise ValueError("invalid state normalization")
        return probs / totals[:, None]

    def _frozen_probabilities(self, psis):
        # Read-only: the memo hands this array to every later draw.
        probs = self._probabilities(psis)
        probs.flags.writeable = False
        return probs

    def _batch_probabilities(self, xs):
        return self._frozen_probabilities(self.states(xs))

    def measure_batch(self, xs, shots, rng):
        """Sample means and sample variances of ``shots[j]`` eigenvalue
        draws at each row ``xs[j]``, as two float arrays; a row of one shot
        has variance 0.

        The batch is measured in one pass: one sweep prepares every state,
        one stacked product projects them, one ``multinomial`` call draws
        every row (in row order, so ``rng`` advances exactly as it would
        under one :meth:`measure_moments` call per row) and two stacked
        dots form the moments.  Each row sees the same floating-point
        operations as a row measured on its own.

        The probabilities are remembered, keyed by the bytes of the
        ``(k, n)`` batch after its shape is checked, so a batch repeated
        within the last ``POINT_MEMO_SIZE`` batches skips the sweep and the
        projection.  The draws are made anew on every call.
        """
        shots = [int(n) for n in shots]
        xs = np.asarray(xs, dtype=float)
        if len(shots) != len(xs):
            raise ValueError(f"{len(xs)} rows need as many shot counts, "
                             f"got {len(shots)}")
        if min(shots, default=1) < 1:
            raise ValueError(f"shots must be >= 1, got {min(shots)}")
        # A shift-rule batch repeats whole after a rejected step, which
        # leaves the iterate in place.
        probs = self._batch_memo.get(self._check_batch(xs),
                                     self._batch_probabilities)
        counts = rng.multinomial(shots, probs)
        # Stacked vector-vector products, each the ``ddot`` of ``c @ w``;
        # one (d, 2) weight matrix would make them gemv calls instead.
        # Counts are exact in float64, so casting once changes no bit.
        counts = counts.astype(float)[:, None, :]
        sums = np.matmul(counts, self._eigenvalue_column).ravel()
        sqs = np.matmul(counts, self._eigenvalue_sq_column).ravel()
        n = np.array(shots, dtype=float)
        means = sums / n
        # Row by row (sq - n mean^2) / (n - 1), kept as max(v, 0.0) keeps
        # it: a NaN or a -0.0 passes, anything below zero becomes 0.0.
        spread = (sqs - n * means * means) / np.maximum(n - 1.0, 1.0)
        return means, np.where((n > 1.0) & ~(spread < 0.0), spread, 0.0)

    def measure_moments(self, x, shots, rng):
        """Sample mean and sample variance of ``shots`` eigenvalue draws at
        one point, as two floats; one shot has variance 0.

        The point's eigenbasis probabilities are kept beside its sweep in
        the point memo, so the solver's draw at an iterate it measured as
        the previous trial point, or at the iterate a rejected step left,
        projects nothing.  The arithmetic is a row's in
        :meth:`measure_batch`: one 1-D ``multinomial`` draw (the numbers a
        one-row 2-D draw takes), and the moments from the two ``ddot``
        calls its stacked products make, finished in float64.
        """
        shots = int(shots)
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        point = self._prepared(self._check_point(x))
        probs = point.probabilities
        if probs is None:
            probs = point.probabilities = self._frozen_probabilities(
                point.sweep[-1:])[0]
        counts = rng.multinomial(shots, probs)
        # Integer counts cast to float64 exactly; each dot is one ``ddot``.
        mean = float(counts.dot(self.eigenvalues)) / shots
        if shots == 1:
            return mean, 0.0
        sq = float(counts.dot(self._eigenvalue_squares))
        # max keeps a NaN and a -0.0 as the batch's np.where does.
        return mean, max((sq - shots * mean * mean) / (shots - 1), 0.0)


def _near_identity_orthogonal(dim, seed, strength):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    skew = strength * (a - a.T) / 2.0
    # Orthogonal factor of I + skew; close to the identity for small strength.
    q, r = np.linalg.qr(np.eye(dim) + skew)
    return q * np.sign(np.diag(r))


# The three quaternion left-multiplication structures on R^4.  Chaining
# i, j, i with free angles is an Euler decomposition of the unit
# quaternions, so the 3-parameter ansatz reaches every unit state.
_QUAT_I = [(0, 1), (2, 3)]
_QUAT_J = [(0, 2), (3, 1)]


def _xor_pairings(dim, seed):
    """One full pairing per nonzero XOR mask, with seeded orientations."""
    rng = np.random.default_rng(seed)
    plans = []
    for mask in range(1, dim):
        pairs = []
        for a in range(dim):
            b = a ^ mask
            if a < b:
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
        plans.append(pairs)
    return plans


def _make_vqe_preset(name):
    if name == "toy-1q":
        h = np.diag([-1.0, 1.0])
        return VqeProblem(name, h, [[(0, 1)]], [2.0])
    if name == "h2-like":
        eigs = np.array([-1.85, -1.25, -0.45, 0.55])
        v = _near_identity_orthogonal(4, _stable_seed(name, "ham"), 0.4)
        h = (v * eigs) @ v.T
        plan = [_QUAT_I, _QUAT_J, _QUAT_I]
        return VqeProblem(name, h, plan, [0.6, -0.4, 0.5])
    if name == "lih-like":
        rng = np.random.default_rng(_stable_seed(name, "spectrum"))
        eigs = np.sort(-7.9 + 1.6 * rng.random(16))
        eigs[0] = -7.9
        v = _near_identity_orthogonal(16, _stable_seed(name, "ham"), 0.3)
        h = (v * eigs) @ v.T
        plans = _xor_pairings(16, _stable_seed(name, "plan"))
        plan = plans + [plans[4]]      # 15 masks, one repeated: 16 parameters
        start = 0.4 * np.ones(16)
        return VqeProblem(name, h, plan, start)
    raise RegistryError(
        f"unknown VQE preset {name!r}; known: {', '.join(list_vqe_presets())}")


def list_vqe_presets():
    return ["h2-like", "lih-like", "toy-1q"]


def vqe_problem(preset):
    """Construct one of the named VQE models."""
    return _make_vqe_preset(preset)
