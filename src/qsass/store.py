"""Curvature pair store with spectrum control.

The store keeps pairs ``(s, y)`` in first-in first-out order, each beside
its ``rho = 1 / <s, y>`` computed once at insertion, and exposes three
things the step loop needs:

* ``apply_inverse`` -- ``H g`` for the inverse ``H`` of the implied
  Hessian approximation ``B`` (``B0 = c * I``): the kept dense ``H`` of an
  unbounded store, the two-loop recursion in a bounded one,
* ``extreme_eigenvalues`` -- the largest and smallest eigenvalue of ``B``,
* ``enforce_spectrum`` -- drop oldest pairs until the eigenvalues lie
  strictly inside a configured band.

A bounded store holds at most ``min(capacity, dim // 2)`` pairs.  Its
direction comes from the two-loop recursion, which with ``rho`` cached
costs O(k n) for k pairs and recomputes no ``<s, y>``, and its spectrum
is read from the compact representation (valid for
``2 m <= dim``): only the R factor of the thin QR of ``[c S, Y]`` is
formed, then a 2m x 2m solve and a small symmetric eigensolve
(``thin_qr``, ``solve_checked`` and ``sym_eig_small`` below).  Beside
``rho`` each pair keeps ``rho ||s||^2`` and ``rho ||y||^2``, from which the
band test (``violates``) is first decided at O(m) scalar cost; the compact
query runs only when those bounds leave it open.

An unbounded store keeps the dense ``B`` and its inverse ``H``, each
updated in place at O(n^2) per accepted pair (a pair whose computed
``s^T B s`` is not positive updates neither) and both rebuilt after a
removal.  A pair whose ``s`` equals the newest pair's ``s`` replaces that
pair instead of being appended: the newest update gives ``B s = y_1``, so
``BFGS(BFGS(B, s, y_1), s, y_2) = BFGS(B, s, y_2)``, and with
``V_i = I - rho_i y_i s^T`` the inverse update has ``V_1 V_2 = V_2``.  The
model is thus unchanged in exact arithmetic.  To replace, the store goes
back to the ``B`` and ``H`` it kept from before the newest pair and applies
the new pair there, so both stay, bit for bit, the updates over exactly
the stored pairs, oldest first.  A bounded store always appends: replacing
would keep an older, distinct pair in its window, which changes the model.
The unbounded store's spectrum is read with ``eigvalsh``, but its band
test is first decided from norms of ``B`` and ``H`` and falls through to
the eigensolve only when those leave it open.  Its direction is ``H g``,
one O(n^2) product, so the step moves by exactly the model the census
reads.  A pair whose computed ``s^T B s`` is not positive is stored and
counted, but updates neither ``B`` nor ``H``, so it does not enter the
direction either.

Eigenvalue queries and band decisions are cached, and the caches are
invalidated on any mutation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SpectrumQueryError

# Pairs are admitted only when <s, y> exceeds this.
CURVATURE_TOL = 1e-8

# A square system is declared singular when its smallest singular value does
# not exceed this fraction of its largest.
SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class SpectrumBounds:
    """Closed eigenvalue band ``[lower, upper]`` for the Hessian approximation."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper < np.inf):
            raise ConfigurationError(
                f"need 0 < lower <= upper < inf, got [{self.lower}, {self.upper}]")

    def admits(self, sigma_max, sigma_min):
        """Strict interior test; equality with either edge counts as a violation."""
        return sigma_max < self.upper and sigma_min > self.lower


def thin_qr(a):
    """The R factor of the thin QR factorization of a tall ``(n, k)``
    matrix: ``(k, k)`` upper triangular with ``R^T R = a^T a``."""
    return np.linalg.qr(a, mode="r")


def solve_checked(m, rhs):
    """Solve ``m @ x = rhs``; raises ``numpy.linalg.LinAlgError`` when the
    smallest singular value of ``m`` is at most ``SINGULARITY_RTOL`` times
    its largest."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= SINGULARITY_RTOL * sv[0]:
        raise np.linalg.LinAlgError("matrix is singular to tolerance")
    return np.linalg.solve(m, rhs)


def sym_eig_small(a):
    """Eigenvalues of a small symmetric matrix, in ascending order."""
    return np.linalg.eigvalsh(a)


def _bfgs_update(b, s, y, buf):
    """``B <- B - (B s)(B s)^T / (s^T B s) + y y^T / (y^T s)`` in place;
    returns whether ``B`` was updated.

    Each rank-one term is formed in the n x n scratch ``buf``; the operations
    and their order are those of the expression, so the result is bit for
    bit what the expression evaluates to.  In exact arithmetic ``s^T B s``
    is positive for the positive definite ``B`` the updates keep.  When
    rounding in an ill-conditioned ``B`` makes the computed value zero,
    negative or NaN, the update is skipped and ``B`` is left as it was:
    dividing by it would make ``B`` indefinite or non-finite.
    """
    bs = b @ s
    sbs = float(s @ bs)
    if not sbs > 0.0:
        return False
    np.outer(bs, bs, out=buf)
    buf /= sbs
    b -= buf
    np.outer(y, y, out=buf)
    buf /= float(y @ s)
    b += buf
    return True


def _inverse_bfgs_update(h, s, y, rho, buf):
    """``H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T`` in place.

    Expanded with ``u = rho H y`` (``H`` symmetric) this is
    ``H + s (a s - u)^T - u s^T`` with ``a = rho (1 + rho y^T H y)``: one
    rank-two product formed in the n x n scratch ``buf``, O(n^2).
    """
    hy = h @ y
    u = rho * hy
    a = rho * (1.0 + rho * float(y @ hy))
    np.matmul(np.array((s, u)).T, np.array((a * s - u, -s)), out=buf)
    h += buf


def _norm_at_most(a, bound):
    """Whether ``min(||a||_F, ||a||_inf) <= bound``, which implies
    ``||a||_2 <= bound`` for a symmetric ``a``.  False whenever ``a`` has a
    non-finite entry: its norms are then NaN or infinite."""
    flat = a.ravel()
    return (math.sqrt(float(flat @ flat)) <= bound
            or float(np.abs(a).sum(axis=1).max()) <= bound)


class CurvaturePairStore:
    """FIFO store of curvature pairs defining ``B = c I + (BFGS updates)``.

    Parameters
    ----------
    dim : int
        Dimension of the pairs.
    capacity : int or None
        Maximum number of pairs; ``None`` means unbounded.  A bounded
        capacity is clamped to ``dim // 2`` so that the compact eigenvalue
        representation stays valid (``2 m <= dim``).
    c : float
        Scale of the base matrix ``B0 = c * I``.
    curvature_tol : float
        Admission threshold on ``<s, y>``.
    """

    def __init__(self, dim, capacity=None, c=1.0, curvature_tol=CURVATURE_TOL):
        if int(dim) != dim or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        if not (np.isfinite(c) and c > 0.0):
            raise ValueError(f"c must be a positive finite scalar, got {c}")
        if capacity is not None:
            if int(capacity) != capacity or capacity < 0:
                raise ValueError(f"capacity must be a non-negative integer or None, "
                                 f"got {capacity}")
            capacity = min(int(capacity), int(dim) // 2)
        self.dim = int(dim)
        self.capacity = capacity
        self.c = float(c)
        self.curvature_tol = float(curvature_tol)
        # (s, y, rho, rho ||s||^2, rho ||y||^2) entries, oldest first; a full
        # bounded deque drops its oldest entry on append, so the scalars
        # always leave with their own pair.
        self._pairs = deque(maxlen=capacity)
        # The dense B and H = B^{-1} of an unbounded store, and both as they
        # were before the newest pair; bounded stores use the compact
        # representation instead and keep none of them.
        self._b = self._h = self._b_before = self._h_before = None
        if capacity is None:
            self._reset_dense()
        self._version = 0
        self._eig_cache = None
        self._decision_cache = None

    def __len__(self):
        return len(self._pairs)

    @property
    def s_list(self):
        return [pair[0].copy() for pair in self._pairs]

    @property
    def y_list(self):
        return [pair[1].copy() for pair in self._pairs]

    def _check_vector(self, v, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"{name} must have shape ({self.dim},), got {v.shape}")
        # Counting the finite entries answers what ``isfinite(v).all()``
        # does, without the reduction's dispatch cost on short vectors.
        if np.count_nonzero(np.isfinite(v)) != self.dim:
            raise ValueError(f"{name} contains non-finite entries")
        return v

    def try_insert(self, s, y):
        """Admit ``(s, y)`` if ``<s, y> > curvature_tol``; evict the oldest
        pair when full.  In an unbounded store an admitted pair whose ``s``
        equals (by value) the newest pair's replaces that pair.  Returns
        whether the pair was stored."""
        s = self._check_vector(s, "s")
        y = self._check_vector(y, "y")
        sy = float(s @ y)
        if sy <= self.curvature_tol:
            return False
        if self.capacity == 0:
            return False
        rho = 1.0 / sy
        rho_ss, rho_yy = rho * float(s @ s), rho * float(y @ y)
        if not (math.isfinite(rho_ss) and math.isfinite(rho_yy)):
            # An overflowed bound is no bound: NaN makes every comparison
            # in _pair_decision false.
            rho_ss = rho_yy = math.nan
        if self._b is not None:
            if self._pairs and np.array_equal(s, self._pairs[-1][0]):
                self._pairs.pop()
                np.copyto(self._b, self._b_before)
                np.copyto(self._h, self._h_before)
                self._update_dense(s, y, rho, np.empty_like(self._b))
            else:
                self._push_dense(s, y, rho, np.empty_like(self._b))
        self._pairs.append((s.copy(), y.copy(), rho, rho_ss, rho_yy))
        self._version += 1
        return True

    def remove_oldest(self):
        if not self._pairs:
            raise ValueError("store is empty")
        self._pairs.popleft()
        self._after_removal()

    def clear(self):
        self._pairs.clear()
        self._after_removal()

    def _after_removal(self):
        if self._b is not None:
            self._reset_dense()
            buf = np.empty_like(self._b)
            for s, y, rho, _, _ in self._pairs:
                self._push_dense(s, y, rho, buf)
        self._version += 1

    def _reset_dense(self):
        self._b = self.c * np.eye(self.dim)
        self._h = np.eye(self.dim) / self.c
        self._b_before = self._b.copy()
        self._h_before = self._h.copy()

    def _push_dense(self, s, y, rho, buf):
        """Keep ``B`` and ``H`` as the models before the newest pair, then
        update both with ``(s, y)``, the new newest pair."""
        np.copyto(self._b_before, self._b)
        np.copyto(self._h_before, self._h)
        self._update_dense(s, y, rho, buf)

    def _update_dense(self, s, y, rho, buf):
        """Both dense models take the pair, or neither does: a pair whose
        computed ``s^T B s`` is not positive (see ``_bfgs_update``) stays in
        the store, but updates neither ``B`` nor ``H``, so it enters neither
        the census nor the direction.
        A rebuild after a removal replays this rule pair by pair, so it
        skips the same pairs as the updates in place would have."""
        if _bfgs_update(self._b, s, y, buf):
            _inverse_bfgs_update(self._h, s, y, rho, buf)

    def extreme_eigenvalues(self):
        """Largest and smallest eigenvalue ``(sigma_max, sigma_min)`` of ``B``.

        An empty store returns ``(c, c)``.  A bounded store raises
        ``SpectrumQueryError`` when the small middle system of the compact
        representation is singular to working precision or an
        intermediate of the query overflows; an unbounded store raises it
        when its dense ``B`` has a non-finite entry or ``eigvalsh`` does not
        converge.
        """
        if self._eig_cache is not None and self._eig_cache[0] == self._version:
            return self._eig_cache[1]
        if not self._pairs:
            result = (self.c, self.c)
        elif self._b is not None:
            result = self._dense_extremes()
        else:
            result = self._compact_extremes()
        self._eig_cache = (self._version, result)
        return result

    def _dense_extremes(self):
        if not np.isfinite(self._b).all():
            raise SpectrumQueryError("dense model has non-finite entries")
        try:
            eigs = np.linalg.eigvalsh(self._b)
        except np.linalg.LinAlgError as exc:
            raise SpectrumQueryError(str(exc)) from exc
        return (float(eigs[-1]), float(eigs[0]))

    def _compact_extremes(self):
        s_all, y_all, *_ = zip(*self._pairs)
        smat = np.column_stack(s_all)
        ymat = np.column_stack(y_all)
        psi = np.hstack([self.c * smat, ymat])
        phi = smat.T @ ymat
        d = np.diag(np.diag(phi))
        low = np.tril(phi, -1)
        m = len(self._pairs)
        middle = np.empty((2 * m, 2 * m))
        middle[:m, :m] = self.c * (smat.T @ smat)
        middle[:m, m:] = low
        middle[m:, :m] = low.T
        middle[m:, m:] = -d
        if not (np.isfinite(psi).all() and np.isfinite(middle).all()):
            raise SpectrumQueryError("compact representation overflowed")
        r = thin_qr(psi)
        try:
            x = solve_checked(middle, r.T)
        except np.linalg.LinAlgError as exc:
            raise SpectrumQueryError(str(exc)) from exc
        prod = -(r @ x)
        prod = 0.5 * (prod + prod.T)
        if not np.isfinite(prod).all():
            raise SpectrumQueryError("compact eigenvalue problem overflowed")
        eigs = sym_eig_small(prod)
        sigma_max = max(float(eigs[-1]) + self.c, self.c)
        sigma_min = min(float(eigs[0]) + self.c, self.c)
        return (sigma_max, sigma_min)

    def violates(self, bounds):
        """Whether the current spectrum falls outside ``bounds`` (strict test).

        The answer is first decided from cheap bounds: norms of ``B`` and
        ``H`` for an unbounded store (``_dense_decision``), two scalars kept
        per pair for a bounded one (``_pair_decision``).  Only when those
        leave it open does it come from ``extreme_eigenvalues``, and an
        eigenvalue query that fails (a singular middle system, an
        intermediate that overflows, a non-finite dense model or an
        eigensolve that does not converge) then counts as a violation.

        The bounds hold in exact arithmetic, so where they decide they win
        over a compact query that would have raised: a bounded store whose
        middle system is singular to working precision but whose proved
        bounds put the spectrum inside the band is admitted.
        """
        cached = self._decision_cache
        if cached is None or cached[:2] != (self._version, bounds):
            decide = (self._pair_decision if self._b is None
                      else self._dense_decision)
            cached = (self._version, bounds, decide(bounds))
            self._decision_cache = cached
        if cached[2] is not None:
            return cached[2]
        try:
            sigma_max, sigma_min = self.extreme_eigenvalues()
        except SpectrumQueryError:
            return True
        return not bounds.admits(sigma_max, sigma_min)

    def _pair_decision(self, bounds):
        """The band test from the scalars kept per pair, or ``None``.

        O(m) scalar work for m pairs; each bound holds in exact arithmetic
        for ``B`` built from ``c I`` over the stored pairs, oldest first.

        * The newest pair satisfies the secant equation ``B s = y``, so
          ``sigma_max >= ||y|| / ||s||`` and, by the Rayleigh quotient,
          ``sigma_min <= s^T y / ||s||^2``.  ``||y|| / ||s|| >= 2 upper``
          or ``s^T y / ||s||^2 <= lower / 2`` violates.
        * Each update adds ``rho y y^T`` and subtracts a positive
          semidefinite term, so ``sigma_max <= c + sum rho_i ||y_i||^2``.
        * The inverse update is ``H+ = V^T H V + rho s s^T`` with
          ``V = I - rho y s^T``, an oblique projector of norm
          ``rho ||s|| ||y||``.  So ``1 / sigma_min = ||H|| <= h_m`` with
          ``h_0 = 1 / c`` and
          ``h_i = rho_i^2 ||s_i||^2 ||y_i||^2 h_{i-1} + rho_i ||s_i||^2``.
        * ``c + sum rho_i ||y_i||^2 <= upper / 2`` together with
          ``h_m <= 1 / (2 lower)`` admits.

        The factor of 2 keeps the answer equal to the compact query's, not
        merely close to it, as in ``_dense_decision``.  Overflowed scalars
        are kept as NaN, every comparison is false, and the compact query
        decides.
        """
        if self._pairs:
            _, _, _, rho_ss, rho_yy = self._pairs[-1]
            if (math.sqrt(rho_yy / rho_ss) >= 2.0 * bounds.upper
                    or 1.0 / rho_ss <= 0.5 * bounds.lower):
                return True
        sigma_max, h = self.c, 1.0 / self.c
        for _, _, _, rho_ss, rho_yy in self._pairs:
            sigma_max += rho_yy
            h = rho_ss * rho_yy * h + rho_ss
        if sigma_max <= 0.5 * bounds.upper and h <= 0.5 / bounds.lower:
            return False
        return None

    def _dense_decision(self, bounds):
        """The band test from cheap bounds on the dense ``B``, or ``None``.

        ``sigma_max >= max diag(B)``, so ``max diag(B) >= 2 upper`` violates.
        ``sigma_max <= ||B||_2`` and ``sigma_min = 1 / ||H||_2``, and
        ``_norm_at_most`` bounds the spectral norm from above, so
        ``||B|| <= upper / 2`` with ``||H|| <= 1 / (2 lower)`` admits.

        The factor of 2 makes the answer equal to that of ``eigvalsh`` on
        the stored ``B``, not merely close to it.  ``eigvalsh`` is off by
        about ``eps ||B||``.  ``H`` is off from the inverse of the stored
        ``B`` by a relative ``k eps cond(B)`` or so, and when the bounds
        admit, ``cond(B) <= ||B|| ||H|| <= upper / (4 lower)``.  Both errors
        are thus of order ``eps upper / lower`` relative, far inside the
        margin unless ``upper / lower`` nears ``1 / eps`` (the default band
        has 1e8).  A non-finite ``H`` gives NaN or infinite norms, every
        comparison is false, and the eigensolve decides.
        """
        if float(self._b.diagonal().max()) >= 2.0 * bounds.upper:
            return True
        if (_norm_at_most(self._b, 0.5 * bounds.upper)
                and _norm_at_most(self._h, 0.5 / bounds.lower)):
            return False
        return None

    def enforce_spectrum(self, bounds):
        """Drop oldest pairs until the spectrum sits strictly inside ``bounds``.

        Returns the number of pairs removed.  Requires ``c`` itself to lie
        in the band, otherwise an empty store could never satisfy it.
        """
        if not (bounds.lower <= self.c <= bounds.upper):
            raise ConfigurationError(
                f"base scale c = {self.c} outside spectrum bounds "
                f"[{bounds.lower}, {bounds.upper}]")
        removed = 0
        while self._pairs and self.violates(bounds):
            self.remove_oldest()
            removed += 1
        return removed

    def apply_inverse(self, g):
        """``d = H g`` with ``H = B^{-1}``: the kept dense ``H`` of an
        unbounded store, the two-loop recursion in a bounded one."""
        g = self._check_vector(g, "g")
        if self._h is not None and self._pairs:
            return self._h @ g
        q = g.copy()
        if not self._pairs:
            return q / self.c
        alphas = []
        for s, y, rho, _, _ in reversed(self._pairs):
            alpha = rho * float(s.dot(q))
            alphas.append(alpha)
            q -= alpha * y
        r = q / self.c
        for (s, y, rho, _, _), alpha in zip(self._pairs, reversed(alphas)):
            beta = rho * float(y.dot(r))
            r += (alpha - beta) * s
        return r
