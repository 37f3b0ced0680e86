"""Small dense linear algebra used by the limited-memory machinery.

Everything here operates on modest matrices (at most a few dozen rows or
columns), so numerical robustness is preferred over asymptotic cleverness.
The tolerances are module constants and can be overridden by callers that
know their scales.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for the symmetry check applied before symmetric
# eigensolves.
SYMMETRY_TOL = 1e-12

# A square system is declared singular when its smallest singular value does
# not exceed this fraction of the matrix norm.
SINGULARITY_RTOL = 1e-12


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def thin_qr(a):
    """Thin QR factorization of a tall matrix.

    Parameters
    ----------
    a : (n, k) array_like
        Matrix with ``n >= k >= 1``.  Rank deficiency is fine; the factor
        columns then span a superset of the column space.

    Returns
    -------
    q : (n, k) ndarray
        Orthonormal columns.
    r : (k, k) ndarray
        Upper triangular.  ``q @ r`` reconstructs ``a`` to roundoff.

    Column signs are not pinned down; only the product is guaranteed.
    """
    a = _as_matrix(a, "a")
    n, k = a.shape
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got shape {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    return q, r


def sym_eig_small(a, symmetry_tol=None):
    """Eigenvalues of a small symmetric matrix, in descending order.

    The input is checked for symmetry first: ``max |a - a.T|`` must not
    exceed ``symmetry_tol * max |a|`` (``SYMMETRY_TOL`` by default).
    """
    a = _as_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    tol = SYMMETRY_TOL if symmetry_tol is None else symmetry_tol
    scale = np.max(np.abs(a)) if a.size else 0.0
    if np.max(np.abs(a - a.T), initial=0.0) > tol * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    return np.linalg.eigvalsh(a)[::-1].copy()


def solve_checked(m, rhs, rtol=None):
    """Solve ``m @ x = rhs`` with an explicit singularity check.

    Raises ``numpy.linalg.LinAlgError`` when the smallest singular value of
    ``m`` is at most ``rtol * ||m||`` (``SINGULARITY_RTOL`` by default).
    """
    m = _as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    rtol = SINGULARITY_RTOL if rtol is None else rtol
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= rtol * sv[0] or sv[0] == 0.0:
        raise np.linalg.LinAlgError("matrix is singular to tolerance")
    return np.linalg.solve(m, rhs)
