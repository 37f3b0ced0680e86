"""Shared helpers for the test suite."""

import numpy as np

from qsass.store import CurvaturePairStore


def make_random_store(rng, dim, n_pairs, c=1.0, capacity=None, scale=1.0,
                      min_cos=0.0):
    """Store filled with ``n_pairs`` random pairs of acceptable curvature.

    ``min_cos`` floors the angle cosine between the members of a pair;
    pairs that barely clear the curvature threshold give the inverse a
    condition number beyond what float64 round trips can support.
    """
    if capacity is None:
        capacity = max(n_pairs, 1)
    store = CurvaturePairStore(dim, capacity, c=c)
    if n_pairs > 0 and store.capacity == 0:
        raise ValueError(f"a dim-{dim} store admits no pairs after the "
                         f"capacity clamp; cannot insert {n_pairs}")
    inserted = 0
    while inserted < n_pairs:
        s = scale * rng.standard_normal(dim)
        y = scale * rng.standard_normal(dim)
        cos = s @ y / (np.linalg.norm(s) * np.linalg.norm(y))
        if cos <= min_cos:
            continue
        if store.try_insert(s, y):
            inserted += 1
    return store


def dense_b(store):
    """Dense reconstruction of the approximation the store represents."""
    return dense_bfgs_oracle(store.s_list, store.y_list, store.c, n=store.dim)


def dense_bfgs_oracle(s_list, y_list, c, n=None):
    """Dense Hessian approximation built by recursive BFGS updates.

    Starting from ``c * I``, applies the standard rank-two update for each
    curvature pair in order:

        B <- B - (B s)(B s)^T / (s^T B s) + y y^T / (y^T s)

    This is the slow reference route against which the compact
    representation is checked, so it deliberately shares no code with it.
    ``n`` is inferred from the pairs and only needed when there are none.

    Raises
    ------
    ValueError
        If any pair has ``<s, y> <= 0``.
    """
    if c <= 0 or not np.isfinite(c):
        raise ValueError(f"c must be a positive finite scalar, got {c}")
    s_list = [np.asarray(s, dtype=float) for s in s_list]
    y_list = [np.asarray(y, dtype=float) for y in y_list]
    if len(s_list) != len(y_list):
        raise ValueError("s_list and y_list must have equal length")
    if s_list:
        n = s_list[0].shape[0]
    elif n is None:
        raise ValueError("dimension n is required when there are no pairs")
    b = c * np.eye(n)
    for s, y in zip(s_list, y_list):
        if s.shape != (n,) or y.shape != (n,):
            raise ValueError("curvature pairs must share one dimension")
        sy = float(y @ s)
        if sy <= 0.0:
            raise ValueError(f"pair has non-positive curvature <s, y> = {sy}")
        bs = b @ s
        sbs = float(s @ bs)
        b = b - np.outer(bs, bs) / sbs + np.outer(y, y) / sy
    return b


def degenerate_sequence():
    """Store and next pair for which the computed ``s^T B s`` is negative
    against the model the pair updates, both in the store and after its
    oldest pair is removed.

    The store holds a well-scaled pair, then an ill-scaled one: a tiny
    ``s`` and a ``y`` at a random scale whose ``s^T y`` clears
    ``curvature_tol`` barely, as after a rejected step under mixed noise.
    ``B`` then has entries up to about 1e19, and for an ``s`` one bit away
    from the stored one rounding often makes the computed ``s^T B s``
    negative.  That ``s`` is offered twice: the first pair is appended,
    stored but skipped by ``B`` and ``H``; the second, returned, repeats
    its ``s``, so it replaces it and updates the same model from before
    the newest pair."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal(4)
    well = (w, 2.0 * w + 0.1 * rng.standard_normal(4))
    s = 1e-5 * rng.standard_normal(4)
    nudged = s.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)

    def barely_curved(s):
        y = rng.standard_normal(4) * 10.0 ** rng.uniform(-6, 6)
        return y + (1.44e-8 - s @ y) / (s @ s) * s

    def skips(pairs):
        store = CurvaturePairStore(4, None)
        for pair in pairs:
            assert store.try_insert(*pair)
        return store, not float(nudged @ (store._b @ nudged)) > 0.0

    while True:
        ill = (s, barely_curved(s))
        store, skipped = skips([well, ill])
        if skipped and skips([ill])[1]:
            assert store.try_insert(nudged, barely_curved(nudged))
            return store, nudged, barely_curved(nudged)


def measurement_probabilities(problem, x):
    """Probability of observing each Hamiltonian eigenvalue of a VQE
    problem at ``x``."""
    return problem._probabilities(problem.state(x)[None])[0]


def summary_text(trace):
    """The ``key = value`` summary block that ends a trace's text."""
    tail = trace.to_text().rstrip("\n").splitlines()
    return "\n".join(tail[tail.index("") + 1:]) + "\n"
