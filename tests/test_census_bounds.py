"""The band test, decided from cheap bounds before any eigensolve.

``CurvaturePairStore.violates`` on an unbounded store first tries the
largest diagonal entry of ``B`` and norms of ``B`` and of the kept inverse
``H``; on a bounded store it tries the newest pair's secant and two scalars
kept per pair.  Either calls the eigensolve (the compact query for a
bounded store) only when the bounds leave the question open.  Its answer
must always be the eigensolve's answer, which is what the ``qsass-bfgs``
census and ``qsass`` enforcement recorded before the bounds existed; the
one exception is a bounded store whose compact query raises while the
proved bounds admit (``test_singular_compact_query_inside_the_proved_band``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import degenerate_sequence, dense_b
from qsass.bench import ExperimentSpec, run_experiment
from qsass.errors import SpectrumQueryError
from qsass.store import (CurvaturePairStore, SpectrumBounds, _bfgs_update,
                         _inverse_bfgs_update)


def eig_decision(store, bounds):
    """The band test from the eigensolve alone."""
    sigma_max, sigma_min = store.extreme_eigenvalues()
    return not bounds.admits(sigma_max, sigma_min)


def norm_bound(a):
    return min(np.linalg.norm(a, np.inf), np.linalg.norm(a, "fro"))


def count_calls(monkeypatch, name="extreme_eigenvalues"):
    """The store's size at each call of ``CurvaturePairStore.<name>``; the
    default counts eigensolves, ``"_compact_extremes"`` compact queries."""
    calls = []
    original = getattr(CurvaturePairStore, name)

    def counted(self):
        calls.append(len(self))
        return original(self)

    monkeypatch.setattr(CurvaturePairStore, name, counted)
    return calls


def fill(store, rng, count, log_cond=2.0):
    """Insert ``count`` pairs ``(s, A s)`` for a fixed SPD ``A`` whose
    eigenvalues span ``10 ** log_cond``."""
    n = store.dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * 10.0 ** rng.uniform(-log_cond / 2, log_cond / 2, n)) @ q.T
    inserted = 0
    while inserted < count:
        s = rng.standard_normal(n)
        inserted += store.try_insert(s, a @ s)
    return store


class TestUpdates:
    @staticmethod
    def reference_bfgs_update(b, s, y):
        """The update as the rank-two product expression, with temporaries."""
        bs = b @ s
        left = np.array((bs, y)).T
        right = np.array((-bs / float(s @ bs), y / float(y @ s)))
        return b + left @ right

    @pytest.mark.parametrize("dim", [4, 256])
    def test_in_place_update_is_bitwise_the_expression(self, dim):
        rng = np.random.default_rng(dim)
        b = 0.7 * np.eye(dim)
        buf = np.empty_like(b)
        updated = 0
        while updated < 30:
            s = rng.standard_normal(dim)
            y = 10.0 ** rng.uniform(-2, 2) * (s + rng.standard_normal(dim))
            if s @ y <= 0.0:
                continue
            expected = self.reference_bfgs_update(b, s, y)
            assert _bfgs_update(b, s, y, buf)
            assert b.tobytes() == expected.tobytes()
            updated += 1

    @pytest.mark.parametrize("dim", [4, 256])
    def test_inverse_update_is_the_product_form(self, dim):
        rng = np.random.default_rng(dim + 1)
        h = np.eye(dim) / 0.7
        buf = np.empty_like(h)
        eye = np.eye(dim)
        for _ in range(10):
            s = rng.standard_normal(dim)
            y = s + 0.3 * rng.standard_normal(dim)
            rho = 1.0 / float(s @ y)
            expected = ((eye - rho * np.outer(s, y)) @ h
                        @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s))
            _inverse_bfgs_update(h, s, y, rho, buf)
            assert np.abs(h - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("dim", [4, 64])
    def test_dense_b_is_bitwise_the_reference_after_every_mutation(self, dim):
        # The reference is a fresh store that takes the stored pairs, oldest
        # first: B after inserts, removals and more inserts is bit for bit
        # the updates over exactly its pairs.  The textbook recursion, which
        # forms each rank-one term apart, rounds differently; it agrees to
        # a relative 1e-12, as the kept inverse does with its own formula.
        def assert_reference(store):
            fresh = CurvaturePairStore(dim, None, c=store.c)
            for s, y in zip(store.s_list, store.y_list):
                assert fresh.try_insert(s, y)
            assert store._b.tobytes() == fresh._b.tobytes()
            textbook = dense_b(store)
            assert (np.abs(store._b - textbook).max()
                    <= 1e-12 * np.abs(textbook).max())

        rng = np.random.default_rng(dim + 2)
        store = fill(CurvaturePairStore(dim, None, c=1.3), rng, 12)
        assert_reference(store)
        store.remove_oldest()
        store.remove_oldest()
        assert_reference(store)
        fill(store, rng, 3)
        assert_reference(store)


class TestKeptInverse:
    @staticmethod
    def assert_inverse(store, tol=1e-9):
        residual = store._h @ store._b - np.eye(store.dim)
        assert np.abs(residual).max() <= tol

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_h_inverts_b_after_inserts_removals_and_clear(self, dim):
        rng = np.random.default_rng(dim + 3)
        store = CurvaturePairStore(dim, None, c=0.8)
        self.assert_inverse(store)
        for _ in range(4):
            fill(store, rng, dim)
            self.assert_inverse(store)
        for _ in range(dim // 2 + 1):
            store.remove_oldest()
            self.assert_inverse(store)
        fill(store, rng, 3)
        self.assert_inverse(store)
        store.clear()
        assert store._h.tobytes() == (np.eye(dim) / 0.8).tobytes()
        fill(store, rng, 2)
        self.assert_inverse(store)

    def test_bounded_store_keeps_neither_matrix(self):
        store = CurvaturePairStore(8, 3)
        fill(store, np.random.default_rng(0), 5)
        assert store._b is None and store._h is None


class TestDecision:
    def test_edges_of_the_margin_on_an_empty_store(self, monkeypatch):
        # B = I and H = I: the bounds admit [0.5, 2] exactly at their edges,
        # and must leave [0.5, 1] (sigma_max = upper violates) open.
        calls = count_calls(monkeypatch)
        store = CurvaturePairStore(4, None, c=1.0)
        assert not store.violates(SpectrumBounds(0.5, 2.0))
        assert calls == []
        assert store.violates(SpectrumBounds(0.5, 1.0))
        assert store.violates(SpectrumBounds(1.0, 2.0))
        assert store.violates(SpectrumBounds(0.25, 0.5))
        assert not store.violates(SpectrumBounds(0.5, 1.0 + 1e-12))

    def test_clear_cases_need_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(5)
        store = fill(CurvaturePairStore(16, None), rng, 10)
        calls = count_calls(monkeypatch)
        sigma_max, sigma_min = np.linalg.eigvalsh(store._b)[[-1, 0]]
        wide = SpectrumBounds(sigma_min / 100.0, 100.0 * sigma_max)
        assert not store.violates(wide)
        low_ceiling = SpectrumBounds(sigma_min / 100.0,
                                     store._b.diagonal().max() / 2.0)
        assert store.violates(low_ceiling)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_h_falls_through_to_the_eigensolve(self, monkeypatch,
                                                          bad):
        rng = np.random.default_rng(6)
        store = fill(CurvaturePairStore(8, None), rng, 6)
        sigma_max, sigma_min = np.linalg.eigvalsh(store._b)[[-1, 0]]
        wide = SpectrumBounds(sigma_min / 100.0, 100.0 * sigma_max)
        store._h[0, 0] = bad
        calls = count_calls(monkeypatch)
        assert store.violates(wide) is False
        assert calls == [6]


@st.composite
def stores_and_bands(draw):
    """An unbounded store and a band, often exactly at one of the edges
    the bounds test against."""
    dim = draw(st.sampled_from([2, 4, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    store = CurvaturePairStore(dim, None,
                               c=draw(st.sampled_from([0.5, 1.0, 3.0])))
    shape = draw(st.sampled_from(["axes", "well", "ill"]))
    count = draw(st.integers(0, 2 * dim))
    if shape == "axes":
        # Diagonal B and H, where the norms equal the extreme eigenvalues.
        for _ in range(count):
            i = int(rng.integers(dim))
            store.try_insert(np.eye(dim)[i], 10.0 ** rng.uniform(-2, 2)
                             * np.eye(dim)[i])
    else:
        fill(store, rng, count, log_cond=1.0 if shape == "well" else 8.0)
    for _ in range(min(draw(st.integers(0, 2)), len(store))):
        store.remove_oldest()

    b, h = store._b, store._h
    sigma_max, sigma_min = store.extreme_eigenvalues()
    f = draw(st.sampled_from([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0])
             | st.floats(0.25, 4.0))
    edge = draw(st.sampled_from(["diagonal", "norm-b", "norm-h", "spectrum"]))
    if edge == "diagonal":
        upper, lower = 0.5 * b.diagonal().max() * f, 0.25 * sigma_min
    elif edge == "norm-b":
        upper, lower = 2.0 * norm_bound(b) * f, 0.25 / norm_bound(h)
    elif edge == "norm-h":
        upper, lower = 4.0 * norm_bound(b), 0.5 / norm_bound(h) * f
    else:
        upper, lower = sigma_max * f, sigma_min / draw(st.floats(0.25, 4.0))
    return store, SpectrumBounds(min(lower, upper), upper)


@settings(max_examples=300, deadline=None)
@given(stores_and_bands())
def test_violates_equals_the_eigensolve_decision(case):
    store, bounds = case
    assert store.violates(bounds) == eig_decision(store, bounds)


def test_census_traces_equal_the_eigensolve_only_census(monkeypatch):
    spec = ExperimentSpec(problems=("quadratic:n=64", "cosine-chain:n=4"),
                          solvers=("qsass-bfgs",), oracle="mixed-gaussian",
                          seeds=3, max_iterations=150)
    calls = count_calls(monkeypatch)
    decided = run_experiment(spec)
    bound_calls = len(calls)
    monkeypatch.setattr(CurvaturePairStore, "_dense_decision",
                        lambda self, bounds: None)
    reference = run_experiment(spec)
    assert len(calls) - bound_calls > 10 * bound_calls
    flags = set()
    for key, trace in reference.traces.items():
        assert decided.traces[key].to_text() == trace.to_text()
        flags.update(rec.would_violate for rec in trace.records)
    assert flags == {0, 1}


def pair_bounds(store):
    """The bounded store's four bound quantities, from the stored pairs:
    ``||y|| / ||s||`` and ``s^T y / ||s||^2`` of the newest pair (``None``
    on an empty store), ``c + sum rho ||y||^2`` and ``h_m``.  Each is
    rounded as the store rounds it, so that a band drawn at a factor of
    exactly 1 or 2 sits on the decision's threshold."""
    secant = None
    upper, h = store.c, 1.0 / store.c
    for s, y in zip(store.s_list, store.y_list):
        rho = 1.0 / float(s @ y)
        rho_ss, rho_yy = rho * float(s @ s), rho * float(y @ y)
        secant = (math.sqrt(rho_yy / rho_ss), 1.0 / rho_ss)
        upper += rho_yy
        h = rho_ss * rho_yy * h + rho_ss
    return secant, upper, h


def insert_eigenpairs(store, rng, count):
    """Pairs ``(q, lambda q)`` along orthonormal ``q``: ``B`` then has the
    eigenvalues ``lambda`` and ``c``.  The ``lambda`` are monotone, so the
    newest pair often holds an extreme eigenvalue and a secant bound is
    tight."""
    q, _ = np.linalg.qr(rng.standard_normal((store.dim, store.dim)))
    lambdas = np.sort(10.0 ** rng.uniform(-2, 2, count))
    if rng.random() < 0.5:
        lambdas = lambdas[::-1]
    for i, lam in enumerate(lambdas):
        s = q[:, i % store.dim]
        store.try_insert(s, lam * s)


def insert_repeated(store, rng, count):
    """The same ``s`` again, exactly or perturbed by 1e-9, with ``s`` and
    ``y`` scaled over 1e+-4: middle systems near singular."""
    base = rng.standard_normal(store.dim)
    inserted = 0
    while inserted < count:
        s = base if rng.random() < 0.5 else (
            base + 1e-9 * rng.standard_normal(store.dim))
        s = 10.0 ** rng.uniform(-4, 4) * s
        y = 10.0 ** rng.uniform(-4, 4) * (base + rng.standard_normal(store.dim))
        inserted += store.try_insert(s, y)


EDGE_FACTORS = (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0)


@st.composite
def bounded_stores_and_bands(draw):
    """A bounded store and bands at the edges of the bounds
    ``_pair_decision`` tests, and of the spectrum itself: each edge scaled
    by every factor in ``EDGE_FACTORS`` and by one drawn factor, with the
    other side of the band wide."""
    dim = draw(st.sampled_from([2, 4, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    store = CurvaturePairStore(dim, draw(st.integers(1, dim // 2)),
                               c=draw(st.sampled_from([0.5, 1.0, 3.0])))
    shape = draw(st.sampled_from(["well", "ill", "eigen", "repeated"]))
    count = draw(st.integers(0, 2 * store.capacity))
    if shape == "eigen":
        insert_eigenpairs(store, rng, count)
    elif shape == "repeated":
        insert_repeated(store, rng, count)
    else:
        fill(store, rng, count, log_cond=1.0 if shape == "well" else 8.0)
    for _ in range(min(draw(st.integers(0, 2)), len(store))):
        store.remove_oldest()

    secant, sum_upper, h = pair_bounds(store)
    try:
        sigma_max, sigma_min = store.extreme_eigenvalues()
    except SpectrumQueryError:
        sigma_max = sigma_min = None
    wide_upper, wide_lower = 4.0 * sum_upper, 0.25 / h
    edges = [(sum_upper, None), (None, 1.0 / h)]
    if secant is not None:
        edges += [(secant[0], None), (None, secant[1])]
    if sigma_max is not None:
        edges += [(sigma_max, None), (None, sigma_min)]
    bands = []
    for f in EDGE_FACTORS + (draw(st.floats(0.25, 4.0)),):
        for upper, lower in edges:
            upper = wide_upper if upper is None else upper * f
            lower = wide_lower if lower is None else lower * f
            bands.append(SpectrumBounds(min(lower, upper), upper))
    return store, bands


@settings(max_examples=300, deadline=None)
@given(bounded_stores_and_bands())
def test_bounded_violates_equals_the_compact_decision(case):
    store, bands = case
    try:
        sigma_max, sigma_min = store.extreme_eigenvalues()
    except SpectrumQueryError:
        return
    for bounds in bands:
        assert store.violates(bounds) == (
            not bounds.admits(sigma_max, sigma_min))


class TestBoundedDecision:
    def test_clear_cases_need_no_compact_query(self, monkeypatch):
        rng = np.random.default_rng(7)
        store = fill(CurvaturePairStore(16, 5), rng, 8)
        secant, sum_upper, h = pair_bounds(store)
        calls = count_calls(monkeypatch, "_compact_extremes")
        assert not store.violates(SpectrumBounds(0.5 / h, 2.0 * sum_upper))
        assert store.violates(SpectrumBounds(0.5 / h, 0.5 * secant[0]))
        assert store.violates(SpectrumBounds(2.0 * secant[1], 2.0 * sum_upper))
        assert calls == []
        open_band = SpectrumBounds(0.5 / h, sum_upper)
        violated = store.violates(open_band)
        assert calls == [5]
        assert violated == eig_decision(store, open_band)

    def test_empty_store_is_decided_by_c_alone(self, monkeypatch):
        calls = count_calls(monkeypatch, "_compact_extremes")
        store = CurvaturePairStore(4, 2, c=1.0)
        assert not store.violates(SpectrumBounds(0.5, 2.0))
        assert store.violates(SpectrumBounds(0.5, 1.0))
        assert store.violates(SpectrumBounds(1.0, 2.0))
        assert not store.violates(SpectrumBounds(0.5, 1.0 + 1e-12))
        assert calls == []

    def test_overflowed_scalars_leave_the_decision_open(self, monkeypatch):
        # ||s||^2 = 1e308 is finite, rho ||s||^2 = 5e315 is not.
        store = CurvaturePairStore(4, 2, c=1.0)
        e = np.eye(4)[0]
        assert store.try_insert(1e154 * e, 2e-162 * e)
        calls = count_calls(monkeypatch, "_compact_extremes")
        assert store._pair_decision(SpectrumBounds(1e-3, 1e3)) is None
        assert calls == []

    def test_singular_compact_query_inside_the_proved_band(self):
        # B = I exactly (y = s along one axis), but the pairs' scales 1e3 and
        # 1e-3 make the middle system singular to working precision.  The
        # bounds prove the spectrum inside [1/6, 6] and admit, where the
        # compact query alone counted a violation; a band the bounds leave
        # open still counts the singular query as a violation.
        store = CurvaturePairStore(4, 2, c=1.0)
        e = np.eye(4)[0]
        assert store.try_insert(1e3 * e, 1e3 * e)
        assert store.try_insert(1e-3 * e, 1e-3 * e)
        assert np.array_equal(dense_b(store), np.eye(4))
        with pytest.raises(SpectrumQueryError):
            store.extreme_eigenvalues()
        assert pair_bounds(store)[1:] == (3.0, 3.0)
        band = SpectrumBounds(1.0 / 6.0, 6.0)
        assert not store.violates(band)
        assert store.enforce_spectrum(band) == 0 and len(store) == 2
        assert store.violates(SpectrumBounds(0.9, 1.1))

    def test_overflowing_compact_query_counts_as_a_violation(self):
        # s and y are finite, but s^T s = 1e320 overflows the middle system;
        # the overflowed per-pair scalars leave the band test to that query.
        store = CurvaturePairStore(4, 2)
        e = np.eye(4)[0]
        with np.errstate(over="ignore"):
            assert store.try_insert(1e160 * e, 1e-150 * e)
            with pytest.raises(SpectrumQueryError):
                store.extreme_eigenvalues()
            assert store.enforce_spectrum(SpectrumBounds(1e-4, 1e4)) == 1
        assert len(store) == 0


def test_enforcement_traces_equal_the_compact_only_enforcement(monkeypatch):
    specs = [ExperimentSpec(problems=("cosine-chain:n=4",), solvers=("qsass",),
                            oracle="mixed-gaussian", seeds=4,
                            max_iterations=150),
             ExperimentSpec(problems=("quadratic:n=8:condition=100",),
                            solvers=("qsass",),
                            oracle="additive", seeds=4, max_iterations=150)]
    calls = count_calls(monkeypatch, "_compact_extremes")
    decided = [run_experiment(spec) for spec in specs]
    bound_calls = len(calls)
    monkeypatch.setattr(CurvaturePairStore, "_pair_decision",
                        lambda self, bounds: None)
    reference = [run_experiment(spec) for spec in specs]
    assert len(calls) - bound_calls > 10 * bound_calls
    removed = 0
    for result, expected in zip(decided, reference):
        for key, trace in expected.traces.items():
            assert result.traces[key].to_text() == trace.to_text()
            removed += sum(rec.removed for rec in trace.records)
    assert removed > 0


class TestNonPositiveCurvatureOfB:
    """When rounding makes the computed ``s^T B s`` non-positive, the pair
    is stored but updates neither ``B`` nor ``H``, with no RuntimeWarning
    (Tier-1 turns one into a failure)."""

    def test_the_pair_is_stored_and_both_models_kept(self):
        store, s, y = degenerate_sequence()
        b, h, pairs = store._b.copy(), store._h.copy(), len(store)
        assert store.try_insert(s, y)
        assert len(store) == pairs
        assert store._b.tobytes() == b.tobytes()
        assert store._h.tobytes() == h.tobytes()
        assert np.isfinite(store._b).all() and np.isfinite(store._h).all()

    def test_rebuilds_replay_the_rule(self):
        store, s, y = degenerate_sequence()
        store.try_insert(s, y)
        b, h = store._b.copy(), store._h.copy()
        store._after_removal()
        assert store._b.tobytes() == b.tobytes()
        assert store._h.tobytes() == h.tobytes()
        store.remove_oldest()
        fresh = CurvaturePairStore(4, None)
        for s_i, y_i in zip(store.s_list, store.y_list):
            assert fresh.try_insert(s_i, y_i)
        assert store._b.tobytes() == fresh._b.tobytes()
        assert store._h.tobytes() == fresh._h.tobytes()
        # The rebuild skipped the replacement pair, as the fresh store did.
        ill = CurvaturePairStore(4, None)
        assert ill.try_insert(store.s_list[0], store.y_list[0])
        assert store._b.tobytes() == ill._b.tobytes()
        assert store._h.tobytes() == ill._h.tobytes()


class TestFailedDenseQuery:
    def test_non_finite_b_is_a_query_error_and_a_violation(self):
        store = fill(CurvaturePairStore(4, None), np.random.default_rng(3), 3)
        store._b[0, 0] = np.nan
        with pytest.raises(SpectrumQueryError):
            store.extreme_eigenvalues()
        assert store.violates(SpectrumBounds(1e-4, 1e4))

    def test_unconverged_eigensolve_is_a_query_error_and_a_violation(
            self, monkeypatch):
        store = fill(CurvaturePairStore(4, None), np.random.default_rng(3), 3)
        bounds = SpectrumBounds(1e-3, 1.5 * norm_bound(store._b))
        # The spectrum is inside the band, but the norm bounds leave the
        # test open, so only the eigensolve could decide it.
        assert not eig_decision(store, bounds)
        assert store._dense_decision(bounds) is None

        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        with pytest.raises(SpectrumQueryError):
            store.extreme_eigenvalues()
        assert store.violates(bounds)


def test_census_crash_spec_records_its_census():
    """Under mixed noise, repeated-``s`` pairs drove the computed ``s^T B s``
    of this ``qsass-bfgs`` cell to zero, ``B`` became non-finite and
    ``eigvalsh`` raised ``LinAlgError`` out of the census.  The run now ends
    for a recorded reason, and every iteration records the census."""
    spec = ExperimentSpec(problems=("quadratic:n=8:condition=100",
                                    "rosenbrock-chain:n=4"),
                          solvers=("qsass-bfgs",), oracle="mixed-gaussian",
                          seeds=1, name="census-crash")
    result = run_experiment(spec)
    for trace in result.traces.values():
        assert trace.stop_reason in ("stopping-rule", "iteration-budget")
        assert {rec.would_violate for rec in trace.records} <= {0, 1}
    rosenbrock = result.traces[(1, 0, 0)]
    assert rosenbrock.iterations == 2000
    assert sum(rec.would_violate for rec in rosenbrock.records) > 1000
