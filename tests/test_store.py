import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import degenerate_sequence, dense_b, make_random_store
from qsass.errors import ConfigurationError
from qsass.store import CurvaturePairStore, SpectrumBounds


def test_bounds_are_strict():
    b = SpectrumBounds(0.9, 1.5)
    assert b.admits(1.49, 0.91)
    assert not b.admits(1.5, 1.0)   # equality at the top violates
    assert not b.admits(1.0, 0.9)   # equality at the bottom violates
    with pytest.raises(ConfigurationError):
        SpectrumBounds(2.0, 1.0)


class TestTryInsert:
    def test_orthogonal_pair_rejected(self):
        store = CurvaturePairStore(2, 2, c=1.0)
        assert not store.try_insert([1.0, 0.0], [0.0, 1.0])
        assert len(store) == 0

    def test_positive_curvature_accepted(self):
        store = CurvaturePairStore(2, 2, c=1.0)
        assert store.try_insert([1.0, 0.0], [2.0, 0.0])
        assert len(store) == 1

    def test_full_store_evicts_oldest(self):
        store = CurvaturePairStore(4, 2, c=1.0)
        store.try_insert([1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0])
        store.try_insert([0.0, 1.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0])
        store.try_insert([1.0, 1.0, 0.0, 0.0], [4.0, 4.0, 0.0, 0.0])
        assert len(store) == 2
        assert_allclose(store.s_list[0], [0.0, 1.0, 0.0, 0.0])
        assert_allclose(store.s_list[1], [1.0, 1.0, 0.0, 0.0])

    def test_capacity_clamped_to_half_dimension(self):
        store = CurvaturePairStore(4, 10, c=1.0)
        assert store.capacity == 2

    def test_unbounded_capacity(self):
        rng = np.random.default_rng(0)
        store = CurvaturePairStore(3, None, c=1.0)
        kept = 0
        for _ in range(40):
            s = rng.standard_normal(3)
            y = rng.standard_normal(3)
            kept += store.try_insert(s, y)
        assert len(store) == kept > 10


class TestExtremeEigenvalues:
    def test_empty_store(self):
        store = CurvaturePairStore(4, 2, c=1.0)
        assert store.extreme_eigenvalues() == (1.0, 1.0)
        store_c = CurvaturePairStore(4, 2, c=3.5)
        assert store_c.extreme_eigenvalues() == (3.5, 3.5)

    def test_single_axis_pair(self):
        store = CurvaturePairStore(2, 1, c=1.0)
        store.try_insert([1.0, 0.0], [2.0, 0.0])
        lo_hi = store.extreme_eigenvalues()
        assert_allclose(lo_hi, (2.0, 1.0), atol=1e-12)

    def test_three_random_pairs_match_dense(self):
        rng = np.random.default_rng(9)
        store = make_random_store(rng, 6, 3)
        sig_max, sig_min = store.extreme_eigenvalues()
        dense_eigs = np.linalg.eigvalsh(dense_b(store))
        assert abs(sig_max - dense_eigs[-1]) <= 1e-8 * max(1.0, abs(dense_eigs[-1]))
        assert abs(sig_min - dense_eigs[0]) <= 1e-8 * max(1.0, abs(dense_eigs[0]))

    def test_hundred_random_stores_match_dense(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(0, min(5, n // 2) + 1))
            c = float(rng.uniform(0.5, 2.0))
            store = make_random_store(rng, n, m, c=c)
            sig_max, sig_min = store.extreme_eigenvalues()
            dense_eigs = np.linalg.eigvalsh(dense_b(store))
            scale = max(1.0, float(np.max(np.abs(dense_eigs))))
            assert abs(sig_max - dense_eigs[-1]) <= 1e-8 * scale
            assert abs(sig_min - dense_eigs[0]) <= 1e-8 * scale

    def test_unbounded_store_reads_its_dense_model(self):
        # An unbounded store takes its spectrum from the dense B it keeps,
        # at every pair count (2m <= n included) and after every way of
        # dropping pairs; it must match the recursive reconstruction bit
        # for bit.
        def assert_matches_dense(store):
            eigs = np.linalg.eigvalsh(dense_b(store))
            assert store.extreme_eigenvalues() == (float(eigs[-1]),
                                                   float(eigs[0]))

        rng = np.random.default_rng(21)
        store = CurvaturePairStore(6, None, c=0.8)
        for _ in range(3):
            s = rng.standard_normal(6)
            assert store.try_insert(s, s + 0.3 * rng.standard_normal(6))
            assert_matches_dense(store)
        for _ in range(5):
            s = rng.standard_normal(6)
            assert store.try_insert(s, s + 0.3 * rng.standard_normal(6))
        assert len(store) == 8
        assert_matches_dense(store)
        store.remove_oldest()
        store.remove_oldest()
        assert_matches_dense(store)
        store.clear()
        assert store.extreme_eigenvalues() == (0.8, 0.8)
        assert_matches_dense(store)

    def test_cache_survives_queries_but_not_inserts(self):
        rng = np.random.default_rng(2)
        store = make_random_store(rng, 6, 2)
        first = store.extreme_eigenvalues()
        assert store.extreme_eigenvalues() == first
        s = rng.standard_normal(6)
        store.try_insert(s, s)  # <s, s> > 0, always inserts
        assert store.extreme_eigenvalues() != first


class TestEnforceSpectrum:
    def test_removes_one_pair_then_empty(self):
        store = CurvaturePairStore(2, 1, c=1.0)
        store.try_insert([1.0, 0.0], [2.0, 0.0])  # B eigenvalues {2, 1}
        removed = store.enforce_spectrum(SpectrumBounds(0.9, 1.5))
        assert removed == 1
        assert len(store) == 0

    def test_wide_bounds_remove_nothing(self):
        store = CurvaturePairStore(2, 1, c=1.0)
        store.try_insert([1.0, 0.0], [2.0, 0.0])
        assert store.enforce_spectrum(SpectrumBounds(0.5, 10.0)) == 0
        assert len(store) == 1

    def test_empty_store_is_a_no_op(self):
        store = CurvaturePairStore(2, 1, c=1.0)
        assert store.enforce_spectrum(SpectrumBounds(0.5, 10.0)) == 0

    def test_c_outside_bounds_rejected(self):
        store = CurvaturePairStore(2, 1, c=1.0)
        with pytest.raises(ConfigurationError):
            store.enforce_spectrum(SpectrumBounds(2.0, 3.0))

    def test_post_enforcement_dense_eigenvalues_inside_bounds(self):
        rng = np.random.default_rng(13)
        bounds = SpectrumBounds(1e-2, 1e2)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n // 2 + 1))
            # Mix widely scaled pairs so some violate the bounds.
            store = CurvaturePairStore(n, m, c=1.0)
            inserted = 0
            while inserted < m:
                scale = 10.0 ** rng.uniform(-3, 3)
                s = rng.standard_normal(n)
                y = scale * rng.standard_normal(n)
                if store.try_insert(s, y):
                    inserted += 1
            store.enforce_spectrum(bounds)
            eigs = np.linalg.eigvalsh(dense_b(store))
            assert eigs[-1] < bounds.upper + 1e-9
            assert eigs[0] > bounds.lower - 1e-9

    def test_oldest_pairs_go_first(self):
        # Make the first pair the offender; enforcement must remove it and
        # keep the newer benign one.
        store = CurvaturePairStore(4, 2, c=1.0)
        store.try_insert([1.0, 0.0, 0.0, 0.0], [50.0, 0.0, 0.0, 0.0])
        store.try_insert([0.0, 1.0, 0.0, 0.0], [0.0, 1.2, 0.0, 0.0])
        removed = store.enforce_spectrum(SpectrumBounds(0.5, 10.0))
        assert removed == 1
        assert len(store) == 1
        assert_allclose(store.s_list[0], [0.0, 1.0, 0.0, 0.0])


class TestTwoLoopApply:
    def test_empty_store_scales_by_inverse_c(self):
        store = CurvaturePairStore(2, 1, c=2.0)
        assert_allclose(store.apply_inverse(np.array([4.0, 6.0])), [2.0, 3.0])

    def test_single_axis_pair(self):
        store = CurvaturePairStore(2, 1, c=1.0)
        store.try_insert([1.0, 0.0], [2.0, 0.0])
        assert_allclose(store.apply_inverse(np.array([2.0, 1.0])),
                        [1.0, 1.0], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(0, n // 2 + 1))
            store = make_random_store(rng, n, m, min_cos=0.05)
            g = rng.standard_normal(n)
            d = store.apply_inverse(g)
            assert np.linalg.norm(dense_b(store) @ d - g) \
                <= 1e-8 * np.linalg.norm(g)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        store = make_random_store(rng, 5, 2)
        g1 = rng.standard_normal(5)
        g2 = rng.standard_normal(5)
        lhs = store.apply_inverse(2.0 * g1 - 3.0 * g2)
        rhs = 2.0 * store.apply_inverse(g1) - 3.0 * store.apply_inverse(g2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1)

    def test_direction_cosine_and_norm_bounds(self):
        # d = B^{-1} g realizations stay inside the ellipsoid the extreme
        # eigenvalues promise.
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            store = make_random_store(rng, n, n // 2)
            sig_max, sig_min = store.extreme_eigenvalues()
            lo, hi = 1.0 / sig_max, 1.0 / sig_min
            g = rng.standard_normal(n)
            d = store.apply_inverse(g)
            g_norm = np.linalg.norm(g)
            d_norm = np.linalg.norm(d)
            assert d @ g / (d_norm * g_norm) >= lo / hi - 1e-9
            assert lo * g_norm - 1e-9 <= d_norm <= hi * g_norm + 1e-9


def reference_two_loop(store, g):
    """The recursion as written before rho was cached: every call derives
    rho = 1 / <y, s> afresh and keeps rho and alpha in ``np.empty`` arrays."""
    s_list, y_list = store.s_list, store.y_list
    q = np.asarray(g, dtype=float).copy()
    m = len(s_list)
    if m == 0:
        return q / store.c
    rho = np.empty(m)
    alpha = np.empty(m)
    for i in range(m - 1, -1, -1):
        rho[i] = 1.0 / float(y_list[i] @ s_list[i])
        alpha[i] = rho[i] * float(s_list[i] @ q)
        q -= alpha[i] * y_list[i]
    r = q / store.c
    for i in range(m):
        beta = rho[i] * float(y_list[i] @ r)
        r += (alpha[i] - beta) * s_list[i]
    return r


class TestTwoLoopBitwise:
    """A bounded store's ``apply_inverse`` reads rho from the pair it was
    cached with; its output must equal the per-call recursion bit for bit,
    also after the store has dropped pairs by FIFO eviction, by
    ``remove_oldest`` and by enforcement."""

    SCALES = 10.0 ** np.arange(-3.0, 4.0)

    def assert_bitwise(self, store, rng):
        for scale in self.SCALES:
            g = scale * rng.standard_normal(store.dim)
            assert (store.apply_inverse(g).tobytes()
                    == reference_two_loop(store, g).tobytes())

    @staticmethod
    def insert_random(store, rng, count):
        inserted = 0
        while inserted < count:
            s = rng.standard_normal(store.dim)
            y = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(store.dim)
            inserted += store.try_insert(s, y)

    @pytest.mark.parametrize("dim", [4, 256])
    def test_fifo_eviction_and_remove_oldest(self, dim):
        rng = np.random.default_rng(dim + 1)
        capacity = min(10, dim // 2)
        store = CurvaturePairStore(dim, capacity, c=1.3)
        for _ in range(30):
            self.insert_random(store, rng, 1)
            self.assert_bitwise(store, rng)
        assert len(store) == capacity
        for _ in range(capacity // 2):
            store.remove_oldest()
            self.assert_bitwise(store, rng)
        self.insert_random(store, rng, 3)
        self.assert_bitwise(store, rng)

    @pytest.mark.parametrize("dim", [4, 256])
    def test_enforce_spectrum(self, dim):
        rng = np.random.default_rng(dim + 2)
        capacity = min(10, dim // 2)
        store = CurvaturePairStore(dim, capacity, c=1.0)
        store.try_insert(np.eye(dim)[0], 1e3 * np.eye(dim)[0])
        # Newer pairs orthogonal to the offender, with y close to s, leave
        # its eigenvalue 1e3 in place and stay inside the band themselves.
        for _ in range(capacity - 1):
            s = rng.standard_normal(dim)
            y = s + 0.1 * rng.standard_normal(dim)
            s[0] = y[0] = 0.0
            assert store.try_insert(s, y)
        removed = store.enforce_spectrum(SpectrumBounds(1e-3, 1e2))
        assert 0 < removed < capacity
        self.assert_bitwise(store, rng)
        self.insert_random(store, rng, 2)
        self.assert_bitwise(store, rng)


def dense_models(s_list, y_list, models):
    """``B`` and ``H = B^{-1}`` after BFGS updates over the pairs, oldest
    first, from ``models = (B, H)``.  The textbook expressions, sharing no
    code with the store; a pair whose computed ``s^T B s`` is not positive
    updates neither model, as in the store."""
    b, h = models
    for s, y in zip(s_list, y_list):
        bs = b @ s
        sbs = float(s @ bs)
        if not sbs > 0.0:
            continue
        sy = float(y @ s)
        b = b - np.outer(bs, bs) / sbs + np.outer(y, y) / sy
        rho = 1.0 / sy
        hy = h @ y
        h = (h - rho * (np.outer(s, hy) + np.outer(hy, s))
             + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
    return b, h


def base_models(store):
    return store.c * np.eye(store.dim), np.eye(store.dim) / store.c


class TestDenseDirection:
    """An unbounded store's ``apply_inverse`` is its kept ``H`` times ``g``:
    the dense model the census reads, not a two-loop over the stored
    pairs.  An empty store returns ``g / c``."""

    SCALES = TestTwoLoopBitwise.SCALES
    insert_random = staticmethod(TestTwoLoopBitwise.insert_random)

    def assert_dense(self, store, h, rng):
        for scale in self.SCALES:
            g = scale * rng.standard_normal(store.dim)
            d = store.apply_inverse(g)
            if not len(store):
                assert d.tobytes() == (g / store.c).tobytes()
                continue
            reference = h @ g
            assert (np.linalg.norm(d - reference)
                    <= 1e-9 * np.linalg.norm(reference))

    @pytest.mark.parametrize("dim", [4, 256])
    def test_unbounded_store_up_to_200_pairs(self, dim):
        rng = np.random.default_rng(dim)
        store = CurvaturePairStore(dim, None, c=0.7)
        models = base_models(store)
        self.assert_dense(store, models[1], rng)
        for _ in range(40):
            done = len(store)
            self.insert_random(store, rng, 5)
            # Random pairs never repeat an s, so the stored pairs grow by
            # appending and the reference extends its models with the new
            # ones.
            models = dense_models(store.s_list[done:], store.y_list[done:],
                                  models)
            self.assert_dense(store, models[1], rng)
        assert len(store) == 200

    @pytest.mark.parametrize("dim", [4, 256])
    def test_clear(self, dim):
        rng = np.random.default_rng(dim + 3)
        store = CurvaturePairStore(dim, None, c=1.0)
        self.insert_random(store, rng, 20)
        store.clear()
        self.assert_dense(store, None, rng)
        self.insert_random(store, rng, 7)
        _, h = dense_models(store.s_list, store.y_list, base_models(store))
        self.assert_dense(store, h, rng)

    def test_skipped_pair_does_not_enter_the_direction(self):
        # The newest of the three stored pairs met a computed s^T B s <= 0,
        # so it updated neither B nor H: the direction is that of a store
        # holding only the first two, where the two-loop applied all three.
        store, _, _ = degenerate_sequence()
        assert len(store) == 3
        kept = CurvaturePairStore(4, None)
        for s, y in zip(store.s_list[:2], store.y_list[:2]):
            assert kept.try_insert(s, y)
        g = np.random.default_rng(5).standard_normal(4)
        assert store.apply_inverse(g).tobytes() == kept.apply_inverse(g).tobytes()
        assert not np.allclose(store.apply_inverse(g),
                               reference_two_loop(store, g))
