"""An unbounded store collapses a run of pairs that share one ``s``.

After a rejected step the solver offers a pair whose ``s`` repeats the
newest pair's.  The newest BFGS update gives ``B s = y_1``, so
``BFGS(BFGS(B, s, y_1), s, y_2) = BFGS(B, s, y_2)``: an unbounded store
replaces the newest pair instead of appending, and its dense ``B`` and
``H`` are then the updates over exactly the stored pairs.  A bounded store
keeps appending.
"""

import numpy as np
import pytest

from qsass.bench import ExperimentSpec, run_experiment, write_experiment
from qsass.store import CurvaturePairStore

from test_bench import read_tree


def spd_matrix(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * 10.0 ** rng.uniform(-1.0, 1.0, n)) @ q.T


def curved_y(rng, a, s):
    """A gradient difference for ``s`` under the SPD ``a``, with noise, of
    positive curvature."""
    while True:
        y = a @ s + 0.3 * np.linalg.norm(a @ s) / np.sqrt(len(s)) \
            * rng.standard_normal(len(s))
        if s @ y > 1e-6 * np.linalg.norm(s) * np.linalg.norm(y):
            return y


def repeated_runs(rng, a, runs):
    """``runs`` lists of pairs; each list shares one ``s`` and holds 1 to 3
    pairs, as the pairs after a run of rejected steps."""
    result = []
    for _ in range(runs):
        s = 10.0 ** rng.uniform(-2.0, 1.0) * rng.standard_normal(len(a))
        result.append([(s, curved_y(rng, a, s))
                       for _ in range(rng.integers(1, 4))])
    return result


def append_only_two_loop(pairs, g, c):
    """The two-loop recursion over every pair offered, none collapsed."""
    q = np.array(g, dtype=float)
    alphas = []
    for s, y in reversed(pairs):
        alpha = float(s @ q) / float(s @ y)
        alphas.append(alpha)
        q -= alpha * y
    r = q / c
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - float(y @ r) / float(s @ y)) * s
    return r


def fed(pairs, c):
    store = CurvaturePairStore(len(pairs[0][0]), None, c=c)
    for s, y in pairs:
        assert store.try_insert(s, y)
    return store


def assert_same_models(store, other):
    assert store._b.tobytes() == other._b.tobytes()
    assert store._h.tobytes() == other._h.tobytes()


def assert_holds(store, pairs):
    assert len(store) == len(pairs)
    for (s, y), s_kept, y_kept in zip(pairs, store.s_list, store.y_list):
        assert s_kept.tobytes() == s.tobytes()
        assert y_kept.tobytes() == y.tobytes()


class TestCollapsedRuns:
    @pytest.mark.parametrize("seed", range(12))
    def test_store_holds_the_newest_pair_of_each_run(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        c = 10.0 ** rng.uniform(-0.5, 0.5)
        runs = repeated_runs(rng, spd_matrix(rng, n), int(rng.integers(2, 7)))
        offered = [pair for run in runs for pair in run]
        collapsed = [run[-1] for run in runs]
        store = fed(offered, c)
        assert_holds(store, collapsed)

        # The model is the append-only one in exact arithmetic.
        for _ in range(4):
            g = rng.standard_normal(n)
            d = store.apply_inverse(g)
            reference = append_only_two_loop(offered, g, c)
            assert (np.linalg.norm(d - reference)
                    <= 1e-14 * np.linalg.norm(reference))

        # B and H are bit for bit the updates over the stored pairs.
        fresh = fed(collapsed, c)
        assert_same_models(store, fresh)
        for _ in range(2):
            g = rng.standard_normal(n)
            assert (store.apply_inverse(g).tobytes()
                    == fresh.apply_inverse(g).tobytes())
        b, h = store._b.copy(), store._h.copy()
        store._after_removal()
        assert store._b.tobytes() == b.tobytes()
        assert store._h.tobytes() == h.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_replacement_after_a_rebuild(self, seed):
        """``remove_oldest`` and ``clear`` rebuild the models kept from
        before the newest pair, which the next replacement goes back to."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        a = spd_matrix(rng, n)
        runs = repeated_runs(rng, a, 4)
        store = fed([pair for run in runs for pair in run], 1.0)
        store.remove_oldest()
        s = runs[-1][0][0]
        y = curved_y(rng, a, s)
        assert store.try_insert(s, y)
        kept = [run[-1] for run in runs[1:-1]] + [(s, y)]
        assert_holds(store, kept)
        assert_same_models(store, fed(kept, 1.0))

        store.clear()
        y_next = curved_y(rng, a, s)
        assert store.try_insert(s, y) and store.try_insert(s, y_next)
        assert_holds(store, [(s, y_next)])
        assert_same_models(store, fed([(s, y_next)], 1.0))

    def test_equal_by_value_not_by_bytes(self):
        store = CurvaturePairStore(2, None)
        assert store.try_insert([0.0, 1.0], [0.5, 2.0])
        assert store.try_insert([-0.0, 1.0], [0.1, 3.0])
        assert len(store) == 1
        assert_same_models(store, fed([(np.array([-0.0, 1.0]),
                                        np.array([0.1, 3.0]))], 1.0))

    def test_only_the_newest_pair_is_replaced(self):
        store = CurvaturePairStore(3, None)
        e = np.eye(3)
        assert store.try_insert(e[0], 2.0 * e[0])
        assert store.try_insert(e[1], 3.0 * e[1])
        assert store.try_insert(e[0], 4.0 * e[0])
        assert len(store) == 3

    def test_rejected_pair_replaces_nothing(self):
        store = CurvaturePairStore(2, None)
        assert store.try_insert([1.0, 0.0], [2.0, 0.0])
        assert not store.try_insert([1.0, 0.0], [-1.0, 0.0])
        assert_holds(store, [(np.array([1.0, 0.0]), np.array([2.0, 0.0]))])


def test_bounded_store_appends_a_repeated_s():
    store = CurvaturePairStore(4, 2)
    s = np.array([1.0, 0.5, 0.0, 0.0])
    assert store.try_insert(s, 2.0 * s)
    assert store.try_insert(s, 3.0 * s)
    assert len(store) == 2


def append_only_try_insert(self, s, y):
    """``CurvaturePairStore.try_insert`` before an unbounded store
    collapsed a repeated ``s``: every admitted pair is appended."""
    s = self._check_vector(s, "s")
    y = self._check_vector(y, "y")
    sy = float(s @ y)
    if sy <= self.curvature_tol:
        return False
    if self.capacity == 0:
        return False
    rho = 1.0 / sy
    rho_ss, rho_yy = rho * float(s @ s), rho * float(y @ y)
    if not (np.isfinite(rho_ss) and np.isfinite(rho_yy)):
        rho_ss = rho_yy = np.nan
    self._pairs.append((s.copy(), y.copy(), rho, rho_ss, rho_yy))
    if self._b is not None:
        self._update_dense(s, y, rho, np.empty_like(self._b))
    self._version += 1
    return True


def tree(spec, root):
    write_experiment(run_experiment(spec), str(root))
    return read_tree(root)


def test_bounded_grids_equal_the_append_only_rule(tmp_path, monkeypatch):
    """``qsass`` and ``sass`` write the trees the append-only rule writes,
    on a grid whose bounded stores are offered repeated ``s``."""
    spec = ExperimentSpec(problems=("cosine-chain:n=4", "quadratic:n=6"),
                          solvers=("qsass", "sass"), oracle="mixed-gaussian",
                          seeds=3, max_iterations=120, name="append")
    changed = tree(spec, tmp_path / "changed")
    repeats = []

    def recording(self, s, y):
        newest = self._pairs[-1][0] if self._pairs else None
        admitted = append_only_try_insert(self, s, y)
        repeats.append(admitted and newest is not None
                       and np.array_equal(newest, s))
        return admitted

    monkeypatch.setattr(CurvaturePairStore, "try_insert", recording)
    parent = tree(spec, tmp_path / "parent")
    assert sum(repeats) > 10
    assert changed.keys() == parent.keys()
    for name in changed:
        assert changed[name] == parent[name], name
