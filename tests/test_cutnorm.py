"""Cut-norm routines against brute-force oracles.

The oracles here enumerate *both* subset sides (2^n x 2^n pairs), fully
independent of the library's S-enumeration + greedy-T algorithm.
"""

import itertools

import numpy as np
import pytest

from cutgraphon import (
    BudgetError,
    Kernel,
    ValidationError,
    cut_norm_sandwich_check,
    cutnorm,
    inf1_norm,
    khintchine_lower_bound,
    matrix_cut_norm_exact,
    matrix_cut_norm_heuristic,
    q_subset_upper_bound,
    step_kernel_cut_norm_exact,
)
from cutgraphon.cutnorm import kernel_witness_value, matrix_witness_value


def oracle_matrix_cut(B):
    """max over all subset pairs, both sides enumerated."""
    n = B.shape[0]
    best = 0.0
    for smask in itertools.product([0, 1], repeat=n):
        rows = [i for i in range(n) if smask[i]]
        if not rows:
            continue
        for tmask in itertools.product([0, 1], repeat=n):
            cols = [j for j in range(n) if tmask[j]]
            if not cols:
                continue
            best = max(best, abs(B[np.ix_(rows, cols)].sum()))
    return best / n**2


def oracle_kernel_cut(q, rw, cw):
    q1, q2 = q.shape
    best = 0.0
    for smask in itertools.product([0, 1], repeat=q1):
        for tmask in itertools.product([0, 1], repeat=q2):
            s = 0.0
            for a in range(q1):
                for b in range(q2):
                    if smask[a] and tmask[b]:
                        s += rw[a] * cw[b] * q[a, b]
            best = max(best, abs(s))
    return best


def oracle_inf1(B):
    n = B.shape[0]
    best = -np.inf
    for f in itertools.product([-1, 1], repeat=n):
        for g in itertools.product([-1, 1], repeat=n):
            best = max(best, float(np.array(f) @ B @ np.array(g)))
    return best / n**2


def random_kernel(rng, q1, q2):
    v = rng.uniform(-1, 1, (q1, q2))
    rw = rng.uniform(0.05, 0.3, q1)
    cw = rng.uniform(0.05, 0.3, q2)
    return Kernel(v, rw, cw)


class TestExactMatrix:
    def test_signed_checkerboard(self):
        r = matrix_cut_norm_exact(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert r.value == pytest.approx(0.25, abs=1e-15)
        assert r.method == "exact" and r.is_upper_bound

    def test_all_ones(self):
        r = matrix_cut_norm_exact(np.ones((3, 3)))
        assert r.value == pytest.approx(1.0)
        assert len(r.witness_s) == 3 and len(r.witness_t) == 3

    def test_zero_matrix(self):
        r = matrix_cut_norm_exact(np.zeros((4, 4)))
        assert r.value == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_double_enumeration_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            b = rng.uniform(-1, 1, (n, n))
            r = matrix_cut_norm_exact(b)
            assert r.value == pytest.approx(oracle_matrix_cut(b), abs=1e-12)

    def test_witness_replays_value(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(-1, 1, (7, 7))
        r = matrix_cut_norm_exact(b)
        assert matrix_witness_value(b, r.witness_s, r.witness_t) == pytest.approx(
            r.value, abs=1e-9
        )

    def test_greedy_side_excludes_zero_sum_columns(self):
        # column 2 sums to zero over every row subset; it must never appear
        b = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        r = matrix_cut_norm_exact(b)
        assert 2 not in r.witness_t.tolist()

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            matrix_cut_norm_exact(np.zeros((25, 25)))

    def test_rectangular_transpose_path(self):
        # kernels can be rectangular with q1 > q2; exact must transpose internally
        rng = np.random.default_rng(5)
        v = rng.uniform(-1, 1, (5, 3))
        k = Kernel(v, np.full(5, 0.2), np.full(3, 1 / 3))
        got = step_kernel_cut_norm_exact(k).value
        want = oracle_kernel_cut(v, np.full(5, 0.2), np.full(3, 1 / 3))
        assert got == pytest.approx(want, abs=1e-12)


class TestExactKernel:
    def test_checkerboard_half_weights(self):
        k = Kernel([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        assert step_kernel_cut_norm_exact(k).value == pytest.approx(0.25)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3), (5, 5)])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        for _ in range(6):
            k = random_kernel(rng, *shape)
            got = step_kernel_cut_norm_exact(k).value
            want = oracle_kernel_cut(k.values, k.row_weights, k.col_weights)
            assert got == pytest.approx(want, abs=1e-12)

    def test_witness_replays(self):
        rng = np.random.default_rng(11)
        k = random_kernel(rng, 4, 5)
        r = step_kernel_cut_norm_exact(k)
        assert kernel_witness_value(k, r.witness_s, r.witness_t) == pytest.approx(
            r.value, abs=1e-12
        )


class TestHeuristic:
    def test_never_exceeds_exact_and_mostly_matches(self):
        rng = np.random.default_rng(42)
        hits = 0
        trials = 60
        for i in range(trials):
            n = int(rng.integers(2, 9))
            b = rng.uniform(-1, 1, (n, n))
            e = matrix_cut_norm_exact(b).value
            h = matrix_cut_norm_heuristic(b, restarts=32, seed=i).value
            assert h <= e + 1e-12
            hits += h >= e - 1e-12
        assert hits >= 0.9 * trials

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, (12, 12))
        r1 = matrix_cut_norm_heuristic(b, restarts=8, seed=123)
        r2 = matrix_cut_norm_heuristic(b, restarts=8, seed=123)
        assert r1.value == r2.value
        assert np.array_equal(r1.witness_s, r2.witness_s)

    def test_witness_replays_value(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, (15, 15))
        r = matrix_cut_norm_heuristic(b, restarts=8, seed=0)
        assert matrix_witness_value(b, r.witness_s, r.witness_t) == pytest.approx(
            r.value, abs=1e-9
        )
        assert r.method == "heuristic" and not r.is_upper_bound

    def test_restart_validation(self):
        with pytest.raises(ValidationError):
            matrix_cut_norm_heuristic(np.zeros((2, 2)), restarts=0)


class TestInf1:
    def test_exact_matches_oracle(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4, 5):
            b = rng.uniform(-1, 1, (n, n))
            assert inf1_norm(b).value == pytest.approx(oracle_inf1(b), abs=1e-12)

    def test_extremal_checkerboard(self):
        assert inf1_norm(np.array([[1.0, -1.0], [-1.0, 1.0]])).value == pytest.approx(1.0)

    def test_heuristic_is_lower_bound(self, monkeypatch):
        rng = np.random.default_rng(33)
        bs = [rng.uniform(-1, 1, (9, 9)) for _ in range(10)]
        exact = [inf1_norm(b) for b in bs]
        monkeypatch.setattr(cutnorm, "INF1_EXACT_BUDGET", 8)
        for i, (b, e) in enumerate(zip(bs, exact)):
            h = inf1_norm(b, restarts=16, seed=i)
            assert (e.method, h.method) == ("exact", "heuristic")
            assert h.value <= e.value + 1e-12

    def test_heuristic_needs_a_restart(self):
        b = np.random.default_rng(8).uniform(-1, 1, (13, 13))
        with pytest.raises(ValidationError):
            inf1_norm(b, restarts=0)
        # the exact route does not restart, so 0 is accepted there
        small = b[:12, :12]
        assert inf1_norm(small, restarts=0).value == inf1_norm(small).value

    def test_witness_sign_vectors_replay(self):
        rng = np.random.default_rng(2)
        b = rng.uniform(-1, 1, (6, 6))
        r = inf1_norm(b)
        n = b.shape[0]
        assert float(r.witness_s @ b @ r.witness_t) / n**2 == pytest.approx(r.value, abs=1e-12)


class TestSandwich:
    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            b = rng.uniform(-1, 1, (n, n))
            sw = cut_norm_sandwich_check(b)
            assert sw.satisfied
            assert sw.cut.value <= sw.inf1.value + 1e-12
            assert sw.inf1.value <= 4 * sw.cut.value + 1e-12

    def test_factor_four_is_tight(self):
        sw = cut_norm_sandwich_check(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert sw.inf1.value / sw.cut.value == pytest.approx(4.0, abs=1e-12)


class TestKernelBounds:
    def test_khintchine_on_checkerboard(self):
        k = Kernel([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        r = khintchine_lower_bound(k)
        assert r.value == pytest.approx(0.125)
        assert not r.is_upper_bound and r.witness_s is None

    def test_khintchine_below_exact_randomly(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            k = random_kernel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            assert khintchine_lower_bound(k).value <= step_kernel_cut_norm_exact(k).value + 1e-12

    def test_q_subset_upper_dominates_exact(self):
        rng = np.random.default_rng(66)
        for _ in range(30):
            q1 = int(rng.integers(2, 7))
            q2 = int(rng.integers(2, 7))
            k = random_kernel(rng, q1, q2)
            e = step_kernel_cut_norm_exact(k).value
            for q in (1, 2, max(q1, q2)):
                r = q_subset_upper_bound(k, q)
                assert r.is_upper_bound
                assert r.value >= e - 1e-12

    def test_q_subset_additive_term_at_full_q(self):
        # at q = k the subset max recovers the exact value, so bound = exact + additive
        k = Kernel([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        r = q_subset_upper_bound(k, 2)
        additive = (1.0 * np.sqrt(2 * 0.5) + 1.0 * np.sqrt(2 * 0.5)) / np.sqrt(2)
        assert r.value == pytest.approx(0.25 + additive, abs=1e-12)

    def test_q_subset_pair_budget(self, monkeypatch):
        # q=2 on a 4 x 4 kernel: 11 row subsets x 11 column subsets
        k = Kernel(np.full((4, 4), 0.5), np.full(4, 0.25), np.full(4, 0.25))
        monkeypatch.setattr(cutnorm, "Q_SUBSET_PAIR_BUDGET", 120)
        with pytest.raises(BudgetError):
            q_subset_upper_bound(k, 2)
        monkeypatch.setattr(cutnorm, "Q_SUBSET_PAIR_BUDGET", 121)
        assert q_subset_upper_bound(k, 2).is_upper_bound

    def test_q_subset_validates_q(self):
        k = Kernel([[0.5]], [1.0], [1.0])
        with pytest.raises(ValidationError):
            q_subset_upper_bound(k, 0)
        with pytest.raises(ValidationError):
            q_subset_upper_bound(k, 2)
