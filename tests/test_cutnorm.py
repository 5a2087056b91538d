"""Cut-norm routines against brute-force oracles.

The oracles here enumerate *both* subset sides (2^n x 2^n pairs), fully
independent of the library's S-enumeration + greedy-T algorithm.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from cutgraphon._rng import stream
from cutgraphon.cutnorm import HEURISTIC_ITERS, kernel_witness_value, matrix_witness_value
from cutgraphon.experiments import default_model
from cutgraphon.sampling import sample_graph


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


def reference_alternate_max(M, T0):
    """The ascent with every restart's value taken by einsum."""
    T = T0
    S = np.zeros((M.shape[0], T.shape[1]))
    for _ in range(HEURISTIC_ITERS):
        S_new = (M @ T > 0).astype(float)
        T_new = (M.T @ S_new > 0).astype(float)
        if np.array_equal(S_new, S) and np.array_equal(T_new, T):
            break
        S, T = S_new, T_new
    vals = np.einsum("ir,ij,jr->r", S, M, T)
    return vals, S, T


def reference_rectangle_sum_heuristic(M, restarts, seed):
    """Ascent on M and -M; the first best restart, then the first sign, wins."""
    k2 = M.shape[1]
    rand = cutnorm._heuristic_starts(k2, max(restarts - 2, 0), seed)
    ones = np.ones((k2, 1))
    csign = (M.sum(axis=0) > 0).astype(float)[:, None]
    T0 = np.hstack([ones, csign] + ([rand] if rand.size else []))
    best = (0.0, np.array([], dtype=int), np.array([], dtype=int))
    for sign in (1.0, -1.0):
        vals, S, T = reference_alternate_max(sign * M, T0)
        r = int(np.argmax(vals))
        if vals[r] > best[0]:
            best = (float(vals[r]), np.flatnonzero(S[:, r]), np.flatnonzero(T[:, r]))
    return best


def copied_alternate_max(M, T0):
    """The ascent as it stood when the negative pass ran on a copy of -M,
    verbatim but for comments, with `_rectangle_sum` (an np.ix_ gather) inline."""
    T = T0
    S = np.zeros((M.shape[0], T.shape[1]))
    for _ in range(HEURISTIC_ITERS):
        S_new = (M @ T > 0).astype(float)
        T_new = (M.T @ S_new > 0).astype(float)
        if np.array_equal(S_new, S) and np.array_equal(T_new, T):
            break
        S, T = S_new, T_new
    screen = ((S.T @ M) * T.T).sum(axis=1)
    margin = cutnorm._rectangle_margin(M.shape[0], M.shape[1], max(M.max(), -M.min()))
    keep = np.flatnonzero(~(screen < screen.max() - margin))
    best, exact = (-np.inf, None, None), {}
    for r in keep.tolist():
        rows, cols = np.flatnonzero(S[:, r]), np.flatnonzero(T[:, r])
        key = (rows.tobytes(), cols.tobytes())
        if key not in exact:
            X = M[np.ix_(rows, cols)] if M.flags.c_contiguous else M.T[np.ix_(cols, rows)]
            terms = X.reshape(-1)
            exact[key] = float(np.cumsum(terms, out=terms)[-1]) if terms.size else 0.0
        if exact[key] > best[0]:
            best = (exact[key], rows, cols)
    return best


def copied_rectangle_sum_heuristic(M, restarts, seed):
    """The heuristic's (M, -M) route, verbatim but for comments."""
    if not (M.flags.c_contiguous or M.flags.f_contiguous):
        M = np.array(M, order="K")
    k2 = M.shape[1]
    rand = cutnorm._heuristic_starts(k2, max(restarts - 2, 0), seed)
    ones = np.ones((k2, 1))
    csign = (M.sum(axis=0) > 0).astype(float)[:, None]
    T0 = np.hstack([ones, csign] + ([rand] if rand.size else []))
    best = (0.0, np.array([], dtype=int), np.array([], dtype=int))
    for signed in (M, -M):
        val, rows, cols = copied_alternate_max(signed, T0)
        if val > best[0]:
            best = (val, rows, cols)
    return best


def reference_max_rectangle_sum(M: np.ndarray):
    """The one-matrix exact search as it stood before it took stacks, verbatim
    but for reading the budget from `cutnorm`."""
    transposed = M.shape[0] > M.shape[1]
    A = M.T if transposed else M
    m = A.shape[0]
    if m > cutnorm.EXACT_BUDGET:
        raise BudgetError(f"exact cut norm: enumerated side {m} exceeds budget {cutnorm.EXACT_BUDGET}")
    bits = np.arange(m)
    best_val = 0.0
    best_subset = 0
    best_sign = 1
    chunk = 1 << 16
    for lo in range(0, 1 << m, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << m), dtype=np.int64)
        masks = ((idx[:, None] >> bits) & 1).astype(float)
        colsums = masks @ A
        pos = np.where(colsums > 0, colsums, 0.0).sum(axis=1)
        neg = np.where(colsums < 0, -colsums, 0.0).sum(axis=1)
        vals = np.maximum(pos, neg)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_subset = int(idx[j])
            best_sign = 1 if pos[j] >= neg[j] else -1
    rows = np.flatnonzero([(best_subset >> b) & 1 for b in range(m)])
    if transposed:
        # we enumerated columns of M; the greedy side is rows of M
        rowsum = M[:, rows].sum(axis=1)
        other = np.flatnonzero(rowsum > 0) if best_sign > 0 else np.flatnonzero(rowsum < 0)
        return best_val, other, rows
    colsum = M[rows].sum(axis=0)
    other = np.flatnonzero(colsum > 0) if best_sign > 0 else np.flatnonzero(colsum < 0)
    return best_val, rows, other


def random_kernel(rng, q1, q2):
    v = rng.uniform(-1, 1, (q1, q2))
    rw = rng.uniform(0.05, 0.3, q1)
    cw = rng.uniform(0.05, 0.3, q2)
    return Kernel(v, rw, cw)


class TestExactMatrix:
    def test_signed_checkerboard(self):
        r = matrix_cut_norm_exact(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert r.value == pytest.approx(0.25, abs=1e-15)
        assert r.method == "exact"

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

    @pytest.mark.parametrize("S, T", [([0, 0, 1, 1, 2, 2], [0, 1, 2]), ([-1], [0]), ([0], [3]),
                                      ([0.0], [1]), ([[0]], [1])],
                             ids=["repeated", "negative", "out-of-range", "float", "2-d"])
    def test_witness_replay_rejects_malformed_indices(self, S, T):
        # the repeated S replayed 2.0 here, twice the exact cut
        b = np.ones((3, 3))
        k = Kernel(b, np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert matrix_cut_norm_exact(b).value == 1.0
        assert matrix_witness_value(b, [], [0]) == kernel_witness_value(k, [0], []) == 0.0
        for replay, arg in ((matrix_witness_value, b), (kernel_witness_value, k)):
            with pytest.raises(ValidationError):
                replay(arg, S, T)
            with pytest.raises(ValidationError):
                replay(arg, T, S)

    def test_greedy_side_excludes_zero_sum_columns(self):
        # column 2 sums to zero over every row subset; it must never appear
        b = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        r = matrix_cut_norm_exact(b)
        assert 2 not in r.witness_t.tolist()

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            matrix_cut_norm_exact(np.zeros((25, 25)))

    @pytest.mark.parametrize("route", [
        matrix_cut_norm_exact, matrix_cut_norm_heuristic, inf1_norm, cut_norm_sandwich_check,
        lambda B: matrix_witness_value(B, [0], [0])],
        ids=["exact", "heuristic", "inf1", "sandwich", "witness"])
    def test_rejects_non_square(self, route):
        # the matrix conventions divide by n^2; a 2 x 3 array of ones would
        # read 6 / 2^2 = 1.5, a cut norm above 1
        with pytest.raises(ValidationError, match="square"):
            route(np.ones((2, 3)))

    def test_rectangular_transpose_path(self):
        # kernels can be rectangular with q1 > q2; exact must transpose internally
        rng = np.random.default_rng(5)
        v = rng.uniform(-1, 1, (5, 3))
        k = Kernel(v, np.full(5, 0.2), np.full(3, 1 / 3))
        got = step_kernel_cut_norm_exact(k).value
        want = oracle_kernel_cut(v, np.full(5, 0.2), np.full(3, 1 / 3))
        assert got == pytest.approx(want, abs=1e-12)

    @given(
        st.integers(1, 9),
        st.integers(1, 6),
        st.integers(1, 3),
        st.booleans(),
        st.sampled_from(["C", "F"]),
        st.sampled_from(["integer", "uniform"]),
        st.integers(0, 10_000),
    )
    # sides of 17 and 20 cross the 2^16-subset chunks (0.1 and 0.7 s a search)
    @example(17, 2, 2, True, "F", "integer", 1)
    @example(20, 1, 1, False, "C", "integer", 2)
    @settings(max_examples=40, deadline=None)
    def test_stacked_search_matches_reference(self, side, extra, q, tall, order, values, seed):
        # integer grids make ties between subsets; tall matrices (rows > cols)
        # take the transposed branch
        rng = np.random.default_rng(seed)
        shape = (q, side + extra - 1, side) if tall else (q, side, side + extra - 1)
        if values == "integer":
            Ms = rng.integers(-2, 3, shape).astype(float)
        else:
            Ms = rng.uniform(-1, 1, shape)
        if order == "F":
            Ms = Ms.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        vals, _, _ = cutnorm._max_rectangle_sum(Ms)
        for M, val in zip(Ms, vals):
            want, want_rows, want_cols = reference_max_rectangle_sum(M)
            got, rows, cols = cutnorm._best_rectangle(M)
            assert repr(got) == repr(want) == repr(float(val))
            assert np.array_equal(rows, want_rows) and rows.dtype == want_rows.dtype
            assert np.array_equal(cols, want_cols) and cols.dtype == want_cols.dtype


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

    @given(st.integers(1, 300), st.integers(0, 40), st.integers(0, 2**63), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_cached_start_columns_keep_their_draws(self, n_cols, restarts, seed, warm):
        # one stream per restart, as before the columns were cached: a call
        # that warms some of them first changes no draw
        cutnorm._heuristic_starts(n_cols, warm, seed)
        got = cutnorm._heuristic_starts(n_cols, restarts, seed)
        want = np.array([stream(seed, "cut-heur", r).integers(0, 2, size=n_cols)
                         for r in range(restarts)], dtype=float).T
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want) and got.flags.writeable
        info = cutnorm._start_column.cache_info()
        assert info.currsize <= info.maxsize == cutnorm._START_COLUMNS
        with pytest.raises(ValueError):
            cutnorm._start_column(n_cols, seed, 0)[0] = 2.0

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
        assert r.method == "heuristic"

    def test_restart_validation(self):
        with pytest.raises(ValidationError):
            matrix_cut_norm_heuristic(np.zeros((2, 2)), restarts=0)

    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(2, 16),
        st.integers(0, 10_000),
        st.sampled_from(["integer", "tenths", "uniform"]),
        st.sampled_from(["C", "strided"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_einsum_reference(self, n1, n2, restarts, seed, values, order):
        # integer and tenths grids make ties and restarts that converge
        # together; uniform values make every summation order count
        rng = np.random.default_rng(seed)
        if values == "uniform":
            M = rng.uniform(-1, 1, (n1, n2))
        else:
            M = rng.integers(-2, 3, (n1, n2)) * (1.0 if values == "integer" else 0.1)
        if order == "strided":       # a view on every other row of a larger matrix
            M = np.repeat(M, 2, axis=0)[::2]
        raw, rows, cols = cutnorm._max_rectangle_sum_heuristic(M, restarts, seed)
        ref_raw, ref_rows, ref_cols = reference_rectangle_sum_heuristic(M, restarts, seed)
        assert repr(raw) == repr(ref_raw)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("shape", [(512, 512), (256, 256), (300, 7), (1, 40), (64, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_screen_error_is_far_inside_margin(self, shape, order):
        # every restart's screened value against its exact sum, on the
        # ascent's own end points and on random rectangles; the margin is a
        # proven bound, this is its headroom
        rng = np.random.default_rng(shape[0] + shape[1])
        M = np.asarray(rng.uniform(-1, 1, shape), order=order)
        T0 = (rng.uniform(size=(shape[1], 16)) < 0.5).astype(float)
        _, S, T = reference_alternate_max(M, T0)
        S = np.hstack([S, (rng.uniform(size=(shape[0], 16)) < 0.5).astype(float)])
        T = np.hstack([T, (rng.uniform(size=(shape[1], 16)) < 0.5).astype(float)])
        # screened from S^T M, and as the ascent screens, from its last product M^T S
        screens = [((S.T @ M) * T.T).sum(axis=1), ((M.T @ S) * T).sum(axis=0)]
        worst = 0.0
        for r in range(S.shape[1]):
            exact = cutnorm._rectangle_sum(M, np.flatnonzero(S[:, r]), np.flatnonzero(T[:, r]))
            worst = max(worst, *(abs(screen[r] - exact) for screen in screens))
        mx = max(M.max(), -M.min())
        assert worst <= cutnorm._rectangle_margin(shape[0], shape[1], mx) / 16

    @pytest.mark.parametrize("order", ["C"])
    def test_exact_sum_is_einsum(self, order):
        # two or more restart columns: einsum adds each rectangle term by
        # term in M's memory order, row-major for the C-ordered M that
        # `_rectangle_sum` requires
        rng = np.random.default_rng(5)
        M = np.asarray(rng.uniform(-1, 1, (90, 70)), order=order)
        S = (rng.uniform(size=(90, 6)) < 0.5).astype(float)
        T = (rng.uniform(size=(70, 6)) < 0.5).astype(float)
        want = np.einsum("ir,ij,jr->r", S, M, T)
        for r in range(6):
            got = cutnorm._rectangle_sum(M, np.flatnonzero(S[:, r]), np.flatnonzero(T[:, r]))
            assert repr(got) == repr(float(want[r]))

    @pytest.mark.parametrize("restarts", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("order", ["C", "strided"])
    def test_negative_pass_matches_copy_of_minus_m(self, order, restarts):
        # the negative pass negates M's products and sums instead of copying
        # -M; quarter grids make ties in every comparison and many restarts
        # that end on the same rectangle, or on one of sum zero
        rng = np.random.default_rng(restarts)
        for shape in [(9, 9), (40, 33), (130, 130), (7, 300), (512, 512)]:
            for values in ["quarter", "uniform"]:
                if values == "quarter":
                    M = rng.integers(-4, 5, shape) * 0.25
                else:
                    M = rng.uniform(-1, 1, shape)
                if order == "strided":
                    M = np.repeat(M, 2, axis=0)[::2]
                got = cutnorm._max_rectangle_sum_heuristic(M, restarts, 7)
                want = copied_rectangle_sum_heuristic(M, restarts, 7)
                assert repr(got[0]) == repr(want[0])
                assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    @staticmethod
    def layouts(rng, order):
        """Quarter-grid and uniform matrices of several shapes in one layout."""
        for shape in [(9, 9), (40, 33), (130, 130), (7, 300)]:
            for values in ["quarter", "uniform"]:
                if values == "quarter":
                    M = rng.integers(-4, 5, shape) * 0.25
                else:
                    M = rng.uniform(-1, 1, shape)
                yield np.repeat(M, 2, axis=0)[::2] if order == "strided" else M

    @pytest.mark.parametrize("order", ["C", "strided"])
    def test_capped_ascent_matches_reference_at_the_same_cap(self, monkeypatch, order):
        # no test shape reaches HEURISTIC_ITERS sweeps; patched down to 1, 2
        # and 3, the cap cuts the ascent short, and the heuristic must still
        # end where the reference ends when it reads the same cap
        rng = np.random.default_rng(11)
        cut_short = 0
        for M in self.layouts(rng, order):
            for restarts in (2, 8):
                full = cutnorm._max_rectangle_sum_heuristic(M, restarts, 5)
                for cap in (1, 2, 3):
                    with monkeypatch.context() as mp:
                        mp.setattr(cutnorm, "HEURISTIC_ITERS", cap)
                        mp.setitem(globals(), "HEURISTIC_ITERS", cap)
                        got = cutnorm._max_rectangle_sum_heuristic(M, restarts, 5)
                        want = reference_rectangle_sum_heuristic(M, restarts, 5)
                    assert repr(got[0]) == repr(want[0])
                    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
                    cut_short += repr(got[0]) != repr(full[0])
        assert cut_short > 0

    @pytest.mark.parametrize("order", ["C", "strided"])
    def test_ascent_started_at_its_fixed_point(self, order):
        # started from the pair the ascent ended on, it stops after one
        # sweep: the value and witness are the reference's from that start.
        # A strided M reaches the ascent as the C-ordered copy that
        # `core`'s input rule makes of it.
        rng = np.random.default_rng(12)
        for M in self.layouts(rng, order):
            A = np.ascontiguousarray(M)
            margin = cutnorm._rectangle_margin(*A.shape, max(A.max(), -A.min()))
            T0 = (rng.uniform(size=(A.shape[1], 6)) < 0.5).astype(float)
            for sign in (1.0, -1.0):
                _, S_end, T_end = reference_alternate_max(sign * M, T0)
                vals, S, T = reference_alternate_max(sign * M, T_end)
                assert np.array_equal(S, S_end) and np.array_equal(T, T_end)
                r = int(np.argmax(vals))
                val, rows, cols = cutnorm._alternate_max(A, T_end, A @ T_end, sign, margin)
                assert val == vals[r]
                assert np.array_equal(rows, np.flatnonzero(S[:, r]))
                assert np.array_equal(cols, np.flatnonzero(T[:, r]))

    def test_risk_matrix_shape_is_pinned(self):
        # n = 512 and 8 restarts, as in the matrix-level cut risk; recorded
        # with every restart's value taken by einsum
        spec = default_model(8)
        _, theta, A = sample_graph(spec, 512, 3)
        D = A.values - theta.values
        r = matrix_cut_norm_heuristic(D, restarts=8, seed=3)
        assert repr(r.value) == "0.007796096801758601"
        digests = [hashlib.sha256(np.asarray(w, dtype=np.int64).tobytes()).hexdigest()
                   for w in (r.witness_s, r.witness_t)]
        assert digests == ["d06561f59d6c9c6dbea9c78046bb3acdbba221a33a018deddd03fade991958f5",
                           "4765f4a5fd38667316f3d5f712d43b32c0663df61349d43a913e2376c55712bd"]


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

    def test_heuristic_routes_above_exact_budget(self):
        n = 32
        assert n > cutnorm.EXACT_BUDGET
        b = np.random.default_rng(32).uniform(-1, 1, (n, n))
        sw = cut_norm_sandwich_check(b, seed=5)
        assert (sw.cut.method, sw.inf1.method) == ("heuristic", "heuristic")
        S, T = sw.cut.witness_s, sw.cut.witness_t
        # two sums of the same |S| |T| terms in different orders
        bound = 2 * len(S) * len(T) * np.finfo(float).eps * np.abs(b[np.ix_(S, T)]).sum() / n**2
        assert abs(matrix_witness_value(b, S, T) - sw.cut.value) <= bound
        assert float(sw.inf1.witness_s @ b @ sw.inf1.witness_t) / n**2 == sw.inf1.value
        again = cut_norm_sandwich_check(b, seed=5)
        for r, r2 in ((sw.cut, again.cut), (sw.inf1, again.inf1)):
            assert r.value == r2.value
            assert np.array_equal(r.witness_s, r2.witness_s)
            assert np.array_equal(r.witness_t, r2.witness_t)
        assert sw.satisfied == again.satisfied


class TestKernelBounds:
    def test_khintchine_on_checkerboard(self):
        k = Kernel([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        r = khintchine_lower_bound(k)
        assert r.value == pytest.approx(0.125)
        assert r.method == "khintchine_lower" and r.witness_s is None

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
                assert r.method == "qsubset_upper"
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
        assert q_subset_upper_bound(k, 2).method == "qsubset_upper"

    def test_q_subset_budget_before_building_subsets(self):
        # 190051 subsets of size <= 6 per side: over budget, which is known
        # before any subset is built (36 MB of masks per side otherwise)
        k = Kernel(np.full((24, 24), 0.5), np.full(24, 1 / 24), np.full(24, 1 / 24))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="190051 x 190051"):
                q_subset_upper_bound(k, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_q_subset_rejects_values_outside_unit_range(self):
        # a kernel only the package can build: through the unchecked route the
        # additive term no longer covers the subset error, and q = 1 would
        # certify 4.222222222222221 against the exact 4.444444444444444
        w = np.full(3, 1 / 3)
        k = Kernel._owning(np.array([[0.0, 0.0, 10.0], [0.0, 20.0, 0.0], [20.0, -10.0, 0.0]]), w, w)
        assert step_kernel_cut_norm_exact(k).value == pytest.approx(4.444444444444444, abs=1e-12)
        with pytest.raises(ValidationError, match=r"max \|K\| = 20.0"):
            q_subset_upper_bound(k, 1)
        edge = Kernel._owning(np.array([[1.0 + 1e-12, -1.0]]), np.ones(1), np.full(2, 0.5))
        assert q_subset_upper_bound(edge, 1).method == "qsubset_upper"
        with pytest.raises(ValidationError):
            q_subset_upper_bound(Kernel._owning(np.array([[-1.0 - 2e-12]]), w[:1], w[:1]), 1)

    def test_q_subset_validates_q(self):
        k = Kernel([[0.5]], [1.0], [1.0])
        with pytest.raises(ValidationError):
            q_subset_upper_bound(k, 0)
        with pytest.raises(ValidationError):
            q_subset_upper_bound(k, 2)
