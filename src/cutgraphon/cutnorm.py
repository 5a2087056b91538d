"""Cut norms of matrices and step kernels, exact and approximate.

Conventions (callers convert between them explicitly):

* matrix cut norm of an n x n matrix argument B (a ProbMatrix or a
  nonempty, square, finite array, by `core`'s one rule):
      (1/n^2) * max_{S,T subsets of [n]} | sum_{i in S, j in T} B_ij |
* step-kernel cut norm of a kernel K with step weights (alpha, beta):
      max_{S,T} | sum_{a in S, b in T} alpha_a beta_b K_ab |
  i.e. the weighted integral, no extra normalization.

The exact routines enumerate one index side and solve the other side
greedily: for fixed S, the best T consists of exactly the columns whose
S-restricted (weighted) sum is strictly positive (resp. negative) —
zero-sum columns are never included. One search does this for a whole stack
of matrices (`_max_rectangle_sum`), each bit for bit as if it were alone;
one matrix's exact cut and rectangle are the stack of one (`_best_rectangle`).
The heuristic alternates those two greedy steps from random starts, for each
sign on M itself, and returns a replayable certificate, so its value is always
a lower bound on the true cut norm. The ascent stops at the first product that
repeats its predecessor, where sweeping on would change nothing. Its restarts'
end values are screened from its last product, and only the rectangles that a
proven rounding margin leaves in contention are summed exactly, term by term
in the order einsum takes (`_alternate_max`).

Also here: the infinity-to-one norm (same 1/n^2 normalization) and the
sandwich check  cut <= inf1 <= 4 * cut  that links the two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from ._rng import stream
from .core import Kernel, _as_indices, _as_int, _as_matrix, _expect, l1_norm
from .errors import BudgetError, ValidationError

EXACT_BUDGET = 24  # largest enumerated side for exact cut norms
INF1_EXACT_BUDGET = 12  # largest n for the exact infinity-to-one norm
HEURISTIC_ITERS = 100  # cap on alternating sweeps per heuristic restart
Q_SUBSET_PAIR_BUDGET = 4_000_000  # row-subset x column-subset pairs in q_subset_upper_bound
_START_COLUMNS = 32  # heuristic start columns kept by `_start_column`


@dataclass(frozen=True)
class CutNormResult:
    """A cut-norm value plus the certificate that produced it.

    ``witness_s`` / ``witness_t`` are index arrays (subsets) for cut norms
    and +-1 sign vectors for the infinity-to-one norm; None for bounds that
    carry no witness.  ``method`` names the side of the true norm that
    the value certifies: ``exact`` (the norm itself) and ``qsubset_upper``
    bound it from above, ``heuristic`` and ``khintchine_lower`` from below,
    as do ``motif-<name>`` and ``motif`` (`distance.delta_cut_lower`) for
    delta_cut.
    """

    value: float
    witness_s: Optional[np.ndarray]
    witness_t: Optional[np.ndarray]
    method: str


def _distinct_indices(idx, n: int, what: str) -> np.ndarray:
    """idx by `core._as_indices`, its entries distinct, else ValidationError."""
    a = _as_indices(idx, n, what)
    if len(set(a.tolist())) < a.size:
        raise ValidationError(f"{what} must hold distinct integers in range({n})")
    return a


def matrix_witness_value(B, S, T) -> float:
    """Replay a subset-pair certificate of distinct indices: |sum B[S, T]| / n^2."""
    a = _as_matrix(B)
    n = a.shape[0]
    S, T = _distinct_indices(S, n, "S"), _distinct_indices(T, n, "T")
    return abs(float(a[np.ix_(S, T)].sum())) / n**2


def kernel_witness_value(K: Kernel, S, T) -> float:
    S, T = _distinct_indices(S, _expect(K, Kernel, "K").q1, "S"), _distinct_indices(T, K.q2, "T")
    sub = K.values[np.ix_(S, T)]
    return abs(float(K.row_weights[S] @ sub @ K.col_weights[T]))


# ---------------------------------------------------------------------------
# exact enumeration


def _max_rectangle_sum(Ms: np.ndarray):
    """max_{S,T} |sum M[S,T]| for every matrix M of the stack Ms (q x r x c).

    Enumerates the subsets S of the smaller side (rows when r <= c) and takes
    the other side greedily.  Returns (values, subsets, signs): the raw
    values, the first best subset of each matrix as a bitmask, and +1 or -1
    for whether the greedy side took the positive or the negative sums.
    O(q * 2^min(r,c) * r * c), chunked over 2^16 subsets.

    numpy's stacked matmul makes one gemm call per matrix, with the shape
    and strides a lone matrix gets, and the sums and maxima below reduce
    each matrix's own contiguous rows.  So every matrix's results are bit
    for bit those of a stack of one (`_best_rectangle`).
    """
    if Ms.shape[1] > Ms.shape[2]:
        Ms = Ms.transpose(0, 2, 1)
    q, m = Ms.shape[:2]
    if m > EXACT_BUDGET:
        raise BudgetError(f"exact cut norm: enumerated side {m} exceeds budget {EXACT_BUDGET}")
    bits = np.arange(m)
    best_val = np.zeros(q)
    best_subset = np.zeros(q, dtype=np.int64)
    best_sign = np.ones(q, dtype=int)
    chunk = 1 << 16
    for lo in range(0, 1 << m, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << m), dtype=np.int64)
        masks = ((idx[:, None] >> bits) & 1).astype(float)
        colsums = masks @ Ms
        pos = np.where(colsums > 0, colsums, 0.0).sum(axis=2)
        neg = np.where(colsums < 0, -colsums, 0.0).sum(axis=2)
        vals = np.maximum(pos, neg)
        j = np.argmax(vals, axis=1)
        top = vals[np.arange(q), j]
        better = top > best_val
        best_val[better] = top[better]
        best_subset[better] = idx[j[better]]
        best_sign[better] = np.where(pos[better, j[better]] >= neg[better, j[better]], 1, -1)
    return best_val, best_subset, best_sign


def _best_rectangle(M: np.ndarray):
    """(raw value, rows, cols) of the first best rectangle of one matrix M,
    as `_max_rectangle_sum` finds it."""
    vals, subsets, signs = _max_rectangle_sum(M[None])
    transposed = M.shape[0] > M.shape[1]
    enumerated = np.flatnonzero([(int(subsets[0]) >> b) & 1 for b in range(min(M.shape))])
    # the greedy side: M's columns, or its rows when its columns were enumerated
    sums = M[:, enumerated].sum(axis=1) if transposed else M[enumerated].sum(axis=0)
    other = np.flatnonzero(sums > 0) if signs[0] > 0 else np.flatnonzero(sums < 0)
    return float(vals[0]), *((other, enumerated) if transposed else (enumerated, other))


def matrix_cut_norm_exact(B) -> CutNormResult:
    """Exact matrix cut norm by subset enumeration (n <= EXACT_BUDGET).

    B is a matrix argument (a ProbMatrix or a nonempty, square, finite
    array; see `core`).  A step graphon W is not one: its cut norm is
    ``step_kernel_cut_norm_exact(Kernel(W.values, W.weights, W.weights))``.
    """
    a = _as_matrix(B)
    n = a.shape[0]
    raw, rows, cols = _best_rectangle(a)
    return CutNormResult(raw / n**2, rows, cols, "exact")


def step_kernel_cut_norm_exact(K: Kernel) -> CutNormResult:
    """Exact cut norm of a step kernel (weighted-integral convention)."""
    M = _expect(K, Kernel, "K").row_weights[:, None] * K.values * K.col_weights[None, :]
    raw, rows, cols = _best_rectangle(M)
    return CutNormResult(raw, rows, cols, "exact")


# ---------------------------------------------------------------------------
# alternating heuristic


@functools.lru_cache(maxsize=_START_COLUMNS)
def _start_column(n_cols: int, seed: int, r: int) -> np.ndarray:
    """Restart r's {0,1} starting vector, drawn from its own stream; frozen,
    as it is built once and shared by every call that asks for it again."""
    col = stream(seed, "cut-heur", r).integers(0, 2, size=n_cols).astype(float)
    col.setflags(write=False)
    return col


def _heuristic_starts(n_cols: int, restarts: int, seed: int):
    """Column-stacked {0,1} starting vectors, one independent stream per restart.

    Calls with one seed share their first columns (a search scores its
    candidates at 4 restarts and its final value at 16 or more), so each
    column comes from `_start_column`'s bounded cache, with the same draws.
    """
    cols = [_start_column(n_cols, seed, r) for r in range(restarts)]
    return np.array(cols, dtype=float).T


def _rectangle_sum(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """sum M[rows, cols] of a C-ordered M, added one term at a time, row by row.

    That is how einsum("ir,ij,jr->r", S, M, T) adds each column's rectangle
    when there are two or more columns: the restart axis r runs innermost
    and the terms come in M's memory order, which is row-major.  The 0/1
    factors are exact, and the terms outside the rectangle add zeros, which
    change no sum.  So this is bit for bit that einsum's value.  The terms
    are gathered once, in that order, and summed in place.
    """
    if len(rows) == 0 or len(cols) == 0:
        return 0.0
    terms = M.take(rows, axis=0).take(cols, axis=1).reshape(-1)
    return float(np.cumsum(terms, out=terms)[-1])


def _rectangle_margin(n1: int, n2: int, mx: float) -> float:
    """How far below the largest screened rectangle value a restart's screened
    value may lie and still be summed exactly: a proven rounding bound.

    With u = 2**-53 and gamma_n = n*u / (1 - n*u), a sum of n terms in any
    order, with or without FMA, is off by at most gamma_n times the sum of
    their absolute values.  Let mx = max |M| and N = n1 * n2.
      exact:  `_rectangle_sum` adds at most N terms: within gamma_N N mx of
              the real rectangle sum.
      screen: (M^T S)[j, r] adds at most n1 terms (the 0/1 products are
              exact): within gamma_n1 n1 mx each.  Masking by T is exact,
              and the n2 masked column sums, each <= n1 mx (1 + gamma_n1),
              add within gamma_n2 N mx (1 + gamma_n1).
    So a restart's screened and exact values differ by at most
    d = 1.01 (N + n1 + n2 + 1) u N mx.  If r maximises the exact value E,
    its screen is >= E - d, and the largest screen is <= E + d, so it lies
    within 2d of the largest screen; fl(largest - margin) rounds once more,
    by at most u (1.01 N mx + margin).  So every maximiser is summed exactly
    whenever margin >= (2.02 (N + n1 + n2) + 3.04) u N mx / (1 - u).  The
    margin below is 4 (N + n1 + n2 + 2) u N mx: more than that for all sizes.
    """
    N = n1 * n2
    return 4.0 * (N + n1 + n2 + 2) * N * mx * 2.0**-53


def _alternate_max(M: np.ndarray, T0: np.ndarray, MT0: np.ndarray, sign: float, margin: float):
    """Maximize sign * s^T M t over {0,1} vectors by alternating greedy updates.

    T0 holds starting t-vectors as columns (at least two) and MT0 is M @ T0,
    the first product, which both signs' ascents share; all restarts are
    advanced in lock-step.  Monotone in the objective, so it terminates at a
    fixed point.  Returns (value, rows, cols) of the first restart whose
    signed rectangle sum is largest.  sign = -1.0 is the ascent on -M without
    a copy: rounding to nearest is symmetric, so -M's products are M's
    negated, and a product is positive on -M exactly where it is negative on
    M; its sums are M's times the sign, bit for bit but for the sign of a
    zero, which no comparison sees.

    The ascent's BLAS products decide the signs, and it stops at the first
    repeat: an unchanged S gives the T it gave before, and an unchanged T
    the S it gave before, since equal inputs give equal products.  So it
    ends on the pair that sweeping on to HEURISTIC_ITERS (at least 1)
    sweeps would end on.  Its end values are screened from its last product
    M^T S, and only the distinct rectangles whose screen lies within
    ``margin`` (`_rectangle_margin`) of the largest are summed exactly
    (`_rectangle_sum`), in the order einsum("ir,ij,jr->r", S, M, T) takes:
    value and restart are bit-identical to taking that einsum for every
    restart and the first argmax.
    """
    above = np.greater if sign > 0 else np.less
    T, S = T0, None
    for _ in range(HEURISTIC_ITERS):
        S_new = above(MT0 if S is None else M @ T, 0.0).astype(float)
        if S is not None and np.array_equal(S_new, S):
            break
        S = S_new
        P = M.T @ S
        T_new = above(P, 0.0).astype(float)
        if np.array_equal(T_new, T):
            break
        T = T_new
    screen = sign * (P * T).sum(axis=0)
    # written as "not below" so that a nan or an overflowing margin keeps
    # every restart rather than none
    keep = np.flatnonzero(~(screen < screen.max() - margin))
    best, exact = (-np.inf, None, None), {}
    for r in keep.tolist():
        rows, cols = np.flatnonzero(S[:, r]), np.flatnonzero(T[:, r])
        key = (rows.tobytes(), cols.tobytes())
        if key not in exact:
            exact[key] = sign * _rectangle_sum(M, rows, cols)
        if exact[key] > best[0]:
            best = (exact[key], rows, cols)
    return best


def _max_rectangle_sum_heuristic(M: np.ndarray, restarts: int, seed: int):
    """Certificate lower bound on max |sum M[S,T]| of a C-ordered M: `_alternate_max` for +1, -1."""
    k2 = M.shape[1]
    rand = _heuristic_starts(k2, max(restarts - 2, 0), seed)
    ones = np.ones((k2, 1))
    csign = (M.sum(axis=0) > 0).astype(float)[:, None]
    T0 = np.hstack([ones, csign] + ([rand] if rand.size else []))
    margin = _rectangle_margin(M.shape[0], k2, max(M.max(), -M.min()))
    MT0 = M @ T0
    best = (0.0, np.array([], dtype=int), np.array([], dtype=int))
    for sign in (1.0, -1.0):
        val, rows, cols = _alternate_max(M, T0, MT0, sign, margin)
        if val > best[0]:
            best = (val, rows, cols)
    return best


def matrix_cut_norm_heuristic(B, restarts: int = 16, seed: int = 0) -> CutNormResult:
    """Lower-bound the matrix cut norm; the witness subsets replay the value.

    B is a matrix argument, as for `matrix_cut_norm_exact`.
    """
    a = _as_matrix(B)
    n = a.shape[0]
    restarts, seed = _as_int(restarts, "restarts", 1), _as_int(seed, "seed", 0)
    raw, rows, cols = _max_rectangle_sum_heuristic(a, restarts, seed)
    return CutNormResult(raw / n**2, rows, cols, "heuristic")


# ---------------------------------------------------------------------------
# infinity-to-one norm and the factor-4 sandwich


def inf1_norm(B, restarts: int = 32, seed: int = 0) -> CutNormResult:
    """||B||_{inf->1} / n^2 = max_{f,g in {-1,1}^n} f^T B g / n^2.

    Exact by enumerating g (with g_1 fixed: f^T B g is even in (f,g)) when
    n <= INF1_EXACT_BUDGET; above it a lower bound from the alternating
    signs heuristic, which needs restarts >= 1 (the exact route takes 0).
    Witnesses are the sign vectors (f, g).
    """
    a = _as_matrix(B)
    n = a.shape[0]
    restarts = _as_int(restarts, "restarts", 0 if n <= INF1_EXACT_BUDGET else 1)
    seed = _as_int(seed, "seed", 0)
    if n <= INF1_EXACT_BUDGET:
        idx = np.arange(1 << (n - 1), dtype=np.int64)
        G = np.hstack([np.ones((idx.size, 1)),
                       1.0 - 2.0 * ((idx[:, None] >> np.arange(n - 1)) & 1)])
        rowvals = np.abs(G @ a.T).sum(axis=1)
        j = int(np.argmax(rowvals))
        g = G[j]
        f = np.where(a @ g >= 0, 1.0, -1.0)
        return CutNormResult(float(rowvals[j]) / n**2, f, g, "exact")
    best_val, best_f, best_g = -np.inf, None, None
    for r in range(restarts):
        rng = stream(seed, "inf1", r)
        g = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        for _ in range(HEURISTIC_ITERS):
            f = np.where(a @ g >= 0, 1.0, -1.0)
            g_new = np.where(a.T @ f >= 0, 1.0, -1.0)
            if np.array_equal(g_new, g):
                break
            g = g_new
        val = float(f @ a @ g)
        if val > best_val:
            best_val, best_f, best_g = val, f, g
    return CutNormResult(best_val / n**2, best_f, best_g, "heuristic")


@dataclass(frozen=True)
class SandwichResult:
    cut: CutNormResult
    inf1: CutNormResult
    satisfied: bool


def cut_norm_sandwich_check(B, seed: int = 0, restarts: int = 32) -> SandwichResult:
    """Check  cut(B) <= inf1(B) <= 4*cut(B)  (exact routes when feasible).

    With both sides exact the chain is a theorem and `satisfied` should
    always come back True (up to 1e-12 roundoff); with heuristic routes a
    False only signals an undersized certificate, not a counterexample.
    """
    a = _as_matrix(B)
    n = a.shape[0]
    # first, so that a bad restarts or seed fails before any enumeration
    inf1 = inf1_norm(a, seed=seed, restarts=restarts)
    if n <= EXACT_BUDGET:
        cut = matrix_cut_norm_exact(a)
    else:
        cut = matrix_cut_norm_heuristic(a, restarts=restarts, seed=seed)
    tol = 1e-12 * max(1.0, abs(inf1.value))
    ok = (cut.value <= inf1.value + tol) and (inf1.value <= 4.0 * cut.value + tol)
    return SandwichResult(cut, inf1, bool(ok))


# ---------------------------------------------------------------------------
# analytic bounds for step kernels


def _subset_masks(k: int, qmax: int) -> np.ndarray:
    rows = [np.zeros(k)]
    for size in range(1, min(qmax, k) + 1):
        for comb in combinations(range(k), size):
            m = np.zeros(k)
            m[list(comb)] = 1.0
            rows.append(m)
    return np.array(rows)


def q_subset_upper_bound(K: Kernel, q: int) -> CutNormResult:
    """Upper bound on the kernel cut norm from q-element index subsets.

    For each sign of K, takes the max of K[R2->rows, R1->cols] over subsets
    R1 (rows), R2 (columns) of size at most q — where R1 induces the column
    set with strictly positive R1-weighted sums and symmetrically for R2 —
    plus the additive sampling term
        ( u * sqrt(q2 * sum beta^2) + v * sqrt(q1 * sum alpha^2) ) / sqrt(q)
    with u = sum alpha, v = sum beta. At q = max(q1, q2) the max term reaches
    the exact cut norm, so the bound is exact-plus-additive there.  The
    additive term assumes values in [-1, 1]; a kernel outside that
    range (a regularity residual can be one) raises ValidationError.
    """
    q = _as_int(q, "q", 1, max(_expect(K, Kernel, "K").q1, K.q2))
    top = float(np.max(np.abs(K.values)))
    if top > 1 + 1e-12:
        raise ValidationError(f"q_subset_upper_bound needs |K| <= 1, got max |K| = {top}")
    # the subsets are counted before any is built
    n1, n2 = (sum(math.comb(k, s) for s in range(min(q, k) + 1)) for k in (K.q1, K.q2))
    if n1 * n2 > Q_SUBSET_PAIR_BUDGET:
        raise BudgetError(f"q_subset_upper_bound: {n1} x {n2} subset pairs exceed budget")
    alpha, beta = K.row_weights, K.col_weights
    u, v = float(alpha.sum()), float(beta.sum())
    M1 = _subset_masks(K.q1, q)
    M2 = _subset_masks(K.q2, q)
    additive = (u * np.sqrt(K.q2 * (beta**2).sum()) + v * np.sqrt(K.q1 * (alpha**2).sum())) / np.sqrt(q)
    best_main = 0.0
    best_wit = (np.array([], dtype=int), np.array([], dtype=int))
    for sign in (1.0, -1.0):
        Q = sign * K.values
        Qw = alpha[:, None] * Q * beta[None, :]
        # column sets induced by row subsets R1, row sets induced by col subsets R2
        L = ((M1 * alpha) @ Q > 0).astype(float)          # (N1, q2)
        R = ((M2 * beta) @ Q.T > 0).astype(float)         # (N2, q1)
        V = R @ Qw @ L.T                                   # V[j, i] = Q[R_j, L_i]
        j, i = np.unravel_index(int(np.argmax(V)), V.shape)
        if V[j, i] > best_main:
            best_main = float(V[j, i])
            best_wit = (np.flatnonzero(R[j]), np.flatnonzero(L[i]))
    return CutNormResult(best_main + float(additive), best_wit[0], best_wit[1], "qsubset_upper")


def khintchine_lower_bound(K: Kernel) -> CutNormResult:
    """Cut norm >= (integral of |K|) / (4 * sqrt(2 * q2)) for a q1 x q2 step kernel."""
    val = l1_norm(_expect(K, Kernel, "K")) / (4.0 * np.sqrt(2.0 * K.q2))
    return CutNormResult(float(val), None, None, "khintchine_lower")
