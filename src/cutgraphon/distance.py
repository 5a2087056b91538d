"""Distances between step graphons up to measure-preserving relabelling.

The distance in metric N: delta_N(W1, W2) = inf over rearrangements tau of
||W1 - W2^tau||_N.  We work on a common equal-step refinement with m steps,
where rearrangements become permutations of [m]:

* `delta_upper` enumerates every permutation when m <= 6, where that is
  exact and cheaper than a search; above that it searches permutations
  (greedy matching init, pairwise-swap descent, random restarts) — always
  a genuine upper bound for l1/l2 and for cut when m is small enough for
  the exact cut norm; otherwise the cut norm of the aligned difference is
  itself estimated heuristically.  The greedy matching (one direction: the
  other is its inverse, ties included) never builds the m x m cost: it
  runs on the u1 x u2 cost between runs of equal rows (`_row_cost`,
  `_greedy_match`), and matches a whole run pair at a time, with the same
  permutation as the pair-by-pair greedy on the m x m cost.
* `delta_exact_tiny` enumerates all m! permutations (m <= 8, weights must
  refine exactly) — the oracle the search is validated against.
* `delta_cut_lower` turns homomorphism-density gaps into lower bounds via
  the counting lemma |t(F,W1) - t(F,W2)| <= e(F) delta_cut under the set
  cut norm used here (Lovasz, Large Networks and Graph Limits, Lemma 10.23;
  the factor 4 belongs to the infinity-to-one norm).  Its four default
  densities come from the degree vector d = Qw and one symmetric product
  Q diag(w) Q (`_motif_densities`); `homomorphism_density` is the general
  einsum route for any motif, and the fast path's oracle.

`_norms` alone forms and measures aligned differences D1 - P D2 P^T, a
chunked stack at a time (`_aligned`, which also feeds the cut screen; a
chunk of one permutation is gathered with `take`), each value bit for bit
its permutation's alone.  Both enumerations run
`_min_over_permutations`: one permutation per distinct arrangement of the
second graphon's equal steps, a batched cut screen with a proven rounding
margin, exact values of the survivors, and one argmin that takes the first
permutation, in lexicographic order, that reaches the least value,
bit-identical to scoring all m! one by one.  They reach it through one
bounded memo (`_enumerated`), keyed by m, the metric and the bytes of both
blow-ups, so a pair that goes through `delta_upper` (m <= 6) and then
`delta_exact_tiny`, or the same pair twice, is enumerated once: the second
call gets the first one's permutation and value, bit for bit, in a fresh
copy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .core import StepGraphon, _as_indices, _as_int, _as_tuple, _expect, blowup
from .cutnorm import (CutNormResult, _distinct_indices, _max_rectangle_sum,
                      _max_rectangle_sum_heuristic)
from .errors import BudgetError, ValidationError

METRICS = ("cut", "l1", "l2")
DEFAULT_M_CAP = 64
REFINE_TOL = 1e-9  # how far m * weight may sit from an integer and still refine
EXACT_CUT_M = 12  # up to here the cut objective inside the search is exact
ENUMERATE_M = 6   # up to here delta_upper enumerates all m! permutations
_ENUMERATION_MEMO = 128  # enumerated pairs kept by `_enumerated` (about 0.2 MB at m = 8)
COST_BUDGET = 2**31  # elements of u1 x u2 x m behind the search's row cost
_COST_BLOCK = 2**15  # elements per temporary while the row cost is filled
_SCREEN_BLOCK = 2**16  # elements per temporary while permutations are screened or scored
# Swap descent picks its branch by size.  Up to FULL_SWEEP_M steps it makes at
# most FULL_SWEEPS lexicographic sweeps over all pairs and stops after a sweep
# that improves nothing: at most 12*C(16,2) = 1440 objective calls, 336 at
# m = 8.  Above that it tries SWAP_PROPOSALS random pairs, and always all of
# them.  Lexicographic sweeps capped at the same 2000 calls give the same
# values at m <= 16 but lose to random proposals at m = 96 and 128 (l1,
# restarts=32, 12 random pairs of 4- to 12-step graphons each): worse on 10
# and 12 of 12 pairs, better on 1 and 0, by +4.0 % and +8.1 % on average.
FULL_SWEEP_M = 16
FULL_SWEEPS = 12
SWAP_PROPOSALS = 2000


# ---------------------------------------------------------------------------
# motifs and homomorphism densities


@dataclass(frozen=True)
class Motif:
    """A small simple graph used as a counting pattern."""

    num_vertices: int
    edges: tuple
    name: str = ""

    def __post_init__(self):
        q = _as_int(self.num_vertices, "motif num_vertices", 1)
        edges = []
        for e in _as_tuple(self.edges, "motif edges"):
            ends = tuple(sorted(_as_indices(e, q, f"motif edge {e!r}").tolist()))
            if len(ends) != 2 or ends[0] == ends[1] or ends in edges:
                raise ValidationError(f"motif edge {e!r} must join two distinct vertices "
                                      "and be listed once: no loops, no duplicates")
            edges.append(ends)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


EDGE = Motif(2, ((0, 1),), "edge")
CHERRY = Motif(3, ((0, 1), (1, 2)), "cherry")
TRIANGLE = Motif(3, ((0, 1), (1, 2), (0, 2)), "triangle")
SQUARE = Motif(4, ((0, 1), (1, 2), (2, 3), (0, 3)), "square")
DEFAULT_MOTIFS = (EDGE, CHERRY, TRIANGLE, SQUARE)

_MOTIF_LETTERS = "abcdef"


def _check_contraction(W: StepGraphon, what: str) -> None:
    """Both density routes refuse graphons of more than 4096 steps."""
    if W.k > 4096:
        raise BudgetError(f"{what}: k={W.k} exceeds contraction budget")


def homomorphism_density(motif: Motif, W: StepGraphon) -> float:
    """t(F, W) = sum over maps psi:[q]->[k] of prod w_psi(a) prod Q_psi(i)psi(j).

    Evaluated by tensor contraction (einsum), which eliminates indices one
    at a time instead of enumerating all k^q maps.
    """
    if _expect(motif, Motif, "motif").num_vertices > len(_MOTIF_LETTERS):
        raise BudgetError(f"motifs with more than {len(_MOTIF_LETTERS)} vertices are not supported")
    _check_contraction(_expect(W, StepGraphon, "W"), "homomorphism_density")
    letters = _MOTIF_LETTERS[: motif.num_vertices]
    subs = []
    ops = []
    for i, j in motif.edges:
        subs.append(letters[i] + letters[j])
        ops.append(W.values)
    for v in range(motif.num_vertices):
        subs.append(letters[v])
        ops.append(W.weights)
    return float(np.einsum(",".join(subs) + "->", *ops, optimize=True))


# ---------------------------------------------------------------------------
# common refinement


def _exactly_refinable(W: StepGraphon, m: int) -> bool:
    r = W.weights * m
    rounded = np.rint(r)
    return bool(np.all(np.abs(r - rounded) <= REFINE_TOL) and np.all(rounded >= 1))


def common_refinement_m(W1: StepGraphon, W2: StepGraphon, cap: int = DEFAULT_M_CAP):
    """Smallest m <= cap refining both weight vectors exactly, else the cap.

    Returns (m, exact_flag). m never drops below max(k1, k2).
    """
    lo = max(_expect(W1, StepGraphon, "W1").k, _expect(W2, StepGraphon, "W2").k)
    cap = _as_int(cap, "common refinement cap", 1)
    for m in range(lo, cap + 1):
        if _exactly_refinable(W1, m) and _exactly_refinable(W2, m):
            return m, True
    return max(lo, cap), False


# ---------------------------------------------------------------------------
# norms of permuted differences


def _cut_mode(m: int) -> str:
    """How the cut norm of an m x m difference is taken: exactly up to EXACT_CUT_M."""
    return "exact" if m <= EXACT_CUT_M else "heuristic"


def permuted_difference_norm(
    W1: StepGraphon,
    W2: StepGraphon,
    perm: Sequence[int],
    m: int,
    metric: str = "cut",
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """Replay helper: ||blowup(W1,m) - P blowup(W2,m) P^T||_metric, for an
    integer permutation ``perm`` of range(m)."""
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    p = _distinct_indices(perm, m, "perm")
    if p.size != m:
        raise ValidationError(f"perm must be a permutation of range({m}), got {p.size} entries")
    D1 = blowup(W1, m).values
    D2 = blowup(W2, m).values
    return float(_norms(D1, D2, p[None], metric, restarts, seed)[0])


@functools.cache
def _permutation_table(m: int) -> np.ndarray:
    """All m! permutations of range(m), one per row in lexicographic order.

    Built once per m and shared, so it is read-only; the enumerations take
    m <= 8, so at most eight tables (0.3 MB at m = 8) are kept.
    """
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(m))),
        dtype=np.int8, count=math.factorial(m) * m,
    ).reshape(-1, m)
    table.setflags(write=False)
    return table


def _arrangements(D2: np.ndarray) -> np.ndarray:
    """The lexicographically first permutation of each distinct arrangement of D2's steps.

    Indices in one run of equal rows of D2 are interchangeable, since D2
    is exactly symmetric and so equal rows are equal columns: permutations
    that differ only within runs give a bit-identical D2[p][:, p].  Among
    them the lexicographically first keeps each run's indices in
    increasing order.  Returns a table with one permutation per row, in
    lexicographic order.
    """
    table = _permutation_table(D2.shape[0])
    _, runs = _row_runs(D2)
    keep = np.ones(len(table), dtype=bool)
    for i in np.flatnonzero(runs[1:] == runs[:-1]).tolist():
        keep &= (table == i).argmax(axis=1) < (table == i + 1).argmax(axis=1)
    return table[keep]


def _aligned(D1: np.ndarray, D2: np.ndarray, perms: np.ndarray, per: int, measure) -> np.ndarray:
    """measure(D) for the stacks D of differences D1 - P D2 P^T, P in perms,
    about _SCREEN_BLOCK // per permutations at a time; measure returns one
    value per difference of its stack, which is C-ordered.

    A chunk of one permutation gathers with `take` along rows, then columns,
    and subtracts into that fresh gather: every chunk of m x m differences
    from m = 182 up (the search's candidates and second evaluation there),
    every replay and every swap-descent objective.  The stacked chunks of
    the small enumerations gather by broadcast indexing.  Both gathers copy
    the same entries, so the differences are the same bit for bit."""
    out = np.empty(len(perms))
    step = max(1, _SCREEN_BLOCK // per)
    for a in range(0, len(perms), step):
        P = perms[a : a + step]
        if len(P) == 1:
            G = D2.take(P[0], axis=0).take(P[0], axis=1)
            out[a] = measure(np.subtract(D1, G, out=G)[None])[0]
        else:
            out[a : a + step] = measure(D1 - D2[P[:, :, None], P[:, None, :]])
    return out


def _norms(D1: np.ndarray, D2: np.ndarray, perms: np.ndarray, metric: str,
           restarts: int, seed: int) -> np.ndarray:
    """||D1 - P D2 P^T||_metric for every row P of perms: l1, l2, the exact cut
    up to EXACT_CUT_M (one stacked search) or the heuristic cut (one search
    per difference, with ``restarts`` and ``seed``).  Each value is bit for
    bit its permutation's alone: every sum runs over one difference's own
    contiguous entries, the stacked exact cut makes one gemm call per
    difference, shaped as for a stack of one, and the heuristic gets each
    difference as a C-ordered matrix of its own."""
    m = D1.shape[0]
    if metric == "l1":
        return _aligned(D1, D2, perms, m * m, lambda D: np.abs(D).mean(axis=(1, 2)))
    if metric == "l2":
        return _aligned(D1, D2, perms, m * m, lambda D: np.sqrt((D**2).mean(axis=(1, 2))))
    if _cut_mode(m) == "exact":
        return _aligned(D1, D2, perms, m << m, lambda D: _max_rectangle_sum(D)[0] / m**2)
    return _aligned(D1, D2, perms, m * m, lambda D: np.array(
        [_max_rectangle_sum_heuristic(d, restarts, seed)[0] for d in D]) / m**2)


def _screen(D1: np.ndarray, D2: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Every permutation's ||D1 - P D2 P^T||_cut up to rounding, from below.

    Tries the 2m row subsets of one step and their complements, in one
    product against the stacked differences, with the best columns taken
    greedily: an exact maximum over fewer rectangles, summed in another
    order than `_norms` (`_screen_margin`).  Temporaries stay within
    _SCREEN_BLOCK elements.
    """
    m = D1.shape[0]
    eye = np.eye(m)
    masks = np.vstack((eye, 1.0 - eye))

    def measure(D):
        # C[s, j, q]: column j's sum over subset s of permutation q's rows
        C = (masks @ D.transpose(1, 2, 0).reshape(m, -1)).reshape(len(masks), m, len(D))
        pos = np.maximum(C, 0.0).sum(axis=1)
        neg = -np.minimum(C, 0.0).sum(axis=1)
        return np.maximum(pos, neg).max(axis=0) / m**2

    return _aligned(D1, D2, perms, m * len(masks), measure)


def _screen_margin(m: int) -> float:
    """How far a screened cut value is lowered before it meets the bound.

    With u = 2**-53 and gamma_n = n*u / (1 - n*u), a sum of n terms in any
    order, with or without FMA, is off by at most gamma_n times the sum of
    their absolute values.  StepGraphon values lie in [0, 1 + 1e-12], so
    |D| <= d = 1 + 1e-12.  The screen and the exact cut take the same D and
    differ only in summation order: column sums of m terms (the 0/1 mask
    products are exact) within gamma_m m d; positive and negative parts of
    m such sums within 2 gamma_m m^2 d; maxima exact; dividing by m^2 rounds
    once more.  So each route is within (2m + 1) u d of its own exact
    maximum, to first order, and the screen's maximum, over fewer subsets,
    is at most the cut norm: the screen s and exact value e of one
    permutation have s <= e + (4m + 2) 1.01 u d.  fl(s - margin) rounds by
    at most u (d + margin), so fl(s - margin) >= bound gives
    e >= bound + gamma, with gamma = margin - (4m + 4) 1.01 u, which the
    margin 8 (m + 2)^2 u keeps above 0 at every m.
    """
    return 8.0 * (m + 2) ** 2 * 2.0**-53


def _min_over_permutations(D1: np.ndarray, D2: np.ndarray, metric: str):
    """Exact min over all m! permutations of ||D1 - P D2 P^T||: the first
    permutation, in lexicographic order, that reaches the least value.

    Returns the plain loop's permutation and value, bit for bit: every
    permutation in lexicographic order, a value replacing the best only if
    it is strictly less.  Only the first permutation of each distinct
    arrangement of D2's equal steps is scored (`_arrangements`): a later
    duplicate repeats an earlier value.  l1 and l2 score every arrangement
    exactly (`_norms`).  For cut, every arrangement is screened
    (`_screen`), the exact value of the lowest screened one is a bound, and
    only the survivors, whose screen less `_screen_margin` lies below it
    (about 50 of 720 at m = 6), get an exact value.  A screened-out
    arrangement has a value >= bound + gamma > bound >= the minimum
    (`_screen_margin`), so every minimiser survives, in order, and argmin
    takes the first.
    """
    perms = _arrangements(D2)
    if metric == "cut":
        lo = _screen(D1, D2, perms) - _screen_margin(D1.shape[0])
        bound = _norms(D1, D2, perms[[int(np.argmin(lo))]], metric, 0, 0)[0]
        perms = perms[lo < bound]
    vals = _norms(D1, D2, perms, metric, 0, 0)
    best = int(np.argmin(vals))
    return perms[best].astype(int), float(vals[best])


@functools.lru_cache(maxsize=_ENUMERATION_MEMO)
def _enumerated(m: int, metric: str, b1: bytes, b2: bytes):
    """`_min_over_permutations` of the m x m blow-ups whose bytes are b1 and
    b2, read back as read-only arrays, with the permutation frozen.  Keys
    are equal exactly when both blow-ups are the same bit for bit."""
    D1, D2 = (np.frombuffer(b).reshape(m, m) for b in (b1, b2))
    perm, val = _min_over_permutations(D1, D2, metric)
    perm.setflags(write=False)
    return perm, val


def _enumerate(D1: np.ndarray, D2: np.ndarray, metric: str):
    """`_min_over_permutations` through the memo; the permutation is the caller's own copy."""
    perm, val = _enumerated(D1.shape[0], metric, D1.tobytes(), D2.tobytes())
    return perm.copy(), val


# ---------------------------------------------------------------------------
# permutation search


def _row_runs(D: np.ndarray):
    """Runs of adjacent equal rows: one representative row per run, and each row's run."""
    new_run = np.any(D[1:] != D[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new_run)))
    return D[starts], np.cumsum(np.concatenate(([0], new_run)))


def _row_cost(D1: np.ndarray, D2: np.ndarray):
    """cu[a, b] = sum_c |R1[a, c] - R2[b, c]| over the representatives of the row runs.

    Returns (cu, l1, l2), where l1 and l2 give each row's run: the m x m cost
    between rows i and j is cu[l1[i], l2[j]].  Each entry is the same sum
    over the same values in the same order as in the full m x m x m tensor,
    so the expansion would be bit-identical to it.  cu is filled about
    _COST_BLOCK elements at a time, through one reused temporary.
    """
    R1, l1 = _row_runs(D1)
    R2, l2 = _row_runs(D2)
    u1, u2, m = len(R1), len(R2), D1.shape[1]
    if u1 * u2 * m > COST_BUDGET:
        raise BudgetError(
            f"alignment cost: {u1} x {u2} distinct rows of length {m} exceed budget {COST_BUDGET}"
        )
    cu = np.empty((u1, u2))
    step = max(1, _COST_BLOCK // (u2 * m))
    buf = np.empty((min(step, u1), u2, m))
    for a in range(0, u1, step):
        t = buf[: min(step, u1 - a)]
        np.subtract(R1[a : a + step, None, :], R2[None, :, :], out=t)
        np.abs(t, out=t).sum(axis=2, out=cu[a : a + step])
    return cu, l1, l2


def _greedy_match(cu: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Greedy assignment perm[i] = j on the m x m cost cu[l1[i], l2[j]], cheapest
    free pair first, first minimum in row-major order winning ties.

    Works on the run classes: l1 and l2 are nondecreasing run labels, so each
    run is a contiguous block of indices.  The first minimum over free (i, j)
    lies in the first minimal pair of runs (a, b) with free slots, at the
    next free index of each; that pair stays first until one of its runs is
    used up.  So t = min(free slots of a, free slots of b) pairs are assigned
    at once, and the result is the pair-by-pair greedy's, index for index.

    The first minimum is found without a full argmin per pair: each run a
    keeps its first cheapest usable column and that cost, and the first run
    whose kept cost is least holds the row-major first minimum.  Using up
    run b's columns changes only the kept columns of the runs that kept b
    (every other run's first minimum lies elsewhere and stays), so only
    those are found again.

    Matching the other way round, on (cu.T, l2, l1), gives the inverse
    permutation, ties included.  Among the free pairs of least cost, the
    row-major first (i, j) is column j's first, and no earlier column has
    one in row i, so column-major order takes it too; dropping row i and
    column j, then each cost level in turn, repeats the argument.
    """
    u1, u2 = cu.shape
    next1 = np.searchsorted(l1, np.arange(u1)).tolist()  # next free index of each run
    next2 = np.searchsorted(l2, np.arange(u2)).tolist()
    end1 = next1[1:] + [len(l1)]
    end2 = next2[1:] + [len(l2)]
    perm = [0] * len(l1)
    usable = cu.copy()
    col = usable.argmin(axis=1)      # each run's first cheapest usable column ...
    cost = usable[np.arange(u1), col]  # ... and its cost (inf once the run is used up)
    done = 0
    while done < len(l1):
        a = int(cost.argmin())
        b = int(col[a])
        i, j = next1[a], next2[b]
        t = min(end1[a] - i, end2[b] - j)
        perm[i : i + t] = range(j, j + t)
        next1[a] = i + t
        next2[b] = j + t
        done += t
        if i + t == end1[a]:
            cost[a] = np.inf
            col[a] = -1
        if j + t == end2[b]:
            usable[:, b] = np.inf
            stale = np.flatnonzero(col == b)
            col[stale] = usable[stale].argmin(axis=1)
            cost[stale] = usable[stale, col[stale]]
    return np.array(perm)


def _rank_match(D1: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """Match rows after sorting both by row mean (degree ordering)."""
    r1 = np.lexsort((np.arange(D1.shape[0]), D1.mean(axis=1)))
    r2 = np.lexsort((np.arange(D2.shape[0]), D2.mean(axis=1)))
    perm = np.empty(D1.shape[0], dtype=int)
    perm[r1] = r2
    return perm


def _swap_descent(perm, objective, rng):
    """First-improvement pairwise-swap descent on objective(permutation)."""
    m = len(perm)
    perm = np.array(perm, dtype=int)
    best = objective(perm)

    def swap_and_keep(i, j):
        nonlocal best
        perm[i], perm[j] = perm[j], perm[i]
        val = objective(perm)
        if val < best - 1e-15:
            best = val
            return True
        perm[i], perm[j] = perm[j], perm[i]
        return False

    if m <= FULL_SWEEP_M:
        for _ in range(FULL_SWEEPS):
            improved = False
            for i, j in itertools.combinations(range(m), 2):
                improved |= swap_and_keep(i, j)
            if not improved:
                break
        return perm, best
    # large m: bounded random swap proposals
    for _ in range(SWAP_PROPOSALS):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            swap_and_keep(i, j)
    return perm, best


def _search(D1, D2, metric: str, restarts: int, seed: int):
    """Candidate alignments, swap descent on the best, then (heuristic cut
    only) the smaller of that value and a second evaluation."""
    m = D1.shape[0]
    # the row cost stays on runs of equal rows (u1 x u2, never m x m), and
    # the greedy match runs on the run classes
    cu, l1, l2 = _row_cost(D1, D2)
    cands = [np.arange(m), _rank_match(D1, D2), _greedy_match(cu, l1, l2)]
    for r in range(restarts):
        cands.append(stream(seed, "delta-restart", r).permutation(m))
    # candidates can coincide: each distinct permutation is scored once, in
    # one stack, and `scored` keeps one entry per candidate for the descent
    distinct = {p.tobytes(): p for p in cands}
    values = dict(zip(distinct, _norms(D1, D2, np.array(list(distinct.values())),
                                       metric, 4, seed).tolist()))
    scored = [(values[p.tobytes()], idx) for idx, p in enumerate(cands)]
    scored.sort(key=lambda t: (t[0], t[1]))
    if restarts == 0:
        # budget mode: deterministic alignment candidates only, no local
        # search (used by the risk harness where m equals the sample size)
        best_perm, best_val = cands[scored[0][1]], scored[0][0]
    else:
        rng = stream(seed, "delta-upper")

        def objective(perm):
            return float(_norms(D1, D2, perm[None], metric, 4, seed)[0])

        best_perm, best_val = None, np.inf
        for _, idx in scored[: (len(cands) if m <= 8 else 3)]:
            q, val = _swap_descent(cands[idx], objective, rng)
            if val < best_val:
                best_perm, best_val = q, val
    if metric == "cut" and _cut_mode(m) == "heuristic":
        # both values are lower bounds on the aligned difference's cut norm,
        # from restarts=4 and max(restarts, 16); the smaller is kept, so this
        # second evaluation can only lower the result and never moves it up
        # toward the true norm
        best_val = min(best_val,
                       _norms(D1, D2, best_perm[None], metric, max(restarts, 16), seed)[0])
    return best_perm, best_val


@dataclass(frozen=True)
class DistanceEstimate:
    """An upper bound on a rearrangement distance; ``method`` says if it is certified.

    ``exact-enumeration`` (`delta_exact_tiny`), ``search`` (l1, l2) and
    ``search-exact-cut`` (cut, m <= EXACT_CUT_M) are certified upper bounds
    for the m-step refinement, and the least value over all m! permutations,
    reached first by ``permutation`` in lexicographic order, for
    `delta_exact_tiny` and whenever m <= ENUMERATE_M; ``search-heuristic-cut``
    is not certified.  They bound delta itself when m refines both weight
    vectors exactly: `common_refinement_m(W1, W2)[1]` for the default m.

    ``permutation`` maps refined steps of the second argument into the
    first argument's frame.  Replaying it through `permuted_difference_norm`
    with the same ``m``, ``metric`` and ``seed`` reproduces ``upper`` bit for
    bit, at any ``restarts`` for l1, l2 and the exact cut (m <= EXACT_CUT_M).
    With the heuristic cut, ``upper`` is the smaller of the replays at
    ``restarts=4`` (how the search scores candidates) and at
    ``restarts=max(restarts, 16)`` (its final evaluation).
    """

    upper: float
    metric: str
    permutation: np.ndarray
    m: int
    method: str


def delta_upper(
    W1: StepGraphon,
    W2: StepGraphon,
    metric: str = "cut",
    m: Optional[int] = None,
    restarts: int = 32,
    seed: int = 0,
) -> DistanceEstimate:
    """Search upper bound on delta_metric via blow-up + permutation search.

    With m <= ENUMERATE_M the enumeration is exact (`_min_over_permutations`:
    the first permutation that reaches the least value, bit-identical to
    trying every permutation).  It goes through the same memo as
    `delta_exact_tiny`, so on the same blow-ups the two return one
    computation's permutation and value, and the second call enumerates
    nothing; `restarts` and `seed` then play no part.  Otherwise
    the candidate alignments are: identity, row-mean rank matching, greedy
    row matching, plus `restarts` random permutations; when ``restarts > 0``
    the most promising candidates then get pairwise-swap local descent, and
    ``restarts=0`` returns the best candidate as it is.  The
    greedy matching runs on the runs of equal rows in the two blow-ups, u1 and
    u2 of them: a run pair at a time, on their u1 x u2 row cost.  That cost
    raises BudgetError when u1 * u2 * m > COST_BUDGET.  Candidates that
    coincide are scored once.
    """
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    restarts = _as_int(restarts, "restarts", 0)
    if m is None:
        m = common_refinement_m(W1, W2)[0]
    m = _as_int(m, "m", max(_expect(W1, StepGraphon, "W1").k, _expect(W2, StepGraphon, "W2").k))
    D1 = blowup(W1, m).values
    D2 = blowup(W2, m).values
    if m <= ENUMERATE_M:
        best_perm, best_val = _enumerate(D1, D2, metric)
    else:
        best_perm, best_val = _search(D1, D2, metric, restarts, seed)
    method = f"search-{_cut_mode(m)}-cut" if metric == "cut" else "search"
    return DistanceEstimate(float(best_val), metric, best_perm, m, method)


def delta_exact_tiny(W1: StepGraphon, W2: StepGraphon, metric: str = "cut") -> DistanceEstimate:
    """Enumerate all m! permutations of the smallest exact common refinement.

    Requires both weight vectors to refine exactly into m <= 8 equal steps.
    The first permutation, in lexicographic order, that reaches the least
    value, bit-identical to trying every permutation
    (`_min_over_permutations`): one permutation per distinct arrangement of
    W2's equal steps is scored, and for cut only those that a screen with a
    proven margin leaves below the bound.  A pair already enumerated, by
    `delta_upper` at m <= ENUMERATE_M or by an earlier call, is read from
    their shared memo instead: the same permutation and value, bit for bit.
    ``upper`` is the least value computed over the permutations of that
    refinement, which bounds delta_metric from above.
    """
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    m, exact = common_refinement_m(W1, W2, cap=8)
    if not exact:
        raise ValidationError("weights do not refine exactly into m <= 8 equal steps")
    D1 = blowup(W1, m).values
    D2 = blowup(W2, m).values
    best_perm, best_val = _enumerate(D1, D2, metric)
    return DistanceEstimate(best_val, metric, best_perm, m, "exact-enumeration")


def _motif_densities(W: StepGraphon) -> list[float]:
    """t(F, W) for each F in DEFAULT_MOTIFS, in that order, from the degree
    vector d = Qw and one symmetric product X = Q diag(w) Q.

    edge = w.d, cherry = w.d^2, triangle = w'(Q o X)w and square =
    w'(X o X)w, because X is symmetric whenever Q is.  X is built as B B'
    with B = Q diag(sqrt(w)), which numpy hands to BLAS syrk (half a gemm).
    B is not read again once X exists, so Q o X and then X o X are written
    into B's buffer: besides Q, at most the two k x k arrays B and X are
    alive.  Each density is looked up by its motif's name, so a motif added
    to DEFAULT_MOTIFS without a formula here raises KeyError.
    `homomorphism_density` is the general route and this one's test oracle.
    """
    _check_contraction(_expect(W, StepGraphon, "W"), "motif densities")
    Q, w = W.values, W.weights
    d = Q @ w
    B = Q * np.sqrt(w)
    X = B @ B.T
    triangle = w @ np.multiply(Q, X, out=B) @ w
    square = w @ np.multiply(X, X, out=B) @ w
    by_name = {
        "edge": w @ d,
        "cherry": w @ d**2,
        "triangle": triangle,
        "square": square,
    }
    return [float(by_name[f.name]) for f in DEFAULT_MOTIFS]


def _motif_bound(dens1: Sequence[float], dens2: Sequence[float]) -> CutNormResult:
    """Best counting-lemma bound from two density lists in DEFAULT_MOTIFS order;
    ``method`` is ``motif-<name>`` of its motif, or ``motif`` if none differs."""
    value, method = 0.0, "motif"
    for f, t1, t2 in zip(DEFAULT_MOTIFS, dens1, dens2):
        val = abs(t1 - t2) / f.edge_count
        if val > value:
            value, method = val, f"motif-{f.name}"
    return CutNormResult(value, None, None, method)


def delta_cut_lower(W1: StepGraphon, W2: StepGraphon) -> CutNormResult:
    """Best counting-lemma bound over DEFAULT_MOTIFS: max_F |t(F,W1)-t(F,W2)| / e(F).

    Each graphon's densities come from its degree vector d = Qw and one
    symmetric product Q diag(w) Q (`_motif_densities`), as `graphon_packing`
    takes them, so its certificate replays here bit for bit.
    """
    return _motif_bound(_motif_densities(W1), _motif_densities(W2))
