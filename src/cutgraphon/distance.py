"""Distances between step graphons up to measure-preserving relabelling.

The distance in metric N: delta_N(W1, W2) = inf over rearrangements tau of
||W1 - W2^tau||_N.  We work on a common equal-step refinement with m steps,
where rearrangements become permutations of [m]:

* `delta_upper` enumerates every permutation when m <= 6, where that is
  exact and cheaper than a search; above that it searches permutations
  (greedy matching init, pairwise-swap descent, random restarts) — always
  a genuine upper bound for l1/l2 and for cut when m is small enough for
  the exact cut norm; otherwise the cut norm of the aligned difference is
  itself estimated heuristically.
* `delta_exact_tiny` enumerates all m! permutations (m <= 8, weights must
  refine exactly) — the oracle the search is validated against.
* `delta_cut_lower` turns homomorphism-density gaps into lower bounds via
  the counting inequality |t(F,W1) - t(F,W2)| <= 4 e(F) delta_cut.

Both enumerations are screened (`_min_over_permutations`): one permutation
per distinct arrangement of the second graphon's equal steps, every value
screened in one batched pass, and the scalar norm taken only where the
screen, less a proven rounding margin, could beat the running best.  The
first optimum in lexicographic order is returned, and the permutation and
value are bit-identical to scoring all m! permutations one by one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .core import StepGraphon, blowup
from .cutnorm import _max_rectangle_sum, _max_rectangle_sum_heuristic
from .errors import BudgetError, ValidationError

METRICS = ("cut", "l1", "l2")
DEFAULT_M_CAP = 64
REFINE_TOL = 1e-9  # how far m * weight may sit from an integer and still refine
EXACT_CUT_M = 12  # up to here the cut objective inside the search is exact
ENUMERATE_M = 6   # up to here delta_upper enumerates all m! permutations
COST_BUDGET = 2**31  # elements of u1 x u2 x m behind the search's row cost
_COST_BLOCK = 2**22  # elements per temporary while the row cost is filled
_SCREEN_BLOCK = 2**16  # elements per temporary while permutations are screened
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
        q = self.num_vertices
        if q < 1:
            raise ValidationError("motif needs at least one vertex")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValidationError(f"bad edge {e!r}")
            i, j = e
            if not (0 <= i < q and 0 <= j < q):
                raise ValidationError(f"edge {e!r} out of range for {q} vertices")
            if i == j:
                raise ValidationError("loops are not allowed in motifs")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {e!r}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple((min(i, j), max(i, j)) for i, j in self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


EDGE = Motif(2, ((0, 1),), "edge")
CHERRY = Motif(3, ((0, 1), (1, 2)), "cherry")
TRIANGLE = Motif(3, ((0, 1), (1, 2), (0, 2)), "triangle")
SQUARE = Motif(4, ((0, 1), (1, 2), (2, 3), (0, 3)), "square")
DEFAULT_MOTIFS = (EDGE, CHERRY, TRIANGLE, SQUARE)

_MOTIF_LETTERS = "abcdef"


def homomorphism_density(motif: Motif, W: StepGraphon) -> float:
    """t(F, W) = sum over maps psi:[q]->[k] of prod w_psi(a) prod Q_psi(i)psi(j).

    Evaluated by tensor contraction (einsum), which eliminates indices one
    at a time instead of enumerating all k^q maps.
    """
    if motif.num_vertices > len(_MOTIF_LETTERS):
        raise BudgetError(f"motifs with more than {len(_MOTIF_LETTERS)} vertices are not supported")
    if W.k > 4096:
        raise BudgetError(f"homomorphism_density: k={W.k} exceeds contraction budget")
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
    lo = max(W1.k, W2.k)
    for m in range(lo, cap + 1):
        if _exactly_refinable(W1, m) and _exactly_refinable(W2, m):
            return m, True
    return max(lo, cap), False


# ---------------------------------------------------------------------------
# norms of permuted differences


def _cut_mode(m: int) -> str:
    """How the cut norm of an m x m difference is taken: exactly up to EXACT_CUT_M."""
    return "exact" if m <= EXACT_CUT_M else "heuristic"


def _difference_norm(D: np.ndarray, metric: str, restarts: int, seed: int) -> float:
    m = D.shape[0]
    if metric == "l1":
        return float(np.abs(D).mean())
    if metric == "l2":
        return float(np.sqrt((D**2).mean()))
    if _cut_mode(m) == "exact":
        raw, _, _ = _max_rectangle_sum(D)
    else:
        raw, _, _ = _max_rectangle_sum_heuristic(D, restarts, seed)
    return float(raw) / m**2


def permuted_difference_norm(
    W1: StepGraphon,
    W2: StepGraphon,
    perm: Sequence[int],
    m: int,
    metric: str = "cut",
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """Replay helper: ||blowup(W1,m) - P blowup(W2,m) P^T||_metric."""
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    p = np.asarray(perm, dtype=int)
    D1 = blowup(W1, m).values
    D2 = blowup(W2, m).values
    return _difference_norm(D1 - D2[np.ix_(p, p)], metric, restarts, seed)


def _arrangements(D2: np.ndarray) -> np.ndarray:
    """The lexicographically first permutation of each distinct arrangement of D2's steps.

    Indices in one run of equal rows and equal columns of D2 are
    interchangeable: permutations that differ only within runs give a
    bit-identical D2[p][:, p].  Among them the lexicographically first keeps
    each run's indices in increasing order.  Returns a table with one
    permutation per row, in lexicographic order.
    """
    m = D2.shape[0]
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(m))),
        dtype=np.int8, count=math.factorial(m) * m,
    ).reshape(-1, m)
    _, runs = _row_runs(np.hstack((D2, D2.T)))
    keep = np.ones(len(table), dtype=bool)
    for i in np.flatnonzero(runs[1:] == runs[:-1]).tolist():
        keep &= (table == i).argmax(axis=1) < (table == i + 1).argmax(axis=1)
    return table[keep]


def _screen(D1: np.ndarray, D2: np.ndarray, perms: np.ndarray, metric: str) -> np.ndarray:
    """Every permutation's ||D1 - P D2 P^T|| up to rounding, in one batched pass.

    The permuted differences are bit-identical to the scalar path's; only the
    order of the sums differs (see `_screen_margin`).  For cut, one product of
    the 2^m subset masks against the stacked differences gives every subset's
    column sums; temporaries stay within _SCREEN_BLOCK elements.
    """
    m = D1.shape[0]
    out = np.empty(len(perms))
    if metric == "cut":
        masks = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
        step = max(1, _SCREEN_BLOCK // ((1 << m) * m))
    else:
        step = max(1, _SCREEN_BLOCK // (m * m))
    for a in range(0, len(perms), step):
        P = perms[a : a + step]
        D = D1 - D2[P[:, :, None], P[:, None, :]]
        if metric == "l1":
            out[a : a + step] = np.abs(D).mean(axis=(1, 2))
        elif metric == "l2":
            out[a : a + step] = np.sqrt((D**2).mean(axis=(1, 2)))
        else:
            # C[s, j, q]: column j's sum over subset s of permutation q's rows
            C = (masks @ D.transpose(1, 2, 0).reshape(m, -1)).reshape(1 << m, m, len(P))
            pos = np.maximum(C, 0.0).sum(axis=1)
            neg = -np.minimum(C, 0.0).sum(axis=1)
            out[a : a + step] = np.maximum(pos, neg).max(axis=0) / m**2
    return out


def _screen_margin(m: int) -> float:
    """How far below the running best a screened value must reach for its
    permutation to be scored: a proven rounding bound, with headroom.

    With u = 2**-53 and gamma_n = n*u / (1 - n*u), a sum of n terms in any
    order, with or without FMA, is off by at most gamma_n times the sum of
    their absolute values.  Entries of StepGraphon values lie in
    [0, 1 + 1e-12], so |D| <= d = 1 + 1e-12.  The screen and the scalar path
    (`_difference_norm`) take the same D and differ only in summation order:
      cut: a subset's column sums have at most m terms (the 0/1 mask
           products are exact): error <= gamma_m * m * d each.  The positive
           and the negative part are 1-Lipschitz in those sums and add m
           terms of size <= m * d, so each is off by <= 2 gamma_m m^2 d, and
           taking maxima adds nothing.  Dividing by m^2 rounds once more:
           each route is within (2m + 1) u d of the exact value, to first
           order.
      l1:  a mean of m^2 terms <= d: within (m^2 + 1) u d.
      l2:  squares, a mean and a square root: within ((m^2 + 1)/2 + 1) u d.
    So the two routes differ by at most 2 max(2m + 1, m^2 + 1) u d, and the
    skip test fl(screen - margin) >= best rounds once more, by at most
    u (d + margin).  A skipped permutation's scalar value is then at least
    fl(screen - margin) >= best >= fl(best - 1e-18), so it could not have
    replaced the best, whenever margin >= (2m^2 + 4m + 5) * 1.01 u.  The
    margin below is 8 (m + 2)^2 u: at least three times that for every m.
    """
    return 8.0 * (m + 2) ** 2 * 2.0**-53


def _min_over_permutations(D1: np.ndarray, D2: np.ndarray, metric: str):
    """Exact min over all m! permutations of ||D1 - P D2 P^T||; first optimum wins.

    Screened enumeration: the permutations are visited in lexicographic
    order, one per distinct arrangement of D2's equal steps (`_arrangements`;
    a later duplicate has a bit-identical value and could never win).  All
    of them are screened at once (`_screen`), and the scalar norm is taken
    only where the screen, less `_screen_margin`, lies below the running
    best; any other permutation is certified not to beat it.  The returned
    permutation and value are bit-identical to scoring every permutation.
    """
    m = D1.shape[0]
    perms = _arrangements(D2)
    lo = _screen(D1, D2, perms, metric) - _screen_margin(m)
    best_val, best_perm = np.inf, None
    start = 0
    while True:
        for i in (start + np.flatnonzero(lo[start:] < best_val)).tolist():
            perm = perms[i].astype(int)
            val = _difference_norm(D1 - D2[np.ix_(perm, perm)], metric, 0, 0)
            if val < best_val - 1e-18:
                best_val, best_perm, start = val, perm, i + 1
                break  # a lower best: screen the rest against it
        else:
            return best_perm, best_val


# ---------------------------------------------------------------------------
# permutation search


def _greedy_match(cost: np.ndarray) -> np.ndarray:
    """Greedy assignment perm[i] = j, cheapest free pair first; first minimum wins ties."""
    m = cost.shape[0]
    perm = np.empty(m, dtype=int)
    usable = cost.copy()
    for _ in range(m):
        i, j = np.unravel_index(int(np.argmin(usable)), usable.shape)
        perm[i] = j
        usable[i, :] = np.inf
        usable[:, j] = np.inf
    return perm


def _row_runs(D: np.ndarray):
    """Runs of adjacent equal rows: one representative row per run, and each row's run."""
    new_run = np.any(D[1:] != D[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new_run)))
    return D[starts], np.cumsum(np.concatenate(([0], new_run)))


def _row_cost(D1: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """cost[i, j] = sum_c |D1[i, c] - D2[j, c]|, evaluated once per pair of row runs.

    Each entry is the same sum over the same values in the same order as in
    the full m x m x m tensor, so the result is bit-identical to it.
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
    for a in range(0, u1, step):
        cu[a : a + step] = np.abs(R1[a : a + step, None, :] - R2[None, :, :]).sum(axis=2)
    return cu[np.ix_(l1, l2)]


def _rank_match(D1: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """Match rows after sorting both by row mean (degree ordering)."""
    r1 = np.lexsort((np.arange(D1.shape[0]), D1.mean(axis=1)))
    r2 = np.lexsort((np.arange(D2.shape[0]), D2.mean(axis=1)))
    perm = np.empty(D1.shape[0], dtype=int)
    perm[r1] = r2
    return perm


def _swap_descent(D1, D2, perm, objective, rng):
    """First-improvement pairwise-swap descent on the permutation."""
    m = len(perm)
    perm = np.array(perm, dtype=int)
    best = objective(D1 - D2[np.ix_(perm, perm)])
    if m <= FULL_SWEEP_M:
        improved = True
        sweeps = 0
        while improved and sweeps < FULL_SWEEPS:
            improved = False
            sweeps += 1
            for i in range(m - 1):
                for j in range(i + 1, m):
                    perm[i], perm[j] = perm[j], perm[i]
                    val = objective(D1 - D2[np.ix_(perm, perm)])
                    if val < best - 1e-15:
                        best = val
                        improved = True
                    else:
                        perm[i], perm[j] = perm[j], perm[i]
        return perm, best
    # large m: bounded random swap proposals
    for _ in range(SWAP_PROPOSALS):
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        perm[i], perm[j] = perm[j], perm[i]
        val = objective(D1 - D2[np.ix_(perm, perm)])
        if val < best - 1e-15:
            best = val
        else:
            perm[i], perm[j] = perm[j], perm[i]
    return perm, best


def _search(D1, D2, metric: str, restarts: int, seed: int):
    """Candidate alignments, swap descent on the best, then a full-quality final value."""
    m = D1.shape[0]
    rng = stream(seed, "delta-upper")

    def objective(D):
        return _difference_norm(D, metric, restarts=4, seed=seed)

    # the row cost is built on runs of equal rows and is bit-identical to the
    # full m x m x m tensor; |a - b| == |b - a| exactly, so cost.T is the
    # backward (D2-rows first) cost
    cost = _row_cost(D1, D2)
    cands = [np.arange(m), _rank_match(D1, D2), _greedy_match(cost)]
    back = _greedy_match(cost.T)
    inv = np.empty(m, dtype=int)
    inv[back] = np.arange(m)
    cands.append(inv)
    for r in range(restarts):
        cands.append(stream(seed, "delta-restart", r).permutation(m))
    scored = [(objective(D1 - D2[np.ix_(p, p)]), idx) for idx, p in enumerate(cands)]
    scored.sort(key=lambda t: (t[0], t[1]))
    if restarts == 0:
        # budget mode: deterministic alignment candidates only, no local
        # search (used by the risk harness where m equals the sample size)
        best_perm, best_val = cands[scored[0][1]], scored[0][0]
    else:
        descend = [cands[idx] for _, idx in scored[: (len(cands) if m <= 8 else 3)]]
        best_perm, best_val = None, np.inf
        for p in descend:
            q, val = _swap_descent(D1, D2, p, objective, rng)
            if val < best_val:
                best_perm, best_val = q, val
    if metric == "cut" and _cut_mode(m) == "heuristic":
        # only the heuristic cut depends on restarts: re-score at full quality
        best_val = min(best_val, _difference_norm(
            D1 - D2[np.ix_(best_perm, best_perm)], metric, restarts=max(restarts, 16), seed=seed))
    return best_perm, best_val


@dataclass(frozen=True)
class DistanceEstimate:
    """Upper/lower bracket for a rearrangement distance.

    ``permutation`` maps refined steps of the second argument into the
    first argument's frame.  Replaying it through `permuted_difference_norm`
    with the same ``m``, ``metric`` and ``seed`` reproduces ``upper`` bit for
    bit, at any ``restarts`` for l1, l2 and the exact cut (m <= EXACT_CUT_M).
    With the heuristic cut, ``upper`` is the smaller of the replays at
    ``restarts=4`` (how the search scores candidates) and at
    ``restarts=max(restarts, 16)`` (its final evaluation).
    """

    upper: float
    lower: float
    metric: str
    permutation: Optional[np.ndarray]
    m: int
    method: str
    detail: dict = field(default_factory=dict)


def delta_upper(
    W1: StepGraphon,
    W2: StepGraphon,
    metric: str = "cut",
    m: Optional[int] = None,
    restarts: int = 32,
    seed: int = 0,
) -> DistanceEstimate:
    """Search upper bound on delta_metric via blow-up + permutation search.

    With m <= ENUMERATE_M the enumeration is exact (screened enumeration,
    first optimum, bit-identical to trying every permutation), so ``upper``
    equals `delta_exact_tiny` on the same blow-ups and
    ``detail["enumerated"]`` is True; `restarts` and `seed` then play no
    part.  ``lower`` stays 0: a finer refinement can pair
    parts of steps and go below the optimum over permutations.  Otherwise the
    candidate alignments are: identity, row-mean rank matching, greedy row
    matching (both directions), plus `restarts` random permutations; when
    ``restarts > 0`` the most promising candidates then get pairwise-swap
    local descent, and ``restarts=0`` returns the best candidate as it is.
    The greedy matching's row cost raises BudgetError when the runs of equal
    rows in the two blow-ups, u1 and u2 of them, give u1 * u2 * m >
    COST_BUDGET.
    """
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    if restarts < 0:
        raise ValidationError("restarts must be >= 0")
    exact_m = None
    if m is None:
        m, exact_m = common_refinement_m(W1, W2)
    if m < max(W1.k, W2.k):
        raise ValidationError(f"m={m} below max step count {max(W1.k, W2.k)}")
    D1 = blowup(W1, m).values
    D2 = blowup(W2, m).values
    detail = {"exact_refinement": exact_m} if exact_m is not None else {}
    if m <= ENUMERATE_M:
        best_perm, best_val = _min_over_permutations(D1, D2, metric)
        detail["enumerated"] = True
    else:
        best_perm, best_val = _search(D1, D2, metric, restarts, seed)
    method = f"search-{_cut_mode(m)}-cut" if metric == "cut" else "search"
    return DistanceEstimate(float(best_val), 0.0, metric, best_perm, m, method, detail)


def delta_exact_tiny(W1: StepGraphon, W2: StepGraphon, metric: str = "cut") -> DistanceEstimate:
    """Enumerate all m! permutations of the smallest exact common refinement.

    Requires both weight vectors to refine exactly into m <= 8 equal steps.
    Screened enumeration, first optimum, bit-identical: only one
    permutation per distinct arrangement of W2's equal steps is scored, and
    only where a batched screen says it could win (`_min_over_permutations`).
    ``upper`` is the exact minimum over permutations of that refinement,
    which bounds delta_metric from above; a finer refinement can pair parts
    of steps and go lower, so ``lower`` is 0.
    """
    if metric not in METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    m, exact = common_refinement_m(W1, W2, cap=8)
    if not exact:
        raise ValidationError("weights do not refine exactly into m <= 8 equal steps")
    D1 = blowup(W1, m).values
    D2 = blowup(W2, m).values
    best_perm, best_val = _min_over_permutations(D1, D2, metric)
    return DistanceEstimate(best_val, 0.0, metric, best_perm, m, "exact-enumeration")


@dataclass(frozen=True)
class MotifLowerBound:
    value: float
    motif: Optional[Motif]
    densities: dict


def _motif_densities(W: StepGraphon) -> list[float]:
    """t(F, W) for each F in DEFAULT_MOTIFS, in that order."""
    return [homomorphism_density(f, W) for f in DEFAULT_MOTIFS]


def _motif_bound(dens1: Sequence[float], dens2: Sequence[float]) -> MotifLowerBound:
    """Best counting-lemma bound from two density lists in DEFAULT_MOTIFS order."""
    value, motif, dens = 0.0, None, {}
    for f, t1, t2 in zip(DEFAULT_MOTIFS, dens1, dens2):
        dens[f.name] = (t1, t2)
        val = abs(t1 - t2) / (4.0 * f.edge_count)
        if val > value:
            value, motif = val, f
    return MotifLowerBound(value, motif, dens)


def delta_cut_lower(W1: StepGraphon, W2: StepGraphon) -> MotifLowerBound:
    """Best counting-lemma bound over DEFAULT_MOTIFS: max_F |t(F,W1)-t(F,W2)| / (4 e(F))."""
    return _motif_bound(_motif_densities(W1), _motif_densities(W2))
