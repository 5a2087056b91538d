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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .core import StepGraphon, blowup
from .cutnorm import _max_rectangle_sum, _max_rectangle_sum_heuristic
from .errors import BudgetError, ValidationError

METRICS = ("cut", "l1", "l2")
DEFAULT_M_CAP = 64
EXACT_CUT_M = 12  # up to here the cut objective inside the search is exact
ENUMERATE_M = 6   # up to here delta_upper enumerates all m! permutations
COST_BUDGET = 2**31  # elements of u1 x u2 x m behind the search's row cost
_COST_BLOCK = 2**22  # elements per temporary while the row cost is filled


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


def _exactly_refinable(W: StepGraphon, m: int, tol: float = 1e-9) -> bool:
    r = W.weights * m
    rounded = np.rint(r)
    return bool(np.all(np.abs(r - rounded) <= tol) and np.all(rounded >= 1))


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
        raw, _, _ = _max_rectangle_sum(D, m)
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


def _min_over_permutations(D1: np.ndarray, D2: np.ndarray, metric: str):
    """Exact min over all m! permutations of ||D1 - P D2 P^T||; first optimum wins."""
    m = D1.shape[0]
    best_val, best_perm = np.inf, None
    for p in itertools.permutations(range(m)):
        perm = np.array(p, dtype=int)
        val = _difference_norm(D1 - D2[np.ix_(perm, perm)], metric, 0, 0)
        if val < best_val - 1e-18:
            best_val, best_perm = val, perm
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


def _swap_descent(D1, D2, perm, objective, full_sweep_limit=16, proposal_budget=2000, rng=None):
    """First-improvement pairwise-swap descent on the permutation."""
    m = len(perm)
    perm = np.array(perm, dtype=int)
    best = objective(D1 - D2[np.ix_(perm, perm)])
    if m <= full_sweep_limit:
        improved = True
        sweeps = 0
        while improved and sweeps < 12:
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
    for _ in range(proposal_budget):
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
            q, val = _swap_descent(D1, D2, p, objective, rng=rng)
            if val < best_val:
                best_perm, best_val = q, val
    # final value at full quality (more heuristic restarts for big m)
    final = _difference_norm(
        D1 - D2[np.ix_(best_perm, best_perm)], metric, restarts=max(restarts, 16), seed=seed
    )
    best_val = min(best_val, final) if _cut_mode(m) == "heuristic" else final
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

    With m <= ENUMERATE_M every permutation is tried and the first optimum
    is returned, so ``upper`` equals `delta_exact_tiny` on the same
    blow-ups and ``detail["enumerated"]`` is True; `restarts` and `seed`
    then play no part.  ``lower`` stays 0: a finer refinement can pair
    parts of steps and go below the optimum over permutations.  Otherwise the
    candidate alignments are: identity, row-mean rank matching, greedy row
    matching (both directions), plus `restarts` random permutations; the
    most promising candidates then get pairwise-swap local descent.  The
    greedy matching's row cost raises BudgetError when the runs of equal
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


def delta_cut_lower(
    W1: StepGraphon, W2: StepGraphon, motifs: Sequence[Motif] = DEFAULT_MOTIFS
) -> MotifLowerBound:
    """Best counting-lemma bound: max_F |t(F,W1)-t(F,W2)| / (4 e(F))."""
    best = MotifLowerBound(0.0, None, {})
    dens = {}
    for f in motifs:
        if f.edge_count == 0:
            raise ValidationError("motifs for lower bounds need at least one edge")
        t1 = homomorphism_density(f, W1)
        t2 = homomorphism_density(f, W2)
        dens[f.name or repr(f)] = (t1, t2)
        val = abs(t1 - t2) / (4.0 * f.edge_count)
        if val > best.value:
            best = MotifLowerBound(val, f, {})
    return MotifLowerBound(best.value, best.motif, dens)
