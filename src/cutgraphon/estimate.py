"""Probability-matrix estimators from a single adjacency observation.

Three estimators, in increasing order of structure:

* identity (the graph itself) and the global mean,
* spectral truncation: keep eigenpairs with |eigenvalue| at least a
  threshold, SVT_C * sqrt(n * edge density) unless one is given, then
  clip into [0,1] with a zero diagonal,
* restricted least squares over k-block matrices with entries in
  [0, rho], fitted by alternating minimization with restarts, plus an
  exact enumerator for tiny instances to validate against.

The label sweep of the alternating fit screens SWEEP_BLOCK nodes at a time
with one matrix product and skips the nodes that the screen proves cannot
move; every other node gets the same per-node cost and move rule as a plain
node-by-node sweep.  The screen only decides which nodes to skip, and skips
only what a rounding bound certifies, so the labels, block values and
objective of every fit are bit-identical to the plain sweep's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import stream
from .core import (AdjacencyMatrix, ProbMatrix, _as_indices, _as_int, _as_real, _expect,
                   _freeze, _prob_values)
from .errors import BudgetError, ValidationError

ENUM_BUDGET = 2_000_000
RLS_MAX_SWEEPS = 50  # label sweeps per restart of the alternating fit
SWEEP_BLOCK = 64  # nodes screened by one product in a label sweep
SVT_C = 2.1  # spectral threshold in units of sqrt(n * edge density)


def estimate_adjacency(A: AdjacencyMatrix) -> ProbMatrix:
    """The observation itself: an AdjacencyMatrix is a (degenerate) ProbMatrix,
    so A is returned as it is."""
    return _expect(A, AdjacencyMatrix, "A")


def estimate_mean(A: AdjacencyMatrix) -> ProbMatrix:
    """Constant off-diagonal estimate at the empirical edge density."""
    p = edge_density(A)  # in [0, 1]: A has no loops
    T = np.full((A.n, A.n), p)
    np.fill_diagonal(T, 0.0)
    return ProbMatrix._owning(T)


def edge_density(A: AdjacencyMatrix) -> float:
    n = _expect(A, AdjacencyMatrix, "A").n
    return float(A.values.sum() / (n * (n - 1))) if n > 1 else 0.0


# ---------------------------------------------------------------------------
# spectral truncation


@dataclass(frozen=True)
class SvtEstimate:
    prob: ProbMatrix          # clipped to [0,1], zero diagonal
    raw: np.ndarray           # truncated eigenexpansion before clipping
    threshold: float
    kept: int

    def __post_init__(self):
        self.raw.setflags(write=False)


def estimate_svt(A: AdjacencyMatrix, threshold: Optional[float] = None) -> SvtEstimate:
    """Eigenvalue truncation of the adjacency matrix.

    Keeps the eigenpairs with |eigenvalue| >= threshold, which defaults to
    SVT_C*sqrt(n*edge_density(A)); a given `threshold`, a finite real >= 0,
    replaces the formula (0 keeps every eigenpair).
    """
    M = _expect(A, AdjacencyMatrix, "A").values
    if threshold is not None:
        lam = float(_as_real(threshold, "threshold", 0))
    else:
        lam = SVT_C * np.sqrt(A.n * edge_density(A))
    w, V = np.linalg.eigh(M)
    keep = np.abs(w) >= lam
    raw = (V[:, keep] * w[keep]) @ V[:, keep].T
    raw = (raw + raw.T) / 2.0   # exactly symmetric: addition commutes
    clipped = np.clip(raw, 0.0, 1.0)
    np.fill_diagonal(clipped, 0.0)
    return SvtEstimate(ProbMatrix._owning(clipped), raw, lam, int(keep.sum()))


# ---------------------------------------------------------------------------
# restricted least squares over k-block matrices


@dataclass(frozen=True)
class BlockFit:
    """A k-block fit: node labels, block value matrix, squared error.

    ``objective`` is the off-diagonal squared error
    sum_{i != j} (A_ij - Q[z_i, z_j])^2.  The labels are nonempty, in range(k),
    and stored as a frozen copy, so the caller's array stays as it was; the
    block values are checked and stored by `ProbMatrix`'s rule for entries.
    """

    labels: np.ndarray
    block_values: np.ndarray
    objective: float

    def __post_init__(self):
        Q = _prob_values(self.block_values, "BlockFit block values")
        z = _as_indices(self.labels, Q.shape[0], "BlockFit labels")
        if z.size == 0:
            raise ValidationError("BlockFit labels must be nonempty")
        object.__setattr__(self, "labels", _freeze(z.copy()))
        object.__setattr__(self, "block_values", _freeze(Q))

    @property
    def k(self) -> int:
        return self.block_values.shape[0]


def _block_sums(A: np.ndarray, z: np.ndarray, k: int):
    """(sT, counts): sT[b, i] is the sum of A_ij over j with z_j = b (the
    diagonal of A is 0) and counts[b] the size of block b.

    A is 0/1, so every entry is an exact integer, and the in-place updates
    of a label sweep keep it equal to a fresh computation bit for bit.
    """
    Z = np.eye(k)[z]
    return Z.T @ A, Z.sum(axis=0)


def _block_means(sT: np.ndarray, counts: np.ndarray, z: np.ndarray,
                 rho: float) -> np.ndarray:
    """Least-squares block values for fixed labels, clipped into [0, rho]."""
    k = counts.shape[0]
    S = sT @ np.eye(k)[z]  # S[a, b] = sum of A_ij over z_i = a, z_j = b
    pairs = np.outer(counts, counts) - np.diag(counts)
    Q = np.divide(S, pairs, out=np.zeros((k, k)), where=pairs > 0)
    return np.clip(Q, 0.0, rho)


def _objective(A: np.ndarray, z: np.ndarray, Q: np.ndarray) -> float:
    T = Q.take(z, axis=0).take(z, axis=1)  # fresh, so the residual is formed and squared in place
    np.subtract(A, T, out=T)
    np.fill_diagonal(T, 0.0)
    return float(np.square(T, out=T).sum())


def _sweep_margin(n: int, k: int) -> float:
    """How far above a node's own screened cost every other label must screen
    for the node to be skipped: a proven rounding bound, with headroom.

    With u = 2**-53 and gamma_m = m*u / (1 - m*u), a length-m dot product in
    any summation order, with or without FMA, is off by at most gamma_m times
    the sum of the absolute products.  Q lies in [0, rho] within [0, 1], so
    |-2Q| <= 2 and Q**2 <= 1 entrywise; a column of the block sums sT sums to
    the node's degree <= n - 1 and `counts` sums to n.  So for each label a
    the absolute products of both dot products add up to at most
    2(n - 1) + n <= 3n.
      exact:  (Qm2 @ sT[:, p]) + (Q2 @ cex), two products and one add:
              error <= gamma_(k+1) * 3n;
      screen: (Qm2 @ sT[:, p]) + (Q2 @ counts) - Q2[a, cur], two
              products, one add and one subtract of a term <= 1:
              error <= gamma_(k+2) * (3n + 1).
    So the routes differ by d <= 2 * gamma_(k+2) * (3n + 1).  The skip test
    C[a] >= fl(C[cur] + (margin - 1e-12)) and the move test
    cost[a] < fl(cost[cur] - 1e-12) each round once more, by at most
    u * (3n + 1) (plus u * 1e-11 for the constant).  A skipped node thus has
    cost[a] >= fl(cost[cur] - 1e-12) for every a whenever
    margin >= 2d + 2u(3n + 1) + tiny, i.e. about (4.1(k + 2) + 2.1)u(3n + 1).
    The margin below is 16(k + 2)u(3n + 1): at least three times that.
    """
    return 16.0 * (k + 2) * 2.0**-53 * (3 * n + 1)


def _screen_costs(Qm2, Q2, sT, counts, z, i: int, j: int) -> np.ndarray:
    """k x (j - i) costs of nodes i..j-1, every label at once, up to rounding.

    Column p - i is node p's exact cost with cex = counts - e_{z[p]} expanded:
    Q2 @ cex = Q2 @ counts - Q2[:, z[p]].
    """
    return Qm2 @ sT[:, i:j] + (Q2 @ counts)[:, None] - Q2[:, z[i:j]]


def _node_cost(Qm2, Q2, sT, counts, p: int, cur: int) -> np.ndarray:
    """Node p's relabel cost for every label, as the plain sweep rounds it."""
    cex = counts.copy()
    cex[cur] -= 1.0  # exclude node p itself from its own block count
    # cost(a) = -2 <Q[a], s_p> + <Q[a]^2, counts-without-p>, doubled by
    # symmetry; constant terms dropped.  The copy hands BLAS a contiguous
    # vector whatever the stride of sT.
    return Qm2 @ sT[:, p].copy() + Q2 @ cex


def _label_sweep(A: np.ndarray, z: np.ndarray, Q: np.ndarray,
                 sT: np.ndarray, counts: np.ndarray) -> bool:
    """One sequential pass of single-node relabel moves; True if any changed.

    Nodes are visited in order 0..n-1 and a node moves to the argmin of its
    exact cost when that beats its current label by more than 1e-12.  To
    skip that work, each block of SWEEP_BLOCK unvisited nodes is screened
    with one product (`_screen_costs`); a node whose every other label
    screens at least `_sweep_margin` above its own cannot move and is
    skipped.  The rest take the exact cost and move rule.  A move changes
    the block sums, so the screen certifies nothing after it: a run of
    consecutive nodes that the screen left unsure is visited exactly while
    they keep moving (the dense moves of the first sweeps), and the screen
    restarts at the first node past that run.  Any node may be visited
    exactly, and only certified nodes are skipped, so the labels match the
    node-by-node sweep bit for bit.  z, sT and counts (`_block_sums` of z)
    are updated in place.  A must be symmetric (sT keeps A's rows as its
    columns).
    """
    n = A.shape[0]
    k = Q.shape[0]
    Qm2 = -2.0 * Q
    Q2 = Q**2
    slack = _sweep_margin(n, k) - 1e-12
    changed = False
    i = 0
    while i < n:
        j = min(i + SWEEP_BLOCK, n)
        C = _screen_costs(Qm2, Q2, sT, counts, z, i, j)
        cols = np.arange(j - i)
        own = C[z[i:j], cols]
        C[z[i:j], cols] = np.inf
        unsure = (C.min(axis=0) < own + slack).nonzero()[0]
        start, i = i, j
        stale = False  # a move since the screen: it certifies nothing more
        for p in (start + unsure).tolist():
            if stale and p != i:
                break  # a node the stale screen passed: screen again from i
            cur = z[p]
            cost = _node_cost(Qm2, Q2, sT, counts, p, cur)
            a = int(cost.argmin())
            if cost[a] < cost[cur] - 1e-12:
                z[p] = a
                counts[cur] -= 1.0
                counts[a] += 1.0
                sT[cur] -= A[p]
                sT[a] += A[p]
                changed = stale = True
                i = p + 1
            elif stale:
                i = p + 1
                break
    return changed


def estimate_restricted_ls(
    A: AdjacencyMatrix,
    k: int,
    rho: float = 1.0,
    restarts: int = 16,
    seed: int = 0,
) -> BlockFit:
    """Alternating minimization over labels and block values.

    Each restart draws uniform initial labels from its own stream, then
    alternates label sweeps with block-mean refreshes until the labels
    stop moving.  Best objective across restarts wins.
    """
    k = _as_int(k, "k", 1, _expect(A, AdjacencyMatrix, "A").n)
    rho = _as_real(rho, "rho", 0, 1, lo_open=True)
    M = A.values
    n = A.n
    best = None
    for r in range(_as_int(restarts, "restarts", 1)):
        z = stream(seed, "rls", r).integers(0, k, size=n)
        sT, counts = _block_sums(M, z, k)
        Q = _block_means(sT, counts, z, rho)
        for _ in range(RLS_MAX_SWEEPS):
            if not _label_sweep(M, z, Q, sT, counts):
                break  # z is unchanged, so Q already holds its block means
            Q = _block_means(sT, counts, z, rho)
        obj = _objective(M, z, Q)
        if best is None or obj < best.objective - 1e-12:
            best = BlockFit(z, Q, obj)
    return best


def exact_restricted_ls(A: AdjacencyMatrix, k: int, rho: float = 1.0) -> BlockFit:
    """Global minimum by enumerating all k^n labelings (small n only)."""
    k = _as_int(k, "k", 1)
    rho = _as_real(rho, "rho", 0, 1, lo_open=True)
    n = _expect(A, AdjacencyMatrix, "A").n
    if k**n > ENUM_BUDGET:
        raise BudgetError(f"k^n = {k**n} exceeds enumeration budget {ENUM_BUDGET}")
    M = A.values
    best = None
    for zt in itertools.product(range(k), repeat=n):
        z = np.array(zt, dtype=int)
        Q = _block_means(*_block_sums(M, z, k), z, rho)
        obj = _objective(M, z, Q)
        if best is None or obj < best.objective - 1e-12:
            best = BlockFit(z, Q, obj)
    return best


def fit_to_prob_matrix(fit: BlockFit) -> ProbMatrix:
    """Materialize a block fit as an n x n probability matrix.

    A BlockFit holds exactly symmetric block values in [0, 1], so the gather
    with a zero diagonal is what the ProbMatrix constructor would return.
    """
    Q = _expect(fit, BlockFit, "fit").block_values
    T = Q.take(fit.labels, axis=0).take(fit.labels, axis=1)
    np.fill_diagonal(T, 0.0)
    return ProbMatrix._owning(T)

