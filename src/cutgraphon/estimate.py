"""Probability-matrix estimators from a single adjacency observation.

Three estimators, in increasing order of structure:

* identity (the graph itself) and the global mean,
* spectral truncation: keep eigenpairs with |eigenvalue| above
  c * sqrt(n * rho_hat), then clip into [0,1] with a zero diagonal,
* restricted least squares over k-block matrices with entries in
  [0, rho], fitted by alternating minimization with restarts, plus an
  exact enumerator for tiny instances to validate against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import stream
from .core import AdjacencyMatrix, ProbMatrix
from .errors import BudgetError, ValidationError

ENUM_BUDGET = 2_000_000
RLS_MAX_SWEEPS = 50  # label sweeps per restart of the alternating fit


def estimate_adjacency(A: AdjacencyMatrix) -> ProbMatrix:
    """The observation itself as a (degenerate) probability matrix."""
    return ProbMatrix(A.values)


def estimate_mean(A: AdjacencyMatrix) -> ProbMatrix:
    """Constant off-diagonal estimate at the empirical edge density."""
    T = np.full((A.n, A.n), edge_density(A))
    np.fill_diagonal(T, 0.0)
    return ProbMatrix(T)


def edge_density(A: AdjacencyMatrix) -> float:
    n = A.n
    return float(A.values.sum() / (n * (n - 1))) if n > 1 else 0.0


# ---------------------------------------------------------------------------
# spectral truncation


@dataclass(frozen=True)
class SvtConfig:
    """Threshold c*sqrt(n*rho_hat); rho_hat defaults to the edge density.

    `threshold` overrides the formula entirely (0 keeps every eigenpair).
    """

    c: float = 2.1
    rho_hat: Optional[float] = None
    threshold: Optional[float] = None


@dataclass(frozen=True)
class SvtEstimate:
    prob: ProbMatrix          # clipped to [0,1], zero diagonal
    raw: np.ndarray           # truncated eigenexpansion before clipping
    threshold: float
    kept: int

    def __post_init__(self):
        self.raw.setflags(write=False)


def estimate_svt(A: AdjacencyMatrix, config: SvtConfig = SvtConfig()) -> SvtEstimate:
    """Eigenvalue truncation of the adjacency matrix."""
    if config.c < 0:
        raise ValidationError("c must be >= 0")
    M = A.values
    n = A.n
    if config.threshold is not None:
        lam = float(config.threshold)
    else:
        rho_hat = edge_density(A) if config.rho_hat is None else float(config.rho_hat)
        if rho_hat < 0:
            raise ValidationError("rho_hat must be >= 0")
        lam = config.c * np.sqrt(n * rho_hat)
    w, V = np.linalg.eigh(M)
    keep = np.abs(w) >= lam
    raw = (V[:, keep] * w[keep]) @ V[:, keep].T
    raw = (raw + raw.T) / 2.0
    clipped = np.clip(raw, 0.0, 1.0)
    np.fill_diagonal(clipped, 0.0)
    return SvtEstimate(ProbMatrix(clipped), raw, lam, int(keep.sum()))


# ---------------------------------------------------------------------------
# restricted least squares over k-block matrices


@dataclass(frozen=True)
class BlockFit:
    """A k-block fit: node labels, block value matrix, squared error.

    ``objective`` is the off-diagonal squared error
    sum_{i != j} (A_ij - Q[z_i, z_j])^2.
    """

    labels: np.ndarray
    block_values: np.ndarray
    objective: float
    method: str

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.block_values.setflags(write=False)

    @property
    def k(self) -> int:
        return self.block_values.shape[0]


def _block_means(A: np.ndarray, z: np.ndarray, k: int, rho: float) -> np.ndarray:
    """Least-squares block values for fixed labels, clipped into [0, rho]."""
    n = A.shape[0]
    Z = np.zeros((n, k))
    Z[np.arange(n), z] = 1.0
    S = Z.T @ A @ Z
    c = Z.sum(axis=0)
    pairs = np.outer(c, c) - np.diag(c)
    Q = np.divide(S, pairs, out=np.zeros((k, k)), where=pairs > 0)
    return np.clip(Q, 0.0, rho)


def _objective(A: np.ndarray, z: np.ndarray, Q: np.ndarray) -> float:
    T = Q[np.ix_(z, z)]
    np.fill_diagonal(T, 0.0)
    R = A - T
    np.fill_diagonal(R, 0.0)
    return float((R**2).sum())


def _label_sweep(A: np.ndarray, z: np.ndarray, Q: np.ndarray) -> bool:
    """One sequential pass of single-node relabel moves; True if any changed."""
    n = A.shape[0]
    k = Q.shape[0]
    Z = np.zeros((n, k))
    Z[np.arange(n), z] = 1.0
    counts = Z.sum(axis=0)
    s = A @ Z  # s[i, b] = sum of A_ij over j with z_j = b (diag of A is 0)
    changed = False
    for i in range(n):
        cur = z[i]
        cex = counts.copy()
        cex[cur] -= 1.0  # exclude node i itself from its own block count
        # cost(a) = -2 <Q[a], s_i> + <Q[a]^2, counts-without-i>, doubled by
        # symmetry; constant terms dropped
        cost = -2.0 * Q @ s[i] + (Q**2) @ cex
        a = int(np.argmin(cost))
        if cost[a] < cost[cur] - 1e-12:
            z[i] = a
            counts[cur] -= 1.0
            counts[a] += 1.0
            s[:, cur] -= A[:, i]
            s[:, a] += A[:, i]
            changed = True
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
    if not 1 <= k <= A.n:
        raise ValidationError(f"k must lie in [1, n], got k={k}, n={A.n}")
    if not (0 < rho <= 1):
        raise ValidationError("rho must lie in (0, 1]")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    M = A.values
    n = A.n
    best = None
    for r in range(restarts):
        z = stream(seed, "rls", r).integers(0, k, size=n)
        Q = _block_means(M, z, k, rho)
        for _ in range(RLS_MAX_SWEEPS):
            moved = _label_sweep(M, z, Q)
            Q = _block_means(M, z, k, rho)
            if not moved:
                break
        obj = _objective(M, z, Q)
        if best is None or obj < best.objective - 1e-12:
            best = BlockFit(z.copy(), Q, obj, "alternating")
    return best


def exact_restricted_ls(A: AdjacencyMatrix, k: int, rho: float = 1.0) -> BlockFit:
    """Global minimum by enumerating all k^n labelings (small n only)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0 < rho <= 1):
        raise ValidationError("rho must lie in (0, 1]")
    n = A.n
    if k**n > ENUM_BUDGET:
        raise BudgetError(f"k^n = {k**n} exceeds enumeration budget {ENUM_BUDGET}")
    M = A.values
    best = None
    for zt in itertools.product(range(k), repeat=n):
        z = np.array(zt, dtype=int)
        Q = _block_means(M, z, k, rho)
        obj = _objective(M, z, Q)
        if best is None or obj < best.objective - 1e-12:
            best = BlockFit(z, Q, obj, "enumeration")
    return best


def fit_to_prob_matrix(fit: BlockFit) -> ProbMatrix:
    """Materialize a block fit as an n x n probability matrix."""
    T = fit.block_values[np.ix_(fit.labels, fit.labels)]
    np.fill_diagonal(T, 0.0)
    return ProbMatrix(T)

