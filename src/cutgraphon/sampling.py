"""W-random graph sampling.

Pipeline: latent positions xi_1..xi_n ~ U[0,1) i.i.d., connection
probabilities Theta_ij = rho * W(xi_i, xi_j) for i != j (zero diagonal),
then independent edges A_ij ~ Bernoulli(Theta_ij) for i < j, symmetrized.

All randomness flows through keyed counter-based streams, so results
depend only on (seed, purpose) and never on call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .core import AdjacencyMatrix, LatentSample, ProbMatrix, StepGraphon, _check_dense
from .errors import ValidationError


@dataclass(frozen=True)
class ModelSpec:
    """A sampling model: a step graphon plus a density scale rho."""

    graphon: StepGraphon
    rho: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho <= 0:
            raise ValidationError(f"rho must be positive and finite, got {self.rho}")

    @property
    def max_scaled_value(self) -> float:
        return float(self.rho * self.graphon.values.max())


def sbm_spec(k: int, p_in: float, p_out: float, rho: float = 1.0) -> ModelSpec:
    """Stochastic block model as a step-graphon spec.

    Q has p_in on the diagonal and p_out off it; communities have equal
    weights.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    for name, v in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= v <= 1.0):
            raise ValidationError(f"{name} must lie in [0,1], got {v}")
    Q = np.full((k, k), float(p_out))
    np.fill_diagonal(Q, float(p_in))
    return ModelSpec(StepGraphon(Q, np.full(k, 1.0 / k)), rho)


def sample_latents(n: int, seed: int = 0) -> LatentSample:
    """n i.i.d. uniform latent positions."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = stream(seed, "latents")
    return LatentSample(rng.random(n))


def step_labels(W: StepGraphon, positions: np.ndarray) -> np.ndarray:
    """Map positions in [0,1) to step indices via the cumulative boundaries.

    Step a owns the half-open interval [b_a, b_{a+1}).
    """
    x = np.asarray(positions, dtype=float)
    if x.size and (x.min() < 0 or x.max() >= 1):
        raise ValidationError("positions must lie in [0, 1)")
    b = W.boundaries()
    return np.clip(np.searchsorted(b, x, side="right") - 1, 0, W.k - 1)


def theta_from_labels(spec: ModelSpec, labels: np.ndarray, clip: bool = False) -> ProbMatrix:
    """Connection-probability matrix rho*Q[z_i, z_j], zero diagonal.

    More than DENSE_BUDGET entries (see `core`) raise BudgetError.  The
    matrix is finite and in [0, 1 + 1e-12] by the checks here, and exactly
    symmetric because the graphon's values are, so it is clipped and frozen
    in place as the ProbMatrix constructor would clip a copy.
    """
    z = np.asarray(labels, dtype=int)
    _check_dense(z.size)
    if z.size and (z.min() < 0 or z.max() >= spec.graphon.k):
        raise ValidationError("labels out of range for the graphon's steps")
    Q = spec.graphon.values
    T = spec.rho * Q.take(z, axis=0).take(z, axis=1)
    if not clip and spec.max_scaled_value > 1.0 + 1e-12:
        raise ValidationError(
            f"rho * max(W) = {spec.max_scaled_value:.6g} exceeds 1; "
            "clip explicitly if that is intended"
        )
    np.fill_diagonal(T, 0.0)
    np.clip(T, 0.0, 1.0, out=T)
    return ProbMatrix._owning(T)


def sample_theta(spec: ModelSpec, latents: LatentSample, clip: bool = False) -> ProbMatrix:
    """Theta for the given latent draw; errors if rho*max(W) > 1 unless `clip` truncates at 1."""
    return theta_from_labels(spec, step_labels(spec.graphon, latents.positions), clip=clip)


def sample_adjacency(theta: ProbMatrix, seed: int = 0) -> AdjacencyMatrix:
    """Independent Bernoulli edges above the diagonal, symmetrized."""
    T = theta.values
    n = T.shape[0]
    u = stream(seed, "adjacency").random((n, n))
    upper = np.triu(u < T, k=1)
    A = (upper | upper.T).astype(float)  # 0/1, symmetric, zero diagonal
    return AdjacencyMatrix._owning(A)


def sample_graph(spec: ModelSpec, n: int, seed: int = 0, clip: bool = False):
    """One-call convenience: returns (latents, theta, adjacency).

    n with more than DENSE_BUDGET entries in Theta raises BudgetError before
    anything is drawn.
    """
    _check_dense(n)
    lat = sample_latents(n, seed)
    theta = sample_theta(spec, lat, clip)
    return lat, theta, sample_adjacency(theta, seed)
