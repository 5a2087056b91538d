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
from .core import AdjacencyMatrix, LatentSample, ProbMatrix, StepGraphon
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


def sbm_spec(k: int, p_in: float, p_out: float, rho: float = 1.0, weights=None) -> ModelSpec:
    """Stochastic block model as a step-graphon spec.

    Q has p_in on the diagonal and p_out off it; equal community weights
    unless `weights` is given.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    for name, v in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= v <= 1.0):
            raise ValidationError(f"{name} must lie in [0,1], got {v}")
    Q = np.full((k, k), float(p_out))
    np.fill_diagonal(Q, float(p_in))
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return ModelSpec(StepGraphon(Q, w), rho)


def sample_latents(n: int, seed: int = 0) -> LatentSample:
    """n i.i.d. uniform latent positions."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = stream(seed, "latents")
    return LatentSample(rng.random(n), seed)


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
    """Connection-probability matrix rho*Q[z_i, z_j], zero diagonal."""
    z = np.asarray(labels, dtype=int)
    if z.size and (z.min() < 0 or z.max() >= spec.graphon.k):
        raise ValidationError("labels out of range for the graphon's steps")
    T = spec.rho * spec.graphon.values[np.ix_(z, z)]
    if clip:
        T = np.minimum(T, 1.0)
    elif spec.max_scaled_value > 1.0 + 1e-12:
        raise ValidationError(
            f"rho * max(W) = {spec.max_scaled_value:.6g} exceeds 1; "
            "clip explicitly if that is intended"
        )
    np.fill_diagonal(T, 0.0)
    return ProbMatrix(T)


def sample_theta(spec: ModelSpec, latents: LatentSample, clip: bool = False) -> ProbMatrix:
    """Theta for the given latent draw; errors if rho*max(W) > 1 unless `clip` truncates at 1."""
    return theta_from_labels(spec, step_labels(spec.graphon, latents.positions), clip=clip)


def sample_adjacency(theta: ProbMatrix, seed: int = 0) -> AdjacencyMatrix:
    """Independent Bernoulli edges above the diagonal, symmetrized."""
    T = theta.values
    n = T.shape[0]
    u = stream(seed, "adjacency").random((n, n))
    upper = np.triu(u < T, k=1)
    A = upper | upper.T
    return AdjacencyMatrix(A.astype(float))


def sample_graph(spec: ModelSpec, n: int, seed: int = 0, clip: bool = False):
    """One-call convenience: returns (latents, theta, adjacency)."""
    lat = sample_latents(n, seed)
    theta = sample_theta(spec, lat, clip)
    return lat, theta, sample_adjacency(theta, seed)
