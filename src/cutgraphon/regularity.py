"""Weak regularity decompositions of step graphons.

Greedy energy-increment construction: repeatedly take an exact cut-norm
witness (S, T) of the current residual, subtract the residual's mean on
S x T from that rectangle, and stop once the residual's cut norm falls to
1/sqrt(k0) with k0 = floor(log2(q0)).  Each subtraction lowers the
weighted L2 energy by cut^2 / (lam(S) lam(T)) >= cut^2, which caps the
number of rounds at k0 because the energy starts at most 1.

Because the residual stays a step function on the graphon's own steps,
witnesses are unions of whole steps and the exact cut enumerator applies
at every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import Kernel, StepGraphon, _as_indices, _as_real, _expect, _freeze
from .cutnorm import step_kernel_cut_norm_exact


@dataclass(frozen=True)
class RegularityTerm:
    """One greedy round: subtract `coefficient` on rows x cols, step
    indices stored as frozen copies."""

    coefficient: float
    rows: np.ndarray
    cols: np.ndarray
    residual_cut: float      # exact cut norm before this subtraction
    energy_before: float
    energy_after: float

    def __post_init__(self):
        for side in ("rows", "cols"):
            idx = _as_indices(getattr(self, side), np.inf, f"RegularityTerm {side}")
            object.__setattr__(self, side, _freeze(idx.copy()))


@dataclass(frozen=True)
class RegularityDecomposition:
    """The greedy rounds and what they leave; the approximant itself, the
    accumulated step correction W - residual (possibly asymmetric), is the
    first value `weak_regularity_approx` returns."""

    max_terms: int           # k0 = floor(log2 q0)
    target: float            # 1 / sqrt(k0)
    terms: Tuple[RegularityTerm, ...]
    residual: Kernel
    final_cut: float         # exact cut norm of the final residual
    stopped_early: bool      # fewer than max_terms rounds reached the target


def _energy(R: np.ndarray, w: np.ndarray) -> float:
    return float(np.einsum("a,b,ab->", w, w, R**2))


def weak_regularity_approx(W: StepGraphon, q0: int) -> Tuple[Kernel, RegularityDecomposition]:
    """Greedy cut-norm decomposition with at most floor(log2 q0) terms.

    Returns (approx, decomposition); approx + residual reproduces W's
    values exactly, and the final residual's cut norm is at most
    1/sqrt(k0) whenever W's values lie in [0, 1].
    """
    # floor(log2 q0) >= 1 in integers: exact at any size, where a float log2
    # rounds up just below a large power of two and fails from 2**64 on
    k0 = int(_as_real(q0, "q0", 2)).bit_length() - 1
    target = 1.0 / np.sqrt(k0)
    w = _expect(W, StepGraphon, "W").weights
    R = W.values.copy()
    terms = []
    while True:
        res = step_kernel_cut_norm_exact(Kernel._owning(R.copy(), w, w))
        if res.value <= target or len(terms) == k0:
            break
        S, T = res.witness_s, res.witness_t
        lamS = w[S].sum()
        lamT = w[T].sum()
        raw = float(np.einsum("a,b,ab->", w[S], w[T], R[np.ix_(S, T)]))
        a = raw / (lamS * lamT)
        e0 = terms[-1].energy_after if terms else _energy(R, w)
        R[np.ix_(S, T)] -= a
        e1 = _energy(R, w)
        terms.append(RegularityTerm(a, S, T, res.value, e0, e1))
    approx = Kernel._owning(W.values - R, w, w)
    decomp = RegularityDecomposition(
        k0, float(target), tuple(terms),
        Kernel._owning(R, w, w), float(res.value), len(terms) < k0,
    )
    return approx, decomp


def reconstruct_from_terms(decomp: RegularityDecomposition) -> np.ndarray:
    """Rebuild the approximation's step values from the recorded terms."""
    k = decomp.residual.q1
    out = np.zeros((k, k))
    for t in decomp.terms:
        out[np.ix_(t.rows, t.cols)] += t.coefficient
    return out

