"""Fano packing constructions: codes, block matrices, and separated families.

Two families are built here.  The matrix family perturbs a flat
probability matrix by a rank-one sign pattern drawn from a
Varshamov-Gilbert code, giving two-valued matrices with certified
pairwise cut-norm separation and an explicit KL budget.  The graphon
family keeps a single value matrix (a Rademacher cross block between
light and heavy steps) and moves only the light step *weights*, so that
any two members differ in latent-label distribution alone and the KL
budget is dimension-free in the values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ._rng import stream
from .core import (
    ProbMatrix,
    StepGraphon,
    _step_weights,
    format_matrix,
    format_stepgraphon,
    parse_matrix,
    parse_stepgraphon,
)
from .cutnorm import matrix_cut_norm_heuristic
from .distance import _motif_bound, _motif_densities, delta_cut_lower, delta_exact_tiny
from .errors import BudgetError, ValidationError

ETA0 = 1.0 / 16.0   # matched-row fraction in the block-matrix spot check
ETA1 = 7.0 / 8.0    # column-subset fraction in the block-matrix spot check
BLOCK_TRIES = 64    # sign-matrix draws before rademacher_block_matrix gives up
MATRIX_PAIRS_TO_CHECK = 20  # element pairs whose cut norm matrix_packing spot-checks
GRAPHON_PAIRS_TO_CHECK = 10  # element pairs whose cut lower bound graphon_packing takes
PROPERTY_II_SAMPLES = 100  # row-matching tuples in the property (ii) spot check
VG_DRAWS_PER_TARGET = 200  # sign-vector draws per wanted code vector
# Largest Varshamov-Gilbert code size: admits k1 = 128 (2981 vectors) and
# rejects k1 = 144 (8104), whose matrix family would hold 8104 dense
# 144 x 144 elements.
VG_TARGET_BUDGET = 4096


# ---------------------------------------------------------------------------
# Varshamov-Gilbert codes


@dataclass(frozen=True)
class VgCode:
    """Balanced sign vectors with certified pairwise Hamming separation."""

    vectors: np.ndarray          # M x k1, entries +-1
    separation: int              # certified min pairwise Hamming distance
    reached: bool

    def __post_init__(self):
        self.vectors.setflags(write=False)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def varshamov_gilbert_code(k1: int, seed: int = 0, two_sided: bool = False) -> VgCode:
    """Rejection-sample balanced +-1 vectors with pairwise Hamming > k1/4.

    With ``two_sided`` the distance is also required to stay below 3*k1/4,
    which rules out near-complementary pairs (needed when a vector and its
    negation produce the same downstream object).  Stops at the target of
    max(ceil(exp(k1/16)), 2) vectors or after VG_DRAWS_PER_TARGET draws per
    target vector; in the latter case the achieved code is returned with
    ``reached`` unset.  A target above VG_TARGET_BUDGET raises BudgetError.
    """
    if k1 < 8 or k1 % 2 != 0:
        raise ValidationError(f"need even k1 >= 8, got {k1}")
    # ceil(exp(k1/16)) > budget exactly when k1/16 > ln(budget), an integer;
    # compared before exp, which overflows from k1 = 11358 on
    if k1 / 16.0 > math.log(VG_TARGET_BUDGET):
        raise BudgetError(f"code target ceil(exp({k1}/16)) exceeds budget {VG_TARGET_BUDGET}")
    target = max(int(np.ceil(np.exp(k1 / 16.0))), 2)
    rng = stream(seed, "vg", k1)
    base = np.array([1] * (k1 // 2) + [-1] * (k1 // 2))
    kept = np.empty((target, k1), dtype=int)
    size = sep = 0
    lo, hi = k1 // 4, 3 * k1 // 4
    for _ in range(VG_DRAWS_PER_TARGET * target):
        v = rng.permutation(base)
        if size:
            d = np.count_nonzero(kept[:size] != v, axis=1)
            if d.min() <= lo or (two_sided and d.max() >= hi):
                continue
            # every pair meets here once, when its later vector is kept
            sep = int(d.min()) if size == 1 else min(sep, int(d.min()))
        kept[size] = v
        size += 1
        if size >= target:
            break
    return VgCode(kept[:size].copy(), sep, size >= target)


# ---------------------------------------------------------------------------
# Rademacher block matrices


@dataclass(frozen=True)
class RademacherBlockMatrix:
    """Sign matrix whose rows are nearly orthogonal (certified)."""

    values: np.ndarray           # k1 x mk, entries +-1
    tries: int
    property_ii_passed: int
    property_ii_total: int

    def __post_init__(self):
        self.values.setflags(write=False)


def _row_set_size(k1: int) -> int:
    """Size s = eta0*k1 (at least 1) of the spot check's disjoint row sets."""
    s = max(1, round(ETA0 * k1))
    if 2 * s > k1:
        raise ValidationError(f"k1={k1} too small for disjoint row sets of size {s}")
    return s


def _mixing_deviation(B: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                      rng: np.random.Generator) -> float:
    """T = sum_a sum_{b in Z} |B[X_a, b] - (omega B[Y_a])_b| for one random omega.

    Each row of omega holds 8*mk draws spread uniformly over the mk columns,
    over the 1/(8*mk) grid.  T sees a row only through B[Y] @ omega_row, so
    only the draws landing in each class of identical columns of B[Y]
    matter; merging the cells of a multinomial gives a multinomial over the
    classes with the summed probabilities, so drawing the class counts
    directly gives T exactly the law of the per-column draw.
    """
    mk = B.shape[1]
    signs, sizes = np.unique(B[Y], axis=1, return_counts=True)
    counts = rng.multinomial(8 * mk, sizes / mk, size=len(Z))
    approx = signs @ counts.T / (8.0 * mk)     # s x |Z|
    return float(np.abs(B[X][:, Z] - approx).sum())


def spot_check_property_ii(B: np.ndarray, samples: int, seed: int = 0) -> Tuple[int, int]:
    """Sample row-matching tuples and test the mixing lower bound.

    For disjoint row sets X, Y of size s = eta0*k1, a column subset Z of
    size >= eta1*mk, and a stochastic matrix omega on the 1/(8*mk) grid,
    the aggregate deviation T (see `_mixing_deviation`, which draws omega
    per class of identical columns of B[Y]) must exceed s*|Z|/4.  Returns
    (passed, total).

    This is a sanity count, not evidence of property (ii): the sampled
    omega are near-uniform, so omega B[Y_a] is near 0 and T is close to
    s*|Z|, four times the threshold, for any sign matrix whose rows are
    balanced, including one whose rows are all equal.
    """
    k1, mk = B.shape
    rng = stream(seed, "hadamard-ii")
    s = _row_set_size(k1)
    zlen = int(np.ceil(ETA1 * mk))
    thr = s * zlen / 4.0
    passed = 0
    for _ in range(samples):
        perm = rng.permutation(k1)
        X, Y = perm[:s], perm[s:2 * s]
        Z = rng.permutation(mk)[:zlen]
        passed += int(_mixing_deviation(B, X, Y, Z, rng) > thr)
    return passed, samples


def rademacher_block_matrix(k1: int, mk: int, seed: int = 0) -> RademacherBlockMatrix:
    """Draw iid sign matrices until all row pairs satisfy |<B_a,B_b>| <= mk/4.

    That is property (i), and a returned matrix always has it: after
    BLOCK_TRIES draws without it, BudgetError is raised instead.  Property
    (ii) is spot-checked on PROPERTY_II_SAMPLES tuples, so k1 must admit
    the spot check's two disjoint row sets.
    """
    if mk < 8:
        raise ValidationError(f"need mk >= 8, got {mk}")
    _row_set_size(k1)
    rng = stream(seed, "hadamard", k1, mk)
    for t in range(1, BLOCK_TRIES + 1):
        B = np.where(rng.random((k1, mk)) < 0.5, -1.0, 1.0)
        G = B @ B.T
        np.fill_diagonal(G, 0.0)
        if np.abs(G).max() <= mk / 4.0:
            break
    else:
        raise BudgetError(f"no row-orthogonal sign matrix in {BLOCK_TRIES} tries")
    passed, total = spot_check_property_ii(B, PROPERTY_II_SAMPLES, seed)
    return RademacherBlockMatrix(B, t, passed, total)


# ---------------------------------------------------------------------------
# packing families


@dataclass(frozen=True)
class PackingFamily:
    """Well-separated family with a uniform pairwise KL budget.

    ``fano_ready`` certifies the arithmetic needed by the standard Fano
    argument: at least 3 elements and kl_budget <= log(M)/32.  Families
    that are faithful constructions but miss that margin (or have only 2
    elements) carry ``fano_ready=False``.
    """

    kind: str                    # "matrix" | "graphon"
    elements: tuple
    epsilon: float
    separation_lower: float
    kl_budget: float
    n: int
    k: int
    fano_ready: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("matrix", "graphon"):
            raise ValidationError(f"unknown packing kind {self.kind!r}")
        if self.fano_ready:
            m = len(self.elements)
            if m < 3:
                raise ValidationError("fano_ready families need at least 3 elements")
            if self.kl_budget > np.log(m) / 32.0 + 1e-12:
                raise ValidationError(
                    f"fano_ready families need kl_budget <= log(M)/32, "
                    f"got {self.kl_budget} > {np.log(m)/32.0}")

    @property
    def size(self) -> int:
        return len(self.elements)


def _draw_pairs(rng: np.random.Generator, M: int, most: int):
    """Up to `most` distinct pairs (i, j), i < j < M, drawn without replacement.

    The draw picks positions in the lexicographic order of all M(M-1)/2
    pairs, and each position is turned into its pair arithmetically rather
    than by listing the pairs (4.4 million of them at M = 2981).
    """
    total = M * (M - 1) // 2
    out = []
    for t in rng.choice(total, size=min(most, total), replace=False):
        # counted from the end, row M-2-b starts b(b+1)/2 pairs in and holds b+1
        r = total - 1 - int(t)
        b = (math.isqrt(8 * r + 1) - 1) // 2
        out.append((M - 2 - b, M - 1 - (r - b * (b + 1) // 2)))
    return out


def matrix_packing(n: int, rho: float, seed: int = 0) -> PackingFamily:
    """Two-valued probability matrices rho/2 + eps*u_i*u_j with a VG code.

    eps is set as large as the Fano budget allows against the achieved
    code size (capped at rho/4 to keep entries inside
    [rho/4, 3*rho/4]).  The code is sampled two-sided because u and -u
    give the same matrix.  Pairwise cut norms are spot-checked against
    the proven eps/14 bound.
    """
    if not (0.0 < rho <= 1.0):
        raise ValidationError(f"rho must be in (0, 1], got {rho}")
    if n < 8 or n % 2 != 0:
        raise ValidationError(f"need even n >= 8, got {n}")
    code = varshamov_gilbert_code(n, seed, two_sided=True)
    M = code.size
    if M < 2:
        raise BudgetError(f"code too small for a packing (got {M} vectors)")
    eps = min(rho / 4.0, np.sqrt(3.0 * rho * np.log(M) / 512.0) / n)
    kl = 16.0 * n**2 * eps**2 / (3.0 * rho)
    elements = []
    for u in code.vectors:
        # exactly symmetric, inside [rho/4, 3*rho/4] off a zero diagonal: what
        # the ProbMatrix constructor would return for it, so it is not copied
        vals = rho / 2.0 + eps * np.outer(u, u)
        np.fill_diagonal(vals, 0.0)
        elements.append(ProbMatrix._owning(vals))
    pairs = _draw_pairs(stream(seed, "matrix-pack-check"), M, MATRIX_PAIRS_TO_CHECK)
    checked = []
    for i, j in pairs:
        D = elements[i].values - elements[j].values
        checked.append(matrix_cut_norm_heuristic(D, restarts=8, seed=seed).value)
    fano = M >= 3 and kl <= np.log(M) / 32.0 + 1e-12
    meta = {
        "code_size": M,
        "code_separation": code.separation,
        "code_reached": code.reached,
        "effective_c2": eps / (np.sqrt(rho) * min(1.0 / np.sqrt(n), np.sqrt(rho))),
        "checked_pairs": len(pairs),
        "checked_cut_min": float(min(checked)) if checked else float("nan"),
    }
    return PackingFamily("matrix", tuple(elements), float(eps), float(eps / 14.0),
                         float(kl), n, 2, fano, meta)


def _perturbation_pair(u, v):
    """u and v as float vectors of one length k1 >= 1, the light step count."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.size == 0 or v.shape != u.shape:
        raise ValidationError("perturbations must be two nonempty vectors of one length")
    return u, v


def kl_bound(u: np.ndarray, v: np.ndarray, n: int, eps: float) -> float:
    """Closed-form budget 32*n*k1^2*eps^2/3 for weight perturbations of size eps.

    k1 is the length of u and v; their entries must be +-eps.
    """
    u, v = _perturbation_pair(u, v)
    k1 = u.size
    if eps < 0 or eps > 1.0 / (8.0 * k1) + 1e-15:
        raise ValidationError(f"need 0 <= eps <= 1/(8*k1), got eps={eps}, k1={k1}")
    if eps > 0 and (np.any(np.abs(np.abs(u) - eps) > 1e-12)
                    or np.any(np.abs(np.abs(v) - eps) > 1e-12)):
        raise ValidationError("perturbation entries must be +-eps")
    return 32.0 * n * k1**2 * eps**2 / 3.0


def latent_kl_exact(u: np.ndarray, v: np.ndarray, n: int) -> float:
    """n times the KL divergence between the two latent label distributions.

    Labels fall in a light step a with probability 1/(2*k1) + u_a, where k1
    is the length of u and v, and in any of the heavy steps with the same
    probability for every member; the heavy terms drop out of the sum, so
    their count is not needed.
    """
    u, v = _perturbation_pair(u, v)
    k1 = u.size
    if abs(u.sum()) > 1e-12 or abs(v.sum()) > 1e-12:
        raise ValidationError("perturbations must be balanced (sum to 0) "
                              "so the label law stays a distribution")
    pu = 1.0 / (2.0 * k1) + u
    pv = 1.0 / (2.0 * k1) + v
    if np.any(pu <= 0) or np.any(pv <= 0):
        raise ValidationError("perturbations push a label probability below 0")
    return float(n * np.sum(pu * np.log(pu / pv)))


def _graphon_base(block: np.ndarray) -> StepGraphon:
    """The family's shared values on equal steps: 1/2 except the {0,1}
    cross block (1 + block)/2 between the k1 light and mk heavy steps.

    Q is exactly symmetric (the block and its transpose) with entries in
    {0, 1/2, 1}: the values the StepGraphon constructor would store, so
    it is frozen in place instead of checked and copied."""
    k1, mk = block.shape
    k = k1 + mk
    Q = np.full((k, k), 0.5)
    cross = (1.0 + block) / 2.0
    Q[:k1, k1:] = cross
    Q[k1:, :k1] = cross.T
    return StepGraphon._owning(Q, _step_weights(np.full(k, 1.0 / k), k))


def _graphon_member(base: StepGraphon, u: np.ndarray, eps: float) -> StepGraphon:
    """base reweighted: light weights 1/(2*k1) + eps*u for the k1 = len(u)
    light steps, then equal weights on the rest of base's steps."""
    k1, mk = len(u), base.k - len(u)
    w = np.concatenate([1.0 / (2.0 * k1) + eps * u, np.full(mk, 1.0 / (2.0 * mk))])
    return base.reweighted(w)


def graphon_packing(k: int, n: int, seed: int = 0) -> PackingFamily:
    """Step-graphon family separated in cut distance by weight perturbations.

    For k >= 64 (multiple of 32): k1 = k/2 light steps, mk = ceil(128 log k)
    heavy steps, shared values 1/2 except a {0,1} Rademacher cross block,
    and light weights 1/(2*k1) + eps*u_a over a VG code.  The values are
    built once and every member shares them (`StepGraphon.reweighted`).
    eps^2 = 3/(4096*n*k1) makes the KL budget k1/128 — short of the k1/512
    the Fano condition wants, so fano_ready stays False at the stated
    constants; separation is certified through motif-density lower bounds
    on GRAPHON_PAIRS_TO_CHECK random pairs (their minimum is
    separation_lower), with each checked element's motif densities taken
    once.  The sign block's property (ii) is spot-checked on
    PROPERTY_II_SAMPLES tuples, a sanity count only (see
    `spot_check_property_ii`).

    k=2 is the two-element special case (values [[1,1],[1,0]], weights
    1/2 +- eps with eps=1/8).  Its separation_lower is the certified
    `delta_cut_lower` bound; meta["separation_upper"] is the
    `delta_exact_tiny` minimum over permutations of the m=8 common
    refinement, and meta["exact_separation"] says whether the two meet.

    Both cases build dense (rho = 1) families and take no sparsity
    parameter; `matrix_packing` is the family that scales with rho.
    """
    if k == 2:
        return _graphon_packing_two(n)
    if k < 64 or k % 32 != 0:
        raise ValidationError(f"need k=2 or a multiple of 32 with k >= 64, got {k}")
    if k > n:
        raise ValidationError(f"need k <= n, got k={k}, n={n}")
    k1 = k // 2
    mk = int(np.ceil(128.0 * np.log(k)))
    eps = np.sqrt(3.0 / (4096.0 * n * k1))
    code = varshamov_gilbert_code(k1, seed)
    if code.size < 2:
        raise BudgetError(f"code too small for a packing (got {code.size} vectors)")
    block = rademacher_block_matrix(k1, mk, seed)
    base = _graphon_base(block.values)
    elements = tuple(_graphon_member(base, u, eps) for u in code.vectors)
    kl = kl_bound(eps * code.vectors[0], eps * code.vectors[1], n, eps)
    pairs = _draw_pairs(stream(seed, "graphon-pack-check"), code.size,
                        GRAPHON_PAIRS_TO_CHECK)
    dens = {e: _motif_densities(elements[e]) for e in {e for pair in pairs for e in pair}}
    lowers = [_motif_bound(dens[i], dens[j]).value for i, j in pairs]
    meta = {
        "k1": k1, "mk": mk,
        "code_size": code.size,
        "code_separation": code.separation,
        "code_reached": code.reached,
        "separation_theory": k * eps / np.sqrt(mk),   # unknown leading constant
        "block_tries": block.tries,
        "property_ii_passed": block.property_ii_passed,
        "property_ii_total": block.property_ii_total,
        "checked_pairs": len(pairs),
    }
    return PackingFamily("graphon", elements, float(eps),
                         float(min(lowers)) if lowers else 0.0,
                         float(kl), n, k, False, meta)


def _graphon_packing_two(n: int) -> PackingFamily:
    eps = 1.0 / 8.0
    base = StepGraphon(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0.5 + eps, 0.5 - eps]))
    elements = (base, base.reweighted(np.array([0.5 - eps, 0.5 + eps])))
    sep = delta_cut_lower(*elements).value
    upper = delta_exact_tiny(*elements, "cut").upper
    kl = kl_bound(np.array([eps]), np.array([-eps]), n, eps)
    meta = {"k1": 1, "mk": 2, "code_size": 2, "separation_upper": upper,
            "exact_separation": sep == upper, "c_prime": float(sep / eps)}
    return PackingFamily("graphon", elements, eps, float(sep), float(kl),
                         n, 2, False, meta)


# ---------------------------------------------------------------------------
# serialization


def save_packing_family(family: PackingFamily, directory) -> None:
    """Write one record file per element plus a key=value metadata sidecar."""
    os.makedirs(directory, exist_ok=True)
    for i, el in enumerate(family.elements):
        text = format_matrix(el) if family.kind == "matrix" else format_stepgraphon(el)
        with open(os.path.join(directory, f"element_{i:04d}.txt"), "w") as fh:
            fh.write(text)
    with open(os.path.join(directory, "metadata.txt"), "w") as fh:
        fh.write(f"kind={family.kind}\n")
        fh.write(f"count={family.size}\n")
        fh.write(f"epsilon={family.epsilon!r}\n")
        fh.write(f"klBudget={family.kl_budget!r}\n")
        fh.write(f"separationLower={family.separation_lower!r}\n")
        fh.write(f"fanoReady={'true' if family.fano_ready else 'false'}\n")
        fh.write(f"n={family.n}\n")
        fh.write(f"k={family.k}\n")


def load_packing_family(directory) -> PackingFamily:
    meta = {}
    with open(os.path.join(directory, "metadata.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            meta[key] = val
    try:
        kind = meta["kind"]
        count = int(meta["count"])
        eps = float(meta["epsilon"])
        kl = float(meta["klBudget"])
        sep = float(meta["separationLower"])
        fano = meta["fanoReady"] == "true"
        n = int(meta["n"])
        k = int(meta["k"])
    except KeyError as e:
        raise ValidationError(f"metadata sidecar missing key {e}") from None
    except ValueError as e:
        raise ValidationError(f"bad metadata sidecar value: {e}") from None
    if count < 1:
        raise ValidationError(f"metadata sidecar count must be >= 1, got {count}")
    elements = []
    for i in range(count):
        path = os.path.join(directory, f"element_{i:04d}.txt")
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ValidationError(
                f"metadata sidecar count={count}, but {path} is missing") from None
        if kind == "matrix":
            elements.append(ProbMatrix(parse_matrix(text)))
            continue
        W = parse_stepgraphon(text)
        # members with element 0's values share its array, as built families do
        if elements and np.array_equal(W.values, elements[0].values):
            W = elements[0].reweighted(W.weights)
        elements.append(W)
    return PackingFamily(kind, tuple(elements), eps, sep, kl, n, k, fano,
                         {"loaded_from": str(directory)})
