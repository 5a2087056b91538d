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

import os
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ._rng import stream
from .core import (
    ProbMatrix,
    StepGraphon,
    format_matrix,
    format_stepgraphon,
    parse_matrix,
    parse_stepgraphon,
)
from .cutnorm import matrix_cut_norm_heuristic
from .distance import delta_cut_lower, delta_exact_tiny
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
    k1: int
    separation: int              # certified min pairwise Hamming distance
    target: int
    reached: bool
    two_sided: bool

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
    target = np.ceil(np.exp(k1 / 16.0))
    if target > VG_TARGET_BUDGET:
        raise BudgetError(f"code target {target:.0f} exceeds budget {VG_TARGET_BUDGET}")
    target = max(int(target), 2)
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
    return VgCode(kept[:size].copy(), k1, sep, target, size >= target, two_sided)


# ---------------------------------------------------------------------------
# Rademacher block matrices


@dataclass(frozen=True)
class RademacherBlockMatrix:
    """Sign matrix whose rows are nearly orthogonal (certified)."""

    values: np.ndarray           # k1 x mk, entries +-1
    k1: int
    mk: int
    tries: int
    property_ii_passed: int
    property_ii_total: int

    def __post_init__(self):
        self.values.setflags(write=False)


def spot_check_property_ii(B: np.ndarray, samples: int, seed: int = 0) -> Tuple[int, int]:
    """Sample row-matching tuples and test the mixing lower bound.

    For disjoint row sets X, Y of size s = eta0*k1, a column subset Z of
    size >= eta1*mk, and a stochastic matrix omega on the 1/(8*mk) grid,
    the aggregate deviation sum_a sum_{b in Z} |B[X_a, b] - (omega B[Y_a])_b|
    must exceed s*|Z|/4.  Returns (passed, total).
    """
    k1, mk = B.shape
    rng = stream(seed, "hadamard-ii")
    s = max(1, round(ETA0 * k1))
    if 2 * s > k1:
        raise ValidationError(f"k1={k1} too small for disjoint row sets of size {s}")
    zlen = int(np.ceil(ETA1 * mk))
    thr = s * zlen / 4.0
    p = np.full(mk, 1.0 / mk)
    passed = 0
    for _ in range(samples):
        perm = rng.permutation(k1)
        X, Y = perm[:s], perm[s:2 * s]
        Z = rng.permutation(mk)[:zlen]
        omega = rng.multinomial(8 * mk, p, size=zlen) / (8.0 * mk)
        approx = B[Y] @ omega.T                  # s x |Z|
        T = np.abs(B[X][:, Z] - approx).sum()
        passed += int(T > thr)
    return passed, samples


def rademacher_block_matrix(k1: int, mk: int, seed: int = 0) -> RademacherBlockMatrix:
    """Draw iid sign matrices until all row pairs satisfy |<B_a,B_b>| <= mk/4.

    That is property (i), and a returned matrix always has it: after
    BLOCK_TRIES draws without it, BudgetError is raised instead.  Property
    (ii) is spot-checked on PROPERTY_II_SAMPLES tuples.
    """
    if mk < 8:
        raise ValidationError(f"need mk >= 8, got {mk}")
    if k1 < 1:
        raise ValidationError(f"need k1 >= 1, got {k1}")
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
    return RademacherBlockMatrix(B, k1, mk, t, passed, total)


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
        vals = rho / 2.0 + eps * np.outer(u, u)
        np.fill_diagonal(vals, 0.0)
        elements.append(ProbMatrix(vals))
    rng = stream(seed, "matrix-pack-check")
    checked = []
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    take = min(MATRIX_PAIRS_TO_CHECK, len(pairs))
    idx = rng.choice(len(pairs), size=take, replace=False)
    for t in idx:
        i, j = pairs[t]
        D = elements[i].values - elements[j].values
        checked.append(matrix_cut_norm_heuristic(D, restarts=8, seed=seed).value)
    fano = M >= 3 and kl <= np.log(M) / 32.0 + 1e-12
    meta = {
        "code_size": M,
        "code_separation": code.separation,
        "code_reached": code.reached,
        "effective_c2": eps / (np.sqrt(rho) * min(1.0 / np.sqrt(n), np.sqrt(rho))),
        "checked_pairs": take,
        "checked_cut_min": float(min(checked)) if checked else float("nan"),
    }
    return PackingFamily("matrix", tuple(elements), float(eps), float(eps / 14.0),
                         float(kl), n, 2, fano, meta)


def kl_bound(u: np.ndarray, v: np.ndarray, n: int, eps: float, k1: int) -> float:
    """Closed-form budget 32*n*k1^2*eps^2/3 for weight perturbations of size eps."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if eps < 0 or eps > 1.0 / (8.0 * k1) + 1e-15:
        raise ValidationError(f"need 0 <= eps <= 1/(8*k1), got eps={eps}, k1={k1}")
    if u.shape != (k1,) or v.shape != (k1,):
        raise ValidationError("perturbations must have length k1")
    if eps > 0 and (np.any(np.abs(np.abs(u) - eps) > 1e-12)
                    or np.any(np.abs(np.abs(v) - eps) > 1e-12)):
        raise ValidationError("perturbation entries must be +-eps")
    return 32.0 * n * k1**2 * eps**2 / 3.0


def latent_kl_exact(u: np.ndarray, v: np.ndarray, k1: int, mk: int, n: int) -> float:
    """n times the KL divergence between the two latent label distributions.

    Labels fall in a light step a with probability 1/(2*k1) + u_a and in
    any of the mk heavy steps with probability 1/(2*mk); the heavy terms
    are identical across the family and drop out of the sum.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (k1,) or v.shape != (k1,):
        raise ValidationError("perturbations must have length k1")
    if abs(u.sum()) > 1e-12 or abs(v.sum()) > 1e-12:
        raise ValidationError("perturbations must be balanced (sum to 0) "
                              "so the label law stays a distribution")
    pu = 1.0 / (2.0 * k1) + u
    pv = 1.0 / (2.0 * k1) + v
    if np.any(pu <= 0) or np.any(pv <= 0):
        raise ValidationError("perturbations push a label probability below 0")
    return float(n * np.sum(pu * np.log(pu / pv)))


def _graphon_member(Q: np.ndarray, u: np.ndarray, eps: float, k1: int, mk: int) -> StepGraphon:
    w = np.concatenate([1.0 / (2.0 * k1) + eps * u, np.full(mk, 1.0 / (2.0 * mk))])
    return StepGraphon(Q, w)


def graphon_packing(k: int, n: int, rho: float = 1.0, seed: int = 0) -> PackingFamily:
    """Step-graphon family separated in cut distance by weight perturbations.

    For k >= 64 (multiple of 32): k1 = k/2 light steps, mk = ceil(128 log k)
    heavy steps, shared values 1/2 except a {0,1} Rademacher cross block,
    and light weights 1/(2*k1) + eps*u_a over a VG code.  eps^2 =
    3/(4096*n*k1) makes the KL budget k1/128 — short of the k1/512 the
    Fano condition wants, so fano_ready stays False at the stated
    constants; separation is certified through motif-density lower bounds
    on GRAPHON_PAIRS_TO_CHECK random pairs (their minimum is
    separation_lower), and the sign block's property (ii) is spot-checked
    on PROPERTY_II_SAMPLES tuples.

    k=2 is the two-element special case (values [[1,1],[1,0]], weights
    1/2 +- eps with eps=1/8) whose cut separation is the `delta_exact_tiny`
    minimum over permutations of the m=8 common refinement.
    """
    if not (0.0 < rho <= 1.0):
        raise ValidationError(f"rho must be in (0, 1], got {rho}")
    if k == 2:
        return _graphon_packing_two(n, rho)
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
    Q = np.full((k1 + mk, k1 + mk), 0.5)
    cross = (1.0 + block.values) / 2.0
    Q[:k1, k1:] = cross
    Q[k1:, :k1] = cross.T
    elements = tuple(_graphon_member(Q, u, eps, k1, mk) for u in code.vectors)
    kl = kl_bound(eps * code.vectors[0], eps * code.vectors[1], n, eps, k1)
    rng = stream(seed, "graphon-pack-check")
    pairs = [(i, j) for i in range(code.size) for j in range(i + 1, code.size)]
    take = min(GRAPHON_PAIRS_TO_CHECK, len(pairs))
    idx = rng.choice(len(pairs), size=take, replace=False)
    lowers = [delta_cut_lower(elements[i], elements[j]).value
              for i, j in (pairs[t] for t in idx)]
    meta = {
        "k1": k1, "mk": mk,
        "code_size": code.size,
        "code_separation": code.separation,
        "code_reached": code.reached,
        "separation_theory": k * eps / np.sqrt(mk),   # unknown leading constant
        "block_tries": block.tries,
        "property_ii_passed": block.property_ii_passed,
        "property_ii_total": block.property_ii_total,
        "checked_pairs": take,
        "rho": rho,
    }
    return PackingFamily("graphon", elements, float(eps),
                         float(min(lowers)) if lowers else 0.0,
                         float(kl), n, k, False, meta)


def _graphon_packing_two(n: int, rho: float) -> PackingFamily:
    eps = 1.0 / 8.0
    Q = np.array([[1.0, 1.0], [1.0, 0.0]])
    elements = tuple(StepGraphon(Q, np.array([0.5 + s * eps, 0.5 - s * eps]))
                     for s in (+1.0, -1.0))
    sep = delta_exact_tiny(elements[0], elements[1], "cut").upper
    kl = kl_bound(np.array([eps]), np.array([-eps]), n, eps, 1)
    meta = {"k1": 1, "mk": 2, "code_size": 2, "exact_separation": True,
            "c_prime": float(sep / eps), "rho": rho}
    return PackingFamily("graphon", elements, eps, float(sep), float(kl),
                         n, 2, False, meta)


# ---------------------------------------------------------------------------
# serialization


def save_packing_family(family: PackingFamily, directory) -> None:
    """Write one record file per element plus a key=value metadata sidecar."""
    os.makedirs(directory, exist_ok=True)
    for i, el in enumerate(family.elements):
        path = os.path.join(directory, f"element_{i:04d}.txt")
        with open(path, "w") as fh:
            if family.kind == "matrix":
                fh.write(format_matrix(el.values))
            else:
                fh.write(format_stepgraphon(el))
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
    elements = []
    for i in range(count):
        path = os.path.join(directory, f"element_{i:04d}.txt")
        with open(path) as fh:
            text = fh.read()
        if kind == "matrix":
            elements.append(ProbMatrix(parse_matrix(text)))
        else:
            elements.append(parse_stepgraphon(text))
    return PackingFamily(kind, tuple(elements), eps, sep, kl, n, k, fano,
                         {"loaded_from": str(directory)})
