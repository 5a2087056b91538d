"""Core value types and norms.

Two families of objects live here:

* matrices on n vertices: edge-probability matrices (ProbMatrix), and
  adjacency matrices, which are the ProbMatrix subclass with 0/1 entries.
  The L1 norm is normalized so it agrees with the kernel picture:
  ``l1_norm(B) = sum|B_ij| / n^2``;
* step kernels on [0,1]: symmetric step graphons (values in [0,1]) and
  general rectangular step kernels (values in [-1,1]), whose L1 norm is the
  weighted integral sum(w_a w_b |K_ab|).

Callers converting between the two pictures do so explicitly (a matrix is
the step kernel of its empirical graphon, with equal weights 1/n).

One rule covers the arguments of every public entry point, here and in the
other modules.  Arrays are read C-ordered, a Fortran-ordered or strided one
copied once, so no value depends on the caller's memory layout.  An array
(`_as_array`) is a nonempty, finite float array of the dimension asked for;
a matrix (`_as_matrix`) is a ProbMatrix (so an AdjacencyMatrix too) or such
an array that is square, so a step object is not measured as the matrix of
its block values.  An index array (`_as_indices`) is a 1-d integer array,
possibly empty, in range(n), and a container (`_as_tuple`) the tuple of its
items.  A scalar is an integer (`_as_int`) or a finite real (`_as_real`) in
its parameter's interval, a numpy scalar too but never a bool.  A value type
(StepGraphon, AdjacencyMatrix, ModelSpec, ...) must be that type
(`_expect`), checked where it is first read.  Anything else raises
ValidationError.

The symmetric types hold exactly symmetric values.  Their input is
accepted when it is symmetric within _SYM_TOL = 1e-9, and stored as its
symmetric part (a + a.T) / 2, which is the input itself, bit for bit, when
that is exactly symmetric.

All types are immutable: constructors copy and freeze their arrays, so
instances can be shared freely across threads/processes.  A graphon made
by `StepGraphon.reweighted` shares its parent's frozen values rather than
copying them.

The public constructors check everything they are given.  Arrays that the
package builds and that pass those checks by construction take the one
trusted route instead, the private `_owning` class method of ProbMatrix
(and so of AdjacencyMatrix), StepGraphon and Kernel: it freezes the arrays
it is handed and wraps them, not copied, so their producer never writes to
them again.  Each holds the values the constructor would return for it,
bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError, ValidationError

# weight vectors must sum to 1 within this to be accepted verbatim ...
WEIGHT_SUM_TOL = 1e-12
# ... and are silently renormalized when off by at most this much
WEIGHT_RENORM_TOL = 1e-9

_SYM_TOL = 1e-9

# most elements one dense square array may have (n <= 8192): larger n x n
# blow-ups and probability matrices raise BudgetError before allocating
DENSE_BUDGET = 2**26


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen(a) -> np.ndarray:
    return _freeze(np.array(a, dtype=float, copy=True))


def _check_dense(n: int) -> None:
    if n * n > DENSE_BUDGET:
        raise BudgetError(f"a dense {n} x {n} array exceeds the budget of "
                          f"{DENSE_BUDGET} elements")


def _as_array(obj, what: str, ndim: int) -> np.ndarray:
    """`obj` as a nonempty, finite, C-ordered `ndim`-d float array, else ValidationError."""
    try:
        a = np.asarray(obj, dtype=float, order="C")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{what}: expected numbers, got {type(obj).__name__}: {e}") from None
    if a.ndim != ndim or a.size == 0:
        raise ValidationError(f"{what} must be a nonempty {ndim}-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} contains nan/inf")
    return a


def _as_indices(idx, n: int, what: str) -> np.ndarray:
    """`idx` as a C-ordered 1-d integer array, possibly empty, in range(n), else ValidationError."""
    try:
        a = np.asarray(idx, order="C")
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{what}: expected integers, got {type(idx).__name__}: {e}") from None
    if a.ndim != 1 or a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= n):
        raise ValidationError(f"{what} must be a 1-d array of integers in range({n})")
    return a.astype(int, copy=False)  # an empty list converts to floats


def _as_tuple(obj, what: str) -> tuple:
    """The items of the iterable `obj` as a tuple, else ValidationError."""
    try:
        return tuple(obj)
    except TypeError:
        raise ValidationError(f"{what}: expected a sequence, got {type(obj).__name__}") from None


def _as_int(x, what: str, lo: int, hi=np.inf) -> int:
    """`x`, an integral number that is not a bool, in [lo, hi] as an int, else ValidationError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not lo <= x <= hi:
        raise ValidationError(f"{what} must be an integer in [{lo}, {hi}], got {x!r}")
    return int(x)


def _as_real(x, what: str, lo=-np.inf, hi=np.inf, lo_open: bool = False):
    """`x` itself, unconverted (a large int stays exact), if it is a finite real
    that is not a bool, in [lo, hi] or with `lo_open` in (lo, hi]; else ValidationError."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not (-np.inf < x < np.inf and (lo < x if lo_open else lo <= x) and x <= hi)):
        raise ValidationError(f"{what} must be a finite real in "
                              f"{'(' if lo_open else '['}{lo}, {hi}], got {x!r}")
    return x


def _expect(obj, cls, what: str):
    """`obj` itself if it is a `cls`, else ValidationError."""
    if not isinstance(obj, cls):
        raise ValidationError(f"{what}: expected a {cls.__name__}, got {type(obj).__name__}")
    return obj


def _check_symmetric(a: np.ndarray, what: str) -> None:
    # fl(x - y) = -fl(y - x), so the signed maximum is the largest |a - a.T|
    if a.shape[0] != a.shape[1] or np.max(a - a.T) > _SYM_TOL:
        raise ValidationError(f"{what} is not symmetric (tol {_SYM_TOL}), shape {a.shape}")


def _normalize_weights(w, what: str) -> np.ndarray:
    w = _as_array(w, what, 1)
    if np.any(w <= 0):
        raise ValidationError(f"{what} must be strictly positive")
    gap = abs(float(w.sum()) - 1.0)
    if gap <= WEIGHT_SUM_TOL:
        return w
    if gap <= WEIGHT_RENORM_TOL:
        return w / w.sum()
    raise ValidationError(f"{what} sums to {w.sum()!r}, off by {gap:.3e} (> {WEIGHT_RENORM_TOL})")


def _step_weights(weights, k: int) -> np.ndarray:
    """A StepGraphon's frozen step lengths, checked against its k steps."""
    w = _normalize_weights(weights, "StepGraphon weights")
    if w.shape[0] != k:
        raise ValidationError(f"weights length {w.shape[0]} != values size {k}")
    return _frozen(w)


def _prob_values(values, what: str) -> np.ndarray:
    """A fresh copy of a square array symmetric within _SYM_TOL with entries
    within 1e-12 of [0, 1]: its symmetric part clipped into [0, 1]."""
    a = _as_array(values, what, 2)
    _check_symmetric(a, what)
    if a.min() < -1e-12 or a.max() > 1 + 1e-12:
        raise ValidationError(f"{what} must lie in [0,1]; range [{a.min()}, {a.max()}]")
    return np.clip((a + a.T) / 2, 0.0, 1.0)


class ProbMatrix:
    """Symmetric n x n matrix of edge probabilities, zero diagonal.

    Entries within 1e-12 of [0, 1] are clipped into it, and the diagonal is
    stored as +0.0.
    """

    __slots__ = ("values", "n")

    def __init__(self, values):
        a = _prob_values(values, "ProbMatrix values")  # fresh: caller input is never aliased
        if a.diagonal().max() > 1e-12:
            raise ValidationError("ProbMatrix diagonal must be zero")
        np.fill_diagonal(a, 0.0)
        self.values = _freeze(a)
        self.n = a.shape[0]

    @classmethod
    def _owning(cls, values: np.ndarray) -> "ProbMatrix":
        """A matrix on `values` as the constructor would return them, frozen, not copied."""
        out = object.__new__(cls)
        out.values, out.n = _freeze(values), values.shape[0]
        return out

    def __repr__(self):
        return f"ProbMatrix(n={self.n})"


class AdjacencyMatrix(ProbMatrix):
    """Simple-graph adjacency matrix: a ProbMatrix whose entries are exactly 0 or 1.

    An observed graph is itself a (degenerate) edge-probability matrix, so
    every function that takes a ProbMatrix takes an AdjacencyMatrix.
    """

    __slots__ = ()

    def __init__(self, values):
        a = _as_array(values, "AdjacencyMatrix values", 2)
        if not np.all((a == 0.0) | (a == 1.0)):
            raise ValidationError("AdjacencyMatrix entries must be exactly 0 or 1")
        ProbMatrix.__init__(self, a)

    @property
    def edge_count(self) -> int:
        return int(round(self.values.sum())) // 2

    def __repr__(self):
        return f"AdjacencyMatrix(n={self.n}, edges={self.edge_count})"


class StepGraphon:
    """Symmetric step function on [0,1]^2 with k steps.

    ``values`` is the k x k symmetric block-value matrix (one symmetric
    within _SYM_TOL is stored as its exactly symmetric part), ``weights`` the
    step lengths (positive, summing to 1 — see WEIGHT_SUM_TOL /
    WEIGHT_RENORM_TOL for the accept/renormalize/reject rule). Values must
    lie in [0,1]. A scaled model rho*W is a `ModelSpec`; sampling rejects
    rho*W > 1 unless asked to clip it (``clip=True``).
    """

    __slots__ = ("values", "weights", "k")

    def __init__(self, values, weights):
        q = _as_array(values, "StepGraphon values", 2)
        _check_symmetric(q, "StepGraphon values")
        w = _step_weights(weights, q.shape[0])
        if q.min() < 0:
            raise ValidationError("StepGraphon values must be nonnegative")
        if q.max() > 1 + 1e-12:
            raise ValidationError(f"StepGraphon values exceed 1 (max {q.max()})")
        self.values = _freeze((q + q.T) / 2)
        self.weights = w
        self.k = q.shape[0]

    @classmethod
    def _owning(cls, values: np.ndarray, weights: np.ndarray) -> "StepGraphon":
        """A graphon on arrays that pass its checks, frozen, not copied."""
        out = object.__new__(cls)
        out.values, out.weights, out.k = _freeze(values), _freeze(weights), values.shape[0]
        return out

    def reweighted(self, weights) -> "StepGraphon":
        """The same values on new step lengths.

        Only the weights are checked, as the constructor checks them; the
        frozen values are shared, not copied, so a family of graphons that
        differ only in their weights holds one value matrix.
        """
        return self._owning(self.values, _step_weights(weights, self.k))

    def boundaries(self) -> np.ndarray:
        """Cumulative step boundaries F(0)=0 < F(1) < ... < F(k)=1."""
        b = np.concatenate(([0.0], np.cumsum(self.weights)))
        b[-1] = 1.0
        return b

    def __repr__(self):
        return f"StepGraphon(k={self.k})"


class Kernel:
    """Rectangular step kernel: q1 x q2 values with per-side weights.

    Values lie in [-1,1]; weights are positive but need not sum to one
    (restrictions of a kernel to sub-rectangles are again Kernels).
    Regularity residuals, not proven to stay in [-1,1], are built through
    `_owning`, which skips that check.
    """

    __slots__ = ("values", "row_weights", "col_weights", "q1", "q2")

    def __init__(self, values, row_weights, col_weights):
        v = _as_array(values, "Kernel values", 2)
        rw = _as_array(row_weights, "Kernel row_weights", 1)
        cw = _as_array(col_weights, "Kernel col_weights", 1)
        if (rw.shape[0], cw.shape[0]) != v.shape or rw.min() <= 0 or cw.min() <= 0:
            raise ValidationError(f"Kernel weights must be strictly positive, of lengths {v.shape}")
        if np.abs(v).max() > 1 + 1e-12:
            raise ValidationError(f"Kernel values exceed [-1,1] (max |v| = {np.abs(v).max()})")
        self.values = _frozen(v)
        self.row_weights = _frozen(rw)
        self.col_weights = _frozen(cw)
        self.q1, self.q2 = v.shape

    @classmethod
    def _owning(cls, values: np.ndarray, row_weights, col_weights) -> "Kernel":
        """A kernel on arrays that pass its checks, bar the range, frozen, not copied."""
        out = object.__new__(cls)
        out.values, out.row_weights, out.col_weights = map(
            _freeze, (values, row_weights, col_weights))
        out.q1, out.q2 = values.shape
        return out

    def __repr__(self):
        return f"Kernel(q1={self.q1}, q2={self.q2})"


@dataclass(frozen=True)
class LatentSample:
    """i.i.d. Uniform[0,1) latent positions (see `sampling.sample_latents`)."""

    positions: np.ndarray

    def __post_init__(self):
        p = _as_array(self.positions, "latent positions", 1)
        if p.min() < 0.0 or p.max() >= 1.0:
            raise ValidationError("latent positions must lie in [0,1)")
        object.__setattr__(self, "positions", _frozen(p))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


# ---------------------------------------------------------------------------
# norms


def _as_matrix(obj) -> np.ndarray:
    """The values of a matrix argument: a ProbMatrix's own, which its
    constructor checked, or `obj` as a float array that is nonempty, square
    and finite; anything else raises ValidationError."""
    if isinstance(obj, ProbMatrix):
        return obj.values
    a = _as_array(obj, "a matrix", 2)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"a matrix must be square, got shape {a.shape}")
    return a


def _kernel_parts(obj):
    if isinstance(obj, StepGraphon):
        return obj.values, obj.weights, obj.weights
    if isinstance(obj, Kernel):
        return obj.values, obj.row_weights, obj.col_weights
    return None


def l1_norm(obj) -> float:
    """Normalized entrywise L1 norm.

    Step objects (StepGraphon, Kernel): the integral sum_a,b w_a w_b |K_ab|.
    Anything else is a matrix argument (see the module docstring):
    sum|B_ij| / n^2.
    """
    parts = _kernel_parts(obj)
    if parts is not None:
        v, rw, cw = parts
        return float(rw @ np.abs(v) @ cw)
    a = _as_matrix(obj)
    return float(np.abs(a).sum() / a.shape[0]**2)


# ---------------------------------------------------------------------------
# empirical graphon and blow-up


def empirical_graphon(mat) -> StepGraphon:
    """The n-step graphon of a matrix: equal weights 1/n, block values B_ij.

    `mat` is a matrix argument (see the module docstring).  A ProbMatrix
    (an AdjacencyMatrix too) lends the graphon its frozen values, which
    already pass the StepGraphon checks; any other matrix is checked and
    copied by the StepGraphon constructor.
    """
    a = _as_matrix(mat)
    n = a.shape[0]
    weights = np.full(n, 1.0 / n)
    if isinstance(mat, ProbMatrix):
        return StepGraphon._owning(a, _step_weights(weights, n))
    return StepGraphon(a, weights)


def blowup_counts(weights, m: int) -> np.ndarray:
    """Largest-remainder apportionment of m equal slots to the given weights.

    The weights are taken by the StepGraphon rule (`_normalize_weights`), so
    a graphon's own come as they are, and m is an integer in [1,
    DENSE_BUDGET].  Each step gets floor(w m) slots, and each of the
    m - sum floor(w m) largest remainders one more, ties going to the lower
    index.  Always sums to m; a step may receive 0 slots if its weight is
    far below 1/m.
    """
    return _largest_remainder(_normalize_weights(weights, "blow-up weights"),
                              _as_int(m, "blow-up target m", 1, DENSE_BUDGET))


def _largest_remainder(w: np.ndarray, m: int) -> np.ndarray:
    """`blowup_counts` of checked weights w and a checked m, unchecked."""
    raw = w * m
    base = np.floor(raw).astype(int)
    order = np.lexsort((np.arange(len(w)), base - raw))
    base[order[: m - int(base.sum())]] += 1
    return base


def blowup(W: StepGraphon, m: int) -> StepGraphon:
    """Refine W to m equal-length steps (largest-remainder rounding).

    Step a gets blowup_counts(W.weights, m)[a] slots: exact whenever every
    m*weight is an integer; otherwise the closest equal-partition
    approximation. Requires m >= k. A W that already has m steps of weight
    exactly 1/m is its own blow-up and comes back as it is (StepGraphon is
    immutable). An m x m blow-up above DENSE_BUDGET elements raises
    BudgetError.
    """
    m = _as_int(m, "blowup target m", _expect(W, StepGraphon, "W").k)
    if W.k == m and np.all(W.weights == 1.0 / m):
        return W
    _check_dense(m)
    # W's weights passed its constructor's checks, and m is bounded above
    idx = np.repeat(np.arange(W.k), _largest_remainder(W.weights, m))
    # a fresh gather of W's checked values: symmetric, finite and in range
    q = W.values.take(idx, axis=0).take(idx, axis=1)
    return StepGraphon._owning(q, _step_weights(np.full(m, 1.0 / m), m))


# ---------------------------------------------------------------------------
# plain-text serialization (bit-exact round trips via shortest-repr floats)


def _fmt_row(row: Sequence[float]) -> str:
    return " ".join(repr(float(x)) for x in row)


def format_stepgraphon(W: StepGraphon) -> str:
    lines = [f"stepgraphon {_expect(W, StepGraphon, 'W').k}", _fmt_row(W.weights)]
    lines += [_fmt_row(r) for r in W.values]
    return "\n".join(lines) + "\n"


def _parse_record(text: str, kind: str, lead: int) -> np.ndarray:
    """The lead + n rows of n floats of a '<kind> n' record, n >= 1."""
    toks = text.split()
    if len(toks) < 2 or toks[0] != kind:
        raise ValidationError(f"expected '{kind} n' header")
    try:
        n = int(toks[1])
    except ValueError:
        raise ValidationError(f"bad {kind} size {toks[1]!r}") from None
    need = 2 + (lead + n) * n
    if n <= 0 or len(toks) != need:
        raise ValidationError(f"{kind} record needs {need} tokens, got {len(toks)}")
    try:
        nums = [float(t) for t in toks[2:]]
    except ValueError as e:
        raise ValidationError(f"bad float in {kind} record: {e}") from None
    return np.array(nums).reshape(lead + n, n)


def parse_stepgraphon(text: str) -> StepGraphon:
    """Parse a 'stepgraphon k' record: the k weights, then the k x k values."""
    rows = _parse_record(text, "stepgraphon", 1)
    return StepGraphon(rows[1:], rows[0])


def format_matrix(mat) -> str:
    """The 'matrix n' record of a matrix argument (see the module docstring)."""
    a = _as_matrix(mat)
    lines = [f"matrix {a.shape[0]}"]
    lines += [_fmt_row(r) for r in a]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse a 'matrix n' record to a raw array (wrap it yourself as needed)."""
    return _parse_record(text, "matrix", 0)


def _key_values(text: str, what: str, keys, repeatable=()) -> dict:
    """The key=value lines of `text` as {key: [its values in line order]}.

    '#' starts a comment, and lines left blank are skipped.  A line without
    '=', with an empty key or value, with a key outside `keys`, or with a
    second value for a key outside `repeatable` raises ValidationError
    naming `what` and the line number.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ValidationError(f"{what} line {lineno}: expected key=value, got {raw!r}")
        if key not in keys:
            raise ValidationError(f"{what} line {lineno}: unknown key {key!r}")
        if key in out and key not in repeatable:
            raise ValidationError(f"{what} line {lineno}: duplicate key {key!r}")
        out.setdefault(key, []).append(val)
    return out


def save_stepgraphon(W: StepGraphon, path) -> None:
    text = format_stepgraphon(W)  # before opening: a rejected W leaves the file as it was
    with open(path, "w") as fh:
        fh.write(text)


def load_stepgraphon(path) -> StepGraphon:
    with open(path) as fh:
        return parse_stepgraphon(fh.read())


def save_matrix(mat, path) -> None:
    text = format_matrix(mat)  # before opening: a rejected mat leaves the file as it was
    with open(path, "w") as fh:
        fh.write(text)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())
