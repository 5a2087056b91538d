"""One rule for matrix arguments: a ProbMatrix, or a nonempty, square, finite array.

Every public entry point that takes a matrix converts it through
`core._as_matrix`, so each rejects the same inputs with ValidationError and
takes a nested list or a ProbMatrix exactly as it takes the equal array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutgraphon import (
    AdjacencyMatrix,
    Kernel,
    ProbMatrix,
    StepGraphon,
    ValidationError,
    cut_norm_sandwich_check,
    empirical_graphon,
    inf1_norm,
    l1_norm,
    matrix_cut_norm_exact,
    matrix_cut_norm_heuristic,
    save_matrix,
)
from cutgraphon.core import format_matrix, format_stepgraphon, parse_matrix, parse_stepgraphon
from cutgraphon.cutnorm import CutNormResult, SandwichResult, matrix_witness_value


def _saved(B, path):
    save_matrix(B, path)
    return path.read_bytes()


# each entry point as f(B, path) for a scratch file path
ENTRY_POINTS = {
    "empirical_graphon": lambda B, path: empirical_graphon(B),
    "format_matrix": lambda B, path: format_matrix(B),
    "save_matrix": _saved,
    "matrix_witness_value": lambda B, path: matrix_witness_value(B, [0], [0]),
    "matrix_cut_norm_exact": lambda B, path: matrix_cut_norm_exact(B),
    "matrix_cut_norm_heuristic": lambda B, path: matrix_cut_norm_heuristic(B),
    "inf1_norm": lambda B, path: inf1_norm(B),
    "cut_norm_sandwich_check": lambda B, path: cut_norm_sandwich_check(B),
}

# step objects are not matrices: this graphon's block matrix has cut norm
# 0.5, the graphon itself 0.82
STEP_OBJECTS = {
    "stepgraphon": StepGraphon([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1]),
    "kernel": Kernel([[0.5, -0.5], [0.0, 0.25]], [0.5, 0.5], [0.5, 0.5]),
}
NOT_MATRICES = {
    "2x3": np.zeros((2, 3)),
    "vector": np.zeros(3),
    "0x0": np.zeros((0, 0)),
    "nan": np.array([[0.0, np.nan], [np.nan, 0.0]]),
    "string": "abc",
    "dict": {"values": [[0.0]]},
}


def _outcome(result):
    """Bytes-level form of an entry point's result, for exact comparison."""
    if isinstance(result, SandwichResult):
        return (_outcome(result.cut), _outcome(result.inf1), result.satisfied)
    if isinstance(result, CutNormResult):
        return (result.value, result.witness_s.tobytes(), result.witness_t.tobytes(),
                result.method)
    if isinstance(result, StepGraphon):
        return (result.values.tobytes(), result.weights.tobytes())
    return result


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted({**STEP_OBJECTS, **NOT_MATRICES}))
def test_entry_points_reject_what_is_not_a_matrix(entry, bad, tmp_path):
    B = {**STEP_OBJECTS, **NOT_MATRICES}[bad]
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](B, tmp_path / "m.txt")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("bad", sorted(NOT_MATRICES))
def test_l1_norm_rejects_what_is_not_a_matrix(bad):
    with pytest.raises(ValidationError):
        l1_norm(NOT_MATRICES[bad])


@pytest.mark.parametrize("make", [ProbMatrix, AdjacencyMatrix, lambda a: StepGraphon(a, [1.0])],
                         ids=["ProbMatrix", "AdjacencyMatrix", "StepGraphon"])
def test_symmetric_types_reject_empty(make):
    with pytest.raises(ValidationError):
        make(np.zeros((0, 0)))


def test_rejected_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]), path)
    before = path.read_bytes()
    for bad in (*NOT_MATRICES.values(), *STEP_OBJECTS.values()):
        with pytest.raises(ValidationError):
            save_matrix(bad, path)
        assert path.read_bytes() == before


@pytest.mark.parametrize("form", ["nested list", "ProbMatrix"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS) + ["l1_norm"])
def test_other_forms_are_the_equal_array(entry, form, tmp_path):
    rows = [[0.0, 0.3, 0.2], [0.3, 0.0, 0.5], [0.2, 0.5, 0.0]]
    B = rows if form == "nested list" else ProbMatrix(rows)
    f = ENTRY_POINTS.get(entry, lambda B, path: l1_norm(B))
    assert _outcome(f(B, tmp_path / "b.txt")) == _outcome(f(np.array(rows), tmp_path / "a.txt"))


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(1, 5).flatmap(lambda n: arrays(np.float64, (n, n), elements=finite)))
@settings(max_examples=60, deadline=None)
def test_every_formatted_matrix_parses_back_bit_for_bit(a):
    back = parse_matrix(format_matrix(a))
    assert back.shape == a.shape and back.tobytes() == a.tobytes()


def _records(k, seed):
    """A valid matrix record and a valid stepgraphon record on k steps."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0, 1, (k, k))
    w = rng.uniform(0.1, 1.0, k)
    W = StepGraphon((q + q.T) / 2, w / w.sum())
    return {"matrix": (format_matrix(q), parse_matrix),
            "stepgraphon": (format_stepgraphon(W), parse_stepgraphon)}


@pytest.mark.parametrize("kind", ["matrix", "stepgraphon"])
@given(k=st.integers(1, 4), seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_parsers_reject_truncated_misheaded_and_non_numeric_records(kind, k, seed, data):
    text, parse = _records(k, seed)[kind]
    toks = text.split()
    parse(text)  # the record itself is valid
    spot = data.draw(st.integers(2, len(toks) - 1))
    broken = {
        "truncated": toks[:-1],
        "misheaded": ["stepgraphon" if kind == "matrix" else "matrix"] + toks[1:],
        "unheaded": toks[1:],
        "bad size": [toks[0], "x"] + toks[2:],
        "non-numeric": toks[:spot] + ["x1"] + toks[spot + 1:],
    }
    for bad in broken.values():
        with pytest.raises(ValidationError):
            parse(" ".join(bad))
