"""One rule for public arguments: arrays, index arrays, scalars and value types.

Every public entry point that takes a matrix converts it through
`core._as_matrix`, so each rejects the same inputs with ValidationError and
takes a nested list or a ProbMatrix exactly as it takes the equal array.
The constructors and the other array and index arguments convert through
`core._as_array` and `core._as_indices`, the scalars through `core._as_int`
and `core._as_real`, and a value type must be that type (`core._expect`), so
each malformed argument raises ValidationError.  Every array argument is
read C-ordered, so a Fortran-ordered or strided view of the same values
gives the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutgraphon import (
    AdjacencyMatrix,
    BlockFit,
    ExperimentConfig,
    Kernel,
    LatentSample,
    ModelSpec,
    Motif,
    ProbMatrix,
    RegularityTerm,
    StepGraphon,
    SvtEstimate,
    ValidationError,
    VgCode,
    blowup,
    cut_norm_sandwich_check,
    default_model,
    delta_cut_lower,
    delta_exact_tiny,
    delta_upper,
    edge_density,
    emit,
    empirical_graphon,
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    exact_restricted_ls,
    fit_to_prob_matrix,
    graphon_packing,
    homomorphism_density,
    inf1_norm,
    khintchine_lower_bound,
    kl_bound,
    l1_norm,
    latent_kl_exact,
    matrix_cut_norm_exact,
    matrix_cut_norm_heuristic,
    matrix_packing,
    q_subset_upper_bound,
    rademacher_block_matrix,
    rate_formula,
    run_risk_experiment,
    sample_adjacency,
    sample_graph,
    sample_latents,
    sample_theta,
    save_matrix,
    save_packing_family,
    save_stepgraphon,
    sbm_spec,
    step_kernel_cut_norm_exact,
    step_labels,
    varshamov_gilbert_code,
    weak_regularity_approx,
)
from cutgraphon.core import (blowup_counts, format_matrix, format_stepgraphon, parse_matrix,
                             parse_stepgraphon)
from cutgraphon.cutnorm import (CutNormResult, SandwichResult, kernel_witness_value,
                                matrix_witness_value)
from cutgraphon.distance import EDGE, common_refinement_m, permuted_difference_norm
from cutgraphon.experiments import format_csv, parse_csv
from cutgraphon.packing import RademacherBlockMatrix, spot_check_property_ii
from cutgraphon.sampling import theta_from_labels


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
    if isinstance(result, Kernel):
        return (result.values.tobytes(), result.row_weights.tobytes(),
                result.col_weights.tobytes())
    if isinstance(result, ProbMatrix):
        return (type(result), result.values.tobytes())
    if isinstance(result, LatentSample):
        return result.positions.tobytes()
    if isinstance(result, BlockFit):
        return (result.labels.dtype, result.labels.tobytes(), result.block_values.tobytes())
    if isinstance(result, (RademacherBlockMatrix, RegularityTerm, SvtEstimate, VgCode)):
        return tuple((v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else _outcome(v)
                     for v in vars(result).values())
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


# each constructor with its array arguments as nested lists
CONSTRUCTORS = {
    "ProbMatrix": (ProbMatrix, [[[0.0, 0.3], [0.3, 0.0]]]),
    "AdjacencyMatrix": (AdjacencyMatrix, [[[0.0, 1.0], [1.0, 0.0]]]),
    "StepGraphon": (StepGraphon, [[[0.1, 0.3], [0.3, 0.9]], [0.25, 0.75]]),
    "Kernel": (Kernel, [[[0.5, -0.5]], [1.0], [0.25, 0.5]]),
    "LatentSample": (LatentSample, [[0.1, 0.7, 0.0]]),
    "BlockFit": (lambda z, q: BlockFit(z, q, 0.0), [[0, 1, 1], [[0.5, 0.2], [0.2, 0.1]]]),
    # result types, each freezing the caller's array before it kept a copy
    "RademacherBlockMatrix": (lambda B: RademacherBlockMatrix(B, 1, 0, 0),
                              [[[1.0, -1.0], [-1.0, 1.0]]]),
    "RegularityTerm": (lambda rows, cols: RegularityTerm(0.25, rows, cols, 0.5, 1.0, 0.75),
                       [[0, 2], [1]]),
    "SvtEstimate": (lambda raw: SvtEstimate(ProbMatrix([[0.0, 0.3], [0.3, 0.0]]), raw, 0.5, 1),
                    [[[0.1, 0.3], [0.3, 0.2]]]),
    "VgCode": (lambda v: VgCode(v, 2, True), [[[1, -1], [-1, 1]]]),
}
_SIGNS = np.where(np.random.default_rng(0).random((16, 64)) < 0.5, -1.0, 1.0)
# functions that are not constructors, with their array arguments as nested lists
LIST_ARGUMENTS = {
    **CONSTRUCTORS,
    "spot_check_property_ii": (lambda B: spot_check_property_ii(B, 3), [_SIGNS.tolist()]),
}
FORMS = [(entry, form) for entry in sorted(ENTRY_POINTS) + ["l1_norm"]
         for form in ("ProbMatrix", "nested list")]
FORMS += [(name, "nested list") for name in sorted(LIST_ARGUMENTS)]


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_leave_the_callers_arrays_alone(name):
    # each stores a frozen array of its own: the caller's stays writable and unshared
    make, args = CONSTRUCTORS[name]
    given = [np.array(a) for a in args]
    obj = make(*given)
    stored = [v for v in (getattr(obj, f, None) for f in dir(obj) if not f.startswith("_"))
              if isinstance(v, np.ndarray)]
    assert stored
    for a in given:
        assert a.flags.writeable
        assert not any(np.shares_memory(a, v) for v in stored)


@pytest.mark.parametrize("entry, form", FORMS)
def test_other_forms_are_the_equal_array(entry, form, tmp_path):
    if entry in LIST_ARGUMENTS:
        make, args = LIST_ARGUMENTS[entry]
        assert _outcome(make(*args)) == _outcome(make(*map(np.array, args)))
        return
    rows = [[0.0, 0.3, 0.2], [0.3, 0.0, 0.5], [0.2, 0.5, 0.0]]
    B = rows if form == "nested list" else ProbMatrix(rows)
    f = ENTRY_POINTS.get(entry, lambda B, path: l1_norm(B))
    assert _outcome(f(B, tmp_path / "b.txt")) == _outcome(f(np.array(rows), tmp_path / "a.txt"))


_W = StepGraphon([[0.5, 0.1], [0.1, 0.5]], [0.5, 0.5])
_SPEC = ModelSpec(_W, 1.0)
_NAN = float("nan")
_PAIR = np.array([[0.5, 0.2], [0.2, 0.5]])
_A = AdjacencyMatrix([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_K = Kernel([[0.5, -0.5], [0.0, 0.25]], [0.5, 0.5], [0.5, 0.5])
_EPS = np.array([0.05, -0.05])
_Z2 = np.zeros((2, 2))  # an array where a value type belongs


# each malformed argument as f(path) for a scratch file path; each raised
# another exception type, or was accepted, before one rule covered it
BAD_ARGUMENTS = {
    "ProbMatrix-string": lambda path: ProbMatrix("abc"),
    "AdjacencyMatrix-string": lambda path: AdjacencyMatrix("x"),
    "Kernel-string values": lambda path: Kernel("x", [1], [1]),
    "Kernel-string weights": lambda path: Kernel([[0.1]], "a", [1]),
    "StepGraphon-dict values": lambda path: StepGraphon({}, [1.0]),
    "StepGraphon-string weights": lambda path: StepGraphon([[0.5]], "a"),
    "StepGraphon-0-d weights": lambda path: StepGraphon([[0.5]], 1.0),
    "format_stepgraphon-array": lambda path: format_stepgraphon(np.zeros((2, 2))),
    "save_stepgraphon-array": lambda path: save_stepgraphon(np.zeros((2, 2)), path),
    "LatentSample-nan": lambda path: LatentSample([_NAN, 0.2]),
    "LatentSample-empty": lambda path: LatentSample([]),
    "LatentSample-string": lambda path: LatentSample("abc"),
    "step_labels-nan": lambda path: step_labels(_W, [_NAN, 0.2]),
    "step_labels-2d": lambda path: step_labels(_W, [[0.2, 0.7]]),
    "step_labels-string": lambda path: step_labels(_W, "abc"),
    "theta_from_labels-float": lambda path: theta_from_labels(_SPEC, [0.7, 1.2]),
    "theta_from_labels-empty": lambda path: theta_from_labels(_SPEC, []),
    "theta_from_labels-2d": lambda path: theta_from_labels(_SPEC, [[0, 1]]),
    "theta_from_labels-string": lambda path: theta_from_labels(_SPEC, "ab"),
    "theta_from_labels-ragged": lambda path: theta_from_labels(_SPEC, [[0, 1], [0]]),
    "sample_theta-empty": lambda path: sample_theta(_SPEC, LatentSample([])),
    "ModelSpec-string rho": lambda path: ModelSpec(_W, "a"),
    "ModelSpec-array graphon": lambda path: ModelSpec(np.eye(2)),
    "kl_bound-string": lambda path: kl_bound("ab", "ab", 10, 0.05),
    "kl_bound-nan": lambda path: kl_bound([_NAN, 0.05], [0.05, -0.05], 10, 0.05),
    "latent_kl_exact-nan": lambda path: latent_kl_exact([_NAN, 0.05], [0.05, -0.05], 10),
    "BlockFit-label 5": lambda path: BlockFit(np.array([0, 5]), 0.5 * np.eye(2), 0.0),
    "BlockFit-float labels": lambda path: BlockFit(np.array([0.0, 1.0]), _PAIR, 0.0),
    "BlockFit-value 2": lambda path: BlockFit(np.array([0, 1]), 4 * _PAIR, 0.0),
    "BlockFit-empty labels": lambda path: BlockFit([], [[0.5]], 0.0),
    "VgCode-nan": lambda path: VgCode([[1.0, _NAN]], 2, True),
    "RegularityTerm-negative row": lambda path: RegularityTerm(0.5, [-1], [0], 0.5, 1.0, 0.75),
    "SvtEstimate-1-d raw":
        lambda path: SvtEstimate(ProbMatrix([[0.0, 0.3], [0.3, 0.0]]), [0.5], 0.5, 1),
    "blowup_counts-weights summing to 5": lambda path: blowup_counts([2.0, 3.0], 4),
    # scalars: an integer or a finite real in the parameter's interval
    "stream-float seed": lambda path: sample_latents(5, seed=2.5),
    "blowup-float m": lambda path: blowup(_W, 4.5),
    "blowup_counts-float m": lambda path: blowup_counts([0.5, 0.5], 2.5),
    "ModelSpec-bool rho": lambda path: ModelSpec(_W, True),
    "sbm_spec-float k": lambda path: sbm_spec(2.5, 0.5, 0.1),
    "sbm_spec-string p_in": lambda path: sbm_spec(2, "0.5", 0.1),
    "sbm_spec-string p_out": lambda path: sbm_spec(2, 0.5, "0.1"),
    "sample_latents-float n": lambda path: sample_latents(2.5),
    "sample_graph-float n": lambda path: sample_graph(_SPEC, 3.5),
    "estimate_restricted_ls-float k": lambda path: estimate_restricted_ls(_A, 1.5),
    "estimate_restricted_ls-string rho": lambda path: estimate_restricted_ls(_A, 2, rho="a"),
    "estimate_restricted_ls-float restarts":
        lambda path: estimate_restricted_ls(_A, 2, restarts=2.5),
    "exact_restricted_ls-float k": lambda path: exact_restricted_ls(_A, 1.5),
    "exact_restricted_ls-string rho": lambda path: exact_restricted_ls(_A, 2, rho="a"),
    "estimate_svt-nan threshold": lambda path: estimate_svt(_A, threshold=_NAN),
    "matrix_cut_norm_heuristic-float restarts":
        lambda path: matrix_cut_norm_heuristic(_PAIR, restarts=2.5),
    "inf1_norm-float restarts": lambda path: inf1_norm(np.eye(13), restarts=2.5),
    # routes that draw no stream check restarts and seed all the same
    "matrix_cut_norm_heuristic-negative seed at 2 restarts":
        lambda path: matrix_cut_norm_heuristic(_PAIR, restarts=2, seed=-1),
    "inf1_norm-exact string restarts": lambda path: inf1_norm(_PAIR, restarts="abc"),
    "inf1_norm-exact negative restarts": lambda path: inf1_norm(_PAIR, restarts=-5),
    "inf1_norm-exact negative seed": lambda path: inf1_norm(_PAIR, seed=-1),
    "cut_norm_sandwich_check-exact string restarts":
        lambda path: cut_norm_sandwich_check(_PAIR, restarts="abc"),
    "cut_norm_sandwich_check-exact negative restarts":
        lambda path: cut_norm_sandwich_check(_PAIR, restarts=-5),
    "cut_norm_sandwich_check-exact negative seed":
        lambda path: cut_norm_sandwich_check(_PAIR, seed=-1),
    "delta_upper-enumerated negative seed": lambda path: delta_upper(_W, _W, m=4, seed=-1),
    "delta_upper-exact cut negative seed at 0 restarts":
        lambda path: delta_upper(_W, _W, m=8, restarts=0, seed=-1),
    "permuted_difference_norm-l1 string restarts":
        lambda path: permuted_difference_norm(_W, _W, [0, 1, 2, 3], 4, "l1", restarts="abc"),
    "permuted_difference_norm-exact cut negative restarts":
        lambda path: permuted_difference_norm(_W, _W, [0, 1, 2, 3], 4, "cut", restarts=-5),
    "permuted_difference_norm-heuristic cut negative restarts":
        lambda path: permuted_difference_norm(_W, _W, list(range(14)), 14, "cut", restarts=-5),
    "permuted_difference_norm-l2 negative seed":
        lambda path: permuted_difference_norm(_W, _W, [0, 1, 2, 3], 4, "l2", seed=-1),
    "q_subset_upper_bound-float q": lambda path: q_subset_upper_bound(_K, 1.5),
    "Motif-float num_vertices": lambda path: Motif(2.5, ((0, 1),)),
    "Motif-float endpoint": lambda path: Motif(2, ((0.5, 1),)),
    "Motif-int edge": lambda path: Motif(2, (5,)),
    "Motif-None edges": lambda path: Motif(2, None),
    "common_refinement_m-float cap": lambda path: common_refinement_m(_W, _W, 2.5),
    "delta_upper-float restarts": lambda path: delta_upper(_W, _W, "l1", m=8, restarts=1.5),
    "delta_upper-float m": lambda path: delta_upper(_W, _W, m=2.5),
    "delta_upper-unknown metric": lambda path: delta_upper(_W, _W, "l3"),
    "delta_exact_tiny-unknown metric": lambda path: delta_exact_tiny(_W, _W, "l3"),
    "permuted_difference_norm-unknown metric":
        lambda path: permuted_difference_norm(_W, _W, [0, 1], 2, "l3"),
    "weak_regularity_approx-inf q0": lambda path: weak_regularity_approx(_W, float("inf")),
    "varshamov_gilbert_code-float k1": lambda path: varshamov_gilbert_code(8.0),
    "rademacher_block_matrix-float k1": lambda path: rademacher_block_matrix(8.5, 16),
    "rademacher_block_matrix-float mk": lambda path: rademacher_block_matrix(8, 8.5),
    "spot_check_property_ii-1-d B": lambda path: spot_check_property_ii(np.ones(16), 1),
    "spot_check_property_ii-zero B": lambda path: spot_check_property_ii(np.zeros((16, 64)), 3),
    "spot_check_property_ii-float samples": lambda path: spot_check_property_ii(_SIGNS, 2.5),
    "spot_check_property_ii-negative samples":
        lambda path: spot_check_property_ii(_SIGNS, -1),
    "matrix_packing-float n": lambda path: matrix_packing(16.0, 1.0),
    "matrix_packing-string rho": lambda path: matrix_packing(16, "a"),
    "kl_bound-negative n": lambda path: kl_bound(_EPS, -_EPS, -3, 0.05),
    "kl_bound-nan eps": lambda path: kl_bound(_EPS, -_EPS, 10, _NAN),
    "latent_kl_exact-negative n": lambda path: latent_kl_exact(_EPS, -_EPS, -3),
    "latent_kl_exact-label probability below 0":
        lambda path: latent_kl_exact([0.3, -0.3], _EPS, 10),
    "graphon_packing-float k": lambda path: graphon_packing(2.0, 64),
    "graphon_packing-negative n": lambda path: graphon_packing(2, -3),
    "graphon_packing-float n": lambda path: graphon_packing(64, 64.5),
    "graphon_packing-negative seed at k=2": lambda path: graphon_packing(2, 16, seed=-1),
    "ExperimentConfig-float n": lambda path: ExperimentConfig(ns=(32.5,), ks=(2,), rhos=(1.0,)),
    "ExperimentConfig-float k": lambda path: ExperimentConfig(ns=(32,), ks=(2.5,), rhos=(1.0,)),
    "ExperimentConfig-bool rho": lambda path: ExperimentConfig(ns=(32,), ks=(2,), rhos=(True,)),
    "ExperimentConfig-float reps":
        lambda path: ExperimentConfig(ns=(32,), ks=(2,), rhos=(1.0,), reps=2.5),
    "ExperimentConfig-float seed":
        lambda path: ExperimentConfig(ns=(32,), ks=(2,), rhos=(1.0,), seed=2.5),
    "ExperimentConfig-int ns": lambda path: ExperimentConfig(ns=16, ks=(2,), rhos=(1.0,)),
    "ExperimentConfig-None metrics":
        lambda path: ExperimentConfig(ns=(16,), ks=(2,), rhos=(1.0,), metrics=None),
    # a graphon-level cell measures against the truth refined into n steps
    "ExperimentConfig-graphon k not dividing n":
        lambda path: ExperimentConfig(ns=(50,), ks=(8,), rhos=(1.0,), reps=2, level="graphon"),
    "rate_formula-float n": lambda path: rate_formula("Cut", 100.5, 4, 1.0),
    "rate_formula-float k": lambda path: rate_formula("Cut", 100, 4.5, 1.0),
    "rate_formula-bool rho": lambda path: rate_formula("Cut", 100, 4, True),
    "default_model-float k": lambda path: default_model(2.5),
    # value types: the type itself, checked where it is first read
    "estimate_adjacency-array": lambda path: estimate_adjacency(_Z2),
    "estimate_mean-array": lambda path: estimate_mean(_Z2),
    "edge_density-array": lambda path: edge_density(_Z2),
    "estimate_svt-array": lambda path: estimate_svt(_Z2),
    "estimate_restricted_ls-array": lambda path: estimate_restricted_ls(_Z2, 1),
    "exact_restricted_ls-array": lambda path: exact_restricted_ls(_Z2, 1),
    "fit_to_prob_matrix-array": lambda path: fit_to_prob_matrix(_Z2),
    "sample_adjacency-array": lambda path: sample_adjacency(_Z2),
    "sample_theta-array spec": lambda path: sample_theta(_Z2, LatentSample([0.2])),
    "sample_theta-array latents": lambda path: sample_theta(_SPEC, np.array([0.1, 0.5])),
    "theta_from_labels-graphon spec": lambda path: theta_from_labels(_W, [0, 1]),
    "step_labels-array": lambda path: step_labels(_Z2, [0.2]),
    "blowup-array": lambda path: blowup(_Z2, 4),
    "common_refinement_m-array": lambda path: common_refinement_m(_Z2, _W),
    "delta_upper-array": lambda path: delta_upper(_W, _Z2),
    "delta_exact_tiny-array": lambda path: delta_exact_tiny(_Z2, _W),
    "delta_cut_lower-array": lambda path: delta_cut_lower(_Z2, _W),
    "homomorphism_density-tuple motif": lambda path: homomorphism_density((2, ((0, 1),)), _W),
    "homomorphism_density-array graphon": lambda path: homomorphism_density(EDGE, _Z2),
    "weak_regularity_approx-array": lambda path: weak_regularity_approx(_Z2, 4),
    "step_kernel_cut_norm_exact-graphon": lambda path: step_kernel_cut_norm_exact(_W),
    "kernel_witness_value-array": lambda path: kernel_witness_value(_Z2, [0], [0]),
    "q_subset_upper_bound-array": lambda path: q_subset_upper_bound(_Z2, 1),
    "khintchine_lower_bound-array": lambda path: khintchine_lower_bound(np.eye(2)),
    "run_risk_experiment-dict": lambda path: run_risk_experiment({"ns": (8,)}),
    "emit-array": lambda path: emit(_Z2, "csv", path),
    "save_packing_family-tuple": lambda path: save_packing_family((_W, _W), path),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_malformed_arguments_raise_validation_error(case, tmp_path):
    with pytest.raises(ValidationError):
        BAD_ARGUMENTS[case](tmp_path / "w.txt")
    assert not (tmp_path / "w.txt").exists()


def test_numpy_scalars_give_the_bytes_of_python_scalars():
    spec = default_model(4, 0.5)
    np_draw = sample_graph(spec, np.int64(16), np.int64(3))
    py_draw = sample_graph(spec, 16, 3)
    assert [x.tobytes() for x in (np_draw[0].positions, np_draw[1].values, np_draw[2].values)] \
        == [x.tobytes() for x in (py_draw[0].positions, py_draw[1].values, py_draw[2].values)]
    grid = dict(ns=(16,), ks=(2,), estimators=("adjacency", "svt"), reps=2)
    np_csv = format_csv(run_risk_experiment(ExperimentConfig(
        rhos=(np.float64(0.5),), seed=np.int64(1), **grid)))
    py_csv = format_csv(run_risk_experiment(ExperimentConfig(rhos=(0.5,), seed=1, **grid)))
    assert np_csv == py_csv
    assert format_csv(parse_csv(np_csv)) == py_csv


LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],  # every other row of a larger array
}


def _layout_outcomes(M, layout):
    """The outcome of each layout-sensitive entry point on `layout`'s view of
    the square [-1, 1] matrix M, and the arrays its constructors store."""
    n = M.shape[0]
    P = np.abs(M + M.T) / 2  # symmetric, in [0, 1]
    np.fill_diagonal(P, 0.0)
    w = np.full(n, 1.0 / n)
    view = layout(M)
    heur = matrix_cut_norm_heuristic(view)
    out = {"matrix_cut_norm_heuristic": heur, "inf1_norm": inf1_norm(view),
           "l1_norm": l1_norm(view),
           "matrix_witness_value": matrix_witness_value(view, heur.witness_s, heur.witness_t),
           "empirical_graphon": empirical_graphon(layout(P)),
           "ProbMatrix": ProbMatrix(layout(P)),
           "Kernel": Kernel(view, layout(w), layout(w))}
    if n <= 12:
        out["matrix_cut_norm_exact"] = matrix_cut_norm_exact(view)
        out["cut_norm_sandwich_check"] = cut_norm_sandwich_check(view)
        out["step_kernel_cut_norm_exact"] = step_kernel_cut_norm_exact(out["Kernel"])
    stored = [out["empirical_graphon"].values, out["empirical_graphon"].weights,
              out["ProbMatrix"].values, out["Kernel"].values, out["Kernel"].row_weights,
              out["Kernel"].col_weights]
    return {name: repr(_outcome(r)) for name, r in out.items()}, stored


@given(n=st.integers(1, 12) | st.integers(1, 100),
       grid=st.sampled_from(["integer", "tenths", "uniform"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_no_value_depends_on_the_memory_layout(n, grid, seed):
    # integer and tenths grids make ties; uniform values make every
    # summation order count
    rng = np.random.default_rng(seed)
    if grid == "uniform":
        M = rng.uniform(-1, 1, (n, n))
    else:
        M = rng.integers(-1, 2, (n, n)) if grid == "integer" else rng.integers(-10, 11, (n, n)) / 10
    want, _ = _layout_outcomes(M.astype(float), LAYOUTS["C"])
    for name in ("F", "strided"):
        got, stored = _layout_outcomes(M.astype(float), LAYOUTS[name])
        assert got == want, name
        assert all(a.flags.c_contiguous for a in stored), name


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
