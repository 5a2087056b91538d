import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgraphon import (
    AdjacencyMatrix,
    Kernel,
    LatentSample,
    ProbMatrix,
    StepGraphon,
    ValidationError,
    blowup,
    empirical_graphon,
    l1_norm,
)
from cutgraphon.core import (
    _SYM_TOL,
    _check_symmetric,
    blowup_counts,
    format_matrix,
    format_stepgraphon,
    parse_matrix,
    parse_stepgraphon,
)


def brute_weighted_l1(q, w):
    total = 0.0
    for a in range(len(w)):
        for b in range(len(w)):
            total += w[a] * w[b] * abs(q[a][b])
    return total


class TestTypes:
    def test_prob_matrix_accepts_valid(self):
        p = ProbMatrix([[0.0, 0.3], [0.3, 0.0]])
        assert p.n == 2
        assert not p.values.flags.writeable

    def test_prob_matrix_owns_its_values(self):
        a = np.array([[0.0, 0.3], [0.3, 0.0]])
        p = ProbMatrix(a)
        a[0, 1] = a[1, 0] = 0.9
        assert p.values.tolist() == [[0.0, 0.3], [0.3, 0.0]]
        assert not p.values.flags.writeable
        with pytest.raises(ValueError):
            p.values[0, 1] = 0.5

    def test_prob_matrix_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            ProbMatrix([[0.0, 0.3], [0.4, 0.0]])

    def test_prob_matrix_rejects_diagonal(self):
        with pytest.raises(ValidationError):
            ProbMatrix([[0.5, 0.3], [0.3, 0.0]])

    def test_prob_matrix_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ProbMatrix([[0.0, 1.2], [1.2, 0.0]])

    @pytest.mark.parametrize("i, j", [(0, 2), (2, 0)], ids=["upper", "lower"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_symmetry_tolerance_in_either_triangle(self, i, j, sign):
        a = np.zeros((3, 3))
        a[i, j] = sign * _SYM_TOL
        _check_symmetric(a, "a")
        a[i, j] = sign * np.nextafter(_SYM_TOL, 1.0)
        with pytest.raises(ValidationError, match="not symmetric"):
            _check_symmetric(a, "a")

    def test_adjacency_rejects_nonbinary(self):
        with pytest.raises(ValidationError):
            AdjacencyMatrix([[0.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("values", [
        [[0.0, np.nan], [np.nan, 0.0]], [[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 0.0]],
        [[0.0, 1.0, 0.0]]], ids=["nan", "asymmetric", "diagonal", "not-square"])
    def test_adjacency_rejects_what_a_prob_matrix_rejects(self, values):
        with pytest.raises(ValidationError):
            AdjacencyMatrix(values)

    def test_adjacency_is_a_prob_matrix_with_a_positive_zero_diagonal(self):
        A = AdjacencyMatrix(np.array([[-0.0, 1.0], [1.0, -0.0]]))
        assert isinstance(A, ProbMatrix)
        assert not np.signbit(A.values.diagonal()).any()

    @pytest.mark.parametrize("make", [ProbMatrix, lambda a: StepGraphon(a, np.full(3, 1 / 3))],
                             ids=["prob", "graphon"])
    def test_input_symmetric_within_tolerance_is_stored_symmetric(self, make):
        a = np.array([[0.0, 0.3, 0.6], [0.3 + 8e-10, 0.0, 0.2], [0.6, 0.2 - 5e-10, 0.0]])
        v = make(a).values
        assert np.array_equal(v, v.T)
        assert v.tobytes() == ((a + a.T) / 2).tobytes()

    def test_adjacency_edge_count(self):
        a = AdjacencyMatrix([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert a.edge_count == 2

    def test_stepgraphon_rejects_negative(self):
        with pytest.raises(ValidationError):
            StepGraphon([[-0.1, 0.2], [0.2, 0.3]], [0.5, 0.5])

    def test_stepgraphon_rejects_values_above_one(self):
        with pytest.raises(ValidationError):
            StepGraphon([[1.5, 0.2], [0.2, 0.3]], [0.5, 0.5])
        with pytest.raises(ValidationError):
            parse_stepgraphon("stepgraphon 1\n1.0\n1.5\n")
        with pytest.raises(ValidationError):
            empirical_graphon(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_kernel_rejects_values_outside_unit_range(self):
        with pytest.raises(ValidationError):
            Kernel([[2.0]], [1.0], [1.0])
        with pytest.raises(TypeError):
            Kernel([[2.0]], [1.0], [1.0], check_range=False)

    @pytest.mark.parametrize("make, arrays", [
        (ProbMatrix._owning, (np.array([[0.0, 0.5], [0.5, 0.0]]),)),
        (AdjacencyMatrix._owning, (np.array([[0.0, 1.0], [1.0, 0.0]]),)),
        (StepGraphon._owning, (np.full((2, 2), 0.5), np.full(2, 0.5))),
        (Kernel._owning, (np.array([[2.0, -3.0]]), np.ones(1), np.full(2, 0.5))),
    ], ids=["prob", "adjacency", "graphon", "kernel"])
    def test_owning_freezes_what_it_wraps_without_copying(self, make, arrays):
        obj = make(*arrays)
        held = [getattr(obj, f) for c in type(obj).__mro__ for f in getattr(c, "__slots__", ())]
        for a in arrays:
            assert any(h is a for h in held)
            assert not a.flags.writeable

    def test_kernel_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError):
            Kernel([[0.5, 0.5]], [1.0], [0.5, 0.0])

    def test_latent_sample_range(self):
        LatentSample(np.array([0.0, 0.999]))
        with pytest.raises(ValidationError):
            LatentSample(np.array([1.0]))


class TestWeightRule:
    """Accept within 1e-12, renormalize within 1e-9, reject beyond."""

    def test_kept_verbatim_inside_tight_tol(self):
        w = np.array([0.25, 0.75 + 5e-13])
        g = StepGraphon(np.zeros((2, 2)), w)
        assert g.weights[1] == w[1]

    def test_renormalized_inside_loose_tol(self):
        w = np.array([0.25, 0.75 + 5e-10])
        g = StepGraphon(np.zeros((2, 2)), w)
        assert abs(g.weights.sum() - 1.0) <= 1e-15

    def test_rejected_beyond_loose_tol(self):
        with pytest.raises(ValidationError):
            StepGraphon(np.zeros((2, 2)), [0.25, 0.75 + 1e-8])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError):
            StepGraphon(np.zeros((2, 2)), [1.0, 0.0])


class TestReweighted:
    def test_shares_values_and_checks_weights_as_the_constructor(self):
        g = StepGraphon([[0.2, 0.7], [0.7, 0.1]], [0.5, 0.5])
        for w in ([0.25, 0.75], [0.25, 0.75 + 5e-13], [0.25, 0.75 + 5e-10]):
            h = g.reweighted(w)
            assert h.values is g.values and h.k == g.k
            assert h.weights.tobytes() == StepGraphon(g.values, w).weights.tobytes()
            assert not h.weights.flags.writeable
        assert g.weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("w", [[1.0], [0.25, 0.75 + 1e-8], [1.0, 0.0], [0.5, np.nan]])
    def test_rejects_what_the_constructor_rejects(self, w):
        g = StepGraphon(np.zeros((2, 2)), [0.5, 0.5])
        for make in (g.reweighted, lambda w: StepGraphon(g.values, w)):
            with pytest.raises(ValidationError):
                make(w)


class TestNorms:
    def test_two_step_l1_value(self):
        w = StepGraphon([[0.8, 0.2], [0.2, 0.6]], [0.25, 0.75])
        assert l1_norm(w) == pytest.approx(0.4625, abs=1e-12)

    def test_matrix_norm_normalization(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert l1_norm(b) == pytest.approx(0.5)

    @given(
        st.integers(2, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_l1_matches_bruteforce(self, k, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0, 1, (k, k))
        q = (q + q.T) / 2
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        g = StepGraphon(q, w)
        assert l1_norm(g) == pytest.approx(brute_weighted_l1(q, w), rel=1e-12)


class TestEmpiricalAndBlowup:
    def test_empirical_graphon_shape(self):
        a = AdjacencyMatrix([[0, 1], [1, 0]])
        g = empirical_graphon(a)
        assert g.k == 2
        assert np.allclose(g.weights, 0.5)
        assert np.array_equal(g.values, a.values)

    def test_blowup_exact_quarters(self):
        g = StepGraphon([[0.8, 0.2], [0.2, 0.6]], [0.25, 0.75])
        b = blowup(g, 4)
        assert b.k == 4
        # first step gets 1 slot, second gets 3
        assert b.values[0, 0] == 0.8
        assert np.all(b.values[1:, 1:] == 0.6)

    def test_blowup_preserves_l1_when_exact(self):
        g = StepGraphon([[0.8, 0.2], [0.2, 0.6]], [0.25, 0.75])
        assert l1_norm(blowup(g, 8)) == pytest.approx(l1_norm(g), abs=1e-12)

    def test_blowup_of_equal_steps_is_itself(self):
        a = AdjacencyMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = empirical_graphon(a)
        assert blowup(g, 3) is g
        # three steps with unequal weights still get equal ones
        u = StepGraphon(g.values, [0.2, 0.3, 0.5])
        b = blowup(u, 3)
        assert b is not u
        assert np.array_equal(b.weights, np.full(3, 1 / 3))
        assert np.array_equal(b.values, u.values)

    def test_blowup_rejects_m_below_k(self):
        g = StepGraphon(np.zeros((3, 3)), [1 / 3] * 3)
        with pytest.raises(ValidationError):
            blowup(g, 2)

    @pytest.mark.parametrize("m", [4, 37, 256])
    def test_blowup_owns_its_gather(self, m):
        # the blow-up takes its fresh gather as it is; the bytes are those the
        # public constructor makes of the same gather, and both arrays are frozen
        g = StepGraphon([[0.9, 0.1, 0.3], [0.1, 0.0, 1.0], [0.3, 1.0, 0.5]], [0.2, 0.3, 0.5])
        idx = np.repeat(np.arange(3), blowup_counts(g.weights, m))
        ref = StepGraphon(g.values[np.ix_(idx, idx)], np.full(m, 1.0 / m))
        b = blowup(g, m)
        for got, want in ((b.values, ref.values), (b.weights, ref.weights)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert got.flags.c_contiguous and not got.flags.writeable
        assert b.k == m

    def test_largest_remainder_ties_go_to_lower_index(self):
        counts = blowup_counts(np.array([0.5, 0.5]), 3)
        assert counts.tolist() == [2, 1]

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_blowup_counts_sum_to_m(self, k, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 1.0, k)
        w /= w.sum()
        for m in (k, k + 3, 4 * k + 1):
            assert blowup_counts(w, m).sum() == m


class TestSerialization:
    def test_stepgraphon_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        q = rng.uniform(0, 1, (3, 3))
        q = (q + q.T) / 2
        w = rng.uniform(0.1, 1.0, 3)
        w /= w.sum()
        w = w / w.sum()  # settle within 1e-12 so the parser keeps it verbatim
        g = StepGraphon(q, w)
        g2 = parse_stepgraphon(format_stepgraphon(g))
        assert np.array_equal(g.values, g2.values)
        assert np.array_equal(g.weights, g2.weights)

    def test_matrix_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (5, 5))
        assert np.array_equal(parse_matrix(format_matrix(a)), a)

    def test_header_format(self):
        g = StepGraphon([[0.5]], [1.0])
        text = format_stepgraphon(g)
        assert text.splitlines()[0] == "stepgraphon 1"
        a = format_matrix(np.zeros((2, 2)))
        assert a.splitlines()[0] == "matrix 2"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValidationError):
            parse_stepgraphon("matrix 2\n0 0\n0 0\n")
        with pytest.raises(ValidationError):
            parse_matrix("matrix 2\n0 0\n0\n")
        with pytest.raises(ValidationError):
            parse_matrix("matrix x\n0\n")

    def test_file_round_trip(self, tmp_path):
        from cutgraphon import load_stepgraphon, save_stepgraphon

        g = StepGraphon([[0.8, 0.2], [0.2, 0.6]], [0.25, 0.75])
        p = tmp_path / "g.txt"
        save_stepgraphon(g, p)
        g2 = load_stepgraphon(p)
        assert np.array_equal(g.values, g2.values)
