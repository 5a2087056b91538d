"""Tests for rearrangement distances and homomorphism densities."""

import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutgraphon import distance
from cutgraphon.core import StepGraphon, blowup, empirical_graphon
from cutgraphon.distance import (
    CHERRY,
    DEFAULT_MOTIFS,
    EDGE,
    ENUMERATE_M,
    SQUARE,
    TRIANGLE,
    Motif,
    _greedy_match,
    _row_cost,
    _search,
    common_refinement_m,
    delta_cut_lower,
    delta_exact_tiny,
    delta_upper,
    homomorphism_density,
    permuted_difference_norm,
)
from cutgraphon.cutnorm import inf1_norm
from cutgraphon.errors import BudgetError, ValidationError
from cutgraphon.experiments import default_model
from cutgraphon.sampling import sample_graph


# ---------------------------------------------------------------------------
# oracles


def brute_hom_density(motif, W):
    """Direct sum over all k^q vertex maps."""
    k = W.k
    total = 0.0
    for psi in itertools.product(range(k), repeat=motif.num_vertices):
        term = 1.0
        for v in psi:
            term *= W.weights[v]
        for i, j in motif.edges:
            term *= W.values[psi[i], psi[j]]
        total += term
    return total


def oracle_cut_of(D):
    """Exact max rectangle sum by enumerating subsets on both sides."""
    m = D.shape[0]
    best = 0.0
    for smask in range(1 << m):
        S = [i for i in range(m) if smask >> i & 1]
        if not S:
            continue
        col = D[S].sum(axis=0)
        for tmask in range(1 << m):
            T = [j for j in range(m) if tmask >> j & 1]
            best = max(best, abs(col[T].sum()) if T else 0.0)
    return best / m**2


def oracle_delta(W1, W2, metric, m):
    """Enumerate every permutation of an m-step refinement."""
    D1 = np.repeat(np.repeat(W1.values, _counts(W1, m), 0), _counts(W1, m), 1)
    D2 = np.repeat(np.repeat(W2.values, _counts(W2, m), 0), _counts(W2, m), 1)
    best = np.inf
    for p in itertools.permutations(range(m)):
        p = list(p)
        D = D1 - D2[np.ix_(p, p)]
        if metric == "cut":
            val = oracle_cut_of(D)
        elif metric == "l1":
            val = np.abs(D).mean()
        else:
            val = np.sqrt((D**2).mean())
        best = min(best, val)
    return best


def _counts(W, m):
    c = np.rint(W.weights * m).astype(int)
    assert c.sum() == m
    return c


def random_refinable(rng, m=6):
    """Random step graphon whose weights are multiples of 1/m."""
    k = int(rng.integers(1, 4))
    V = rng.uniform(0, 1, (k, k))
    V = (V + V.T) / 2
    cuts = sorted(rng.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else []
    counts = np.diff([0] + list(cuts) + [m])
    return StepGraphon(V, counts / m)


def uneven_blowup(rng, k, m, layout):
    """m x m blow-up of a random k-step graphon with weights that do not refine.

    Small Dirichlet weights give runs of uneven length and, now and then,
    steps that get no slot at all.  ``distinct`` draws a matrix with no
    repeated rows; ``shuffled`` permutes the blow-up so equal rows are not
    adjacent.
    """
    if layout == "distinct":
        return rng.uniform(0, 1, (m, m))
    V = rng.uniform(0, 1, (k, k))
    D = blowup(StepGraphon((V + V.T) / 2, rng.dirichlet(np.full(k, 0.3))), m).values
    if layout == "shuffled":
        p = rng.permutation(m)
        D = D[np.ix_(p, p)]
    return D


# ---------------------------------------------------------------------------
# motifs


class TestMotif:
    def test_constants_shape(self):
        assert EDGE.edge_count == 1
        assert CHERRY.edge_count == 2
        assert TRIANGLE.edge_count == 3
        assert SQUARE.edge_count == 4 and SQUARE.num_vertices == 4

    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValidationError):
            Motif(2, ((0, 0),))
        with pytest.raises(ValidationError):
            Motif(3, ((0, 1), (1, 0)))
        with pytest.raises(ValidationError):
            Motif(2, ((0, 5),))

    def test_density_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            V = rng.uniform(0, 1, (k, k))
            V = (V + V.T) / 2
            w = rng.uniform(0.2, 1.0, k)
            W = StepGraphon(V, w / w.sum())
            for f in DEFAULT_MOTIFS:
                assert homomorphism_density(f, W) == pytest.approx(
                    brute_hom_density(f, W), abs=1e-12
                )

    def test_constant_graphon_powers(self):
        W = StepGraphon(np.array([[0.7]]), np.array([1.0]))
        for f in DEFAULT_MOTIFS:
            assert homomorphism_density(f, W) == pytest.approx(0.7**f.edge_count, abs=1e-12)

    def test_vertex_budget(self):
        big = Motif(7, tuple((i, i + 1) for i in range(6)))
        W = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(BudgetError):
            homomorphism_density(big, W)


# ---------------------------------------------------------------------------
# refinement


class TestRefinement:
    def test_quarters(self):
        A = StepGraphon(np.array([[0.2, 0.8], [0.8, 0.3]]), np.array([0.25, 0.75]))
        B = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        assert common_refinement_m(A, B) == (4, True)

    def test_mixed_denominators(self):
        A = StepGraphon(np.full((2, 2), 0.5), np.array([0.3, 0.7]))
        B = StepGraphon(np.full((3, 3), 0.5), np.array([0.2, 0.2, 0.6]))
        m, exact = common_refinement_m(A, B)
        assert exact and m == 10

    def test_cap_fallback(self):
        r = 1 / np.sqrt(2)
        A = StepGraphon(np.full((2, 2), 0.5), np.array([r, 1 - r]))
        B = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        m, exact = common_refinement_m(A, B)
        assert m == 64 and not exact


# ---------------------------------------------------------------------------
# distances


class TestDistances:
    def test_constants_every_metric(self):
        A = StepGraphon(np.array([[0.2]]), np.array([1.0]))
        B = StepGraphon(np.array([[0.7]]), np.array([1.0]))
        for metric in ("cut", "l1", "l2"):
            assert delta_exact_tiny(A, B, metric=metric).upper == pytest.approx(0.5, abs=1e-12)
            assert delta_upper(A, B, metric=metric).upper == pytest.approx(0.5, abs=1e-12)

    def test_two_block_example(self):
        # constant 1/2 vs +-0.1 two-block: aligned difference is the
        # checkerboard scaled by 0.1, so the cut value is eps/4 while the
        # l1/l2 and infinity-to-one functionals all sit at eps.
        half = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        two = StepGraphon(np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.5, 0.5]))
        assert delta_exact_tiny(half, two, metric="cut").upper == pytest.approx(0.025, abs=1e-9)
        assert delta_exact_tiny(half, two, metric="l1").upper == pytest.approx(0.1, abs=1e-9)
        assert delta_exact_tiny(half, two, metric="l2").upper == pytest.approx(0.1, abs=1e-9)
        D = blowup(half, 2).values - blowup(two, 2).values
        assert inf1_norm(D).value == pytest.approx(0.1, abs=1e-12)

    def test_identical_graphons_zero(self):
        rng = np.random.default_rng(3)
        W = random_refinable(rng)
        for metric in ("cut", "l1", "l2"):
            assert delta_upper(W, W, metric=metric).upper <= 1e-12

    def test_search_matches_enumeration(self):
        # delta_upper enumerates when m <= ENUMERATE_M, so the permutation
        # search it runs above that size is called directly on the blow-ups
        rng = np.random.default_rng(5)
        for trial in range(12):
            A = random_refinable(rng)
            B = random_refinable(rng)
            m, _ = common_refinement_m(A, B)
            D1, D2 = blowup(A, m).values, blowup(B, m).values
            for metric in ("cut", "l1", "l2"):
                ex = delta_exact_tiny(A, B, metric=metric)
                _, up = _search(D1, D2, metric, restarts=16, seed=trial)
                assert up >= ex.upper - 1e-12
                assert up == pytest.approx(ex.upper, abs=1e-6)

    def test_search_matches_enumeration_at_seven_steps(self):
        # m = 7 > ENUMERATE_M: delta_upper itself searches, and the oracle
        # still enumerates
        rng = np.random.default_rng(7)
        for trial in range(6):
            A = random_refinable(rng, m=7)
            B = random_refinable(rng, m=7)
            for metric in ("cut", "l1", "l2"):
                ex = delta_exact_tiny(A, B, metric=metric)
                up = delta_upper(A, B, metric=metric, restarts=16, seed=trial)
                assert up.m == 7 > ENUMERATE_M and "enumerated" not in up.detail
                assert up.upper >= ex.upper - 1e-12
                assert up.upper == pytest.approx(ex.upper, abs=1e-6)

    @pytest.mark.parametrize("rng_seed, index", [(1002, 32), (1004, 17), (1009, 9)])
    def test_upper_is_exact_at_six_steps(self, rng_seed, index):
        # criterion 10's pair draw with other generator seeds: pairwise-swap
        # descent stopped at a local optimum on these three pairs (0.042540
        # vs 0.042061, 0.040186 vs 0.039164, 0.051804 vs 0.049836)
        rng = np.random.default_rng(rng_seed)
        for _ in range(index + 1):
            pair = []
            for _ in range(2):
                V = rng.uniform(0, 1, (6, 6))
                pair.append(StepGraphon((V + V.T) / 2, np.full(6, 1 / 6)))
        up = delta_upper(pair[0], pair[1], "cut", seed=index)
        ex = delta_exact_tiny(pair[0], pair[1], "cut")
        assert up.method == "search-exact-cut" and up.detail["enumerated"]
        assert up.upper == ex.upper
        assert permuted_difference_norm(pair[0], pair[1], up.permutation, up.m) == up.upper

    def test_backward_greedy_on_transposed_cost(self):
        # the search builds one cost and matches backwards on its transpose;
        # m = 40 is a size only the search reaches, and repeated rows make ties
        rng = np.random.default_rng(19)
        for _ in range(4):
            A = random_refinable(rng, m=40)
            B = random_refinable(rng, m=40)
            D1, D2 = blowup(A, 40).values, blowup(B, 40).values
            cost = _row_cost(D1, D2)
            fresh = np.abs(D2[:, None, :] - D1[None, :, :]).sum(axis=2)
            assert np.array_equal(_greedy_match(cost.T), _greedy_match(fresh))

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(6, 40),
        st.integers(0, 10_000),
        st.sampled_from(["runs", "distinct", "shuffled"]),
        st.sampled_from(["runs", "distinct", "shuffled"]),
        st.sampled_from([1, 97, 2**22]),
    )
    @example(6, 5, 7, 3, "runs", "runs", 1)  # two zero-slot steps on the first side
    @settings(max_examples=60, deadline=None)
    def test_row_cost_matches_full_tensor(self, k1, k2, m, seed, layout1, layout2, block):
        # block = 1 and 97 fill the cost a few representative rows at a time
        rng = np.random.default_rng(seed)
        D1 = uneven_blowup(rng, k1, m, layout1)
        D2 = uneven_blowup(rng, k2, m, layout2)
        full = np.abs(D1[:, None, :] - D2[None, :, :]).sum(axis=2)
        with mock.patch.object(distance, "_COST_BLOCK", block):
            assert np.array_equal(_row_cost(D1, D2), full)

    @pytest.mark.parametrize(
        "metric, seed, digest, upper",
        [
            ("cut", 32, "fa95ab211bb512211ea1a0a300c7ed4be903c68369d5173dcf97d68da8e14567",
             "0.10458984374999993"),
            ("l1", 6, "7a4644928f3a08db905254fd7e5e53ef19a46d932a2ecd372b45462413a82619",
             "0.50234375"),
        ],
        ids=["cut", "l1"],
    )
    def test_search_wiring_is_pinned(self, metric, seed, digest, upper):
        # the risk harness's call at restarts=0 and a heuristic size; on these
        # two draws matching backward on `cost` instead of `cost.T` changes
        # the answer, as does any change to how the row cost is expanded
        spec = default_model(4)
        _, _, A = sample_graph(spec, 64, seed)
        est = delta_upper(empirical_graphon(A), spec.graphon, metric, m=64, restarts=0, seed=seed)
        perm = np.asarray(est.permutation, dtype=np.int64)
        assert hashlib.sha256(perm.tobytes()).hexdigest() == digest
        assert repr(est.upper) == upper

    def test_row_cost_budget(self, monkeypatch):
        # 16 x 1 distinct rows of length 16 is 256 elements
        rng = np.random.default_rng(29)
        A = StepGraphon(np.diag(rng.uniform(0.2, 0.8, 16)), np.full(16, 1 / 16))
        B = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        monkeypatch.setattr(distance, "COST_BUDGET", 255)
        with pytest.raises(BudgetError):
            delta_upper(A, B, "l1", m=16, restarts=0)
        monkeypatch.setattr(distance, "COST_BUDGET", 256)
        assert delta_upper(A, B, "l1", m=16, restarts=0).m == 16

    def test_exact_tiny_lower_holds_under_refinement(self):
        # the 31st random symmetric 3-step pair: splitting each step in two
        # lets the enumeration pair half-steps and go below the 3-step optimum
        rng = np.random.default_rng(0)
        for _ in range(31):
            pair = []
            for _ in range(2):
                V = rng.uniform(0, 1, (3, 3))
                pair.append(StepGraphon((V + V.T) / 2, np.full(3, 1 / 3)))
        coarse = delta_exact_tiny(pair[0], pair[1], "cut")
        halves = [StepGraphon(blowup(W, 6).values, np.full(6, 1 / 6)) for W in pair]
        fine = delta_exact_tiny(halves[0], halves[1], "cut")
        assert (coarse.m, fine.m) == (3, 6)
        assert coarse.upper == pytest.approx(0.06839, abs=1e-5)
        assert fine.upper == pytest.approx(0.04926, abs=1e-5)
        assert coarse.lower <= fine.upper and fine.lower <= fine.upper

    def test_exact_tiny_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            A = random_refinable(rng, m=4)
            B = random_refinable(rng, m=4)
            for metric in ("cut", "l1", "l2"):
                got = delta_exact_tiny(A, B, metric=metric).upper
                assert got == pytest.approx(oracle_delta(A, B, metric, 4), abs=1e-12)

    def test_witness_replay(self):
        # m = 6 takes the enumeration, m = 7 the search
        for m in (6, 7):
            rng = np.random.default_rng(13)
            A = random_refinable(rng, m=m)
            B = random_refinable(rng, m=m)
            est = delta_upper(A, B, metric="l1", seed=2)
            assert est.m == m
            rep = permuted_difference_norm(A, B, est.permutation, est.m, "l1")
            assert rep == pytest.approx(est.upper, abs=1e-12)

    def test_block_relabel_invariance(self):
        rng = np.random.default_rng(17)
        V = rng.uniform(0, 1, (3, 3))
        V = (V + V.T) / 2
        w = np.array([1 / 6, 2 / 6, 3 / 6])
        A = StepGraphon(V, w)
        p = [2, 0, 1]
        B = StepGraphon(V[np.ix_(p, p)], w[p])
        for metric in ("cut", "l1", "l2"):
            assert delta_exact_tiny(A, B, metric=metric).upper <= 1e-12

    def test_exact_tiny_rejects_unrefinable(self):
        r = 1 / np.sqrt(2)
        A = StepGraphon(np.full((2, 2), 0.5), np.array([r, 1 - r]))
        B = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            delta_exact_tiny(A, B)


# ---------------------------------------------------------------------------
# counting lower bound


class TestCountingLowerBound:
    def test_identical_gives_zero(self):
        W = StepGraphon(np.array([[0.3, 0.9], [0.9, 0.1]]), np.array([0.5, 0.5]))
        assert delta_cut_lower(W, W).value == 0.0

    def test_two_block_positive(self):
        half = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        two = StepGraphon(np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.5, 0.5]))
        lb = delta_cut_lower(half, two)
        assert lb.value > 0
        assert lb.motif is not None

    def test_lower_below_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            A = random_refinable(rng)
            B = random_refinable(rng)
            lb = delta_cut_lower(A, B)
            ex = delta_exact_tiny(A, B, metric="cut")
            assert lb.value <= ex.upper + 1e-12

    def test_rejects_edgeless_motif(self):
        W = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        lone = Motif(1, ())
        with pytest.raises(ValidationError):
            delta_cut_lower(W, W, motifs=(lone,))
