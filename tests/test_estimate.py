"""Tests for the probability-matrix estimators."""

import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutgraphon import estimate, packing
from cutgraphon.core import AdjacencyMatrix, ProbMatrix, StepGraphon, empirical_graphon
from cutgraphon.errors import BudgetError, ValidationError
from cutgraphon.estimate import (
    edge_density,
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    exact_restricted_ls,
    fit_to_prob_matrix,
)
from cutgraphon.experiments import default_model
from cutgraphon.sampling import ModelSpec, sample_graph, sbm_spec, theta_from_labels


def random_graph(rng, n, p=0.5):
    M = (rng.random((n, n)) < p).astype(float)
    M = np.triu(M, 1)
    return AdjacencyMatrix(M + M.T)


def oracle_rls(M, k, rho):
    """Independent brute force: all labelings, means via explicit loops."""
    n = M.shape[0]
    best = None
    for z in itertools.product(range(k), repeat=n):
        Q = np.zeros((k, k))
        cnt = np.zeros((k, k))
        for i in range(n):
            for j in range(n):
                if i != j:
                    Q[z[i], z[j]] += M[i, j]
                    cnt[z[i], z[j]] += 1
        Q = np.where(cnt > 0, Q / np.maximum(cnt, 1), 0.0)
        Q = np.minimum(np.maximum(Q, 0.0), rho)
        obj = sum(
            (M[i, j] - Q[z[i], z[j]]) ** 2 for i in range(n) for j in range(n) if i != j
        )
        if best is None or obj < best:
            best = obj
    return best


def reference_label_sweep(A, z, Q):
    """The node-by-node sweep that the screened sweep must reproduce bit for bit."""
    n = A.shape[0]
    k = Q.shape[0]
    Z = np.zeros((n, k))
    Z[np.arange(n), z] = 1.0
    counts = Z.sum(axis=0)
    s = A @ Z  # s[i, b] = sum of A_ij over j with z_j = b (diag of A is 0)
    changed = False
    for i in range(n):
        cur = z[i]
        cex = counts.copy()
        cex[cur] -= 1.0  # exclude node i itself from its own block count
        # cost(a) = -2 <Q[a], s_i> + <Q[a]^2, counts-without-i>, doubled by
        # symmetry; constant terms dropped
        cost = -2.0 * Q @ s[i] + (Q**2) @ cex
        a = int(np.argmin(cost))
        if cost[a] < cost[cur] - 1e-12:
            z[i] = a
            counts[cur] -= 1.0
            counts[a] += 1.0
            s[:, cur] -= A[:, i]
            s[:, a] += A[:, i]
            changed = True
    return changed


@st.composite
def sweep_inputs(draw):
    """(A, z, Q, rho): labels may leave blocks empty; Q may repeat rows
    exactly, take tied grid values or be clipped at rho = 0.25."""
    n = draw(st.integers(1, 150))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.05, 0.5, 0.95]))
    A = random_graph(rng, n, p).values
    z = rng.integers(0, draw(st.integers(1, k)), size=n)
    rho = draw(st.sampled_from([1.0, 0.25]))
    kind = draw(st.sampled_from(["fit", "uniform", "grid", "duplicate"]))
    if kind == "fit":
        Q = estimate._block_means(*estimate._block_sums(A, z, k), z, rho)
    else:
        distinct = draw(st.integers(1, k)) if kind == "duplicate" else k
        if kind == "grid":
            B = rng.choice([0.0, 0.25, 0.5, 1.0], size=(distinct, distinct))
        else:
            B = rng.uniform(0, 1, (distinct, distinct))
        rows = rng.integers(0, distinct, size=k) if kind == "duplicate" else np.arange(k)
        B = np.triu(B) + np.triu(B, 1).T
        Q = np.clip(B[np.ix_(rows, rows)], 0.0, rho)
    return A, z, Q, rho


class TestSimpleEstimators:
    def test_identity(self):
        rng = np.random.default_rng(0)
        A = random_graph(rng, 10)
        assert estimate_adjacency(A) is A

    def test_mean_value(self):
        A = AdjacencyMatrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        est = estimate_mean(A)
        assert est.values[0, 1] == pytest.approx(4 / 6)
        assert np.all(np.diag(est.values) == 0)
        assert edge_density(A) == pytest.approx(4 / 6)

    def test_single_node(self):
        A = AdjacencyMatrix(np.zeros((1, 1)))
        assert edge_density(A) == 0.0
        assert estimate_mean(A).values.shape == (1, 1)


class TestSvt:
    def test_zero_threshold_roundtrip(self):
        rng = np.random.default_rng(1)
        A = random_graph(rng, 30)
        est = estimate_svt(A, threshold=0.0)
        assert np.abs(est.raw - A.values).max() < 1e-9
        assert est.kept == 30

    def test_huge_threshold_zeroes(self):
        rng = np.random.default_rng(2)
        A = random_graph(rng, 20)
        op = np.abs(np.linalg.eigvalsh(A.values)).max()
        est = estimate_svt(A, threshold=op * 1.01)
        assert est.kept == 0
        assert np.all(est.raw == 0)

    def test_threshold_formula(self):
        rng = np.random.default_rng(3)
        A = random_graph(rng, 25)
        est = estimate_svt(A)
        assert est.threshold == pytest.approx(2.1 * np.sqrt(25 * edge_density(A)))

    def test_prob_output_is_valid(self):
        rng = np.random.default_rng(4)
        A = random_graph(rng, 30)
        est = estimate_svt(A, threshold=0.0)
        P = est.prob.values
        assert P.min() >= 0 and P.max() <= 1
        assert np.all(np.diag(P) == 0)

    def test_beats_identity_on_block_model(self):
        spec = sbm_spec(2, 0.8, 0.2)
        _, theta, A = sample_graph(spec, 120, seed=7)
        est = estimate_svt(A)
        err_svt = np.linalg.norm(est.prob.values - theta.values)
        err_id = np.linalg.norm(A.values - theta.values)
        assert err_svt < err_id / 2


class TestRestrictedLs:
    def test_exact_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = random_graph(rng, 4)
            got = exact_restricted_ls(A, 2).objective
            assert got == pytest.approx(oracle_rls(A.values, 2, 1.0), abs=1e-10)

    def test_alternating_vs_exact(self):
        rng = np.random.default_rng(6)
        hits = 0
        for t in range(20):
            A = random_graph(rng, 5)
            ex = exact_restricted_ls(A, 2)
            am = estimate_restricted_ls(A, 2, restarts=16, seed=t)
            assert am.objective >= ex.objective - 1e-9
            hits += abs(am.objective - ex.objective) < 1e-9
        assert hits >= 18

    def test_exact_matches_oracle_below_rho_one(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = random_graph(rng, 4)
            got = exact_restricted_ls(A, 2, rho=0.25).objective
            assert got == pytest.approx(oracle_rls(A.values, 2, 0.25), abs=1e-10)

    def test_alternating_vs_exact_below_rho_one(self):
        rng = np.random.default_rng(6)
        hits = 0
        for t in range(20):
            A = random_graph(rng, 5)
            ex = exact_restricted_ls(A, 2, rho=0.25)
            assert ex.objective == pytest.approx(oracle_rls(A.values, 2, 0.25), abs=1e-10)
            am = estimate_restricted_ls(A, 2, rho=0.25, restarts=16, seed=t)
            assert am.objective >= ex.objective - 1e-9
            hits += abs(am.objective - ex.objective) < 1e-9
        assert hits >= 18

    def test_k1_closed_form(self):
        rng = np.random.default_rng(7)
        A = random_graph(rng, 15)
        fit = estimate_restricted_ls(A, 1)
        exact = exact_restricted_ls(A, 1)
        assert np.array_equal(fit.labels, exact.labels)
        assert np.array_equal(fit.block_values, exact.block_values)
        assert fit.objective == exact.objective
        assert fit.block_values[0, 0] == pytest.approx(edge_density(A), abs=1e-12)

    def test_rho_clips_block_values(self):
        rng = np.random.default_rng(8)
        A = random_graph(rng, 12, p=0.9)
        fit = estimate_restricted_ls(A, 2, rho=0.3, seed=0)
        assert fit.block_values.max() <= 0.3 + 1e-12

    def test_recovers_planted_blocks(self):
        spec = sbm_spec(2, 0.9, 0.1)
        lat, theta, A = sample_graph(spec, 60, seed=11)
        fit = estimate_restricted_ls(A, 2, restarts=8, seed=0)
        vals = np.sort(np.unique(np.round(fit.block_values, 1)))
        assert vals[0] <= 0.2 and vals[-1] >= 0.8

    def test_enumeration_budget(self):
        A = AdjacencyMatrix(np.zeros((25, 25)))
        with pytest.raises(BudgetError):
            exact_restricted_ls(A, 2)

    def test_validation(self):
        A = AdjacencyMatrix(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            estimate_restricted_ls(A, 0)
        with pytest.raises(ValidationError):
            estimate_restricted_ls(A, 2, rho=1.5)
        with pytest.raises(ValidationError):
            estimate_restricted_ls(A, 2, restarts=0)


class TestLabelSweep:
    @pytest.mark.parametrize("block", [None, 1, 7, "n+1"])
    @given(case=sweep_inputs())
    @settings(max_examples=60, deadline=None)
    def test_matches_node_by_node_sweep(self, block, case):
        A, z, Q, rho = case
        k = Q.shape[0]
        size = {None: estimate.SWEEP_BLOCK, "n+1": A.shape[0] + 1}.get(block, block)
        z_ref = z.copy()
        sT, counts = estimate._block_sums(A, z, k)
        with mock.patch.object(estimate, "SWEEP_BLOCK", size):
            # a few sweeps with block means in between, as the fit runs them
            for _ in range(3):
                moved_ref = reference_label_sweep(A, z_ref, Q)
                moved = estimate._label_sweep(A, z, Q, sT, counts)
                assert moved == moved_ref
                assert np.array_equal(z, z_ref)
                if not moved:
                    break
                Q = estimate._block_means(sT, counts, z, rho)

    @pytest.mark.parametrize(
        "n, k, p, rho", [(2048, 16, 0.5, 1.0), (2048, 2, 0.95, 1.0), (1024, 8, 0.3, 0.25),
                         (512, 5, 0.9, 1.0), (64, 16, 0.5, 1.0), (7, 3, 0.5, 0.25)]
    )
    def test_screen_error_is_far_inside_margin(self, n, k, p, rho):
        # every label's screened cost against the exact one, on whole sweeps'
        # worth of nodes; the margin is a proven bound, this is its headroom
        rng = np.random.default_rng(n + k)
        A = random_graph(rng, n, p).values
        z = rng.integers(0, k, size=n)
        Q = rng.uniform(0, rho, (k, k))
        Q = np.triu(Q) + np.triu(Q, 1).T
        Qm2, Q2 = -2.0 * Q, Q**2
        Z = np.zeros((n, k))
        Z[np.arange(n), z] = 1.0
        counts = Z.sum(axis=0)
        sT = Z.T @ A
        worst = 0.0
        for i in range(0, n, estimate.SWEEP_BLOCK):
            j = min(i + estimate.SWEEP_BLOCK, n)
            C = estimate._screen_costs(Qm2, Q2, sT, counts, z, i, j)
            for p_ in range(i, j):
                exact = estimate._node_cost(Qm2, Q2, sT, counts, p_, z[p_])
                worst = max(worst, float(np.abs(C[:, p_ - i] - exact).max()))
        assert worst <= estimate._sweep_margin(n, k) / 16

    @pytest.mark.parametrize(
        "k, rho, digest, objective",
        [
            (2, 1.0, "78225f1b7db95dd7ed366a8802fe8f385d0527940c6583527eac4fbddaaa6293",
             "65305.06643615011"),
            (8, 0.25, "aef6aeebe6843ba0c988f237f79909e0085a351afcdf96f5478d92def92f7e96",
             "27504.049876591285"),
        ],
        ids=["k2-rho1", "k8-rho0.25"],
    )
    def test_benchmark_size_fits_are_pinned(self, k, rho, digest, objective):
        # the risk harness's rls call at the benchmark's n = 512, many blocks
        # per sweep; recorded with the node-by-node sweep
        _, _, A = sample_graph(default_model(k, rho), 512, 0)
        fit = estimate_restricted_ls(A, k, rho=rho, restarts=4, seed=0)
        labels = np.asarray(fit.labels, dtype=np.int64)
        got = hashlib.sha256(labels.tobytes() + fit.block_values.tobytes()).hexdigest()
        assert got == digest
        assert repr(fit.objective) == objective


class TestLifting:
    def test_prob_matrix_roundtrip(self):
        rng = np.random.default_rng(9)
        A = random_graph(rng, 10)
        fit = estimate_restricted_ls(A, 2, seed=3)
        P = fit_to_prob_matrix(fit)
        i, j = 0, 1
        assert P.values[i, j] == fit.block_values[fit.labels[i], fit.labels[j]]


class TestUncheckedProducers:
    """The matrices the package builds enter their types without the
    constructors' checks or copy; each must be what the constructor it skips
    accepts and returns, bit for bit, and read-only."""

    @staticmethod
    def assert_as_constructed(got, want):
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert not got.flags.writeable

    def assert_graphon_as_constructed(self, W):
        ref = StepGraphon(W.values, W.weights)
        self.assert_as_constructed(W.values, ref.values)
        self.assert_as_constructed(W.weights, ref.weights)

    @given(
        st.integers(1, 12),
        st.integers(1, 4),
        st.sampled_from([0.05, 0.5, 1.0, 1.0 + 5e-13, 1.7]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @example(n=6, k=1, rho=1.0 + 5e-13, clip=False, top=True, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_each_passes_the_constructor_it_skips(self, n, k, rho, clip, top, seed):
        # `top` puts 1.0 in W, so that at rho = 1 + 5e-13 theta has entries
        # just above 1 that sampling accepts without `clip` and that the
        # constructor would clip to 1; rho = 1.7 always samples with `clip`
        rng = np.random.default_rng(seed)
        V = rng.choice([0.0, 0.25, 0.5, 1.0], (k, k)) if seed % 2 else rng.uniform(0, 1, (k, k))
        Q = (V + V.T) / 2
        if top:
            Q[0, 0] = 1.0
        spec = ModelSpec(StepGraphon(Q, np.full(k, 1.0 / k)), rho)
        clip = clip or spec.max_scaled_value > 1.0 + 1e-12
        _, theta, A = sample_graph(spec, n, seed, clip=clip)
        self.assert_as_constructed(A.values, AdjacencyMatrix(A.values).values)
        self.assert_graphon_as_constructed(empirical_graphon(A))
        fit = estimate_restricted_ls(A, min(k, n), rho=min(rho, 1.0), restarts=2, seed=seed)
        for P in (theta, estimate_adjacency(A), estimate_mean(A), estimate_svt(A).prob,
                  estimate_svt(A, threshold=0.0).prob, fit_to_prob_matrix(fit)):
            self.assert_as_constructed(P.values, ProbMatrix(P.values).values)
            self.assert_graphon_as_constructed(empirical_graphon(P))

    @pytest.mark.parametrize("k1, mk", [(1, 1), (3, 8), (32, 533)])
    def test_graphon_packing_values(self, k1, mk):
        block = np.where(np.random.default_rng(mk).random((k1, mk)) < 0.5, -1.0, 1.0)
        self.assert_graphon_as_constructed(packing._graphon_base(block))

    @pytest.mark.parametrize("n, rho", [(8, 1.0), (16, 0.3), (32, 0.8)])
    def test_matrix_packing_elements(self, n, rho):
        for P in packing.matrix_packing(n, rho, seed=n).elements:
            self.assert_as_constructed(P.values, ProbMatrix(P.values).values)

    def test_inputs_it_did_not_make_meet_the_constructors(self):
        # a graphon symmetric only within tolerance, a fit and an observation
        # that the package did not make are checked, and mended, as the
        # public constructors check and mend them
        z = np.array([0, 1, 0])
        W = StepGraphon([[0.3, 0.3], [0.3 + 8e-10, 0.3]], [0.5, 0.5])
        theta = theta_from_labels(ModelSpec(W, 1.0), z).values
        assert np.array_equal(theta, theta.T) and theta[0, 1] == W.values[0, 1]
        theta = theta_from_labels(ModelSpec(W, 1.7), z, clip=True).values
        assert np.array_equal(theta, theta.T)         # 1.7 * 8e-10 would exceed 1e-9
        assert theta[0, 1] == 1.7 * W.values[0, 1]
        A = AdjacencyMatrix(np.array([[-0.0, 1.0], [1.0, -0.0]]))
        assert not np.signbit(estimate_adjacency(A).values.diagonal()).any()
        with pytest.raises(ValidationError):
            fit_to_prob_matrix(estimate.BlockFit(z, np.array([[0.5, 2.0], [2.0, 0.5]]), 0.0))
