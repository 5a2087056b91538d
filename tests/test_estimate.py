"""Tests for the probability-matrix estimators."""

import itertools

import numpy as np
import pytest

from cutgraphon.core import AdjacencyMatrix
from cutgraphon.errors import BudgetError, ValidationError
from cutgraphon.estimate import (
    SvtConfig,
    edge_density,
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    exact_restricted_ls,
    fit_to_prob_matrix,
)
from cutgraphon.sampling import sample_graph, sbm_spec


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


class TestSimpleEstimators:
    def test_identity(self):
        rng = np.random.default_rng(0)
        A = random_graph(rng, 10)
        assert np.array_equal(estimate_adjacency(A).values, A.values)

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
        est = estimate_svt(A, SvtConfig(threshold=0.0))
        assert np.abs(est.raw - A.values).max() < 1e-9
        assert est.kept == 30

    def test_huge_threshold_zeroes(self):
        rng = np.random.default_rng(2)
        A = random_graph(rng, 20)
        op = np.abs(np.linalg.eigvalsh(A.values)).max()
        est = estimate_svt(A, SvtConfig(threshold=op * 1.01))
        assert est.kept == 0
        assert np.all(est.raw == 0)

    def test_threshold_formula(self):
        rng = np.random.default_rng(3)
        A = random_graph(rng, 25)
        est = estimate_svt(A, SvtConfig(c=2.1))
        assert est.threshold == pytest.approx(2.1 * np.sqrt(25 * edge_density(A)))
        forced = estimate_svt(A, SvtConfig(c=1.0, rho_hat=0.04))
        assert forced.threshold == pytest.approx(1.0)

    def test_prob_output_is_valid(self):
        rng = np.random.default_rng(4)
        A = random_graph(rng, 30)
        est = estimate_svt(A, SvtConfig(threshold=0.0))
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

    def test_validation(self):
        A = AdjacencyMatrix(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            estimate_svt(A, SvtConfig(c=-1.0))
        with pytest.raises(ValidationError):
            estimate_svt(A, SvtConfig(rho_hat=-0.5))


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


class TestLifting:
    def test_prob_matrix_roundtrip(self):
        rng = np.random.default_rng(9)
        A = random_graph(rng, 10)
        fit = estimate_restricted_ls(A, 2, seed=3)
        P = fit_to_prob_matrix(fit)
        i, j = 0, 1
        assert P.values[i, j] == fit.block_values[fit.labels[i], fit.labels[j]]
