"""Tests for the weak regularity decomposition."""

import numpy as np
import pytest

from cutgraphon.core import StepGraphon
from cutgraphon.cutnorm import step_kernel_cut_norm_exact
from cutgraphon.errors import BudgetError, ValidationError
from cutgraphon.regularity import reconstruct_from_terms, weak_regularity_approx


def random_graphon(rng, k, equal=False):
    V = rng.random((k, k))
    V = (V + V.T) / 2
    if equal:
        w = np.full(k, 1.0 / k)
    else:
        w = rng.random(k) + 0.2
        w = w / w.sum()
    return StepGraphon(V, w)


class TestValidationAndBudget:
    def test_q0_too_small(self):
        W = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            weak_regularity_approx(W, 1)

    def test_step_count_beyond_exact_solver(self):
        rng = np.random.default_rng(0)
        W = random_graphon(rng, 25)
        with pytest.raises(BudgetError):
            weak_regularity_approx(W, 4)

    def test_iteration_budget_arithmetic(self):
        rng = np.random.default_rng(1)
        W = random_graphon(rng, 3)
        for q0, k0 in [(2, 1), (4, 2), (16, 4), (1000, 9)]:
            _, dec = weak_regularity_approx(W, q0)
            assert dec.max_terms == k0
            assert dec.target == pytest.approx(1.0 / np.sqrt(k0))
            assert len(dec.terms) <= k0

    def test_round_count_is_exact_at_large_q0(self):
        # a float log2 rounds 2**60 - 1 up to 60 and rejects ints from 2**64
        W = StepGraphon(np.full((2, 2), 0.9), np.full(2, 0.5))
        for q0, k0 in [(2**60 - 1, 59), (2**60, 60), (2**64, 64), (2**70 + 5, 70), (3.5, 1)]:
            assert weak_regularity_approx(W, q0)[1].max_terms == k0


class TestSmallCases:
    def test_constant_recovered_in_one_term(self):
        W = StepGraphon(np.full((3, 3), 0.9), np.array([0.2, 0.3, 0.5]))
        approx, dec = weak_regularity_approx(W, 4)
        assert len(dec.terms) == 1
        t = dec.terms[0]
        assert t.coefficient == pytest.approx(0.9)
        assert set(t.rows) == {0, 1, 2} and set(t.cols) == {0, 1, 2}
        assert dec.final_cut <= 1e-12
        np.testing.assert_allclose(approx.values, 0.9, atol=1e-12)

    def test_q0_2_certifies_error_at_most_one(self):
        rng = np.random.default_rng(2)
        W = random_graphon(rng, 5)
        _, dec = weak_regularity_approx(W, 2)
        assert dec.max_terms == 1
        assert dec.final_cut <= 1.0 + 1e-12

    def test_already_flat_input_stops_with_no_terms(self):
        V = 0.5 + 0.001 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        W = StepGraphon(V, np.array([0.5, 0.5]))
        approx, dec = weak_regularity_approx(W, 16)
        assert dec.terms == ()
        assert dec.stopped_early
        np.testing.assert_allclose(approx.values, 0.0, atol=1e-15)
        first = step_kernel_cut_norm_exact(dec.residual).value
        assert dec.final_cut == pytest.approx(first, abs=1e-12)


class TestCertificates:
    @pytest.mark.parametrize("q0", [4, 16])
    def test_residual_bound_random_graphons(self, q0):
        rng = np.random.default_rng(3)
        for trial in range(25):
            W = random_graphon(rng, 8, equal=bool(trial % 2))
            _, dec = weak_regularity_approx(W, q0)
            # certificate re-checked through the exact solver, not the
            # value recorded by the loop
            res = step_kernel_cut_norm_exact(dec.residual)
            assert res.value <= dec.target + 1e-12
            assert dec.final_cut == pytest.approx(res.value, abs=1e-12)

    def test_energy_decrement_per_iteration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            W = random_graphon(rng, 8)
            _, dec = weak_regularity_approx(W, 16)
            for t in dec.terms:
                drop = t.energy_before - t.energy_after
                assert drop >= t.residual_cut**2 - 1e-12

    def test_energies_chain_and_kernels_are_frozen(self):
        # 0/1 values and a target of 1/sqrt(62): one of these needs 3 rounds
        rng = np.random.default_rng(7)
        rounds = 0
        for _ in range(8):
            V = rng.choice([0.0, 1.0], (10, 10))
            w = rng.random(10) + 0.2
            W = StepGraphon(np.triu(V) + np.triu(V, 1).T, w / w.sum())
            w = W.weights
            approx, dec = weak_regularity_approx(W, 2**62)
            if dec.terms:
                assert dec.terms[0].energy_before == pytest.approx(w @ W.values**2 @ w, rel=1e-12)
                assert dec.terms[-1].energy_after == pytest.approx(
                    w @ dec.residual.values**2 @ w, rel=1e-12)
            for t, nxt in zip(dec.terms, dec.terms[1:]):
                assert nxt.energy_before == t.energy_after
            rounds = max(rounds, len(dec.terms))
            for K in (approx, dec.residual):
                assert not any(a.flags.writeable for a in (K.values, K.row_weights, K.col_weights))
            assert not np.shares_memory(dec.residual.values, W.values)
        assert rounds >= 3

    def test_high_contrast_needs_terms(self):
        # mean 0.75 exceeds the q0=16 target 0.5, forcing at least one round
        V = np.kron(np.array([[1.0, 1.0], [1.0, 0.0]]), np.ones((4, 4)))
        W = StepGraphon(V, np.full(8, 0.125))
        _, dec = weak_regularity_approx(W, 16)
        assert len(dec.terms) >= 1
        assert dec.final_cut <= dec.target + 1e-12


class TestReconstruction:
    def test_terms_rebuild_approx_and_split_input(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = random_graphon(rng, 6)
            approx, dec = weak_regularity_approx(W, 16)
            np.testing.assert_allclose(
                approx.values + dec.residual.values, W.values, atol=1e-9)
            np.testing.assert_allclose(
                reconstruct_from_terms(dec), approx.values, atol=1e-9)

    def test_approx_has_few_distinct_values(self):
        rng = np.random.default_rng(6)
        W = random_graphon(rng, 8)
        approx, dec = weak_regularity_approx(W, 16)
        distinct = np.unique(np.round(approx.values, 9))
        assert distinct.size <= 2 ** len(dec.terms)
