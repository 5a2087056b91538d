"""Tests for latent sampling, probability matrices, and edge draws."""

import numpy as np
import pytest

from cutgraphon import core
from cutgraphon.core import ProbMatrix, StepGraphon
from cutgraphon.errors import BudgetError, ValidationError
from cutgraphon.sampling import (
    ModelSpec,
    sample_adjacency,
    sample_graph,
    sample_latents,
    sample_theta,
    sbm_spec,
    step_labels,
    theta_from_labels,
)


class TestSpecs:
    def test_sbm_structure(self):
        spec = sbm_spec(3, 0.9, 0.1, rho=0.5)
        Q = spec.graphon.values
        assert np.all(np.diag(Q) == 0.9)
        off = Q[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.1)
        assert np.allclose(spec.graphon.weights, 1 / 3)
        assert spec.max_scaled_value == pytest.approx(0.45)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sbm_spec(0, 0.5, 0.5)
        with pytest.raises(ValidationError):
            sbm_spec(2, 1.5, 0.5)
        with pytest.raises(ValidationError):
            ModelSpec(StepGraphon(np.array([[0.5]]), np.array([1.0])), rho=0.0)


class TestLatentsAndLabels:
    def test_latents_range_and_determinism(self):
        lat = sample_latents(100, seed=4)
        assert lat.positions.shape == (100,)
        assert lat.positions.min() >= 0 and lat.positions.max() < 1
        again = sample_latents(100, seed=4)
        assert np.array_equal(lat.positions, again.positions)
        other = sample_latents(100, seed=5)
        assert not np.array_equal(lat.positions, other.positions)

    def test_labels_half_open_intervals(self):
        W = StepGraphon(np.array([[0.2, 0.8], [0.8, 0.3]]), np.array([0.25, 0.75]))
        x = np.array([0.0, 0.1, 0.25, 0.3, 0.999])
        # the boundary point 0.25 belongs to the second step
        assert np.array_equal(step_labels(W, x), [0, 0, 1, 1, 1])

    def test_labels_reject_out_of_range(self):
        W = StepGraphon(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            step_labels(W, np.array([1.0]))
        with pytest.raises(ValidationError):
            step_labels(W, np.array([-0.1]))

    def test_label_frequencies_follow_weights(self):
        W = StepGraphon(np.array([[0.2, 0.8], [0.8, 0.3]]), np.array([0.25, 0.75]))
        lat = sample_latents(20000, seed=0)
        z = step_labels(W, lat.positions)
        frac = (z == 0).mean()
        assert abs(frac - 0.25) < 4 * np.sqrt(0.25 * 0.75 / 20000)


class TestTheta:
    def test_values_and_diagonal(self):
        spec = sbm_spec(2, 0.8, 0.2, rho=0.5)
        theta = theta_from_labels(spec, np.array([0, 1, 0]))
        T = theta.values
        assert T[0, 0] == 0 and T[1, 1] == 0 and T[2, 2] == 0
        assert T[0, 2] == pytest.approx(0.4)
        assert T[0, 1] == pytest.approx(0.1)

    def test_scale_overflow_requires_clip(self):
        spec = ModelSpec(StepGraphon(np.array([[0.9]]), np.array([1.0])), rho=1.5)
        lat = sample_latents(5, seed=1)
        with pytest.raises(ValidationError):
            sample_theta(spec, lat)
        theta = sample_theta(spec, lat, clip=True)
        assert theta.values.max() == 1.0

    def test_labels_out_of_range(self):
        spec = sbm_spec(2, 0.8, 0.2)
        with pytest.raises(ValidationError):
            theta_from_labels(spec, np.array([0, 2]))

    def test_over_dense_budget_raises(self, monkeypatch):
        spec = sbm_spec(2, 0.8, 0.2)
        monkeypatch.setattr(core, "DENSE_BUDGET", 25)
        assert sample_graph(spec, 5)[1].n == 5
        with pytest.raises(BudgetError):
            sample_graph(spec, 6)


class TestAdjacency:
    def test_determinism_and_symmetry(self):
        spec = sbm_spec(2, 0.7, 0.2)
        _, theta, A = sample_graph(spec, 50, seed=9)
        B = sample_adjacency(theta, seed=9)
        assert np.array_equal(A.values, B.values)
        assert np.array_equal(A.values, A.values.T)
        assert np.all(np.diag(A.values) == 0)
        C = sample_adjacency(theta, seed=10)
        assert not np.array_equal(A.values, C.values)

    def test_edge_frequency_matches_probability(self):
        p = 0.3
        n = 200
        T = np.full((n, n), p)
        np.fill_diagonal(T, 0.0)
        A = sample_adjacency(ProbMatrix(T), seed=2)
        pairs = n * (n - 1) / 2
        freq = A.values.sum() / (2 * pairs)
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / pairs)

    def test_extreme_probabilities(self):
        n = 20
        ones = np.ones((n, n)) - np.eye(n)
        A = sample_adjacency(ProbMatrix(ones), seed=0)
        assert A.values.sum() == n * (n - 1)
        B = sample_adjacency(ProbMatrix(np.zeros((n, n))), seed=0)
        assert B.values.sum() == 0
