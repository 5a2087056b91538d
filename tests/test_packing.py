"""Tests for the packing families and their certificates."""

import hashlib

import numpy as np
import pytest

from cutgraphon import distance, packing
from cutgraphon._rng import stream
from cutgraphon.core import blowup
from cutgraphon.distance import DEFAULT_MOTIFS, delta_cut_lower, delta_exact_tiny
from cutgraphon.errors import BudgetError, ValidationError
from cutgraphon.packing import (
    PackingFamily,
    graphon_packing,
    kl_bound,
    latent_kl_exact,
    load_packing_family,
    matrix_packing,
    rademacher_block_matrix,
    save_packing_family,
    spot_check_property_ii,
    varshamov_gilbert_code,
)


class TestVgCode:
    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValidationError):
            varshamov_gilbert_code(7)
        with pytest.raises(ValidationError):
            varshamov_gilbert_code(6)

    def test_balance_and_separation_certified(self):
        code = varshamov_gilbert_code(16, seed=3)
        assert code.size >= 3                      # ceil(e) target
        for v in code.vectors:
            assert v.sum() == 0
        dists = [int(np.sum(code.vectors[i] != code.vectors[j]))
                 for i in range(code.size) for j in range(i + 1, code.size)]
        assert min(dists) > 4
        assert code.separation == min(dists)

    def test_minimum_size_instance(self):
        code = varshamov_gilbert_code(8, seed=0)
        assert code.size >= 2
        assert code.separation > 2

    def test_two_sided_window(self):
        code = varshamov_gilbert_code(32, seed=1, two_sided=True)
        assert code.size == 8                      # ceil(e^2) target
        for i in range(code.size):
            for j in range(i + 1, code.size):
                d = int(np.sum(code.vectors[i] != code.vectors[j]))
                assert 8 < d < 24

    def test_budget_reports_partial_code(self, monkeypatch):
        # k1=16 aims at ceil(e) = 3 vectors; with one draw per target vector
        # the code reaches it only if no draw is rejected, and seed 4 has one
        monkeypatch.setattr(packing, "VG_DRAWS_PER_TARGET", 1)
        code = varshamov_gilbert_code(16, seed=4, two_sided=True)
        assert not code.reached
        assert 1 <= code.size < code.target == 3

    def test_code_pinned(self):
        # recorded before the pairwise loop became one comparison per draw
        code = varshamov_gilbert_code(96, seed=0, two_sided=True)
        digest = hashlib.sha256(np.ascontiguousarray(code.vectors, dtype=np.int64).tobytes())
        assert digest.hexdigest() == (
            "bd1377fcda1b7c2eb3d47805c496ef934926399a203413f6f752ba140f445321")
        assert (code.size, code.separation, code.reached) == (404, 28, True)

    def test_target_budget(self, monkeypatch):
        # k1=32 aims at ceil(e^2) = 8 vectors
        monkeypatch.setattr(packing, "VG_TARGET_BUDGET", 7)
        with pytest.raises(BudgetError):
            varshamov_gilbert_code(32)
        monkeypatch.setattr(packing, "VG_TARGET_BUDGET", 8)
        assert varshamov_gilbert_code(32).size == 8

    def test_default_budget_admits_n128_only(self):
        assert np.ceil(np.exp(128 / 16)) <= packing.VG_TARGET_BUDGET
        with pytest.raises(BudgetError):
            varshamov_gilbert_code(144)


class TestRademacherBlock:
    def test_property_i_recertified_independently(self, monkeypatch):
        monkeypatch.setattr(packing, "PROPERTY_II_SAMPLES", 0)
        blk = rademacher_block_matrix(16, 444, seed=0)
        assert blk.property_ii_total == 0
        assert blk.tries <= 10                     # succeeds fast w.h.p.
        B = blk.values
        for a in range(16):
            for b in range(a + 1, 16):
                assert abs(np.dot(B[a], B[b])) <= 444 / 4
        assert np.all(np.abs(B) == 1)
        assert np.max(np.abs(B.sum(axis=1))) <= 444

    def test_spot_check_passes_on_certified_matrix(self, monkeypatch):
        monkeypatch.setattr(packing, "PROPERTY_II_SAMPLES", 25)
        blk = rademacher_block_matrix(32, 128, seed=1)
        assert blk.property_ii_passed == blk.property_ii_total == 25
        passed, total = spot_check_property_ii(blk.values, 10, seed=7)
        assert (passed, total) == (10, 10)

    def test_try_budget(self, monkeypatch):
        monkeypatch.setattr(packing, "PROPERTY_II_SAMPLES", 0)
        assert rademacher_block_matrix(8, 32, seed=0).tries == 13
        monkeypatch.setattr(packing, "BLOCK_TRIES", 12)
        with pytest.raises(BudgetError):
            rademacher_block_matrix(8, 32, seed=0)

    def test_validation(self, monkeypatch):
        with pytest.raises(ValidationError):
            rademacher_block_matrix(4, 7)
        with pytest.raises(ValidationError):
            rademacher_block_matrix(0, 16)
        # k1 = 1 leaves no room for the spot check's two disjoint row sets:
        # rejected with the spot check's own message, before any draw
        message = "k1=1 too small for disjoint row sets of size 1"
        with pytest.raises(ValidationError, match=message):
            spot_check_property_ii(np.ones((1, 16)), 1)
        monkeypatch.setattr(packing, "stream", lambda *a: pytest.fail("drew a sign matrix"))
        with pytest.raises(ValidationError, match=message):
            rademacher_block_matrix(1, 16)
        with pytest.raises(ValidationError):
            rademacher_block_matrix(-3, 16)
        assert packing._row_set_size(2) == 1


def _per_column_deviation(B, X, Y, Z, rng):
    """The spot check's statistic with omega drawn column by column."""
    mk = B.shape[1]
    omega = rng.multinomial(8 * mk, np.full(mk, 1.0 / mk), size=len(Z)) / (8.0 * mk)
    return np.abs(B[X][:, Z] - B[Y] @ omega.T).sum()


class TestPropertyIiDraw:
    def test_class_reduction_is_exact(self):
        # B[Y] @ C.T only sees C through its sums over classes of identical
        # columns of B[Y]; the entries are small integers, so equality is exact
        rng = np.random.default_rng(11)
        for s, mk in ((1, 9), (2, 533), (3, 64), (6, 40), (8, 16)):
            BY = np.where(rng.random((s, mk)) < 0.5, -1.0, 1.0)
            C = rng.integers(0, 60, size=(23, mk))
            signs, inverse, sizes = np.unique(BY, axis=1, return_inverse=True,
                                              return_counts=True)
            assert signs.shape[1] <= min(2**s, mk)
            assert np.array_equal(signs[:, inverse], BY)
            assert np.array_equal(sizes, np.bincount(inverse))
            pooled = C @ (inverse[:, None] == np.arange(signs.shape[1]))
            assert pooled.sum() == C.sum()
            assert np.array_equal(BY @ C.T, signs @ pooled.T)

    def test_same_law_as_per_column_draw(self):
        # X, Y, Z fixed: T/thr from the class draw and from the per-column
        # draw agree in mean (within 4 standard errors) and spread
        B = np.where(np.random.default_rng(3).random((32, 128)) < 0.5, -1.0, 1.0)
        s = packing._row_set_size(32)
        zlen = int(np.ceil(packing.ETA1 * 128))
        thr = s * zlen / 4.0
        pick = np.random.default_rng(4)
        perm = pick.permutation(32)
        X, Y, Z = perm[:s], perm[s:2 * s], pick.permutation(128)[:zlen]
        n = 400
        old_rng, new_rng = np.random.default_rng(5), np.random.default_rng(6)
        old = np.array([_per_column_deviation(B, X, Y, Z, old_rng) for _ in range(n)]) / thr
        new = np.array([packing._mixing_deviation(B, X, Y, Z, new_rng)
                        for _ in range(n)]) / thr
        se = np.sqrt((old.var(ddof=1) + new.var(ddof=1)) / n)
        assert abs(old.mean() - new.mean()) < 4 * se
        assert 0.8 < new.std(ddof=1) / old.std(ddof=1) < 1.25
        assert old.min() > 1 and new.min() > 1


class TestMatrixPacking:
    def test_family_certificates(self):
        fam = matrix_packing(32, 0.8, seed=0)
        assert fam.kind == "matrix"
        assert fam.size >= 3
        assert fam.fano_ready
        assert fam.kl_budget <= np.log(fam.size) / 32 + 1e-12
        assert fam.kl_budget == pytest.approx(
            16 * 32**2 * fam.epsilon**2 / (3 * 0.8))

    def test_elements_are_two_valued(self):
        fam = matrix_packing(16, 1.0, seed=1)
        for el in fam.elements:
            V = el.values
            assert np.allclose(V, V.T)
            assert np.all(np.diag(V) == 0)
            off = V[~np.eye(16, dtype=bool)]
            vals = np.unique(np.round(off, 12))
            assert vals.size == 2
            np.testing.assert_allclose(
                sorted(vals), [0.5 - fam.epsilon, 0.5 + fam.epsilon], atol=1e-12)

    def test_pairwise_cut_meets_proved_bound(self):
        fam = matrix_packing(64, 1.0, seed=0)
        assert fam.meta["checked_cut_min"] >= fam.separation_lower
        assert fam.separation_lower == pytest.approx(fam.epsilon / 14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            matrix_packing(15, 1.0)
        with pytest.raises(ValidationError):
            matrix_packing(6, 1.0)
        with pytest.raises(ValidationError):
            matrix_packing(16, 0.0)


class TestKlFormulas:
    def test_closed_form_value(self):
        u = 0.01 * np.array([1, -1, 1, -1, 1, -1, 1, -1])
        assert kl_bound(u, -u, 100, 0.01, 8) == pytest.approx(6.826666666, abs=1e-6)
        assert kl_bound(0 * u, 0 * u, 100, 0.0, 8) == 0.0

    def test_hypothesis_guard(self):
        u = np.full(4, 0.05)
        with pytest.raises(ValidationError):
            kl_bound(u, u, 10, 0.05, 4)            # 0.05 > 1/(8*4)
        with pytest.raises(ValidationError):
            kl_bound(np.array([0.01, 0.02]), np.array([0.01, 0.02]), 10, 0.01, 2)

    def test_latent_kl_identities(self):
        u = 0.001 * np.array([1, -1, -1, 1])
        assert latent_kl_exact(u, u, 4, 16, 50) == 0.0
        # oracle: full label distribution including the heavy steps
        v = 0.001 * np.array([-1, 1, -1, 1])
        pu = np.concatenate([1 / 8 + u, np.full(16, 1 / 32)])
        pv = np.concatenate([1 / 8 + v, np.full(16, 1 / 32)])
        full = 50 * np.sum(pu * np.log(pu / pv))
        assert latent_kl_exact(u, v, 4, 16, 50) == pytest.approx(full, abs=1e-15)

    def test_bound_dominates_exact(self):
        rng = np.random.default_rng(0)
        base = lambda k1: np.array([1.0] * (k1 // 2) + [-1.0] * (k1 // 2))
        for _ in range(20):
            k1 = int(rng.integers(2, 9)) * 2
            eps = float(rng.uniform(0, 1 / (8 * k1)))
            u = eps * rng.permutation(base(k1))
            v = eps * rng.permutation(base(k1))
            n = int(rng.integers(10, 200))
            assert latent_kl_exact(u, v, k1, 32, n) <= kl_bound(u, v, n, eps, k1) + 1e-12

    def test_unbalanced_perturbation_rejected(self):
        with pytest.raises(ValidationError):
            latent_kl_exact(np.full(4, 0.001), np.full(4, 0.001), 4, 16, 50)


class TestGraphonPacking:
    def test_two_step_special_case(self):
        fam = graphon_packing(2, 100)
        assert fam.size == 2
        assert not fam.fano_ready
        assert fam.separation_lower == pytest.approx(0.25, abs=1e-9)
        assert fam.meta["c_prime"] == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(fam.elements[0].weights, [5 / 8, 3 / 8])
        np.testing.assert_allclose(fam.elements[1].weights, [3 / 8, 5 / 8])
        np.testing.assert_allclose(fam.elements[0].values, [[1, 1], [1, 0]])

    def test_two_step_separation_is_pinned(self):
        # m = 8 with steps of 5 and 3 slots: 56 distinct arrangements of the
        # 40320 permutations; the first optimum in lexicographic order wins
        fam = graphon_packing(2, 256)
        assert repr(fam.separation_lower) == "0.25"
        est = delta_exact_tiny(fam.elements[0], fam.elements[1], "cut")
        assert est.permutation.tolist() == list(range(8))
        assert len(distance._arrangements(blowup(fam.elements[1], 8).values)) == 56

    def test_full_construction_bookkeeping(self, monkeypatch):
        monkeypatch.setattr(packing, "PROPERTY_II_SAMPLES", 5)
        monkeypatch.setattr(packing, "GRAPHON_PAIRS_TO_CHECK", 3)
        fam = graphon_packing(64, 64, seed=0)
        assert fam.meta["checked_pairs"] == 3
        assert fam.meta["property_ii_total"] == 5
        k1, mk = fam.meta["k1"], fam.meta["mk"]
        assert (k1, mk) == (32, int(np.ceil(128 * np.log(64))))
        assert fam.epsilon == pytest.approx(np.sqrt(3 / (4096 * 64 * 32)))
        for W in fam.elements:
            assert W.k == k1 + mk
            np.testing.assert_allclose(W.weights.sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(W.weights[k1:], 1 / (2 * mk), atol=1e-15)
            light = np.unique(np.round(np.abs(W.weights[:k1] - 1 / (2 * k1)), 15))
            np.testing.assert_allclose(light, fam.epsilon, atol=1e-12)
            # values: 1/2 off the cross block, {0,1} on it
            assert np.all(W.values[:k1, :k1] == 0.5)
            assert np.all(W.values[k1:, k1:] == 0.5)
            assert set(np.unique(W.values[:k1, k1:])) <= {0.0, 1.0}

    def test_kl_budget_and_separation(self, monkeypatch):
        monkeypatch.setattr(packing, "PROPERTY_II_SAMPLES", 0)
        monkeypatch.setattr(packing, "GRAPHON_PAIRS_TO_CHECK", 4)
        density = distance.homomorphism_density
        calls = []
        monkeypatch.setattr(distance, "homomorphism_density",
                            lambda f, W: calls.append(id(W)) or density(f, W))
        fam = graphon_packing(64, 64, seed=1)
        monkeypatch.undo()
        assert fam.kl_budget == pytest.approx(32 / 128)    # k1/128
        assert not fam.fano_ready                          # short of log(M)/32
        assert fam.separation_lower > 0
        # the certificate is the minimum of delta_cut_lower over the pairs
        # drawn from the same stream, bit for bit
        pairs = [(i, j) for i in range(fam.size) for j in range(i + 1, fam.size)]
        idx = stream(1, "graphon-pack-check").choice(len(pairs), size=4, replace=False)
        checked = [pairs[t] for t in idx]
        assert fam.separation_lower == min(
            delta_cut_lower(fam.elements[i], fam.elements[j]).value for i, j in checked)
        # motif densities are taken once per element of the checked pairs
        members = {id(fam.elements[e]) for pair in checked for e in pair}
        assert len(calls) == len(DEFAULT_MOTIFS) * len(members)
        assert set(calls) == members
        same = delta_cut_lower(fam.elements[0], fam.elements[0])
        assert same.value == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            graphon_packing(48, 100)
        with pytest.raises(ValidationError):
            graphon_packing(32, 100)
        with pytest.raises(ValidationError):
            graphon_packing(96, 64)
        with pytest.raises(ValidationError):
            graphon_packing(64, 64, rho=1.5)


class TestSerialization:
    def test_matrix_roundtrip(self, tmp_path):
        fam = matrix_packing(16, 0.5, seed=2)
        save_packing_family(fam, tmp_path / "fam")
        back = load_packing_family(tmp_path / "fam")
        assert back.kind == "matrix"
        assert back.size == fam.size
        assert back.epsilon == fam.epsilon
        assert back.kl_budget == fam.kl_budget
        assert back.separation_lower == fam.separation_lower
        assert back.fano_ready == fam.fano_ready
        for a, b in zip(back.elements, fam.elements):
            np.testing.assert_array_equal(a.values, b.values)

    def test_graphon_roundtrip(self, tmp_path):
        fam = graphon_packing(2, 64)
        save_packing_family(fam, tmp_path / "fam")
        back = load_packing_family(tmp_path / "fam")
        assert back.kind == "graphon"
        for a, b in zip(back.elements, fam.elements):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_sidecar_keys_verbatim(self, tmp_path):
        fam = graphon_packing(2, 64)
        save_packing_family(fam, tmp_path / "fam")
        text = (tmp_path / "fam" / "metadata.txt").read_text()
        for key in ("epsilon=", "klBudget=", "separationLower=", "fanoReady="):
            assert key in text

    def test_missing_metadata_key(self, tmp_path):
        fam = graphon_packing(2, 64)
        save_packing_family(fam, tmp_path / "fam")
        meta = tmp_path / "fam" / "metadata.txt"
        lines = [l for l in meta.read_text().splitlines() if not l.startswith("epsilon")]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            load_packing_family(tmp_path / "fam")


class TestFamilyInvariant:
    def test_fano_flag_guard(self):
        fam = matrix_packing(16, 1.0, seed=0)
        with pytest.raises(ValidationError):
            PackingFamily("matrix", fam.elements[:2], fam.epsilon, 0.0,
                          fam.kl_budget, 16, 2, True)
        with pytest.raises(ValidationError):
            PackingFamily("matrix", fam.elements, fam.epsilon, 0.0,
                          10.0, 16, 2, True)
        with pytest.raises(ValidationError):
            PackingFamily("blob", fam.elements, fam.epsilon, 0.0,
                          fam.kl_budget, 16, 2, False)
