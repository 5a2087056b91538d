#!/usr/bin/env python3
"""
Well-separated families with KL budgets: the ingredients of a minimax
lower bound, built and certified numerically.
"""

import numpy as np

from cutgraphon import (
    graphon_packing,
    kl_bound,
    latent_kl_exact,
    matrix_cut_norm_heuristic,
    matrix_packing,
)


def main():
    print("=" * 68)
    print("1. Matrix family: two-valued probability matrices from a code")
    print("=" * 68)
    fam = matrix_packing(n=64, rho=1.0)
    M = len(fam.elements)
    print(f"elements: {M}  (code separation window forced {fam.meta['code_separation']}"
          f" < Hamming distance < n - that)")
    print(f"epsilon: {fam.epsilon:.5f}  (entries rho/2 +- epsilon)")
    print(f"kl budget: {fam.kl_budget:.4f} vs log(M)/32 = {np.log(M) / 32:.4f} "
          f"-> fano_ready: {fam.fano_ready}")
    rng = np.random.default_rng(5)
    cuts = []
    for _ in range(10):
        i, j = rng.choice(M, 2, replace=False)
        D = fam.elements[i].values - fam.elements[j].values
        cuts.append(matrix_cut_norm_heuristic(D, restarts=8).value)
    print(f"pairwise cut norms on 10 sampled pairs: min {min(cuts):.5f}, "
          f"certified floor epsilon/14 = {fam.epsilon / 14:.5f}")
    print()
    print("Every element is a genuine 2-block model; the family is near the")
    print("largest KL budget Fano tolerates, yet every pair stays cut-separated.")
    print()

    print("=" * 68)
    print("2. Graphon family: weight perturbations over a sign-block kernel")
    print("=" * 68)
    gfam = graphon_packing(k=64, n=4096)
    k1, mk = gfam.meta["k1"], gfam.meta["mk"]
    print(f"elements: {len(gfam.elements)}  ({k1} light + {mk} heavy steps each)")
    print(f"epsilon: {gfam.epsilon:.2e}  (light weights 1/(2*k1) +- epsilon)")
    print(f"kl budget: {gfam.kl_budget:.4f}  -> fano_ready: {gfam.fano_ready} "
          f"(budget exceeds the strict Fano allowance at these constants)")
    print(f"pairwise motif-density separation floor: {gfam.separation_lower:.2e}")
    u = (gfam.elements[0].weights[:k1] - 1 / (2 * k1))
    v = (gfam.elements[1].weights[:k1] - 1 / (2 * k1))
    exact = latent_kl_exact(u, v, 4096)
    bound = kl_bound(u, v, 4096, gfam.epsilon)
    print(f"first pair: exact latent KL {exact:.4f} <= closed-form bound {bound:.4f}")
    print()
    print("The KL between the latent label distributions is computed exactly")
    print("and always sits below the quadratic bound used in the budget; the")
    print("separation is certified by homomorphism-density differences, which")
    print("lower-bound the cut distance without any alignment search.")


if __name__ == "__main__":
    main()
