#!/usr/bin/env python3
"""
Sample an inhomogeneous random graph from a step graphon and compare the
four probability-matrix estimators in several error norms.
"""

import numpy as np

from cutgraphon import (
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    fit_to_prob_matrix,
    matrix_cut_norm_heuristic,
    sample_graph,
    sbm_spec,
)


def errors(phat, theta):
    D = phat - theta
    n = theta.shape[0]
    return (
        matrix_cut_norm_heuristic(D, restarts=16).value,
        float(np.abs(D).sum() / n**2),
        float(np.linalg.norm(D) / n),
    )


def main():
    n = 128
    k = 4
    spec = sbm_spec(k, p_in=0.7, p_out=0.2, rho=1.0)
    latents, theta, A = sample_graph(spec, n, seed=11)

    print(f"model: {k}-block SBM, p_in=0.7, p_out=0.2, n={n}")
    print(f"edge count: {int(A.values.sum()) // 2}, "
          f"density {A.values.sum() / (n * (n - 1)):.3f}")
    counts = np.bincount(np.searchsorted(np.cumsum(spec.graphon.weights),
                                         latents.positions, side="right"), minlength=k)
    print(f"latent class sizes: {counts.tolist()}")
    print()

    svt = estimate_svt(A)
    rls = estimate_restricted_ls(A, k, restarts=8, seed=1)
    estimators = [
        ("adjacency (A itself)", estimate_adjacency(A).values),
        ("global mean", estimate_mean(A).values),
        (f"svt (kept {svt.kept} eigenpairs)", svt.prob.values),
        (f"restricted LS (k={k})", fit_to_prob_matrix(rls).values),
    ]

    print(f"{'estimator':<28} {'cut':>9} {'l1':>9} {'l2':>9}")
    print("-" * 58)
    for name, phat in estimators:
        c, l1, l2 = errors(phat, theta.values)
        print(f"{name:<28} {c:>9.4f} {l1:>9.4f} {l2:>9.4f}")
    print()
    print("The raw adjacency matrix is already cut-norm consistent (the noise")
    print("A - Theta has tiny cut norm even though its l2 error is huge); the")
    print("structured estimators win in l1/l2 by averaging within blocks.")


if __name__ == "__main__":
    main()
