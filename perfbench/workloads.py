"""The benchmark's three workloads: item lists, item runners and output checks.

Every workload is a closed loop with one client: a fixed list of items run
back to back, each item a call into cutgraphon's public API.  Items are
generated from the workload seed alone; the list repeats a short cycle so
that every run covers the same mix (see README.md for why each workload
exists).

`run_item` is the only code inside the timed region.  `check_item` replays
each output with an independent route and returns the list of problems it
found (empty when the item is correct).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np

import cutgraphon as cg
from cutgraphon import experiments
from cutgraphon._rng import stream
from cutgraphon.distance import permuted_difference_norm

DEFAULT_SEED = 0
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

GRAPHON_KS = (4, 8, 16, 32)
MATRIX_KS = (2, 4, 8)
MATRIX_RHOS = (1.0, 0.25)
PAIR_STEPS = 6            # criterion 10 shape: random symmetric 6-step pairs
PAIRS_PER_HALF = 40       # certify cycle: 40 pairs, k=2 packing, 40 pairs, k=64 packing
PACKING_N = 256
REGULARITY_Q0 = 16
PEAK_ITEMS = 4            # traced runs re-run delta_upper of these first items under tracemalloc
EXACT_TOL = 1e-6          # search above enumeration by more than this is a miss


@dataclass(frozen=True)
class Workload:
    name: str
    cycle_len: int        # items per cycle
    cycle_s: float        # seconds per cycle at the seed commit (2-core Xeon, 1 BLAS thread)
    warmup: int           # untimed items before the timed pass
    small: bool = False   # tiny sizes for the benchmark's own tests


def workload(name: str, small: bool = False) -> Workload:
    if name == "risk_graphon":
        return Workload(name, len(GRAPHON_KS), 1.15, len(GRAPHON_KS), small)
    if name == "risk_matrix":
        return Workload(name, len(MATRIX_KS) * len(MATRIX_RHOS), 2.1, 3, small)
    if name == "certify":
        half = 1 if small else PAIRS_PER_HALF
        return Workload(name, 2 * half + 2, 15.5, 3, small)
    raise ValueError(f"unknown workload {name!r}; choose risk_graphon, risk_matrix or certify")


@dataclass(frozen=True)
class Item:
    index: int
    kind: str                           # risk | pair | packing
    seed: int
    config: Optional[object] = None     # ExperimentConfig for risk items
    pair: tuple = ()                    # (W1, W2) for pair items
    k: int = 0                          # packing size


def _item_seed(seed: int, name: str, index: int, warm: bool) -> int:
    tag = int.from_bytes(name.encode(), "little")
    return int(np.random.SeedSequence((seed, tag, int(warm), index)).generate_state(1)[0])


def make_item(wl: Workload, seed: int, index: int, warm: bool = False) -> Item:
    s = _item_seed(seed, wl.name, index, warm)
    if wl.name == "risk_graphon":
        cfg = experiments.ExperimentConfig(
            ns=(32 if wl.small else 256,), ks=(GRAPHON_KS[index % len(GRAPHON_KS)],),
            rhos=(1.0,), estimators=("adjacency",), metrics=("cut",), reps=1, seed=s,
            level="graphon")
        return Item(index, "risk", s, config=cfg)
    if wl.name == "risk_matrix":
        cfg = experiments.ExperimentConfig(
            ns=(64 if wl.small else 512,), ks=(MATRIX_KS[index % len(MATRIX_KS)],),
            rhos=(MATRIX_RHOS[index % len(MATRIX_RHOS)],),
            estimators=("adjacency", "svt", "rls"), metrics=("cut", "l1", "frobenius"),
            reps=1, seed=s, level="matrix")
        return Item(index, "risk", s, config=cfg)
    pos = index % wl.cycle_len
    half = (wl.cycle_len - 2) // 2
    if not warm and pos == half:
        return Item(index, "packing", s, k=2)
    if not warm and pos == wl.cycle_len - 1:
        return Item(index, "packing", s, k=64)
    rng = np.random.default_rng(s)
    pair = []
    for _ in range(2):
        V = rng.uniform(0.0, 1.0, (PAIR_STEPS, PAIR_STEPS))
        pair.append(cg.StepGraphon((V + V.T) / 2, np.full(PAIR_STEPS, 1.0 / PAIR_STEPS)))
    return Item(index, "pair", s, pair=tuple(pair))


def make_items(wl: Workload, seed: int, cycles: int):
    """(warm-up items, timed items) for `cycles` passes over the cycle."""
    warm = [make_item(wl, seed, j, warm=True) for j in range(wl.warmup)]
    return warm, [make_item(wl, seed, i) for i in range(cycles * wl.cycle_len)]


# ---------------------------------------------------------------------------
# running


def run_item(item: Item, api):
    if item.kind == "risk":
        report = api.run_risk_experiment(item.config)
        return report, api.format_csv(report), api.format_svg(report)
    if item.kind == "pair":
        W1, W2 = item.pair
        return (api.delta_upper(W1, W2, "cut", seed=item.seed),
                api.delta_exact_tiny(W1, W2, "cut"),
                [api.weak_regularity_approx(W, REGULARITY_Q0) for W in item.pair])
    return api.graphon_packing(k=item.k, n=PACKING_N, seed=item.seed)


# ---------------------------------------------------------------------------
# checks


@dataclass
class Checked:
    problems: list
    distances: list       # (method, 32-restart replay gap, peak bytes), traced runs only
    meta: Optional[dict] = None          # the k=64 family's meta
    search_miss: Optional[bool] = None   # m=6 pairs: search upper above enumeration


def load_digests(name: str):
    """CSV digests recorded at the seed commit for the default seed, per item index."""
    if not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, [])


def csv_digest(csv: str) -> str:
    return hashlib.sha256(csv.encode()).hexdigest()


def _is_perm(p, m) -> bool:
    return p is not None and len(p) == m and np.array_equal(np.sort(p), np.arange(m))


def _check_distance(est, args, kwargs, problems, distances, measure: bool, peak: bool):
    """Replay a delta_upper result made by delta_upper(*args, **kwargs).

    With a heuristic cut, the search scores candidates with 4 restarts and
    keeps the smaller of that score and a final value at max(restarts, 16)
    restarts, so `upper` must equal the smaller of the two replays bit for
    bit.  The 4-restart replay alone is not enough: the restarts advance in
    lock-step through one matrix product, and its rounding (which decides
    near-zero signs) depends on how many columns it has.  With `measure`
    (traced runs) this also records the relative gap of a 32-restart replay
    and, with `peak`, re-runs the call under tracemalloc for its peak
    allocation.
    """
    W1, W2 = args[0], args[1]
    seed = kwargs["seed"]
    if not _is_perm(est.permutation, est.m):
        problems.append(f"delta_upper permutation is not a permutation of {est.m}")
        return
    replay = permuted_difference_norm(W1, W2, est.permutation, est.m, est.metric,
                                      restarts=4, seed=seed)
    if est.method == "search-heuristic-cut":
        final = permuted_difference_norm(W1, W2, est.permutation, est.m, est.metric,
                                         restarts=max(kwargs.get("restarts", 32), 16), seed=seed)
        replay = min(replay, final)
    if replay != est.upper:
        problems.append(f"delta_upper replay {replay!r} != upper {est.upper!r}")
    if not measure:
        return
    r32 = permuted_difference_norm(W1, W2, est.permutation, est.m, est.metric,
                                   restarts=32, seed=seed)
    gap = (r32 - est.upper) / est.upper if est.upper > 0 else 0.0
    peak_bytes = None
    if peak:
        tracemalloc.start()
        try:
            again = cg.delta_upper(*args, **kwargs)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if again.upper != est.upper or not np.array_equal(again.permutation, est.permutation):
            problems.append("delta_upper is not deterministic for a fixed seed")
    distances.append((est.method, gap, peak_bytes))


def _check_report(item: Item, report, csv, svg, problems):
    cfg = item.config
    if report.failures:
        problems.append(f"risk cell failures: {report.failures}")
    expect = [(e, m) for e in cfg.estimators for m in cfg.metrics]
    got = [(r.estimator, r.metric) for r in report.rows]
    if got != expect:
        problems.append(f"rows {got} != {expect}")
        return {}
    n, k, rho = cfg.ns[0], cfg.ks[0], cfg.rhos[0]
    for r in report.rows:
        if (r.n, r.k, r.rho, r.reps) != (n, k, rho, 1) or not math.isfinite(r.mean_risk):
            problems.append(f"bad row {r}")
        regime = experiments._theory_regime(r.metric, cfg.level)
        if r.theory != experiments.rate_formula(regime, n, k, rho):
            problems.append(f"theory column {r.theory!r} differs from rate_formula")
    if experiments.parse_csv(csv).rows != report.rows:
        problems.append("risk CSV does not parse back to the report rows")
    if not (svg.startswith("<svg") and svg.endswith("</svg>")):
        problems.append("risk SVG is not a complete <svg> document")
    return {(r.estimator, r.metric): r.mean_risk for r in report.rows}


def check_item(item: Item, out, captured, seed: int, digests, measure: bool = False) -> Checked:
    """Problems found in one item's output; `measure` adds the traced-run ratios."""
    peak = measure and item.index < PEAK_ITEMS
    problems, distances, meta, miss = [], [], None, None
    if item.kind == "risk":
        report, csv, svg = out
        risk = _check_report(item, report, csv, svg, problems)
        if seed == DEFAULT_SEED and item.index < len(digests) \
                and csv_digest(csv) != digests[item.index]:
            problems.append("risk CSV differs from the rows recorded at the seed commit")
        if item.config.level == "graphon":
            calls = [c for c in captured if c[0] == "cutgraphon.experiments.delta_upper"]
            if len(calls) != 1:
                problems.append(f"expected 1 delta_upper call, saw {len(calls)}")
            for _, args, kwargs, est in calls:
                _check_distance(est, args, kwargs, problems, distances, measure, peak)
                if risk and risk[("adjacency", "cut")] != est.upper:
                    problems.append("risk row differs from the delta_upper value")
        else:
            calls = [c for c in captured
                     if c[0] == "cutgraphon.experiments.matrix_cut_norm_heuristic"]
            if len(calls) != len(item.config.estimators):
                problems.append(f"expected one heuristic cut per estimator, saw {len(calls)}")
            for est_name, (_, args, _, res) in zip(item.config.estimators, calls):
                D = args[0]
                n = D.shape[0]
                S, T = res.witness_s, res.witness_t
                replay = cg.cutnorm.matrix_witness_value(D, S, T)
                # heuristic and replay sum the |S||T| rectangle terms in different
                # orders; recursive summation of N terms errs by at most about
                # N * 2**-53 times their absolute sum (Higham 2002, sec. 4.2)
                mass = cg.cutnorm.matrix_witness_value(np.abs(D), S, T)
                if abs(replay - res.value) > 2 * (len(S) * len(T) + 1) * 2.0**-53 * mass:
                    problems.append(f"{est_name}: witness replay {replay!r} != cut {res.value!r}")
                if risk:
                    if risk[(est_name, "cut")] != res.value:
                        problems.append(f"{est_name}: cut row differs from the heuristic value")
                    if risk[(est_name, "l1")] != float(np.abs(D).sum() / n**2):
                        problems.append(f"{est_name}: l1 row differs from |Phat - Theta|")
                    if risk[(est_name, "frobenius")] != float(np.linalg.norm(D) / n):
                        problems.append(f"{est_name}: frobenius row differs from ||Phat - Theta||")
    elif item.kind == "pair":
        du, ex, regs = out
        W1, W2 = item.pair
        if du.method != "search-exact-cut":
            problems.append(f"m=6 search did not use the exact cut: {du.method}")
        _check_distance(du, item.pair + ("cut",), {"seed": item.seed}, problems, distances,
                        measure, peak)
        if not _is_perm(ex.permutation, ex.m):
            problems.append("delta_exact_tiny permutation is not a permutation")
        elif permuted_difference_norm(W1, W2, ex.permutation, ex.m, "cut") != ex.upper:
            problems.append("delta_exact_tiny permutation does not replay its value")
        # the search must bound the enumerated distance from above; how often it
        # misses the optimum is a quality ratio (Checked.search_miss), not a failure
        if du.upper < ex.upper - 1e-12:
            problems.append(f"search upper {du.upper!r} below enumerated {ex.upper!r}")
        miss = du.upper - ex.upper > EXACT_TOL
        for W, (approx, dec) in zip(item.pair, regs):
            _check_regularity(W, approx, dec, problems)
    elif item.k == 2:
        _check_packing_two(out, problems)
    else:
        meta = dict(out.meta)
        _check_packing_family(out, item.seed, problems)
    return Checked(problems, distances, meta, miss)


def _check_regularity(W, approx, dec, problems):
    if not np.allclose(approx.values + dec.residual.values, W.values, rtol=0, atol=1e-12):
        problems.append("regularity approx + residual does not reproduce W")
    final = cg.step_kernel_cut_norm_exact(dec.residual).value
    if final != dec.final_cut:
        problems.append(f"regularity final cut {dec.final_cut!r} != replay {final!r}")
    # values lie in [0, 1], so at most floor(log2 q0) rounds reach the target
    if len(dec.terms) > dec.max_terms or final > dec.target + 1e-12:
        problems.append("regularity decomposition breaks its round or target bound")


def _check_packing_two(family, problems):
    """The k=2 separation must equal an independent enumeration.

    Permutations that only reorder equal labels give the same difference
    matrix, so enumerating distinct label arrangements covers all m!
    permutations of the common refinement.
    """
    W1, W2 = family.elements
    m, exact = cg.distance.common_refinement_m(W1, W2, cap=8)
    if not exact:
        problems.append("k=2 packing weights do not refine into m <= 8 steps")
        return
    D1 = cg.blowup(W1, m).values
    labels = np.repeat(np.arange(W2.k), cg.core.blowup_counts(W2.weights, m))
    best = min(cg.matrix_cut_norm_exact(D1 - W2.values[np.ix_(a, a)]).value
               for a in map(np.array, set(itertools.permutations(labels))))
    if abs(best - family.separation_lower) > 1e-12:
        problems.append(f"k=2 separation {family.separation_lower!r} != enumerated {best!r}")


def _check_packing_family(family, seed, problems):
    """Recompute the separation certificate over the pairs the family checked."""
    meta = family.meta
    if family.size != meta["code_size"] or family.size < 2:
        problems.append(f"family size {family.size} != code size {meta['code_size']}")
        return
    if not 0 <= meta["property_ii_passed"] <= meta["property_ii_total"]:
        problems.append("property (ii) pass count out of range")
    pairs = [(i, j) for i in range(family.size) for j in range(i + 1, family.size)]
    idx = stream(seed, "graphon-pack-check").choice(len(pairs), size=meta["checked_pairs"],
                                                    replace=False)
    lowers = [cg.delta_cut_lower(family.elements[i], family.elements[j]).value
              for i, j in (pairs[t] for t in idx)]
    if min(lowers) != family.separation_lower or family.separation_lower <= 0:
        problems.append(f"separation {family.separation_lower!r} != recomputed {min(lowers)!r}")
