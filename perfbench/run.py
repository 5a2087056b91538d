"""Run one workload of the cutgraphon benchmark and print its metrics.

    python3 perfbench/run.py --workload risk_graphon --seed 0 --seconds 30 --trace 0

Workloads: risk_graphon, risk_matrix, certify (see perfbench/README.md).
The package is imported from the `src/` directory next to this one; the
script exits with code 2 when it is missing.  Each metric is printed as
"name value unit", and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half as many
cycles, each item first untraced and then again with spans recorded at
cutgraphon's module boundaries, and reports per-layer metrics; the spans are
written to .perfbench-out/ in the repository root.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("risk_graphon", "risk_matrix", "certify")
BLAS_THREADS = "1"   # no threads beyond the interpreter's own; at or below nproc
SETUPS = 11          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10     # item_tail_ms leaves at least this many items above it


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _git_sha() -> str:
    """HEAD of the checkout without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup(name: str, seed: int, seconds: float, trace: bool, small: bool):
    """Import cutgraphon afresh and generate the run's items; returns the seconds it took.

    A run times round(seconds / cycle_s) cycles, so parent and change time the
    same items; a traced run takes half as many cycles and runs each item twice.
    """
    for mod in [m for m in sys.modules if m.split(".")[0] in ("cutgraphon", "workloads")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    importlib.import_module("cutgraphon")
    wl_mod = importlib.import_module("workloads")
    wl = wl_mod.workload(name, small)
    cycles = max(1, round(seconds / wl.cycle_s))
    if trace:
        cycles = math.ceil(cycles / 2)
    warm, items = wl_mod.make_items(wl, seed, cycles)
    return time.perf_counter() - t0, wl_mod, wl, warm, items, cycles


@dataclass
class Pass:
    latencies: list = field(default_factory=list)   # seconds, items that returned
    wall: float = 0.0                                # summed item time, raised items too
    attempted: int = 0
    failed: int = 0
    distances: list = field(default_factory=list)
    metas: list = field(default_factory=list)
    misses: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    restored: bool = True                            # every wrapped name put back


def timed_pass(wl_mod, items, hooks, seed, digests, measure=False, p=None) -> Pass:
    """Run items back to back with `hooks` installed; only run_item is timed.

    Results accumulate into `p` when it is given.
    """
    p = Pass() if p is None else p
    hooks.install()
    saved = hooks.originals()
    try:
        _run_items(wl_mod, items, hooks, seed, digests, measure, p)
    finally:
        hooks.restore()
    p.restored = p.restored and all(getattr(mod, attr) is orig for mod, attr, orig in saved)
    return p


def _run_items(wl_mod, items, hooks, seed, digests, measure, p: Pass) -> None:
    for item in items:
        p.attempted += 1
        hooks.item = item.index
        hooks.active = True
        t0 = time.perf_counter()
        try:
            out = wl_mod.run_item(item, hooks.api)
        except Exception:  # noqa: BLE001 - a raising item is counted, the run goes on
            p.wall += time.perf_counter() - t0
            hooks.active = False
            hooks.take_captured()
            p.failed += 1
            p.problems.append(f"item {item.index} raised:\n{traceback.format_exc()}")
            continue
        dt = time.perf_counter() - t0
        hooks.active = False
        p.wall += dt
        p.latencies.append(dt)
        checked = wl_mod.check_item(item, out, hooks.take_captured(), seed, digests, measure)
        if checked.problems:
            p.failed += 1
            p.problems.extend(f"item {item.index}: {msg}" for msg in checked.problems)
        p.distances.extend(checked.distances)
        if checked.meta is not None:
            p.metas.append(checked.meta)
        if checked.search_miss is not None:
            p.misses.append(checked.search_miss)


def tail(latencies):
    """(percentile, value) at the highest integer percentile (at least p50) with 10 items above."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    return pct, xs[max(1, math.ceil(pct / 100 * n)) - 1]


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload in this process; returns the result record."""
    setups = []
    for _ in range(SETUPS):
        dt, wl_mod, wl, warm, items, cycles = _setup(name, seed, seconds, trace, small)
        setups.append(dt)
    tracer_mod = importlib.import_module("tracer")
    digests = [] if small else wl_mod.load_digests(name)

    capture = tracer_mod.Hooks(spans=False)
    timed_pass(wl_mod, warm, capture, seed, [])      # warm-up; its Pass is dropped
    base = Pass()
    passes = [base]
    if trace:
        # each item runs untraced and then traced, so that overhead_frac
        # compares the same items at nearly the same time
        hooks = tracer_mod.Hooks(spans=True)
        traced = Pass()
        passes.append(traced)
        for item in items:
            timed_pass(wl_mod, [item], capture, seed, digests, p=base)
            timed_pass(wl_mod, [item], hooks, seed, digests, True, p=traced)
    else:
        timed_pass(wl_mod, items, capture, seed, digests, p=base)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    restored = all(p.restored for p in passes)
    if not restored:
        problems.append("a wrapped cutgraphon name was not restored")

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cycles": cycles, "items": len(items), "warmup_items": len(warm),
    }
    notes = []
    if trace:
        metrics = layer_metrics(tracer_mod, hooks, traced, base)
        write_spans(hooks.spans, env)
    else:
        passed = base.attempted - base.failed
        pct, tail_s = tail(base.latencies) if base.latencies else (50, 0.0)
        env["tail_percentile"] = pct
        notes.append(f"item_tail_ms is p{pct} of {len(base.latencies)} timed items")
        metrics = {
            "items_per_s": (passed / base.wall if base.wall > 0 else 0.0, "1/s"),
            "item_p50_ms": (statistics.median(base.latencies) * 1e3 if base.latencies else 0.0,
                            "ms"),
            "item_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_frac": (passed / base.attempted, "frac"),
        }
        notes.append(f"failed_frac {base.failed / base.attempted} "
                     f"({base.failed} of {base.attempted} items)")
    return {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env,
        "notes": notes,
        "problems": problems,
    }


def layer_metrics(tracer_mod, hooks, traced: Pass, base: Pass) -> dict:
    """Per-layer metrics of the traced pass (self times in seconds over the whole pass)."""
    stats = tracer_mod.layer_stats(hooks.spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def self_of(prefix):
        return sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix))

    du_calls = get("distance.delta_upper", "calls")
    cut_evals = sum(tracer_mod.child_counts(hooks.spans, "distance.delta_upper", c)
                    for c in ("cutnorm.exact", "cutnorm.heuristic"))
    gaps = [g for _, g, _ in traced.distances]
    peaks = [p for _, _, p in traced.distances if p is not None]
    wall = traced.wall
    return {
        "distance.delta_upper.calls": (du_calls, "count"),
        "distance.delta_upper.self_s": (get("distance.delta_upper", "self_s"), "s"),
        "distance.delta_upper.peak_alloc_mb": (max(peaks, default=0) / 2**20, "MB"),
        "distance.cut_evals_per_call": (cut_evals / du_calls if du_calls else 0.0, "evals/call"),
        "distance.exact_cut_frac": (
            sum(m == "search-exact-cut" for m, _, _ in traced.distances) / len(traced.distances)
            if traced.distances else 0.0, "frac"),
        "distance.upper_replay_gap": (statistics.fmean(gaps) if gaps else 0.0, "frac"),
        "distance.search_miss_frac": (statistics.fmean(traced.misses) if traced.misses
                                      else 0.0, "frac"),
        "distance.exact_tiny.calls": (get("distance.exact_tiny", "calls"), "count"),
        "distance.exact_tiny.self_s": (get("distance.exact_tiny", "self_s"), "s"),
        "distance.cut_lower.self_s": (get("distance.cut_lower", "self_s"), "s"),
        "cutnorm.heuristic.calls": (get("cutnorm.heuristic", "calls"), "count"),
        "cutnorm.heuristic.self_s": (get("cutnorm.heuristic", "self_s"), "s"),
        "cutnorm.exact.calls": (get("cutnorm.exact", "calls"), "count"),
        "cutnorm.exact.self_s": (get("cutnorm.exact", "self_s"), "s"),
        "estimate.rls.calls": (get("estimate.rls", "calls"), "count"),
        "estimate.rls.self_s": (get("estimate.rls", "self_s"), "s"),
        "estimate.svt.self_s": (get("estimate.svt", "self_s"), "s"),
        "estimate.adjacency.self_s": (get("estimate.adjacency", "self_s"), "s"),
        "sampling.self_s": (self_of("sampling."), "s"),
        "core.blowup.self_s": (get("core.blowup", "self_s"), "s"),
        "regularity.self_s": (self_of("regularity."), "s"),
        "packing.self_s": (self_of("packing."), "s"),
        "packing.property_ii_pass_frac": (
            statistics.fmean(m["property_ii_passed"] / m["property_ii_total"]
                             for m in traced.metas) if traced.metas else 0.0, "frac"),
        "packing.block_tries": (statistics.fmean(m["block_tries"] for m in traced.metas)
                                if traced.metas else 0.0, "count"),
        "experiments.self_s": (get("experiments.run_risk_experiment", "self_s"), "s"),
        "experiments.emit_s": (get("experiments.format_csv", "total_s")
                               + get("experiments.format_svg", "total_s"), "s"),
        "trace.overhead_frac": (wall / base.wall - 1.0 if base.wall > 0 else 0.0, "frac"),
        "trace.coverage_frac": (sum(s["self_s"] for s in stats.values()) / wall
                                if wall > 0 else 0.0, "frac"),
        "trace.wall_s": (wall, "s"),
        "trace.items": (traced.attempted, "count"),
    }


def write_spans(spans, env) -> None:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{env['workload']}-seed{env['seed']}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"env": env, "names": names,
                   "columns": ["name", "start_s", "end_s", "parent", "item"],
                   "spans": [[index[n], t0, t1, par, it] for n, t0, t1, par, it in spans]}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cutgraphon" / "__init__.py").is_file():
        print(f"run.py: no cutgraphon sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    pin_blas_threads()
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in res["problems"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("env " + json.dumps(res["env"], sort_keys=True))
    for note in res["notes"]:
        print("note " + note)
    for key, m in res["metrics"].items():
        print(f"{key} {m['value']!r} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
