"""The benchmark's workloads run and pass their own checks on the package
as it stands: a field or name the benchmark reads that goes missing fails
here, in tier 1, and not only in the benchmark's own tests.

The workloads and the tracer are loaded from their files; `run.run` is not
used, because it drops cutgraphon from sys.modules to import it afresh."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cutgraphon import distance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["risk_graphon", "risk_matrix", "certify"])
def test_one_small_cycle_passes_its_checks(monkeypatch, name):
    workloads, tracer = load(monkeypatch, "workloads"), load(monkeypatch, "tracer")
    wl = workloads.workload(name, small=True)
    _, items = workloads.make_items(wl, workloads.DEFAULT_SEED, 1)
    hooks = tracer.Hooks(spans=False)
    hooks.install()
    problems = []
    try:
        for item in items:
            hooks.active = True
            out = workloads.run_item(item, hooks.api)
            hooks.active = False
            checked = workloads.check_item(item, out, hooks.take_captured(),
                                           workloads.DEFAULT_SEED, [])
            problems += checked.problems
    finally:
        hooks.restore()
    assert items and problems == []



@pytest.mark.parametrize("seed", [0, 2, 3])
@pytest.mark.parametrize("k", [2, 64])
def test_full_size_packing_items_pass_their_checks(monkeypatch, seed, k):
    # a certify cycle's packing items at full size (the k = 64 family has
    # 565-step members at n = 256), at three workload seeds: the small
    # cycle above runs seed 0 only
    workloads, tracer = load(monkeypatch, "workloads"), load(monkeypatch, "tracer")
    wl = workloads.workload("certify")
    index = (wl.cycle_len - 2) // 2 if k == 2 else wl.cycle_len - 1
    item = workloads.make_item(wl, seed, index)
    assert (item.kind, item.k) == ("packing", k)
    out = workloads.run_item(item, tracer.Hooks(spans=False).api)
    assert workloads.check_item(item, out, [], seed, []).problems == []

def test_traced_certify_sees_exact_cut_passes(monkeypatch):
    # the enumeration measures its candidates through `distance._max_rectangle_sum`,
    # the name the tracer rebinds, so the pairs' exact cut passes are counted
    # as `cutnorm.exact` spans under `distance.delta_upper`.  Those pairs may
    # already sit in the enumeration memo (the untraced certify cycle above
    # runs the same seed-0 pairs), so it starts empty here, and each pair's
    # first enumeration is the traced one
    distance._enumerated.cache_clear()
    workloads, tracer = load(monkeypatch, "workloads"), load(monkeypatch, "tracer")
    wl = workloads.workload("certify", small=True)
    _, items = workloads.make_items(wl, workloads.DEFAULT_SEED, 1)
    hooks = tracer.Hooks(spans=True)
    hooks.install()
    try:
        for item in items:
            hooks.item, hooks.active = item.index, True
            workloads.run_item(item, hooks.api)
            hooks.active = False
    finally:
        hooks.restore()
    assert tracer.child_counts(hooks.spans, "distance.delta_upper", "cutnorm.exact") >= 1


def test_first_full_cycle_matches_recorded_digests():
    # the benchmark compares each risk CSV with perfbench/digests.json only
    # when it runs; this runs the first full-size cycle of both risk
    # workloads at the default seed, in a fresh interpreter with one BLAS
    # thread as the digests were recorded, and only reads the digests
    script = textwrap.dedent("""
        import json, sys
        sys.path[:0] = sys.argv[1:]
        import tracer, workloads
        api = tracer.Hooks(spans=False).api
        out = {}
        for name in ("risk_graphon", "risk_matrix"):
            items = workloads.make_items(workloads.workload(name), workloads.DEFAULT_SEED, 1)[1]
            out[name] = [workloads.csv_digest(workloads.run_item(it, api)[1]) for it in items]
        print(json.dumps(out))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(PERFBENCH.parent / "src")
    run = subprocess.run([sys.executable, "-c", script, src, str(PERFBENCH)], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    for name, digests in got.items():
        assert len(digests) > 1 and digests == recorded[name][: len(digests)], name
