"""The benchmark's workloads run and pass their own checks on the package
as it stands: a field or name the benchmark reads that goes missing fails
here, in tier 1, and not only in the benchmark's own tests.

The workloads and the tracer are loaded from their files; `run.run` is not
used, because it drops cutgraphon from sys.modules to import it afresh."""

import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_traced_certify_sees_exact_cut_passes(monkeypatch):
    # the enumeration measures its candidates through `distance._max_rectangle_sum`,
    # the name the tracer rebinds, so the pairs' exact cut passes are counted
    # as `cutnorm.exact` spans under `distance.delta_upper`
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
