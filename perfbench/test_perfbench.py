"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
for _path in (str(HERE.parent / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402


def _fresh():
    """The modules a run leaves in sys.modules (run() re-imports cutgraphon)."""
    return (importlib.import_module("workloads"), importlib.import_module("tracer"),
            importlib.import_module("cutgraphon.experiments"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_has_no_failures(name):
    res = run.run(name, seed=0, seconds=0.1, trace=False, small=True)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == {"items_per_s", "item_p50_ms", "item_tail_ms",
                                   "setup_s", "peak_rss_mb", "pass_frac"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_restores_every_wrapped_name():
    res = run.run("risk_matrix", seed=1, seconds=0.1, trace=True, small=True)
    assert res["correct"], res["problems"]
    assert res["metrics"]["trace.coverage_frac"]["value"] >= 0.95
    assert res["metrics"]["estimate.rls.calls"]["value"] == res["metrics"]["trace.items"]["value"]

    wl_mod, tracer, _ = _fresh()
    names = [(m, a) for m, a, _ in tracer.CROSS_MODULE] + list(tracer.CAPTURED)
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in names}
    hooks = tracer.Hooks(spans=True)
    hooks.install()
    assert all(getattr(importlib.import_module(m), a) is not before[(m, a)] for m, a in names)
    wl = wl_mod.workload("certify", small=True)
    hooks.active = True
    wl_mod.run_item(wl_mod.make_item(wl, 0, 0), hooks.api)
    hooks.active = False
    hooks.restore()
    assert hooks.spans
    assert all(getattr(importlib.import_module(m), a) is before[(m, a)] for m, a in names)


def _corrupt(out, experiments):
    """Move one reported number by one part in a billion."""
    if isinstance(out, tuple) and hasattr(out[0], "rows"):
        report, _, svg = out
        rows = tuple(dataclasses.replace(r, mean_risk=r.mean_risk * (1 + 1e-9))
                     for r in report.rows)
        report = dataclasses.replace(report, rows=rows)
        return report, experiments.format_csv(report), svg
    if isinstance(out, tuple):
        du, ex, regs = out
        return dataclasses.replace(du, upper=du.upper * (1 + 1e-9)), ex, regs
    return dataclasses.replace(out, separation_lower=out.separation_lower * (1 + 1e-9))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_output_counts_as_failed(name):
    wl_mod, tracer, experiments = _fresh()
    wl = wl_mod.workload(name, small=True)
    items = wl_mod.make_items(wl, 0, 1)[1]
    corrupting = SimpleNamespace(
        run_item=lambda item, api: _corrupt(wl_mod.run_item(item, api), experiments),
        check_item=wl_mod.check_item)
    hooks = tracer.Hooks(spans=False)
    honest = run.timed_pass(wl_mod, items, hooks, 0, [])
    bad = run.timed_pass(corrupting, items, hooks, 0, [])
    assert honest.restored and bad.restored
    assert honest.failed == 0, honest.problems
    assert bad.attempted == len(items) and bad.failed == len(items)


def test_tail_leaves_ten_items_above():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail([5.0] * 12) == (50, 5.0)
