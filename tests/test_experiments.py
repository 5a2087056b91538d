"""Tests for the Monte Carlo risk harness."""

import concurrent.futures
import math
import threading
import tracemalloc

import numpy as np
import pytest

from cutgraphon import core
from cutgraphon.errors import ValidationError
from cutgraphon.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    RiskReport,
    RiskRow,
    TRANSFORMS,
    default_model,
    emit,
    fit_rate_slope,
    format_csv,
    format_svg,
    parse_config,
    parse_csv,
    rate_formula,
    run_risk_experiment,
)


class TestConfig:
    def test_validation(self):
        good = dict(ns=(8,), ks=(2,), rhos=(1.0,))
        ExperimentConfig(**good)
        with pytest.raises(ValidationError):
            ExperimentConfig(ns=(), ks=(2,), rhos=(1.0,))
        with pytest.raises(ValidationError):
            ExperimentConfig(ns=(8,), ks=(2,), rhos=(1.5,))
        with pytest.raises(ValidationError):
            ExperimentConfig(ns=(8,), ks=(2,), rhos=(0.0,))
        with pytest.raises(ValidationError):
            ExperimentConfig(**good, reps=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(**good, estimators=("oracle",))
        with pytest.raises(ValidationError):
            ExperimentConfig(**good, metrics=("spectral",))
        with pytest.raises(ValidationError):
            ExperimentConfig(**good, level="tensor")

    def test_parse_roundtrip_fields(self):
        cfg = parse_config("""
            # grids repeat one value per line
            n=32
            n=64
            k=2
            rho=0.5
            rho=1.0
            estimator=svt
            metric=frobenius
            metric=l1
            reps=5
            seed=11
            level=graphon
        """)
        assert cfg.ns == (32, 64)
        assert cfg.ks == (2,)
        assert cfg.rhos == (0.5, 1.0)
        assert cfg.estimators == ("svt",)
        assert cfg.metrics == ("frobenius", "l1")
        assert (cfg.reps, cfg.seed) == (5, 11)
        assert cfg.level == "graphon"

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_config("n=32\nk=2\nrho=1\nwidgets=9\n")
        with pytest.raises(ValidationError):
            parse_config("n=32\nk=2\nrho=1\nreps=3\nreps=4\n")
        with pytest.raises(ValidationError):
            parse_config("n=thirty\nk=2\nrho=1\n")
        with pytest.raises(ValidationError):
            parse_config("n 32\nk=2\nrho=1\n")
        with pytest.raises(ValidationError, match="repeated n"):
            parse_config("n=32\nn=32\nk=2\nrho=1\n")

    @pytest.mark.parametrize("field, grid", [
        ("ns", (8, 8)), ("ks", (2, 3, 2)), ("rhos", (0.5, 0.5)),
        ("estimators", ("adjacency", "adjacency")), ("metrics", ("l1", "l1"))])
    def test_repeated_grid_value_rejected(self, field, grid):
        # a repeated value would emit duplicate rows, each counting the
        # pooled replicates of every copy
        kwargs = dict(ns=(8,), ks=(2,), rhos=(1.0,), reps=1)
        kwargs[field] = grid
        with pytest.raises(ValidationError, match="repeated"):
            ExperimentConfig(**kwargs)

    def test_negative_seed_rejected(self):
        # sub-seeds are drawn outside each cell's error handling, so a
        # negative seed must not get that far
        with pytest.raises(ValidationError, match="seed"):
            parse_config("n=32\nk=2\nrho=1\nseed=-1\n")

    @pytest.mark.parametrize("line", ["restarts=2", "outdir=/tmp/out"])
    def test_retired_keys_rejected(self, line):
        # search restarts are module constants; `risk --out` sets the directory
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(f"n=32\nk=2\nrho=1\n{line}\n")


class TestRateFormula:
    def test_frobenius_reference_value(self):
        assert rate_formula("Frobenius", 100, 4, 1.0) == pytest.approx(
            math.sqrt(math.log(4) / 100) + 4 / 100, abs=1e-12)
        assert rate_formula("Frobenius", 100, 4, 1.0) == pytest.approx(0.15774, abs=1e-5)

    def test_l1_matches_frobenius_regime(self):
        for n, k, rho in [(50, 3, 1.0), (200, 8, 0.3)]:
            assert rate_formula("L1", n, k, rho) == rate_formula("Frobenius", n, k, rho)

    def test_cut_regimes(self):
        # k=n: the 1/sqrt(log n) branch takes over (the two are equal there)
        v = rate_formula("Cut", 100, 100, 1.0)
        assert v == pytest.approx(1 / math.sqrt(math.log(100)) + 0.1, abs=1e-12)
        # rho below 1/n: the null estimator wins
        assert rate_formula("Cut", 100, 4, 0.005) == 0.005

    def test_k1_closed_form(self):
        for regime in ("Cut", "Frobenius", "L1", "L2graphon", "L1graphon"):
            assert rate_formula(regime, 100, 1, 1.0) == pytest.approx(0.01)
            assert rate_formula(regime, 100, 1, 1e-6) == pytest.approx(1e-6)

    def test_graphon_regimes_bounded_by_rho(self):
        for regime in ("L2graphon", "L1graphon"):
            assert 0 < rate_formula(regime, 64, 8, 0.2) <= 0.2

    def test_unknown_regime(self):
        with pytest.raises(ValidationError):
            rate_formula("Spectral", 10, 2, 1.0)
        with pytest.raises(ValidationError):
            rate_formula("Cut", 1, 2, 1.0)

    def test_unknown_regime_at_k1(self):
        # k = 1 takes a closed form shared by every regime; the regime is
        # still checked first
        with pytest.raises(ValidationError, match="regime"):
            rate_formula("bogus", 10, 1, 0.5)


class TestDefaultModel:
    def test_k1_constant(self):
        spec = default_model(1, 0.7)
        assert spec.graphon.values == pytest.approx(np.array([[0.5]]))
        assert spec.rho == 0.7

    def test_rows_distinct_and_two_valued(self):
        for k in (2, 3, 4, 8, 16):
            Q = default_model(k).graphon.values
            assert np.allclose(Q, Q.T)
            assert set(np.unique(Q)) <= {0.1, 0.9}
            for a in range(k):
                for b in range(a + 1, k):
                    assert not np.array_equal(Q[a], Q[b])


class TestHarness:
    def test_deterministic_and_complete(self):
        cfg = ExperimentConfig(ns=(16, 24), ks=(2,), rhos=(1.0,),
                               estimators=("adjacency", "mean"),
                               metrics=("cut", "l1", "frobenius"), reps=2, seed=3)
        r1 = run_risk_experiment(cfg)
        r2 = run_risk_experiment(cfg)
        assert r1.rows == r2.rows
        assert not r1.failures
        assert len(r1.rows) == 2 * 2 * 3
        assert format_csv(r1) == format_csv(r2)

    def test_stderr_definition(self):
        cfg = ExperimentConfig(ns=(16,), ks=(2,), rhos=(1.0,),
                               estimators=("adjacency",), metrics=("l1",),
                               reps=1, seed=0)
        row = run_risk_experiment(cfg).rows[0]
        assert row.stderr == 0.0
        assert row.reps == 1

    def test_mean_estimator_l1_on_flat_model(self):
        # k=1 model is Erdos-Renyi p=1/2; the mean estimator's l1 risk
        # should sit within a factor 2 of sqrt(2p/(n(n-1)))
        cfg = ExperimentConfig(ns=(64,), ks=(1,), rhos=(1.0,),
                               estimators=("mean",), metrics=("l1",),
                               reps=40, seed=5)
        row = run_risk_experiment(cfg).rows[0]
        scale = math.sqrt(2 * 0.5 / (64 * 63))
        assert scale / 2 <= row.mean_risk <= 2 * scale

    def test_adjacency_cut_under_explicit_envelope(self):
        cfg = ExperimentConfig(ns=(16, 32), ks=(2, 4), rhos=(1.0, 0.5),
                               estimators=("adjacency",), metrics=("cut",),
                               reps=3, seed=1)
        rep = run_risk_experiment(cfg)
        for row in rep.rows:
            assert row.mean_risk <= 24 * math.sqrt(row.rho / row.n)

    def test_graphon_level_runs_and_dominates_matrix_noise(self):
        cfg = ExperimentConfig(ns=(24,), ks=(2,), rhos=(1.0,),
                               estimators=("adjacency",), metrics=("cut", "l2"),
                               reps=2, seed=2, level="graphon")
        rep = run_risk_experiment(cfg)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert row.mean_risk > 0

    def test_matrix_l2_equals_frobenius(self):
        cfg = ExperimentConfig(ns=(16,), ks=(2,), rhos=(1.0,),
                               estimators=("svt",), metrics=("l2", "frobenius"),
                               reps=2, seed=4)
        rows = run_risk_experiment(cfg).rows
        by_metric = {r.metric: r for r in rows}
        assert by_metric["l2"].mean_risk == pytest.approx(
            by_metric["frobenius"].mean_risk, abs=1e-15)

    def test_cell_failures_recorded_not_fatal(self):
        # rls cannot fit 5 blocks to 4 nodes; adjacency rows still appear
        cfg = ExperimentConfig(ns=(4,), ks=(5,), rhos=(1.0,),
                               estimators=("rls", "adjacency"), metrics=("l1",),
                               reps=2, seed=0)
        rep = run_risk_experiment(cfg)
        assert rep.failures
        assert any(r.estimator == "adjacency" for r in rep.rows)
        assert not any(r.estimator == "rls" for r in rep.rows)


class SameThread:
    """An executor that runs each submitted call at once, on the caller's
    thread, and hands back a completed future with its result or exception."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as e:  # noqa: BLE001 - the future holds it, as a worker's would
            future.set_exception(e)
        return future


def run_counting_workers(monkeypatch, cfg, executor=concurrent.futures.ThreadPoolExecutor):
    """(report, executors created) with `executor` in place of
    ThreadPoolExecutor; checks that no thread outlives the call."""
    made = []

    class Counting(executor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
    before = threading.active_count()
    report = run_risk_experiment(cfg)
    assert threading.active_count() == before
    return report, len(made)


class TestRlsWorker:
    """The rls fit on a worker thread against the same fit made inline, on
    the calling thread at submit time."""

    @pytest.mark.parametrize("kwargs", [
        dict(estimators=("rls", "adjacency", "svt")),
        dict(estimators=("adjacency", "rls", "svt")),
        dict(estimators=("adjacency", "svt", "rls")),
        dict(estimators=("rls",)),
        dict(ns=(16, 24), estimators=("svt", "rls"), reps=3),
        dict(ns=(16, 24), estimators=("rls", "adjacency"), metrics=("cut", "l2"),
             reps=3, level="graphon"),
        dict(ns=(4,), ks=(5,), estimators=("adjacency", "rls", "svt"), reps=2),
    ], ids=["first", "middle", "last", "alone", "matrix-cells", "graphon-cells",
            "failing-fit"])
    def test_threaded_matches_inline(self, monkeypatch, kwargs):
        cfg = ExperimentConfig(**{**dict(ns=(16,), ks=(2,), rhos=(1.0,),
                                         metrics=("cut", "l1", "frobenius"),
                                         reps=1, seed=7), **kwargs})
        threaded, made = run_counting_workers(monkeypatch, cfg)
        inline, made_inline = run_counting_workers(monkeypatch, cfg, SameThread)
        assert (made, made_inline) == (1, 1)
        assert format_csv(threaded) == format_csv(inline)
        assert threaded.failures == inline.failures
        if cfg.ks == (5,):
            # rls cannot fit 5 blocks to 4 nodes: one failure per replicate
            assert len(threaded.failures) == 2
            assert all("estimator=rls" in f for f in threaded.failures)
            assert {r.estimator for r in threaded.rows} == {"adjacency", "svt"}

    def test_sample_failure_isolated_per_replicate(self, monkeypatch):
        # 8193^2 exceeds DENSE_BUDGET, so each n = 8193 replicate fails in
        # sampling before anything is allocated, and the n = 16 rows stay
        assert 8193**2 > core.DENSE_BUDGET
        cfg = ExperimentConfig(ns=(16, 8193), ks=(2,), rhos=(1.0,),
                               estimators=("adjacency", "rls"), reps=2)
        tracemalloc.start()
        try:
            report, made = run_counting_workers(monkeypatch, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert made == 1 and peak < 1 << 24
        assert [f.split(": ")[:2] for f in report.failures] == [
            [f"n=8193,k=2,rho=1.0,rep={rep}", "sample"] for rep in range(2)]
        assert all("exceeds the budget" in f for f in report.failures)
        assert [(r.n, r.estimator, r.reps) for r in report.rows] == [
            (16, "adjacency", 2), (16, "rls", 2)]

    def test_no_worker_without_rls(self, monkeypatch):
        cfg = ExperimentConfig(ns=(16,), ks=(2,), rhos=(1.0,),
                               estimators=("adjacency", "svt"), reps=1, seed=7)
        report, made = run_counting_workers(monkeypatch, cfg)
        assert made == 0 and len(report.rows) == 2


def synthetic_report(risks, axis="n", values=(32, 64, 128, 256)):
    rows = tuple(RiskRow(v if axis == "n" else 64,
                         v if axis == "k" else 4,
                         v if axis == "rho" else 1.0,
                         "adjacency", "cut", risk, 0.0, 1, 0.1)
                 for v, risk in zip(values, risks))
    return RiskReport(rows)


class TestSlopeFit:
    def test_exact_synthetic_slope(self):
        rep = synthetic_report([1 / math.sqrt(n) for n in (32, 64, 128, 256)])
        slope, r2 = fit_rate_slope(rep, "n")
        assert slope == pytest.approx(-0.5, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_transform_axis(self):
        ks = (4, 8, 16, 32)
        rep = synthetic_report(
            [math.sqrt(k / math.log(k)) for k in ks], axis="k", values=ks)
        slope, _ = fit_rate_slope(rep, "k", transform=TRANSFORMS["k-over-logk"])
        assert slope == pytest.approx(0.5, abs=1e-9)

    def test_requires_four_points(self):
        rep = synthetic_report([0.5, 0.4, 0.3], values=(32, 64, 128))
        with pytest.raises(ValidationError):
            fit_rate_slope(rep, "n")

    def test_degenerate_grid_rejected(self):
        rows = synthetic_report([0.5, 0.4, 0.3, 0.2]).rows
        doubled = RiskReport(rows + (rows[0],))
        with pytest.raises(ValidationError):
            fit_rate_slope(doubled, "n")

    def test_filters_select_series(self):
        rows = list(synthetic_report([1 / math.sqrt(n) for n in (32, 64, 128, 256)]).rows)
        extra = [RiskRow(r.n, r.k, r.rho, "mean", "cut", 0.5, 0.0, 1, 0.1)
                 for r in rows]
        rep = RiskReport(tuple(rows + extra))
        slope, _ = fit_rate_slope(rep, "n", estimator="adjacency", metric="cut")
        assert slope == pytest.approx(-0.5, abs=1e-9)
        with pytest.raises(ValidationError):
            fit_rate_slope(rep, "n")

    def test_bad_values_rejected(self):
        rep = synthetic_report([0.5, 0.4, -0.1, 0.2])
        with pytest.raises(ValidationError):
            fit_rate_slope(rep, "n")
        with pytest.raises(ValidationError):
            fit_rate_slope(synthetic_report([0.5] * 4), "bogus")


class TestEmission:
    def test_header_and_roundtrip(self):
        cfg = ExperimentConfig(ns=(16,), ks=(2,), rhos=(0.5,),
                               estimators=("mean",), metrics=("l1", "frobenius"),
                               reps=2, seed=9)
        rep = run_risk_experiment(cfg)
        text = format_csv(rep)
        assert text.splitlines()[0] == CSV_HEADER
        back = parse_csv(text)
        assert back.rows == rep.rows

    def test_empty_report(self):
        assert format_csv(RiskReport(())) == CSV_HEADER + "\n"
        svg = format_svg(RiskReport(()))
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            parse_csv("wrong,header\n")
        with pytest.raises(ValidationError):
            parse_csv(CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(ValidationError):
            parse_csv(CSV_HEADER + "\nx,2,1.0,a,cut,0.1,0.0,1,0.1\n")

    def test_emit_files(self, tmp_path):
        rep = synthetic_report([0.5, 0.4, 0.3, 0.2])
        emit(rep, "csv", tmp_path / "r.csv")
        emit(rep, "svg", tmp_path / "r.svg")
        assert (tmp_path / "r.csv").read_text().startswith(CSV_HEADER)
        body = (tmp_path / "r.svg").read_text()
        assert "<polyline" in body and "stroke-dasharray" in body
        with pytest.raises(ValidationError):
            emit(rep, "png", tmp_path / "r.png")
