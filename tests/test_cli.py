"""End-to-end tests for the command-line front end."""

import numpy as np
import pytest

from cutgraphon import distance
from cutgraphon.cli import main
from cutgraphon.core import (
    StepGraphon,
    load_matrix,
    save_matrix,
    save_stepgraphon,
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "sample", "--k", "2", "--n", "20",
                     "--seed", "7", "--out", str(path))
    assert code == 0
    return path


class TestSample:
    def test_writes_symmetric_binary_matrix(self, graph_file):
        A = load_matrix(graph_file)
        assert A.shape == (20, 20)
        assert np.array_equal(A, A.T)
        assert set(np.unique(A)) <= {0.0, 1.0}
        assert np.all(np.diag(A) == 0)

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "sample", "--k", "2", "--n", "6", "--seed", "1")
        assert code == 0
        assert out.startswith("matrix 6\n")

    def test_custom_graphon_and_theta(self, tmp_path, capsys):
        gpath = tmp_path / "w.txt"
        save_stepgraphon(StepGraphon(np.array([[0.9, 0.1], [0.1, 0.9]]),
                                     np.array([0.5, 0.5])), gpath)
        tpath = tmp_path / "theta.txt"
        code, _, _ = run(capsys, "sample", "--graphon", str(gpath), "--n", "10",
                         "--rho", "0.5", "--theta", str(tpath),
                         "--out", str(tmp_path / "a.txt"))
        assert code == 0
        theta = load_matrix(tpath)
        assert set(np.round(np.unique(theta), 12)) <= {0.0, 0.05, 0.45}

    def test_bad_n_exits_2(self, capsys):
        code, _, err = run(capsys, "sample", "--k", "2", "--n", "0")
        assert code == 2
        assert "invalid input" in err


class TestEstimate:
    @pytest.mark.parametrize("estimator", ["adjacency", "mean", "svt", "rls"])
    def test_each_estimator_writes_prob_matrix(self, estimator, graph_file,
                                               tmp_path, capsys):
        out = tmp_path / f"{estimator}.txt"
        code, _, _ = run(capsys, "estimate", "--input", str(graph_file),
                         "--estimator", estimator, "--k", "2", "--out", str(out))
        assert code == 0
        P = load_matrix(out)
        assert P.shape == (20, 20)
        assert P.min() >= 0 and P.max() <= 1

    def test_rls_k_too_large_exits_2(self, graph_file, capsys):
        code, _, err = run(capsys, "estimate", "--input", str(graph_file),
                           "--estimator", "rls", "--k", "30")
        assert code == 2 and "invalid input" in err


class TestCutnorm:
    def test_exact_matches_known_value(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        save_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]), path)
        code, out, _ = run(capsys, "cutnorm", "--input", str(path),
                           "--mode", "exact")
        assert code == 0
        assert "value=0.25" in out

    def test_heuristic_and_sandwich(self, graph_file, capsys):
        code, out, _ = run(capsys, "cutnorm", "--input", str(graph_file))
        assert code == 0 and out.startswith("value=")
        code, out, _ = run(capsys, "cutnorm", "--input", str(graph_file),
                           "--mode", "sandwich")
        assert code == 0 and "satisfied=True" in out

    def test_exact_over_budget_exits_3(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        save_matrix(np.zeros((30, 30)), path)
        code, _, err = run(capsys, "cutnorm", "--input", str(path),
                           "--mode", "exact")
        assert code == 3 and "budget" in err


class TestDistance:
    def test_identical_graphons_distance_zero(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        save_stepgraphon(StepGraphon(np.array([[0.8, 0.2], [0.2, 0.8]]),
                                     np.array([0.25, 0.75])), path)
        code, out, _ = run(capsys, "distance", "--a", str(path), "--b", str(path),
                           "--exact")
        assert code == 0
        assert float(out.split("upper=")[1].split()[0]) == pytest.approx(0.0, abs=1e-12)

    def test_heuristic_route(self, tmp_path, capsys):
        p1, p2 = tmp_path / "w1.txt", tmp_path / "w2.txt"
        save_stepgraphon(StepGraphon(np.full((1, 1), 0.3), np.ones(1)), p1)
        save_stepgraphon(StepGraphon(np.full((1, 1), 0.7), np.ones(1)), p2)
        code, out, _ = run(capsys, "distance", "--a", str(p1), "--b", str(p2),
                           "--metric", "l1")
        assert code == 0
        assert float(out.split("upper=")[1].split()[0]) == pytest.approx(0.4, abs=1e-12)

    def test_alignment_cost_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        p1, p2 = tmp_path / "w1.txt", tmp_path / "w2.txt"
        save_stepgraphon(StepGraphon(np.array([[0.8, 0.2], [0.2, 0.8]]),
                                     np.array([0.5, 0.5])), p1)
        save_stepgraphon(StepGraphon(np.full((1, 1), 0.5), np.ones(1)), p2)
        # 2 x 1 distinct rows of length 16 is 32 elements
        monkeypatch.setattr(distance, "COST_BUDGET", 31)
        code, _, err = run(capsys, "distance", "--a", str(p1), "--b", str(p2),
                           "--m", "16", "--restarts", "0")
        assert code == 3 and "budget" in err


class TestRegularity:
    def test_decomposition_summary_and_record(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        save_stepgraphon(StepGraphon(np.full((2, 2), 0.9), np.full(2, 0.5)), path)
        out = tmp_path / "approx.txt"
        code, text, _ = run(capsys, "regularity", "--input", str(path),
                            "--q0", "4", "--out", str(out))
        assert code == 0
        assert "terms=1" in text and "stopped_early=True" in text
        assert np.allclose(load_matrix(out), 0.9)

    def test_q0_too_small_exits_2(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        save_stepgraphon(StepGraphon(np.full((2, 2), 0.9), np.full(2, 0.5)), path)
        code, _, _ = run(capsys, "regularity", "--input", str(path), "--q0", "1")
        assert code == 2


class TestPacking:
    def test_matrix_family_saved(self, tmp_path, capsys):
        out = tmp_path / "fam"
        code, text, _ = run(capsys, "packing", "--kind", "matrix", "--n", "16",
                            "--rho", "0.8", "--out", str(out))
        assert code == 0
        assert "fanoReady=True" in text
        assert (out / "metadata.txt").exists()

    def test_bad_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "packing", "--kind", "matrix", "--n", "7")
        assert code == 2


class TestRiskAndSlope:
    CONFIG = """
        n=16
        n=24
        n=32
        n=48
        k=2
        rho=1.0
        estimator=adjacency
        metric=cut
        reps=3
        seed=5
    """

    def write_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.CONFIG)
        return path

    def test_risk_outputs_and_byte_identical_reruns(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        for d in (d1, d2):
            code, text, _ = run(capsys, "risk", "--config", str(cfg),
                                "--out", str(d))
            assert code == 0
            assert "failures=0" in text
        csv1 = (d1 / "risk.csv").read_bytes()
        assert csv1 == (d2 / "risk.csv").read_bytes()
        assert (d1 / "risk.svg").read_bytes() == (d2 / "risk.svg").read_bytes()
        assert csv1.startswith(b"n,k,rho,estimator,metric,mean_risk,stderr,reps,theory\n")

    def test_slope_reads_risk_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        d = tmp_path / "run"
        assert run(capsys, "risk", "--config", str(cfg), "--out", str(d))[0] == 0
        code, out, _ = run(capsys, "slope", "--input", str(d / "risk.csv"),
                           "--varying", "n")
        assert code == 0
        slope = float(out.split("slope=")[1].split()[0])
        assert -1.0 < slope < 0.0

    def test_risk_without_config_exits_2(self, capsys):
        assert run(capsys, "risk")[0] == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n=16\nk=2\nrho=2.5\n")
        assert run(capsys, "risk", "--config", str(path))[0] == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "slope", "--input", str(tmp_path / "nope.csv"),
                           "--varying", "n")
        assert code == 2 and "io error" in err
