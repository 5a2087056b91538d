"""End-to-end tests for the command-line front end."""

import argparse
import ast
import inspect

import numpy as np
import pytest

from cutgraphon import cli, distance
from cutgraphon.cli import build_parser, main
from cutgraphon.core import (
    StepGraphon,
    load_matrix,
    save_matrix,
    save_stepgraphon,
)
from cutgraphon.experiments import RiskReport, RiskRow, format_csv
from cutgraphon.packing import graphon_packing, load_packing_family


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def option_reads(handler):
    """Names of ``args.<name>`` read by a handler and by the cli helpers it passes args to."""
    tree = ast.parse(inspect.getsource(cli))
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads, seen, todo = set(), set(), [handler.__name__]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in funcs
                  and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                todo.append(node.func.id)
    return reads


def unread_options(parser):
    """(subcommand, option) pairs that the subcommand's handler never reads."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, p in sub.choices.items():
        reads = option_reads(p.get_default("func"))
        unread += [(command, a.option_strings[0]) for a in p._actions
                   if a.dest != "help" and a.dest not in reads]
    return unread


class TestOptions:
    def test_checker_flags_an_unread_option(self):
        p = argparse.ArgumentParser()
        s = p.add_subparsers().add_parser("slope")
        s.add_argument("--input")
        s.add_argument("--seed")
        s.set_defaults(func=cli._cmd_slope)
        assert unread_options(p) == [("slope", "--seed")]

    def test_every_option_is_read(self):
        assert unread_options(build_parser()) == []

    def test_unread_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["risk", "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rejected", [
        ("estimate --input {A} --estimator svt --k 9 --rho 0.3 --restarts 7 --seed 5",
         ["--k", "--rho", "--restarts", "--seed"]),
        ("distance --a {W} --b {W} --exact --m 4 --restarts 3 --seed 1",
         ["--m", "--restarts", "--seed"]),
        ("sample --graphon {W} --k 3 --n 5", ["--k"]),
        ("packing --kind matrix --n 16 --k 64", ["--k"]),
        ("packing --kind graphon --n 64 --rho 0.5", ["--rho"]),
        ("cutnorm --input {A} --mode exact --restarts 3 --seed 1", ["--restarts", "--seed"]),
    ], ids=["estimate-svt", "distance-exact", "sample-graphon", "packing-matrix",
            "packing-graphon", "cutnorm-exact"])
    def test_option_read_only_on_another_branch_exits_2(self, argv, rejected,
                                                        tmp_path, capsys):
        A, W = tmp_path / "a.txt", tmp_path / "w.txt"
        save_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), A)
        save_stepgraphon(StepGraphon(np.full((1, 1), 0.5), np.ones(1)), W)
        code, out, err = run(capsys, *(arg.format(A=A, W=W) for arg in argv.split()))
        assert code == 2 and out == ""
        assert all(opt in err for opt in rejected)


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "sample", "--k", "2", "--n", "20",
                     "--seed", "7", "--out", str(path))
    assert code == 0
    return path


@pytest.mark.parametrize("argv", [
    "sample --n 10", "estimate --estimator rls --input {A}", "cutnorm --input {A}",
    "distance --a {W} --b {W}", "packing --kind graphon --k 2 --n 16"],
    ids=["sample", "estimate", "cutnorm", "distance", "packing-graphon"])
def test_negative_seed_exits_2(argv, graph_file, tmp_path, capsys):
    W = tmp_path / "w.txt"
    save_stepgraphon(StepGraphon(np.array([[0.8, 0.2], [0.2, 0.8]]), np.full(2, 0.5)), W)
    code, _, err = run(capsys, *argv.format(A=graph_file, W=W).split(), "--seed", "-1")
    assert code == 2 and "invalid input" in err


@pytest.mark.parametrize("command, option", [("cutnorm", "--input"), ("risk", "--config")])
def test_undecodable_file_exits_2(command, option, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, command, option, str(path))
    assert code == 2 and "invalid input" in err


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

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_bad_k_exits_2(self, k, capsys):
        code, _, err = run(capsys, "sample", "--k", k, "--n", "10")
        assert code == 2 and "invalid input" in err

    def test_oversized_theta_exits_3(self, capsys):
        # 300000^2 probabilities would take 671 GiB
        code, out, err = run(capsys, "sample", "--n", "300000", "--k", "2")
        assert code == 3 and out == ""
        assert err.startswith("budget exhausted") and "Traceback" not in err

    def test_oversized_latents_exit_3(self, capsys):
        # 10^12 latent positions alone would take 7.28 TiB
        code, out, err = run(capsys, "sample", "--n", "1000000000000", "--k", "2")
        assert code == 3 and out == ""
        assert err.startswith("budget exhausted") and "Traceback" not in err


class TestEstimate:
    @pytest.mark.parametrize("estimator", ["adjacency", "mean", "svt", "rls"])
    def test_each_estimator_writes_prob_matrix(self, estimator, graph_file,
                                               tmp_path, capsys):
        out = tmp_path / f"{estimator}.txt"
        k = ["--k", "2"] if estimator == "rls" else []
        code, _, _ = run(capsys, "estimate", "--input", str(graph_file),
                         "--estimator", estimator, *k, "--out", str(out))
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

    def test_sandwich_without_restarts_exits_2(self, graph_file, capsys):
        # n=20 takes the heuristic infinity-to-one route, which needs a restart
        code, out, err = run(capsys, "cutnorm", "--input", str(graph_file),
                             "--mode", "sandwich", "--restarts", "0")
        assert code == 2 and "restarts" in err and out == ""

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

    def test_oversized_blowup_exits_3(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        save_stepgraphon(StepGraphon(np.full((1, 1), 0.5), np.ones(1)), path)
        code, out, err = run(capsys, "distance", "--a", str(path), "--b", str(path),
                             "--m", "300000")
        assert code == 3 and out == ""
        assert err.startswith("budget exhausted") and "Traceback" not in err


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

    def test_q0_beyond_64_bits(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        save_stepgraphon(StepGraphon(np.full((2, 2), 0.9), np.full(2, 0.5)), path)
        code, text, err = run(capsys, "regularity", "--input", str(path),
                              "--q0", str(2**64))
        assert code == 0 and "Traceback" not in err
        assert "terms=1" in text


class TestPacking:
    def test_matrix_family_saved(self, tmp_path, capsys):
        out = tmp_path / "fam"
        code, text, _ = run(capsys, "packing", "--kind", "matrix", "--n", "16",
                            "--rho", "0.8", "--out", str(out))
        assert code == 0
        assert "fanoReady=True" in text
        assert (out / "metadata.txt").exists()

    def test_graphon_family_saved(self, tmp_path, capsys):
        out = tmp_path / "fam"
        code, text, _ = run(capsys, "packing", "--kind", "graphon", "--k", "2", "--n", "16",
                            "--out", str(out))
        assert code == 0 and text.startswith("kind=graphon count=2 ")
        back, fam = load_packing_family(out), graphon_packing(2, 16)
        assert (back.kind, back.n, back.k, back.separation_lower) == (
            "graphon", 16, 2, fam.separation_lower)
        for a, b in zip(back.elements, fam.elements, strict=True):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_bad_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "packing", "--kind", "matrix", "--n", "7")
        assert code == 2

    def test_code_over_budget_exits_3(self, capsys):
        # the code would need ceil(e^16) vectors
        code, out, err = run(capsys, "packing", "--kind", "matrix", "--n", "256")
        assert code == 3 and "budget" in err and out == ""


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

    def test_slope_transform_undefined_at_k_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "risk.csv"
        path.write_text(format_csv(RiskReport(tuple(
            RiskRow(64, k, 1.0, "adjacency", "cut", 0.5 / k, 0.0, 1, 0.1) for k in (1, 2, 4, 8)))))
        code, _, err = run(capsys, "slope", "--input", str(path), "--varying", "k",
                           "--transform", "k-over-logk")
        assert code == 2 and "invalid input" in err and "k=1" in err

    def test_failed_cell_reported_on_stderr(self, tmp_path, capsys):
        # rls cannot fit 5 blocks to 4 nodes
        path = tmp_path / "rls.cfg"
        path.write_text("n=4\nk=5\nrho=1.0\nestimator=rls\nreps=1\n")
        code, out, err = run(capsys, "risk", "--config", str(path),
                             "--out", str(tmp_path / "run"))
        assert code == 0 and "rows=0 failures=1" in out
        assert err.startswith("cell failed: n=4,k=5,rho=1.0,rep=0,estimator=rls: ")

    def test_risk_without_config_exits_2(self, capsys):
        assert run(capsys, "risk")[0] == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n=16\nk=2\nrho=2.5\n")
        assert run(capsys, "risk", "--config", str(path))[0] == 2

    def test_graphon_level_with_k_not_dividing_n_exits_2(self, tmp_path, capsys):
        # k = 8 does not divide n = 50, so the truth would be rounded to 50 steps
        path = tmp_path / "rounded.cfg"
        path.write_text("n=48\nn=50\nk=8\nrho=1.0\nlevel=graphon\n")
        code, _, err = run(capsys, "risk", "--config", str(path))
        assert code == 2 and "invalid input" in err and "(50, 8)" in err
        path.write_text("n=48\nn=56\nk=8\nrho=1.0\nreps=1\nlevel=graphon\n")
        assert run(capsys, "risk", "--config", str(path), "--out", str(tmp_path / "ok"))[0] == 0

    def test_outdir_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "old.cfg"
        path.write_text(f"n=16\nk=2\nrho=1.0\noutdir={tmp_path / 'x'}\n")
        code, _, err = run(capsys, "risk", "--config", str(path))
        assert code == 2 and "outdir" in err
        assert not (tmp_path / "x").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "slope", "--input", str(tmp_path / "nope.csv"),
                           "--varying", "n")
        assert code == 2 and "io error" in err
