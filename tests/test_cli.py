"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

import opmeans.cli as cli
from opmeans.cli import cli_main
from opmeans.matio import load_matrix, save_matrix
from opmeans.randgen import GenSpec, SplitMix64, random_hpd
from opmeans.verify import Verdict, commutator_gap


def run(*argv):
    return cli_main(list(argv))


class TestGen:
    def test_generic(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("gen", "--n", "3", "--seed", "42", "--cond", "50", "--out", str(out)) == 0
        m = load_matrix(str(out))
        assert m.shape == (3, 3)

    def test_generic_matches_library(self, tmp_path):
        out = tmp_path / "m.json"
        run("gen", "--n", "4", "--seed", "7", "--cond", "100", "--out", str(out))
        expected = random_hpd(GenSpec(dim=4, seed=7, cond_target=100.0))
        assert np.array_equal(load_matrix(str(out)), expected)

    def test_commuting_pair(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        code = run("gen", "--n", "3", "--seed", "1", "--family", "commuting",
                   "--out-a", str(fa), "--out-b", str(fb))
        assert code == 0
        assert commutator_gap(load_matrix(str(fa)), load_matrix(str(fb))) <= 1e-10

    def test_near_commuting_pair(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        code = run("gen", "--n", "3", "--seed", "1", "--family", "near-commuting",
                   "--epsilon", "0.5", "--out-a", str(fa), "--out-b", str(fb))
        assert code == 0
        assert commutator_gap(load_matrix(str(fa)), load_matrix(str(fb))) > 1e-4

    def test_missing_out_is_usage_error(self, tmp_path):
        assert run("gen", "--n", "2") == 1

    def test_pair_without_out_files(self, tmp_path):
        assert run("gen", "--n", "2", "--family", "commuting") == 1

    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "1.json", tmp_path / "2.json"
        run("gen", "--n", "3", "--seed", "9", "--out", str(f1))
        run("gen", "--n", "3", "--seed", "9", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestMean:
    def test_heron_commuting_diagonal(self, tmp_path):
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_matrix(str(fa), np.diag([1.0, 4.0]).astype(complex))
        save_matrix(str(fb), np.diag([9.0, 16.0]).astype(complex))
        assert run("mean", "--kind", "heron", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
        assert np.allclose(load_matrix(str(fo)), np.diag([4.0, 9.0]), atol=1e-12)

    def test_all_kinds_run(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=1, cond_target=10.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=2, cond_target=10.0)))
        for kind in ("heron", "wasserstein", "geometric"):
            fo = tmp_path / f"{kind}.json"
            assert run("mean", "--kind", kind, "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0

    def test_not_positive_definite_is_numerical_error(self, tmp_path):
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_matrix(str(fa), np.diag([1.0, -1.0]).astype(complex))
        save_matrix(str(fb), np.eye(2, dtype=complex))
        assert run("mean", "--kind", "heron", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 2

    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert run("mean", "--kind", "arith", "--a", "x", "--b", "y", "--out", "z") == 1


class TestVerify:
    def test_commuting_pair_verdict(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--n", "3", "--seed", "5", "--family", "commuting",
            "--out-a", str(fa), "--out-b", str(fb))
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == Verdict.MEANS_EQUAL_AND_COMMUTE.value
        assert payload["mean_gap"] <= 1e-10
        assert set(payload["residuals"]) == {"r1", "r2", "r3", "r4", "r5", "r6"}

    def test_report_file_and_seed(self, tmp_path):
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        save_matrix(str(fa), np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
        save_matrix(str(fb), np.diag([3.0, 1.0]).astype(complex))
        assert run("verify", "--a", str(fa), "--b", str(fb), "--out", str(fo), "--seed", "5") == 0
        payload = json.loads(fo.read_text())
        assert payload["verdict"] == Verdict.BOTH_GAPS_POSITIVE.value
        assert payload["seed"] == 5
        assert payload["tolerances"]["identity_tol"] == 1e-10

    def test_malformed_entries_exit_1(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text('{"n": 2, "entries": [[1,0],[0,0],[0,0]]}')
        save_matrix(str(fb), np.eye(2, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 1
        err = capsys.readouterr().err
        assert "entries" in err

    def test_counterexample_exit_code(self, tmp_path, monkeypatch):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        save_matrix(str(fb), np.eye(2, dtype=complex))
        monkeypatch.setattr(cli, "classify_gaps", lambda *a, **k: Verdict.COUNTEREXAMPLE_TO_THEOREM)
        assert run("verify", "--a", str(fa), "--b", str(fb), "--out", str(tmp_path / "r.json")) == 3

    def test_tol_override(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        save_matrix(str(fb), np.eye(2, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fb), "--tol", "1e-8",
                   "--out", str(tmp_path / "r.json")) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["tolerances"]["identity_tol"] == 1e-8

    def test_underflowed_residual_scale_exits_2(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0)) * 1e300)
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 2
        assert "residual r2" in capsys.readouterr().err

    def test_bad_tol_is_usage_error(self, tmp_path):
        fa = tmp_path / "a.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", "-1") == 1
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", "inf") == 1


class TestSweep:
    def test_csv_layout(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run("sweep", "--n", "3", "--seed", "4", "--cond", "10",
                   "--epsilons", "0,0.1,0.5", "--trials", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,seed,mean_gap,commutator_gap,trace_gap,verdict"
        assert len(lines) == 1 + 9

    def test_byte_identical_reruns(self, tmp_path):
        f1, f2 = tmp_path / "1.csv", tmp_path / "2.csv"
        args = ["sweep", "--n", "2", "--seed", "11", "--epsilons", "0,0.2", "--trials", "2"]
        assert cli_main(args + ["--out", str(f1)]) == 0
        assert cli_main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_epsilons_usage_error(self, tmp_path):
        assert run("sweep", "--n", "2", "--epsilons", "0,zebra", "--trials", "1",
                   "--out", str(tmp_path / "s.csv")) == 1

    def test_decreasing_epsilons_rejected(self, tmp_path):
        assert run("sweep", "--n", "2", "--epsilons", "0.5,0.1", "--trials", "1",
                   "--out", str(tmp_path / "s.csv")) == 1


class TestMinimize:
    def test_descent_collapses_commutator(self, tmp_path):
        fa, fb, fo, ff = (tmp_path / x for x in ("a.json", "b0.json", "t.csv", "bf.json"))
        save_matrix(str(fa), np.diag([1.0, 2.0]).astype(complex))
        save_matrix(str(fb), random_hpd(GenSpec(dim=2, seed=3, cond_target=5.0)))
        code = run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "2000",
                   "--out", str(fo), "--out-b", str(ff))
        assert code == 0
        lines = fo.read_text().splitlines()
        assert lines[0] == "step,mean_gap,commutator_gap,objective"
        final_b = load_matrix(str(ff))
        assert commutator_gap(np.diag([1.0, 2.0]).astype(complex), final_b) <= 1e-4

    def test_budget_zero_usage_error(self, tmp_path):
        fa = tmp_path / "a.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        assert run("minimize", "--a", str(fa), "--b0", str(fa), "--budget", "0",
                   "--out", str(tmp_path / "t.csv")) == 1

    @pytest.mark.parametrize("b0, code", [
        (np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 2),
        (np.diag([1.0, -1.0, 2.0]), 2),
        (np.eye(2), 1),
    ], ids=["not-hermitian", "not-positive-definite", "wrong-size"])
    def test_bad_b0(self, tmp_path, b0, code):
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), np.eye(3, dtype=complex))
        save_matrix(str(fb), b0.astype(complex))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == code

    def test_underflowed_gradient_normalization_exits_2(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0)) * 1e-170)
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0)) * 1e-170)
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert "gradient normalization" in capsys.readouterr().err


class TestLemmaAh:
    def test_aligned_triple(self, tmp_path, capsys):
        from opmeans.randgen import SplitMix64

        w = np.linalg.qr(SplitMix64(3).complex_gaussian_matrix(3))[0]
        p = random_hpd(GenSpec(dim=3, seed=4, cond_target=10.0))
        q = random_hpd(GenSpec(dim=3, seed=5, cond_target=10.0))
        fx, fy = tmp_path / "x.json", tmp_path / "y.json"
        save_matrix(str(fx), w @ p)
        save_matrix(str(fy), w @ q)
        assert run("lemma-ah", "--x", str(fx), "--y", str(fy)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triangle_residual"] <= 1e-10
        witness = np.array([complex(re, im) for re, im in payload["witness"]["entries"]]).reshape(3, 3)
        assert np.linalg.norm(witness - w) <= 1e-8

    def test_misaligned_pair_exit_2(self, tmp_path):
        fx, fy = tmp_path / "x.json", tmp_path / "y.json"
        save_matrix(str(fx), np.eye(2, dtype=complex))
        save_matrix(str(fy), np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
        assert run("lemma-ah", "--x", str(fx), "--y", str(fy)) == 2

    @pytest.mark.parametrize("e", [330, -330, 600, -600])
    def test_scaled_triple_matches_twin(self, tmp_path, capsys, e):
        w = np.linalg.qr(SplitMix64(3).complex_gaussian_matrix(3))[0]
        x = w @ random_hpd(GenSpec(dim=3, seed=4, cond_target=10.0))
        y = w @ random_hpd(GenSpec(dim=3, seed=5, cond_target=10.0))
        reports = []
        for tag, c in (("twin", 1.0), ("scaled", 2.0**e)):
            fx, fy = tmp_path / f"{tag}_x.json", tmp_path / f"{tag}_y.json"
            save_matrix(str(fx), x * c)
            save_matrix(str(fy), y * c)
            assert run("lemma-ah", "--x", str(fx), "--y", str(fy)) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestUsage:
    def test_no_command(self):
        assert run() == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run("mean", "--kind", "heron") == 1
