"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import opmeans.cli as cli
from opmeans.cli import cli_main
from opmeans.matio import load_matrix, save_matrix
from opmeans.randgen import GenSpec, SplitMix64, random_hpd
from opmeans.verify import GapObjective, Verdict, commutator_gap


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

    @pytest.mark.parametrize("args, digests", [
        (["--family", "generic", "--n", "5", "--seed", "11", "--cond", "50"],
         ["dc20f11bacf5c0c67c8a0571794e06ee9b3109394accc9894ad1a19dc7655cd4"]),
        (["--family", "commuting", "--n", "4", "--seed", "7", "--cond", "100"],
         ["2b15381327b34c17b65006f29e3589c0e6c53a716e993b86c610d826aedce734",
          "56ac2209c05e119a88adb6811648395e03ab6e478b149534716fe4f4a9aa88ff"]),
        (["--family", "near-commuting", "--n", "4", "--seed", "3", "--cond", "10", "--epsilon", "0"],
         ["d8e0e74a26f0fba61c089900f622db24193e3198120e02ab3a08385605f85078",
          "514e856e0072233c12302d277eb68c1a988e48954188caae59bacf4d8213b62c"]),
        (["--family", "near-commuting", "--n", "4", "--seed", "3", "--cond", "10", "--epsilon", "0.3"],
         ["d8e0e74a26f0fba61c089900f622db24193e3198120e02ab3a08385605f85078",
          "86dd484d90d8eee891e383ad33ef73c707b8cd647f053bab69e4c1f1fdd72028"]),
        (["--family", "near-commuting", "--n", "6", "--seed", "99", "--cond", "1000", "--epsilon", "0.01"],
         ["47780f3a771951ba36fee8960720c6acdf6de2f1eab91233f0da3af60dcba4e8",
          "9860a37701211ee902e39f40f9f90e24b03ca14a815e19f4840ad2814b235dbf"]),
        (["--family", "generic", "--n", "24", "--seed", "5", "--cond", "100"],
         ["f48ed96a91b9c70f3a4628203a3d3ed722b98b4543c450678b0bcbe8cd8f1de6"]),
        (["--family", "near-commuting", "--n", "24", "--seed", "8", "--cond", "100", "--epsilon", "0.1"],
         ["a110dd7af6c45635124908b6a37f9cb3f01138adb286f5898a489f4bfb7647d7",
          "06e60e62265875f45945cfe0e9347ff7c1263784a17db81d30150da76d647442"]),
    ], ids=["generic", "commuting", "near-0", "near-0.3", "near-0.01", "generic-24", "near-0.1-24"])
    def test_output_bytes_pinned(self, tmp_path, args, digests):
        # a generated pair keeps the spectra it was drawn from, but its
        # matrices are assembled in the drawn order, so their bytes hold
        if len(digests) == 1:
            files = [tmp_path / "m.json"]
            outs = ["--out", str(files[0])]
        else:
            files = [tmp_path / "a.json", tmp_path / "b.json"]
            outs = ["--out-a", str(files[0]), "--out-b", str(files[1])]
        assert run("gen", *args, *outs) == 0
        assert [hashlib.sha256(f.read_bytes()).hexdigest() for f in files] == digests

    def test_near_commuting_pair(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        code = run("gen", "--n", "3", "--seed", "1", "--family", "near-commuting",
                   "--epsilon", "0.5", "--out-a", str(fa), "--out-b", str(fb))
        assert code == 0
        assert commutator_gap(load_matrix(str(fa)), load_matrix(str(fb))) > 1e-4

    def test_exponential_overflow_is_domain_error(self, tmp_path, capsys):
        # log B0 + epsilon K has an eigenvalue whose exponential overflows
        fa, fb, fs = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "s.csv"
        code = run("gen", "--n", "3", "--family", "near-commuting", "--epsilon", "1e300",
                   "--out-a", str(fa), "--out-b", str(fb))
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical error: exponential overflows at eigenvalue 3.2602711627054825e+299\n")
        # a sweep records the failure in its row and goes on
        assert run("sweep", "--n", "3", "--epsilons", "1e300", "--trials", "1", "--out", str(fs)) == 0
        assert fs.read_text().splitlines()[1].endswith(",error:DomainError")

    def test_missing_out_is_usage_error(self, tmp_path):
        assert run("gen", "--n", "2") == 1

    def test_pair_without_out_files(self, tmp_path):
        assert run("gen", "--n", "2", "--family", "commuting") == 1

    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "1.json", tmp_path / "2.json"
        run("gen", "--n", "3", "--seed", "9", "--out", str(f1))
        run("gen", "--n", "3", "--seed", "9", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("tol", ["-1", "inf", "1e-13"])
    @pytest.mark.parametrize("family", ["generic", "commuting", "near-commuting"])
    def test_bad_tol_refused_for_every_family(self, tmp_path, capsys, family, tol):
        # gen checks --tol as the other subcommands do, though no family's
        # draw depends on it, and writes nothing
        outs = ["--out", str(tmp_path / "g.json"), "--out-a", str(tmp_path / "ga.json"),
                "--out-b", str(tmp_path / "gb.json")]
        assert run("gen", "--n", "3", "--family", family, *outs, "--tol", tol) == 1
        err = capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        fa = tmp_path / "a.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", tol) == 1
        assert capsys.readouterr().err == err and err.startswith("input error: identity_tol must ")


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

    @pytest.mark.parametrize("a, b", [([1e-310, 1e-310], [1.0, 2.0]), ([1e-11, 1.0], [1e300, 1e300])],
                             ids=["subnormal-a", "mixed-scale"])
    def test_geometric_congruence_out_of_range_exits_2(self, tmp_path, capsys, a, b):
        # the other two means are defined on these pairs, while the geometric
        # mean's A^{-1/2} B A^{-1/2} leaves the double range
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_matrix(str(fa), np.diag(a).astype(complex))
        save_matrix(str(fb), np.diag(b).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("heron", "wasserstein"):
                assert run("mean", "--kind", kind, "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
            assert run("mean", "--kind", "geometric", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 2
        assert capsys.readouterr().err == (
            "numerical error: congruence A^{-1/2} B A^{-1/2} leaves the double range; scale the pair\n")

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

    def test_integer_beyond_double_range_exit_1(self, tmp_path, capsys):
        fa, fb = tmp_path / "big.json", tmp_path / "one.json"
        fa.write_text('{"n": 1, "entries": [[1%s, 0]]}' % ("0" * 400))
        save_matrix(str(fb), np.eye(1, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 1
        assert "entries[0] must be finite" in capsys.readouterr().err

    def test_entries_not_an_array_exit_1(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text('{"n": 1, "entries": {"0": [1, 0]}}')
        save_matrix(str(fb), np.eye(1, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 1
        assert capsys.readouterr().err == f"input error: {fa}: field 'entries' must be an array\n"

    def test_indefinite_b_exit_2(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), np.eye(3, dtype=complex))
        save_matrix(str(fb), np.diag([1.0, 2.0, -1.0]).astype(complex))
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 2
        assert capsys.readouterr().err == "numerical error: matrix b is not positive definite\n"

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

    @pytest.mark.parametrize("seed, family, cond", [(1, "commuting", "1e10"), (2, "generic", "9e11"),
                                                   (3, "commuting", "1e10"), (4, "generic", "9e11")],
                             ids=["1", "2", "3", "4"])
    def test_singular_y_report_is_json(self, tmp_path, seed, family, cond):
        # Y is singular within the floor: r5 is null, which polar_singular
        # explains, not an Infinity literal, which JSON does not have. For
        # a valid pair sigma_min(Y) / sigma_max(Y) > 1e-12 in exact
        # arithmetic, so only roundoff in the core's smallest eigenvalue
        # reaches the floor; a generic pair takes its B from seed + 10
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        if family == "commuting":
            assert run("gen", "--n", "8", "--seed", str(seed), "--cond", cond, "--family", "commuting",
                       "--out-a", str(fa), "--out-b", str(fb)) == 0
        else:
            assert run("gen", "--n", "8", "--seed", str(seed), "--cond", cond, "--out", str(fa)) == 0
            assert run("gen", "--n", "8", "--seed", str(seed + 10), "--cond", cond, "--out", str(fb)) == 0
        assert run("verify", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0

        def refuse(literal):
            raise AssertionError(f"{literal} is not JSON")
        payload = json.loads(fo.read_text(), parse_constant=refuse)
        assert payload["polar_singular"] is True
        assert payload["residuals"]["r5"] is None

    def test_bad_tol_is_usage_error(self, tmp_path):
        fa = tmp_path / "a.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", "-1") == 1
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", "inf") == 1


class TestTolMovesOnlyVerdicts:
    """`--tol` is the one setting: it decides verdicts and exit codes and
    moves no other output byte. The pair and the sweep below straddle the
    two tolerances, so some verdicts and one exit code do change."""

    TOLS = ((), ("--tol", "1e-8"))

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        # mean gap 1.9e-9 and commutator gap 1.8e-4: the two tolerances
        # give BothGapsPositive and CounterexampleToTheorem
        assert run("gen", "--family", "near-commuting", "--n", "2", "--cond", "3", "--epsilon", "1e-3",
                   "--seed", "15", "--out-a", str(d / "na.json"), "--out-b", str(d / "nb.json")) == 0
        for name, seed in (("a", 1), ("b", 2)):
            assert run("gen", "--n", "4", "--seed", str(seed), "--cond", "100", "--out", str(d / f"{name}.json")) == 0
        return d

    def outputs(self, tmp_path, capsys, argv, outs):
        """(exit code, stdout, stderr, output files) at each tolerance."""
        runs = []
        for i, tol in enumerate(self.TOLS):
            files = [tmp_path / f"{i}-{name}" for name in outs]
            flags = [arg for flag, f in zip(outs.values(), files) for arg in (flag, str(f))]
            code = run(*argv, *flags, *tol)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err, [f.read_bytes() for f in files]))
        return runs

    @staticmethod
    def differing_lines(first, second):
        lines = first.splitlines(), second.splitlines()
        assert len(lines[0]) == len(lines[1])
        return [pair for pair in zip(*lines) if pair[0] != pair[1]]

    @pytest.mark.parametrize("pair, codes", [(("na", "nb"), (0, 3)), (("a", "b"), (0, 0))], ids=["near", "generic"])
    def test_verify(self, tmp_path, capsys, inputs, pair, codes):
        argv = ["verify", "--a", str(inputs / f"{pair[0]}.json"), "--b", str(inputs / f"{pair[1]}.json")]
        (code0, out0, err0, _), (code1, out1, err1, _) = self.outputs(tmp_path, capsys, argv, {})
        assert (code0, code1) == codes and err0 == err1 == ""
        for line0, line1 in self.differing_lines(out0, out1):
            assert line0.startswith(('  "verdict": ', '    "identity_tol": ')), (line0, line1)
        for text, tol in ((out0, 1e-10), (out1, 1e-8)):
            assert json.loads(text)["tolerances"] == {
                "eig_off_diag_tol": 1e-15, "identity_tol": tol, "max_jacobi_sweeps": 100, "positivity_floor": 1e-12}
            assert '    "max_jacobi_sweeps": 100,\n' in text
        assert (json.loads(out0)["verdict"] != json.loads(out1)["verdict"]) == (codes == (0, 3))

    def test_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--n", "2", "--seed", "1", "--cond", "3", "--epsilons", "0,1e-4,1e-3,1e-2", "--trials", "3"]
        (code0, out0, err0, [csv0]), (code1, out1, err1, [csv1]) = self.outputs(
            tmp_path, capsys, argv, {"s.csv": "--out"})
        assert code0 == code1 == 3 and out0 == out1 == err0 == err1 == ""
        rows0, rows1 = csv0.decode().splitlines(), csv1.decode().splitlines()
        assert [r.rsplit(",", 1)[0] for r in rows0] == [r.rsplit(",", 1)[0] for r in rows1]
        assert [r.rsplit(",", 1)[1] for r in rows0] != [r.rsplit(",", 1)[1] for r in rows1]

    @pytest.mark.parametrize("argv, outs", [
        (["minimize", "--a", "a", "--b0", "b", "--budget", "5"], {"t.csv": "--out", "b.json": "--out-b"}),
        (["mean", "--kind", "heron", "--a", "a", "--b", "b"], {"m.json": "--out"}),
        (["mean", "--kind", "geometric", "--a", "a", "--b", "b"], {"m.json": "--out"}),
        (["mean", "--kind", "wasserstein", "--a", "a", "--b", "b"], {"m.json": "--out"}),
        (["lemma-ah", "--x", "a", "--y", "a"], {}),
        (["gen", "--n", "4", "--seed", "7"], {"g.json": "--out"}),
        (["gen", "--family", "commuting", "--n", "4", "--seed", "7"], {"ga.json": "--out-a", "gb.json": "--out-b"}),
        (["gen", "--family", "near-commuting", "--n", "4", "--seed", "7", "--epsilon", "0.1"],
         {"ga.json": "--out-a", "gb.json": "--out-b"}),
    ], ids=["minimize", "heron", "geometric", "wasserstein", "lemma-ah", "gen", "gen-commuting", "gen-near-commuting"])
    def test_every_byte_kept(self, tmp_path, capsys, inputs, argv, outs):
        argv = [str(inputs / f"{arg}.json") if arg in ("a", "b") else arg for arg in argv]
        first, second = self.outputs(tmp_path, capsys, argv, outs)
        assert first == second and first[0] == 0


class TestComputedMatricesCheckedAtDefault:
    """The asymmetry checks on the means the library computes run at the
    default identity_tol 1e-10 under every `--tol`. On this valid n = 6
    pair at cond 9e11 the computed Wasserstein mean's asymmetry is 1.9e-11
    of its norm, within 1e-10, and the computed geometric mean's 7.3e-9,
    beyond it."""

    GEOMETRIC_REFUSAL = "numerical error: asymmetry 1.378e-11 exceeds 1.0e-10 * ||H||_F = 1.899e-13\n"

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cond9e11")
        for name, seed in (("a", 3), ("b", 103)):
            assert run("gen", "--n", "6", "--cond", "9e11", "--seed", str(seed), "--out", str(d / f"{name}.json")) == 0
        return ["--a", str(d / "a.json"), "--b", str(d / "b.json")]

    def test_verify_at_tight_tol(self, capsys, pair):
        assert run("verify", *pair, "--tol", "1e-11") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["tolerances"]["identity_tol"] == 1e-11

    def test_wasserstein_at_tight_tol(self, tmp_path, capsys, pair):
        assert run("mean", "--kind", "wasserstein", *pair, "--out", str(tmp_path / "w.json"), "--tol", "1e-11") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("tol", [(), ("--tol", "1e-8")], ids=["default", "1e-8"])
    def test_geometric_refused_at_every_tol(self, tmp_path, capsys, pair, tol):
        assert run("mean", "--kind", "geometric", *pair, "--out", str(tmp_path / "g.json"), *tol) == 2
        assert capsys.readouterr().err == self.GEOMETRIC_REFUSAL
        assert not (tmp_path / "g.json").exists()


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

    def test_stalled_line_search_warns(self, tmp_path, monkeypatch, capsys):
        # an ascent direction: every trial step fails the Armijo test
        gradient = GapObjective.gradient
        monkeypatch.setattr(GapObjective, "gradient", lambda self, s: -gradient(self, s))
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b0.json", tmp_path / "t.csv"
        save_matrix(str(fa), np.diag([1.0, 10.0]).astype(complex))
        save_matrix(str(fb), random_hpd(GenSpec(dim=2, seed=3, cond_target=100.0)))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "5", "--out", str(fo)) == 0
        assert len(fo.read_text().splitlines()) == 2  # the header and step 0
        assert capsys.readouterr().err == "warning: line search stalled before the budget was used\n"

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

    def test_overflowing_core_exits_2(self, tmp_path, capsys):
        # A^{1/2} B A^{1/2} reaches 1e400: a numerical error before the
        # eigensolver, not the malformed-input exit 1 that its inf entries
        # would give, and no floating-point warning (an error under pytest)
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0)) * 1e200)
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0)) * 1e200)
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert "core A^{1/2} B A^{1/2} leaves the double range" in capsys.readouterr().err


    def test_indefinite_a_past_half_max_exits_2(self, tmp_path, capsys):
        # eigenvalues -7e307 (twice) and 1.7e308: not the converged step 0
        # that a norm overflowing to inf gave
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), np.array([[1e307, 8e307, 8e307], [8e307, 1e307, 8e307],
                                       [8e307, 8e307, 1e307]], dtype=complex))
        save_matrix(str(fb), np.eye(3, dtype=complex))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert "square root undefined" in capsys.readouterr().err

    def test_overflowing_norm_product_exits_2(self, tmp_path, capsys):
        # ||A||_F ||B||_F is past DBL_MAX while the core stays in range: not a
        # commutator gap of 0
        a = random_hpd(GenSpec(dim=8, seed=3, cond_target=3.0))
        b = random_hpd(GenSpec(dim=8, seed=4, cond_target=3.0))
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), a / np.max(np.linalg.eigvalsh(a)) * 1e308)
        save_matrix(str(fb), b / np.max(np.linalg.eigvalsh(b)))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert "||A||_F ||B||_F = " in capsys.readouterr().err

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

    # sha256 of the report on a zero matrix beside 1e-200 I or 1e-310 I, in
    # either order, taken before a zero matrix's exponent was read alone
    ZERO_BESIDE_TINY = "0a37a62958bbb950e6a767cb1d1c74c40151ce87ffc4c2808079cb538946aba5"

    @pytest.mark.parametrize("tiny", [1e-200, 1e-310])
    @pytest.mark.parametrize("zero_first", [True, False])
    def test_zero_beside_tiny(self, tmp_path, capsys, tiny, zero_first):
        fz, ft = tmp_path / "z.json", tmp_path / "t.json"
        save_matrix(str(fz), np.zeros((2, 2), dtype=complex))
        save_matrix(str(ft), tiny * np.eye(2, dtype=complex))
        fx, fy = (fz, ft) if zero_first else (ft, fz)
        assert run("lemma-ah", "--x", str(fx), "--y", str(fy)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.ZERO_BESIDE_TINY

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

    def test_subcommand_parser_parses_as_full_parser(self):
        argv = ["minimize", "--a", "a.json", "--b0", "b.json", "--budget", "4", "--out", "t.csv", "--tol", "1e-9"]
        alone, full = cli.build_parser("minimize"), cli.build_parser()
        assert vars(alone.parse_args(argv)) == vars(full.parse_args(argv))
        with pytest.raises(cli._UsageError, match="invalid choice: 'gen'"):
            alone.parse_args(["gen", "--n", "2"])
        # any other name gets the full parser, whose error lists every subcommand
        with pytest.raises(cli._UsageError, match="'minimize', 'lemma-ah'"):
            cli.build_parser("frobnicate").parse_args(["frobnicate"])


class TestModuleEntryPoint:
    """`python -m opmeans` and `python -m opmeans.cli` run the CLI from a
    checkout that is not installed."""

    @staticmethod
    def python_m(module, *argv, cwd):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("module", ["opmeans", "opmeans.cli"])
    def test_gen_writes_its_file(self, tmp_path, module):
        done = self.python_m(module, "gen", "--n", "3", "--seed", "42", "--out", "m.json", cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert np.array_equal(load_matrix(str(tmp_path / "m.json")), random_hpd(GenSpec(dim=3, seed=42)))

    @pytest.mark.parametrize("module", ["opmeans", "opmeans.cli"])
    def test_missing_option_is_usage_error(self, tmp_path, module):
        done = self.python_m(module, "verify", "--b", "b.json", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == "usage error: the following arguments are required: --a\n"

    def test_main_exits_with_the_code(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["opmeans", "verify"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1


class TestUnwritableOutput:
    """An output that cannot be opened exits 1 with one line naming it."""

    COMMANDS = {
        "gen": ["gen", "--n", "3", "--out", "{bad}"],
        "gen-out-a": ["gen", "--n", "3", "--family", "commuting", "--out-a", "{bad}", "--out-b", "{ok}"],
        "gen-out-b": ["gen", "--n", "3", "--family", "commuting", "--out-a", "{ok}", "--out-b", "{bad}"],
        "mean": ["mean", "--kind", "heron", "--a", "{a}", "--b", "{b}", "--out", "{bad}"],
        "verify": ["verify", "--a", "{a}", "--b", "{b}", "--out", "{bad}"],
        "sweep": ["sweep", "--n", "2", "--epsilons", "0", "--trials", "1", "--out", "{bad}"],
        "minimize": ["minimize", "--a", "{a}", "--b0", "{b}", "--budget", "2", "--out", "{bad}"],
        "minimize-out-b": ["minimize", "--a", "{a}", "--b0", "{b}", "--budget", "2", "--out", "{ok}",
                           "--out-b", "{bad}"],
        "lemma-ah": ["lemma-ah", "--x", "{a}", "--y", "{a}", "--out", "{bad}"],
    }

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_1_naming_the_path(self, tmp_path, capsys, command, where):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=1, cond_target=10.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=2, cond_target=10.0)))
        bad = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
        paths = {"a": fa, "b": fb, "ok": tmp_path / "ok.out", "bad": bad}
        assert run(*(arg.format(**paths) for arg in self.COMMANDS[command])) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(bad) in err


class TestOutputsCheckedFirst:
    """A bad output path exits 1 before any work and leaves no other output."""

    @pytest.fixture
    def pair(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=1, cond_target=10.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=2, cond_target=10.0)))
        return str(fa), str(fb)

    @staticmethod
    def refuse(monkeypatch, name):
        def work(*args, **kwargs):
            raise AssertionError(f"{name} ran before the output check")
        monkeypatch.setattr(cli, name, work)

    def test_verify_skips_the_report(self, tmp_path, monkeypatch, capsys, pair):
        self.refuse(monkeypatch, "proof_chain_report")
        bad = tmp_path / "missing" / "r.json"
        assert run("verify", "--a", pair[0], "--b", pair[1], "--out", str(bad)) == 1
        assert capsys.readouterr().err == f"output error: [Errno 2] No such file or directory: '{bad}'\n"

    def test_minimize_skips_the_descent(self, tmp_path, monkeypatch, capsys, pair):
        self.refuse(monkeypatch, "minimize_gap")
        bad = tmp_path / "missing" / "t.csv"
        assert run("minimize", "--a", pair[0], "--b0", pair[1], "--budget", "5", "--out", str(bad)) == 1
        assert capsys.readouterr().err == f"output error: [Errno 2] No such file or directory: '{bad}'\n"

    def test_gen_pair_leaves_no_first_file(self, tmp_path, monkeypatch, capsys):
        self.refuse(monkeypatch, "random_commuting_pair")
        fa, bad = tmp_path / "a.json", tmp_path / "missing" / "b.json"
        assert run("gen", "--n", "3", "--family", "commuting", "--out-a", str(fa), "--out-b", str(bad)) == 1
        assert not fa.exists()
        assert capsys.readouterr().err == f"output error: [Errno 2] No such file or directory: '{bad}'\n"

    def test_minimize_leaves_no_trajectory(self, tmp_path, monkeypatch, capsys, pair):
        self.refuse(monkeypatch, "minimize_gap")
        fo = tmp_path / "t.csv"
        assert run("minimize", "--a", pair[0], "--b0", pair[1], "--budget", "5", "--out", str(fo),
                   "--out-b", str(tmp_path)) == 1
        assert not fo.exists()
        assert capsys.readouterr().err == f"output error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_gen_pair_into_one_file(self, tmp_path, capsys):
        fo = tmp_path / "x.json"
        assert run("gen", "--n", "3", "--family", "commuting", "--out-a", str(fo), "--out-b", str(fo)) == 1
        assert not fo.exists()
        assert capsys.readouterr().err == f"usage error: outputs {fo} and {fo} name one file\n"

    def test_minimize_trajectory_into_final_b(self, tmp_path, monkeypatch, capsys, pair):
        self.refuse(monkeypatch, "minimize_gap")
        fo = tmp_path / "t"
        assert run("minimize", "--a", pair[0], "--b0", pair[1], "--budget", "5", "--out", str(fo),
                   "--out-b", str(fo)) == 1
        assert not fo.exists()
        assert capsys.readouterr().err == f"usage error: outputs {fo} and {fo} name one file\n"

    def test_one_file_spelled_two_ways(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--n", "3", "--family", "commuting", "--out-a", "x.json", "--out-b", "./x.json") == 1
        assert not (tmp_path / "x.json").exists()
        assert capsys.readouterr().err == "usage error: outputs x.json and ./x.json name one file\n"

    def test_good_outputs_are_not_created_by_the_check(self, tmp_path, monkeypatch, pair):
        # the check opens nothing: a run that fails after it leaves no file
        fo = tmp_path / "r.json"
        def fail(*args, **kwargs):
            raise ValueError("the report failed")
        monkeypatch.setattr(cli, "proof_chain_report", fail)
        assert run("verify", "--a", pair[0], "--b", pair[1], "--out", str(fo)) == 1
        assert not fo.exists()


class TestBytesPinned:
    """sha256 of outputs and texts, taken before the eigensolver's fixed
    costs and the parser's build were cut: that work changed no byte."""

    MINIMIZE = {
        ("generic", 2): ("ab2937b906cc1e6288c681729c5b76b7725e10aed49cc259acfb4e556f8dc056",
                         "85013a295c61d55d8165b6094d8305add49f779d5ad64c732fc508ce756a991f"),
        ("generic", 3): ("e3b024ba244fbc6bb0905b453a8245b19cd6df003ec202fada98b1e3e22b3536",
                         "faee513a71404484aeaaa497a6e1653e0cce1e72c3e52ae7f2cd0c514b01e714"),
        ("generic", 4): ("1c0720d4c1c73ad756a6b515fb733aabc8ad7a9ab5b11ba6cef0853cd4dc66d5",
                         "db5216512ae266dd1a7dfeaa3364c606f5d30e841d13223af3f80d901686c6d2"),
        ("generic", 5): ("06fed65a979f505ab6ca7a6384b840672f3ab7ec9815735b0f7385f28e93e129",
                         "2934442c7f1b4a2ef443111986afdfdebab1ae94e52be20f712dae25cd4ff9ef"),
        ("diagonal", 2): ("31e786220c4003d5fc5ffa927d6642d6f072cc012c9b06eae633361bcfc21174",
                          "f09656a3ecf5cc5518986e120165410c7ea30393fd7f72b95c24820cea130da0"),
        ("diagonal", 3): ("0382df16cba564b3b1210282bc5eb270d917dfdd1dc32c57414275f478082b5f",
                          "d0a7a7b2963dc982751b408af6ebad0f997e92c2caaf279e9cc720bf9cec2dd1"),
        ("diagonal", 4): ("7a86e6da965bbaa684db83971edaa3ac8d7ba98992fb2f78724af8eb405062e7",
                          "a79ab6d15e69936eb7774ed37cc2856515497c489e5ca4f7f137b0b2ec7f9ab3"),
        ("diagonal", 5): ("e66b76517c095dac36a3a4fdf444ca41348f009e8a887f530712b3cf1733e848",
                          "c3dfaf7e3cecd2e755789145f36bcca802b246108f7c1f0f14ee46fd0fc6d1d2"),
    }

    # (argv, exit code, sha256 of stdout, sha256 of stderr) at 80 columns;
    # a code of None is the SystemExit(0) that help ends with
    TEXTS = [
        (["--help"], None, "4485ecde84e8e4fa0dd5358680b44518305b73e7dc2c7311abcb947861f38754", ""),
        (["gen", "--help"], None, "8cea48705cd8cbb6e20e5944f0680f3d316fdf520a47a2e555b900c041770c87", ""),
        (["mean", "--help"], None, "c29f146ffc0fae350a29c5473f4fa03b451d85b95f059abc1f123662e2819ecf", ""),
        (["verify", "--help"], None, "e1b67fe5d7c9776e3f4289af55d0262c46490f0c20c04b4cfcd33657747e6a7c", ""),
        (["sweep", "--help"], None, "1aa0b06aaedd78824c25fa7586d91fe1ba4821e0c23c32d33e35996100d47baf", ""),
        (["minimize", "--help"], None, "a32ab424552832e246fc51519778104d7bb37c9b6bb72025ebfaf5ed35c828de", ""),
        (["lemma-ah", "--help"], None, "07210119b60b904aa9d1ee7a610447ec9b534c4c5d8bae00e1a15f4762c25bce", ""),
        ([], 1, "", "6bdc5a66b95e3b0c4829c2f44b10d4eaf68d213ca65b661fc3e0205c4f18f72a"),
        (["frobnicate"], 1, "", "c20ea480ccb05fa6892c4f414269514d533b159d73657fed33f5b2607b89575b"),
        (["mean", "--kind", "heron"], 1, "", "9cc30384c28d138d15c3ee7f7b6f6beb6b2b054d3b7ad46d2bd5d0c1919fa03b"),
        (["mean", "--kind", "arith", "--a", "x", "--b", "y", "--out", "z"], 1, "",
         "23392f05511a11c95da453e1eff190cf2fd90a228657a20b37c3cb568b5e317e"),
    ]
    EMPTY = hashlib.sha256(b"").hexdigest()

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("kind, n", sorted(MINIMIZE), ids=[f"{k}-{n}" for k, n in sorted(MINIMIZE)])
    def test_minimize_trajectory_and_final_b(self, tmp_path, kind, n):
        fa, fb, fo, ff = (tmp_path / x for x in ("a.json", "b0.json", "t.csv", "bf.json"))
        if kind == "generic":
            a = random_hpd(GenSpec(dim=n, seed=10 + n, cond_target=10.0))
        else:
            a = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
        save_matrix(str(fa), a)
        save_matrix(str(fb), random_hpd(GenSpec(dim=n, seed=20 + n, cond_target=10.0)))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "40",
                   "--out", str(fo), "--out-b", str(ff)) == 0
        assert (self.digest(fo), self.digest(ff)) == self.MINIMIZE[kind, n]

    def test_verify_report_n24(self, tmp_path):
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=24, seed=5, cond_target=100.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=24, seed=6, cond_target=100.0)))
        assert run("verify", "--a", str(fa), "--b", str(fb), "--seed", "5", "--out", str(fo)) == 0
        assert self.digest(fo) == "f1a5fc887dbec515901b9458e444775e09f49c913a9578963085d2e8af286a08"

    # sha256 of `mean --kind k` and of `lemma-ah` on the pair A, B of `pd_pair`,
    # taken before r5, `polar` and `lemma-ah` came to share one polar factor;
    # the Wasserstein ones re-taken when the core came to start from A's frame
    MEANS = {
        ("geometric", 4): "afe75e4a73e239bd5e8b6f32c37bc603c9d33548285bc2978a61109c73ba191d",
        ("heron", 4): "3cd0e7cd9e4a55b7710fcd6b759f65ac1bdbc7174735c18ec19d0f6d2621b2f2",
        ("wasserstein", 4): "0366114c7520f414eb3ca52f7a11e881852856590152372ec5adeddea02d6547",
        ("geometric", 24): "4a46cd53d848e87424d8f1d728e1e33f3b0987443569499fe7903c1cf3791410",
        ("heron", 24): "fb332d3ba9a8f10815d0ec557c574fa3dbf8db5121f3dd2aa7590f0880d52edd",
        ("wasserstein", 24): "c27581175b9c62e005c056b4382f1201b31ed2fb05690cb7a0cabf6ba4eee0c9",
    }
    LEMMA_AH = {
        4: "ac78550fbd55163042e575f1db27e22117c4b3032389ccac53d33b8a25d1e803",
        24: "5a3428537bd2c2476ca93fc3ea505706341e70d46464e539bae2a077d4a7e2c7",
    }

    @staticmethod
    def pd_pair(tmp_path, n):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=n, seed=30 + n, cond_target=10.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=n, seed=40 + n, cond_target=10.0)))
        return str(fa), str(fb)

    @pytest.mark.parametrize("kind, n", sorted(MEANS), ids=[f"{k}-{n}" for k, n in sorted(MEANS)])
    def test_mean(self, tmp_path, kind, n):
        fa, fb = self.pd_pair(tmp_path, n)
        fo = tmp_path / "m.json"
        assert run("mean", "--kind", kind, "--a", fa, "--b", fb, "--out", str(fo)) == 0
        assert self.digest(fo) == self.MEANS[kind, n]

    @pytest.mark.parametrize("n", sorted(LEMMA_AH))
    def test_lemma_ah_on_positive_pair(self, tmp_path, n):
        fx, fy = self.pd_pair(tmp_path, n)
        fo = tmp_path / "l.json"
        assert run("lemma-ah", "--x", fx, "--y", fy, "--out", str(fo)) == 0
        assert self.digest(fo) == self.LEMMA_AH[n]

    def test_verify_report_n6(self, tmp_path):
        # below the round-robin size: the scalar Jacobi loop
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=6, seed=5, cond_target=100.0)))
        save_matrix(str(fb), random_hpd(GenSpec(dim=6, seed=6, cond_target=100.0)))
        assert run("verify", "--a", str(fa), "--b", str(fb), "--seed", "5", "--out", str(fo)) == 0
        assert self.digest(fo) == "4521e65f2bee891dc698c704e2a51fcb3b1cb712fcc730ade51291a3b3523879"

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--n", "4", "--seed", "3", "--cond", "10", "--epsilons", "0,0.01,0.1,1",
                   "--trials", "3", "--out", str(out)) == 0
        assert self.digest(out) == "b868831245b31a1286935c45fe2cfd64a3be6d715a1d1759b29612af7ab4458e"

    @pytest.mark.parametrize("argv, code, out, err", TEXTS, ids=[" ".join(t[0]) or "none" for t in TEXTS])
    def test_help_and_usage_texts(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        if code is None:
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 0
        else:
            assert run(*argv) == code
        got = capsys.readouterr()
        assert hashlib.sha256(got.out.encode()).hexdigest() == (out or self.EMPTY)
        assert hashlib.sha256(got.err.encode()).hexdigest() == (err or self.EMPTY)
