"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import base64
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import SplitMix64, commutator_gap, eigh_function

import opmeans.cli as cli
from opmeans.cli import cli_main
from opmeans.linalg import DEFAULT_CONFIG
from opmeans.matio import load_matrix, save_json, save_matrix
from opmeans.randgen import GenSpec, random_hpd
from opmeans.verify import GapObjective, GapReport, Verdict


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
        expected, _ = random_hpd(GenSpec(dim=4, seed=7, cond_target=100.0))
        assert np.array_equal(load_matrix(str(out)), expected)

    def test_commuting_pair(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        code = run("gen", "--n", "3", "--seed", "1", "--family", "commuting",
                   "--out-a", str(fa), "--out-b", str(fb))
        assert code == 0
        assert commutator_gap(load_matrix(str(fa)), load_matrix(str(fb))) <= 1e-10

    # (argv, sha256 of each file, sha256 of each file with its frame removed
    # and re-dumped as save_matrix writes, the files' digests before gen
    # wrote frames: the frame moves no matrix byte)
    @pytest.mark.parametrize("args, digests, stripped", [
        (["--family", "generic", "--n", "5", "--seed", "11", "--cond", "50"],
         ["e6c70e13416d365997758f64681e46c5ee7f3dde0b4b75bcb9a9bdea201f1df4"],
         ["dc20f11bacf5c0c67c8a0571794e06ee9b3109394accc9894ad1a19dc7655cd4"]),
        (["--family", "commuting", "--n", "4", "--seed", "7", "--cond", "100"],
         ["859fbe2f5a8b4b054afa7d33ea2f283e61a74dc5a26b48c765c46a7e332af111",
          "4592616df214b911e5bf99bb735f9b5adfd6a5d199bc343881006498a84a7d73"],
         ["2b15381327b34c17b65006f29e3589c0e6c53a716e993b86c610d826aedce734",
          "56ac2209c05e119a88adb6811648395e03ab6e478b149534716fe4f4a9aa88ff"]),
        (["--family", "near-commuting", "--n", "4", "--seed", "3", "--cond", "10", "--epsilon", "0"],
         ["6081d55f193b82ba889c240a9a693fbc600126f81b6f51073d6135653c7e5797",
          "f2242ae2b0f4e1993ded9e1a743e3fa609625fe95501318b85848401f1571491"],
         ["d8e0e74a26f0fba61c089900f622db24193e3198120e02ab3a08385605f85078",
          "514e856e0072233c12302d277eb68c1a988e48954188caae59bacf4d8213b62c"]),
        (["--family", "near-commuting", "--n", "4", "--seed", "3", "--cond", "10", "--epsilon", "0.3"],
         ["6081d55f193b82ba889c240a9a693fbc600126f81b6f51073d6135653c7e5797",
          "a749dab03b8039e9366aac1a9911bb90ba2fc9d2075437cc2a52857c57814062"],
         ["d8e0e74a26f0fba61c089900f622db24193e3198120e02ab3a08385605f85078",
          "86dd484d90d8eee891e383ad33ef73c707b8cd647f053bab69e4c1f1fdd72028"]),
        (["--family", "near-commuting", "--n", "6", "--seed", "99", "--cond", "1000", "--epsilon", "0.01"],
         ["788ea7a5ff532b7546cd82ed124f6edaa0805a93dfd5f7fd048189a50ea0c6fe",
          "fa19fbd50de8081b02f9c42bd61cca25e00d6aad18a06fd086ccb1baa9694430"],
         ["47780f3a771951ba36fee8960720c6acdf6de2f1eab91233f0da3af60dcba4e8",
          "9860a37701211ee902e39f40f9f90e24b03ca14a815e19f4840ad2814b235dbf"]),
        (["--family", "generic", "--n", "24", "--seed", "5", "--cond", "100"],
         ["65d17595dc852a7cd35c6194a88f6ba0646891500173ed7bffc35ecc3dcc5b3d"],
         ["f48ed96a91b9c70f3a4628203a3d3ed722b98b4543c450678b0bcbe8cd8f1de6"]),
        (["--family", "near-commuting", "--n", "24", "--seed", "8", "--cond", "100", "--epsilon", "0.1"],
         ["f3197cc09f32fb4a28307547662fe26222fc8fd3b2bd6c23fe24e2236afaef0b",
          "bd7a250d14aead999b5c17e6a578beafc6e3edcbaed54bf886f7dd0d9862f340"],
         ["a110dd7af6c45635124908b6a37f9cb3f01138adb286f5898a489f4bfb7647d7",
          "06e60e62265875f45945cfe0e9347ff7c1263784a17db81d30150da76d647442"]),
    ], ids=["generic", "commuting", "near-0", "near-0.3", "near-0.01", "generic-24", "near-0.1-24"])
    def test_output_bytes_pinned(self, tmp_path, args, digests, stripped):
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
        bare = []
        for f in files:
            data = json.loads(f.read_text())
            del data["frame"]
            bare.append(hashlib.sha256((json.dumps(data, sort_keys=True) + "\n").encode()).hexdigest())
        assert bare == stripped

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

    def test_b_past_the_double_range_is_domain_error(self, tmp_path, capsys):
        # e^mu is finite, but B = P diag(e^mu) P* has an entry past DBL_MAX:
        # a numerical error, with no numpy warning and no file written
        fa, fb, fs = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("gen", "--n", "2", "--seed", "0", "--cond", "1e300", "--family", "near-commuting",
                       "--epsilon", "418.5", "--out-a", str(fa), "--out-b", str(fb))
            assert code == 2
            assert capsys.readouterr().err == (
                "numerical error: B leaves the double range at its largest eigenvalue 1.0422767483469544e+308\n")
            assert list(tmp_path.iterdir()) == []
            # a sweep records the failure in its row and goes on
            assert run("sweep", "--n", "2", "--seed", "4", "--cond", "1e300", "--epsilons", "777",
                       "--trials", "1", "--out", str(fs)) == 0
        assert fs.read_text().splitlines()[1].endswith(",error:DomainError")

    @pytest.mark.parametrize("family", ["commuting", "near-commuting"])
    def test_pair_below_the_floor_is_written(self, tmp_path, capsys, family):
        # at cond 1e13 A's least eigenvalue is below the positivity floor:
        # gen writes the drawn pair, and a sweep row records the refusal
        fa, fb, fs = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "s.csv"
        assert run("gen", "--n", "3", "--cond", "1e13", "--family", family, "--out-a", str(fa), "--out-b", str(fb)) == 0
        assert load_matrix(str(fa)).shape == load_matrix(str(fb)).shape == (3, 3)
        assert run("sweep", "--n", "3", "--cond", "1e13", "--epsilons", "0,0.1", "--trials", "1", "--out", str(fs)) == 0
        assert all(row.endswith(",error:NotPositiveDefinite") for row in fs.read_text().splitlines()[1:])
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("family", ["generic", "commuting"])
    def test_epsilon_refused_outside_near_commuting(self, tmp_path, capsys, family):
        # gen refuses it, though a spec names no family, and nothing is written
        outs = ["--out", str(tmp_path / "g.json"), "--out-a", str(tmp_path / "ga.json"),
                "--out-b", str(tmp_path / "gb.json")]
        assert run("gen", "--n", "3", "--family", family, "--epsilon", "0.5", *outs) == 1
        assert capsys.readouterr().err == "input error: epsilon is only meaningful for the near_commuting family\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epsilon, err", [("-1", "epsilon must be >= 0, got -1.0"),
                                              ("nan", "epsilon must be >= 0, got nan"),
                                              ("inf", "epsilon must be finite, got inf")])
    def test_near_commuting_checks_epsilon_after_the_outputs(self, tmp_path, capsys, epsilon, err):
        # the draw refuses its epsilon, after the output check: exit 1, no file
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--n", "3", "--family", "near-commuting", "--epsilon", epsilon, "--out-a", str(fa)]
        assert run(*args, "--out-b", str(fb)) == 1
        assert capsys.readouterr().err == f"input error: {err}\n"
        assert list(tmp_path.iterdir()) == []
        bad = tmp_path / "missing" / "b.json"
        assert run(*args, "--out-b", str(bad)) == 1
        assert capsys.readouterr().err == f"output error: [Errno 2] No such file or directory: '{bad}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, name", [(["--epsilon", "inf"], "epsilon"),
                                            (["--cond", "inf", "--epsilon", "0.5"], "cond_target")])
    def test_non_finite_spec_named_before_the_family(self, tmp_path, capsys, args, name):
        # the spec (n, seed, cond) is checked first, so its non-finite cond is
        # named; epsilon, which only the near-commuting draw reads, then meets
        # the family refusal, even at inf
        assert run("gen", "--n", "3", *args, "--out", str(tmp_path / "g.json")) == 1
        err = ("epsilon is only meaningful for the near_commuting family" if name == "epsilon"
               else f"{name} must be finite, got inf")
        assert capsys.readouterr().err == f"input error: {err}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [1, 2, 4, 24])
    def test_commuting_is_near_commuting_at_epsilon_zero(self, tmp_path, n):
        # both families draw `near_commuting_pair`, the commuting one at epsilon 0
        for seed in (0, 3, 11, 2**64 - 1):
            for family, extra in (("commuting", []), ("near-commuting", ["--epsilon", "0"])):
                assert run("gen", "--n", str(n), "--seed", str(seed), "--cond", "100", "--family", family, *extra,
                           "--out-a", str(tmp_path / f"{family}_a.json"),
                           "--out-b", str(tmp_path / f"{family}_b.json")) == 0
            for m in "ab":
                assert ((tmp_path / f"commuting_{m}.json").read_bytes()
                        == (tmp_path / f"near-commuting_{m}.json").read_bytes()), (seed, m)


class TestMean:
    def test_heron_commuting_diagonal(self, tmp_path):
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_matrix(str(fa), np.diag([1.0, 4.0]).astype(complex))
        save_matrix(str(fb), np.diag([9.0, 16.0]).astype(complex))
        assert run("mean", "--kind", "heron", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
        assert np.allclose(load_matrix(str(fo)), np.diag([4.0, 9.0]), atol=1e-12)

    def test_all_kinds_run(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=1, cond_target=10.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=2, cond_target=10.0))[0])
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
            "numerical error: congruence A^{-1/2} B A^{-1/2} leaves the double range\n")

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
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))[0] * 1e300)
        assert run("verify", "--a", str(fa), "--b", str(fb)) == 2
        assert "residual r2" in capsys.readouterr().err

    def test_pair_more_than_2_1022_apart(self, tmp_path, capsys):
        # (1e160 A, 1e-160 B): in A's frame B is subnormal, so the context is
        # balanced between the two; verify and the geometric mean, whose
        # A^{-1/2} B A^{-1/2} is 1e-320, refuse it, while the other two means
        # are sums of terms of order 1e160, 1 and 1e-160 and keep their digits
        a, _ = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b, _ = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_matrix(str(fa), a * 1e160)
        save_matrix(str(fb), b * 1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("verify", "--a", str(fa), "--b", str(fb)) == 2
            assert run("mean", "--kind", "geometric", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 2
            assert capsys.readouterr().err == 2 * (
                "numerical error: matrices a and b are more than 2^1022 apart in scale\n")
            for kind in ("heron", "wasserstein"):
                assert run("mean", "--kind", kind, "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
        # the means in units of 1e160: A/4 + (cross terms) 1e-160 / 4 + B 1e-320 / 4
        sa, sb = (eigh_function(m, np.sqrt) for m in (a, b))
        x = eigh_function(sa @ b @ sa, np.sqrt)
        inv_sa = eigh_function(a, lambda w: 1.0 / np.sqrt(w))
        cross = {"heron": sa @ sb + sb @ sa, "wasserstein": sa @ x @ inv_sa + inv_sa @ x @ sa}
        for kind in ("heron", "wasserstein"):
            run("mean", "--kind", kind, "--a", str(fa), "--b", str(fb), "--out", str(fo))
            want = (a + cross[kind] * 1e-160) / 4.0
            assert np.linalg.norm(load_matrix(str(fo)) / 1e160 - want) <= 1e-14 * np.linalg.norm(want), kind

    @pytest.mark.parametrize("seed, family, cond", [(1, "commuting", "1e10"), (2, "generic", "9e11"),
                                                   (3, "commuting", "1e10"), (4, "generic", "9e11")],
                             ids=["1", "2", "3", "4"])
    def test_singular_y_report_is_json(self, tmp_path, seed, family, cond):
        # For a valid pair sigma_min(Y) / sigma_max(Y) > 1e-12 in exact
        # arithmetic. These four pairs, at cond 1e10 and 9e11, reached the
        # floor through roundoff in the core's smallest eigenvalue while the
        # core was formed through A^{1/2} products; the graded core in A's
        # frame keeps it, so they report a finite r5 (about 1e-12 for the
        # commuting pairs, about 1 for the generic ones). A report where Y
        # is singular within the floor writes r5 as null, which
        # polar_singular explains, not an Infinity literal, which JSON does
        # not have. A generic pair takes its B from seed + 10.
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
        assert payload["polar_singular"] is False
        assert 0.0 <= payload["residuals"]["r5"] < (1e-11 if family == "commuting" else 2.0)
        singular = GapReport(payload["mean_gap"], payload["commutator_gap"],
                             dict(payload["residuals"], r5=math.inf), payload["trace_gap"])
        text = save_json(None, cli._report_payload(singular, Verdict(payload["verdict"]), DEFAULT_CONFIG, None))
        written = json.loads(text, parse_constant=refuse)
        assert written["polar_singular"] is True
        assert written["residuals"]["r5"] is None

    @pytest.mark.parametrize("cond", ["1e4", "1e6", "1e8", "1e10"])
    def test_commuting_pairs_read_from_files_commute(self, tmp_path, cond):
        # exactly commuting n = 8 pairs: in A's frame B and the core are
        # diagonal up to roundoff and A and B cancel from H - W exactly, so
        # the gap stays at roundoff (at most 1.8e-16 over these 80 pairs)
        # and r5 far below u cond, where the route through A^{-1/2} read
        # gaps up to 1.1e-9 and `Indeterminate` from cond 1e8 on
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        for seed in range(20):
            assert run("gen", "--n", "8", "--seed", str(seed), "--cond", cond, "--family", "commuting",
                       "--out-a", str(fa), "--out-b", str(fb)) == 0
            assert run("verify", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
            rep = json.loads(fo.read_text())
            assert rep["verdict"] == "MeansEqualAndCommute" and rep["polar_singular"] is False, seed
            assert rep["mean_gap"] <= 1e-14, seed
            assert rep["residuals"]["r5"] < 2.0**-52 * float(cond), seed

    def test_bad_tol_is_usage_error(self, tmp_path):
        fa = tmp_path / "a.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", "-1") == 1
        assert run("verify", "--a", str(fa), "--b", str(fa), "--tol", "inf") == 1


class TestFrameHints:
    """`verify` and `mean` start the pass over A and B from the frames the
    files carry. A frame is a hint: a foreign one or none gives the same
    verdict and gaps within the suite's 1e-11, and a malformed one is an
    input error that names the file."""

    @staticmethod
    def framed_pair(tmp_path, n, family):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        if family == "generic":
            for path, seed in ((fa, 5), (fb, 6)):
                assert run("gen", "--n", str(n), "--seed", str(seed), "--cond", "100", "--out", str(path)) == 0
        else:
            assert run("gen", "--n", str(n), "--seed", "5", "--cond", "100", "--family", family,
                       "--epsilon", "0.1", "--out-a", str(fa), "--out-b", str(fb)) == 0
        return [json.loads(f.read_text()) for f in (fa, fb)]

    @staticmethod
    def bare(data):
        return {k: v for k, v in data.items() if k != "frame"}

    @staticmethod
    def verify(tmp_path, tag, data_a, data_b):
        fa, fb, fo = tmp_path / f"{tag}_a.json", tmp_path / f"{tag}_b.json", tmp_path / f"{tag}_r.json"
        fa.write_text(json.dumps(data_a))
        fb.write_text(json.dumps(data_b))
        assert run("verify", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
        return json.loads(fo.read_text())

    @pytest.mark.parametrize("n", [6, 24])
    @pytest.mark.parametrize("family", ["generic", "near-commuting"])
    def test_own_swapped_and_stripped_frames_agree(self, tmp_path, n, family):
        a, b = self.framed_pair(tmp_path, n, family)
        reports = {
            "own": self.verify(tmp_path, "own", a, b),
            "swapped": self.verify(tmp_path, "swapped", {**a, "frame": b["frame"]}, {**b, "frame": a["frame"]}),
            "stripped": self.verify(tmp_path, "stripped", self.bare(a), self.bare(b)),
        }
        ref = reports.pop("stripped")
        for name, rep in reports.items():
            assert rep["verdict"] == ref["verdict"], name
            for key in ("mean_gap", "commutator_gap"):
                assert abs(rep[key] - ref[key]) <= 1e-11, (name, key)
            assert abs(rep["trace_gap"] - ref["trace_gap"]) <= 1e-11 * abs(ref["trace_gap"]) + 1e-11, name
            assert max(rep["residuals"][k] for k in ("r1", "r2", "r3")) <= 1e-10, name

    def test_mean_takes_the_frames(self, tmp_path):
        a, b = self.framed_pair(tmp_path, 24, "generic")
        outs = {}
        for tag, pair in (("own", (a, b)), ("stripped", (self.bare(a), self.bare(b)))):
            fa, fb, fo = tmp_path / f"{tag}_a.json", tmp_path / f"{tag}_b.json", tmp_path / f"{tag}_w.json"
            for path, data in zip((fa, fb), pair):
                path.write_text(json.dumps(data))
            assert run("mean", "--kind", "wasserstein", "--a", str(fa), "--b", str(fb), "--out", str(fo)) == 0
            outs[tag] = load_matrix(str(fo))
        assert np.linalg.norm(outs["own"] - outs["stripped"]) <= 1e-13 * np.linalg.norm(outs["stripped"])
        assert not np.array_equal(outs["own"], outs["stripped"])  # the hint was taken

    @pytest.mark.parametrize("bad", ["length", "not-base64", "non-finite", "not-unitary"])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_malformed_frame_exits_1(self, tmp_path, capsys, bad, which):
        a, b = self.framed_pair(tmp_path, 6, "generic")
        frame = np.frombuffer(base64.b64decode(a["frame"]), dtype="<c16")
        value = {
            "length": base64.b64encode(frame[:-1].tobytes()).decode(),
            "not-base64": a["frame"][:-4] + "*===",
            "non-finite": base64.b64encode(np.where(np.arange(36) == 7, np.inf, frame).tobytes()).decode(),
            "not-unitary": base64.b64encode((frame * (1.0 + 1e-6)).tobytes()).decode(),
        }[bad]
        (a if which == "a" else b)["frame"] = value
        paths = {name: tmp_path / f"bad_{name}.json" for name in "ab"}
        for name, data in (("a", a), ("b", b)):
            paths[name].write_text(json.dumps(data))
        fo = tmp_path / "out.json"
        for argv in (["verify"], ["mean", "--kind", "heron"]):
            assert run(*argv, "--a", str(paths["a"]), "--b", str(paths["b"]), "--out", str(fo)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {paths[which]}: field 'frame'"), err
            assert not fo.exists()


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

    @staticmethod
    def write(d, framed):
        # gen's matrices; the pinned refusal is that of the files without
        # the frames gen writes, whose hint moves the last bits
        for name, seed in (("a", 3), ("b", 103)):
            path = str(d / f"{name}.json")
            if framed:
                assert run("gen", "--n", "6", "--cond", "9e11", "--seed", str(seed), "--out", path) == 0
            else:
                save_matrix(path, random_hpd(GenSpec(dim=6, seed=seed, cond_target=9e11))[0])
        return ["--a", str(d / "a.json"), "--b", str(d / "b.json")]

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        return self.write(tmp_path_factory.mktemp("cond9e11"), framed=False)

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

    def test_geometric_refused_from_gen_files(self, tmp_path, capsys):
        pair = self.write(tmp_path, framed=True)
        for tol in [(), ("--tol", "1e-8")]:
            assert run("mean", "--kind", "geometric", *pair, "--out", str(tmp_path / "g.json"), *tol) == 2
            assert capsys.readouterr().err.startswith("numerical error: asymmetry ")
            assert not (tmp_path / "g.json").exists()
        assert run("verify", *pair, "--tol", "1e-11") == 0
        assert run("mean", "--kind", "wasserstein", *pair, "--out", str(tmp_path / "w.json"), "--tol", "1e-11") == 0


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
        save_matrix(str(fb), random_hpd(GenSpec(dim=2, seed=3, cond_target=5.0))[0])
        code = run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "2000",
                   "--out", str(fo), "--out-b", str(ff))
        assert code == 0
        lines = fo.read_text().splitlines()
        assert lines[0] == "step,mean_gap,commutator_gap,objective"
        final_b = load_matrix(str(ff))
        assert commutator_gap(np.diag([1.0, 2.0]).astype(complex), final_b) <= 1e-4

    def test_ci_pair_converges_within_budget_300(self, tmp_path):
        # the pair of the CI workflow, `gen --n 4 --cond 100` at seeds 1 and
        # 2, as gen writes them, frames included; it converges at step 65
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b0.json", tmp_path / "t.csv"
        for seed, path in ((1, fa), (2, fb)):
            assert run("gen", "--n", "4", "--seed", str(seed), "--cond", "100", "--out", str(path)) == 0
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "300", "--out", str(fo)) == 0
        step, gap, _, objective = (float(v) for v in fo.read_text().splitlines()[-1].split(","))
        assert step < 300 and gap <= 1e-8 and objective <= 1e-16

    def test_stalled_line_search_warns(self, tmp_path, monkeypatch, capsys):
        # an ascent direction: every trial step fails the Armijo test
        gradient = GapObjective.gradient
        monkeypatch.setattr(GapObjective, "gradient", lambda self, pt: -gradient(self, pt))
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b0.json", tmp_path / "t.csv"
        save_matrix(str(fa), np.diag([1.0, 10.0]).astype(complex))
        save_matrix(str(fb), random_hpd(GenSpec(dim=2, seed=3, cond_target=100.0))[0])
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "5", "--out", str(fo)) == 0
        assert len(fo.read_text().splitlines()) == 2  # the header and step 0
        assert capsys.readouterr().err == "warning: line search stalled before the budget was used\n"

    def test_budget_zero_usage_error(self, tmp_path):
        fa = tmp_path / "a.json"
        save_matrix(str(fa), np.eye(2, dtype=complex))
        assert run("minimize", "--a", str(fa), "--b0", str(fa), "--budget", "0",
                   "--out", str(tmp_path / "t.csv")) == 1

    # (A, B0) is validated as `verify` validates its pair
    @pytest.mark.parametrize("b0, code, error", [
        (np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 2, "numerical error: asymmetry"),
        (np.diag([1.0, -1.0, 2.0]), 2, "numerical error: matrix b is not positive definite\n"),
        (np.eye(2), 1, "input error: dimension mismatch"),
    ], ids=["not-hermitian", "not-positive-definite", "wrong-size"])
    def test_bad_b0(self, tmp_path, capsys, b0, code, error):
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), np.eye(3, dtype=complex))
        save_matrix(str(fb), b0.astype(complex))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == code
        assert capsys.readouterr().err.startswith(error)

    @staticmethod
    def run_on(tmp_path, a, b0, budget=3):
        """`minimize` on (A, B0), with every warning an error: its exit code,
        trajectory rows and final B."""
        fa, fb, fo, ff = (tmp_path / x for x in ("a.json", "b0.json", "t.csv", "bf.json"))
        save_matrix(str(fa), a)
        save_matrix(str(fb), b0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", str(budget),
                       "--out", str(fo), "--out-b", str(ff))
        if code != 0:
            return code, None, None
        rows = [[float(v) for v in line.split(",")] for line in fo.read_text().splitlines()[1:]]
        return code, rows, load_matrix(str(ff))

    @pytest.mark.parametrize("scale", [2.0**-560, 1e-170, 1e200, 2.0**510],
                             ids=["2^-560", "1e-170", "1e200", "2^510"])
    def test_scaled_pair_runs(self, tmp_path, scale):
        # the descent runs on the pair's exactly scaled context, so a common
        # scale whose norms and products under- or overflow leaves the gaps
        # as they are; nu and the start R0 = (B0 / nu)^{1/4} move by
        # roundoff, so the iterates agree to roundoff, not bit for bit
        for seed in range(3):
            a, _ = random_hpd(GenSpec(dim=3, seed=2 * seed + 11, cond_target=3.0))
            b0, _ = random_hpd(GenSpec(dim=3, seed=2 * seed + 12, cond_target=3.0))
            code, ref, _ = self.run_on(tmp_path, a, b0, budget=20)
            assert code == 0
            code, rows, final_b = self.run_on(tmp_path, a * scale, b0 * scale, budget=20)
            assert code == 0 and len(rows) == len(ref)
            assert all(abs(x - y) <= 1e-10 * y for x, y in zip(rows[0][1:], ref[0][1:])), seed
            mean_gap, comm_gap = eigh_gaps(a * scale, final_b)
            assert abs(rows[-1][1] - mean_gap) <= 1e-6 * mean_gap, seed
            assert abs(rows[-1][2] - comm_gap) <= 1e-6 * comm_gap, seed

    @pytest.mark.parametrize("scale", [1.7e308, 9e307])
    def test_b0_past_half_max_converges_at_step_0(self, tmp_path, scale):
        # (I, cB) has equal means; B = nu R^4 is formed in the context's
        # units, so entries past DBL_MAX / 2 add without overflow
        eye = np.eye(2, dtype=complex)
        code, rows, final_b = self.run_on(tmp_path, eye, scale * eye)
        assert code == 0 and len(rows) == 1
        assert rows[0][1] <= 1e-16 and rows[0][2] == 0.0
        assert np.allclose(final_b, scale * eye, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("sa, sb, row", [
        (1e160, 1e-160, [0.0, 2.6002352913011167e-163, 0.048496460464779956, 0.0]),
        (1e300, 1e-300, [0.0, 2.6002352913010738e-303, 0.048496460464780025, 0.0]),
    ], ids=["1e160-1e-160", "1e300-1e-300"])
    def test_far_apart_scales_keep_the_unscaled_frame_result(self, tmp_path, sa, sb, row):
        # A and B0 are 1e320 and 1e600 apart: the context's unit leaves
        # neither subnormal, so step 0 reads what the descent computed in
        # the pair's own units, bit for bit, and stops there converged. In
        # A's frame A and B cancel exactly from H - W, whose terms are of
        # order sqrt(sa sb) = 1, so the gap is that of the unscaled pair's
        # H - W over sa ||A||_F, not roundoff of A
        a, _ = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b0, _ = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        code, rows, final_b = self.run_on(tmp_path, a * sa, b0 * sb)
        assert code == 0 and rows == [row]
        sqrt_a, sqrt_b = eigh_function(a, np.sqrt), eigh_function(b0, np.sqrt)
        inv_sqrt_a, x = eigh_function(a, lambda w: 1.0 / np.sqrt(w)), eigh_function(sqrt_a @ b0 @ sqrt_a, np.sqrt)
        diff = (sqrt_a @ sqrt_b + sqrt_b @ sqrt_a - sqrt_a @ x @ inv_sqrt_a - inv_sqrt_a @ x @ sqrt_a) / 4.0
        ref = np.linalg.norm(diff) / np.linalg.norm(a) / sa
        assert abs(row[1] - ref) <= 1e-12 * ref
        # final_b = nu R0^4, returned to the pair's units, is B0 to roundoff
        assert np.linalg.norm(final_b / sb - b0) <= 1e-14 * np.linalg.norm(b0)

    def test_indefinite_a_past_half_max_exits_2(self, tmp_path, capsys):
        # eigenvalues -7e307 (twice) and 1.7e308: not the converged step 0
        # that a norm overflowing to inf gave
        fa, fb = tmp_path / "a.json", tmp_path / "b0.json"
        save_matrix(str(fa), np.array([[1e307, 8e307, 8e307], [8e307, 1e307, 8e307],
                                       [8e307, 8e307, 1e307]], dtype=complex))
        save_matrix(str(fb), np.eye(3, dtype=complex))
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "3",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err == "numerical error: matrix a is not positive definite\n"

    def test_mixed_scale_pair_converges_at_step_0(self, tmp_path):
        # ||A||_F ||B||_F is past DBL_MAX in the pair's units, not in the
        # context's; B is negligible beside A in the gap's normalization, so
        # the run stops at step 0 as (1e20 A, B) does, with the commutator
        # gap of the pair
        a, _ = random_hpd(GenSpec(dim=8, seed=3, cond_target=3.0))
        b, _ = random_hpd(GenSpec(dim=8, seed=4, cond_target=3.0))
        a, b = a / np.max(np.linalg.eigvalsh(a)), b / np.max(np.linalg.eigvalsh(b))
        code, rows, _ = self.run_on(tmp_path, a * 1e308, b)
        assert code == 0 and len(rows) == 1 and rows[0][3] <= 1e-16
        assert abs(rows[0][2] - commutator_gap(a, b)) <= 1e-6 * commutator_gap(a, b)

    def test_eigenvalue_of_b0_past_max_exits_2(self, tmp_path, capsys):
        # B0's entries are finite and its largest eigenvalue is 2.5e308
        eye, b0 = np.eye(2, dtype=complex), np.array([[1.5e308, 1e308], [1e308, 1.5e308]], dtype=complex)
        assert self.run_on(tmp_path, eye, b0)[0] == 2
        assert capsys.readouterr().err == "numerical error: an eigenvalue leaves the double range (n = 2)\n"


def eigh_gaps(a, b):
    """(mean_gap, commutator_gap) with every spectrum from np.linalg.eigh,
    the test oracle, on the pair divided by its largest entry: both gaps
    are unchanged by a common scale."""
    top = max(np.abs(a).max(), np.abs(b).max())
    a, b = a / top, b / top
    sqrt_a, sqrt_b = eigh_function(a, np.sqrt), eigh_function(b, np.sqrt)
    inv_sqrt_a = eigh_function(a, lambda w: 1.0 / np.sqrt(w))
    x = eigh_function(sqrt_a @ b @ sqrt_a, np.sqrt)
    avg = (sqrt_a + sqrt_b) / 2.0
    diff = avg @ avg - (a + b + sqrt_a @ x @ inv_sqrt_a + inv_sqrt_a @ x @ sqrt_a) / 4.0
    mean_gap = np.linalg.norm(diff) / (np.linalg.norm(a) + np.linalg.norm(b))
    return mean_gap, np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestLemmaAh:
    def test_aligned_triple(self, tmp_path, capsys):
        w = np.linalg.qr(SplitMix64(3).complex_gaussian_matrix(3))[0]
        p, _ = random_hpd(GenSpec(dim=3, seed=4, cond_target=10.0))
        q, _ = random_hpd(GenSpec(dim=3, seed=5, cond_target=10.0))
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

    @pytest.mark.parametrize("n", [1, 2])
    def test_opposite_pair_fails_the_triangle_equality(self, tmp_path, capsys, n):
        # |X + Y| = 0 but |X| + |Y| = 2|A|: a failed triangle equality, not
        # a singular sum
        a, _ = random_hpd(GenSpec(dim=n, seed=4, cond_target=10.0))
        fx, fy, fo = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "w.json"
        save_matrix(str(fx), a)
        save_matrix(str(fy), -a)
        assert run("lemma-ah", "--x", str(fx), "--y", str(fy), "--out", str(fo)) == 2
        assert capsys.readouterr().err == "numerical error: triangle equality residual 1.000e+00 above tolerance\n"
        assert not fo.exists()

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
        x = w @ random_hpd(GenSpec(dim=3, seed=4, cond_target=10.0))[0]
        y = w @ random_hpd(GenSpec(dim=3, seed=5, cond_target=10.0))[0]
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
        assert np.array_equal(load_matrix(str(tmp_path / "m.json")), random_hpd(GenSpec(dim=3, seed=42))[0])

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

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "empty"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_1_naming_the_path(self, tmp_path, capsys, command, where):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=1, cond_target=10.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=2, cond_target=10.0))[0])
        bad = {"missing-dir": tmp_path / "missing" / "out", "directory": tmp_path, "empty": ""}[where]
        paths = {"a": fa, "b": fb, "ok": tmp_path / "ok.out", "bad": bad}
        assert run(*(arg.format(**paths) for arg in self.COMMANDS[command])) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert f"'{bad}'" in err


class TestOutputsCheckedFirst:
    """A bad output path exits 1 before any work and leaves no other output."""

    @pytest.fixture
    def pair(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=3, seed=1, cond_target=10.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=3, seed=2, cond_target=10.0))[0])
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
        self.refuse(monkeypatch, "near_commuting_pair")
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

    def test_empty_final_b_leaves_no_trajectory(self, tmp_path, monkeypatch, capsys, pair):
        # an empty path names an output that cannot be opened, not no output
        self.refuse(monkeypatch, "minimize_gap")
        fo = tmp_path / "t.csv"
        assert run("minimize", "--a", pair[0], "--b0", pair[1], "--budget", "3", "--out", str(fo),
                   "--out-b", "") == 1
        assert not fo.exists()
        assert capsys.readouterr().err == "output error: [Errno 2] No such file or directory: ''\n"

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

    # re-taken when the descent moved from the log chart to the root chart,
    # when it came to evaluate in A's eigenframe, and when it came to step
    # there under the Frobenius metric
    MINIMIZE = {
        ("generic", 2): ("f428c09ec999d42ee5c33d33b94c33d2200a2669b0745d3a294d21a8163a7c98",
                         "cd80ec8dc56a627ed0019268b40ccc2389e0b204189258f80dc0fb0459af2126"),
        ("generic", 3): ("68271da5e0939539440579bb2a02b99ac0b5842128973120b76f11271804d26d",
                         "fdda95e8a4a76500367a235c772fdb3d2d2249bf26946ff1a8adc274007f37e7"),
        ("generic", 4): ("ec9d94cc60e2de94e899bd50046171b7f0bb4eca8ddd98d02570ccadbfd3413e",
                         "2210bf4b6bdc5967d4749bdda2e62e3694e70526ab1be85565dbfd5852bf94bd"),
        ("generic", 5): ("e54388bff5c830aa452d8dd0bff14c87487cf3c337e1491e1fbb4a7781735e30",
                         "7f82a6f6844056ec4b8fc9bc75415740ff7663676e13a2cb4876965fc800389d"),
        ("diagonal", 2): ("b91537ea41a7815880279aeabb06685c5d31c91c3e414e4fb4ad2e80afa97150",
                          "6e8dacd62f9283d4451548774815482fe8ada2e6aded71c33ac807719b6e1777"),
        ("diagonal", 3): ("3a16d696917b5ba42f80b3de588d6bacc668533cec860461566bd9fdf1f0ae5f",
                          "991f0bfdbb8ddf332cde070842bf6decabf1b54a42376c631031acf1f0842e98"),
        ("diagonal", 4): ("0b515bfd80837651ca056e092c2c7dd35a6a53fced454dcae025b71bbc6f28d6",
                          "5c209eb82a0fde7048bfc6dd75db516c2ac5ce64a2de43adbbd548dec0faefdd"),
        ("diagonal", 5): ("9ce92f8819ee2b296e6a96edd70b7413605b5e75553c800d70321f556a2b9d02",
                          "510248c6dd7291efa480aef2a14c54f617f8c475c7bb379b2acdd9278e7d7594"),
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
            a, _ = random_hpd(GenSpec(dim=n, seed=10 + n, cond_target=10.0))
        else:
            a = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
        save_matrix(str(fa), a)
        save_matrix(str(fb), random_hpd(GenSpec(dim=n, seed=20 + n, cond_target=10.0))[0])
        assert run("minimize", "--a", str(fa), "--b0", str(fb), "--budget", "40",
                   "--out", str(fo), "--out-b", str(ff)) == 0
        assert (self.digest(fo), self.digest(ff)) == self.MINIMIZE[kind, n]

    def test_verify_report_n24(self, tmp_path):
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=24, seed=5, cond_target=100.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=24, seed=6, cond_target=100.0))[0])
        assert run("verify", "--a", str(fa), "--b", str(fb), "--seed", "5", "--out", str(fo)) == 0
        assert self.digest(fo) == "d7f3c8a6ea88b78e5bd3b9a835f8295cd2bf191f0d4c9c8867c11fd9527bea0f"

    # sha256 of `mean --kind k` and of `lemma-ah` on the pair A, B of `pd_pair`,
    # taken before r5, `polar` and `lemma-ah` came to share one polar factor;
    # the Wasserstein ones re-taken when the core came to start from A's frame,
    # the Heron and Wasserstein ones when the pair came to be formed in it
    MEANS = {
        ("geometric", 4): "afe75e4a73e239bd5e8b6f32c37bc603c9d33548285bc2978a61109c73ba191d",
        ("heron", 4): "9e5c47703cf6bbab73041d17ee98b5f0da3bbc8774bfee0b9825e4b491a2c084",
        ("wasserstein", 4): "2e1914e3e469620a5f18e967f5e2a31274bdd52699edbc629c51fd986b3cbe20",
        ("geometric", 24): "4a46cd53d848e87424d8f1d728e1e33f3b0987443569499fe7903c1cf3791410",
        ("heron", 24): "4b2087c420b94f8bad45c02abac01820102f7a450be29b597ff74aa2f3d134c5",
        ("wasserstein", 24): "21bcd67897c5c991bc46e84f12ea09bd8b90ccba58380a947499dccc46e19a43",
    }
    LEMMA_AH = {
        4: "ac78550fbd55163042e575f1db27e22117c4b3032389ccac53d33b8a25d1e803",
        24: "5a3428537bd2c2476ca93fc3ea505706341e70d46464e539bae2a077d4a7e2c7",
    }

    @staticmethod
    def pd_pair(tmp_path, n):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(fa), random_hpd(GenSpec(dim=n, seed=30 + n, cond_target=10.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=n, seed=40 + n, cond_target=10.0))[0])
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
        save_matrix(str(fa), random_hpd(GenSpec(dim=6, seed=5, cond_target=100.0))[0])
        save_matrix(str(fb), random_hpd(GenSpec(dim=6, seed=6, cond_target=100.0))[0])
        assert run("verify", "--a", str(fa), "--b", str(fb), "--seed", "5", "--out", str(fo)) == 0
        assert self.digest(fo) == "65cc83b4ce66e3bd56c88cf54b021690f784f89938ae49a7eaf5eeac915c4c60"

    def test_sweep_csv(self, tmp_path):
        # 9 logarithms, then 12 cores: both passes run round-robin
        out = tmp_path / "s.csv"
        assert run("sweep", "--n", "4", "--seed", "3", "--cond", "10", "--epsilons", "0,0.01,0.1,1",
                   "--trials", "3", "--out", str(out)) == 0
        assert self.digest(out) == "24e3837af397105b2a2c3a5ffed30a1c6b4774301700c670dfa90bf1ad819002"

    # sha256 of `sweep --seed 2024` on the benchmark's sweep-small grid
    # (n = 3-6, cond 10, six epsilons, 4 trials) and on grids whose rows
    # fail: every row at cond 1e300 (NotPositiveDefinite), the rows at
    # epsilon 1e308 (DomainError), beside round-robin rows at n = 4, and
    # n = 1; taken before a sweep block came to be built as one stack
    SWEEP_SMALL = "--cond 10 --epsilons 0,0.01,0.0316,0.1,0.316,1 --trials 4"
    SWEEPS = {
        f"--n 3 {SWEEP_SMALL}": "cddbfde0314ab90501fa18142f7b0b70a6b2d00a6f2c5cae10ecbf83c5598564",
        f"--n 4 {SWEEP_SMALL}": "8b9cedeefd10e23083043eb13a5443cc8df7ecb618ce61ce59c26b222579d2e7",
        f"--n 5 {SWEEP_SMALL}": "72cb8f45f1916413ba48c91d869c32db0c25752e7e413de1a3edbe1d7454b31d",
        f"--n 6 {SWEEP_SMALL}": "5274c59a72d92c2108501e0d65ed2b21452a4c287e2130e283436c50156b8d7e",
        "--n 4 --cond 1e300 --epsilons 0,0.1 --trials 4":
            "4e5bbf241dc2035a5684a3fb671ad4d577a6d8e9f311040fe21b7c83c7653984",
        "--n 2 --epsilons 0,1e308 --trials 3": "96cb7b3de1315c629ce49cfcbe5b5d0e637e81a4203d7f938858b27fcc9b2146",
        "--n 4 --epsilons 0,0.1,1e308 --trials 4": "a9be7ba80664e1e7ea4217e5fb9df39b2d6927c11eb0f55102db81b4806412a5",
        "--n 1 --epsilons 0,0.1,1 --trials 3": "83e6926352329f1d61949e55a24c3a996ac75d6a17435a7110f170418e0155b1",
    }

    @pytest.mark.parametrize("grid", sorted(SWEEPS))
    def test_sweep_grids(self, tmp_path, grid):
        out = tmp_path / "s.csv"
        assert run("sweep", "--seed", "2024", *grid.split(), "--out", str(out)) == 0
        assert self.digest(out) == self.SWEEPS[grid]

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
