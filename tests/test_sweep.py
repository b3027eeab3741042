"""Sweep spec validation, row structure, and determinism."""

import math
import re

import numpy as np
import pytest

import opmeans.linalg as linalg
import opmeans.sweep as sweep
from opmeans.cli import cli_main
from opmeans.randgen import GenSpec, InvalidSpec, near_commuting_pair
from opmeans.sweep import SweepRow, SweepSpec, run_sweep
from opmeans.verify import Verdict, classify_gaps, proof_chain_report


def base_spec(n=3, seed=2024, cond=10.0):
    return GenSpec(dim=n, seed=seed, cond_target=cond, family="near_commuting")


class TestSweepSpec:
    def test_valid(self):
        SweepSpec(base=base_spec(), epsilons=(0.0, 0.1), trials_per_epsilon=2)

    def test_rejects_empty_epsilons(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(base=base_spec(), epsilons=(), trials_per_epsilon=1)

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(base=base_spec(), epsilons=(0.1, 0.1), trials_per_epsilon=1)
        with pytest.raises(InvalidSpec):
            SweepSpec(base=base_spec(), epsilons=(0.2, 0.1), trials_per_epsilon=1)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(base=base_spec(), epsilons=(-0.1, 0.1), trials_per_epsilon=1)

    @pytest.mark.parametrize("epsilons, message", [
        ((0.0, math.nan), ">= 0"), ((math.nan,), ">= 0"), ((0.0, math.inf), "finite")])
    def test_rejects_nan_and_inf(self, epsilons, message):
        with pytest.raises(InvalidSpec, match=message):
            SweepSpec(base=base_spec(), epsilons=epsilons, trials_per_epsilon=1)

    @pytest.mark.parametrize("epsilons", ["0,nan", "nan", "0,inf"])
    def test_cli_draws_nothing_for_nan_or_inf(self, tmp_path, monkeypatch, capsys, epsilons):
        calls = []
        monkeypatch.setattr(sweep, "near_commuting_pair", lambda *args: calls.append(args))
        out = tmp_path / "s.csv"
        code = cli_main(["sweep", "--n", "2", "--epsilons", epsilons, "--trials", "2", "--out", str(out)])
        assert code == 1 and calls == [] and not out.exists()
        assert capsys.readouterr().err.startswith("input error: epsilons must be")

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidSpec, match="^trials_per_epsilon must be >= 1$"):
            SweepSpec(base=base_spec(), epsilons=(0.1,), trials_per_epsilon=0)

    @pytest.mark.parametrize("trials", [True, 2.0, 2.5, "2", None])
    def test_trials_must_be_an_int_not_a_bool(self, trials):
        with pytest.raises(InvalidSpec, match=f"^trials_per_epsilon must be an integer, got {re.escape(repr(trials))}$"):
            SweepSpec(base=base_spec(), epsilons=(0.1,), trials_per_epsilon=trials)


class TestRunSweep:
    def test_row_count_and_order(self):
        spec = SweepSpec(base=base_spec(), epsilons=(0.0, 0.1, 0.5), trials_per_epsilon=4)
        rows = run_sweep(spec)
        assert len(rows) == 12
        assert [r.epsilon for r in rows] == [0.0] * 4 + [0.1] * 4 + [0.5] * 4

    def test_epsilon_zero_all_commuting(self):
        spec = SweepSpec(base=base_spec(), epsilons=(0.0,), trials_per_epsilon=6)
        rows = run_sweep(spec)
        assert all(r.verdict == Verdict.MEANS_EQUAL_AND_COMMUTE.value for r in rows)

    def test_no_counterexamples(self):
        spec = SweepSpec(base=base_spec(), epsilons=(0.0, 0.05, 0.2, 1.0), trials_per_epsilon=5)
        rows = run_sweep(spec)
        assert all(r.verdict != Verdict.COUNTEREXAMPLE_TO_THEOREM.value for r in rows)

    def test_deterministic(self):
        spec = SweepSpec(base=base_spec(), epsilons=(0.0, 0.3), trials_per_epsilon=3)
        assert run_sweep(spec) == run_sweep(spec)

    def test_gaps_grow_with_epsilon(self):
        spec = SweepSpec(base=base_spec(seed=5), epsilons=(0.01, 1.0), trials_per_epsilon=1)
        rows = run_sweep(spec)
        # same seed index per epsilon slot uses a different derived seed, so
        # just check the coarse ordering of scales
        assert rows[0].mean_gap < rows[1].mean_gap
        assert rows[0].commutator_gap < rows[1].commutator_gap

    def test_failed_rows_carry_the_error(self, tmp_path):
        # at cond 1e13 A's smallest eigenvalue is below the positivity floor
        out = tmp_path / "s.csv"
        code = cli_main(["sweep", "--n", "3", "--cond", "1e13", "--epsilons", "0,0.1",
                         "--trials", "2", "--out", str(out)])
        rows = out.read_text().splitlines()[1:]
        assert code == 0 and len(rows) == 4
        assert all(row.endswith(",nan,nan,nan,error:NotPositiveDefinite") for row in rows)

    def test_row_is_plain_record(self):
        spec = SweepSpec(base=base_spec(), epsilons=(0.1,), trials_per_epsilon=1)
        row = run_sweep(spec)[0]
        assert isinstance(row, SweepRow)
        assert np.isfinite(row.trace_gap)

    def test_row_gaps_equal_report_gaps(self):
        spec = SweepSpec(base=base_spec(n=4, seed=17, cond=100.0),
                         epsilons=(0.0, 0.01, 0.5), trials_per_epsilon=2)
        for row in run_sweep(spec):
            rep = proof_chain_report(near_commuting_pair(GenSpec(
                dim=4, seed=row.seed, cond_target=100.0, family="near_commuting", epsilon=row.epsilon)))
            assert (row.mean_gap, row.commutator_gap, row.trace_gap) == (
                rep.mean_gap, rep.commutator_gap, rep.trace_gap)
            assert row.verdict == classify_gaps(rep.mean_gap, rep.commutator_gap).value


class TestWarmStartedSweeps:
    """The generator hints log B0 + eps K with B0's drawn frame and the
    pair's context hints the core with A's, so a row's Jacobi calls start
    nearly diagonal."""

    EPSILONS = (0.0, 0.01, 0.0316, 0.1, 0.316, 1.0)

    def test_sweeps_per_call_on_the_benchmark_grid(self, monkeypatch):
        # the grid of the sweep-small workload, at one fixed master seed
        sweeps, current = [], []  # (epsilon, rotating sweeps) per _jacobi call
        real_mass, real_jacobi, real_pair = linalg._off_diagonal_mass, linalg._jacobi, sweep.near_commuting_pair
        masses = []

        def counted_mass(a, n):
            masses.append(n)
            return real_mass(a, n)

        def counted_jacobi(*args):
            start = len(masses)
            solution = real_jacobi(*args)
            sweeps.append((current[-1], len(masses) - start - 1))
            return solution

        def pair(gspec):
            current.append(gspec.epsilon)
            return real_pair(gspec)

        monkeypatch.setattr(linalg, "_off_diagonal_mass", counted_mass)
        monkeypatch.setattr(linalg, "_jacobi", counted_jacobi)
        monkeypatch.setattr(sweep, "near_commuting_pair", pair)
        rows = 0
        for n in (3, 4, 5, 6):
            rows += len(run_sweep(SweepSpec(base=base_spec(n=n, seed=1), epsilons=self.EPSILONS,
                                            trials_per_epsilon=4)))
        # 11/6 calls per row: the core alone at epsilon = 0, else the
        # generator's logarithm and then the core
        assert (rows, len(sweeps)) == (96, 176)
        # each call's last mass check finds it converged: 515 rotating
        # sweeps, 2.93 per call, where cold starts took 783 (4.45)
        assert len(masses) == 515 + 176
        assert [s for eps, s in sweeps if eps == 0.0] == [0] * 16
