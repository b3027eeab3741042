"""Sweep spec validation, row structure, and determinism."""

import math
import re

import numpy as np
import pytest

from conftest import mix_seed

import opmeans.linalg as linalg
import opmeans.means as means
import opmeans.randgen as randgen
import opmeans.sweep as sweep
from opmeans.cli import cli_main
from opmeans.randgen import GenSpec, InvalidSpec, near_commuting_pair
from opmeans.sweep import SweepRow, SweepSpec, run_sweep
from opmeans.verify import Verdict, classify_gaps, proof_chain_report


def base_spec(n=3, seed=2024, cond=10.0):
    return GenSpec(dim=n, seed=seed, cond_target=cond)


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
        monkeypatch.setattr(sweep, "_drawn_pairs", lambda *args: calls.append(args))
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

    @pytest.mark.parametrize("master", [0, 1 << 63, (1 << 64) - 1])
    def test_seeds_are_the_scalar_trial_seeds(self, master):
        # 3 x 13 rows cross the 32-row block; these masters' states wrap modulo 2^64
        spec = SweepSpec(base=base_spec(n=2, seed=master), epsilons=(0.0, 0.1, 0.5), trials_per_epsilon=13)
        rows = run_sweep(spec)
        assert [r.seed for r in rows] == [mix_seed(master, i) for i in range(39)]
        assert [r.epsilon for r in rows] == [0.0] * 13 + [0.1] * 13 + [0.5] * 13

    def test_an_empty_grid_draws_no_seeds(self):
        assert randgen._trial_seeds(12345, 0) == []

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
            rep = proof_chain_report(near_commuting_pair(GenSpec(dim=4, seed=row.seed, cond_target=100.0), row.epsilon))
            assert (row.mean_gap, row.commutator_gap, row.trace_gap) == (
                rep.mean_gap, rep.commutator_gap, rep.trace_gap)
            assert row.verdict == classify_gaps(rep.mean_gap, rep.commutator_gap).value

    def test_stacked_rows_equal_the_reports_of_their_pairs(self):
        # 12 rows, 8 of them perturbed: at n = 4 both passes run round-robin
        spec = SweepSpec(base=base_spec(n=4, seed=17, cond=100.0), epsilons=(0.0, 0.01, 0.5), trials_per_epsilon=4)
        rows = run_sweep(spec)
        moved = 0
        pairs = randgen._drawn_pairs(4, 100.0, [row.seed for row in rows], [row.epsilon for row in rows])
        means._take_cores(pairs)
        for row, pair in zip(rows, pairs):
            gaps = (row.mean_gap, row.commutator_gap, row.trace_gap)
            rep = proof_chain_report(pair)
            assert gaps == (rep.mean_gap, rep.commutator_gap, rep.trace_gap)
            # the pair built alone takes the cyclic loop: within 1e-14, where
            # 1344 rows (n = 3-9, cond 10 and 100, 4 master seeds, the
            # benchmark's epsilons and trials) moved by at most 4.4e-16 (mean
            # gap), 1.9e-15 (commutator gap) and 2.8e-15 tr X (trace gap),
            # and no row at epsilon = 0 moved
            lone_pair = near_commuting_pair(GenSpec(dim=4, seed=row.seed, cond_target=100.0), row.epsilon)
            lone = proof_chain_report(lone_pair)
            assert abs(row.mean_gap - lone.mean_gap) <= 1e-14
            assert abs(row.commutator_gap - lone.commutator_gap) <= 1e-14
            assert abs(row.trace_gap - lone.trace_gap) <= 1e-14 * np.trace(lone_pair.x).real * lone_pair.unit
            assert row.epsilon > 0.0 or gaps == (lone.mean_gap, lone.commutator_gap, lone.trace_gap)
            moved += gaps != (lone.mean_gap, lone.commutator_gap, lone.trace_gap)
        assert moved > 0

    @pytest.mark.parametrize("stage", [0, 1], ids=["logarithms", "cores"])
    def test_error_in_a_stacked_pass_stays_in_its_row(self, monkeypatch, stage):
        # the fifth member of a round-robin pass does not converge, alone or
        # stacked; the pass falls back to lone calls, and only its row fails
        spec = SweepSpec(base=base_spec(n=4, seed=17), epsilons=(0.01, 0.1, 0.5), trials_per_epsilon=4)
        real_rounds, real_jacobi = linalg._jacobi_rounds, linalg._jacobi
        targets = []
        monkeypatch.setattr(linalg, "_jacobi_rounds", lambda m, v, t: targets.append(t) or real_rounds(m, v, t))
        clean = run_sweep(spec)
        assert [len(t) for t in targets] == [12, 12]
        doomed = targets[stage][4]

        def rounds(m, v, t):
            solutions = real_rounds(m, v, t)
            return [(lam, w, math.inf if target == doomed else mass) for (lam, w, mass), target in zip(solutions, t)]

        def jacobi(m, v, target):
            lam, w, mass = real_jacobi(m, v, target)
            return lam, w, math.inf if target == doomed else mass

        monkeypatch.setattr(linalg, "_jacobi_rounds", rounds)
        monkeypatch.setattr(linalg, "_jacobi", jacobi)
        rows = run_sweep(spec)
        assert rows[4].verdict == "error:NoConvergence" and math.isnan(rows[4].mean_gap)
        for row, ref in zip(rows[:4] + rows[5:], clean[:4] + clean[5:]):
            assert row.verdict == ref.verdict
            assert abs(row.mean_gap - ref.mean_gap) <= 1e-14 and abs(row.commutator_gap - ref.commutator_gap) <= 1e-14

    def test_overflowing_rows_leave_their_block_unchanged(self, monkeypatch):
        # at eps = 1e308 the exponential of log B0 + eps K overflows: those
        # rows fail, and the rest of the block reads as the sweep without them
        stacks = []
        real_rounds = linalg._jacobi_rounds
        monkeypatch.setattr(linalg, "_jacobi_rounds", lambda m, v, t: stacks.append(len(t)) or real_rounds(m, v, t))
        rows = run_sweep(SweepSpec(base=base_spec(n=4, seed=17), epsilons=(0.01, 0.1, 1e308), trials_per_epsilon=4))
        ref = run_sweep(SweepSpec(base=base_spec(n=4, seed=17), epsilons=(0.01, 0.1), trials_per_epsilon=4))
        # both passes run round-robin in both sweeps
        assert stacks == [12, 8, 8, 8]
        assert [r.verdict for r in rows[8:]] == ["error:DomainError"] * 4
        assert all(math.isnan(r.mean_gap) for r in rows[8:])
        assert rows[:8] == ref


class TestWarmStartedSweeps:
    """The generator hints log B0 + eps K with B0's drawn frame and the
    pair's context hints the core with A's, so a row's Jacobi calls start
    nearly diagonal."""

    EPSILONS = (0.0, 0.01, 0.0316, 0.1, 0.316, 1.0)

    def test_sweeps_per_call_on_the_benchmark_grid(self, monkeypatch):
        # the grid of the sweep-small workload, at one fixed master seed
        passes, sweeps = [], []  # members per pass; per pass, the stack size of each rotating sweep
        real_eigen, real_plan = linalg.hermitian_eigen, linalg._rounds_plan

        def counted_eigen(h, frame=None):
            passes.append(len(h))
            sweeps.append([])
            return real_eigen(h, frame)

        class Plan(list):
            """A round-robin plan whose every pass over its rounds is one sweep."""

            def __iter__(self):
                sweeps[-1].append(self.members)
                return super().__iter__()

        def plan(n, k):
            rounds = Plan(real_plan(n, k))
            rounds.members = k
            return rounds

        monkeypatch.setattr(randgen, "hermitian_eigen", counted_eigen)
        monkeypatch.setattr(means, "hermitian_eigen", counted_eigen)
        monkeypatch.setattr(linalg, "_rounds_plan", plan)
        for n in (3, 4, 5, 6):
            assert len(run_sweep(SweepSpec(base=base_spec(n=n, seed=1), epsilons=self.EPSILONS,
                                           trials_per_epsilon=4))) == 24
        # two passes per 24-row call, where rows one by one took 44 calls:
        # the 20 logarithms at epsilon > 0, then the 24 cores
        assert passes == [20, 24] * 4
        # both run round-robin; a member leaves the stack at the start of
        # the sweep where it would stop alone, the 4 cores at epsilon = 0
        # before the first
        assert sweeps == [[20, 20, 12], [20, 20, 5], [20, 20, 13, 1], [20, 20, 11],
                          [20, 20, 20, 4], [20, 20, 17, 3], [20, 20, 20, 10, 1], [20, 20, 20, 7]]
        # 464 rotating sweeps of one member, 2.64 per warm-started matrix,
        # where the cyclic loop took 515 (2.93) and cold starts 783 (4.45)
        assert sum(map(sum, sweeps)) == 464

    def test_a_block_bounds_each_pass(self, monkeypatch):
        # 70 rows at epsilon > 0 take three blocks of at most 32 rows, each
        # of two passes
        passes = []
        real = randgen.hermitian_eigen
        monkeypatch.setattr(randgen, "hermitian_eigen", lambda h, frame=None: passes.append(len(h)) or real(h, frame))
        monkeypatch.setattr(means, "hermitian_eigen", lambda h, frame=None: passes.append(len(h)) or real(h, frame))
        epsilons = tuple(0.01 * (i + 1) for i in range(7))
        rows = run_sweep(SweepSpec(base=base_spec(n=2), epsilons=epsilons, trials_per_epsilon=10))
        assert sweep._BLOCK == 32 and len(rows) == 70
        assert passes == [32, 32, 32, 32, 6, 6]
