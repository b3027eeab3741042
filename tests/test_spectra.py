"""The per-pair spectral context: eigendecomposition counts, r5 through
the core spectrum, exact agreement with the primitive-by-primitive route,
and exact power-of-two scaling of pairs near the ends of the double range.
"""

import json
import math

import numpy as np
import pytest

from conftest import (
    commutator_gap,
    commuting_pair,
    eigh_function,
    gap_objective,
    mix_seed,
    polar,
    proof_intermediates,
    random_pair,
)

import opmeans
from opmeans import cli, linalg, matio, means, randgen, sweep, verify
from opmeans.cli import cli_main
from opmeans.linalg import frobenius_norm, hermitian_eigen, sqrtm
from opmeans.linalg import _assemble, _sqrt_from
from opmeans.matio import save_matrix
from opmeans.means import HpdPair, heron_mean, wasserstein_mean
from opmeans.randgen import GenSpec, random_hpd
from opmeans.verify import GapObjective, proof_chain_report


class EigenCalls(list):
    """The size of every matrix decomposed, one entry per matrix, so a
    stack of k counts k; `passes` holds the stack size of each call."""

    def __init__(self):
        super().__init__()
        self.passes = []


@pytest.fixture
def eigen_calls(monkeypatch):
    """Record every hermitian_eigen call, in each module that binds it."""
    calls = EigenCalls()
    real = linalg.hermitian_eigen

    def counted(h, frame=None):
        shape = np.shape(h)
        members = shape[0] if len(shape) == 3 else 1
        calls.extend([shape[-1]] * members)
        calls.passes.append(members)
        return real(h, frame=frame)

    for mod in (opmeans, linalg, means, verify, randgen, sweep, matio, cli):
        if getattr(mod, "hermitian_eigen", None) is real:
            monkeypatch.setattr(mod, "hermitian_eigen", counted)
    return calls


def write_pair(tmp_path, p, tag="p"):
    fa, fb = tmp_path / f"{tag}_a.json", tmp_path / f"{tag}_b.json"
    save_matrix(str(fa), p.a)
    save_matrix(str(fb), p.b)
    return fa, fb


def reference_report(p, sqrt_and_inv_sqrt, sqrtm):
    """Gaps, r1-r4, r6 and trace gap in the original frame, by the chain's
    formulas through A^{1/2} and A^{-1/2}, from the spectral functions
    given."""
    a, b = p.a, p.b
    sqrt_a, inv_sqrt_a = sqrt_and_inv_sqrt(a)
    sqrt_b = sqrtm(b)
    core = sqrt_a @ b @ sqrt_a
    x = sqrtm((core + core.conj().T) / 2.0)
    y = sqrt_b @ sqrt_a
    avg = (sqrt_a + sqrt_b) / 2.0
    heron = avg @ avg
    heron = (heron + heron.conj().T) / 2.0
    wass = (a + b + sqrt_a @ x @ inv_sqrt_a + inv_sqrt_a @ x @ sqrt_a) / 4.0
    wass = (wass + wass.conj().T) / 2.0
    sab, sba = sqrt_a @ sqrt_b, sqrt_b @ sqrt_a
    sxs_r, sxs_l = sqrt_a @ x @ inv_sqrt_a, inv_sqrt_a @ x @ sqrt_a
    r1 = frobenius_norm(4.0 * (heron - wass) - (sab + sba - sxs_r - sxs_l)) / (
        frobenius_norm(sab) + frobenius_norm(sba) + frobenius_norm(sxs_r) + frobenius_norm(sxs_l))
    ay, ya, ax, xa = a @ y, y.conj().T @ a, a @ x, x @ a
    lhs2 = ay + ya - ax - xa
    r2 = frobenius_norm(lhs2 - 4.0 * (sqrt_a @ (heron - wass) @ sqrt_a)) / (
        frobenius_norm(ay) + frobenius_norm(ya) + frobenius_norm(ax) + frobenius_norm(xa))
    apy, apx = a + y, a + x
    gram = apy.conj().T @ apy
    r3 = frobenius_norm(gram - apx @ apx - lhs2) / frobenius_norm(gram)
    r4 = frobenius_norm(sqrtm((gram + gram.conj().T) / 2.0) - apx) / frobenius_norm(apx)
    r6 = frobenius_norm(y - y.conj().T) / frobenius_norm(y)
    return {
        "mean_gap": frobenius_norm(heron - wass) / (frobenius_norm(a) + frobenius_norm(b)),
        "commutator_gap": commutator_gap(a, b),
        "r1": r1, "r2": r2, "r3": r3, "r4": r4, "r6": r6,
        "trace_gap": float(np.trace(x).real - np.einsum("ij,ji->", sqrt_a, sqrt_b).real),
    }


def frame_report(p):
    """Gaps, r1-r4, r6 and trace gap from the linalg primitives alone, in
    A's eigenframe (Q, a) with s = sqrt(a), as the pair's context forms
    them: products with A and A^{1/2} are entrywise scalings there, and
    4(H - W)_ij = (s_i + s_j) B^{1/2}_ij - ((a_i + a_j) / (s_i s_j)) X_ij."""
    a, b = p.a, p.b
    eig_a, eig_b = hermitian_eigen(a), hermitian_eigen(b)
    q, lam = eig_a.frame, eig_a.eigenvalues
    s, ss = np.sqrt(lam), np.outer(np.sqrt(lam), np.sqrt(lam))
    bt = q.conj().T @ b @ q
    bt = (bt + bt.conj().T) / 2.0
    sqrt_b = _assemble(q.conj().T @ eig_b.frame, np.sqrt(eig_b.eigenvalues))
    eig_core = hermitian_eigen(bt * ss)
    x = _sqrt_from(eig_core)
    y = sqrt_b * s
    gap = (s[:, None] + s) * sqrt_b - (lam[:, None] + lam) / ss * x
    avg = (np.diag(s) + sqrt_b) / 2.0
    heron = avg @ avg
    heron = (heron + heron.conj().T) / 2.0
    wass = (np.diag(lam) + bt + (lam[:, None] + lam) / ss * x) / 4.0
    cross = x * (s[:, None] / s)
    r1 = frobenius_norm(4.0 * (heron - wass) - gap) / (
        frobenius_norm(y.conj().T) + frobenius_norm(y) + frobenius_norm(cross) + frobenius_norm(cross.conj().T))
    ay, ya, ax, xa = lam[:, None] * y, y.conj().T * lam, lam[:, None] * x, x * lam
    lhs2 = ay + ya - ax - xa
    r2 = frobenius_norm(lhs2 - 4.0 * ss * (heron - wass)) / (
        frobenius_norm(ay) + frobenius_norm(ya) + frobenius_norm(ax) + frobenius_norm(xa))
    apy, apx = np.diag(lam) + y, np.diag(lam) + x
    gram = apy.conj().T @ apy
    r3 = frobenius_norm(gram - apx @ apx - lhs2) / frobenius_norm(gram)
    r4 = frobenius_norm(sqrtm((gram + gram.conj().T) / 2.0) - apx) / frobenius_norm(apx)
    r6 = frobenius_norm(y - y.conj().T) / frobenius_norm(y)
    return {
        "mean_gap": frobenius_norm(gap) / (4.0 * (frobenius_norm(a) + frobenius_norm(b))),
        "commutator_gap": means._commutator(lam[:, None] - lam, bt, frobenius_norm(a), frobenius_norm(b)),
        "r1": r1, "r2": r2, "r3": r3, "r4": r4, "r6": r6,
        "trace_gap": float(np.trace(x).real - s @ sqrt_b.diagonal().real),
    }


def report_values(rep):
    values = {"mean_gap": rep.mean_gap, "commutator_gap": rep.commutator_gap,
              "trace_gap": rep.trace_gap}
    values.update((k, rep.residuals[k]) for k in ("r1", "r2", "r3", "r4", "r6"))
    return values


def sample_pairs():
    """23 pairs, each built from its bare matrices, so that its context
    decomposes A and B as the reference does (a generated pair would
    take the spectra it was drawn from)."""
    pairs = [random_pair(2 + seed % 7, seed, cond=10.0 ** (1 + seed % 3)) for seed in range(14)]
    pairs += [commuting_pair(2 + seed % 7, seed, cond=1000.0) for seed in range(6)]
    pairs += [randgen.near_commuting_pair(GenSpec(dim=4, seed=seed, cond_target=30.0), eps)
              for seed, eps in enumerate((0.01, 0.1, 1.0))]
    return [HpdPair(a=p.a, b=p.b) for p in pairs]


class TestEigendecompositionCounts:
    def test_cli_verify_uses_four(self, tmp_path, eigen_calls):
        fa, fb = write_pair(tmp_path, random_pair(6, 3, cond=100.0))
        del eigen_calls[:], eigen_calls.passes[:]  # the set-up pair's own pass
        assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(tmp_path / "r.json")]) == 0
        assert len(eigen_calls) == 4

    def test_cli_verify_at_24_takes_two_passes_of_two(self, tmp_path, eigen_calls):
        # A and B, then the core and the gram of A+Y
        fa, fb = write_pair(tmp_path, random_pair(24, 3, cond=100.0))
        del eigen_calls[:], eigen_calls.passes[:]  # the set-up pair's own pass
        assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(tmp_path / "r.json")]) == 0
        assert eigen_calls.passes == [2, 2]
        assert eigen_calls == [24] * 4

    def test_report_on_direct_pair_uses_four(self, eigen_calls):
        proof_chain_report(random_pair(5, 2, cond=50.0))
        assert len(eigen_calls) == 4
        assert eigen_calls.passes == [2, 2]

    def test_trace_gap_on_validated_pair_uses_one(self, eigen_calls):
        p = random_pair(4, 6, cond=50.0)
        q = HpdPair.validated(p.a, p.b)
        del eigen_calls[:]
        q.trace_gap
        assert len(eigen_calls) == 1

    def test_gap_objective_evaluate_uses_one(self, eigen_calls):
        # the core's: B^{1/2} = sqrt(nu) R^2 and B are products
        obj = gap_objective(random_hpd(GenSpec(dim=3, seed=4, cond_target=5.0))[0],
                            random_hpd(GenSpec(dim=3, seed=5, cond_target=5.0))[0])
        del eigen_calls[:]
        obj.evaluate(obj.start)
        assert len(eigen_calls) == 1

    @pytest.mark.parametrize("eps, count, passes", [(0.0, 1, [1]), (0.3, 2, [1, 1])],
                             ids=["0.0-1", "0.3-2"])
    def test_sweep_row(self, eigen_calls, eps, count, passes):
        # the core alone: the pair carries the spectra of A and B it was
        # drawn from; a perturbed row first takes the generator's exp,
        # whose one spectrum, of log B0 + eps K, also gives B's
        base = GenSpec(dim=4, seed=3, cond_target=10.0)
        sweep.run_sweep(sweep.SweepSpec(base=base, epsilons=(eps,), trials_per_epsilon=1))
        assert len(eigen_calls) == count
        assert eigen_calls.passes == passes

    def test_minimize_converged_at_start_uses_three(self, eigen_calls):
        # set-up takes A and B0 in the pair context's one pass, the one
        # evaluation the core
        b0, _ = random_hpd(GenSpec(dim=3, seed=2, cond_target=5.0))
        trace = verify.minimize_gap(np.eye(3, dtype=complex), b0)
        assert trace.stop_reason == "converged" and len(trace.iterates) == 1
        assert len(eigen_calls) == 3
        assert eigen_calls.passes == [2, 1]

    def test_gradient_at_evaluated_point_uses_none(self, eigen_calls):
        obj = gap_objective(random_hpd(GenSpec(dim=4, seed=4, cond_target=5.0))[0],
                            random_hpd(GenSpec(dim=4, seed=5, cond_target=5.0))[0])
        pt = obj.evaluate(obj.start)
        del eigen_calls[:]
        obj.gradient(pt)
        assert len(eigen_calls) == 0

    def test_minimize_takes_one_per_evaluation(self, eigen_calls, monkeypatch):
        # set-up takes A and B0 in one pass; every evaluation the core, and
        # the gradient reads the spectrum of the point that accepted R
        evaluations = []
        real = GapObjective.evaluate

        def counted(obj, r):
            evaluations.append(r)
            return real(obj, r)

        monkeypatch.setattr(GapObjective, "evaluate", counted)
        a, _ = random_hpd(GenSpec(dim=3, seed=6, cond_target=3.0))
        b0, _ = random_hpd(GenSpec(dim=3, seed=7, cond_target=3.0))
        trace = verify.minimize_gap(a, b0, budget=1)
        assert trace.stop_reason == "budget" and len(trace.iterates) == 2
        assert len(eigen_calls) == 2 + len(evaluations)
        assert eigen_calls.passes == [2] + [1] * len(evaluations)
        # the start and one accepted trial; forward differences would add 9
        assert len(evaluations) == 2

    def test_witness_uses_three(self, eigen_calls):
        # |X|, |Y|, and one gram of X+Y for both |X+Y| and its polar
        # factor, all in one pass
        p = random_pair(4, 9, cond=20.0)
        del eigen_calls[:], eigen_calls.passes[:]  # the set-up pair's own pass
        verify.ando_hayashi_witness(p.a, p.b)
        assert len(eigen_calls) == 3
        assert eigen_calls.passes == [3]

    def test_intermediates_then_report_share_the_context(self, eigen_calls):
        p = random_pair(4, 8, cond=20.0)
        ints = proof_intermediates(p)
        proof_chain_report(p)
        proof_chain_report(p)
        assert len(eigen_calls) == 5
        # the core is cached by the intermediates, so each report's gram
        # takes a pass of its own
        assert eigen_calls.passes == [2, 1, 1, 1]


class TestTakeCores:
    """`means._take_cores`, the one second pass: the cores a pair has not
    cached, beside other matrices, in one stack."""

    @staticmethod
    def pairs_and_beside(n):
        return random_pair(n, 1, cond=30.0), random_pair(n, 2, cond=30.0), random_pair(n, 3).a

    @pytest.mark.parametrize("n", [5, 12])
    def test_one_pass_fills_cores_and_returns_beside(self, eigen_calls, n):
        p, q, h = self.pairs_and_beside(n)
        del eigen_calls[:], eigen_calls.passes[:]  # the set-up pairs' own passes
        (eig,) = means._take_cores([p, q], (h,))
        assert eigen_calls.passes == [3]
        ref = hermitian_eigen(h)
        assert np.array_equal(eig.eigenvalues, ref.eigenvalues) and np.array_equal(eig.frame, ref.frame)
        for pair in (p, q):
            twin = HpdPair(a=pair.a, b=pair.b)
            assert np.array_equal(pair.core[0].eigenvalues, twin.core[0].eigenvalues)
            assert np.array_equal(pair.core[0].frame, twin.core[0].frame)
            assert np.array_equal(pair.x, twin.x)

    def test_cached_core_is_left_out(self, eigen_calls):
        p, q, h = self.pairs_and_beside(4)
        core = p.core
        del eigen_calls[:], eigen_calls.passes[:]
        assert len(means._take_cores([p, q], (h,))) == 1
        assert eigen_calls.passes == [2]  # q's core and h
        assert p.core is core
        del eigen_calls[:], eigen_calls.passes[:]
        assert means._take_cores([p, q]) == []
        assert eigen_calls.passes == []

    def test_nothing_to_take_calls_no_eigensolver(self, eigen_calls):
        assert means._take_cores([]) == []
        assert eigen_calls.passes == []

    def test_pair_whose_core_raises_is_skipped(self, eigen_calls):
        p, q, h = self.pairs_and_beside(4)
        p.b_t = np.full_like(p.b_t, 1e308)  # its core leaves the double range
        del eigen_calls[:], eigen_calls.passes[:]
        with np.errstate(over="ignore", invalid="ignore"):  # entries past DBL_MAX are inf or nan
            (eig,) = means._take_cores([p, q], (h,))
            assert eigen_calls.passes == [2]  # q's core and h
            assert "core" not in p.__dict__ and "core" in q.__dict__
            assert np.array_equal(eig.eigenvalues, hermitian_eigen(h).eigenvalues)
            with pytest.raises(linalg.NumericalError, match=r"core A\^\{1/2\} B A\^\{1/2\} leaves the double range"):
                p.x

    def test_error_of_the_pass_is_raised(self):
        p, q, h = self.pairs_and_beside(4)
        with pytest.raises(linalg.NotHermitian):
            means._take_cores([p, q], (h + np.triu(np.ones((4, 4)), 1),))
        assert "core" not in p.__dict__ and "core" not in q.__dict__


def eigh_report(p):
    """`reference_report` and r5 with every spectrum from eigh."""
    def root(h):
        return eigh_function(h, lambda w: np.sqrt(np.maximum(w, 0.0)))

    values = reference_report(
        p, sqrt_and_inv_sqrt=lambda a: (root(a), eigh_function(a, lambda w: 1.0 / np.sqrt(w))), sqrtm=root)
    y = root(p.b) @ root(p.a)
    u = y @ eigh_function(y.conj().T @ y, lambda w: 1.0 / np.sqrt(w))
    values["r5"] = frobenius_norm(u - np.eye(p.dim)) / math.sqrt(p.dim)
    return values


@pytest.fixture
def rounds_per_pass(monkeypatch):
    """Round-robin rounds per call of the round-robin solver, one entry per
    pass, skipped rounds included."""
    passes = []
    real_plan, real_rounds = linalg._rounds_plan, linalg._jacobi_rounds

    class Counted(list):
        def __iter__(self):
            for step in list.__iter__(self):
                passes[-1] += 1
                yield step

    def rounds(*args):
        passes.append(0)
        return real_rounds(*args)

    monkeypatch.setattr(linalg, "_rounds_plan", lambda n, k: Counted(real_plan(n, k)))
    monkeypatch.setattr(linalg, "_jacobi_rounds", rounds)
    return passes


class TestSecondPassFromAFrame:
    """A pair read from files starts its second pass, the core and the gram
    of A+Y, from the frame its first pass gave A."""

    # (pair, rounds of the pass over A and B, rounds of the pass over the
    # core and the gram) at n = 24: 2116 rounds in all, where a cold
    # second pass took 2668; each sweep is 23 rounds
    ROUNDS = [
        (("generic", 10.0), 184, 138),
        (("generic", 30.0), 161, 161),
        (("generic", 100.0), 184, 138),
        (("generic", 300.0), 207, 161),
        (("generic", 1000.0), 207, 184),
        (("commuting", 10.0), 161, 23),
        (("commuting", 100.0), 184, 23),
    ]

    @staticmethod
    def pair(family, cond, seed):
        return random_pair(24, seed, cond) if family == "generic" else commuting_pair(24, seed, cond)

    def test_round_counts_pinned(self, tmp_path, rounds_per_pass):
        for seed, ((family, cond), first, second) in enumerate(self.ROUNDS):
            fa, fb = write_pair(tmp_path, self.pair(family, cond, seed))
            del rounds_per_pass[:]
            proof_chain_report(HpdPair.validated(matio.load_matrix(str(fa)), matio.load_matrix(str(fb))))
            assert rounds_per_pass == [first, second], (family, cond)
            if family == "commuting":
                # in A's frame both matrices are diagonal up to roundoff
                assert second <= 23

    # the same seven pairs written by `gen`, whose files carry the frames
    # it drew: (rounds of the first pass, rounds of the second), 782 in all
    ROUNDS_FROM_GEN = [(0, 138), (0, 161), (0, 138), (0, 161), (0, 184), (0, 0), (0, 0)]

    def test_round_counts_from_gen_files(self, tmp_path, rounds_per_pass):
        # `verify` starts the first pass from the drawn frames, in which A and
        # B are diagonal up to roundoff: at most one sweep of 23 rounds rotates
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        counts = []
        for seed, ((family, cond), _, _) in enumerate(self.ROUNDS):
            if family == "generic":
                for path, k in ((fa, 0), (fb, 1)):
                    assert cli_main(["gen", "--n", "24", "--seed", str(mix_seed(seed, k)),
                                     "--cond", str(cond), "--out", str(path)]) == 0
            else:
                assert cli_main(["gen", "--n", "24", "--seed", str(seed), "--cond", str(cond), "--family",
                                 "commuting", "--out-a", str(fa), "--out-b", str(fb)]) == 0
            p = self.pair(family, cond, seed)
            assert np.array_equal(matio.load_matrix(str(fa)), p.a) and np.array_equal(matio.load_matrix(str(fb)), p.b)
            del rounds_per_pass[:]
            assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(tmp_path / "r.json")]) == 0
            counts.append(tuple(rounds_per_pass))
            assert rounds_per_pass[0] <= 23, (family, cond)
        assert counts == self.ROUNDS_FROM_GEN
        assert sum(map(sum, counts)) == 782

    # the core's and the gram's member of the second pass, and both: the
    # error is the first failing member's
    FAILED_SECOND_PASS = [
        ([0], "off-diagonal mass inf above 1.006e-14 after 100 sweeps (n = 24)"),
        ([1], "off-diagonal mass inf above 5.328e-14 after 100 sweeps (n = 24)"),
        ([0, 1], "off-diagonal mass inf above 1.006e-14 after 100 sweeps (n = 24)"),
    ]

    @pytest.mark.parametrize("members, message", FAILED_SECOND_PASS, ids=["core", "gram", "both"])
    def test_failed_second_pass_exits_2(self, tmp_path, capsys, monkeypatch, members, message):
        # `gen` files carry the drawn frames, so the first pass takes no
        # rounds; members of the second, over the core and the gram of A+Y,
        # are forced not to converge
        fa, fb, fo = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.json"
        for path, k in ((fa, 0), (fb, 1)):
            assert cli_main(["gen", "--n", "24", "--seed", str(mix_seed(0, k)), "--cond", "10",
                             "--out", str(path)]) == 0
        real_rounds, passes = linalg._jacobi_rounds, []

        def rounds(m, v, t):
            passes.append(len(t))
            doomed = members if len(passes) == 2 else []
            return [(lam, w, math.inf if i in doomed else mass)
                    for i, (lam, w, mass) in enumerate(real_rounds(m, v, t))]

        monkeypatch.setattr(linalg, "_jacobi_rounds", rounds)
        assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(fo)]) == 2
        assert passes == [2, 2]
        assert capsys.readouterr().err == f"numerical error: {message}\n"
        assert not fo.exists()

    @pytest.mark.parametrize("n", [6, 24])
    def test_report_does_not_depend_on_a_cached_core(self, n):
        # the gram decomposed alone, after the gaps took the core, starts
        # from A's frame as it does beside the core
        for seed in range(3):
            for p in (random_pair(n, seed, cond=100.0), commuting_pair(n, seed, cond=100.0)):
                beside = proof_chain_report(HpdPair(a=p.a, b=p.b))
                alone = HpdPair(a=p.a, b=p.b)
                alone.mean_gap  # takes the core, as a sweep row does
                assert proof_chain_report(alone) == beside


class TestDrawnRoute:
    """A generated pair's context takes the spectra the pair was drawn from."""

    def test_report_agrees_with_validated_pair_and_eigh(self):
        # r5 of a commuting pair is roundoff amplified by cond: at cond 100
        # the eigh oracle's own r5 moves by 7e-13, so the pairs stop at 30
        for n in range(1, 7):
            for cond in (10.0, 30.0):
                for seed in range(3):
                    pairs = [commuting_pair(n, seed, cond)] + [randgen.near_commuting_pair(
                        GenSpec(dim=n, seed=seed, cond_target=cond), eps) for eps in (0.0, 1e-2, 1.0)]
                    for p in pairs:
                        got = proof_chain_report(p)
                        values = report_values(got) | {"r5": got.residuals["r5"]}
                        validated = proof_chain_report(HpdPair.validated(p.a, p.b))
                        for ref in (report_values(validated) | {"r5": validated.residuals["r5"]},
                                    eigh_report(p)):
                            assert all(abs(values[k] - ref[k]) <= 1e-13 for k in ref), (n, cond, seed)

    def test_second_config_takes_no_pair_pass(self, eigen_calls):
        # a pair has one context, whatever config validated it or judges it
        q = random_pair(4, 5)
        del eigen_calls[:], eigen_calls.passes[:]  # the set-up pair's own pass
        p = HpdPair.validated(q.a, q.b, linalg.ToleranceConfig(identity_tol=1e-8))
        report = proof_chain_report(p)
        assert (p.mean_gap, p.commutator_gap) == (report.mean_gap, report.commutator_gap)
        assert p.trace_gap == report.trace_gap
        assert eigen_calls.passes == [2, 2]  # A and B, then the core and the gram of A+Y
        assert p.core is p.core


class TestPolarFromCore:
    def test_r5_matches_polar_of_y(self):
        # commuting pairs stop at cond 100: at cond 1e3 r5 itself is core
        # roundoff (up to ~1e-9), on which the two routes differ by ~2e-12
        pairs = [random_pair(2 + seed % 7, seed, cond=10.0 ** (1 + seed % 3)) for seed in range(21)]
        pairs += [commuting_pair(2 + seed % 7, seed, cond=100.0) for seed in range(14)]
        for p in pairs:
            n = p.dim
            u = polar(proof_intermediates(p).y).isometry
            expected = frobenius_norm(u - np.eye(n)) / math.sqrt(n)
            assert abs(proof_chain_report(p).residuals["r5"] - expected) <= 1e-12

    def test_core_below_floor_is_singular(self):
        # B has an eigenvalue whose root is far below the floor; the core
        # A^{1/2} B A^{1/2} inherits it exactly since both are diagonal
        p = HpdPair(a=np.diag([1.0, 2.0, 3.0]).astype(complex),
                    b=np.diag([4.0, 1e-30, 1.0]).astype(complex))
        rep = proof_chain_report(p)
        assert rep.residuals["r5"] == math.inf
        assert all(math.isfinite(rep.residuals[k]) for k in ("r1", "r2", "r3", "r4", "r6"))


class TestAgreementWithPrimitives:
    def test_report_equals_reference_exactly(self):
        for p in sample_pairs():
            assert report_values(proof_chain_report(p)) == frame_report(p)

    def test_trace_gap_is_frame_report_trace_gap(self):
        for p in sample_pairs():
            gap, ref = p.trace_gap, frame_report(p)
            assert gap == ref["trace_gap"]
            # the 6 commuting pairs, and only they, have a trace gap within tolerance
            assert (gap <= 1e-10 * np.trace(proof_intermediates(p).x).real) == (ref["commutator_gap"] <= 1e-6)

    @pytest.mark.parametrize("e", [330, -330, 600, -600])
    def test_scaled_pair_reproduces_unscaled(self, e):
        p = random_pair(5, 12, cond=300.0)
        c = 2.0**e
        scaled = HpdPair.validated(p.a * c, p.b * c)
        ref = frame_report(p)
        got = report_values(proof_chain_report(scaled))
        assert got.pop("trace_gap") == ref.pop("trace_gap") * c
        assert got == ref
        assert np.array_equal(heron_mean(scaled), heron_mean(p) * c)
        assert np.array_equal(wasserstein_mean(scaled), wasserstein_mean(p) * c)

    def test_matrices_are_exactly_scaled(self):
        # a pair with large entries is scaled by an even power of two, and
        # its intermediates come back in the pair's units bit for bit
        p = random_pair(4, 1, cond=1000.0)
        ints = proof_intermediates(p)
        assert p.unit == 16.0
        big = proof_intermediates(HpdPair(a=p.a * 2.0**40, b=p.b * 2.0**40))
        assert np.array_equal(big.x, ints.x * 2.0**40)
        assert np.array_equal(big.sqrt_a, ints.sqrt_a * 2.0**20)
        assert np.array_equal(big.inv_sqrt_a, ints.inv_sqrt_a * 2.0**-20)

    @pytest.mark.parametrize("ea, eb, balanced", [(0, 997, False), (-10, 1013, False), (-11, 1013, True),
                                                  (531, -531, True), (-1000, 1000, True)])
    def test_far_apart_pair_is_balanced(self, ea, eb, balanced):
        # the unit puts the larger matrix's largest entry in [1, 4) unless the
        # smaller one's would then be subnormal; then it puts the geometric
        # mean of the two in [1, 8), where both are normal
        a, b = (np.diag([1.5, 1.0, 0.75]).astype(complex) * 2.0**e for e in (ea, eb))
        p = HpdPair.validated(a, b)
        tops = (np.abs(p.a_u).max(), np.abs(p.b_u).max())
        assert p.balanced == balanced
        if balanced:
            assert 1.0 <= math.sqrt(tops[0] * tops[1]) < 8.0 and min(tops) >= 2.0**-1022
        else:
            assert 1.0 <= max(tops) < 4.0


class TestScaledCli:
    @pytest.mark.parametrize("e", [330, -330, 600, -600])
    def test_verify_scaled_pair(self, tmp_path, capsys, e):
        p = random_pair(6, 21, cond=100.0)
        fa, fb = write_pair(tmp_path, p, "twin")
        ga, gb = write_pair(tmp_path, HpdPair(a=p.a * 2.0**e, b=p.b * 2.0**e), "scaled")
        twin, scaled = tmp_path / "twin.json", tmp_path / "scaled.json"
        assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(twin)]) == 0
        assert cli_main(["verify", "--a", str(ga), "--b", str(gb), "--out", str(scaled)]) == 0
        assert capsys.readouterr().err == ""
        ref, rep = json.loads(twin.read_text()), json.loads(scaled.read_text())
        assert rep["residuals"] == ref["residuals"]
        assert (rep["mean_gap"], rep["commutator_gap"]) == (ref["mean_gap"], ref["commutator_gap"])
        assert rep["trace_gap"] == ref["trace_gap"] * 2.0**e
        assert rep["verdict"] == ref["verdict"]
