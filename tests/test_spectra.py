"""The per-pair spectral context: eigendecomposition counts, r5 through
the core spectrum, exact agreement with the primitive-by-primitive route,
and exact power-of-two scaling of pairs near the ends of the double range.
"""

import json
import math

import numpy as np
import pytest

from conftest import commuting_pair, random_pair

import opmeans
from opmeans import cli, linalg, matio, means, randgen, sweep, verify
from opmeans.cli import cli_main
from opmeans.linalg import frobenius_norm, hermitian_eigen, polar, sqrt_and_inv_sqrt, sqrtm
from opmeans.linalg import _sqrt_from
from opmeans.matio import save_matrix
from opmeans.means import HpdPair, heron_mean, proof_intermediates, wasserstein_mean
from opmeans.randgen import GenSpec, random_hpd
from opmeans.verify import GapObjective, commutator_gap, proof_chain_report, trace_criterion


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


def sqrtm_in_frame_of(h, a):
    """The square root of h, a congruence through A^{1/2}, decomposed from
    A's frame as the pair's context decomposes the core."""
    return _sqrt_from(hermitian_eigen(h, frame=hermitian_eigen(a).frame))


def reference_report(p, sqrt_and_inv_sqrt=sqrt_and_inv_sqrt, sqrtm=sqrtm, sqrtm_from_a=sqrtm_in_frame_of):
    """Gaps, r1-r4, r6 and trace gap from the linalg primitives alone, or
    from the spectral functions given; `sqrtm_from_a(h, a)` takes the
    square roots of the core and of the gram of A+Y."""
    a, b = p.a, p.b
    sqrt_a, inv_sqrt_a = sqrt_and_inv_sqrt(a)
    sqrt_b = sqrtm(b)
    core = sqrt_a @ b @ sqrt_a
    x = sqrtm_from_a((core + core.conj().T) / 2.0, a)
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
    r4 = frobenius_norm(sqrtm_from_a((gram + gram.conj().T) / 2.0, a) - apx) / frobenius_norm(apx)
    r6 = frobenius_norm(y - y.conj().T) / frobenius_norm(y)
    return {
        "mean_gap": frobenius_norm(heron - wass) / (frobenius_norm(a) + frobenius_norm(b)),
        "commutator_gap": commutator_gap(a, b),
        "r1": r1, "r2": r2, "r3": r3, "r4": r4, "r6": r6,
        "trace_gap": float(np.trace(x).real - np.einsum("ij,ji->", sqrt_a, sqrt_b).real),
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
    pairs += [randgen.near_commuting_pair(
        GenSpec(dim=4, seed=seed, cond_target=30.0, family="near_commuting", epsilon=eps))
        for seed, eps in enumerate((0.01, 0.1, 1.0))]
    return [HpdPair(a=p.a, b=p.b) for p in pairs]


class TestEigendecompositionCounts:
    def test_cli_verify_uses_four(self, tmp_path, eigen_calls):
        fa, fb = write_pair(tmp_path, random_pair(6, 3, cond=100.0))
        assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(tmp_path / "r.json")]) == 0
        assert len(eigen_calls) == 4

    def test_cli_verify_at_24_takes_two_passes_of_two(self, tmp_path, eigen_calls):
        # A and B, then the core and the gram of A+Y
        fa, fb = write_pair(tmp_path, random_pair(24, 3, cond=100.0))
        assert cli_main(["verify", "--a", str(fa), "--b", str(fb), "--out", str(tmp_path / "r.json")]) == 0
        assert eigen_calls.passes == [2, 2]
        assert eigen_calls == [24] * 4

    def test_report_on_direct_pair_uses_four(self, eigen_calls):
        proof_chain_report(random_pair(5, 2, cond=50.0))
        assert len(eigen_calls) == 4
        assert eigen_calls.passes == [2, 2]

    def test_trace_criterion_on_validated_pair_uses_one(self, eigen_calls):
        p = random_pair(4, 6, cond=50.0)
        q = HpdPair.validated(p.a, p.b)
        del eigen_calls[:]
        trace_criterion(q)
        assert len(eigen_calls) == 1

    def test_gap_objective_evaluate_uses_two(self, eigen_calls):
        obj = GapObjective(random_hpd(GenSpec(dim=3, seed=4, cond_target=5.0)))
        s = linalg.logm(random_hpd(GenSpec(dim=3, seed=5, cond_target=5.0)))
        del eigen_calls[:]
        obj.evaluate(s)
        assert len(eigen_calls) == 2

    @pytest.mark.parametrize("eps, count, passes", [(0.0, 1, [1]), (0.3, 2, [1, 1])],
                             ids=["0.0-1", "0.3-2"])
    def test_sweep_row(self, eigen_calls, eps, count, passes):
        # the core alone: the pair carries the spectra of A and B it was
        # drawn from; a perturbed row first takes the generator's exp,
        # whose one spectrum, of log B0 + eps K, also gives B's
        base = GenSpec(dim=4, seed=3, cond_target=10.0, family="near_commuting")
        sweep.run_sweep(sweep.SweepSpec(base=base, epsilons=(eps,), trials_per_epsilon=1))
        assert len(eigen_calls) == count
        assert eigen_calls.passes == passes

    def test_minimize_converged_at_start_uses_four(self, eigen_calls):
        # set-up takes A and B0 once each, the one evaluation S and the core
        b0 = random_hpd(GenSpec(dim=3, seed=2, cond_target=5.0))
        trace = verify.minimize_gap(np.eye(3, dtype=complex), b0)
        assert trace.stop_reason == "converged" and len(trace.iterates) == 1
        assert len(eigen_calls) == 4

    def test_gradient_at_evaluated_point_uses_none(self, eigen_calls):
        obj = GapObjective(random_hpd(GenSpec(dim=4, seed=4, cond_target=5.0)))
        s = linalg.logm(random_hpd(GenSpec(dim=4, seed=5, cond_target=5.0)))
        obj.evaluate(s)
        del eigen_calls[:]
        obj.gradient(s)
        assert len(eigen_calls) == 0

    def test_minimize_takes_two_per_evaluation(self, eigen_calls, monkeypatch):
        # set-up takes A and B0; every evaluation S and the core, and the
        # gradient reuses the spectra of the evaluation that accepted S
        evaluations = []
        real = GapObjective.evaluate

        def counted(obj, s):
            evaluations.append(s)
            return real(obj, s)

        monkeypatch.setattr(GapObjective, "evaluate", counted)
        a = random_hpd(GenSpec(dim=3, seed=6, cond_target=3.0))
        b0 = random_hpd(GenSpec(dim=3, seed=7, cond_target=3.0))
        trace = verify.minimize_gap(a, b0, budget=1)
        assert trace.stop_reason == "budget" and len(trace.iterates) == 2
        assert len(eigen_calls) == 2 + 2 * len(evaluations)
        # the start and one accepted trial; forward differences would add 9
        assert len(evaluations) == 2

    def test_witness_uses_three(self, eigen_calls):
        # |X|, |Y|, and one gram of X+Y for both |X+Y| and its polar
        # factor, all in one pass
        p = random_pair(4, 9, cond=20.0)
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


def eigh_function(h, f):
    """f of a Hermitian matrix through np.linalg.eigh, the test oracle."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (v * f(w)) @ v.conj().T


def eigh_report(p):
    """`reference_report` and r5 with every spectrum from eigh."""
    def root(h):
        return eigh_function(h, lambda w: np.sqrt(np.maximum(w, 0.0)))

    values = reference_report(
        p, sqrt_and_inv_sqrt=lambda a: (root(a), eigh_function(a, lambda w: 1.0 / np.sqrt(w))),
        sqrtm=root, sqrtm_from_a=lambda h, a: root(h))
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

    @pytest.mark.parametrize("n", [6, 24])
    def test_report_does_not_depend_on_a_cached_core(self, n):
        # the gram decomposed alone, after pair_gaps took the core, starts
        # from A's frame as it does beside the core
        for seed in range(3):
            for p in (random_pair(n, seed, cond=100.0), commuting_pair(n, seed, cond=100.0)):
                beside = proof_chain_report(HpdPair(a=p.a, b=p.b))
                alone = HpdPair(a=p.a, b=p.b)
                verify.pair_gaps(alone)
                assert proof_chain_report(alone) == beside


class TestDrawnRoute:
    """A generated pair's context takes the spectra the pair was drawn from."""

    def test_report_agrees_with_validated_pair_and_eigh(self):
        # r5 of a commuting pair is roundoff amplified by cond: at cond 100
        # the eigh oracle's own r5 moves by 7e-13, so the pairs stop at 30
        for n in range(1, 7):
            for cond in (10.0, 30.0):
                for seed in range(3):
                    pairs = [commuting_pair(n, seed, cond)] + [randgen.near_commuting_pair(GenSpec(
                        dim=n, seed=seed, cond_target=cond, family="near_commuting", epsilon=eps))
                        for eps in (0.0, 1e-2, 1.0)]
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
        p = HpdPair.validated(q.a, q.b, linalg.ToleranceConfig(identity_tol=1e-8))
        report = proof_chain_report(p)
        assert verify.pair_gaps(p) == (report.mean_gap, report.commutator_gap)
        assert trace_criterion(p, linalg.ToleranceConfig())[0] == report.trace_gap
        assert eigen_calls.passes == [2, 2]  # A and B, then the core and the gram of A+Y
        assert p.spectra is p.spectra


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
        assert rep.polar_singular
        assert rep.residuals["r5"] == math.inf
        assert all(math.isfinite(rep.residuals[k]) for k in ("r1", "r2", "r3", "r4", "r6"))


class TestAgreementWithPrimitives:
    def test_report_equals_reference_exactly(self):
        for p in sample_pairs():
            assert report_values(proof_chain_report(p)) == reference_report(p)

    def test_trace_criterion_is_report_trace_gap(self):
        for p in sample_pairs():
            gap, flag = trace_criterion(p)
            assert gap == reference_report(p)["trace_gap"]
            assert flag == (gap <= 1e-10 * np.trace(proof_intermediates(p).x).real)

    @pytest.mark.parametrize("e", [330, -330, 600, -600])
    def test_scaled_pair_reproduces_unscaled(self, e):
        p = random_pair(5, 12, cond=300.0)
        c = 2.0**e
        scaled = HpdPair.validated(p.a * c, p.b * c)
        ref = reference_report(p)
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
        assert p.spectra.unit == 16.0
        big = proof_intermediates(HpdPair(a=p.a * 2.0**40, b=p.b * 2.0**40))
        assert np.array_equal(big.x, ints.x * 2.0**40)
        assert np.array_equal(big.sqrt_a, ints.sqrt_a * 2.0**20)
        assert np.array_equal(big.inv_sqrt_a, ints.inv_sqrt_a * 2.0**-20)


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
