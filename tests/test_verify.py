"""Identity residuals, verdict classification, trace criterion, witness
recovery, and the gap-minimization experiment."""

import math

import numpy as np
import pytest

from conftest import commuting_pair, hpd, mat, random_pair

from opmeans.linalg import NumericalError, Singular, abs_op, frobenius_norm, logm
from opmeans.means import HpdPair, heron_mean, proof_intermediates, wasserstein_mean
from opmeans.randgen import GenSpec, SplitMix64, mix_seed, random_hpd
from opmeans.verify import (
    GapObjective,
    TriangleEqualityFails,
    Verdict,
    ando_hayashi_witness,
    classify_gaps,
    commutator_gap,
    minimize_gap,
    pair_gaps,
    proof_chain_report,
    theorem_check,
    trace_criterion,
    _coords,
    _hermitian,
)

EXAMPLE_A = mat([[2.0, 1.0], [1.0, 2.0]])
EXAMPLE_B = mat([[3.0, 0.0], [0.0, 1.0]])


def random_unitary(seed, n):
    return np.linalg.qr(SplitMix64(seed).complex_gaussian_matrix(n))[0]


def near_commutant_point(n, seed, offset):
    """Diagonal A on a jittered eigenvalue ladder in [1/sqrt(3), sqrt(3)] and
    a chart point S at Frobenius distance `offset` from the diagonal ones,
    whose exp(S) commute with A."""
    rng = SplitMix64(seed)
    ladder = np.linspace(-0.5, 0.5, n) * math.log(3.0)
    a = np.diag(np.exp(ladder + [rng.uniform(-0.1, 0.1) for _ in range(n)])).astype(complex)
    mu = np.diag([rng.uniform(-0.5, 0.5) for _ in range(n)])
    g = rng.complex_gaussian_matrix(n)
    k = (g + g.conj().T) / 2.0
    return a, mu + offset * k / np.linalg.norm(k)


def eigh_gap(a, s):
    """The mean gap at B = exp(S) with every spectrum from np.linalg.eigh."""

    def spectral(h, f):
        w, v = np.linalg.eigh(h)
        return (v * f(w)) @ v.conj().T

    b, sqrt_b = spectral(s, np.exp), spectral(s / 2.0, np.exp)
    sqrt_a, inv_sqrt_a = spectral(a, np.sqrt), spectral(a, lambda w: 1.0 / np.sqrt(w))
    core = sqrt_a @ b @ sqrt_a
    x = spectral((core + core.conj().T) / 2.0, np.sqrt)
    avg = (sqrt_a + sqrt_b) / 2.0
    diff = avg @ avg - (a + b + sqrt_a @ x @ inv_sqrt_a + inv_sqrt_a @ x @ sqrt_a) / 4.0
    return np.linalg.norm(diff) / (np.linalg.norm(a) + np.linalg.norm(b))


class TestProofChainReport:
    def test_identity_pair_all_zero(self):
        p = HpdPair.validated(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        rep = proof_chain_report(p)
        assert rep.mean_gap <= 1e-14
        assert rep.commutator_gap == 0.0
        assert all(v <= 1e-12 for v in rep.residuals.values())
        assert abs(rep.trace_gap) <= 1e-12

    def test_commuting_diagonal_pair(self):
        p = HpdPair.validated(np.diag([1.0, 4.0]).astype(complex), np.diag([9.0, 16.0]).astype(complex))
        rep = proof_chain_report(p)
        assert rep.mean_gap <= 1e-10
        assert rep.commutator_gap == 0.0
        assert all(v <= 1e-10 for v in rep.residuals.values())

    def test_example_pair_unconditional_identities(self):
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        rep = proof_chain_report(p)
        assert rep.residuals["r1"] <= 1e-10
        assert rep.residuals["r2"] <= 1e-10
        assert rep.residuals["r3"] <= 1e-10
        assert rep.mean_gap > 1e-3
        assert rep.commutator_gap > 1e-2
        # frozen from the independent LAPACK oracle
        assert rep.trace_gap == pytest.approx(0.009606579205064136, rel=1e-9)

    def test_unconditional_identities_random(self):
        for seed in range(15):
            n = 2 + seed % 7
            p = random_pair(n, seed, cond=1000.0)
            rep = proof_chain_report(p)
            assert rep.residuals["r1"] <= 1e-10
            assert rep.residuals["r2"] <= 1e-10
            assert rep.residuals["r3"] <= 1e-10

    def test_conditional_residuals_vanish_for_commuting(self):
        for seed in range(10):
            p = commuting_pair(2 + seed % 6, seed, cond=1000.0)
            rep = proof_chain_report(p)
            assert rep.mean_gap <= 1e-10
            assert rep.residuals["r4"] <= 1e-9
            assert rep.residuals["r5"] <= 1e-9
            assert rep.residuals["r6"] <= 1e-9
            assert rep.trace_gap <= 1e-10 * (np.trace(p.a).real + np.trace(p.b).real)

    def test_intermediates_reuse_matches(self):
        p = random_pair(4, 3, cond=50.0)
        ints = proof_intermediates(p)
        rep1 = proof_chain_report(p)
        rep2 = proof_chain_report(p)
        assert rep1.residuals == rep2.residuals
        assert rep1.mean_gap == rep2.mean_gap

    def test_mean_gap_matches_means_api(self):
        p = random_pair(3, 9, cond=80.0)
        rep = proof_chain_report(p)
        direct = frobenius_norm(heron_mean(p) - wasserstein_mean(p))
        direct /= frobenius_norm(p.a) + frobenius_norm(p.b)
        assert rep.mean_gap == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("ca, cb", [(1.0, 1e300), (1e-150, 1e150)])
    def test_underflowed_scale_is_numerical_error(self, ca, cb):
        # the pair is scaled so that B's entries are near 1, and A Y then
        # underflows to zero: r2 has nothing to normalize by
        a = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        with pytest.raises(NumericalError, match="residual r2"):
            proof_chain_report(HpdPair.validated(a * ca, b * cb))


class TestVerdicts:
    def test_commuting_pair_verdict(self):
        p = commuting_pair(4, 17, cond=100.0)
        assert theorem_check(p) is Verdict.MEANS_EQUAL_AND_COMMUTE

    def test_equal_pair_verdict(self):
        c = hpd(3, 23, cond=20.0)
        assert theorem_check(HpdPair.validated(c, c)) is Verdict.MEANS_EQUAL_AND_COMMUTE

    def test_example_pair_verdict(self):
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        assert theorem_check(p) is Verdict.BOTH_GAPS_POSITIVE

    def test_classification_bands(self):
        # the counterexample branch exists but must never fire on real pairs
        assert classify_gaps(1e-12, 1e-3) is Verdict.COUNTEREXAMPLE_TO_THEOREM
        assert classify_gaps(1e-12, 1e-12) is Verdict.MEANS_EQUAL_AND_COMMUTE
        assert classify_gaps(1e-2, 1e-2) is Verdict.BOTH_GAPS_POSITIVE
        assert classify_gaps(1e-12, 1e-8) is Verdict.INDETERMINATE
        assert classify_gaps(5e-10, 5e-10) is Verdict.INDETERMINATE

    def test_pair_gaps_consistency(self):
        p = random_pair(3, 31, cond=40.0)
        mg, cg = pair_gaps(p)
        rep = proof_chain_report(p)
        assert mg == pytest.approx(rep.mean_gap, rel=1e-12)
        assert cg == pytest.approx(rep.commutator_gap, rel=1e-12)


class TestTraceCriterion:
    def test_commuting_flag_true(self):
        p = commuting_pair(4, 7, cond=100.0)
        gap, flag = trace_criterion(p)
        assert flag
        assert gap >= -1e-12

    def test_equal_pair_zero(self):
        c = hpd(3, 11, cond=10.0)
        gap, flag = trace_criterion(HpdPair.validated(c, c))
        assert abs(gap) <= 1e-10 * np.trace(c).real
        assert flag

    def test_example_pair_positive(self):
        gap, flag = trace_criterion(HpdPair.validated(EXAMPLE_A, EXAMPLE_B))
        assert gap == pytest.approx(0.009606579205064136, rel=1e-9)
        assert not flag

    def test_matches_report_trace_gap(self):
        p = random_pair(4, 5, cond=60.0)
        gap, _ = trace_criterion(p)
        rep = proof_chain_report(p)
        assert gap == pytest.approx(rep.trace_gap, rel=1e-10)

    def test_nonnegative_random(self):
        for seed in range(10):
            p = random_pair(3, seed, cond=200.0)
            gap, _ = trace_criterion(p)
            assert gap >= -1e-12


class TestAndoHayashiWitness:
    def test_positive_pair_gives_identity(self):
        x = hpd(3, 2, cond=30.0)
        y = hpd(3, 3, cond=30.0)
        rep = ando_hayashi_witness(x, y)
        assert rep.triangle_residual <= 1e-10
        assert frobenius_norm(rep.witness - np.eye(3)) <= 1e-9
        assert rep.factor_residuals[0] <= 1e-10
        assert rep.factor_residuals[1] <= 1e-10

    def test_recovers_common_unitary(self):
        for seed in range(8):
            n = 2 + seed % 4
            w = random_unitary(mix_seed(seed, 50), n)
            p = hpd(n, mix_seed(seed, 51), cond=50.0)
            q = hpd(n, mix_seed(seed, 52), cond=50.0)
            rep = ando_hayashi_witness(w @ p, w @ q)
            assert rep.triangle_residual <= 1e-10
            assert frobenius_norm(rep.witness - w) <= 1e-8 * math.sqrt(n)
            assert rep.factor_residuals[0] <= 1e-9
            assert rep.factor_residuals[1] <= 1e-9

    def test_failure_detected(self):
        # |I + R| differs from |I| + |R| for the quarter-turn rotation R:
        # I + R has singular values sqrt(2), while I + |R| = 2I
        x = np.eye(2, dtype=complex)
        y = mat([[0.0, -1.0], [1.0, 0.0]])
        abs_sum = abs_op(x + y)
        assert frobenius_norm(abs_sum - (abs_op(x) + abs_op(y))) > 0.5
        with pytest.raises(TriangleEqualityFails):
            ando_hayashi_witness(x, y)

    def test_singular_sum_raises(self):
        x = mat([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(Singular):
            ando_hayashi_witness(x, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ando_hayashi_witness(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


class TestCommutatorGap:
    def test_zero_for_commuting(self):
        assert commutator_gap(np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 4.0]).astype(complex)) == 0.0

    def test_scale_invariant(self):
        a = hpd(3, 4, cond=20.0)
        b = hpd(3, 5, cond=20.0)
        assert commutator_gap(2 * a, 3 * b) == pytest.approx(commutator_gap(a, b), rel=1e-12)


class TestGapObjective:
    def test_matches_means_api(self):
        a = hpd(3, 6, cond=10.0)
        obj = GapObjective(a)
        s = SplitMix64(8).complex_gaussian_matrix(3)
        s = (s + s.conj().T) / 2.0
        f, gap, b = obj.evaluate(s)
        p = HpdPair.validated(a, b)
        direct = frobenius_norm(heron_mean(p) - wasserstein_mean(p))
        direct /= frobenius_norm(a) + frobenius_norm(b)
        assert gap == pytest.approx(direct, abs=1e-12)
        assert f == pytest.approx(gap * gap, rel=1e-12)

    def test_exp_point_positive(self):
        obj = GapObjective(hpd(3, 7, cond=10.0))
        s = np.zeros((3, 3), dtype=complex)
        assert np.allclose(obj.evaluate(s)[2], np.eye(3), atol=1e-13)

    def test_forward_close_to_central_away_from_minimum(self):
        a = np.diag([1.0, 1.5, 2.25]).astype(complex)
        obj = GapObjective(a)
        b0 = random_hpd(GenSpec(dim=3, seed=5, cond_target=3.0))
        s = logm(b0)
        gf = obj.gradient_forward(s)
        gc = obj.gradient_central(s)
        assert np.linalg.norm(gf - gc) <= 1e-4 * np.linalg.norm(gc)

    def test_gradient_matches_central_on_generic_pairs(self):
        for seed in range(16):
            n, cond = 2 + seed % 4, 3.0 + seed % 8
            obj = GapObjective(hpd(n, mix_seed(seed, 0), cond))
            s = logm(hpd(n, mix_seed(seed, 1), cond))
            obj.evaluate(s)
            g, gc = obj.gradient(s), obj.gradient_central(s)
            assert np.linalg.norm(g - gc) <= 1e-6 * np.linalg.norm(gc), seed

    def test_gradient_matches_central_near_commutant(self):
        for seed in range(6):
            a, s = near_commutant_point(3 + seed % 2, seed, offset=0.01)
            obj = GapObjective(a)
            g, gc = obj.gradient(s), obj.gradient_central(s)
            assert np.linalg.norm(g - gc) <= 1e-6 * np.linalg.norm(gc), seed

    def test_gradient_does_not_depend_on_the_last_evaluation(self):
        a = hpd(3, 11, cond=5.0)
        s = logm(hpd(3, 12, cond=5.0))
        obj = GapObjective(a)
        obj.evaluate(s)
        at_s = obj.gradient(s)
        obj.evaluate(s + 0.1 * np.eye(3))
        assert np.array_equal(obj.gradient(s), at_s)
        assert np.array_equal(GapObjective(a).gradient(s), at_s)

    def test_gap_near_commutant_matches_eigh_reference(self):
        # gaps near 1e-9 are differences of O(1) terms, so the core's
        # eigensolver must stop well below 1e-13 * ||C||_F for the gap to
        # keep its leading digits; 5e-7 leaves room for the reference's own
        # roundoff of about 1e-16 / 1e-9
        for seed in range(40):
            a, s = near_commutant_point(3 + seed % 2, seed, offset=1e-6)
            gap = GapObjective(a).evaluate(s)[1]
            ref = eigh_gap(a, s)
            assert abs(gap - ref) <= 5e-7 * ref, seed


class TestCoordinateMap:
    def test_coords_are_the_adjoint_of_hermitian(self):
        # Re <G, H(c)> = coords(G) . c, so the gradient read out by
        # `_coords` and the step built by `_hermitian` agree
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(5):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                c = rng.standard_normal(n * n)
                lhs = np.vdot(g, _hermitian(c)).real
                rhs = _coords(g) @ c
                assert abs(lhs - rhs) <= 1e-12 * (abs(rhs) + np.linalg.norm(g) * np.linalg.norm(c))

    def test_hermitian_is_exactly_hermitian(self):
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            h = _hermitian(rng.standard_normal(n * n))
            assert np.array_equal(h, h.conj().T)


class TestMinimizeGap:
    def test_step_zero_gap_at_tiny_scale(self):
        # at 2^-300 the core's entries are near 2^-600; the eigensolver
        # scales them back, so the gap matches the unscaled twin
        a = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b0 = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        ref = minimize_gap(a, b0, budget=1).iterates[0][1]
        tiny = minimize_gap(a * 2.0**-300, b0 * 2.0**-300, budget=1).iterates[0][1]
        assert abs(tiny - ref) <= 1e-10 * ref

    def test_underflowed_gradient_normalization_is_numerical_error(self):
        # at 1e-170 the evaluation holds, but (||A||_F + ||B||_F)^2 underflows
        a = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b0 = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        with pytest.raises(NumericalError, match="gradient normalization"):
            minimize_gap(a * 1e-170, b0 * 1e-170)

    def test_identity_a_converges_immediately(self):
        b0 = hpd(3, 9, cond=10.0)
        tr = minimize_gap(np.eye(3, dtype=complex), b0, budget=10)
        assert tr.stop_reason == "converged"
        assert tr.iterates[0][1] <= 1e-8

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError):
            minimize_gap(np.eye(2, dtype=complex), np.eye(2, dtype=complex), budget=0)

    def test_diag_example_collapses_commutator(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b0 = random_hpd(GenSpec(dim=2, seed=3, cond_target=5.0))
        assert commutator_gap(a, b0) > 1e-3
        tr = minimize_gap(a, b0, budget=2000)
        final = tr.iterates[-1]
        assert final[2] <= 1e-4

    def test_objective_non_increasing(self):
        a = np.diag([1.0, 1.5, 2.25]).astype(complex)
        b0 = random_hpd(GenSpec(dim=3, seed=2, cond_target=2.0))
        tr = minimize_gap(a, b0, budget=200)
        objs = [it[3] for it in tr.iterates]
        assert all(objs[i + 1] <= objs[i] for i in range(len(objs) - 1))

    def test_trace_shape_and_final_b(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b0 = random_hpd(GenSpec(dim=2, seed=4, cond_target=5.0))
        tr = minimize_gap(a, b0, budget=50, record_states=True)
        assert tr.iterates[0][0] == 0
        assert len(tr.states) == len(tr.iterates)
        assert tr.final_b.shape == (2, 2)
        # final_b is exp of the last recorded state
        obj = GapObjective(a)
        assert frobenius_norm(obj.evaluate(tr.states[-1])[2] - tr.final_b) <= 1e-12

    def test_budget_exhaustion_reported(self):
        a = np.diag([1.0, 2.0, 4.0]).astype(complex)
        b0 = random_hpd(GenSpec(dim=3, seed=8, cond_target=20.0))
        tr = minimize_gap(a, b0, budget=3)
        assert tr.stop_reason in ("budget", "no_descent", "converged")
        assert len(tr.iterates) <= 4

    def test_line_search_stall_sets_flag(self):
        # a start whose run may end where the line search finds no descent
        # step above the objective floor, the gradient having reached the
        # roundoff of the objective; the run must end with the flag set
        # rather than an exception
        a = np.diag([1.0, 1.5, 2.25]).astype(complex)
        b0 = random_hpd(GenSpec(dim=3, seed=5, cond_target=4.0))
        tr = minimize_gap(a, b0, budget=300)
        if tr.stop_reason == "no_descent":
            assert tr.no_descent
            assert tr.iterates[-1][3] > 1e-16
        else:
            assert not tr.no_descent
