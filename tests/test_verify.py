"""Identity residuals, verdict classification, trace criterion, witness
recovery, and the gap-minimization experiment."""

import math
import re
import warnings

import numpy as np
import pytest

from conftest import (
    SplitMix64,
    commutator_gap,
    commuting_pair,
    gap_objective,
    gradient_central,
    hpd,
    mat,
    minimize_with_states,
    mix_seed,
    proof_intermediates,
    random_pair,
    svd_abs,
    uniform,
)

from opmeans.linalg import (
    POSITIVITY_FLOOR,
    NotPositiveDefinite,
    NumericalError,
    Singular,
    frobenius_norm,
    hermitian_eigen,
    sqrtm,
    _assemble,
    _sqrt_from,
)
from opmeans.means import HpdPair, _from_frame, heron_mean, wasserstein_mean
from opmeans.randgen import GenSpec, near_commuting_pair, random_hpd, _orthonormal_frame
from opmeans.verify import (
    ARMIJO_SLOPE,
    MAX_BACKTRACKS,
    GapObjective,
    TriangleEqualityFails,
    Verdict,
    ando_hayashi_witness,
    classify_gaps,
    minimize_gap,
    proof_chain_report,
    _hermitian,
)

EXAMPLE_A = mat([[2.0, 1.0], [1.0, 2.0]])
EXAMPLE_B = mat([[3.0, 0.0], [0.0, 1.0]])


def report_verdict(p):
    """The verdict `opmeans verify` gives a pair, from its report's gaps."""
    rep = proof_chain_report(p)
    return classify_gaps(rep.mean_gap, rep.commutator_gap)


def random_unitary(seed, n):
    return np.linalg.qr(SplitMix64(seed).complex_gaussian_matrix(n))[0]


def near_commutant_point(n, seed, offset):
    """Diagonal A on a jittered eigenvalue ladder in [1/sqrt(3), sqrt(3)] and
    a root chart point R at Frobenius distance `offset` from the positive
    diagonal ones, whose B = nu R^4 commute with A. The ladder ascends, so
    A's eigenframe is the identity and R is a point of it as it stands."""
    rng = SplitMix64(seed)
    ladder = np.linspace(-0.5, 0.5, n) * math.log(3.0)
    a = np.diag(np.exp(ladder + [uniform(rng, -0.1, 0.1) for _ in range(n)])).astype(complex)
    root = np.diag(np.exp([uniform(rng, -0.5, 0.5) / 4.0 for _ in range(n)]))
    g = rng.complex_gaussian_matrix(n)
    k = (g + g.conj().T) / 2.0
    return a, root + offset * k / np.linalg.norm(k)


def eigh_gap(a, r, nu):
    """The mean gap at B^{1/2} = sqrt(nu) R^2, B = nu R^4 with the spectra
    of A and of the core from np.linalg.eigh."""

    def spectral(h, f):
        w, v = np.linalg.eigh(h)
        return (v * f(w)) @ v.conj().T

    sqrt_b = math.sqrt(nu) * (r @ r)
    b = sqrt_b @ sqrt_b
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

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    def test_r5_of_commuting_pair_within_four_u_cond(self, cond):
        # read from its matrices, the pair's core starts in A's computed
        # frame, where it is diagonal up to roundoff, so r5 grows as u cond
        # (a cold core gave u cond^2: 4.4e-7 at cond 1e6)
        u = 2.0**-53
        for seed in range(3):
            p = commuting_pair(8, seed, cond)
            r5 = proof_chain_report(HpdPair.validated(p.a, p.b)).residuals["r5"]
            assert r5 <= 4.0 * u * cond, seed

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
        a, _ = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b, _ = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        with pytest.raises(NumericalError, match="residual r2"):
            proof_chain_report(HpdPair.validated(a * ca, b * cb))


def r4_draws(n):
    """Generic pairs of size n at cond 3, 10 and 100, and near-commuting
    ones at each cond and epsilon 1e-1, 1e-2 and 1e-3."""
    for cond in (3.0, 10.0, 100.0):
        yield random_pair(n, mix_seed(n, int(cond)), cond)
        for eps in (1e-1, 1e-2, 1e-3):
            yield near_commuting_pair(GenSpec(dim=n, seed=mix_seed(n, int(cond) + 1), cond_target=cond), eps)


def triangle_terms(p):
    """In A's frame, where A = diag(a): S = |A+Y| from the spectrum of the
    gram (A+Y)*(A+Y), as the report takes it, with S's eigenvalues;
    T = A + X; and M = AY + Y*A - AX - XA, r2's left-hand side, which is
    S^2 - T^2 by r3's identity."""
    a, x, y = p.eig_a.eigenvalues, p.x, p.y
    apy = np.diag(a) + y
    gram = apy.conj().T @ apy
    eig = hermitian_eigen((gram + gram.conj().T) / 2.0)
    m = a[:, None] * y + y.conj().T * a - a[:, None] * x - x * a
    return _sqrt_from(eig), np.sqrt(eig.eigenvalues), np.diag(a) + x, m


class TestR4:
    """r4 = ||S - T||_F / ||T||_F is the square root of r3's identity
    S^2 - T^2 = M: it reads r2's matrix M through a square root, so it is
    bounded on both sides by ||M||_F, not a further link of the chain."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_r4_lies_between_the_bounds_from_r2s_matrix(self, n):
        # S^2 - T^2 = S(S - T) + (S - T)T gives, for S and T positive
        # definite, ||M||_F / (||S||_2 + ||T||_2) <= ||S - T||_F <=
        # ||M||_F / (lambda_min(S) + lambda_min(T)) (Bhatia, Matrix
        # Analysis, ch. X). The bounds hold exactly for S^2 - T^2; the
        # computed M differs from it by r3's roundoff and S's, at most
        # 1.4e-15 (||S||_F^2 + ||T||_F^2) on these draws, so each bound
        # gets a slack of 1e-13 times that scale. ||M||_F is at least
        # 1.9e-10 of the scale here (n = 2 at epsilon = 1e-3, a ratio tie,
        # where M is second order), so the slack stays below 1e-3 of
        # ||M||_F, while the nearer bound holds with 2.2% to spare.
        for p in r4_draws(n):
            s, s_values, t, m = triangle_terms(p)
            t_values = np.linalg.eigvalsh(t)
            gap, norm_m = frobenius_norm(s - t), frobenius_norm(m)
            slack = 1e-13 * (frobenius_norm(s) ** 2 + frobenius_norm(t) ** 2)
            assert slack <= 1e-3 * norm_m
            assert norm_m - slack <= (s_values[-1] + t_values[-1]) * gap
            assert (s_values[0] + t_values[0]) * gap <= norm_m + slack
            # the report's r4 is this ||S - T||_F / ||T||_F, from the same spectrum
            assert proof_chain_report(p).residuals["r4"] == pytest.approx(gap / frobenius_norm(t), rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_triangle_terms_are_roots_of_the_congruent_means(self, n):
        # A + Y = (A^{1/2} + B^{1/2}) A^{1/2}, so |A+Y| = 2 (A^{1/2} H A^{1/2})^{1/2};
        # and A^{1/2} W A^{1/2} = ((A + X) / 2)^2, so A + X = 2 (A^{1/2} W A^{1/2})^{1/2}.
        # In A's frame the congruence is (s_i s_j) H~_ij. Each side is a
        # square root from its own decomposition: to 1e-13 relative, where
        # the largest seen on these draws was 2.3e-15, at the default and at
        # the AVX2 kernels
        for p in r4_draws(n):
            s, _, t, _ = triangle_terms(p)
            ss = np.outer(p.root_a, p.root_a)
            assert frobenius_norm(s - 2.0 * sqrtm(ss * p.heron)) <= 1e-13 * frobenius_norm(s)
            assert frobenius_norm(t - 2.0 * sqrtm(ss * p.wasserstein)) <= 1e-13 * frobenius_norm(t)


class TestVerdicts:
    def test_commuting_pair_verdict(self):
        p = commuting_pair(4, 17, cond=100.0)
        assert report_verdict(p) is Verdict.MEANS_EQUAL_AND_COMMUTE

    def test_equal_pair_verdict(self):
        c = hpd(3, 23, cond=20.0)
        assert report_verdict(HpdPair.validated(c, c)) is Verdict.MEANS_EQUAL_AND_COMMUTE

    def test_example_pair_verdict(self):
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        assert report_verdict(p) is Verdict.BOTH_GAPS_POSITIVE

    def test_classification_bands(self):
        # the counterexample branch exists but must never fire on real pairs
        assert classify_gaps(1e-12, 1e-3) is Verdict.COUNTEREXAMPLE_TO_THEOREM
        assert classify_gaps(1e-12, 1e-12) is Verdict.MEANS_EQUAL_AND_COMMUTE
        assert classify_gaps(1e-2, 1e-2) is Verdict.BOTH_GAPS_POSITIVE
        assert classify_gaps(1e-12, 1e-8) is Verdict.INDETERMINATE
        assert classify_gaps(5e-10, 5e-10) is Verdict.INDETERMINATE

    def test_pair_gaps_consistency(self):
        p = random_pair(3, 31, cond=40.0)
        rep = proof_chain_report(p)
        assert p.mean_gap == pytest.approx(rep.mean_gap, rel=1e-12)
        assert p.commutator_gap == pytest.approx(rep.commutator_gap, rel=1e-12)
        assert p.commutator_gap == pytest.approx(commutator_gap(p.a, p.b), rel=1e-12)


def trace_x(p):
    """tr X in the pair's units, the scale of the trace gap's tolerance."""
    return np.trace(p.x).real * p.unit


class TestTraceGap:
    def test_commuting_pair_within_tolerance(self):
        p = commuting_pair(4, 7, cond=100.0)
        gap = p.trace_gap
        assert gap <= 1e-10 * trace_x(p)
        assert gap >= -1e-12

    def test_equal_pair_zero(self):
        c = hpd(3, 11, cond=10.0)
        p = HpdPair.validated(c, c)
        gap = p.trace_gap
        assert abs(gap) <= 1e-10 * np.trace(c).real
        assert gap <= 1e-10 * trace_x(p)

    def test_example_pair_positive(self):
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        gap = p.trace_gap
        assert gap == pytest.approx(0.009606579205064136, rel=1e-9)
        assert not gap <= 1e-10 * trace_x(p)

    def test_nonnegative_random(self):
        for seed in range(10):
            p = random_pair(3, seed, cond=200.0)
            assert p.trace_gap >= -1e-12


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
        abs_sum = svd_abs(x + y)
        assert frobenius_norm(abs_sum - (svd_abs(x) + svd_abs(y))) > 0.5
        with pytest.raises(TriangleEqualityFails):
            ando_hayashi_witness(x, y)

    @pytest.mark.parametrize("tiny", [1e-200, 1e-310])
    @pytest.mark.parametrize("zero_first", [True, False])
    def test_zero_beside_tiny_is_scaled_by_the_tiny(self, tiny, zero_first):
        # a zero matrix has no say in the common scale, so the tiny one is
        # brought into [1, 4) and its gram does not underflow to Singular
        pair = (np.zeros((2, 2), dtype=complex), tiny * np.eye(2, dtype=complex))
        rep = ando_hayashi_witness(*(pair if zero_first else pair[::-1]))
        assert rep.witness.tobytes() == np.eye(2, dtype=complex).tobytes()
        assert (rep.triangle_residual, rep.factor_residuals) == (0.0, (0.0, 0.0))

    def test_singular_sum_raises(self):
        x = mat([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(Singular):
            ando_hayashi_witness(x, x)

    @pytest.mark.parametrize("n", [1, 2])
    def test_opposite_pair_fails_the_triangle_equality(self, n):
        # |X + Y| = 0 while |X| + |Y| = 2|A|: the residual is taken relative
        # to the latter, 1, not read as 0 and refused as a singular sum
        a = hpd(n, 3)
        with pytest.raises(TriangleEqualityFails) as info:
            ando_hayashi_witness(a, -a)
        assert info.value.residual == 1.0

    def test_zero_pair_is_singular(self):
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(Singular):
            ando_hayashi_witness(zero, zero)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ando_hayashi_witness(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def pair_commutator_gap(a, b):
    return HpdPair.validated(a, b).commutator_gap


class TestCommutatorGap:
    def test_zero_for_commuting(self):
        assert pair_commutator_gap(np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 4.0]).astype(complex)) == 0.0

    def test_scale_invariant(self):
        a = hpd(3, 4, cond=20.0)
        b = hpd(3, 5, cond=20.0)
        assert pair_commutator_gap(2 * a, 3 * b) == pytest.approx(pair_commutator_gap(a, b), rel=1e-12)

    def test_powers_of_two_move_no_bit(self):
        # 600 draws of (2^j A, 2^k B), j and k in [-960, 960]: the products
        # of the unscaled matrices would overflow or underflow on many
        rng = SplitMix64(23)
        for seed in range(20):
            a, b = hpd(3, mix_seed(seed, 0), cond=30.0), hpd(3, mix_seed(seed, 1), cond=30.0)
            gap = pair_commutator_gap(a, b)
            for _ in range(30):
                j, k = (int(rng.next_u64() % 1921) - 960 for _ in range(2))
                assert pair_commutator_gap(a * 2.0**j, b * 2.0**k) == gap, (seed, j, k)

    @pytest.mark.parametrize("c", [1e-170, 1e200])
    def test_far_from_unit_scale(self, c):
        # the plain products underflow to 0.0 and overflow to nan here
        a, b = hpd(3, 4, cond=20.0), hpd(3, 5, cond=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pair_commutator_gap(c * a, c * b) == pytest.approx(pair_commutator_gap(a, b), rel=1e-12)


class TestGapObjective:
    def test_matches_means_api(self):
        a = hpd(3, 6, cond=10.0)
        obj = gap_objective(a)
        r = SplitMix64(8).complex_gaussian_matrix(3)
        r = (r + r.conj().T) / 2.0
        pt = obj.evaluate(r)
        f, gap, b = pt.objective, pt.gap, _from_frame(obj.frame, pt.b) * obj.unit  # nu R^4, in the pair's units
        p = HpdPair.validated(a, b)
        direct = frobenius_norm(heron_mean(p) - wasserstein_mean(p))
        direct /= frobenius_norm(a) + frobenius_norm(b)
        assert gap == pytest.approx(direct, abs=1e-12)
        assert f == pytest.approx(gap * gap, rel=1e-12)

    def test_exp_point_positive(self):
        # R = I is the point B = nu I, nu the largest eigenvalue of B0
        b0 = hpd(3, 7, cond=10.0)
        obj = gap_objective(np.eye(3, dtype=complex), b0)
        nu = np.linalg.eigvalsh(b0)[-1]
        assert np.allclose(obj.evaluate(np.eye(3)).b * obj.unit, nu * np.eye(3), rtol=0.0, atol=1e-13 * nu)

    def test_forward_close_to_central_away_from_minimum(self):
        a = np.diag([1.0, 1.5, 2.25]).astype(complex)
        obj = gap_objective(a, random_hpd(GenSpec(dim=3, seed=5, cond_target=3.0))[0])
        r = obj.start
        gf = obj.gradient_forward(r)
        gc = gradient_central(obj, r)
        assert np.linalg.norm(gf - gc) <= 1e-4 * np.linalg.norm(gc)

    def test_gradient_matches_central_on_generic_pairs(self):
        for seed in range(16):
            n, cond = 2 + seed % 4, 3.0 + seed % 8
            obj = gap_objective(hpd(n, mix_seed(seed, 0), cond), hpd(n, mix_seed(seed, 1), cond))
            r = obj.start
            g, gc = obj.gradient(obj.evaluate(r)), gradient_central(obj, r)
            assert np.linalg.norm(g - gc) <= 1e-6 * np.linalg.norm(gc), seed

    def test_gradient_matches_central_near_commutant(self):
        for seed in range(6):
            a, r = near_commutant_point(3 + seed % 2, seed, offset=0.01)
            obj = gap_objective(a)
            g, gc = obj.gradient(obj.evaluate(r)), gradient_central(obj, r)
            assert np.linalg.norm(g - gc) <= 1e-6 * np.linalg.norm(gc), seed

    def test_gradient_matches_central_at_indefinite_points(self):
        # R with eigenvalues of both signs: B = nu R^4 is positive definite
        # all the same, and R^2 is not R's positive square
        for seed in range(8):
            n = 2 + seed % 3
            p = HpdPair.validated(hpd(n, mix_seed(seed, 70), 5.0), hpd(n, mix_seed(seed, 71), 5.0))
            obj = GapObjective(p)
            # the start W diag((b/nu)^{1/4}) W* with alternating signs
            quarter = np.sqrt(np.sqrt(p.eig_b.eigenvalues / obj.nu)) * [(-1.0) ** k for k in range(n)]
            r = _assemble(p.eig_a.frame.conj().T @ p.eig_b.frame, quarter)
            assert np.linalg.eigvalsh(r)[0] < 0.0 < np.linalg.eigvalsh(r)[-1], seed
            g, gc = obj.gradient(obj.evaluate(r)), gradient_central(obj, r)
            assert np.linalg.norm(g - gc) <= 1e-7 * np.linalg.norm(gc), seed

    def test_gradient_does_not_depend_on_the_last_evaluation(self):
        a, b0 = hpd(3, 11, cond=5.0), hpd(3, 12, cond=5.0)
        obj = gap_objective(a, b0)
        r = obj.start
        pt = obj.evaluate(r)
        at_r = obj.gradient(pt)
        obj.evaluate(r + 0.1 * np.eye(3))
        assert np.array_equal(obj.gradient(pt), at_r)
        fresh = gap_objective(a, b0)
        assert np.array_equal(fresh.gradient(fresh.evaluate(r)), at_r)

    def test_gap_near_commutant_matches_eigh_reference(self):
        # gaps near 1e-9 are differences of O(1) terms, so the core's
        # eigensolver must stop well below 1e-13 * ||C||_F for the gap to
        # keep its leading digits; 5e-7 leaves room for the reference's own
        # roundoff of about 1e-16 / 1e-9
        for seed in range(40):
            a, r = near_commutant_point(3 + seed % 2, seed, offset=1e-6)
            obj = gap_objective(a)
            gap = obj.evaluate(r).gap
            ref = eigh_gap(a, r, obj.nu)
            assert abs(gap - ref) <= 5e-7 * ref, seed

    def test_norm_product_overflow_is_numerical_error(self):
        # B = 7e307 I3 keeps the core in range, while ||A||_F ||B||_F, the
        # commutator gap's denominator, is 2.1e308: not a commutator gap of 0
        obj = gap_objective(np.eye(3, dtype=complex))  # nu = 1
        with pytest.raises(NumericalError, match=re.escape("||A||_F ||B||_F = ")):
            obj.evaluate(7e307**0.25 * np.eye(3))

    def test_gradient_normalization_overflow_is_numerical_error(self):
        # B = e^400 I3 evaluates, but (||A||_F + ||B||_F)^2 overflows
        obj = gap_objective(np.eye(3, dtype=complex))
        pt = obj.evaluate(math.exp(100.0) * np.eye(3, dtype=complex))
        with pytest.raises(NumericalError, match="gradient normalization"):
            obj.gradient(pt)

    def test_core_overflow_is_numerical_error_without_warning(self):
        # B = e^750 I3 overflows to inf while B^{1/2} = e^375 I3 is squared;
        # the core's range check reports it, with no numpy warning on the way
        obj = gap_objective(np.eye(3, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape("core A^{1/2} B A^{1/2} leaves the double range")):
                obj.evaluate(math.exp(187.5) * np.eye(3, dtype=complex))

    def test_b0_not_positive_definite_is_refused_without_warning(self):
        # a pair built without `validated`: B0's fourth root would be nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="^matrix b is not positive definite$"):
                GapObjective(HpdPair(np.eye(2, dtype=complex), mat([[1.0, 0.0], [0.0, -1.0]])))

    def test_gradient_normalization_underflow_is_numerical_error(self):
        # B = e^-800 I3 underflows to zero, so N ||B||_F is 0
        obj = gap_objective(np.eye(3, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = obj.evaluate(math.exp(-200.0) * np.eye(3, dtype=complex))
            with pytest.raises(NumericalError, match="gradient normalization"):
                obj.gradient(pt)


class TestCoordinateMap:
    def test_hermitian_is_exactly_hermitian(self):
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            h = _hermitian(rng.standard_normal(n * n))
            assert np.array_equal(h, h.conj().T)


class TestMinimizeGap:
    def test_step_zero_gap_at_tiny_scale(self):
        # at 2^-300 the core's entries are near 2^-600; the eigensolver
        # scales them back, so the gap matches the unscaled twin
        a, _ = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b0, _ = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        ref = minimize_gap(a, b0, budget=1).iterates[0][1]
        tiny = minimize_gap(a * 2.0**-300, b0 * 2.0**-300, budget=1).iterates[0][1]
        assert abs(tiny - ref) <= 1e-10 * ref

    def test_descent_at_1e_minus_170_follows_unscaled(self):
        # (||A||_F + ||B||_F)^2 underflows in the pair's units, not in the
        # context's, where the gradient is taken; nu and the start R0 move
        # by roundoff, so the runs part by roundoff, slowly
        a, _ = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b0, _ = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        ref, tiny = minimize_gap(a, b0, budget=20), minimize_gap(a * 1e-170, b0 * 1e-170, budget=20)
        assert len(tiny.iterates) == len(ref.iterates) == 21
        assert all(abs(x - y) <= 1e-6 * y for x, y in zip(tiny.iterates[-1][1:], ref.iterates[-1][1:]))
        assert frobenius_norm(tiny.final_b * 1e170 - ref.final_b) <= 1e-6 * frobenius_norm(ref.final_b)

    def test_identity_a_converges_immediately(self):
        b0 = hpd(3, 9, cond=10.0)
        tr = minimize_gap(np.eye(3, dtype=complex), b0, budget=10)
        assert tr.stop_reason == "converged"
        assert tr.iterates[0][1] <= 1e-8

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError, match="^budget must be at least 1$"):
            minimize_gap(np.eye(2, dtype=complex), np.eye(2, dtype=complex), budget=0)

    @pytest.mark.parametrize("budget", [True, 2.0, 2.5, "2", None])
    def test_budget_must_be_an_int_not_a_bool(self, budget):
        with pytest.raises(ValueError, match=f"^budget must be an integer, got {re.escape(repr(budget))}$"):
            minimize_gap(np.eye(2, dtype=complex), np.eye(2, dtype=complex), budget=budget)

    def test_diag_example_collapses_commutator(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b0, _ = random_hpd(GenSpec(dim=2, seed=3, cond_target=5.0))
        assert commutator_gap(a, b0) > 1e-3
        tr = minimize_gap(a, b0, budget=2000)
        final = tr.iterates[-1]
        assert final[2] <= 1e-4

    def test_objective_non_increasing(self):
        a = np.diag([1.0, 1.5, 2.25]).astype(complex)
        b0, _ = random_hpd(GenSpec(dim=3, seed=2, cond_target=2.0))
        tr = minimize_gap(a, b0, budget=200)
        objs = [it[3] for it in tr.iterates]
        assert all(objs[i + 1] <= objs[i] for i in range(len(objs) - 1))

    def test_trace_shape_and_final_b(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b0, _ = random_hpd(GenSpec(dim=2, seed=4, cond_target=5.0))
        tr, states = minimize_with_states(a, b0, budget=50)
        assert tr.iterates[0][0] == 0
        assert len(states) == len(tr.iterates)
        assert tr.final_b.shape == (2, 2)
        # final_b is nu R^4 at the last accepted state
        obj = gap_objective(a, b0)
        assert frobenius_norm(obj.evaluate(states[-1]).b * obj.unit - tr.final_b) <= 1e-12

    @pytest.mark.parametrize("j", [-300, -20, 1, 7, 250])
    def test_powers_of_four_move_no_trajectory_bit(self, j):
        # the pair's context divides out 4^j exactly, and nu and R are
        # taken in the context's units, so every row is the unscaled one
        a, _ = random_hpd(GenSpec(dim=3, seed=11, cond_target=3.0))
        b0, _ = random_hpd(GenSpec(dim=3, seed=12, cond_target=3.0))
        ref, scaled = minimize_gap(a, b0, budget=20), minimize_gap(a * 4.0**j, b0 * 4.0**j, budget=20)
        assert scaled.iterates == ref.iterates
        assert np.array_equal(scaled.final_b, ref.final_b * 4.0**j)

    def test_singular_trial_is_rejected(self, monkeypatch):
        # the first gradient is bent so that the first trial lands on the
        # singular R = diag(0, 1), where B = nu diag(0, 1) commutes with A:
        # its gap is 0, so the Armijo test alone would accept it; the
        # halved step, R0 + (R - R0) / 2, passes both tests
        a = np.diag([1.0, 4.0]).astype(complex)
        b0, _ = random_hpd(GenSpec(dim=2, seed=1, cond_target=5.0))
        singular = np.diag([0.0, 1.0]).astype(complex)
        gradient, evaluate = GapObjective.gradient, GapObjective.evaluate
        bent, evaluated = [], []

        def steer(obj, pt):
            if bent:
                return gradient(obj, pt)
            bent.append(pt.r - singular)  # A's frame is the identity
            return bent[0]

        monkeypatch.setattr(GapObjective, "gradient", steer)
        monkeypatch.setattr(GapObjective, "evaluate",
                            lambda obj, r: evaluated.append(evaluate(obj, r)) or evaluated[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = minimize_gap(a, b0, budget=10)
        start, landed = evaluated[:2]
        assert frobenius_norm(landed.r - singular) <= 1e-15 and not landed.positive
        assert landed.objective <= start.objective - ARMIJO_SLOPE * frobenius_norm(bent[0]) ** 2
        assert tr.iterates[1][1::2] == (evaluated[2].gap, evaluated[2].objective)
        assert tr.stop_reason == "converged"
        rows = {(gap, f) for _, gap, _, f in tr.iterates}
        accepted = [pt for pt in evaluated if (pt.gap, pt.objective) in rows]
        assert len(accepted) >= len(tr.iterates) and all(pt.positive for pt in accepted)
        w = np.linalg.eigvalsh(tr.final_b)
        assert w[0] > POSITIVITY_FLOOR * w[-1]

    def test_start_below_the_floor_is_numerical_error_without_warning(self):
        # B0's eigenvalue ratio is one ulp above the floor, its least and
        # largest eigenvectors are A's, and its middle block does not
        # commute with A: the core's ratio clears POSITIVITY_FLOOR / cond(A)
        # by that ulp, which B = nu R0^4 loses to roundoff, so the
        # gradient's divided differences are out of reach at the start.
        # Generic cond-1e10 pairs no longer get here: the core, graded in
        # A's frame, keeps its smallest eigenvalue
        a = np.diag([1.0, 1e9, 3e9, 1e10]).astype(complex)
        b0 = np.diag([1e-2 * (1.0 + 2.0**-52), 4e9, 2e9, 1e10]).astype(complex)
        b0[1, 2], b0[2, 1] = 1e9 + 1e9j, 1e9 - 1e9j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^core eigenvalues .* below the floor 1.0e-22$"):
                minimize_gap(a, b0, budget=5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ca, cb", [(1.0, 1.0), (1e100, 1e100), (1e-100, 1e-100), (2.0**-600, 2.0**-600),
                                        (1e160, 1e-160)])
    def test_trajectory_commutator_gap_is_the_public_one(self, n, ca, cb):
        # each row takes its commutator gap from its own point, in A's
        # frame; the last row's is that of A and final_b in the original one
        for seed in range(2):
            a = ca * hpd(n, mix_seed(seed, 60))
            tr = minimize_gap(a, cb * hpd(n, mix_seed(seed, 61)), budget=5)
            ref = commutator_gap(a, tr.final_b)
            assert abs(tr.iterates[-1][2] - ref) <= 1e-14 * ref, seed

    def test_descent_is_equivariant_under_unitary_congruence(self):
        # (UAU*, UB0U*) has the trajectory of (A, B0), and U final_b U* is
        # its final B: the Frobenius metric of the A-frame descent does not
        # see U. The worst differences measured on these seeds were 1.9e-6
        # on the rows and 6.0e-8 on final B (6.4e-7 and 2.0e-8 under AVX2
        # kernels); the bounds leave a factor of 5
        for seed in range(12):
            n = 3 + seed % 2
            a, b0 = (random_hpd(GenSpec(dim=n, seed=mix_seed(seed, k), cond_target=3.0))[0] for k in (0, 1))
            u = _orthonormal_frame(SplitMix64(mix_seed(seed, 2)).complex_gaussian_matrix(n))
            ref = minimize_gap(a, b0, budget=40)
            turned = minimize_gap(u @ a @ u.conj().T, u @ b0 @ u.conj().T, budget=40)
            assert len(turned.iterates) == len(ref.iterates), seed
            for row, twin in zip(turned.iterates, ref.iterates):
                assert all(abs(x - y) <= 1e-5 * y for x, y in zip(row[1:], twin[1:])), (seed, row[0])
            final_b = u @ ref.final_b @ u.conj().T
            assert frobenius_norm(turned.final_b - final_b) <= 3e-7 * frobenius_norm(final_b), seed

    def test_budget_exhaustion_reported(self):
        a = np.diag([1.0, 2.0, 4.0]).astype(complex)
        b0, _ = random_hpd(GenSpec(dim=3, seed=8, cond_target=20.0))
        tr = minimize_gap(a, b0, budget=3)
        assert tr.stop_reason in ("budget", "no_descent", "converged")
        assert len(tr.iterates) <= 4

    def test_line_search_stall_sets_flag(self):
        # a start whose run may end where the line search finds no descent
        # step above the objective floor, the gradient having reached the
        # roundoff of the objective; the run must end with that stop reason
        # rather than an exception
        a = np.diag([1.0, 1.5, 2.25]).astype(complex)
        b0, _ = random_hpd(GenSpec(dim=3, seed=5, cond_target=4.0))
        tr = minimize_gap(a, b0, budget=300)
        if tr.stop_reason == "no_descent":
            assert tr.iterates[-1][3] > 1e-16
        else:
            assert tr.stop_reason in ("budget", "converged")

    @staticmethod
    def run_counting_evaluations(monkeypatch, gradient):
        """minimize_gap with `gradient` in place of the exact one on a pair
        whose gap is large enough that no ascent step passes by roundoff,
        and the number of evaluations it took."""
        calls = []
        evaluate = GapObjective.evaluate
        monkeypatch.setattr(GapObjective, "evaluate", lambda self, s: calls.append(s) or evaluate(self, s))
        monkeypatch.setattr(GapObjective, "gradient", gradient)
        b0, _ = random_hpd(GenSpec(dim=2, seed=3, cond_target=100.0))
        return minimize_gap(np.diag([1.0, 10.0]).astype(complex), b0, budget=5), len(calls)

    # no seeded run was found to stop without descent (generic and diagonal
    # A, n = 2..4), so both stops are reached through a patched gradient
    def test_zero_gradient_stops_at_step_zero(self, monkeypatch):
        tr, calls = self.run_counting_evaluations(monkeypatch, lambda self, pt: np.zeros((self.n, self.n), complex))
        assert tr.stop_reason == "no_descent" and len(tr.iterates) == 1 and calls == 1

    def test_ascent_direction_stops_after_the_backtracks(self, monkeypatch):
        gradient = GapObjective.gradient
        tr, calls = self.run_counting_evaluations(monkeypatch, lambda self, pt: -gradient(self, pt))
        assert tr.stop_reason == "no_descent" and len(tr.iterates) == 1 and calls == 1 + MAX_BACKTRACKS
