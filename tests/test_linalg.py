"""Substrate tests: adjoint, Jacobi eigensolver, functional calculus,
absolute value, polar decomposition, norms.

Hand-derived 2x2 spectra serve as oracles for the eigensolver and the
functional calculus; np.linalg.eigh acts as an independent cross-check on
random inputs (it is never used by library code).
"""

import hashlib
import math

import numpy as np
import pytest

from conftest import hpd, mat, random_hermitian, random_invertible

from opmeans.linalg import (
    DomainError,
    NoConvergence,
    NotHermitian,
    Singular,
    ToleranceConfig,
    abs_op,
    adjoint,
    as_matrix,
    commutator,
    expm,
    frobenius_norm,
    hermitian_eigen,
    inv_sqrtm,
    invm,
    is_positive_definite,
    logm,
    matrix_function,
    op_norm,
    polar,
    sqrtm,
)
from opmeans.linalg import _round_robin
from opmeans.randgen import SplitMix64, mix_seed

SQ3 = math.sqrt(3.0)


class TestAdjoint:
    def test_identity_self_adjoint(self):
        i3 = np.eye(3, dtype=complex)
        assert np.array_equal(adjoint(i3), i3)

    def test_conjugate_transpose(self):
        t = mat([[0.0, 1j], [0.0, 0.0]])
        expected = mat([[0.0, 0.0], [-1j, 0.0]])
        assert np.array_equal(adjoint(t), expected)

    def test_involution_exact(self):
        for seed in range(5):
            t = SplitMix64(seed).complex_gaussian_matrix(4)
            assert np.array_equal(adjoint(adjoint(t)), t)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, math.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_matrix([[1.0, complex(0, math.inf)], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 0)))


class TestToleranceConfig:
    def test_defaults_valid(self):
        cfg = ToleranceConfig()
        assert cfg.identity_tol == 1e-10
        assert cfg.positivity_floor == 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(identity_tol=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(eig_off_diag_tol=-1e-13)
        with pytest.raises(ValueError):
            ToleranceConfig(max_jacobi_sweeps=0)
        for sweeps in (math.inf, 10.0, 2.5, True, "100", None):
            with pytest.raises(ValueError):
                ToleranceConfig(max_jacobi_sweeps=sweeps)
        with pytest.raises(ValueError):
            ToleranceConfig(identity_tol=math.inf)

    def test_identity_tol_must_exceed_floor(self):
        with pytest.raises(ValueError):
            ToleranceConfig(identity_tol=1e-13, positivity_floor=1e-12)


class TestHermitianEigen:
    def test_identity(self):
        e = hermitian_eigen(np.eye(3, dtype=complex))
        assert np.allclose(e.eigenvalues, [1.0, 1.0, 1.0])

    def test_already_diagonal(self):
        e = hermitian_eigen(mat([[1.0, 0.0], [0.0, 4.0]]))
        assert np.allclose(e.eigenvalues, [1.0, 4.0])
        # frame is the identity up to a phase per column
        assert np.allclose(np.abs(e.frame), np.eye(2), atol=1e-14)

    def test_2x2_hand_spectrum(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1, roots 1 and 3
        e = hermitian_eigen(mat([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_eigenvalues_ascending(self):
        for seed in range(10):
            h = random_hermitian(6, seed)
            lam = hermitian_eigen(h).eigenvalues
            assert all(lam[i] <= lam[i + 1] for i in range(len(lam) - 1))

    def test_reconstruction_and_unitarity(self):
        for seed in range(20):
            n = 2 + seed % 15
            h = random_hermitian(n, seed)
            e = hermitian_eigen(h)
            recon = (e.frame * e.eigenvalues) @ e.frame.conj().T
            scale = frobenius_norm(h)
            assert frobenius_norm(recon - h) <= 1e-10 * scale
            assert frobenius_norm(e.frame.conj().T @ e.frame - np.eye(n)) <= 1e-12 * n

    def test_matches_lapack_spectrum(self):
        # independent oracle: same eigenvalues as np.linalg.eigvalsh
        for seed in range(10):
            n = 2 + seed
            h = random_hermitian(n, seed)
            ours = hermitian_eigen(h).eigenvalues
            ref = np.linalg.eigvalsh(h)
            assert np.allclose(ours, ref, atol=1e-11 * max(1.0, frobenius_norm(h)))

    def test_complex_entries(self):
        h = mat([[2.0, 1j], [-1j, 2.0]])
        # eigenvalues of [[2, i], [-i, 2]] are 1 and 3
        e = hermitian_eigen(h)
        assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(mat([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_roundoff(self):
        h = mat([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        e = hermitian_eigen(h)
        assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-10)

    def test_no_convergence_with_one_sweep(self):
        cfg = ToleranceConfig(max_jacobi_sweeps=1)
        with pytest.raises(NoConvergence):
            hermitian_eigen(random_hermitian(8, 5), cfg)

    @pytest.mark.parametrize("e", [560, -560])
    def test_power_of_two_scaling_is_exact(self, e):
        # squared entries near 2^+-1120 leave the double range, but Jacobi
        # runs on the matrix scaled back to unit norm; n = 4 takes the
        # cyclic order and n = 24 the round-robin order
        for n in (4, 24):
            h = hpd(n, 3, cond=10.0)
            ref, got = hermitian_eigen(h), hermitian_eigen(h * 2.0**e)
            assert np.array_equal(got.eigenvalues, ref.eigenvalues * 2.0**e)
            assert np.array_equal(got.frame, ref.frame)

    @pytest.mark.parametrize("c", [1e-170, 1e200])
    def test_extreme_scale_matches_lapack(self, c):
        h = hpd(4, 3, cond=10.0) * c
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(hermitian_eigen(h).eigenvalues - ref)) <= 1e-13 * ref[-1]

    def test_no_convergence_reports_input_units(self):
        for n in (8, 24):
            h = random_hermitian(n, 5) * 2.0**-600
            with pytest.raises(NoConvergence, match=f"above {1e-15 * frobenius_norm(h):.3e} "):
                hermitian_eigen(h, ToleranceConfig(max_jacobi_sweeps=1))

    @pytest.mark.parametrize("n", [4, 24])
    def test_tolerance_far_below_roundoff(self, n):
        # off-diagonal entries keep shrinking past 1e-154, where tau * tau
        # overflows to inf and t becomes 0 on both paths, with no
        # floating-point warning from the vectorized one
        h = hpd(n, 3, cond=10.0)
        lam = hermitian_eigen(h, ToleranceConfig(eig_off_diag_tol=1e-200)).eigenvalues
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(lam - ref)) <= 1e-13 * ref[-1]

    def test_zero_matrix(self):
        e = hermitian_eigen(np.zeros((3, 3), dtype=complex))
        assert np.allclose(e.eigenvalues, 0.0)
        assert np.array_equal(e.frame, np.eye(3, dtype=complex))


# sha256 of the eigenvalues and frames below, as the cyclic solver gave them
# before the round-robin order existed; sizes under 12 must keep every bit
SMALL_N_DIGEST = "d5fac8abd68b2a4ffd037b1931c5db69df7306929f9eb0641b7cd5c1d72f7d44"


class TestRoundRobinJacobi:
    """n >= _ROUNDS_MIN_N takes the round-robin order, smaller n the cyclic one."""

    @pytest.mark.parametrize("n", range(12, 34))
    def test_schedule_meets_each_pair_once_in_disjoint_rounds(self, n):
        rounds = _round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for p, q in rounds:
            assert np.all(p < q) and np.all(q < n)
            assert len(set(p) | set(q)) == 2 * len(p)
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [11, 12, 13, 24, 32])
    def test_matches_lapack_spectrum(self, n):
        for h in (random_hermitian(n, 7), hpd(n, 7, cond=1e3)):
            ref = np.linalg.eigvalsh(h)
            got = hermitian_eigen(h).eigenvalues
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [12, 13, 24, 32])
    def test_reconstruction_and_unitarity(self, n):
        h = random_hermitian(n, 9)
        e = hermitian_eigen(h)
        recon = (e.frame * e.eigenvalues) @ e.frame.conj().T
        assert frobenius_norm(recon - h) <= 1e-12 * frobenius_norm(h)
        assert frobenius_norm(e.frame.conj().T @ e.frame - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize("n", [12, 25])
    def test_reruns_are_bit_identical(self, n):
        h = hpd(n, 4, cond=100.0)
        first, second = hermitian_eigen(h), hermitian_eigen(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.frame, second.frame)

    def test_small_sizes_keep_cyclic_bits(self):
        digest = hashlib.sha256()
        for n in range(2, 12):
            for seed in range(3):
                for h in (random_hermitian(n, seed), hpd(n, seed, cond=1e3)):
                    e = hermitian_eigen(h)
                    digest.update(e.eigenvalues.tobytes())
                    digest.update(e.frame.tobytes())
        assert digest.hexdigest() == SMALL_N_DIGEST


class TestMatrixFunction:
    def test_sqrt_diagonal(self):
        out = matrix_function(mat([[4.0, 0.0], [0.0, 9.0]]), math.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_sqrt_2x2_hand_oracle(self):
        # from eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2):
        # sqrt([[2,1],[1,2]]) = [[(sq3+1)/2, (sq3-1)/2], [(sq3-1)/2, (sq3+1)/2]]
        out = matrix_function(mat([[2.0, 1.0], [1.0, 2.0]]), math.sqrt)
        expected = mat([
            [(SQ3 + 1) / 2, (SQ3 - 1) / 2],
            [(SQ3 - 1) / 2, (SQ3 + 1) / 2],
        ])
        assert np.allclose(out, expected, atol=1e-12)

    def test_identity_map(self):
        for seed in range(5):
            h = random_hermitian(5, seed)
            out = matrix_function(h, lambda x: x)
            assert frobenius_norm(out - h) <= 1e-10 * frobenius_norm(h)

    def test_composition_homomorphism(self):
        # sqrt then square, and square then sqrt, both recover H on HPD input
        for seed in range(5):
            h = hpd(4, seed, cond=100.0)
            scale = frobenius_norm(h)
            sq = matrix_function(h, lambda x: x * x)
            back = matrix_function(sq, math.sqrt)
            assert frobenius_norm(back - h) <= 1e-10 * scale
            rt = matrix_function(h, math.sqrt)
            fwd = matrix_function(rt, lambda x: x * x)
            assert frobenius_norm(fwd - h) <= 1e-10 * scale

    def test_domain_error_from_exception(self):
        with pytest.raises(DomainError):
            matrix_function(mat([[1.0, 0.0], [0.0, -1.0]]), math.sqrt)

    def test_domain_error_from_nonfinite(self):
        with pytest.raises(DomainError):
            matrix_function(mat([[1.0, 0.0], [0.0, 0.0]]), lambda x: 1.0 / x if x != 0 else math.inf)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matrix_function(mat([[0.0, 2.0], [0.0, 0.0]]), math.sqrt)


class TestNamedCalculus:
    def test_sqrtm_squares_back(self):
        for seed in range(8):
            h = hpd(3 + seed % 4, seed, cond=300.0)
            r = sqrtm(h)
            assert frobenius_norm(r @ r - h) <= 1e-10 * frobenius_norm(h)

    def test_inv_sqrtm_inverts(self):
        h = hpd(4, 3, cond=100.0)
        r = inv_sqrtm(h)
        assert frobenius_norm(r @ h @ r - np.eye(4)) <= 1e-10 * 2.0

    def test_inv_sqrtm_rejects_singular(self):
        with pytest.raises(DomainError):
            inv_sqrtm(mat([[1.0, 0.0], [0.0, 0.0]]))

    def test_invm(self):
        h = hpd(4, 7, cond=50.0)
        assert frobenius_norm(invm(h) @ h - np.eye(4)) <= 1e-10 * 2.0

    def test_exp_log_roundtrip(self):
        h = random_hermitian(4, 11)
        b = expm(h)
        assert is_positive_definite(b)
        assert frobenius_norm(logm(b) - h) <= 1e-9 * max(1.0, frobenius_norm(h))

    def test_logm_rejects_singular(self):
        with pytest.raises(DomainError):
            logm(mat([[1.0, 0.0], [0.0, 0.0]]))


class TestAbsOp:
    def test_positive_fixed_point(self):
        p = hpd(4, 2, cond=20.0)
        assert frobenius_norm(abs_op(p) - p) <= 1e-10 * frobenius_norm(p)

    def test_rotation_has_identity_abs(self):
        t = mat([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(abs_op(t), np.eye(2), atol=1e-12)

    def test_abs_squares_to_gram(self):
        for seed in range(5):
            t = SplitMix64(seed).complex_gaussian_matrix(4)
            r = abs_op(t)
            gram = t.conj().T @ t
            assert frobenius_norm(r @ r - gram) <= 1e-10 * frobenius_norm(gram)

    def test_abs_of_singular(self):
        t = mat([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(abs_op(t), t, atol=1e-13)

    def test_factor_identity_for_hpd_products(self):
        # abs(B^{1/2} A^{1/2}) equals (A^{1/2} B A^{1/2})^{1/2}, both computed
        # independently
        for seed in range(6):
            a = hpd(4, mix_seed(seed, 10), cond=100.0)
            b = hpd(4, mix_seed(seed, 11), cond=100.0)
            sa = sqrtm(a)
            sb = sqrtm(b)
            y = sb @ sa
            x = sqrtm((sa @ b @ sa + (sa @ b @ sa).conj().T) / 2.0)
            assert frobenius_norm(abs_op(y) - x) <= 1e-10 * frobenius_norm(x)


class TestPolar:
    def test_positive_definite_input(self):
        p = hpd(3, 4, cond=30.0)
        parts = polar(p)
        assert frobenius_norm(parts.isometry - np.eye(3)) <= 1e-10 * 3
        assert frobenius_norm(parts.positive - p) <= 1e-10 * frobenius_norm(p)

    def test_unitary_input(self):
        w = np.linalg.qr(SplitMix64(9).complex_gaussian_matrix(4))[0]
        parts = polar(w)
        assert frobenius_norm(parts.isometry - w) <= 1e-10 * 2
        assert frobenius_norm(parts.positive - np.eye(4)) <= 1e-10 * 2

    def test_reconstruction_random(self):
        for seed in range(8):
            n = 2 + seed % 6
            t = random_invertible(n, seed)
            parts = polar(t)
            scale = frobenius_norm(t)
            assert frobenius_norm(parts.isometry @ parts.positive - t) <= 1e-11 * scale
            assert frobenius_norm(parts.isometry.conj().T @ parts.isometry - np.eye(n)) <= 1e-11 * n

    def test_positive_part_is_abs(self):
        t = random_invertible(4, 21)
        parts = polar(t)
        assert np.array_equal(parts.positive, abs_op(t))

    def test_singular_raises(self):
        with pytest.raises(Singular):
            polar(mat([[1.0, 0.0], [0.0, 0.0]]))


class TestNormsAndPredicates:
    def test_frobenius_identity(self):
        assert frobenius_norm(np.eye(4, dtype=complex)) == pytest.approx(2.0)

    def test_op_norm_hand_value(self):
        assert op_norm(mat([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, abs=1e-12)

    def test_commutator_of_diagonals_vanishes(self):
        c = commutator(np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 4.0]).astype(complex))
        assert np.array_equal(c, np.zeros((2, 2)))

    def test_is_positive_definite(self):
        assert is_positive_definite(np.eye(3, dtype=complex))
        assert not is_positive_definite(mat([[1.0, 0.0], [0.0, 0.0]]))
        assert is_positive_definite(mat([[2.0, 1.0], [1.0, 2.0]]))

    def test_is_positive_definite_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            is_positive_definite(mat([[1.0, 1.0], [0.0, 1.0]]))

    def test_negative_definite(self):
        assert not is_positive_definite(-np.eye(2, dtype=complex))

    def test_frobenius_far_ends_of_range(self):
        # entries whose squares overflow or underflow still get the norm of
        # the unscaled matrix times the (exact) power-of-two factor
        m = random_hermitian(5, 3)
        base = frobenius_norm(m)
        for e in (600, 330, -330, -600):
            assert frobenius_norm(m * 2.0**e) == pytest.approx(base * 2.0**e, rel=1e-15)

    def test_frobenius_plain_sum_in_normal_range(self):
        m = random_hermitian(6, 8, scale=1e3)
        assert frobenius_norm(m) == math.sqrt(np.vdot(m, m).real)
        assert frobenius_norm(np.zeros((3, 3))) == 0.0
