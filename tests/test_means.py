"""Mean operations: closed-form cases, symmetry/idempotence, the Riccati
characterization of the geometric mean, and agreement of the X-form
Wasserstein mean with the literal route through the geometric mean.

The frozen matrix below was computed with an independent LAPACK-backed
functional calculus (np.linalg.eigh) evaluating the literal
mean-of-transport formula; it pins the Wasserstein mean of the standard
example pair as a regression fixture.
"""

import math
import re

import numpy as np
import pytest

from conftest import (
    SplitMix64,
    commuting_pair,
    eigh_positive_definite,
    hpd,
    mat,
    mix_seed,
    proof_intermediates,
    random_pair,
    svd_abs,
    uniform,
)

from opmeans.linalg import (
    NotHermitian,
    NotPositiveDefinite,
    frobenius_norm,
    require_hermitian,
)
from opmeans.means import (
    HpdPair,
    geometric_mean,
    heron_mean,
    wasserstein_mean,
)

EXAMPLE_A = mat([[2.0, 1.0], [1.0, 2.0]])
EXAMPLE_B = mat([[3.0, 0.0], [0.0, 1.0]])

# wasserstein_mean(EXAMPLE_A, EXAMPLE_B), frozen from the independent oracle
WASSERSTEIN_FIXTURE = mat([
    [2.452675588605909, 0.5172612419124243],
    [0.5172612419124243, 1.4181531047810605],
])


def wasserstein_mean_via_gmean(p):
    """Cross-check route: literal (A + B + A G + G A) / 4 with G = A^{-1} # B.

    Independent of the X-form path of `wasserstein_mean` except for the
    shared eigensolver, so agreement between the two routes is a
    meaningful oracle.
    """
    inv_a = np.linalg.inv(p.a)
    g = geometric_mean(HpdPair(a=inv_a, b=p.b))
    w = (p.a + p.b + p.a @ g + g @ p.a) / 4.0
    return require_hermitian(w)


def scalar_pair(a, b):
    return HpdPair.validated(mat([[a]]), mat([[b]]))


class TestHpdPair:
    def test_validated_accepts_hpd(self):
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        assert p.dim == 2

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: (2, 2) vs (3, 3)")):
            HpdPair.validated(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_constructor_rejects_dimension_mismatch(self):
        # the check is the constructor's, before the stacked eigensolver call
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: (2, 2) vs (3, 3)")):
            HpdPair(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_validated_checks_hermitian_before_shape(self):
        # A's Hermitian check, then B's, then the shape
        skew2, skew3 = mat([[1.0, 1.0], [0.0, 1.0]]), np.triu(np.ones((3, 3))).astype(complex)
        with pytest.raises(NotHermitian):
            HpdPair.validated(skew2, np.eye(3, dtype=complex))
        with pytest.raises(NotHermitian):
            HpdPair.validated(np.eye(2, dtype=complex), skew3)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            HpdPair.validated(mat([[1.0, 0.0], [0.0, -1.0]]), np.eye(2, dtype=complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            HpdPair.validated(mat([[1.0, 1.0], [0.0, 1.0]]), np.eye(2, dtype=complex))


class TestGeometricMean:
    def test_idempotent_on_identity(self):
        p = HpdPair.validated(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        assert np.allclose(geometric_mean(p), np.eye(3), atol=1e-12)

    def test_scalar_case(self):
        g = geometric_mean(scalar_pair(4.0, 9.0))
        assert g[0, 0].real == pytest.approx(6.0, rel=1e-14)

    def test_commuting_diagonal(self):
        p = HpdPair.validated(np.diag([1.0, 4.0]).astype(complex), np.diag([9.0, 16.0]).astype(complex))
        assert np.allclose(geometric_mean(p), np.diag([3.0, 8.0]), atol=1e-12)

    def test_riccati_characterization(self):
        # G is the unique positive solution of G A^{-1} G = B
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        g = geometric_mean(p)
        resid = frobenius_norm(g @ np.linalg.inv(p.a) @ g - p.b) / frobenius_norm(p.b)
        assert resid <= 1e-10

    def test_riccati_random(self):
        for seed in range(8):
            p = random_pair(3 + seed % 3, seed, cond=100.0)
            g = geometric_mean(p)
            resid = frobenius_norm(g @ np.linalg.inv(p.a) @ g - p.b) / frobenius_norm(p.b)
            assert resid <= 1e-10

    def test_inversion_property(self):
        for seed in range(5):
            p = random_pair(3, seed, cond=50.0)
            inv_pair = HpdPair.validated(np.linalg.inv(p.a), np.linalg.inv(p.b))
            lhs = geometric_mean(inv_pair)
            rhs = np.linalg.inv(geometric_mean(p))
            assert frobenius_norm(lhs - rhs) <= 1e-10 * frobenius_norm(rhs)

    def test_congruence_invariance(self):
        for seed in range(5):
            p = random_pair(3, seed, cond=30.0)
            t = SplitMix64(mix_seed(seed, 5)).complex_gaussian_matrix(3) + 2 * np.eye(3)
            lhs = t @ geometric_mean(p) @ t.conj().T
            q = HpdPair.validated(t @ p.a @ t.conj().T, t @ p.b @ t.conj().T)
            rhs = geometric_mean(q)
            assert frobenius_norm(lhs - rhs) <= 1e-9 * frobenius_norm(rhs)

    def test_output_positive_definite(self):
        for seed in range(5):
            p = random_pair(4, seed, cond=100.0)
            assert eigh_positive_definite(geometric_mean(p))


class TestHeronMean:
    def test_idempotent(self):
        c = hpd(3, 8, cond=40.0)
        p = HpdPair.validated(c, c)
        assert frobenius_norm(heron_mean(p) - c) <= 1e-10 * frobenius_norm(c)

    def test_scalar_case(self):
        h = heron_mean(scalar_pair(4.0, 9.0))
        assert h[0, 0].real == pytest.approx(6.25, rel=1e-14)

    def test_commuting_diagonal(self):
        p = HpdPair.validated(np.diag([1.0, 4.0]).astype(complex), np.diag([9.0, 16.0]).astype(complex))
        assert np.allclose(heron_mean(p), np.diag([4.0, 9.0]), atol=1e-12)

    def test_symmetric_in_arguments(self):
        for seed in range(5):
            p = random_pair(3, seed)
            swapped = HpdPair(a=p.b, b=p.a)
            assert frobenius_norm(heron_mean(p) - heron_mean(swapped)) <= 1e-10

    def test_expanded_form(self):
        # ((sA + sB)/2)^2 = (A + B + sA sB + sB sA)/4
        from opmeans.linalg import sqrtm

        for seed in range(5):
            p = random_pair(4, seed, cond=100.0)
            sa, sb = sqrtm(p.a), sqrtm(p.b)
            expanded = (p.a + p.b + sa @ sb + sb @ sa) / 4.0
            assert frobenius_norm(heron_mean(p) - expanded) <= 1e-10 * frobenius_norm(expanded)

    def test_output_positive_definite(self):
        for seed in range(5):
            assert eigh_positive_definite(heron_mean(random_pair(4, seed, cond=100.0)))


class TestWassersteinMean:
    def test_scalar_case(self):
        w = wasserstein_mean(scalar_pair(4.0, 9.0))
        assert w[0, 0].real == pytest.approx(6.25, rel=1e-14)

    def test_idempotent(self):
        c = hpd(4, 13, cond=25.0)
        p = HpdPair.validated(c, c)
        assert frobenius_norm(wasserstein_mean(p) - c) <= 1e-10 * frobenius_norm(c)

    def test_regression_fixture(self):
        p = HpdPair.validated(EXAMPLE_A, EXAMPLE_B)
        assert np.allclose(wasserstein_mean(p), WASSERSTEIN_FIXTURE, atol=1e-12)

    def test_two_routes_agree(self):
        for seed in range(8):
            p = random_pair(2 + seed % 4, seed, cond=100.0)
            w1 = wasserstein_mean(p)
            w2 = wasserstein_mean_via_gmean(p)
            assert frobenius_norm(w1 - w2) <= 1e-10 * frobenius_norm(w1)

    def test_output_hermitian(self):
        p = random_pair(4, 3, cond=100.0)
        w = wasserstein_mean(p)
        assert np.array_equal(w, w.conj().T)


class TestMeanFamilyProperties:
    def test_one_dimensional_collapse(self):
        rng = SplitMix64(77)
        for _ in range(50):
            a = math.exp(uniform(rng, -3, 3))
            b = math.exp(uniform(rng, -3, 3))
            target = ((math.sqrt(a) + math.sqrt(b)) / 2.0) ** 2
            p = scalar_pair(a, b)
            assert heron_mean(p)[0, 0].real == pytest.approx(target, rel=1e-14)
            assert wasserstein_mean(p)[0, 0].real == pytest.approx(target, rel=1e-14)

    def test_commuting_collapse(self):
        for seed in range(8):
            p = commuting_pair(2 + seed % 5, seed, cond=100.0)
            diff = frobenius_norm(heron_mean(p) - wasserstein_mean(p))
            scale = frobenius_norm(p.a) + frobenius_norm(p.b)
            assert diff <= 1e-10 * scale

    def test_idempotence_all_means(self):
        c = hpd(3, 29, cond=60.0)
        p = HpdPair.validated(c, c)
        for m in (heron_mean, wasserstein_mean, geometric_mean):
            assert frobenius_norm(m(p) - c) <= 1e-10 * frobenius_norm(c)


class TestProofIntermediates:
    def test_identity_pair(self):
        p = HpdPair.validated(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        ints = proof_intermediates(p)
        assert np.allclose(ints.x, np.eye(2), atol=1e-12)
        assert np.allclose(ints.y, np.eye(2), atol=1e-12)

    def test_commuting_diagonal(self):
        p = HpdPair.validated(np.diag([1.0, 4.0]).astype(complex), np.diag([9.0, 16.0]).astype(complex))
        ints = proof_intermediates(p)
        assert np.allclose(ints.x, np.diag([3.0, 8.0]), atol=1e-12)
        assert np.allclose(ints.y, np.diag([3.0, 8.0]), atol=1e-12)

    def test_x_squares_to_core(self):
        for seed in range(5):
            p = random_pair(4, seed, cond=100.0)
            ints = proof_intermediates(p)
            core = ints.sqrt_a @ p.b @ ints.sqrt_a
            assert frobenius_norm(ints.x @ ints.x - core) <= 1e-10 * frobenius_norm(core)
            assert eigh_positive_definite(ints.x)

    def test_abs_y_equals_x(self):
        # |Y| = X with both sides computed through independent paths
        for seed in range(8):
            p = random_pair(2 + seed % 5, seed, cond=300.0)
            ints = proof_intermediates(p)
            assert frobenius_norm(svd_abs(ints.y) - ints.x) <= 1e-10 * frobenius_norm(ints.x)
