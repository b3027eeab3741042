"""Substrate tests: Jacobi eigensolver, functional calculus, polar
decomposition, norms.

Hand-derived 2x2 spectra serve as oracles for the eigensolver and the
functional calculus; np.linalg.eigh acts as an independent cross-check on
random inputs (it is never used by library code).
"""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from conftest import (
    SplitMix64,
    commuting_pair,
    gap_objective,
    hpd,
    mat,
    mix_seed,
    polar,
    random_hermitian,
    random_invertible,
    sqrt_and_inv_sqrt,
)

from opmeans.linalg import (
    DomainError,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    NumericalError,
    Singular,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
    require_hermitian,
    sqrtm,
)
import opmeans.linalg as linalg
from opmeans.linalg import _round_robin
from opmeans.means import HpdPair
from opmeans.verify import minimize_gap

SQ3 = math.sqrt(3.0)


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


class TestRequireHermitian:
    def symmetrized(self, h):
        return (h + h.conj().T) / 2.0

    @pytest.mark.parametrize("h", [
        random_hermitian(5, 1),
        hpd(4, 2, cond=1e6) * 2.0**-600,
        # -0.0 equals 0.0: signed zeros on the diagonal, in imaginary parts
        # and in mirrored entries
        mat([[-0.0, complex(1.0, -0.0), 0.0], [1.0, complex(2.0, -0.0), -0.0], [-0.0, 0.0, -0.0]]),
    ], ids=["random", "scaled-hpd", "signed-zeros"])
    def test_exact_input_takes_no_norm_and_keeps_bits(self, h, monkeypatch):
        expected = self.symmetrized(h)
        monkeypatch.setattr(linalg, "frobenius_norm", lambda t: pytest.fail("norm taken"))
        assert require_hermitian(h).tobytes() == expected.tobytes()

    def test_one_ulp_asymmetry_is_symmetrized(self, monkeypatch):
        h = random_hermitian(4, 3)
        h[0, 2] = complex(np.nextafter(h[0, 2].real, math.inf), h[0, 2].imag)
        norms = []
        monkeypatch.setattr(linalg, "frobenius_norm", lambda t: norms.append(t) or frobenius_norm(t))
        got = require_hermitian(h)
        assert len(norms) == 2  # the tolerance path: ||H||_F and ||H - H*||_F
        assert got.tobytes() == self.symmetrized(h).tobytes()
        assert np.array_equal(got, got.conj().T)

    def test_large_asymmetry_message(self):
        with pytest.raises(NotHermitian) as exc:
            require_hermitian(mat([[0.0, 1.0], [0.0, 0.0]]))
        assert str(exc.value) == "asymmetry 1.414e+00 exceeds 1.0e-10 * ||H||_F = 1.000e-10"

    def test_non_finite_is_value_error(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                require_hermitian(mat([[1.0, bad], [bad, 1.0]]))


class TestToleranceConfig:
    """identity_tol is the one setting; the floor, the Jacobi target and
    the sweep budget are constants of the module."""

    def test_defaults_valid(self):
        assert ToleranceConfig().identity_tol == 1e-10
        assert linalg.POSITIVITY_FLOOR == 1e-12
        assert linalg.EIG_OFF_DIAG_TOL == 1e-15
        assert linalg.MAX_JACOBI_SWEEPS == 100 and type(linalg.MAX_JACOBI_SWEEPS) is int

    def test_rejects_nonpositive(self):
        for tol in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="^identity_tol must be strictly positive$"):
                ToleranceConfig(identity_tol=tol)
        with pytest.raises(ValueError, match="^identity_tol must be finite$"):
            ToleranceConfig(identity_tol=math.inf)

    def test_identity_tol_must_exceed_floor(self):
        for tol in (1e-13, 1e-12):
            with pytest.raises(ValueError, match="^identity_tol must exceed positivity_floor$"):
                ToleranceConfig(identity_tol=tol)
        assert ToleranceConfig(identity_tol=2e-12).identity_tol == 2e-12

    def test_has_no_other_field(self):
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["identity_tol"]
        for field, value in (("positivity_floor", 1e-12), ("eig_off_diag_tol", 1e-15), ("max_jacobi_sweeps", 100)):
            with pytest.raises(TypeError):
                ToleranceConfig(**{field: value})


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

    def test_no_convergence_with_one_sweep(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
        with pytest.raises(NoConvergence, match=r"after 1 sweeps \(n = 8\)$"):
            hermitian_eigen(random_hermitian(8, 5))

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

    def test_no_convergence_reports_input_units(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
        for n in (8, 24):
            h = random_hermitian(n, 5) * 2.0**-600
            with pytest.raises(NoConvergence, match=f"above {1e-15 * frobenius_norm(h):.3e} "):
                hermitian_eigen(h)

    def test_zero_matrix(self):
        e = hermitian_eigen(np.zeros((3, 3), dtype=complex))
        assert np.allclose(e.eigenvalues, 0.0)
        assert np.array_equal(e.frame, np.eye(3, dtype=complex))


class TestTopOfRange:
    """Finite input whose sums or norms pass DBL_MAX: right answers or a
    NumericalError, and no floating-point warning (an error under pytest)."""

    # a = 1e307, b = 8e307: eigenvalues -7e307 (twice) and 1.7e308
    INDEFINITE = mat([[1e307, 8e307, 8e307], [8e307, 1e307, 8e307], [8e307, 8e307, 1e307]])

    @staticmethod
    def assert_near_lapack(h):
        ref = np.linalg.eigvalsh(h)
        assert np.isfinite(ref).all()
        top = np.max(np.abs(ref))
        assert np.max(np.abs(hermitian_eigen(h).eigenvalues - ref)) <= 1e-14 * top

    def test_one_by_one(self):
        assert hermitian_eigen(mat([[1e308]])).eigenvalues.tolist() == [1e308]

    def test_entries_past_half_max_are_symmetrized(self):
        h = mat([[1.7e308, 1e306, 0.0], [1e306, -1.7e308, 5e307], [0.0, 5e307, 1e308]])
        assert require_hermitian(h).tobytes() == h.tobytes()
        self.assert_near_lapack(h)

    @staticmethod
    def overflowing(n):
        """A Hermitian matrix with spectral radius 1.5e308 and ||H||_F = inf."""
        h = random_hermitian(n, 5)
        h = h / np.max(np.abs(np.linalg.eigvalsh(h))) * 1.5e308
        assert frobenius_norm(h) == math.inf
        return h

    @pytest.mark.parametrize("n", [8, 24])
    def test_overflowing_norm(self, n):
        # the cyclic order at n = 8, the round-robin order at n = 24
        self.assert_near_lapack(self.overflowing(n))

    def test_no_convergence_names_a_finite_target(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
        h = self.overflowing(8)
        with pytest.raises(NoConvergence, match=re.escape(f"above {1e-15 * frobenius_norm(h / 16) * 16:.3e} ")):
            hermitian_eigen(h)

    @pytest.mark.parametrize("n, power", [(24, 1020), (3, 1023)])
    def test_rank_one_past_range(self, n, power):
        # every entry is finite, the one nonzero eigenvalue n 2^power is not
        with pytest.raises(NumericalError, match="eigenvalue leaves the double range"):
            hermitian_eigen(np.full((n, n), 2.0**power, dtype=complex))

    def test_entries_spread_over_the_range(self):
        # 2^-e H has its largest entry in [1/2, 1) (e = 600), not its norm
        # (e = 601), so the eigenvalue 3 * 2^-474 is not rounded to 2^-472
        # on the way through the subnormal 3 * 2^-1074
        h = np.diag([0.0, 0.0, 3 * 2.0**-474]).astype(complex)
        h[:2, :2] = mat([[0.75, 0.25], [0.25, 0.75]]) * 2.0**600
        assert hermitian_eigen(h).eigenvalues[0] == 3 * 2.0**-474

    def test_indefinite(self):
        self.assert_near_lapack(self.INDEFINITE)
        with pytest.raises(DomainError):
            sqrtm(self.INDEFINITE)

    def test_eigenvalue_past_range(self):
        with pytest.raises(NumericalError, match="eigenvalue leaves the double range"):
            hermitian_eigen(mat([[1e308, 1e308], [1e308, 1e308]]))


def range_edges():
    """Zero matrices, matrices scaled by 2^+-1000, mixes with subnormal
    entries, and entries near 1e308 whose ||H||_F overflows."""
    for n in (1, 3, 12):
        yield np.zeros((n, n), dtype=complex)
    for n in (2, 5, 12, 16):
        for power in (1000, -1000):
            yield random_hermitian(n, n, 2.0**power)
            yield hpd(n, n + 1, cond=1e3) * 2.0**power
    for n in (3, 12):
        yield random_hermitian(n, 3 * n, 2.0**-1060)  # every entry subnormal
        h = np.diag(np.arange(1.0, n + 1)).astype(complex) * 1e-300
        yield h + random_hermitian(n, 3 * n + 1, 2.0**-1070)  # subnormal off the diagonal
        h = random_hermitian(n, 3 * n + 2)
        h[0, -1], h[-1, 0] = 5e-324j, -5e-324j
        yield h * 2.0**-1000
    for n in (3, 8, 12, 24):
        h = random_hermitian(n, n + 2)
        h = h / np.max(np.abs(np.linalg.eigvalsh(h))) * 1.7e308
        assert frobenius_norm(h) == math.inf
        yield h


# sha256 of the eigenvalues and frames of `range_edges()` at the default config
RANGE_EDGES_DIGEST = "6901347a3f528165dc064b4857d5b370ad02f757dc80ecb5604b985febbdbeac"


def test_range_edges_keep_their_bits():
    digest = hashlib.sha256()
    for h in range_edges():
        e = hermitian_eigen(h)
        digest.update(e.eigenvalues.tobytes())
        digest.update(e.frame.tobytes())
    assert digest.hexdigest() == RANGE_EDGES_DIGEST


class TestWarmStart:
    """A frame hint changes the route to the spectrum, not the spectrum."""

    def test_range_edges_hinted(self):
        # the residual is taken on 2^-e H, where it neither overflows nor
        # underflows; an eigenvalue in the subnormal range is stored to
        # within 2^-1075 of its value, cold or hinted, so that rounding,
        # 2^-1075 sqrt(n) in all, joins the bound
        for i, h in enumerate(range_edges()):
            n = h.shape[0]
            cold = hermitian_eigen(h)
            radius = np.max(np.abs(cold.eigenvalues))
            e = linalg._exponent(h)
            scaled = h * math.ldexp(1.0, -e)
            for q in (cold.frame, random_unitary(n, i)):
                got = hermitian_eigen(h, frame=q)
                assert np.max(np.abs(got.eigenvalues - cold.eigenvalues)) <= 1e-13 * radius, i
                lam = np.ldexp(got.eigenvalues, -e)
                residual = frobenius_norm(scaled @ got.frame - got.frame * lam)
                assert residual <= 1e-13 * frobenius_norm(scaled) + math.sqrt(n) * math.ldexp(1.0, -1075 - e), i

    def test_frame_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"frame has shape \(3, 3\), expected \(4, 4\)"):
            hermitian_eigen(hpd(4, 1), frame=np.eye(3))

    def test_frame_with_non_finite_entry(self):
        q = np.eye(4, dtype=complex)
        q[1, 2] = complex(0.0, math.nan)
        with pytest.raises(ValueError, match="frame entries must be finite"):
            hermitian_eigen(hpd(4, 1), frame=q)

    def test_frame_not_unitary(self):
        # a defect just past the default identity_tol is refused, one within it taken
        q = random_unitary(4, 2)
        tol = ToleranceConfig().identity_tol
        hermitian_eigen(hpd(4, 1), frame=q * (1.0 + 0.2 * tol))
        with pytest.raises(ValueError, match="frame is not unitary"):
            hermitian_eigen(hpd(4, 1), frame=q * (1.0 + tol))
        with pytest.raises(ValueError, match="frame is not unitary"):
            hermitian_eigen(hpd(4, 1), frame=q * 1e200)

    @pytest.mark.parametrize("n", [5, 24])
    def test_stack_takes_one_frame_per_member(self, n):
        mats = [hpd(n, 1), hpd(n, 2)]
        with pytest.raises(ValueError, match="a stack of 2 matrices takes 2 frames, got 1"):
            hermitian_eigen(mats, frame=[None])
        with pytest.raises(ValueError, match="a stack of 2 matrices takes 2 frames, got 3"):
            hermitian_eigen(np.stack(mats), frame=[None, None, np.eye(n)])


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

    def test_skip_underflowing_to_zero_divides_by_one(self):
        # pairs whose entry is exactly 0 are skipped without dividing by it
        # (0 / 0 would warn, an error under pytest), in rounds whose other
        # pairs rotate
        h = np.diag(np.arange(1.0, 13.0)).astype(complex)
        h[0, 1] = h[1, 0] = 0.5
        h[3, 7], h[7, 3] = 0.25j, -0.25j
        e = hermitian_eigen(h)
        assert np.max(np.abs(e.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-14 * 12.0

    def test_small_sizes_keep_cyclic_bits(self):
        digest = hashlib.sha256()
        for n in range(2, 12):
            for seed in range(3):
                for h in (random_hermitian(n, seed), hpd(n, seed, cond=1e3)):
                    e = hermitian_eigen(h)
                    digest.update(e.eigenvalues.tobytes())
                    digest.update(e.frame.tobytes())
        assert digest.hexdigest() == SMALL_N_DIGEST


def near_diagonal(n, seed):
    """diag(1..n) coupled at about 1e-3 among indices 0-2 and at 2^-70, far
    below the skip threshold, elsewhere: from n = 12 on, every sweep skips
    each round that meets no pair of 0-2 whole."""
    h = np.diag(np.arange(1.0, n + 1)).astype(complex) + random_hermitian(n, seed, 2.0**-70)
    k = min(n, 3)
    h[:k, :k] += random_hermitian(k, seed + 1, 1e-3)
    return h


def round_robin_members(n):
    """(matrix, frame) pairs for the round-robin bit pin: indefinite
    Hermitian, cond 1e3 HPD cold and hinted with a random frame, the near-
    diagonal member cold and hinted with the identity, and the core
    A^{1/2} B A^{1/2} of a commuting pair hinted with A's frame."""
    pair = commuting_pair(n, n, cond=1e3)
    root = sqrtm(pair.a)
    core = root @ pair.b @ root
    return [(random_hermitian(n, n), None), (hpd(n, n, cond=1e3), None),
            (hpd(n, n, cond=1e3), random_unitary(n, n)), (near_diagonal(n, n), None),
            (near_diagonal(n, n), np.eye(n)),
            ((core + core.conj().T) / 2.0, hermitian_eigen(pair.a).frame)]


# sha256 of the eigenvalues and frames of `round_robin_members`, each alone
# and all as one stack, taken before A J and V J became one product and a
# round whose pairs are all skipped stopped taking products: neither may
# move a bit
ROUND_ROBIN_DIGEST = "78a7a3fd524de22c7cdece661d9e97f83bfab82cfd92f0956a165380319b66ca"


def test_round_robin_keeps_its_bits():
    digest = hashlib.sha256()
    for n in (12, 13, 16, 24, 31, 32):
        mats, frames = zip(*round_robin_members(n))
        lone = [hermitian_eigen(m, frame=q) for m, q in zip(mats, frames)]
        for e in lone + hermitian_eigen(np.stack(mats), frame=frames):
            digest.update(e.eigenvalues.tobytes())
            digest.update(e.frame.tobytes())
    assert digest.hexdigest() == ROUND_ROBIN_DIGEST


def stack_members(n, seed):
    """Members that stop after different numbers of sweeps: diagonal (none),
    a zero matrix (never run), indefinite Hermitian, cond 1e3 HPD, one far
    below unit scale, and a near-diagonal one whose sweeps skip whole
    rounds."""
    return [np.diag(np.arange(1.0, n + 1)).astype(complex), np.zeros((n, n), dtype=complex),
            random_hermitian(n, seed), hpd(n, seed, cond=1e3), random_hermitian(n, seed + 1) * 2.0**-600,
            near_diagonal(n, seed + 2)]


def random_unitary(n, seed):
    """The Q factor of a complex gaussian matrix, from np.linalg.qr."""
    return np.linalg.qr(SplitMix64(seed).complex_gaussian_matrix(n))[0]


def stack_hints(mats, seed):
    """Frames for `stack_members`, hinted and unhinted mixed: a random
    frame for the diagonal and the small member, the member's own cold
    frame for the indefinite one, none for the zero and the HPD one, and
    the identity for the near-diagonal one."""
    n = mats[0].shape[0]
    return [random_unitary(n, seed), None, hermitian_eigen(mats[2]).frame, None, random_unitary(n, seed + 1),
            np.eye(n)]


def round_robin_size(n, limit=64):
    """The least stack size that runs round-robin at size n, or None up to `limit`."""
    return next((k for k in range(1, limit + 1) if linalg._round_robin_for(k, n)), None)


def mixed_members(n, k):
    """k members and their hints, `stack_members` and `stack_hints` over
    successive seeds."""
    mats, hints = [], []
    for seed in range(n, n + k, 3):
        batch = stack_members(n, seed)
        mats += batch
        hints += stack_hints(batch, seed)
    return mats[:k], hints[:k]


def bits(e):
    """The bytes of a decomposition's eigenvalues and frame."""
    return e.eigenvalues.tobytes() + e.frame.tobytes()


class TestStackedEigen:
    """A stack gives each member the bits of a single call, on both orders,
    unless it runs round-robin below n = 12, where each member's bits
    depend on it alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 12, 13, 16, 24, 32])
    def test_members_match_single_calls(self, n):
        mats = stack_members(n, n)
        hint_sets = [[None] * len(mats)] + ([stack_hints(mats, n)] if n in (5, 12, 24) else [])
        for hints in hint_sets:
            singles = [hermitian_eigen(m, frame=q) for m, q in zip(mats, hints)]
            for order, frames in ((mats, hints), (mats[::-1], hints[::-1])):
                expected = singles if order is mats else singles[::-1]
                for stack in (np.stack(order), order):
                    got = hermitian_eigen(stack, frame=frames)
                    assert len(got) == len(order)
                    for e, ref in zip(got, expected):
                        assert np.array_equal(e.eigenvalues, ref.eigenvalues)
                        assert np.array_equal(e.frame, ref.frame)

    def test_stack_of_mixed_sizes_names_them(self):
        with pytest.raises(ValueError, match=re.escape("one size, got shapes [(3, 3), (5, 5)]")):
            hermitian_eigen([np.eye(3), np.eye(5), np.eye(3)])
        with pytest.raises(ValueError, match=re.escape("one size, got shapes [(2, 2), (2,)]")):
            hermitian_eigen((np.eye(2), [1.0, 2.0]))
        # a matrix given as nested lists is one matrix, and an empty sequence none
        assert hermitian_eigen([[2.0, 0.0], [0.0, 1.0]]).eigenvalues.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape (0,)")):
            hermitian_eigen([])

    def test_one_member_stack(self):
        h = hpd(24, 2, cond=100.0)
        (got,), ref = hermitian_eigen(h[None]), hermitian_eigen(h)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.frame, ref.frame)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_stack_below_the_round_robin_size_is_lone_calls(self, n, monkeypatch):
        # one member short of the size from which a stack runs round-robin
        # (none up to 64 at n = 2), the cyclic loop runs once per member
        k = round_robin_size(n)
        mats, hints = mixed_members(n, (k or 65) - 1)
        singles = [hermitian_eigen(m, frame=q) for m, q in zip(mats, hints)]
        stacks = []
        real = linalg._jacobi_rounds
        monkeypatch.setattr(linalg, "_jacobi_rounds", lambda m, v, t: stacks.append(len(m)) or real(m, v, t))
        got = hermitian_eigen(np.stack(mats), frame=hints)
        assert stacks == [] and [bits(e) for e in got] == [bits(e) for e in singles]
        if k is not None:
            hermitian_eigen(np.stack(mats + mats[:1]), frame=hints + hints[:1])
            assert stacks == [k]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_round_robin_stack_members_keep_their_bits(self, n):
        # each member of a round-robin stack below n = 12 gets the same bits
        # whatever its place and companions: k members in order, then the
        # same members reversed behind k others
        k = round_robin_size(n)
        mats, hints = mixed_members(n, 2 * k)
        first = hermitian_eigen(np.stack(mats[:k]), frame=hints[:k])
        second = hermitian_eigen(mats[k:] + mats[k - 1 :: -1], frame=hints[k:] + hints[k - 1 :: -1])
        assert [bits(e) for e in first] == [bits(e) for e in second[: k - 1 : -1]]
        # not the cyclic loop's bits: the stack did run round-robin
        assert [bits(e) for e in first] != [bits(hermitian_eigen(m, frame=q)) for m, q in zip(mats[:k], hints)]

    @pytest.mark.parametrize("n", [5, 24])
    def test_failing_member_raises_its_single_call_error(self, n, monkeypatch):
        good = hpd(n, 1)
        skew = random_hermitian(n, 2)
        skew[0, 1] += 1.0
        with pytest.raises(NotHermitian) as single:
            hermitian_eigen(skew)
        with pytest.raises(NotHermitian) as stacked:
            hermitian_eigen(np.stack((good, skew)))
        assert str(stacked.value) == str(single.value)
        # the diagonal member is done before its first sweep, the others
        # need more than one; the first of them that fails is reported
        monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
        first, second = random_hermitian(n, 3), random_hermitian(n, 4) * 2.0**-600
        with pytest.raises(NoConvergence) as single:
            hermitian_eigen(first)
        with pytest.raises(NoConvergence) as stacked:
            hermitian_eigen(np.stack((np.diag(np.arange(1.0, n + 1)).astype(complex), first, second)))
        assert str(stacked.value) == str(single.value)
        with pytest.raises(NoConvergence) as single:
            hermitian_eigen(second)
        with pytest.raises(NoConvergence) as stacked:
            hermitian_eigen(np.stack((second, first)))
        assert str(stacked.value) == str(single.value)
        assert "above" in str(single.value) and f"(n = {n})" in str(single.value)


class TestMatrixFunction:
    """The functional calculus through its square root: hand-derived
    oracles, composition, and the domain and symmetry checks."""

    def test_sqrt_diagonal(self):
        out = sqrtm(mat([[4.0, 0.0], [0.0, 9.0]]))
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_sqrt_2x2_hand_oracle(self):
        # from eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2):
        # sqrt([[2,1],[1,2]]) = [[(sq3+1)/2, (sq3-1)/2], [(sq3-1)/2, (sq3+1)/2]]
        out = sqrtm(mat([[2.0, 1.0], [1.0, 2.0]]))
        expected = mat([
            [(SQ3 + 1) / 2, (SQ3 - 1) / 2],
            [(SQ3 - 1) / 2, (SQ3 + 1) / 2],
        ])
        assert np.allclose(out, expected, atol=1e-12)

    def test_composition_homomorphism(self):
        # sqrt then square, and square then sqrt, both recover H on HPD input
        for seed in range(5):
            h = hpd(4, seed, cond=100.0)
            scale = frobenius_norm(h)
            sq = h @ h
            back = sqrtm((sq + sq.conj().T) / 2.0)
            assert frobenius_norm(back - h) <= 1e-10 * scale
            rt = sqrtm(h)
            assert frobenius_norm(rt @ rt - h) <= 1e-10 * scale

    def test_domain_error_from_exception(self):
        with pytest.raises(DomainError):
            sqrtm(mat([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            sqrtm(mat([[0.0, 2.0], [0.0, 0.0]]))


class TestRootsAndSingularInputs:
    def test_sqrtm_squares_back(self):
        for seed in range(8):
            h = hpd(3 + seed % 4, seed, cond=300.0)
            r = sqrtm(h)
            assert frobenius_norm(r @ r - h) <= 1e-10 * frobenius_norm(h)

    def test_sqrt_and_inv_sqrt_inverts(self):
        h = hpd(4, 3, cond=100.0)
        _, r = sqrt_and_inv_sqrt(h)
        assert frobenius_norm(r @ h @ r - np.eye(4)) <= 1e-10 * 2.0

    def test_validated_pair_rejects_singular_a(self):
        # A^{-1/2} is taken by the pair's context, which refuses a singular A
        with pytest.raises(NotPositiveDefinite, match="^matrix a is not positive definite$"):
            HpdPair.validated(mat([[1.0, 0.0], [0.0, 0.0]]), np.eye(2, dtype=complex))

    def test_root_chart_start_roundtrip(self):
        # B0 = exp(H) from eigh, the test oracle; the descent's start, the
        # fourth root R0 = (B0 / nu)^{1/4} from the pair's context, must give
        # B0 back as nu R0^4, to roundoff
        h = random_hermitian(4, 11)
        w, v = np.linalg.eigh(h)
        b = (v * np.exp(w)) @ v.conj().T
        obj = gap_objective(np.eye(4, dtype=complex), b)
        back = obj.nu * obj.unit * np.linalg.matrix_power(obj.start, 4)
        assert frobenius_norm(back - b) <= 1e-14 * frobenius_norm(b)

    def test_minimize_gap_rejects_singular_b0(self):
        # R0, the descent's start, is taken of a B0 validated with A
        with pytest.raises(NotPositiveDefinite, match="^matrix b is not positive definite$"):
            minimize_gap(np.eye(2, dtype=complex), mat([[1.0, 0.0], [0.0, 0.0]]))


class TestAbsOp:
    """The operator absolute value |T| = (T*T)^{1/2}, through the positive
    factor of `polar`, the route that r5 and lemma-ah take."""

    def test_rotation_has_identity_abs(self):
        t = mat([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(polar(t).positive, np.eye(2), atol=1e-12)

    def test_abs_squares_to_gram(self):
        for seed in range(5):
            t = SplitMix64(seed).complex_gaussian_matrix(4)
            r = polar(t).positive
            gram = t.conj().T @ t
            assert frobenius_norm(r @ r - gram) <= 1e-10 * frobenius_norm(gram)

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
            assert frobenius_norm(polar(y).positive - x) <= 1e-10 * frobenius_norm(x)


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
        # |T| is the square root of the symmetrized gram T*T, bit for bit
        t = random_invertible(4, 21)
        gram = t.conj().T @ t
        assert np.array_equal(polar(t).positive, sqrtm((gram + gram.conj().T) / 2.0))

    def test_singular_raises(self):
        with pytest.raises(Singular):
            polar(mat([[1.0, 0.0], [0.0, 0.0]]))


class TestNormsAndPredicates:
    def test_frobenius_identity(self):
        assert frobenius_norm(np.eye(4, dtype=complex)) == pytest.approx(2.0)

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
