"""Deterministic generators: stream reproducibility, spectrum placement,
family construction, and spec validation."""

import math
import re

import numpy as np
import pytest

from conftest import eigh_positive_definite

from opmeans.linalg import NumericalError, _assemble, frobenius_norm
from opmeans.randgen import (
    GenSpec,
    InvalidSpec,
    SplitMix64,
    mix_seed,
    near_commuting_pair,
    random_commuting_pair,
    random_hpd,
    _hermitian_unit,
)
from opmeans.verify import commutator_gap

MASK64 = (1 << 64) - 1
# 0, and seeds whose state wraps modulo 2^64 within the first words
WRAP_SEEDS = [0, 1 << 63, MASK64]


def gauss_pair(rng):
    """The scalar Box-Muller pair that the vectorized draws reproduce."""
    u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53
    u2 = rng.next_double()
    rad = math.sqrt(-2.0 * math.log(u1))
    ang = 2.0 * math.pi * u2
    return rad * math.cos(ang), rad * math.sin(ang)


def reference_gaussians(rng, count):
    out = []
    while len(out) < count:
        out.extend(gauss_pair(rng))
    return out[:count]


def reference_complex_gaussian_matrix(rng, n):
    m = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            m[i, j] = complex(*gauss_pair(rng))
    return m


class TestSplitMix64:
    def test_deterministic_stream(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_distinct_seeds_distinct_streams(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_doubles_in_unit_interval(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            u = rng.next_double()
            assert 0.0 <= u < 1.0

    def test_gauss_pairs_finite_and_centered(self):
        rng = SplitMix64(7)
        vals = rng.gaussians(4000)
        assert all(math.isfinite(v) for v in vals)
        mean = sum(vals) / len(vals)
        var = sum(v * v for v in vals) / len(vals)
        assert abs(mean) < 0.1
        assert abs(var - 1.0) < 0.1

    def test_odd_count_discards_sine(self):
        a = SplitMix64(5).gaussians(3)
        b = SplitMix64(5).gaussians(4)
        assert a == b[:3]

    def test_mix_seed_spread(self):
        seeds = {mix_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


class TestVectorizedStream:
    """One uint64 pass per request gives the scalar stream's bits, and
    leaves the state where the scalar draws would."""

    def test_published_vectors(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    def test_words_match_scalar(self, seed):
        for count in (0, 1, 2, 7, 100):
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            assert vec.words(count).tolist() == [ref.next_u64() for _ in range(count)]
            assert vec.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    def test_gaussians_match_scalar(self, seed):
        for count in (0, 1, 2, 5, 6, 101):
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            got = vec.gaussians(count)
            assert [x.hex() for x in got] == [x.hex() for x in reference_gaussians(ref, count)]
            assert all(type(x) is float for x in got)
            assert vec.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    def test_complex_gaussian_matrix_matches_scalar(self, seed):
        for n in range(1, 33):
            vec, ref = SplitMix64(seed), SplitMix64(seed)
            got = vec.complex_gaussian_matrix(n)
            assert got.shape == (n, n) and got.dtype == np.complex128
            assert got.tobytes() == reference_complex_gaussian_matrix(ref, n).tobytes()
            assert vec.next_u64() == ref.next_u64()


class TestGenSpec:
    def test_valid(self):
        GenSpec(dim=3, seed=0, cond_target=1.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidSpec):
            GenSpec(dim=0, seed=1)

    @pytest.mark.parametrize("dim", [True, 2.0, 2.5, "2", None])
    def test_dim_must_be_an_int_not_a_bool(self, dim):
        with pytest.raises(InvalidSpec, match=f"^dim must be a positive integer, got {re.escape(repr(dim))}$"):
            GenSpec(dim=dim, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=-1)
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1 << 64)

    @pytest.mark.parametrize("seed", [False, True, 1.0, 1.5, "1", None])
    def test_seed_must_be_an_int_not_a_bool(self, seed):
        with pytest.raises(InvalidSpec, match=f"^seed must be a 64-bit unsigned integer, got {re.escape(repr(seed))}$"):
            GenSpec(dim=2, seed=seed)

    def test_rejects_cond_below_one(self):
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1, cond_target=0.5)
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1, cond_target=math.inf)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1, family="weird")

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1, family="near_commuting", epsilon=-0.1)
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1, family="near_commuting", epsilon=math.inf)

    def test_rejects_epsilon_outside_near_commuting(self):
        with pytest.raises(InvalidSpec):
            GenSpec(dim=2, seed=1, family="generic", epsilon=0.1)


class TestRandomHpd:
    def test_bit_identical_reruns(self):
        spec = GenSpec(dim=5, seed=77, cond_target=30.0)
        assert np.array_equal(random_hpd(spec), random_hpd(spec))

    def test_positive_definite(self):
        for seed in range(10):
            m = random_hpd(GenSpec(dim=2 + seed % 6, seed=seed, cond_target=1000.0))
            assert eigh_positive_definite(m)

    def test_condition_number_hits_target(self):
        m = random_hpd(GenSpec(dim=4, seed=42, cond_target=100.0))
        lam = np.linalg.eigvalsh(m)
        realized = lam[-1] / lam[0]
        assert abs(realized - 100.0) <= 5.0

    def test_cond_one_is_identity(self):
        m = random_hpd(GenSpec(dim=3, seed=11, cond_target=1.0))
        assert frobenius_norm(m - np.eye(3)) <= 1e-10 * math.sqrt(3)

    def test_spectrum_inside_band(self):
        cond = 50.0
        m = random_hpd(GenSpec(dim=6, seed=13, cond_target=cond))
        lam = np.linalg.eigvalsh(m)
        lo, hi = 1 / math.sqrt(cond), math.sqrt(cond)
        assert lam[0] >= lo * (1 - 1e-10)
        assert lam[-1] <= hi * (1 + 1e-10)

    def test_dim_one(self):
        m = random_hpd(GenSpec(dim=1, seed=3, cond_target=9.0))
        assert m.shape == (1, 1)
        assert m[0, 0].real > 0

    @pytest.mark.parametrize("draw, message", [
        (lambda: random_hpd(GenSpec(dim=3, seed=1)), "frame column collapsed"),
        (lambda: _hermitian_unit(SplitMix64(1), 3), "hermitian direction collapsed"),
    ])
    def test_collapsed_draw_is_numerical_error(self, monkeypatch, draw, message):
        # no seed is known to draw a zero gaussian matrix, so one is patched in
        monkeypatch.setattr(SplitMix64, "complex_gaussian_matrix", lambda self, n: np.zeros((n, n), complex))
        with pytest.raises(NumericalError, match=message):
            draw()


class TestCommutingPair:
    def test_commutator_within_tolerance(self):
        for seed in range(10):
            p = random_commuting_pair(GenSpec(dim=2 + seed % 6, seed=seed, cond_target=100.0, family="commuting"))
            assert commutator_gap(p.a, p.b) <= 1e-10

    def test_both_positive(self):
        p = random_commuting_pair(GenSpec(dim=4, seed=5, cond_target=100.0, family="commuting"))
        assert eigh_positive_definite(p.a)
        assert eigh_positive_definite(p.b)

    def test_deterministic(self):
        spec = GenSpec(dim=3, seed=21, cond_target=10.0, family="commuting")
        p1 = random_commuting_pair(spec)
        p2 = random_commuting_pair(spec)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)

    def test_dim_one(self):
        p = random_commuting_pair(GenSpec(dim=1, seed=2, cond_target=4.0, family="commuting"))
        assert p.a[0, 0].real > 0
        assert p.b[0, 0].real > 0


class TestNearCommutingPair:
    def test_requires_family(self):
        with pytest.raises(InvalidSpec):
            near_commuting_pair(GenSpec(dim=2, seed=1, family="generic"))

    def test_epsilon_zero_exactly_commuting(self):
        spec0 = GenSpec(dim=3, seed=9, cond_target=20.0, family="near_commuting", epsilon=0.0)
        p0 = near_commuting_pair(spec0)
        base = random_commuting_pair(GenSpec(dim=3, seed=9, cond_target=20.0, family="commuting"))
        assert np.array_equal(p0.a, base.a)
        assert np.array_equal(p0.b, base.b)

    def test_small_epsilon_small_gap(self):
        gaps = []
        for eps in (0.0, 1e-3, 1e-1):
            spec = GenSpec(dim=3, seed=15, cond_target=20.0, family="near_commuting", epsilon=eps)
            p = near_commuting_pair(spec)
            assert eigh_positive_definite(p.b)
            gaps.append(commutator_gap(p.a, p.b))
        assert gaps[0] <= 1e-12
        assert gaps[0] < gaps[1] < gaps[2]

    def test_epsilon_half_both_gaps_positive(self):
        from opmeans.verify import pair_gaps

        spec = GenSpec(dim=3, seed=4, cond_target=10.0, family="near_commuting", epsilon=0.5)
        p = near_commuting_pair(spec)
        mg, cg = pair_gaps(p)
        assert mg > 1e-6
        assert cg > 1e-6

    def test_shared_base_across_epsilons(self):
        # A is the same matrix for every epsilon at a fixed seed
        ps = [
            near_commuting_pair(GenSpec(dim=3, seed=31, cond_target=10.0, family="near_commuting", epsilon=e))
            for e in (0.0, 0.25, 0.5)
        ]
        assert np.array_equal(ps[0].a, ps[1].a)
        assert np.array_equal(ps[1].a, ps[2].a)


def drawn_pairs():
    """Generated pairs of every family that carries spectra, n = 1..12."""
    for n in range(1, 13):
        for cond in (10.0, 1e3, 1e6):
            yield random_commuting_pair(GenSpec(dim=n, seed=n, cond_target=cond, family="commuting"))
            for eps in (0.0, 1e-2, 1.0):
                yield near_commuting_pair(
                    GenSpec(dim=n, seed=n, cond_target=cond, family="near_commuting", epsilon=eps))


class TestDrawnSpectra:
    def test_spectra_reconstruct_the_pair(self):
        for p in drawn_pairs():
            s = p.spectra
            for eig, m in ((s.eig_a, p.a), (s.eig_b, p.b)):
                frame, lam = eig.frame, eig.eigenvalues * s.unit
                assert np.all(np.diff(lam) >= 0.0)
                rebuilt = (frame * lam) @ frame.conj().T
                assert frobenius_norm(rebuilt - m) <= 1e-14 * frobenius_norm(m)
                defect = frame.conj().T @ frame - np.eye(p.dim)
                assert frobenius_norm(defect) <= 1e-14
                oracle = np.linalg.eigvalsh(m)
                assert np.max(np.abs(lam - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_perturbed_b_is_exp_of_the_perturbed_log(self):
        # B's carried spectrum is (P, e^mu) for the one decomposition
        # P diag(mu) P* the generator takes of log B0 + eps K
        p = near_commuting_pair(GenSpec(dim=5, seed=8, cond_target=100.0, family="near_commuting", epsilon=0.3))
        s = p.spectra
        frame, values = s.eig_b.frame, s.eig_b.eigenvalues * s.unit
        assert np.array_equal(p.b, _assemble(s.eig_b.frame, values))
        w, v = np.linalg.eigh(p.b)
        log_b = (v * np.log(w)) @ v.conj().T
        mu = np.log(values)
        assert frobenius_norm((frame * mu) @ frame.conj().T - log_b) <= 1e-14 * frobenius_norm(log_b)
