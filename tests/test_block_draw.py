"""A block of generated pairs drawn in one pass against the scalar stream.

`randgen._drawn_pairs` takes the words of every spec of a block in one
uint64 pass over their streams, then one pass of uniforms and one of
Box-Muller pairs (`randgen._draws`). Each spec must get the eigenvalues
and gaussian matrices that `SplitMix64.next_u64`, one word at a time, gives
its seed (`reference_draw`), and each pair must be the one
`near_commuting_pair` draws alone, bit for bit.
"""

import math

import numpy as np
import pytest

from conftest import uniform
from test_randgen import gauss_pair, reference_complex_gaussian_matrix

import opmeans.randgen as randgen
from opmeans.linalg import _assemble
from opmeans.randgen import GenSpec, SplitMix64, near_commuting_pair, random_hpd

MASK64 = (1 << 64) - 1
SIZES = (1, 2, 3, 6, 8)


def mixed_specs(n, seed):
    """Specs of one size over epsilon 0 and above and cond 1, 10 and 1e6;
    six of nine perturbed, so the logarithms' stacked pass stays cyclic and
    gives each member its lone bits."""
    return [GenSpec(dim=n, seed=(seed * 7919 + 31 * i) & MASK64 if i else MASK64 - seed, cond_target=cond,
                    family="near_commuting", epsilon=eps)
            for i, (eps, cond) in enumerate((e, c) for e in (0.0, 1e-3, 0.5) for c in (1.0, 10.0, 1e6))]


def reference_spectrum(rng, n, cond):
    """Eigenvalues as drawn one uniform at a time: endpoints pinned for
    n >= 2, the others uniform in the log chart."""
    half = 0.5 * math.log(cond)
    logs = [-half, half] if n > 1 else []
    logs += [uniform(rng, -half, half) for _ in range(n - len(logs))]
    return np.array([math.exp(x) for x in logs])


def reference_draw(spec):
    """The spec's two spectra, its frame's gaussian matrix and, at epsilon > 0,
    K's, from the scalar stream."""
    rng = SplitMix64(spec.seed)
    lam_a, lam_b = (reference_spectrum(rng, spec.dim, spec.cond_target) for _ in range(2))
    g = [reference_complex_gaussian_matrix(rng, spec.dim) for _ in range(1 + (spec.epsilon > 0.0))]
    return lam_a, lam_b, g


def pair_bits(p):
    return [x.tobytes() for x in (p.a, p.b, p.eig_a.frame, p.eig_a.eigenvalues, p.eig_b.frame, p.eig_b.eigenvalues)]


def test_words_of_many_streams_match_scalar():
    # mixed sizes and counts, 0 among them, and seeds whose state wraps
    seeds = [0, 1 << 63, MASK64, 12345, 7]
    counts = [3, 0, 17, 1, 128]
    rngs, refs = [SplitMix64(s) for s in seeds], [SplitMix64(s) for s in seeds]
    words = randgen._words(rngs, counts).tolist()
    assert words == [r.next_u64() for r, c in zip(refs, counts) for _ in range(c)]
    assert [r.next_u64() for r in rngs] == [r.next_u64() for r in refs]


def test_uniforms_and_pairs_of_many_streams_match_scalar():
    # each stream's uniforms, then its pairs; counts of 0 on either side
    seeds = [MASK64, 0, 1 << 63, 99, 5, 2024]
    uniforms, pairs = [2, 0, 5, 1, 0, 3], [3, 4, 0, 1, 0, 64]
    rngs, refs = [SplitMix64(s) for s in seeds], [SplitMix64(s) for s in seeds]
    got_u, got_p = randgen._draws(rngs, uniforms, pairs)
    for ref, nu, npair, u, p in zip(refs, uniforms, pairs, got_u, got_p):
        assert [x.hex() for x in u] == [ref.next_double().hex() for _ in range(nu)]
        assert p.shape == (npair, 2)
        assert [x.hex() for x in p.ravel().tolist()] == [x.hex() for _ in range(npair) for x in gauss_pair(ref)]
    assert [r.next_u64() for r in rngs] == [r.next_u64() for r in refs]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_draws_the_scalar_stream(seed, monkeypatch):
    # every frame, direction K and spectrum (in the pair's units) that the
    # block draws is the scalar stream's for its spec
    seen = []
    real_frame, real_unit = randgen._orthonormal_frame, randgen._hermitian_unit
    monkeypatch.setattr(randgen, "_orthonormal_frame", lambda g: seen.append(("frame", g.copy())) or real_frame(g))
    monkeypatch.setattr(randgen, "_hermitian_unit", lambda g: seen.append(("k", g.copy())) or real_unit(g))
    for n in SIZES:
        specs = mixed_specs(n, seed)
        seen.clear()
        pairs = randgen._drawn_pairs(specs)
        want = []
        for spec, pair in zip(specs, pairs):
            lam_a, lam_b, g = reference_draw(spec)
            want += [("frame", g[0]), *(("k", k) for k in g[1:])]
            q = real_frame(g[0])
            assert pair.a.tobytes() == _assemble(q, lam_a).tobytes()
            assert pair.eig_a.eigenvalues.tobytes() == (np.sort(lam_a, kind="stable") / pair.unit).tobytes()
            if spec.epsilon == 0.0:
                assert pair.b.tobytes() == _assemble(q, lam_b).tobytes()
                assert pair.eig_b.eigenvalues.tobytes() == (np.sort(lam_b, kind="stable") / pair.unit).tobytes()
        assert [kind for kind, _ in seen] == [kind for kind, _ in want]
        assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(seen, want)), n


@pytest.mark.parametrize("n", SIZES)
def test_random_hpd_draws_the_scalar_stream(n):
    # the one-seed draw: a spectrum, then the frame's gaussian matrix
    for cond in (1.0, 10.0, 1e6):
        for seed in (0, 17, MASK64):
            m, eig = random_hpd(GenSpec(dim=n, seed=seed, cond_target=cond), with_spectrum=True)
            rng = SplitMix64(seed)
            lam = reference_spectrum(rng, n, cond)
            q = randgen._orthonormal_frame(reference_complex_gaussian_matrix(rng, n))
            assert m.tobytes() == _assemble(q, lam).tobytes()
            assert eig.eigenvalues.tobytes() == np.sort(lam, kind="stable").tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_pairs_are_the_lone_pairs(seed):
    for n in SIZES:
        specs = mixed_specs(n, seed)
        block = randgen._drawn_pairs(specs)
        assert [pair_bits(p) for p in block] == [pair_bits(near_commuting_pair(s)) for s in specs], n
