"""A block of generated pairs drawn in one pass against the scalar stream,
and the block's stacked arithmetic against its lone calls.

`randgen._drawn_pairs` takes the words of every seed of a block, one size
and one condition target, in one uint64 pass over their streams, then one
pass of uniforms and one of Box-Muller pairs (`randgen._draws`). Each seed
must get the eigenvalues and gaussian matrices that the scalar
`conftest.SplitMix64`, one word at a time, gives it (`reference_draw`),
and each pair must be the one `near_commuting_pair` draws alone, bit for
bit. The block then builds its frames, directions and matrices, and
`means._take_cores` its pairs' terms, as stacks (k, n, n): each helper's
stack form must give every member the bytes of the helper's lone call.
"""

import math

import numpy as np
import pytest

from conftest import SplitMix64, uniform

import opmeans.means as means
import opmeans.randgen as randgen
from opmeans.linalg import HermitianEigen, NumericalError, _assemble, _exp_values, _sqrt_from, _sqrt_values
from opmeans.randgen import GenSpec, near_commuting_pair, random_hpd

MASK64 = (1 << 64) - 1
SIZES = (1, 2, 3, 6, 8)


def mixed_draws(n, seed):
    """One block (cond, seeds, epsilons) of size n per cond 1, 10 and 1e6,
    each over epsilon 0, 1e-3 and 0.5; two of three perturbed, so the
    logarithms' stacked pass stays cyclic and gives each member its lone
    bits."""
    epsilons = [0.0, 1e-3, 0.5]
    return [(cond, [(seed * 7919 + 31 * i) & MASK64 if i else MASK64 - seed for i in range(c, 9, 3)], epsilons)
            for c, cond in enumerate((1.0, 10.0, 1e6))]


def reference_spectrum(rng, n, cond):
    """Eigenvalues as drawn one uniform at a time: endpoints pinned for
    n >= 2, the others uniform in the log chart."""
    half = 0.5 * math.log(cond)
    logs = [-half, half] if n > 1 else []
    logs += [uniform(rng, -half, half) for _ in range(n - len(logs))]
    return np.array([math.exp(x) for x in logs])


def reference_draw(n, cond, seed, epsilon):
    """The seed's two spectra, its frame's gaussian matrix and, at epsilon > 0,
    K's, from the scalar stream."""
    rng = SplitMix64(seed)
    lam_a, lam_b = (reference_spectrum(rng, n, cond) for _ in range(2))
    g = [rng.complex_gaussian_matrix(n) for _ in range(1 + (epsilon > 0.0))]
    return lam_a, lam_b, g


def pair_bits(p):
    return [x.tobytes() for x in (p.a, p.b, p.eig_a.frame, p.eig_a.eigenvalues, p.eig_b.frame, p.eig_b.eigenvalues)]


def test_words_of_many_streams_match_scalar():
    # mixed sizes and counts, 0 among them, and seeds whose state wraps
    seeds = [0, 1 << 63, MASK64, 12345, 7]
    counts = [3, 0, 17, 1, 128]
    refs = [SplitMix64(s) for s in seeds]
    words = randgen._words(seeds, counts).tolist()
    assert words == [r.next_u64() for r, c in zip(refs, counts) for _ in range(c)]


def test_uniforms_and_pairs_of_many_streams_match_scalar():
    # each stream's uniforms, then its pairs; counts of 0 on either side
    seeds = [MASK64, 0, 1 << 63, 99, 5, 2024]
    uniforms, pairs = [2, 0, 5, 1, 0, 3], [3, 4, 0, 1, 0, 64]
    got_u, got_p = randgen._draws(seeds, uniforms, pairs)
    for seed, nu, npair, u, p in zip(seeds, uniforms, pairs, got_u, got_p):
        ref = SplitMix64(seed)
        assert [x.hex() for x in u] == [ref.next_double().hex() for _ in range(nu)]
        assert p.shape == (npair, 2)
        assert [x.hex() for x in p.ravel().tolist()] == [x.hex() for _ in range(npair) for x in ref.gauss_pair()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_draws_the_scalar_stream(seed, monkeypatch):
    # every frame's gaussian matrix, direction K's and spectrum (in the
    # pair's units) that the block draws is the scalar stream's for its
    # seed: the frames go to one stacked Gram-Schmidt, then the perturbed
    # seeds' directions to one stacked `_hermitian_unit`
    seen = []
    real_frame, real_unit = randgen._orthonormal_frame, randgen._hermitian_unit
    monkeypatch.setattr(randgen, "_orthonormal_frame", lambda g: seen.append(("frame", g.copy())) or real_frame(g))
    monkeypatch.setattr(randgen, "_hermitian_unit", lambda g: seen.append(("k", g.copy())) or real_unit(g))
    for n, (cond, seeds, epsilons) in ((n, d) for n in SIZES for d in mixed_draws(n, seed)):
        seen.clear()
        pairs = randgen._drawn_pairs(n, cond, seeds, epsilons)
        frames, ks = [], []
        for s, eps, pair in zip(seeds, epsilons, pairs):
            lam_a, lam_b, g = reference_draw(n, cond, s, eps)
            frames.append(g[0])
            ks += g[1:]
            q = real_frame(g[0])
            assert pair.a.tobytes() == _assemble(q, lam_a).tobytes()
            assert pair.eig_a.eigenvalues.tobytes() == (np.sort(lam_a, kind="stable") / pair.unit).tobytes()
            if eps == 0.0:
                assert pair.b.tobytes() == _assemble(q, lam_b).tobytes()
                assert pair.eig_b.eigenvalues.tobytes() == (np.sort(lam_b, kind="stable") / pair.unit).tobytes()
        assert [kind for kind, _ in seen] == ["frame", "k"]
        assert seen[0][1].tobytes() == np.stack(frames).tobytes(), (n, cond)
        assert seen[1][1].tobytes() == np.stack(ks).tobytes(), (n, cond)


@pytest.mark.parametrize("n", SIZES)
def test_random_hpd_draws_the_scalar_stream(n):
    # the one-seed draw: a spectrum, then the frame's gaussian matrix
    for cond in (1.0, 10.0, 1e6):
        for seed in (0, 17, MASK64):
            m, eig = random_hpd(GenSpec(dim=n, seed=seed, cond_target=cond))
            rng = SplitMix64(seed)
            lam = reference_spectrum(rng, n, cond)
            q = randgen._orthonormal_frame(rng.complex_gaussian_matrix(n))
            assert m.tobytes() == _assemble(q, lam).tobytes()
            assert eig.eigenvalues.tobytes() == np.sort(lam, kind="stable").tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_pairs_are_the_lone_pairs(seed):
    for n, (cond, seeds, epsilons) in ((n, d) for n in SIZES for d in mixed_draws(n, seed)):
        block = randgen._drawn_pairs(n, cond, seeds, epsilons)
        lone = [near_commuting_pair(GenSpec(dim=n, seed=s, cond_target=cond), eps) for s, eps in zip(seeds, epsilons)]
        assert [pair_bits(p) for p in block] == [pair_bits(p) for p in lone], (n, cond)


def gaussian_stack(n, k, seed=0):
    """k complex gaussian matrices of size n, as the generators draw them."""
    _, g = randgen._draws([(seed * 7919 + i) & MASK64 for i in range(k)], [0] * k, [n * n] * k)
    return np.stack([x.view(complex).reshape(n, n) for x in g])


@pytest.mark.parametrize("n", [*range(1, 14), 24])
def test_stacked_frames_are_the_lone_frames(n):
    # one stacked Gram-Schmidt gives each member the bytes of its lone call:
    # each member's dot products run on its own strided columns
    g = gaussian_stack(n, 33, seed=n)
    lone = [randgen._orthonormal_frame(m) for m in g]
    for k in (1, 2, 7, 24, 33):
        q = randgen._orthonormal_frame(g[:k])
        assert q.shape == (k, n, n)
        assert [m.tobytes() for m in q] == [m.tobytes() for m in lone[:k]], k


@pytest.mark.parametrize("n, column", [(1, 0), (3, 0), (4, 2), (6, 5)])
def test_collapsed_column_is_its_own_specs_error(n, column, monkeypatch):
    # a stack with a member whose column collapses raises; in a block, that
    # member's seed alone gets the error, and the others their lone pairs
    g = gaussian_stack(n, 5, seed=n)
    g[3, :, column] = 0.0
    with pytest.raises(NumericalError, match="^gaussian frame column collapsed to zero$"):
        randgen._orthonormal_frame(g)
    epsilons = [0.0, 0.1, 0.0, 0.1, 0.3]
    lone = [near_commuting_pair(GenSpec(dim=n, seed=seed), eps) for seed, eps in enumerate(epsilons)]
    draws = randgen._draws

    def collapsed(seeds, uniforms, pairs):
        # seed 3's frame, whichever block draws it
        u, z = draws(seeds, uniforms, pairs)
        for i in (i for i, seed in enumerate(seeds) if seed == 3):
            z[i] = z[i].copy()
            z[i][: n * n].view(complex).reshape(n, n)[:, column] = 0.0
        return u, z

    monkeypatch.setattr(randgen, "_draws", collapsed)
    block = randgen._drawn_pairs(n, 10.0, list(range(5)), epsilons)
    assert isinstance(block[3], NumericalError) and str(block[3]) == "gaussian frame column collapsed to zero"
    assert [pair_bits(p) for p in block[:3] + block[4:]] == [pair_bits(p) for p in lone[:3] + lone[4:]]


def block_pairs(n, k=24):
    """A sweep-like block: the pairs of k seeds at cond 10 over six epsilons."""
    epsilons = [(0.0, 0.01, 0.0316, 0.1, 0.316, 1.0)[i % 6] for i in range(k)]
    return randgen._drawn_pairs(n, 10.0, [(n << 20) + i for i in range(k)], epsilons)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 13])
def test_helpers_stack_forms_are_their_lone_forms(n):
    # each helper the block runs on a stack gives every member the bytes of
    # its lone call
    pairs = block_pairs(n)
    for p in pairs:
        p.core  # the lone terms, cached
    lam = np.stack([p.eig_a.eigenvalues for p in pairs])
    qa, qb, b_u = (np.stack(x) for x in zip(*((p.eig_a.frame, p.eig_b.frame, p.b_u) for p in pairs)))
    lam_b = np.stack([p.eig_b.eigenvalues for p in pairs])
    qh = qa.conj().swapaxes(-1, -2)
    stacked = {
        "root_a": np.sqrt(lam),
        "weights": np.stack(means._weights(lam, np.sqrt(lam)), axis=1),
        "b_t": means._from_frame(qh, b_u),
        "sqrt_b": _assemble(qh @ qb, _sqrt_values(lam_b)),
        "a": _assemble(qa, lam * np.stack([p.unit for p in pairs])[:, None]),
    }
    stacked["core"] = means._graded(stacked["weights"][:, 2], stacked["b_t"])
    core_eigs = [p.core[0] for p in pairs]
    stacked["x"] = _sqrt_from(HermitianEigen(np.stack([e.frame for e in core_eigs]),
                                             np.stack([e.eigenvalues for e in core_eigs])))
    stacked["exp"] = _exp_values(np.log(lam_b))
    for i, p in enumerate(pairs):
        lone = {"root_a": p.root_a, "weights": np.stack(p.weights), "b_t": p.b_t, "sqrt_b": p.sqrt_b,
                "a": _assemble(p.eig_a.frame, p.eig_a.eigenvalues * p.unit),
                "core": means._graded(p.weights[2], p.b_t), "x": p.x, "exp": _exp_values(np.log(p.eig_b.eigenvalues))}
        assert {name: value[i].tobytes() for name, value in stacked.items()} == {
            name: value.tobytes() for name, value in lone.items()}, (n, i)
    g = gaussian_stack(n, 24, seed=n)
    assert [m.tobytes() for m in randgen._hermitian_unit(g)] == [randgen._hermitian_unit(m).tobytes() for m in g]


@pytest.mark.parametrize("n", [1, 3, 4, 6, 12])
def test_core_pass_fills_the_lone_terms(n):
    # the pass fills root_a, the weights, B~, B^{1/2}~, the core and X~ of
    # each pair with the bytes that pair computes alone from the same spectra
    pairs = block_pairs(n)
    twins = [means.HpdPair(p.a, p.b, [HermitianEigen(e.frame, e.eigenvalues * p.unit) for e in (p.eig_a, p.eig_b)])
             for p in pairs]
    assert means._take_cores(pairs) == []
    for p, twin in zip(pairs, twins):
        assert {"root_a", "weights", "b_t", "sqrt_b", "core"} <= set(p.__dict__)
        eig = p.core[0]
        twin.core = eig, _sqrt_from(eig)  # the pass's spectrum, with X~ taken alone
        for name in ("root_a", "b_t", "sqrt_b", "x"):
            assert getattr(p, name).tobytes() == getattr(twin, name).tobytes(), name
        assert [w.tobytes() for w in p.weights] == [w.tobytes() for w in twin.weights]
        assert (p.mean_gap, p.commutator_gap, p.trace_gap) == (twin.mean_gap, twin.commutator_gap, twin.trace_gap)
