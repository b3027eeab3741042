"""Identities the means satisfy by theory, as property tests.

Pairs are drawn from the seeded generators, n <= 6 and each condition
number up to 1e4, and every tolerance is relative and scales with the
larger of the two. At 400 random draws the largest errors were 48 u cond
(congruence of the geometric mean), 29 u cond (the Riccati equation), at
most 8 u cond elsewhere, and a trace gap of -3.8 u cond tr X on commuting
pairs, with u = 2^-52; the bounds below sit 10 to 26 times above those.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import SplitMix64, mix_seed, proof_intermediates

from opmeans.means import HpdPair, geometric_mean, heron_mean, wasserstein_mean
from opmeans.randgen import GenSpec, near_commuting_pair, random_hpd
from opmeans.verify import proof_chain_report

U = 2.0**-52
MEAN_TOL = 500.0 * U
TRACE_TOL = 100.0 * U

derandomized = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def pairs(draw):
    """(A, B, cond): a generic pair with independent frames and spectra."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**64 - 1))
    cond_a, cond_b = (10.0 ** draw(st.floats(0.0, 4.0)) for _ in range(2))
    a, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(seed, 0), cond_target=cond_a))
    b, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(seed, 1), cond_target=cond_b))
    return a, b, max(cond_a, cond_b)


@st.composite
def commuting_pairs(draw):
    """(A, B, cond): a shared-frame pair, built from its bare matrices."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**64 - 1))
    cond = 10.0 ** draw(st.floats(0.0, 4.0))
    p = near_commuting_pair(GenSpec(dim=n, seed=seed, cond_target=cond))
    return p.a, p.b, cond


def relative(m, ref):
    return np.linalg.norm(m - ref) / np.linalg.norm(ref)


@derandomized
@given(pairs())
def test_heron_and_wasserstein_are_symmetric(drawn):
    a, b, cond = drawn
    for mean in (heron_mean, wasserstein_mean):
        assert relative(mean(HpdPair(a=b, b=a)), mean(HpdPair(a=a, b=b))) <= MEAN_TOL * cond


@derandomized
@given(pairs(), st.integers(0, 2**64 - 1))
def test_means_respect_unitary_congruence(drawn, seed):
    a, b, cond = drawn
    u = np.linalg.qr(SplitMix64(seed).complex_gaussian_matrix(a.shape[0]))[0]
    moved = HpdPair(a=u @ a @ u.conj().T, b=u @ b @ u.conj().T)
    for mean in (heron_mean, wasserstein_mean, geometric_mean):
        expected = u @ mean(HpdPair(a=a, b=b)) @ u.conj().T
        assert relative(mean(moved), expected) <= MEAN_TOL * cond


@derandomized
@given(pairs())
def test_geometric_mean_solves_riccati(drawn):
    # G = A # B is the positive solution of G A^{-1} G = B
    a, b, cond = drawn
    g = geometric_mean(HpdPair(a=a, b=b))
    assert relative(g @ np.linalg.solve(a, g), b) <= MEAN_TOL * cond


@derandomized
@given(st.one_of(pairs(), commuting_pairs()))
def test_trace_gap_is_nonnegative(drawn):
    # tr X - tr(A^{1/2} B^{1/2}) = tr|Y| - tr Y >= 0, with equality on
    # commuting pairs, where only roundoff is left
    a, b, cond = drawn
    p = HpdPair(a=a, b=b)
    gap = p.trace_gap
    assert gap >= -TRACE_TOL * cond * np.trace(proof_intermediates(p).x).real


@derandomized
@given(pairs(), st.integers(-200, 200))
def test_even_power_of_two_scaling_is_exact(drawn, half):
    # (2^j A, 2^j B) for even j lands on the same scaled pair as (A, B);
    # an odd j does not, since 2^{j/2} is then not a power of two
    a, b, _ = drawn
    c = 2.0 ** (2 * half)
    p, scaled = HpdPair(a=a, b=b), HpdPair(a=a * c, b=b * c)
    ref, rep = proof_chain_report(p), proof_chain_report(scaled)
    assert rep.residuals == ref.residuals
    assert (rep.mean_gap, rep.commutator_gap, rep.trace_gap) == (
        ref.mean_gap, ref.commutator_gap, ref.trace_gap * c)
    for mean in (heron_mean, wasserstein_mean, geometric_mean):
        assert np.array_equal(mean(scaled), mean(p) * c)


@derandomized
@given(pairs(), st.integers(-200, 199))
def test_odd_power_of_two_scaling_holds_to_roundoff(drawn, half):
    # the scaled pair differs from (A, B)'s by a factor 2, so square roots
    # round differently and only the means' homogeneity is left to check
    a, b, cond = drawn
    c = 2.0 ** (2 * half + 1)
    p, scaled = HpdPair(a=a, b=b), HpdPair(a=a * c, b=b * c)
    for mean in (heron_mean, wasserstein_mean, geometric_mean):
        assert relative(mean(scaled) / c, mean(p)) <= MEAN_TOL * cond
