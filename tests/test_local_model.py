"""The local model of the mean gap near a commuting pair, as an oracle.

Take A = diag(a) and B = diag(b) + tE with E Hermitian, and write
alpha = sqrt(a), beta = sqrt(b). To first order in t, by the
Daleckii-Krein formula for the square roots (Bhatia, Matrix Analysis,
ch. V), H - W = (t/4) D o E with

  D_ij = (alpha_i - alpha_j)(alpha_j beta_i - alpha_i beta_j)
         / ((beta_i + beta_j)(alpha_i beta_i + alpha_j beta_j)).

D_ij vanishes where a_i = a_j or at a ratio tie, b_i / a_i = b_j / a_j,
where the commutator's entry (a_i - a_j) t E_ij does not.
"""

import numpy as np
import pytest

from conftest import SplitMix64

from opmeans.means import HpdPair, heron_mean, wasserstein_mean

# eigenvalues with distinct entries and distinct ratios b_i / a_i
A_VALUES = np.array([1.0, 2.0, 4.0, 8.0])
B_VALUES = np.array([3.0, 1.0, 5.0, 2.0])


def local_model(a, b):
    """D of the local model, from the spectra of A and B."""
    al, be = np.sqrt(a), np.sqrt(b)
    return ((al[:, None] - al) * (al * be[:, None] - al[:, None] * be)
            / ((be[:, None] + be) * (al[:, None] * be[:, None] + al * be)))


def direction(n, seed):
    """A Hermitian E of unit Frobenius norm."""
    g = SplitMix64(seed).complex_gaussian_matrix(n)
    e = (g + g.conj().T) / 2.0
    return e / np.linalg.norm(e)


def mean_difference(a, b, t, e):
    """H - W of (diag(a), diag(b) + tE) from the two means the lab returns."""
    p = HpdPair.validated(np.diag(a).astype(complex), np.diag(b) + t * e)
    return heron_mean(p) - wasserstein_mean(p)


@pytest.mark.parametrize("t", [1e-3, 1e-5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gap_follows_the_local_model(n, t):
    # the model's error is second order: 0.28 t to 0.64 t relative to
    # (t/4) D o E on these draws, at both t, so roundoff plays no part
    a, b = A_VALUES[:n], B_VALUES[:n]
    for seed in range(4):
        e = direction(n, seed)
        model = t / 4.0 * local_model(a, b) * e
        err = np.linalg.norm(mean_difference(a, b, t, e) - model) / np.linalg.norm(model)
        assert err <= 10.0 * t, seed


def test_model_vanishes_at_a_ratio_tie():
    # b_0 / a_0 = b_1 / a_1 = 2: D_01 is zero, so the gap's (0, 1) entry is
    # second order in t, while the entries off the tie are first order
    a, b = np.array([1.0, 4.0, 9.0]), np.array([2.0, 8.0, 5.0])
    d = local_model(a, b)
    assert d[0, 1] == 0.0 and d[1, 0] == 0.0
    assert np.all(np.abs(d[[0, 1], [2, 2]]) > 0.05)
    e = direction(3, 5)
    for t in (1e-2, 1e-3, 1e-4):
        diff = mean_difference(a, b, t, e)
        assert abs(diff[0, 1]) <= 0.01 * t * t, t
        assert abs(diff[0, 2]) >= 0.01 * t and abs(diff[1, 2]) >= 0.001 * t, t
