import math

import numpy as np
import pytest

from opmeans import linalg
from opmeans.linalg import DEFAULT_CONFIG
from opmeans.means import HpdPair
from opmeans.randgen import GenSpec, SplitMix64, mix_seed, random_commuting_pair, random_hpd


@pytest.fixture
def cfg():
    return DEFAULT_CONFIG


def hpd(n, seed, cond=10.0):
    return random_hpd(GenSpec(dim=n, seed=seed, cond_target=cond))


def random_pair(n, seed, cond=10.0):
    """Generic pair with independent frames."""
    a = hpd(n, mix_seed(seed, 0), cond)
    b = hpd(n, mix_seed(seed, 1), cond)
    return HpdPair(a=a, b=b)


def commuting_pair(n, seed, cond=10.0):
    return random_commuting_pair(GenSpec(dim=n, seed=seed, cond_target=cond, family="commuting"))


def mat(rows):
    return np.array(rows, dtype=np.complex128)


def random_hermitian(n, seed, scale=1.0):
    rng = SplitMix64(seed)
    g = rng.complex_gaussian_matrix(n)
    return scale * (g + g.conj().T) / 2.0


def random_invertible(n, seed, cond=50.0):
    """Q1 diag(s) Q2* with singular values spread up to cond."""
    q1 = np.linalg.qr(SplitMix64(mix_seed(seed, 0)).complex_gaussian_matrix(n))[0]
    q2 = np.linalg.qr(SplitMix64(mix_seed(seed, 1)).complex_gaussian_matrix(n))[0]
    half = 0.5 * math.log(cond)
    rng = SplitMix64(mix_seed(seed, 2))
    s = np.array([math.exp(rng.uniform(-half, half)) for _ in range(n)])
    return q1 @ np.diag(s).astype(complex) @ q2.conj().T


def svd_abs(t):
    """|T| = V diag(s) V* from np.linalg.svd, the test oracle."""
    _, s, vh = np.linalg.svd(t)
    return (vh.conj().T * s) @ vh


def eigh_positive_definite(h):
    """Whether the smallest eigenvalue from np.linalg.eigvalsh clears the
    library's relative positivity floor."""
    w = np.linalg.eigvalsh(h)
    return w[0] > linalg.POSITIVITY_FLOOR * np.abs(w).max()
