import math
from types import SimpleNamespace

import numpy as np
import pytest

from opmeans import linalg
from opmeans.linalg import (
    DEFAULT_CONFIG,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
    _exponent,
    _gram,
    _isometry,
    _roots,
    _sqrt_from,
)
from opmeans.means import HpdPair, _from_frame
from opmeans.randgen import GenSpec, SplitMix64, mix_seed, random_commuting_pair, random_hpd, _draws
from opmeans.verify import FD_STEP_SCALE, GapObjective, minimize_gap, _hermitian


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


def uniform(rng, lo, hi):
    """A uniform draw in [lo, hi) from a SplitMix64 stream, by its next double."""
    return lo + (hi - lo) * rng.next_double()


def random_invertible(n, seed, cond=50.0):
    """Q1 diag(s) Q2* with singular values spread up to cond."""
    q1 = np.linalg.qr(SplitMix64(mix_seed(seed, 0)).complex_gaussian_matrix(n))[0]
    q2 = np.linalg.qr(SplitMix64(mix_seed(seed, 1)).complex_gaussian_matrix(n))[0]
    half = 0.5 * math.log(cond)
    rng = SplitMix64(mix_seed(seed, 2))
    s = np.array([math.exp(uniform(rng, -half, half)) for _ in range(n)])
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


def polar(t):
    """T = U |T| for invertible T by the lab's one polar route, the one r5
    and lemma-ah take: both factors from the spectrum of the gram T*T.
    Singular when T's smallest singular value is within the positivity floor."""
    t = as_matrix(t)
    eig = hermitian_eigen(_gram(t))
    return SimpleNamespace(isometry=_isometry(t, eig), positive=_sqrt_from(eig))


def sqrt_and_inv_sqrt(h):
    """A^{1/2} and A^{-1/2} of a positive definite A from one spectrum, as
    the geometric mean takes them."""
    return _roots(hermitian_eigen(h))


def gaussians(rng, count):
    """`count` standard normal draws from a SplitMix64 stream: Box-Muller
    pairs, cosine value first; an odd count discards the trailing sine."""
    return _draws([rng], [0], [max(count + 1, 0) // 2])[1][0].ravel()[:count].tolist()


def gap_objective(a, b0=None):
    """The GapObjective of the validated pair (A, B0), or of (A, A) for a
    test that picks its own chart points."""
    return GapObjective(HpdPair.validated(a, a if b0 is None else b0))


def proof_intermediates(p):
    """X, Y, A^{1/2}, B^{1/2} and A^{-1/2} of a pair, read from its spectral
    context, which holds them in A's frame (Q, a), and returned to the
    original frame and the pair's units."""
    q, root_unit = p.eig_a.frame, math.sqrt(p.unit)  # exact: the unit is an even power of two
    sqrt_a, inv_sqrt_a = _roots(p.eig_a)
    return SimpleNamespace(
        x=_from_frame(q, p.x) * p.unit,
        y=q @ p.y @ q.conj().T * p.unit,
        sqrt_a=sqrt_a * root_unit,
        sqrt_b=_from_frame(q, p.sqrt_b) * root_unit,
        inv_sqrt_a=inv_sqrt_a / root_unit,
    )


def commutator_gap(a, b):
    """||AB - BA||_F / (||A||_F ||B||_F) in the original frame, the reference
    for the library's A-frame gap: taken after the exact division of each
    matrix by 2^`_exponent`, so that the gap of (2^j A, 2^k B) is that of
    (A, B), bit for bit."""
    a, b = (m / math.ldexp(1.0, _exponent(m)) for m in (as_matrix(a), as_matrix(b)))
    denom = frobenius_norm(a) * frobenius_norm(b)
    return frobenius_norm(a @ b - b @ a) / denom if denom != 0.0 else 0.0


def gradient_central(obj, r):
    """Central-difference gradient of a GapObjective, as the Hermitian
    matrix G with Re <G, E> the derivative along each direction E, an
    independent check on both the exact gradient and forward differences,
    with the forward differences' step."""
    h = FD_STEP_SCALE * (1.0 + frobenius_norm(r))
    g = np.empty(obj.n * obj.n)
    for k, e in enumerate(np.eye(obj.n * obj.n)):
        step = h * _hermitian(e)
        g[k] = (obj.evaluate(r + step).objective - obj.evaluate(r - step).objective) / (2.0 * h)
    g[obj.n:] /= 2.0  # ||E||_F^2 = 2 off the diagonal
    return _hermitian(g)


def minimize_with_states(a, b0, **kwargs):
    """`minimize_gap` and the chart point R of each iterate. Every point the
    objective evaluates is recorded; an iterate's R is that of the last one,
    before the next iterate's, whose (objective, mean_gap) equals the
    iterate's bit for bit."""
    evaluated = []
    evaluate = GapObjective.evaluate

    def recording(obj, r):
        pt = evaluate(obj, r)
        evaluated.append((pt.r, pt.objective, pt.gap))
        return pt

    GapObjective.evaluate = recording
    try:
        trace = minimize_gap(a, b0, **kwargs)
    finally:
        GapObjective.evaluate = evaluate
    states, end = [], len(evaluated)
    for _, gap, _, f in reversed(trace.iterates):
        end = next(i for i in reversed(range(end)) if evaluated[i][1:] == (f, gap))
        states.append(evaluated[end][0])
    return trace, states[::-1]
