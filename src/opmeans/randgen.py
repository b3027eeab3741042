"""Deterministic random-instance generation.

The whole pipeline is pinned down so that a fixed seed reproduces matrices
bit for bit, across machines and reruns:

  * stream: splitmix64 (64-bit additive state walk from the seed, plus
    finalizer). A seed's stream is drawn once, from its start; the words
    of all the seeds of a request come in one numpy uint64 pass (`_words`),
    whose wrap modulo 2^64 is the walk's mask;
  * uniforms: top 53 bits of each 64-bit word, so u = (word >> 11) * 2^-53
    lies in [0, 1);
  * gaussians: Box-Muller pairs, cosine value first, sine value second;
    the radius uses ((word >> 11) + 1) * 2^-53 in (0, 1] so the log is
    finite. log, cos and sin are `math`'s per element, since numpy's
    SIMD transcendentals are not libm's. Nothing is buffered across calls;
  * complex gaussians: one Box-Muller pair per entry, real part first,
    entries in row-major order;
  * unitary frames: modified Gram-Schmidt (two passes) applied to a
    complex gaussian matrix, or to a stack of them at once. The
    triangular factor's diagonal comes out real and positive, which pins
    the phase of every column. Columns stay strided views, and a stack's
    dot products stay each member's own np.vdot on its own column views:
    np.vdot on Fortran-ordered or stacked columns moves last bits;
  * HPD matrices: frame @ diag(eigenvalues) @ frame*. Eigenvalues sit in
    [1/sqrt(c), sqrt(c)] for condition target c: the endpoints are placed
    deterministically (so the realized condition number is c) and the
    remaining n - 2 values are drawn log-uniformly in between;
  * near-commuting pairs: B = exp(log B0 + epsilon K), with log B0 =
    Q diag(log lambda_B) Q* built from B0's own frame and eigenvalues.
    Taking log B0 by an eigendecomposition of B0 instead gives B in other
    last bits. K is drawn only at epsilon > 0, after the commuting pair,
    so every epsilon at one seed shares (A, B0, K), and epsilon = 0 is the
    commuting pair. The one eigendecomposition of log B0 + epsilon K
    starts from B0's sorted drawn frame, which diagonalizes it to
    O(epsilon);
  * a generated pair is built with the spectra it was drawn from, sorted
    ascending, as its `HpdPair`'s known spectra, so it decomposes neither
    A nor B, and `random_hpd` returns its drawn spectrum too; `gen`
    writes the frames of these spectra into its files. The matrices are
    assembled in the drawn order, so the sort moves no bit;
  * a block of specs (`_drawn_pairs`) is one stack (k, n, n) from its
    frames to its matrices, each step of which gives a member the bits
    of its lone call.

Per-trial seeds for batch runs come from `_trial_seeds`, in one pass: trial
i's is the first word of the stream at master XOR ((i + 1) * golden).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linalg import (
    DomainError,
    HermitianEigen,
    NumericalError,
    hermitian_eigen,
    _assemble,
    _each,
    _exp_values,
)
from .means import HpdPair

__all__ = [
    "InvalidSpec",
    "GenSpec",
    "random_hpd",
    "near_commuting_pair",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class InvalidSpec(ValueError):
    """Generation spec violates its invariants."""


def _words(seeds: list[int], counts: list[int]) -> np.ndarray:
    """The first counts[i] words of the stream of each seeds[i] in turn, in one
    uint64 pass: word j is the finalizer of seed + (j + 1) golden, mod 2^64."""
    starts = [0, *accumulate(counts)]  # the pass's word starts[i] + j is stream i's word j
    bases = [(seed + (1 - start) * GOLDEN) & MASK64 for seed, start in zip(seeds, starts)]
    z = np.arange(starts[-1], dtype=np.uint64) * np.uint64(GOLDEN) + np.array(bases, np.uint64).repeat(counts)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _draws(seeds: list[int], uniforms: list[int], pairs: list[int]) -> tuple[list, list]:
    """The first uniforms[i] uniforms, as floats, then the next pairs[i]
    Box-Muller pairs, as rows (cosine, sine), of the stream of each seeds[i]:
    one word pass over all the streams, one pass of uniforms and one of pairs."""
    top = (_words(seeds, [u + 2 * p for u, p in zip(uniforms, pairs)]) >> np.uint64(11)).astype(np.float64)
    is_u = np.repeat([True, False] * len(seeds), [c for u, p in zip(uniforms, pairs) for c in (u, 2 * p)])
    u, g = (top[is_u] * 2.0**-53).tolist(), top[~is_u]
    rad = np.sqrt(-2.0 * np.fromiter(map(math.log, ((g[0::2] + 1.0) * 2.0**-53).tolist()), np.float64, len(g) // 2))
    ang = ((2.0 * math.pi) * (g[1::2] * 2.0**-53)).tolist()
    cos, sin = (np.fromiter(map(f, ang), np.float64, len(ang)) for f in (math.cos, math.sin))
    z = np.column_stack((rad * cos, rad * sin))
    return ([u[e - c : e] for e, c in zip(accumulate(uniforms), uniforms)],
            [z[e - c : e] for e, c in zip(accumulate(pairs), pairs)])


def _trial_seeds(master: int, count: int) -> list[int]:
    """The seeds of trials 0 to count - 1: trial i's is word 0 of the stream at master XOR ((i + 1) golden)."""
    return _words([(master ^ ((i + 1) * GOLDEN)) & MASK64 for i in range(count)], [1] * count).tolist()


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random draw.

    dim          matrix size, an int >= 1 (not a bool)
    seed         64-bit unsigned seed, an int (not a bool)
    cond_target  ratio of largest to smallest eigenvalue, >= 1, finite
    """

    dim: int
    seed: int
    cond_target: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise InvalidSpec(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= MASK64:
            raise InvalidSpec(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not self.cond_target >= 1.0:
            raise InvalidSpec(f"cond_target must be >= 1, got {self.cond_target!r}")
        if self.cond_target == math.inf:
            raise InvalidSpec("cond_target must be finite, got inf")


def _orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass per column,
    of a matrix or of each member of a stack (k, n, n) at once, or
    NumericalError where a column collapses. Each dot product is its
    member's own np.vdot, on that member's strided column; each update
    v - d q_i is one numpy operation for the whole stack, whose d is a
    scalar where there is one member, as in a lone matrix's loop."""
    q = g.astype(np.complex128, copy=True)
    n = q.shape[-1]
    members = q.reshape(-1, n, n)
    one = len(members) == 1
    work = members[0] if one else q  # a view of q: one member runs as a plain matrix
    cols = [[m[:, i] for m in members] for i in range(n)]  # views: they see each column as it is set
    for j in range(n):
        v = work[..., j]
        for _pass in range(2):
            for i in range(j):
                if one:
                    d = np.vdot(cols[i][0], v)
                else:
                    d = np.array([np.vdot(c, w) for c, w in zip(cols[i], v)])[:, None]
                v = v - d * work[..., i]
        norms = [math.sqrt(np.vdot(w, w).real) for w in ([v] if one else v)]
        if 0.0 in norms:
            raise NumericalError("gaussian frame column collapsed to zero")
        work[..., j] = v / (norms[0] if one else np.array(norms)[:, None])
    return q


def _eigenvalue_draw(n: int, cond: float, u: list[float]) -> list[float]:
    """Eigenvalues in [1/sqrt(cond), sqrt(cond)], endpoints pinned for n >= 2, the rest log-uniform at u."""
    half = 0.5 * math.log(cond)
    logs = ([-half, half] if n > 1 else []) + [-half + (half - -half) * x for x in u]
    return [math.exp(x) for x in logs]


def _hermitian_unit(g: np.ndarray) -> np.ndarray:
    """The Hermitian direction of a gaussian matrix, with unit Frobenius norm,
    or of each member of a stack (k, n, n)."""
    k = (g + g.conj().swapaxes(-1, -2)) / 2.0
    norms = [math.sqrt(np.vdot(m, m).real) for m in k.reshape(-1, *k.shape[-2:])]
    if 0.0 in norms:
        raise NumericalError("hermitian direction collapsed to zero")
    return k / np.reshape(norms, (*k.shape[:-2], 1, 1))


def _drawn_spectra(q: np.ndarray, lam: np.ndarray) -> list[HermitianEigen]:
    """Per member of a stack of frames (k, n, n) and values (k, n): the drawn
    values sorted ascending, with Q's columns permuted to match."""
    order = np.argsort(lam, axis=-1, kind="stable")
    member = np.arange(len(lam))[:, None]
    return list(map(HermitianEigen, q[member[:, None], np.arange(q.shape[-1])[:, None], order[:, None]],
                    lam[member, order]))


def random_hpd(spec: GenSpec) -> tuple[np.ndarray, HermitianEigen]:
    """One Hermitian positive-definite matrix from the given spec, and the
    spectrum it was drawn from."""
    n = spec.dim
    (u,), (g,) = _draws([spec.seed], [abs(n - 2)], [n**2])
    lam = np.array(_eigenvalue_draw(n, spec.cond_target, u))
    q = _orthonormal_frame(g.view(np.complex128).reshape(n, n))
    return _assemble(q, lam), _drawn_spectra(q[None], lam[None])[0]


def near_commuting_pair(spec: GenSpec, epsilon: float = 0.0) -> HpdPair:
    """Commuting pair (A, B0), a shared random eigenframe with independent
    eigenvalues, with B0 perturbed by epsilon (>= 0, finite) in its log chart.

    B becomes exp(log(B0) + epsilon * K) for a seeded unit-norm Hermitian
    direction K, so positivity is structural: the pair `_drawn_pairs`
    builds for a block of this one draw. epsilon = 0 returns the commuting
    pair itself, with no log/exp round trip and no K drawn. An eigenvalue
    whose exponential overflows, or a B with an entry past the double
    range, raises DomainError.
    """
    if not epsilon >= 0.0:
        raise InvalidSpec(f"epsilon must be >= 0, got {epsilon!r}")
    if epsilon == math.inf:
        raise InvalidSpec("epsilon must be finite, got inf")
    (pair,) = _drawn_pairs([spec], [epsilon])
    if isinstance(pair, NumericalError):
        raise pair
    return pair


def _drawn_pairs(specs: list[GenSpec], epsilons: list[float]) -> list:
    """The pair of each spec at its entry of epsilons, commuting at 0 and
    near-commuting above, or the NumericalError raised in its place: the one
    builder of every generated pair but `random_hpd`'s. The specs share one size.

    A spec draws lambda_A, lambda_B and Q, then K at epsilon > 0 only, all
    specs at once (`_draws`), and the block is built as one stack: its
    frames, directions, the sort of its spectra and A, B0 and the
    logarithms log B0 + epsilon K = P diag(mu) P*, each in (k, n, n)
    operations that give each member the bits of its lone ones. Where a
    frame or a direction collapses, which no seed is known to draw, the
    block is built spec by spec. At epsilon = 0 the pair is (A, B0) with
    their drawn spectra. Above, the logarithms are decomposed in one
    stacked pass, each started from B0's sorted drawn frame, and
    B = P diag(e^mu) P* carries (P, e^mu); where that pass raises, each
    logarithm is taken alone, and where e^mu or B leaves the double range,
    that spec's error stands for its pair.
    """
    n, k = specs[0].dim, len(specs)
    free, bent = abs(n - 2), [i for i, e in enumerate(epsilons) if e > 0.0]
    uniforms, gauss = _draws([s.seed for s in specs], [2 * free] * k, [(1 + (e > 0.0)) * n * n for e in epsilons])
    g = [x.view(np.complex128).reshape(-1, n, n) for x in gauss]
    try:
        q = _orthonormal_frame(np.stack([x[0] for x in g]))
        unit = _hermitian_unit(np.stack([g[i][1] for i in bent])) if bent else None
    except NumericalError as exc:
        return [exc] if k == 1 else [p for s, e in zip(specs, epsilons) for p in _drawn_pairs([s], [e])]
    lam = np.array([_eigenvalue_draw(n, s.cond_target, x) for s, u in zip(specs, uniforms)
                    for x in (u[:free], u[free:])]).reshape(k, 2, n)
    a, eig_a, eig_b0 = _assemble(q, lam[:, 0]), _drawn_spectra(q, lam[:, 0]), _drawn_spectra(q, lam[:, 1])
    pairs = [None] * k
    flat = [i for i, e in enumerate(epsilons) if e == 0.0]
    for i, b in zip(flat, _assemble(q[flat], lam[flat, 1])):
        pairs[i] = HpdPair(a[i], b, (eig_a[i], eig_b0[i]))
    if not bent:
        return pairs
    logs = _assemble(q[bent], np.log(lam[bent, 1])) + np.array([epsilons[i] for i in bent])[:, None, None] * unit
    eig_logs = _each(lambda h, f: hermitian_eigen(h, frame=f), logs, [eig_b0[i].frame for i in bent])
    live = []
    for i, eig in zip(bent, eig_logs):
        if isinstance(eig, NumericalError):
            pairs[i] = eig
        else:
            live.append((i, eig))
    if live:
        frames, mu = np.stack([eig.frame for _, eig in live]), np.stack([eig.eigenvalues for _, eig in live])
        for (i, eig), exp in zip(live, _each(_exponentiated, frames, mu)):
            if isinstance(exp, NumericalError):
                pairs[i] = exp
            else:
                values, b = exp
                pairs[i] = HpdPair(a[i], b, (eig_a[i], HermitianEigen(eig.frame, values)))
    return pairs


def _exponentiated(frames: np.ndarray, mu: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(e^mu, B = P diag(e^mu) P*) of each spectrum (P, mu) of a stack, or
    DomainError where an exponential overflows or an entry of B leaves the
    double range."""
    values = _exp_values(mu)
    with np.errstate(over="ignore", invalid="ignore"):  # entries past DBL_MAX are inf or nan
        b = _assemble(frames, values)
    for top, finite in zip(values[:, -1].tolist(), np.isfinite(b).all(axis=(1, 2)).tolist()):
        if not finite:
            raise DomainError(f"B leaves the double range at its largest eigenvalue {top!r}")
    return list(zip(values, b))
