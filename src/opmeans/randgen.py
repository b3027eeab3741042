"""Deterministic random-instance generation.

The whole pipeline is pinned down so that a fixed seed reproduces matrices
bit for bit, across machines and reruns:

  * stream: splitmix64 (64-bit additive state walk plus finalizer). The
    words of a request, or of all the seeds of a block of pairs, are drawn
    in one numpy uint64 pass, whose wrap modulo 2^64 is the walk's mask;
  * uniforms: top 53 bits of each 64-bit word, so u = (word >> 11) * 2^-53
    lies in [0, 1);
  * gaussians: Box-Muller pairs, cosine value first, sine value second;
    the radius uses ((word >> 11) + 1) * 2^-53 in (0, 1] so the log is
    finite. log, cos and sin are `math`'s per element, since numpy's
    SIMD transcendentals are not libm's. Nothing is buffered across calls;
  * complex gaussians: one Box-Muller pair per entry, real part first,
    entries in row-major order;
  * unitary frames: modified Gram-Schmidt (two passes) applied to a
    complex gaussian matrix. The triangular factor's diagonal comes out
    real and positive, which pins the phase of every column. Columns stay
    strided views: np.vdot on Fortran-ordered columns moves last bits;
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
    A nor B, and `random_hpd` returns its drawn spectrum on request; `gen`
    writes the frames of these spectra into its files. The matrices are
    assembled in the drawn order, so the sort moves no bit.

Per-trial seeds for batch runs come from `mix_seed`, the splitmix64
finalizer applied to master XOR ((index + 1) * golden ratio increment).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .linalg import (
    DomainError,
    HermitianEigen,
    NumericalError,
    hermitian_eigen,
    _assemble,
    _exp_values,
)
from .means import HpdPair

__all__ = [
    "InvalidSpec",
    "SplitMix64",
    "mix_seed",
    "GenSpec",
    "FAMILIES",
    "random_hpd",
    "random_commuting_pair",
    "near_commuting_pair",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class InvalidSpec(ValueError):
    """Generation spec violates its invariants."""


class SplitMix64:
    """splitmix64 stream: state += golden; output = finalizer(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def complex_gaussian_matrix(self, n: int) -> np.ndarray:
        """n x n matrix of z0 + i z1 entries, one pair per entry, row-major."""
        return _draws([self], [0], [n * n])[1][0].view(np.complex128).reshape(n, n)


def _words(rngs: list[SplitMix64], counts: list[int]) -> np.ndarray:
    """The next counts[i] words of each stream rngs[i] in turn, in one uint64
    pass, which wraps as next_u64 masks; each stream moves past its words."""
    starts = [0, *accumulate(counts)]  # the pass's word starts[i] + j is stream i's word j
    bases = [(rng._state + (1 - start) * GOLDEN) & MASK64 for rng, start in zip(rngs, starts)]
    for rng, count in zip(rngs, counts):
        rng._state = (rng._state + count * GOLDEN) & MASK64
    z = np.arange(starts[-1], dtype=np.uint64) * np.uint64(GOLDEN) + np.array(bases, np.uint64).repeat(counts)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _draws(rngs: list[SplitMix64], uniforms: list[int], pairs: list[int]) -> tuple[list, list]:
    """The next uniforms[i] uniforms, as floats, then the next pairs[i]
    Box-Muller pairs, as rows (cosine, sine), of each stream rngs[i]: one
    word pass over all the streams, one pass of uniforms and one of pairs."""
    top = (_words(rngs, [u + 2 * p for u, p in zip(uniforms, pairs)]) >> np.uint64(11)).astype(np.float64)
    is_u = np.repeat([True, False] * len(rngs), [c for u, p in zip(uniforms, pairs) for c in (u, 2 * p)])
    u, g = (top[is_u] * 2.0**-53).tolist(), top[~is_u]
    rad = np.sqrt(-2.0 * np.fromiter(map(math.log, ((g[0::2] + 1.0) * 2.0**-53).tolist()), np.float64, len(g) // 2))
    ang = ((2.0 * math.pi) * (g[1::2] * 2.0**-53)).tolist()
    cos, sin = (np.fromiter(map(f, ang), np.float64, len(ang)) for f in (math.cos, math.sin))
    z = np.column_stack((rad * cos, rad * sin))
    return ([u[e - c : e] for e, c in zip(accumulate(uniforms), uniforms)],
            [z[e - c : e] for e, c in zip(accumulate(pairs), pairs)])


def mix_seed(master: int, index: int) -> int:
    """Per-trial seed from a master seed and a trial index."""
    return SplitMix64((master ^ ((index + 1) * GOLDEN)) & MASK64).next_u64()


FAMILIES = ("generic", "commuting", "near_commuting")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random draw.

    dim          matrix size, an int >= 1 (not a bool)
    seed         64-bit unsigned seed, an int (not a bool)
    cond_target  ratio of largest to smallest eigenvalue, >= 1
    family       "generic" (one matrix), "commuting" (shared-frame pair),
                 or "near_commuting" (commuting pair perturbed by epsilon
                 in the log chart of B)
    epsilon      perturbation size, >= 0, only meaningful (and only
                 allowed nonzero) for the near_commuting family
    """

    dim: int
    seed: int
    cond_target: float = 10.0
    family: str = "generic"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise InvalidSpec(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= MASK64:
            raise InvalidSpec(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not self.cond_target >= 1.0:
            raise InvalidSpec(f"cond_target must be >= 1, got {self.cond_target!r}")
        if self.family not in FAMILIES:
            raise InvalidSpec(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not self.epsilon >= 0.0:
            raise InvalidSpec(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.family != "near_commuting" and self.epsilon != 0.0:
            raise InvalidSpec("epsilon is only meaningful for the near_commuting family")
        for name in ("cond_target", "epsilon"):
            if getattr(self, name) == math.inf:
                raise InvalidSpec(f"{name} must be finite, got inf")


def _orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass per column."""
    n = g.shape[0]
    q = g.astype(np.complex128, copy=True)
    for j in range(n):
        v = q[:, j]
        for _pass in range(2):
            for i in range(j):
                v = v - (np.vdot(q[:, i], v)) * q[:, i]
        norm = math.sqrt(np.vdot(v, v).real)
        if norm == 0.0:
            raise NumericalError("gaussian frame column collapsed to zero")
        q[:, j] = v / norm
    return q


def _eigenvalue_draw(n: int, cond: float, u: list[float]) -> np.ndarray:
    """Eigenvalues in [1/sqrt(cond), sqrt(cond)], endpoints pinned for n >= 2, the rest log-uniform at u."""
    half = 0.5 * math.log(cond)
    logs = ([-half, half] if n > 1 else []) + [-half + (half - -half) * x for x in u]
    return np.array([math.exp(x) for x in logs])


def _hermitian_unit(g: np.ndarray) -> np.ndarray:
    """The Hermitian direction of a gaussian matrix, with unit Frobenius norm."""
    k = (g + g.conj().T) / 2.0
    norm = math.sqrt(np.vdot(k, k).real)
    if norm == 0.0:
        raise NumericalError("hermitian direction collapsed to zero")
    return k / norm


def _drawn_spectrum(q: np.ndarray, lam: np.ndarray) -> HermitianEigen:
    """The drawn values sorted ascending, with Q's columns permuted to match."""
    order = np.argsort(lam, kind="stable")
    return HermitianEigen(frame=q[:, order], eigenvalues=lam[order])


def random_hpd(spec: GenSpec, with_spectrum: bool = False):
    """One Hermitian positive-definite matrix from the given spec, or, with
    `with_spectrum`, the matrix and the spectrum it was drawn from."""
    rng = SplitMix64(spec.seed)
    lam = _eigenvalue_draw(spec.dim, spec.cond_target, [rng.next_double() for _ in range(abs(spec.dim - 2))])
    q = _orthonormal_frame(rng.complex_gaussian_matrix(spec.dim))
    m = _assemble(q, lam)
    return (m, _drawn_spectrum(q, lam)) if with_spectrum else m


def random_commuting_pair(spec: GenSpec) -> HpdPair:
    """Pair with a shared random eigenframe and independent eigenvalues,
    carrying the spectra it was drawn from: `near_commuting_pair`, so
    `_drawn_pairs`, at epsilon = 0."""
    return near_commuting_pair(replace(spec, family="near_commuting", epsilon=0.0))


def near_commuting_pair(spec: GenSpec) -> HpdPair:
    """Commuting pair with B perturbed by epsilon in its log chart.

    B becomes exp(log(B0) + epsilon * K) for a seeded unit-norm Hermitian
    direction K, so positivity is structural: the pair `_drawn_pairs`
    builds for a block of this one spec. epsilon = 0 returns the commuting
    pair itself, with no log/exp round trip and no K drawn. An eigenvalue
    whose exponential overflows, or a B with an entry past the double
    range, raises DomainError.
    """
    if spec.family != "near_commuting":
        raise InvalidSpec(f"near_commuting_pair needs the near_commuting family, got {spec.family!r}")
    (pair,) = _drawn_pairs([spec])
    if isinstance(pair, NumericalError):
        raise pair
    return pair


def _drawn_pairs(specs: list[GenSpec]) -> list:
    """The pair of each spec, commuting at epsilon = 0 and near-commuting
    above, or the NumericalError raised in its place: the one builder of
    every generated pair but `random_hpd`'s.

    A spec draws lambda_A, lambda_B and Q, then K at epsilon > 0 only, all
    specs at once (`_draws`). At epsilon = 0 the pair is (A, B0) with their
    drawn spectra. Above, the logarithms log B0 + epsilon K = P diag(mu) P*
    of all the specs are decomposed in one stacked pass, each started from
    B0's sorted drawn frame, and B = P diag(e^mu) P* carries (P, e^mu);
    where that pass raises, each logarithm is taken alone.
    """
    rngs, free = [SplitMix64(s.seed) for s in specs], [abs(s.dim - 2) for s in specs]
    uniforms, gauss = _draws(rngs, [2 * f for f in free], [(1 + (s.epsilon > 0.0)) * s.dim**2 for s in specs])
    pairs = []  # per spec: its pair, the error raised, or at epsilon > 0 (A, eig_a, eig_b0, log B0 + epsilon K)
    for spec, f, u, g in zip(specs, free, uniforms, gauss):
        n, g = spec.dim, g.view(np.complex128).reshape(-1, spec.dim, spec.dim)
        lam_a, lam_b = (_eigenvalue_draw(n, spec.cond_target, x) for x in (u[:f], u[f:]))
        try:
            q = _orthonormal_frame(g[0])
            a, eig_a, eig_b0 = _assemble(q, lam_a), _drawn_spectrum(q, lam_a), _drawn_spectrum(q, lam_b)
            if spec.epsilon == 0.0:
                pairs.append(HpdPair(a, _assemble(q, lam_b), (eig_a, eig_b0)))
            else:
                log_b = _assemble(q, np.log(lam_b)) + spec.epsilon * _hermitian_unit(g[1])
                pairs.append((a, eig_a, eig_b0, log_b))
        except NumericalError as exc:
            pairs.append(exc)
    stack = [i for i, p in enumerate(pairs) if isinstance(p, tuple)]
    logs = [None] * len(stack)  # None: taken alone, as a stack of one would be
    if len(stack) > 1:
        with suppress(NumericalError):
            logs = hermitian_eigen([pairs[i][3] for i in stack], frame=[pairs[i][2].frame for i in stack])
    for i, eig_log in zip(stack, logs):
        a, eig_a, eig_b0, log_b = pairs[i]
        try:
            eig_log = eig_log or hermitian_eigen(log_b, frame=eig_b0.frame)
            eig_b = HermitianEigen(frame=eig_log.frame, eigenvalues=_exp_values(eig_log))
            with np.errstate(over="ignore", invalid="ignore"):  # entries past DBL_MAX are inf or nan
                b = _assemble(eig_b.frame, eig_b.eigenvalues)
            if not np.isfinite(b).all():
                raise DomainError(
                    f"B leaves the double range at its largest eigenvalue {float(eig_b.eigenvalues[-1])!r}")
            pairs[i] = HpdPair(a, b, (eig_a, eig_b))
        except NumericalError as exc:
            pairs[i] = exc
    return pairs
