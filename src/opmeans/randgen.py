"""Deterministic random-instance generation.

The whole pipeline is pinned down so that a fixed seed reproduces matrices
bit for bit, across machines and reruns:

  * stream: splitmix64 (64-bit additive state walk plus finalizer). A
    request for many words draws them in one numpy uint64 pass, whose
    wrap modulo 2^64 is the scalar walk's mask;
  * uniforms: top 53 bits of each 64-bit word, so u = (word >> 11) * 2^-53
    lies in [0, 1);
  * gaussians: Box-Muller pairs, cosine value first, sine value second;
    the radius uses ((word >> 11) + 1) * 2^-53 in (0, 1] so the log is
    finite. log, cos and sin are `math`'s per element, since numpy's
    SIMD transcendentals are not libm's. A request for an odd count
    discards the trailing sine value; nothing is buffered across calls;
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
    last bits. The one eigendecomposition of log B0 + epsilon K starts
    from B0's sorted drawn frame, which diagonalizes it to O(epsilon);
  * a generated pair carries the spectra it was built from, sorted
    ascending, so its `HpdPair.spectra` decomposes neither A nor B. The
    matrices are assembled in the drawn order, so the sort moves no bit.

Per-trial seeds for batch runs come from `mix_seed`, the splitmix64
finalizer applied to master XOR ((index + 1) * golden ratio increment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
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

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()

    def words(self, count: int) -> np.ndarray:
        """The next `count` words in one uint64 pass, which wraps as next_u64 masks."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN) + np.uint64(self._state)
        self._state = (self._state + count * GOLDEN) & MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def _gauss_pairs(self, pairs: int) -> np.ndarray:
        """`pairs` Box-Muller pairs as rows (cosine, sine), with math's log, cos and sin."""
        top = (self.words(2 * pairs) >> np.uint64(11)).astype(np.float64)
        u1 = (top[0::2] + 1.0) * 2.0**-53
        ang = (2.0 * math.pi) * (top[1::2] * 2.0**-53)
        rad = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
        cos, sin = (np.fromiter(map(f, ang.tolist()), np.float64, pairs) for f in (math.cos, math.sin))
        return np.column_stack((rad * cos, rad * sin))

    def gaussians(self, count: int) -> list[float]:
        return self._gauss_pairs(max(count + 1, 0) // 2).ravel()[:count].tolist()

    def complex_gaussian_matrix(self, n: int) -> np.ndarray:
        """n x n matrix of z0 + i z1 entries, one pair per entry, row-major."""
        return self._gauss_pairs(n * n).view(np.complex128).reshape(n, n)


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


def _eigenvalue_draw(rng: SplitMix64, n: int, cond: float) -> np.ndarray:
    """Eigenvalues in [1/sqrt(cond), sqrt(cond)], endpoints pinned for n >= 2."""
    half = 0.5 * math.log(cond)
    logs = [-half, half] if n > 1 else []
    logs += [rng.uniform(-half, half) for _ in range(n - len(logs))]
    return np.array([math.exp(x) for x in logs])


def _hpd_from(rng: SplitMix64, n: int, cond: float) -> np.ndarray:
    lam = _eigenvalue_draw(rng, n, cond)
    q = _orthonormal_frame(rng.complex_gaussian_matrix(n))
    return _assemble(q, lam)


def _hermitian_unit(rng: SplitMix64, n: int) -> np.ndarray:
    """Random Hermitian direction with unit Frobenius norm."""
    g = rng.complex_gaussian_matrix(n)
    k = (g + g.conj().T) / 2.0
    norm = math.sqrt(np.vdot(k, k).real)
    if norm == 0.0:
        raise NumericalError("hermitian direction collapsed to zero")
    return k / norm


def random_hpd(spec: GenSpec) -> np.ndarray:
    """One Hermitian positive-definite matrix from the given spec."""
    rng = SplitMix64(spec.seed)
    return _hpd_from(rng, spec.dim, spec.cond_target)


def _drawn_spectrum(q: np.ndarray, lam: np.ndarray) -> HermitianEigen:
    """The drawn values sorted ascending, with Q's columns permuted to match."""
    order = np.argsort(lam, kind="stable")
    return HermitianEigen(frame=q[:, order], eigenvalues=lam[order])


def _commuting_parts(rng: SplitMix64, n: int, cond: float) -> tuple:
    """Shared-frame pair: eigenvalues of A, then of B, then one frame.

    Returns A, B and log B, each Q diag(values) Q* symmetrized in the
    drawn order, then the spectra of A and of B as drawn.
    """
    lam_a = _eigenvalue_draw(rng, n, cond)
    lam_b = _eigenvalue_draw(rng, n, cond)
    q = _orthonormal_frame(rng.complex_gaussian_matrix(n))
    a, b, log_b = (_assemble(q, lam) for lam in (lam_a, lam_b, np.log(lam_b)))
    return a, b, log_b, _drawn_spectrum(q, lam_a), _drawn_spectrum(q, lam_b)


def random_commuting_pair(spec: GenSpec) -> HpdPair:
    """Pair with a shared random eigenframe and independent eigenvalues,
    carrying the spectra it was drawn from."""
    rng = SplitMix64(spec.seed)
    a, b, _, eig_a, eig_b = _commuting_parts(rng, spec.dim, spec.cond_target)
    return HpdPair._from_spectra(a, b, eig_a, eig_b)


def near_commuting_pair(spec: GenSpec) -> HpdPair:
    """Commuting pair with B perturbed by epsilon in its log chart.

    B becomes exp(log(B0) + epsilon * K) for a seeded unit-norm Hermitian
    direction K, so positivity is structural. log(B0) is built from B0's
    drawn frame and eigenvalues, not from an eigendecomposition of B0.
    epsilon = 0 returns the commuting pair itself (no log/exp round trip),
    and the draw of K happens regardless of epsilon so that sweeps over
    epsilon at a fixed seed perturb one and the same triple (A, B0, K).
    The pair carries A's spectrum as drawn and B's as drawn at epsilon =
    0, else (P, e^mu) from the one eigendecomposition P diag(mu) P* of
    log B0 + epsilon K, warm-started from B0's frame, from which B is
    assembled; an eigenvalue whose exponential overflows raises
    DomainError.
    """
    if spec.family != "near_commuting":
        raise InvalidSpec(f"near_commuting_pair needs the near_commuting family, got {spec.family!r}")
    rng = SplitMix64(spec.seed)
    a, b0, log_b0, eig_a, eig_b0 = _commuting_parts(rng, spec.dim, spec.cond_target)
    k = _hermitian_unit(rng, spec.dim)
    if spec.epsilon == 0.0:
        return HpdPair._from_spectra(a, b0, eig_a, eig_b0)
    eig_log = hermitian_eigen(log_b0 + spec.epsilon * k, frame=eig_b0.frame)
    values = _exp_values(eig_log)
    b = _assemble(eig_log.frame, values)
    return HpdPair._from_spectra(a, b, eig_a, HermitianEigen(frame=eig_log.frame, eigenvalues=values))
