"""Independent reference computations for the benchmark's output checks.

Nothing here imports `opmeans`. Spectral functions go through LAPACK
(`np.linalg.eigh`), and the seeded near-commuting generator is re-implemented
from the pipeline that `opmeans.randgen` documents (splitmix64, Box-Muller
pairs, two-pass modified Gram-Schmidt frames, pinned extreme eigenvalues),
so a sweep row can be recomputed from the seed printed in it.
"""

from __future__ import annotations

import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# the verdict bands of the program's documented classification rule
IDENTITY_TOL = 1e-10
VIOLATION_BAND = 1e-6
EPS_FLOOR = 2.0**-52


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def complex_gaussians(self, n: int) -> np.ndarray:
        m = np.empty((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
                u2 = (self.next_u64() >> 11) * 2.0**-53
                rad = math.sqrt(-2.0 * math.log(u1))
                m[i, j] = complex(rad * math.cos(2.0 * math.pi * u2), rad * math.sin(2.0 * math.pi * u2))
        return m


def mix_seed(master: int, index: int) -> int:
    return SplitMix64((master ^ ((index + 1) * GOLDEN)) & MASK64).next_u64()


def _frame(rng: SplitMix64, n: int) -> np.ndarray:
    q = rng.complex_gaussians(n)
    for j in range(n):
        v = q[:, j]
        for _ in range(2):
            for i in range(j):
                v = v - np.vdot(q[:, i], v) * q[:, i]
        q[:, j] = v / math.sqrt(np.vdot(v, v).real)
    return q


def _eigenvalues(rng: SplitMix64, n: int, cond: float) -> np.ndarray:
    half = 0.5 * math.log(cond)
    vals = [math.exp(-half), math.exp(half)]
    vals += [math.exp(rng.uniform(-half, half)) for _ in range(n - 2)]
    return np.array(vals)


def hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def spectral(m: np.ndarray, f) -> np.ndarray:
    """f applied to the spectrum of the Hermitian part of m."""
    w, v = np.linalg.eigh(hermitian(m))
    return hermitian((v * f(w)) @ v.conj().T)


def near_commuting_pair(seed: int, n: int, cond: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair `opmeans sweep` analyses for one row (n >= 2)."""
    rng = SplitMix64(seed)
    lam_a = _eigenvalues(rng, n, cond)
    lam_b = _eigenvalues(rng, n, cond)
    q = _frame(rng, n)
    a = hermitian((q * lam_a) @ q.conj().T)
    b = hermitian((q * lam_b) @ q.conj().T)
    g = rng.complex_gaussians(n)
    k = hermitian(g)
    k = k / np.linalg.norm(k)
    if eps == 0.0:
        return a, b
    return a, spectral(spectral(b, np.log) + eps * k, np.exp)


def gaps(a: np.ndarray, b: np.ndarray) -> dict:
    """Mean gap, commutator gap, trace gap and tr X of a pair."""
    sa = spectral(a, np.sqrt)
    isa = spectral(a, lambda w: 1.0 / np.sqrt(w))
    sb = spectral(b, np.sqrt)
    x = spectral(sa @ b @ sa, lambda w: np.sqrt(np.maximum(w, 0.0)))
    avg = (sa + sb) / 2.0
    heron = hermitian(avg @ avg)
    wass = hermitian((a + b + sa @ x @ isa + isa @ x @ sa) / 4.0)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    trace_x = float(np.trace(x).real)
    return {
        "mean_gap": float(np.linalg.norm(heron - wass) / (na + nb)),
        "commutator_gap": float(np.linalg.norm(a @ b - b @ a) / (na * nb)),
        "trace_gap": trace_x - float(np.trace(sa @ sb).real),
        "trace_x": trace_x,
    }


def classify(mean_gap: float, comm_gap: float) -> str:
    """The verdict rule documented by `opmeans.verify.classify_gaps`."""
    if mean_gap <= IDENTITY_TOL and comm_gap > VIOLATION_BAND:
        return "CounterexampleToTheorem"
    if mean_gap <= IDENTITY_TOL and comm_gap <= IDENTITY_TOL:
        return "MeansEqualAndCommute"
    if mean_gap > 10.0 * IDENTITY_TOL and comm_gap > 10.0 * IDENTITY_TOL:
        return "BothGapsPositive"
    return "Indeterminate"


def is_positive_definite(m: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(hermitian(m))[0] > 0.0)


def digits(err: float) -> float:
    """Decimal digits of an error, floored at double precision."""
    return -math.log10(max(err, EPS_FLOOR))


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    n = data["n"]
    return np.array([complex(re, im) for re, im in data["entries"]]).reshape(n, n)


def save_matrix(path, m: np.ndarray) -> None:
    """Write a matrix in the interchange format `opmeans` reads."""
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries, "n": m.shape[0]}, fh)


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]
