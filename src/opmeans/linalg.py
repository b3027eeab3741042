"""Dense complex Hermitian linear algebra substrate.

Everything downstream (operator means, identity residuals, the descent
experiment) is built on the handful of primitives in this module: adjoint,
a Jacobi eigensolver for Hermitian matrices (cyclic order on scalars for
small matrices, round-robin order on numpy arrays for larger ones),
functional calculus, operator absolute value, polar decomposition, and
norms.

Matrices are plain numpy arrays with complex128 entries. No LAPACK-backed
eigen/SVD routines are used in library code; the Jacobi solver keeps the
whole numerical path self-contained and deterministic, which the test
suite relies on (bit-identical reruns for a fixed seed).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericalError",
    "NotHermitian",
    "NoConvergence",
    "DomainError",
    "Singular",
    "NotPositiveDefinite",
    "ToleranceConfig",
    "DEFAULT_CONFIG",
    "HermitianEigen",
    "PolarParts",
    "as_matrix",
    "adjoint",
    "require_hermitian",
    "frobenius_norm",
    "commutator",
    "hermitian_eigen",
    "matrix_function",
    "sqrtm",
    "inv_sqrtm",
    "invm",
    "expm",
    "logm",
    "sqrt_and_inv_sqrt",
    "abs_op",
    "polar",
    "op_norm",
    "is_positive_definite",
]


class NumericalError(Exception):
    """Base class for numerical failures raised by this package."""


class NotHermitian(NumericalError):
    """Input required to be Hermitian deviates beyond the identity tolerance."""


class NoConvergence(NumericalError):
    """Jacobi sweep budget exhausted with off-diagonal mass above tolerance."""


class DomainError(NumericalError):
    """A scalar function was applied outside its domain (e.g. 1/sqrt near 0)."""


class Singular(NumericalError):
    """Matrix is singular within the positivity floor."""


class NotPositiveDefinite(NumericalError):
    """A matrix required to be positive definite fails the spectral check."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by the whole library.

    identity_tol      relative tolerance for identities that hold exactly in
                      real arithmetic (reconstruction, symmetry, residuals)
    positivity_floor  relative spectral floor below which an eigenvalue or
                      singular value counts as zero
    eig_off_diag_tol  Jacobi convergence: off-diagonal Frobenius mass must
                      drop below this multiple of ||H||_F
    max_jacobi_sweeps sweep budget before NoConvergence, an integer
    """

    identity_tol: float = 1e-10
    positivity_floor: float = 1e-12
    eig_off_diag_tol: float = 1e-15
    max_jacobi_sweeps: int = 100

    def __post_init__(self) -> None:
        for name in ("identity_tol", "positivity_floor", "eig_off_diag_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if value == math.inf:
                raise ValueError(f"{name} must be finite")
        sweeps = self.max_jacobi_sweeps
        if not isinstance(sweeps, numbers.Integral) or isinstance(sweeps, bool) or sweeps < 1:
            raise ValueError(f"max_jacobi_sweeps must be an integer of at least 1, got {sweeps!r}")
        if not self.identity_tol > self.positivity_floor:
            raise ValueError("identity_tol must exceed positivity_floor")


DEFAULT_CONFIG = ToleranceConfig()


def as_matrix(values) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(t) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(t).conj().T


def frobenius_norm(t) -> float:
    """Frobenius norm, sqrt of the sum of squared entry magnitudes.

    Where that sum overflows or falls below 2^-900 the entries are first
    scaled by an exact power of two; elsewhere the plain sum is used.
    """
    t = np.asarray(t, dtype=np.complex128)
    total = float(np.vdot(t, t).real)
    if 2.0**-900 <= total < math.inf or not t.any():
        return math.sqrt(total)
    # 2^-exp stays finite for subnormal entries
    exp = max(math.frexp(float(np.max(np.abs(t))))[1], -1021)
    s = t * math.ldexp(1.0, -exp)
    return float(np.ldexp(math.sqrt(np.vdot(s, s).real), exp))


def _scale_exponent(a: np.ndarray, b: np.ndarray) -> int:
    """k for which 2^-2k brings the largest entry of A and B into [1, 4).

    An even power of two scales exactly and commutes with square roots, so
    results computed on the scaled matrices are the unscaled ones times
    powers of two, bit for bit, wherever those neither overflow nor
    underflow.
    """
    top = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if top == 0.0:
        return 0
    # 2^-2k overflows below k = -511, so subnormal pairs are scaled up that far
    return max((math.frexp(top)[1] - 1) // 2, -511)


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    return a @ b - b @ a


def require_hermitian(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Symmetrize a nearly-Hermitian matrix, or raise NotHermitian.

    Asymmetry below identity_tol (relative to ||H||_F) is treated as
    roundoff and absorbed by returning (H + H*)/2; anything larger is a
    genuine contract violation.
    """
    h = as_matrix(h)
    h_star = h.conj().T
    scale = frobenius_norm(h)
    asym = frobenius_norm(h - h_star)
    if asym > cfg.identity_tol * scale:
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds {cfg.identity_tol:.1e} * ||H||_F = "
            f"{cfg.identity_tol * scale:.3e}"
        )
    return (h + h_star) / 2.0


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition of a Hermitian matrix.

    frame        unitary matrix whose columns are eigenvectors
    eigenvalues  real eigenvalues, ascending, aligned with the columns
    """

    frame: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class PolarParts:
    """Polar factorization T = isometry @ positive.

    For invertible T the isometry factor is unitary and the positive
    factor equals abs_op(T).
    """

    isometry: np.ndarray
    positive: np.ndarray


def _off_diagonal_mass(a: list, n: int) -> float:
    """Frobenius mass of the off-diagonal part (both triangles)."""
    total = 0.0
    for i in range(n - 1):
        row = a[i]
        for j in range(i + 1, n):
            x = row[j]
            total += x.real * x.real + x.imag * x.imag
    return math.sqrt(2.0 * total)


_Solution = tuple[np.ndarray, np.ndarray, float]


def _jacobi(m: np.ndarray, target: float, skip: float, max_sweeps: int) -> _Solution:
    """Cyclic Jacobi sweeps with complex Givens rotations.

    Each rotation zeroes one off-diagonal pair of the working matrix while
    accumulating the same rotation into the column frame. Both are lists
    of row lists holding Python complex scalars, which beats numpy element
    access below `_ROUNDS_MIN_N`. Returns the diagonal, the frame and the
    final off-diagonal mass, which is above `target` only when the sweep
    budget ran out.
    """
    n = m.shape[0]
    a = m.tolist()
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    for sweep in range(max_sweeps + 1):
        mass = _off_diagonal_mass(a, n)
        if mass <= target or sweep == max_sweeps:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                h = ap[q]
                r = abs(h)
                if r <= skip:
                    continue
                aq = a[q]
                alpha = ap[p].real
                beta = aq[q].real
                u = h / r
                tau = (beta - alpha) / (2.0 * r)
                # smaller root of t^2 + 2*tau*t - 1 = 0 keeps |angle| <= pi/4
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (math.sqrt(1.0 + tau * tau) - tau)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cu = c * u
                su = s * u
                cu_c = cu.conjugate()
                su_c = su.conjugate()
                # A <- V* A V with V the identity outside the (p, q) plane,
                # V[p,p] = c*u, V[p,q] = s*u, V[q,p] = -s, V[q,q] = c.
                for i in range(n):
                    ai = a[i]
                    x = ai[p]
                    y = ai[q]
                    ai[p] = x * cu - y * s
                    ai[q] = x * su + y * c
                for i in range(n):
                    x = ap[i]
                    y = aq[i]
                    ap[i] = cu_c * x - s * y
                    aq[i] = su_c * x + c * y
                ap[q] = 0j
                aq[p] = 0j
                ap[p] = complex(ap[p].real, 0.0)
                aq[q] = complex(aq[q].real, 0.0)
                for vi in v:
                    x = vi[p]
                    y = vi[q]
                    vi[p] = x * cu - y * s
                    vi[q] = x * su + y * c
    return np.array([a[i][i].real for i in range(n)]), np.array(v, dtype=np.complex128), mass


# From this size on, one numpy update per round of disjoint rotations
# beats the scalar loop's per-rotation interpreter steps.
_ROUNDS_MIN_N = 12


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rounds of the circle-method tournament on n indices, as (p, q).

    Index 0 stays put and the others rotate one place per round, so in
    the n - 1 rounds (n for odd n) every pair p < q meets exactly once
    and no index appears twice in a round. Odd n gets a dummy index n
    whose pairs are dropped.
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(x, y), max(x, y)) for x, y in zip(ring[: m // 2], ring[::-1]) if max(x, y) < n]
        p, q = np.array(pairs).T
        rounds.append((p, q))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return rounds


# tau * tau overflows to inf, and t to 0 as in the scalar loop, only for an
# eig_off_diag_tol below about 1e-150
@np.errstate(over="ignore")
def _jacobi_rounds(m: np.ndarray, target: float, skip: float, max_sweeps: int) -> _Solution:
    """Round-robin Jacobi (Brent & Luk 1985): the rotations of one round
    touch disjoint index pairs, so they form one unitary J, and a round is
    A <- J* A J and V <- V J as matrix products.

    Rotation angles and the `skip` rule are the scalar loop's, pair for
    pair; a skipped pair's entries, at most `skip`, are set to zero with
    the rest. Same contract as `_jacobi`.
    """
    n = m.shape[0]
    plan = []
    for p, q in _round_robin(n):
        # flat positions of (q, p), (p, q), (p, p) and (q, q), pair by pair,
        # where J's entries go; a round gathers the last three, zeroes the
        # first two and makes the last two real
        k, place = len(p), np.concatenate((q * n + p, p * n + q, p * (n + 1), q * (n + 1)))
        plan.append((k, place, place[k:], place[: 2 * k], place[2 * k :]))
    upper = np.triu_indices(n, 1)
    eye = np.eye(n, dtype=np.complex128)
    a, v = m, eye
    for sweep in range(max_sweeps + 1):
        off = a[upper]
        mass = math.sqrt(2.0 * np.vdot(off, off).real)
        if mass <= target or sweep == max_sweeps:
            break
        for k, place, gather, off_diag, diag in plan:
            g = a.take(gather)
            h = g[:k]
            r = np.abs(h)
            live = r > skip
            # skipped pairs divide by 1 and take the identity: both arms of
            # np.where are evaluated, so neither may divide by zero
            r = np.where(live, r, 1.0)
            u = np.where(live, h / r, 1.0)
            tau = (g[2 * k :].real - g[k : 2 * k].real) / (2.0 * r)
            sign = np.where(tau >= 0.0, 1.0, -1.0)
            t = np.where(live, sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            j = eye.copy()
            np.put(j, place, np.concatenate((-s, s * u, c * u, c)))
            a = j.conj().T @ (a @ j)
            v = v @ j
            np.put(a, off_diag, 0.0)
            np.put(a, diag, a.take(diag).real)
    return a.diagonal().real.copy(), v, mass


def hermitian_eigen(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix by Jacobi rotations.

    Below `_ROUNDS_MIN_N` the rotations run in cyclic order, from that
    size on in round-robin order; both stop at the same target. Raises
    NotHermitian when the input asymmetry exceeds identity_tol and
    NoConvergence when the off-diagonal mass has not dropped below
    eig_off_diag_tol * ||H||_F within max_jacobi_sweeps sweeps. Jacobi
    runs on 2^-e H, with ||2^-e H||_F in [1/2, 1), whose mass neither
    underflows nor overflows; the scaling is exact and changes no bit.
    """
    hm = require_hermitian(h, cfg)
    n = hm.shape[0]
    scale = frobenius_norm(hm)
    if n == 1 or scale == 0.0:
        return HermitianEigen(
            frame=np.eye(n, dtype=np.complex128),
            eigenvalues=np.diag(hm).real.copy(),
        )
    e = max(math.frexp(scale)[1], -1021)  # 2^-e stays finite for subnormal H
    target = cfg.eig_off_diag_tol * math.ldexp(scale, -e)
    # rotations on entries this small cannot lift the mass back above target
    skip = target / (4.0 * n)
    solve = _jacobi_rounds if n >= _ROUNDS_MIN_N else _jacobi
    lam, frame, mass = solve(hm * math.ldexp(1.0, -e), target, skip, cfg.max_jacobi_sweeps)
    if not mass <= target:
        raise NoConvergence(
            f"off-diagonal mass {math.ldexp(mass, e):.3e} above "
            f"{cfg.eig_off_diag_tol * scale:.3e} after {cfg.max_jacobi_sweeps} sweeps (n = {n})"
        )
    order = np.argsort(lam, kind="stable")
    return HermitianEigen(frame=frame[:, order], eigenvalues=np.ldexp(lam[order], e))


def _assemble(eig: HermitianEigen, values: np.ndarray) -> np.ndarray:
    """frame @ diag(values) @ frame*, symmetrized against roundoff."""
    m = (eig.frame * values) @ eig.frame.conj().T
    return (m + m.conj().T) / 2.0


def _spectral_radius(eig: HermitianEigen) -> float:
    lam = eig.eigenvalues
    return max(abs(float(lam[0])), abs(float(lam[-1])))


def matrix_function(h, f: Callable[[float], float], cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Apply a scalar map to a Hermitian matrix through its spectrum.

    The result is frame @ diag(f(lambda_i)) @ frame*. Raises DomainError
    when f is undefined (raises, or returns a non-finite value) at any
    eigenvalue.
    """
    eig = hermitian_eigen(h, cfg)
    values = np.empty(eig.eigenvalues.shape[0])
    for i, lam in enumerate(eig.eigenvalues):
        try:
            y = float(f(float(lam)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"scalar map undefined at eigenvalue {lam!r}: {exc}") from exc
        if not math.isfinite(y):
            raise DomainError(f"scalar map returned non-finite value at eigenvalue {lam!r}")
        values[i] = y
    return _assemble(eig, values)


def _sqrt_values(eig: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    floor = cfg.positivity_floor * _spectral_radius(eig)
    lam = eig.eigenvalues
    if float(lam[0]) < -floor:
        raise DomainError(f"square root undefined at eigenvalue {float(lam[0])!r}")
    return np.sqrt(np.maximum(lam, 0.0))


def _positive_values(eig: HermitianEigen, cfg: ToleranceConfig, what: str) -> np.ndarray:
    lam = eig.eigenvalues
    floor = cfg.positivity_floor * _spectral_radius(eig)
    if float(lam[0]) <= floor:
        raise DomainError(f"{what} undefined at eigenvalue {float(lam[0])!r} (floor {floor:.3e})")
    return lam


def sqrtm(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Positive square root of a positive semidefinite Hermitian matrix.

    Eigenvalues within the positivity floor of zero are clamped to zero;
    anything further negative raises DomainError.
    """
    eig = hermitian_eigen(h, cfg)
    return _assemble(eig, _sqrt_values(eig, cfg))


def inv_sqrtm(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix."""
    eig = hermitian_eigen(h, cfg)
    lam = _positive_values(eig, cfg, "inverse square root")
    return _assemble(eig, 1.0 / np.sqrt(lam))


def sqrt_and_inv_sqrt(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """Square root and inverse square root from a single eigendecomposition."""
    eig = hermitian_eigen(h, cfg)
    lam = _positive_values(eig, cfg, "inverse square root")
    roots = np.sqrt(lam)
    return _assemble(eig, roots), _assemble(eig, 1.0 / roots)


def invm(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Inverse of a positive definite Hermitian matrix."""
    eig = hermitian_eigen(h, cfg)
    lam = _positive_values(eig, cfg, "inverse")
    return _assemble(eig, 1.0 / lam)


def expm(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Exponential of a Hermitian matrix."""
    return matrix_function(h, math.exp, cfg)


def logm(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Logarithm of a positive definite Hermitian matrix."""
    eig = hermitian_eigen(h, cfg)
    lam = _positive_values(eig, cfg, "logarithm")
    return _assemble(eig, np.log(lam))


def _gram_eigen(t: np.ndarray, cfg: ToleranceConfig) -> HermitianEigen:
    """Eigendecomposition of T*T (Hermitian PSD up to roundoff)."""
    gram = t.conj().T @ t
    return hermitian_eigen((gram + gram.conj().T) / 2.0, cfg)


def abs_op(t, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Operator absolute value |T| = (T*T)^{1/2}.

    Negative roundoff eigenvalues of T*T are clamped to zero, so the result
    is defined for singular T as well.
    """
    return _abs_from_gram(_gram_eigen(as_matrix(t), cfg))


def _abs_from_gram(gram: HermitianEigen) -> np.ndarray:
    """|T| from the spectrum of T*T, negative roundoff clamped to zero."""
    return _assemble(gram, np.sqrt(np.maximum(gram.eigenvalues, 0.0)))


def polar(t, cfg: ToleranceConfig = DEFAULT_CONFIG) -> PolarParts:
    """Polar decomposition T = U |T| for invertible T.

    Raises Singular when the smallest singular value is within the
    positivity floor of zero; the partial-isometry completion for singular
    input is intentionally not provided.
    """
    t = as_matrix(t)
    eig = _gram_eigen(t, cfg)
    return PolarParts(isometry=_isometry(t, eig, cfg), positive=_abs_from_gram(eig))


def _isometry(t: np.ndarray, gram: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    """The polar factor U = T |T|^{-1}, from the spectrum of T*T."""
    sing = _singular_values(gram, cfg)
    return _newton_schulz_step(t @ _assemble(gram, 1.0 / sing))


def _singular_values(gram: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    """Singular values of T from the spectrum of T*T; raises Singular when
    the smallest is within the positivity floor of the largest."""
    sing = np.sqrt(np.maximum(gram.eigenvalues, 0.0))
    largest = float(sing[-1])
    if largest == 0.0 or float(sing[0]) <= cfg.positivity_floor * largest:
        raise Singular(
            f"smallest singular value {float(sing[0]):.3e} within floor of "
            f"{cfg.positivity_floor:.1e} * {largest:.3e}"
        )
    return sing


def _newton_schulz_step(u: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step, which scrubs the O(eps * cond) unitarity
    defect of a computed polar factor; only applied while the defect is
    well below 1, where the step is contractive."""
    n = u.shape[0]
    gram_defect = u.conj().T @ u - np.eye(n)
    if frobenius_norm(gram_defect) < 0.5:
        u = u @ (np.eye(n) - gram_defect / 2.0)
    return u


def op_norm(t, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Operator (spectral) norm, the largest singular value."""
    t = as_matrix(t)
    eig = _gram_eigen(t, cfg)
    return math.sqrt(max(float(eig.eigenvalues[-1]), 0.0))


def is_positive_definite(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether the smallest eigenvalue clears the relative positivity floor."""
    return _is_positive(hermitian_eigen(h, cfg), cfg)


def _is_positive(eig: HermitianEigen, cfg: ToleranceConfig) -> bool:
    return float(eig.eigenvalues[0]) > cfg.positivity_floor * _spectral_radius(eig)
