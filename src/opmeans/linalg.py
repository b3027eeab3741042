"""Dense complex Hermitian linear algebra substrate.

Everything downstream (operator means, identity residuals, the descent
experiment) is built on the handful of primitives in this module: a
Jacobi eigensolver for Hermitian matrices (cyclic order on scalars for
small matrices, round-robin order on numpy arrays for larger ones, where a
stack of independent matrices shares each round's numpy calls), square
roots, logarithms and the exponential through the spectrum, polar
decomposition, and norms.

Matrices are plain numpy arrays with complex128 entries. No LAPACK-backed
eigen/SVD routines are used in library code; the Jacobi solver keeps the
whole numerical path self-contained and deterministic, which the test
suite relies on (bit-identical reruns for a fixed seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    "require_hermitian",
    "frobenius_norm",
    "hermitian_eigen",
    "sqrtm",
    "logm",
    "sqrt_and_inv_sqrt",
    "polar",
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


# an eigenvalue or singular value at most this multiple of the largest counts as zero
POSITIVITY_FLOOR = 1e-12
# Jacobi's target for the off-diagonal mass, a multiple of ||H||_F, and its sweep budget
EIG_OFF_DIAG_TOL, MAX_JACOBI_SWEEPS = 1e-15, 100


@dataclass(frozen=True)
class ToleranceConfig:
    """The library's one setting, the CLI's `--tol`: identity_tol, the relative
    tolerance by which the lab decides verdicts and refuses outside input,
    finite and above POSITIVITY_FLOOR. Nothing the lab computes depends on it."""

    identity_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not self.identity_tol > 0.0:
            raise ValueError("identity_tol must be strictly positive")
        if self.identity_tol == math.inf:
            raise ValueError("identity_tol must be finite")
        if not self.identity_tol > POSITIVITY_FLOOR:
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


def _exponent(t: np.ndarray) -> int:
    """e for which the largest |entry| of 2^-e T lies in [1/2, 1), at
    least -1021, so that 2^-e stays finite for subnormal T. T = 0 counts as
    the least subnormal, so a zero matrix never raises a larger exponent."""
    return max(math.frexp(np.abs(t).max() or math.ulp(0.0))[1], -1021)


def frobenius_norm(t) -> float:
    """Frobenius norm, sqrt of the sum of squared entry magnitudes.

    Where that sum overflows or falls below 2^-900 the entries are first
    scaled by 2^-e, e = `_exponent(T)`; elsewhere the plain sum is used.
    """
    t = np.asarray(t, dtype=np.complex128)
    total = float(np.vdot(t, t).real)
    if 2.0**-900 <= total < math.inf or not t.any():
        return math.sqrt(total)
    exp = _exponent(t)
    s = t * math.ldexp(1.0, -exp)
    with np.errstate(over="ignore"):  # a norm past DBL_MAX is inf
        return float(np.ldexp(math.sqrt(np.vdot(s, s).real), exp))


def _scale_exponent(a: np.ndarray, b: np.ndarray) -> int:
    """k for which 2^-2k brings the largest entry of A and B into [1, 4), from
    their larger `_exponent`: a zero matrix has no say, and k >= -511.

    An even power of two scales exactly and commutes with square roots, so
    results computed on the scaled matrices are the unscaled ones times
    powers of two, bit for bit, wherever those neither overflow nor
    underflow.
    """
    return (max(_exponent(a), _exponent(b)) - 1) // 2


def require_hermitian(h, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Symmetrize a nearly-Hermitian matrix, or raise NotHermitian.

    Asymmetry below identity_tol (relative to ||H||_F) is treated as
    roundoff and absorbed by returning (H + H*)/2, without either norm when
    H = H* exactly; anything larger is a genuine contract violation. Where
    H + H* overflows, for entries past DBL_MAX / 2, H/2 + H*/2 is returned.
    """
    h = as_matrix(h)
    h_star = h.conj().T
    if not (h == h_star).all():
        scale = frobenius_norm(h)
        with np.errstate(over="ignore"):  # an asymmetry past DBL_MAX is inf
            asym = frobenius_norm(h - h_star)
        if asym > cfg.identity_tol * scale:
            raise NotHermitian(
                f"asymmetry {asym:.3e} exceeds {cfg.identity_tol:.1e} * ||H||_F = "
                f"{cfg.identity_tol * scale:.3e}"
            )
    try:
        with np.errstate(over="raise"):
            return (h + h_star) / 2.0
    except FloatingPointError:
        return h / 2.0 + h_star / 2.0


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
    factor is |T| = (T*T)^{1/2}.
    """

    isometry: np.ndarray
    positive: np.ndarray


@functools.lru_cache(maxsize=64)
def _upper_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, shared between calls and read-only."""
    plan = np.triu_indices(n, 1)
    for index in plan:
        index.setflags(write=False)
    return plan


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


def _jacobi(m: np.ndarray, v0: np.ndarray, target: float) -> _Solution:
    """Cyclic Jacobi sweeps with complex Givens rotations.

    Each rotation zeroes one off-diagonal pair of the working matrix while
    accumulating the same rotation into the column frame, which starts at
    v0. Both are lists of row lists holding Python complex scalars, which
    beats numpy element access below `_ROUNDS_MIN_N`. Entries at most
    target / 4n, which cannot lift the mass back above target, are skipped.
    Returns the diagonal, the frame and the final off-diagonal mass, which
    is above `target` only when the sweep budget ran out.
    """
    n = m.shape[0]
    skip = target / (4.0 * n)
    a = m.tolist()
    v = v0.tolist()
    for sweep in range(MAX_JACOBI_SWEEPS + 1):
        mass = _off_diagonal_mass(a, n)
        if mass <= target or sweep == MAX_JACOBI_SWEEPS:
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


@functools.lru_cache(maxsize=64)
def _rounds_plan(n: int, k: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Flat positions of each round of `_round_robin(n)`: where J's entries
    go in a stack of k n x n matrices, and those a round gathers and, in
    the float view, sets to zero in a stack of k 2n x n buffers, A over V.

    J's entries go to (q, p), (p, q), (p, p) and (q, q), one segment of all
    members' pairs per kind of entry, so a round's scalar work runs on flat
    vectors whatever the stack size. A round gathers A's entries of the
    last three kinds, zeroes both parts of the first two and the imaginary
    part of the last two. The arrays are shared between calls and read-only.
    """
    members = np.arange(k)[:, None]
    plan = []
    for p, q in _round_robin(n):
        entries = np.stack((q * n + p, p * n + q, p * (n + 1), q * (n + 1)))[:, None, :]
        place = (entries + members * (n * n)).ravel()
        spot = (entries + members * (2 * n * n)).ravel()
        zero = np.concatenate((2 * spot[: len(spot) // 2], 2 * spot + 1))
        gather = spot[len(spot) // 4 :]
        for index in (place, gather, zero):
            index.setflags(write=False)
        plan.append((place, gather, zero))
    return plan


def _jacobi_rounds(m: np.ndarray, v: np.ndarray, targets: list[float]) -> list[_Solution]:
    """Round-robin Jacobi (Brent & Luk 1985) on a (k, n, n) stack: the
    rotations of one round touch disjoint index pairs, so they form one
    unitary J per member, and a round is A <- J* A J and V <- V J as
    batched matrix products, V starting at the stack of frames v. A and V
    share one (k, 2n, n) buffer, so A J and V J are one product.

    Rotation angles and the skip rule, target / 4n per member, are the
    scalar loop's, pair for pair; a skipped pair takes the identity
    (u = 1, t = 0), and its entries, at most its skip, are set to zero
    with the rest. A round whose pairs are all skipped only sets them to
    zero: its J is the identity, and the products would change no bit. A
    member leaves the stack at the start of the sweep where it would stop
    alone, so its sweeps and bits are those of a lone run. Returns one
    `_jacobi` result per member.
    """
    n = m.shape[1]
    upper = _upper_plan(n)
    w = np.concatenate((m, v), axis=1)
    members, solutions = list(range(len(m))), [None] * len(m)
    for sweep in range(MAX_JACOBI_SWEEPS + 1):
        stack, stay = w.reshape(-1, 2 * n, n), []
        for i, member in enumerate(members):
            off = stack[i, :n][upper]
            mass = math.sqrt(2.0 * np.vdot(off, off).real)
            if mass <= targets[member] or sweep == MAX_JACOBI_SWEEPS:
                solutions[member] = stack[i, :n].diagonal().real.copy(), stack[i, n:], mass
            else:
                stay.append(i)
        if not stay:
            break
        if sweep == 0 or len(stay) < len(members):
            # a lone member runs as a plain matrix, without the overhead of
            # batched calls
            pick = stay[0] if len(stay) == 1 else stay
            w, members = stack[pick], [members[i] for i in stay]
            plan = _rounds_plan(n, len(members))
            k = len(members) * (n // 2)  # pairs per round in the stack
            eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (*w.shape[:-2], n, n)).copy()
            skip = np.repeat([targets[i] / (4.0 * n) for i in members], n // 2)
        for place, gather, zero in plan:
            g = w.take(gather)
            h = g[:k]
            r = np.abs(h)
            dead = r <= skip
            if not dead.all():
                # skipped pairs take the identity and divide by 1, never by
                # an entry of 0
                r[dead] = 1.0
                u = h / r
                u[dead] = 1.0
                tau = (g[2 * k :].real - g[k : 2 * k].real) / (r + r)
                # tau = -0.0 takes +1, as tau >= 0 does in the scalar loop
                t = np.copysign(1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), tau + 0.0)
                t[dead] = 0.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                j = eye.copy()
                j.put(place, np.concatenate((-s, s * u, c * u, c)))
                w = w @ j
                w[..., :n, :] = j.conj().swapaxes(-1, -2) @ w[..., :n, :]
            w.view(np.float64).put(zero, 0.0)
    return solutions


def _checked_frame(q, shape: tuple[int, int]) -> np.ndarray:
    """The hint q as a complex matrix, or ValueError unless it has the
    shape of H, finite entries and ||Q*Q - I||_F <= the default identity_tol."""
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != shape:
        raise ValueError(f"frame has shape {q.shape}, expected {shape}")
    if not np.isfinite(q).all():
        raise ValueError("frame entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge frame's defect is inf or nan
        defect = frobenius_norm(q.conj().T @ q - np.eye(shape[0]))
    tol = DEFAULT_CONFIG.identity_tol
    if not defect <= tol:
        raise ValueError(f"frame is not unitary: ||Q*Q - I||_F = {defect:.3e} exceeds {tol:.1e}")
    return q


def hermitian_eigen(h, frame=None) -> HermitianEigen | list[HermitianEigen]:
    """Eigendecomposition of a Hermitian matrix by Jacobi rotations.

    Below `_ROUNDS_MIN_N` the rotations run in cyclic order, from that
    size on in round-robin order; both stop at the same target. Raises
    NotHermitian when the input asymmetry exceeds the default identity_tol,
    1e-10, and NoConvergence when the off-diagonal mass has not dropped below
    EIG_OFF_DIAG_TOL * ||H||_F within MAX_JACOBI_SWEEPS sweeps. Jacobi
    runs on 2^-e H, e = `_exponent(H)`, with entries below 1 and eigenvalues
    below n, whose mass neither underflows nor overflows, even where ||H||_F
    does; the scaling is exact and changes no bit. An eigenvalue that
    leaves the double range when scaled back raises NumericalError.

    A `frame` Q, a unitary matrix that nearly diagonalizes H, warm-starts
    the solver: Jacobi runs on the symmetrized congruence Q* (2^-e H) Q,
    formed after the scaling so that it cannot overflow, with its rotations
    accumulated onto Q, and stops at the same target. A frame of the wrong
    shape, with a non-finite entry or with ||Q*Q - I||_F above 1e-10
    raises ValueError.

    A stack of k matrices of one size, a (k, n, n) array or a sequence of
    matrices, gives the list of their k decompositions, each bit for bit
    what the member alone gives; its `frame` is None or a sequence of k
    frames, each a frame or None. Every member is checked before any runs,
    so the error raised is the NotHermitian or ValueError of the first
    member with a bad matrix or frame, else the NoConvergence of the first
    that does not converge, each with a single call's message. From
    `_ROUNDS_MIN_N` on the members share each round's numpy calls; below,
    the cyclic loop runs once per member.
    """
    stack = np.ndim(h) == 3
    members = h if stack else (h,)
    frames = [None] * len(members) if frame is None else frame if stack else (frame,)
    if len(frames) != len(members):
        raise ValueError(f"a stack of {len(members)} matrices takes {len(members)} frames, got {len(frames)}")
    # runs: (e, the matrix Jacobi runs on, the frame it starts from, target) of each member
    runs, n = [], 0
    for m, q in zip(members, frames):
        hm = require_hermitian(m)
        n, e = hm.shape[0], _exponent(hm)
        scaled = hm * math.ldexp(1.0, -e)
        target = EIG_OFF_DIAG_TOL * frobenius_norm(scaled)
        if q is None:
            q = np.eye(n, dtype=np.complex128)
        else:
            q = _checked_frame(q, hm.shape)
            scaled = q.conj().T @ scaled @ q
            scaled = (scaled + scaled.conj().T) / 2.0
        runs.append((e, scaled, q, target))
    if n >= _ROUNDS_MIN_N:
        solutions = _jacobi_rounds(np.stack([run[1] for run in runs]), np.stack([run[2] for run in runs]),
                                   [run[3] for run in runs])
    else:
        solutions = [_jacobi(m, q, target) for _, m, q, target in runs]
    out = []
    for (e, _, _, target), (lam, v, mass) in zip(runs, solutions):
        if not mass <= target:
            raise NoConvergence(
                f"off-diagonal mass {math.ldexp(mass, e):.3e} above "
                f"{math.ldexp(target, e):.3e} after {MAX_JACOBI_SWEEPS} sweeps (n = {n})"
            )
        order = np.argsort(lam, kind="stable")
        # |lam| < n < 2^bit_length(n), so 2^e lam can overflow only from here on
        if e + n.bit_length() > 1024 and float(np.max(np.abs(lam))) >= math.ldexp(1.0, 1024 - e):
            raise NumericalError(f"an eigenvalue leaves the double range (n = {n})")
        out.append(HermitianEigen(frame=v[:, order], eigenvalues=np.ldexp(lam[order], e)))
    return out if stack else out[0]


def _assemble(frame: np.ndarray, values: np.ndarray) -> np.ndarray:
    """frame @ diag(values) @ frame*, symmetrized against roundoff."""
    m = (frame * values) @ frame.conj().T
    return (m + m.conj().T) / 2.0


def _spectral_radius(eig: HermitianEigen) -> float:
    lam = eig.eigenvalues
    return max(abs(float(lam[0])), abs(float(lam[-1])))


def _exp_values(eig: HermitianEigen) -> np.ndarray:
    """`math.exp` at each eigenvalue (numpy's SIMD exp is not libm's), or
    DomainError at the first where it overflows."""
    values = []
    for lam in eig.eigenvalues.tolist():
        try:
            values.append(math.exp(lam))
        except OverflowError as exc:
            raise DomainError(f"exponential overflows at eigenvalue {lam!r}") from exc
    return np.array(values)


def _sqrt_values(eig: HermitianEigen) -> np.ndarray:
    floor = POSITIVITY_FLOOR * _spectral_radius(eig)
    lam = eig.eigenvalues
    if float(lam[0]) < -floor:
        raise DomainError(f"square root undefined at eigenvalue {float(lam[0])!r}")
    return np.sqrt(np.maximum(lam, 0.0))


def _positive_values(eig: HermitianEigen, what: str) -> np.ndarray:
    lam = eig.eigenvalues
    floor = POSITIVITY_FLOOR * _spectral_radius(eig)
    if float(lam[0]) <= floor:
        raise DomainError(f"{what} undefined at eigenvalue {float(lam[0])!r} (floor {floor:.3e})")
    return lam


def sqrtm(h) -> np.ndarray:
    """Positive square root of a positive semidefinite Hermitian matrix.

    Eigenvalues within the positivity floor of zero are clamped to zero;
    anything further negative raises DomainError.
    """
    return _sqrt_from(hermitian_eigen(h))


def _sqrt_from(eig: HermitianEigen) -> np.ndarray:
    """`sqrtm` of the matrix with spectrum eig."""
    return _assemble(eig.frame, _sqrt_values(eig))


def sqrt_and_inv_sqrt(h) -> tuple[np.ndarray, np.ndarray]:
    """Square root and inverse square root from a single eigendecomposition."""
    eig = hermitian_eigen(h)
    _positive_values(eig, "inverse square root")
    return _roots(eig)


def _roots(eig: HermitianEigen) -> tuple[np.ndarray, np.ndarray]:
    """A^{1/2} and A^{-1/2} from the spectrum of a positive definite A."""
    roots = np.sqrt(eig.eigenvalues)
    return _assemble(eig.frame, roots), _assemble(eig.frame, 1.0 / roots)


def logm(h) -> np.ndarray:
    """Logarithm of a positive definite Hermitian matrix."""
    eig = hermitian_eigen(h)
    lam = _positive_values(eig, "logarithm")
    return _assemble(eig.frame, np.log(lam))


def _gram(t: np.ndarray) -> np.ndarray:
    """T*T, Hermitian positive semidefinite up to roundoff, symmetrized."""
    gram = t.conj().T @ t
    return (gram + gram.conj().T) / 2.0


def polar(t) -> PolarParts:
    """Polar decomposition T = U |T| for invertible T.

    Raises Singular when the smallest singular value is within the
    positivity floor of zero; the partial-isometry completion for singular
    input is intentionally not provided.
    """
    t = as_matrix(t)
    eig = hermitian_eigen(_gram(t))
    return PolarParts(isometry=_isometry(t, eig), positive=_sqrt_from(eig))


def _isometry(t: np.ndarray, gram: HermitianEigen) -> np.ndarray:
    """The polar factor U = T |T|^{-1} from the spectrum of T*T, or Singular
    when T's smallest singular value is within the positivity floor of its
    largest. One Newton-Schulz step scrubs U's O(eps * cond) unitarity
    defect, taken only while that is well below 1, where the step contracts."""
    sing = np.sqrt(np.maximum(gram.eigenvalues, 0.0))
    largest = float(sing[-1])
    if largest == 0.0 or float(sing[0]) <= POSITIVITY_FLOOR * largest:
        raise Singular(
            f"smallest singular value {float(sing[0]):.3e} within floor of "
            f"{POSITIVITY_FLOOR:.1e} * {largest:.3e}"
        )
    u = t @ _assemble(gram.frame, 1.0 / sing)
    defect = u.conj().T @ u - np.eye(t.shape[0])
    if frobenius_norm(defect) < 0.5:
        u = u @ (np.eye(t.shape[0]) - defect / 2.0)
    return u


def _is_positive(eig: HermitianEigen) -> bool:
    return float(eig.eigenvalues[0]) > POSITIVITY_FLOOR * _spectral_radius(eig)
