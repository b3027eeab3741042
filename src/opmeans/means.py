"""Operator means on the positive-definite cone.

Three two-variable means of Hermitian positive-definite matrices:

  heron_mean          ((A^{1/2} + B^{1/2}) / 2)^2
  geometric_mean      A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}
  wasserstein_mean    (A + B + A (A^{-1} # B) + (A^{-1} # B) A) / 4

plus the intermediates X = (A^{1/2} B A^{1/2})^{1/2} and Y = B^{1/2} A^{1/2}
that the equality analysis in `verify` is phrased in. Since A^{-1} # B =
A^{-1/2} X A^{-1/2}, the Wasserstein mean is
(A + B + A^{1/2} X A^{-1/2} + A^{-1/2} X A^{1/2}) / 4.

All but the geometric mean are formed in A's eigenframe (Q, a), s = sqrt(a),
where A^{1/2} and A^{-1/2} are diagonal and each product with them is an
entrywise scaling: B~ = Q* B Q, B^{1/2}~ = W diag(sqrt b) W* with
W = Q* Q_B, the core s_i B~_ij s_j, X~ from its spectrum, Y~ = B^{1/2}~ diag(s),
and 4(H - W)~_ij = (s_i + s_j) B^{1/2}~_ij - ((a_i + a_j)/(s_i s_j)) X~_ij.
No A^{-1/2} is formed, and only the two means returned go back to the
original frame, by one congruence Q . Q*. The commutator AB - BA is
(a_i - a_j) B~_ij there. The geometric mean takes A's roots.

These come from three spectra, of A, of B and of the core, which an
`HpdPair`, the pair and its spectral context in one, computes at most once
each, in two passes of the eigensolver: A and B as one stack, unless the
pair carries them, then the core. The one stacked second pass is
`_take_cores`, over the cores of a sweep block's pairs or of one pair
beside (A+Y)*(A+Y) for `verify`'s r4; in A's frame the core is graded.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_CONFIG,
    HermitianEigen,
    NumericalError,
    ToleranceConfig,
    frobenius_norm,
    hermitian_eigen,
    require_hermitian,
    sqrtm,
    _as_matrices,
    _assemble,
    _each,
    _positive,
    _exponent,
    _scale_exponent,
    _sqrt_from,
    _sqrt_values,
)

__all__ = ["HpdPair", "geometric_mean", "heron_mean", "wasserstein_mean"]


def _weights(lam: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s_i + s_j, (a_i + a_j) / (s_i s_j), s_i s_j) from A's eigenvalues a
    and s = sqrt(a), or those of each member of a stack (k, n) of them."""
    si, sj = s[..., :, None], s[..., None, :]
    ss = si * sj
    return si + sj, (lam[..., :, None] + lam[..., None, :]) / ss, ss


def _graded(ss: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The core A^{1/2} B A^{1/2} in A's frame, ss o B~ symmetrized with
    ss = (s_i s_j), or those of a stack (k, n, n), or NumericalError where
    one leaves the double range (to be called under np.errstate where B~
    can overflow)."""
    core = (b + b.conj().swapaxes(-1, -2)) / 2.0 * ss
    if not np.isfinite(core).all():
        raise NumericalError("core A^{1/2} B A^{1/2} leaves the double range")
    return core


def _gap(weights: tuple[np.ndarray, ...], sqrt_b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """4(H - W) in A's frame, from B^{1/2} and X there and the pair's
    `weights` (s_i + s_j, (a_i + a_j) / (s_i s_j))."""
    return weights[0] * sqrt_b - weights[1] * x


def _commutator(diff: np.ndarray, b: np.ndarray, norm_a: float, norm_b: float) -> float:
    """||AB - BA||_F / (||A||_F ||B||_F) in A's frame, from the differences
    a_i - a_j of A's eigenvalues and B~, where the commutator's entries are
    (a_i - a_j) B~_ij."""
    denom = norm_a * norm_b
    return frobenius_norm(diff * b) / denom if denom != 0.0 else 0.0


def _from_frame(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Q M Q*, symmetrized against roundoff: M given in the frame Q, back in
    the original one, or that of each member of a stack (k, n, n)."""
    m = q @ m @ q.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


class HpdPair:
    """A pair of Hermitian positive-definite matrices of equal size, and its
    spectral context: the spectra of A, B and the core, and what derives
    from them. Construct through `HpdPair.validated` unless positivity is
    already guaranteed structurally.

    `a` and `b` are kept as given; `a_u` and `b_u` are the pair divided by
    `unit`, the even power of two chosen by `_scale_exponent`, or, where
    that leaves the smaller matrix's largest entry subnormal, the
    `balanced` one that brings the geometric mean of the two largest
    entries into [1, 8). A result of degree d in the pair returns to the
    pair's units times unit^d; gaps and residuals, ratios of terms of one
    degree, are unchanged. A's and B's spectra are taken on construction,
    in one pass, started from the unitary `frames` of A and of B where
    given (either may be None), unless they are `known` (in the pair's
    units), as the random generators pass the spectra they drew. Every
    matrix derived from them is in A's eigenframe, and is taken on first
    use, so that a drawn pair below the positivity floor can still be
    written; the core's spectrum too, alone or in `_take_cores`'s pass,
    with the same bits either way.
    """

    def __init__(self, a, b, known: tuple[HermitianEigen, HermitianEigen] | None = None,
                 frames: tuple | None = None):
        self.a, self.b = a, b
        (a, (top_a,)), (b, (top_b,)) = _as_matrices(a, 2), _as_matrices(b, 2)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        ea, eb = _exponent(top_a), _exponent(top_b)
        k = _scale_exponent(ea, eb)
        self.balanced = min(ea, eb) - 2 * k <= -1022
        k = (ea + eb - 2) // 4 if self.balanced else k
        self.unit = math.ldexp(1.0, 2 * k)
        self.a_u, self.b_u = a / self.unit, b / self.unit
        if known is None:
            self.eig_a, self.eig_b = hermitian_eigen((self.a_u, self.b_u), frame=frames)
        else:
            self.eig_a, self.eig_b = (HermitianEigen(e.frame, e.eigenvalues / self.unit) for e in known)

    @property
    def dim(self) -> int:
        return self.a_u.shape[0]

    @classmethod
    def validated(cls, a, b, cfg: ToleranceConfig = DEFAULT_CONFIG,
                  frames: tuple | None = None) -> "HpdPair":
        """Check both matrices, keeping the spectra the positivity check
        takes, which start from `frames` where given."""
        a = require_hermitian(a, cfg)
        b = require_hermitian(b, cfg)
        pair = cls(a, b, frames=frames)
        _positive(pair.eig_a, "a")
        _positive(pair.eig_b, "b")
        return pair

    def _common_frame(self) -> None:
        """NumericalError where the pair is balanced, where A^{-1/2} B A^{-1/2}
        and `verify`'s residuals are out of reach."""
        if self.balanced:
            raise NumericalError("matrices a and b are more than 2^1022 apart in scale")

    @cached_property
    def root_a(self) -> np.ndarray:
        """s = sqrt(a), A^{1/2} in its own frame."""
        return np.sqrt(_positive(self.eig_a, "a").eigenvalues)

    @cached_property
    def weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s_i + s_j, (a_i + a_j) / (s_i s_j), s_i s_j), the weights of
        B^{1/2} and of X in 4(H - W) (`_gap`) and of B~ in the core (`_graded`)."""
        return _weights(self.eig_a.eigenvalues, self.root_a)

    @cached_property
    def b_t(self) -> np.ndarray:
        """B~ = Q* B Q."""
        return _from_frame(self.eig_a.frame.conj().T, self.b_u)

    @cached_property
    def sqrt_b(self) -> np.ndarray:
        """B^{1/2}~ = W diag(sqrt b) W*, W = Q* Q_B."""
        return _assemble(self.eig_a.frame.conj().T @ self.eig_b.frame, _sqrt_values(self.eig_b.eigenvalues))

    @cached_property
    def core(self) -> tuple[HermitianEigen, np.ndarray]:
        """Spectrum of the core s_i B~_ij s_j and X~, its square root."""
        eig = hermitian_eigen(_graded(self.weights[2], self.b_t))
        return eig, _sqrt_from(eig)

    @property
    def x(self) -> np.ndarray:
        return self.core[1]

    @cached_property
    def y(self) -> np.ndarray:
        """Y~ = B^{1/2}~ diag(s), whose |Y~| is X~: Y~*Y~ is the core."""
        return self.sqrt_b * self.root_a

    @cached_property
    def gap(self) -> np.ndarray:
        """4(H - W)~, `_gap`."""
        return _gap(self.weights, self.sqrt_b, self.x)

    @cached_property
    def heron(self) -> np.ndarray:
        avg = (np.diag(self.root_a) + self.sqrt_b) / 2.0
        h = avg @ avg
        return (h + h.conj().T) / 2.0

    @cached_property
    def wasserstein(self) -> np.ndarray:
        """(A + B + the cross terms) / 4, whose sum is (a_i + a_j)/(s_i s_j) X~_ij."""
        return (np.diag(self.eig_a.eigenvalues) + self.b_t + self.weights[1] * self.x) / 4.0

    @cached_property
    def norms(self) -> tuple[float, float]:
        """(||A||_F, ||B||_F) of the scaled pair."""
        return frobenius_norm(self.a_u), frobenius_norm(self.b_u)

    @property
    def mean_gap(self) -> float:
        """||heron - wasserstein||_F / (||A||_F + ||B||_F), from `gap`."""
        norm_a, norm_b = self.norms
        return frobenius_norm(self.gap) / (4.0 * (norm_a + norm_b))

    @property
    def commutator_gap(self) -> float:
        """||AB - BA||_F / (||A||_F ||B||_F), `_commutator`."""
        lam = self.eig_a.eigenvalues
        return _commutator(lam[:, None] - lam, self.b_t, *self.norms)

    @property
    def trace_gap(self) -> float:
        """tr X - tr(A^{1/2} B^{1/2}) in the pair's units: 2 (tr wasserstein -
        tr heron) by the trace's cyclicity, and tr|Y| - tr Y >= 0, zero
        exactly when A and B commute."""
        return (float(np.trace(self.x).real) - float(self.root_a @ self.sqrt_b.diagonal().real)) * self.unit


def _take_cores(pairs: list[HpdPair], beside: tuple[np.ndarray, ...] = ()) -> list[HermitianEigen]:
    """The spectra of `beside`, taken in one pass with the cores of the
    pairs that have not cached theirs, which it fills. The pairs' terms,
    root_a, the weights, B~ and B^{1/2}~, then the cores and X~ from their
    spectra, are formed for all of them at once, in (k, n, n) operations
    that give each member the bits of its lone ones, and fill each pair's
    cached properties where it has not cached them. A pair whose A does not
    clear the positivity floor, or whose core or its root raises a
    NumericalError here, takes its core on first use; an error of the pass
    is raised."""
    todo = []
    for p in pairs:
        if "core" not in p.__dict__:
            with suppress(NumericalError):
                _positive(p.eig_a, "a")
                todo.append(p)
    if todo:
        lam = np.stack([p.eig_a.eigenvalues for p in todo])
        qh = np.stack([p.eig_a.frame for p in todo]).conj().swapaxes(-1, -2)
        s = np.sqrt(lam)
        terms = {"root_a": s, "weights": zip(*_weights(lam, s)),
                 "b_t": _from_frame(qh, np.stack([p.b_u for p in todo]))}
        with suppress(NumericalError):  # a B below the floor takes its root on first use
            roots = _sqrt_values(np.stack([p.eig_b.eigenvalues for p in todo]))
            terms["sqrt_b"] = _assemble(qh @ np.stack([p.eig_b.frame for p in todo]), roots)
        for name, values in terms.items():
            for p, value in zip(todo, values):
                p.__dict__.setdefault(name, value)
        cores = _each(_graded, np.stack([p.weights[2] for p in todo]), np.stack([p.b_t for p in todo]))
        todo = [(p, core) for p, core in zip(todo, cores) if not isinstance(core, NumericalError)]
    stack = [core for _, core in todo] + list(beside)
    eigs = hermitian_eigen(stack) if stack else []
    if todo:
        frames = np.stack([e.frame for e in eigs[: len(todo)]])
        lam = np.stack([e.eigenvalues for e in eigs[: len(todo)]])
        xs = _each(lambda q, values: _sqrt_from(HermitianEigen(q, values)), frames, lam)
        for (p, _), eig, x in zip(todo, eigs, xs):
            if not isinstance(x, NumericalError):
                p.core = eig, x  # fills the cached property
    return eigs[len(todo):]


def geometric_mean(p: HpdPair) -> np.ndarray:
    """Geometric mean A # B, the unique positive solution G of G A^{-1} G = B."""
    p._common_frame()
    q, s = p.eig_a.frame, p.root_a
    sqrt_a, inv_sqrt_a = _assemble(q, s), _assemble(q, 1.0 / s)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = inv_sqrt_a @ p.b_u @ inv_sqrt_a
        inner = (inner + inner.conj().T) / 2.0
    if not np.isfinite(inner).all():
        raise NumericalError("congruence A^{-1/2} B A^{-1/2} leaves the double range")
    g = sqrt_a @ sqrtm(inner) @ sqrt_a
    return require_hermitian(g) * p.unit


def heron_mean(p: HpdPair) -> np.ndarray:
    """Square of the arithmetic mean of the square roots.

    Equals (A + B + A^{1/2} B^{1/2} + B^{1/2} A^{1/2}) / 4 when expanded.
    """
    return _from_frame(p.eig_a.frame, p.heron) * p.unit


def wasserstein_mean(p: HpdPair) -> np.ndarray:
    """Wasserstein mean via the X-form.

    Hermitian in exact arithmetic; the result is symmetrized, but unlike
    the other two means it is not certified positive definite here.
    """
    return _from_frame(p.eig_a.frame, p.wasserstein) * p.unit
