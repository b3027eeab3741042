"""Operator means on the positive-definite cone.

Three two-variable means of Hermitian positive-definite matrices:

  heron_mean          ((A^{1/2} + B^{1/2}) / 2)^2
  geometric_mean      A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}
  wasserstein_mean    (A + B + A (A^{-1} # B) + (A^{-1} # B) A) / 4

plus the intermediates X = (A^{1/2} B A^{1/2})^{1/2} and Y = B^{1/2} A^{1/2}
that the equality analysis in `verify` is phrased in. Since A^{-1} # B =
A^{-1/2} X A^{-1/2}, the Wasserstein mean is evaluated as
(A + B + A^{1/2} X A^{-1/2} + A^{-1/2} X A^{1/2}) / 4.

All of these come from three spectra, of A, of B and of the core
A^{1/2} B A^{1/2}, which a pair's `PairSpectra` computes at most once each,
in two passes of the eigensolver: A and B as one stack, then the core. A
full `verify` report decomposes four matrices in those two passes, since
(A+Y)*(A+Y), for residual r4, joins the core's. The second pass starts
from A's frame: both of its matrices are congruences through A^{1/2}, so
in that frame they are graded, Lambda^{1/2} M Lambda^{1/2}, and diagonal
for a commuting pair. A pair from the random generators carries the
spectra of A and B it was built from, and its context takes the second
pass alone, from A's drawn frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_CONFIG,
    HermitianEigen,
    NotPositiveDefinite,
    NumericalError,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
    require_hermitian,
    sqrtm,
    _is_positive,
    _roots,
    _scale_exponent,
    _sqrt_from,
)

__all__ = [
    "HpdPair",
    "PairSpectra",
    "ProofIntermediates",
    "proof_intermediates",
    "geometric_mean",
    "heron_mean",
    "wasserstein_mean",
]


def _core(root: np.ndarray, b: np.ndarray, name: str = "core A^{1/2} B A^{1/2}") -> np.ndarray:
    """The symmetrized congruence root @ B @ root, by default the core
    A^{1/2} B A^{1/2}, or NumericalError, naming it, where it leaves the
    double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        core = root @ b @ root
        core = (core + core.conj().T) / 2.0
    if not np.isfinite(core).all():
        raise NumericalError(f"{name} leaves the double range; scale the pair")
    return core


def _heron_form(sqrt_a: np.ndarray, sqrt_b: np.ndarray) -> np.ndarray:
    """((A^{1/2} + B^{1/2}) / 2)^2, not yet symmetrized."""
    avg = (sqrt_a + sqrt_b) / 2.0
    return avg @ avg


def _wasserstein_form(a, b, sqrt_a, inv_sqrt_a, x) -> np.ndarray:
    """(A + B + A^{1/2} X A^{-1/2} + A^{-1/2} X A^{1/2}) / 4, not yet symmetrized."""
    return (a + b + sqrt_a @ x @ inv_sqrt_a + inv_sqrt_a @ x @ sqrt_a) / 4.0


class PairSpectra:
    """The spectra of A, B and the core of one pair, and what derives from them.

    A's and B's spectra are taken on construction, in one pass, unless
    they are `known` (in the pair's units), and the core's on first use,
    alone or beside another matrix (`spectrum_beside_core`). Either way
    A's spectrum must clear the positivity floor. X comes from the core
    spectrum. The eigensolver starts the core and the matrix beside it
    from A's frame, drawn or computed, on every route, so they give the
    same bits: both are congruences through A^{1/2}, graded in that frame.
    The matrices held belong to the pair divided by `unit`, the even power of
    two chosen by `_scale_exponent`: a result of degree d in the pair
    returns to the pair's units times unit^d, while gaps and residuals,
    ratios of terms of one degree, are unchanged. It takes no tolerance:
    its checks of computed matrices run at the default identity_tol.
    """

    def __init__(self, a, b, known: tuple[HermitianEigen, HermitianEigen] | None = None):
        a, b = as_matrix(a), as_matrix(b)
        k = _scale_exponent(a, b)
        self.unit, self.root_unit = math.ldexp(1.0, 2 * k), math.ldexp(1.0, k)
        self.a, self.b = a / self.unit, b / self.unit
        if known is None:
            self.eig_a, self.eig_b = hermitian_eigen((self.a, self.b))
        else:
            self.eig_a, self.eig_b = (HermitianEigen(e.frame, e.eigenvalues / self.unit) for e in known)
        if not _is_positive(self.eig_a):
            raise NotPositiveDefinite("matrix a is not positive definite")
        self.sqrt_a, self.inv_sqrt_a = _roots(self.eig_a)

    @cached_property
    def sqrt_b(self) -> np.ndarray:
        return _sqrt_from(self.eig_b)

    @cached_property
    def core(self) -> tuple[HermitianEigen, np.ndarray]:
        """Spectrum of the core A^{1/2} B A^{1/2} and X, its square root."""
        eig = hermitian_eigen(_core(self.sqrt_a, self.b), frame=self.eig_a.frame)
        return eig, _sqrt_from(eig)

    def spectrum_beside_core(self, h: np.ndarray) -> HermitianEigen:
        """Spectrum of h, a congruence through A^{1/2} like the core, taken
        from A's frame in one pass with the core's unless that is already
        known."""
        frame = self.eig_a.frame
        if "core" in self.__dict__:
            return hermitian_eigen(h, frame=frame)
        core = _core(self.sqrt_a, self.b)
        eig_core, eig = hermitian_eigen((core, h), frame=(frame, frame))
        self.core = eig_core, _sqrt_from(eig_core)  # fills the cached property
        return eig

    @property
    def x(self) -> np.ndarray:
        return self.core[1]

    @cached_property
    def y(self) -> np.ndarray:
        """Y = B^{1/2} A^{1/2}, whose |Y| is X: Y*Y is the core."""
        return self.sqrt_b @ self.sqrt_a

    @cached_property
    def heron(self) -> np.ndarray:
        return require_hermitian(_heron_form(self.sqrt_a, self.sqrt_b))

    @cached_property
    def wasserstein(self) -> np.ndarray:
        w = _wasserstein_form(self.a, self.b, self.sqrt_a, self.inv_sqrt_a, self.x)
        return require_hermitian(w)

    @property
    def mean_gap(self) -> float:
        """||heron - wasserstein||_F / (||A||_F + ||B||_F)."""
        diff = frobenius_norm(self.heron - self.wasserstein)
        return diff / (frobenius_norm(self.a) + frobenius_norm(self.b))

    @property
    def trace_x(self) -> float:
        return float(np.trace(self.x).real)

    @property
    def trace_gap(self) -> float:
        """tr X - tr(A^{1/2} B^{1/2}), in units of the scaled pair."""
        return self.trace_x - float(np.einsum("ij,ji->", self.sqrt_a, self.sqrt_b).real)


@dataclass(frozen=True)
class HpdPair:
    """A pair of Hermitian positive-definite matrices of equal size.

    Construct through `HpdPair.validated` unless positivity is already
    guaranteed structurally. The random generators build pairs through
    `_from_spectra`, which keeps the spectra of A and B they were drawn
    from; the pair's one context takes those instead of decomposing A and
    B, so its results can differ from those of the same matrices read back
    from files in the last digits.
    """

    a: np.ndarray
    b: np.ndarray
    _drawn: tuple[HermitianEigen, HermitianEigen] | None = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def _from_spectra(cls, a, b, eig_a: HermitianEigen, eig_b: HermitianEigen) -> "HpdPair":
        """A pair that keeps the spectra it was assembled from."""
        pair = cls(a=a, b=b)
        object.__setattr__(pair, "_drawn", (eig_a, eig_b))
        return pair

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def spectra(self) -> PairSpectra:
        """The pair's spectral context, built on first use and kept."""
        return PairSpectra(self.a, self.b, self._drawn)

    @classmethod
    def validated(cls, a, b, cfg: ToleranceConfig = DEFAULT_CONFIG) -> "HpdPair":
        """Check both matrices, keeping the spectra the positivity check takes."""
        a = require_hermitian(a, cfg)
        b = require_hermitian(b, cfg)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        pair = cls(a=a, b=b)
        if not _is_positive(pair.spectra.eig_b):
            raise NotPositiveDefinite("matrix b is not positive definite")
        return pair


@dataclass(frozen=True)
class ProofIntermediates:
    """X, Y and the square-root factors entering the equality analysis.

    x = (A^{1/2} B A^{1/2})^{1/2}, positive definite;
    y = B^{1/2} A^{1/2}, generally non-Hermitian with Y*Y = X^2.
    """

    x: np.ndarray
    y: np.ndarray
    sqrt_a: np.ndarray
    sqrt_b: np.ndarray
    inv_sqrt_a: np.ndarray


def proof_intermediates(p: HpdPair) -> ProofIntermediates:
    """X, Y, A^{1/2}, B^{1/2}, A^{-1/2} of a pair, in the pair's units."""
    s = p.spectra
    return ProofIntermediates(
        x=s.x * s.unit,
        y=s.y * s.unit,
        sqrt_a=s.sqrt_a * s.root_unit,
        sqrt_b=s.sqrt_b * s.root_unit,
        inv_sqrt_a=s.inv_sqrt_a / s.root_unit,
    )


def geometric_mean(p: HpdPair) -> np.ndarray:
    """Geometric mean A # B, the unique positive solution G of G A^{-1} G = B."""
    s = p.spectra
    inner = _core(s.inv_sqrt_a, s.b, "congruence A^{-1/2} B A^{-1/2}")
    g = s.sqrt_a @ sqrtm(inner) @ s.sqrt_a
    return require_hermitian(g) * s.unit


def heron_mean(p: HpdPair) -> np.ndarray:
    """Square of the arithmetic mean of the square roots.

    Equals (A + B + A^{1/2} B^{1/2} + B^{1/2} A^{1/2}) / 4 when expanded.
    """
    s = p.spectra
    return s.heron * s.unit


def wasserstein_mean(p: HpdPair) -> np.ndarray:
    """Wasserstein mean via the X-form.

    Hermitian in exact arithmetic; the result is symmetrized, but unlike
    the other two means it is not certified positive definite here.
    """
    s = p.spectra
    return s.wasserstein * s.unit

