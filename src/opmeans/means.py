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
A^{1/2} B A^{1/2}, which an `HpdPair`, the pair and its spectral context in
one, computes at most once each, in two passes of the eigensolver: A and B
as one stack on construction, then the core on first use. A full `verify`
report decomposes four matrices in those two passes, since (A+Y)*(A+Y),
for residual r4, joins the core's. The second pass starts from A's frame:
both of its matrices are congruences through A^{1/2}, so in that frame
they are graded, Lambda^{1/2} M Lambda^{1/2}, and diagonal for a commuting
pair. A pair from the random generators is built with the spectra of A
and B it was drawn from, and takes the second pass alone, from A's drawn
frame. A pair read from files that carry the frames `gen` drew starts its
first pass from them, which leaves each matrix diagonal up to roundoff:
the pass runs to the same target, and a frame of some other matrix only
costs sweeps.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_CONFIG,
    HermitianEigen,
    NumericalError,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
    require_hermitian,
    sqrtm,
    _positive,
    _roots,
    _exponent,
    _scale_exponent,
    _sqrt_from,
)

__all__ = ["HpdPair", "geometric_mean", "heron_mean", "wasserstein_mean"]


def _core(root: np.ndarray, b: np.ndarray, name: str = "core A^{1/2} B A^{1/2}") -> np.ndarray:
    """The symmetrized congruence root @ B @ root, by default the core
    A^{1/2} B A^{1/2}, or NumericalError, naming it, where it leaves the
    double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        core = root @ b @ root
        core = (core + core.conj().T) / 2.0
    if not np.isfinite(core).all():
        raise NumericalError(f"{name} leaves the double range")
    return core


def _heron_form(sqrt_a: np.ndarray, sqrt_b: np.ndarray) -> np.ndarray:
    """((A^{1/2} + B^{1/2}) / 2)^2, not yet symmetrized."""
    avg = (sqrt_a + sqrt_b) / 2.0
    return avg @ avg


def _cross_terms(sqrt_a, inv_sqrt_a, x) -> tuple[np.ndarray, np.ndarray]:
    """A^{1/2} X A^{-1/2} and A^{-1/2} X A^{1/2}, the Wasserstein mean's cross terms."""
    return sqrt_a @ x @ inv_sqrt_a, inv_sqrt_a @ x @ sqrt_a


def _wasserstein_form(a, b, cross) -> np.ndarray:
    """(A + B + the two cross terms) / 4, not yet symmetrized."""
    return (a + b + cross[0] + cross[1]) / 4.0


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
    units), as the random generators pass the spectra they drew. A's roots
    are formed on first use, once its spectrum clears the positivity
    floor, so that a drawn pair below the floor can still be written; the
    core's spectrum too, alone or beside another matrix
    (`spectrum_beside_core`), from A's frame on every route, so both give
    the same bits. Checks of computed matrices run at the default
    identity_tol.
    """

    def __init__(self, a, b, known: tuple[HermitianEigen, HermitianEigen] | None = None,
                 frames: tuple | None = None):
        self.a, self.b = a, b
        a, b = as_matrix(a), as_matrix(b)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        k, ea, eb = _scale_exponent(a, b), _exponent(a), _exponent(b)
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
    def _roots_a(self) -> tuple[np.ndarray, np.ndarray]:
        return _roots(_positive(self.eig_a, "a"))

    @property
    def sqrt_a(self) -> np.ndarray:
        return self._roots_a[0]

    @property
    def inv_sqrt_a(self) -> np.ndarray:
        return self._roots_a[1]

    @cached_property
    def sqrt_b(self) -> np.ndarray:
        return _sqrt_from(self.eig_b)

    @cached_property
    def core(self) -> tuple[HermitianEigen, np.ndarray]:
        """Spectrum of the core A^{1/2} B A^{1/2} and X, its square root."""
        eig = hermitian_eigen(_core(self.sqrt_a, self.b_u), frame=self.eig_a.frame)
        return eig, _sqrt_from(eig)

    def spectrum_beside_core(self, h: np.ndarray) -> HermitianEigen:
        """Spectrum of h, a congruence through A^{1/2} like the core, taken
        from A's frame in one pass with the core's unless that is already
        known."""
        frame = self.eig_a.frame
        if "core" in self.__dict__:
            return hermitian_eigen(h, frame=frame)
        core = _core(self.sqrt_a, self.b_u)
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
    def cross(self) -> tuple[np.ndarray, np.ndarray]:
        """A^{1/2} X A^{-1/2} and A^{-1/2} X A^{1/2}, for the Wasserstein mean and r1."""
        return _cross_terms(self.sqrt_a, self.inv_sqrt_a, self.x)

    @cached_property
    def heron(self) -> np.ndarray:
        return require_hermitian(_heron_form(self.sqrt_a, self.sqrt_b))

    @cached_property
    def wasserstein(self) -> np.ndarray:
        return require_hermitian(_wasserstein_form(self.a_u, self.b_u, self.cross))

    @property
    def mean_gap(self) -> float:
        """||heron - wasserstein||_F / (||A||_F + ||B||_F)."""
        diff = frobenius_norm(self.heron - self.wasserstein)
        return diff / (frobenius_norm(self.a_u) + frobenius_norm(self.b_u))

    @property
    def trace_x(self) -> float:
        return float(np.trace(self.x).real)

    @property
    def trace_gap(self) -> float:
        """tr X - tr(A^{1/2} B^{1/2}), in units of the scaled pair."""
        return self.trace_x - float(np.einsum("ij,ji->", self.sqrt_a, self.sqrt_b).real)


def geometric_mean(p: HpdPair) -> np.ndarray:
    """Geometric mean A # B, the unique positive solution G of G A^{-1} G = B."""
    p._common_frame()
    inner = _core(p.inv_sqrt_a, p.b_u, "congruence A^{-1/2} B A^{-1/2}")
    g = p.sqrt_a @ sqrtm(inner) @ p.sqrt_a
    return require_hermitian(g) * p.unit


def heron_mean(p: HpdPair) -> np.ndarray:
    """Square of the arithmetic mean of the square roots.

    Equals (A + B + A^{1/2} B^{1/2} + B^{1/2} A^{1/2}) / 4 when expanded.
    """
    return p.heron * p.unit


def wasserstein_mean(p: HpdPair) -> np.ndarray:
    """Wasserstein mean via the X-form.

    Hermitian in exact arithmetic; the result is symmetrized, but unlike
    the other two means it is not certified positive definite here.
    """
    return p.wasserstein * p.unit

