"""Residuals, verdicts, and the gap-minimization experiment.

The central question this module quantifies: for positive definite A, B,
equality of the Heron-type and Wasserstein means forces AB = BA. The
analysis runs through a chain of identities in the intermediates
X = (A^{1/2} B A^{1/2})^{1/2} and Y = B^{1/2} A^{1/2}:

  r1  4(heron - wasserstein) = A^{1/2}B^{1/2} + B^{1/2}A^{1/2}
                               - A^{1/2}XA^{-1/2} - A^{-1/2}XA^{1/2}
  r2  AY + Y*A - AX - XA = 4 A^{1/2}(heron - wasserstein)A^{1/2}
  r3  (A+Y)*(A+Y) - (A+X)^2 = AY + Y*A - AX - XA   (uses Y*Y = X^2)
  r4  |A+Y| = A + X                (holds when the means are equal)
  r5  polar factor of Y = identity (holds when the means are equal)
  r6  Y = Y*                       (equivalent to AB = BA)

r1-r3 are unconditional algebra and must vanish for every valid pair; r4-r6
vanish exactly when the means coincide. Each residual is normalized by the
scale of the terms entering its own left-hand side (never by a difference
that can itself vanish, so commuting pairs do not divide zero by zero).

Everything about a pair derives from its spectral context
(`HpdPair.spectra`): the spectra of A, B and the core A^{1/2} B A^{1/2},
and each caller takes only what it emits. `pair_gaps` and
`trace_criterion` need nothing beyond the context: two passes of the
eigensolver, over A and B as one stack and then the core. The full report
adds (A+Y)*(A+Y), for r4, to the core's pass, since it needs no X: two
passes over four matrices. The second pass starts from A's frame: the
core and (A+Y)*(A+Y) = A^{1/2}(A^{1/2} + B^{1/2})^2 A^{1/2}, the two sides
of the triangle equality r4, are congruences through A^{1/2}, graded in
that frame and diagonal for a commuting pair. A generated pair carries
the spectra of A and B it was drawn from and skips the first pass; a pair
read from files, as `opmeans verify` reads it, takes both, and its second
pass starts from the frame the first gave A. Since Y*Y is the core, r5 takes
the polar factor of Y from the core's spectrum, by the one route that
`polar` and `ando_hayashi_witness` take too. The descent decomposes A and
the starting B0 once each, then evaluates its objective with two
eigendecompositions, of S and of the core, and takes its exact gradient
from those two spectra with none of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_CONFIG,
    HermitianEigen,
    NumericalError,
    Singular,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
    logm,
    require_hermitian,
    sqrt_and_inv_sqrt,
    _assemble,
    _gram,
    _isometry,
    _scale_exponent,
    _sqrt_from,
    _sqrt_values,
    _upper_plan,
)
from .means import HpdPair, _core, _heron_form, _wasserstein_form

__all__ = [
    "Verdict",
    "GapReport",
    "WitnessReport",
    "DescentTrace",
    "TriangleEqualityFails",
    "commutator_gap",
    "pair_gaps",
    "proof_chain_report",
    "trace_criterion",
    "ando_hayashi_witness",
    "GapObjective",
    "minimize_gap",
]

# gaps above this are treated as firmly nonzero when classifying verdicts
VIOLATION_BAND = 1e-6
# descent stops once the squared normalized mean gap falls this low
OBJECTIVE_FLOOR = 1e-16
# finite-difference step of the gradient checks is FD_STEP_SCALE * (1 + ||S||_F)
FD_STEP_SCALE = 1e-6
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 40


class TriangleEqualityFails(NumericalError):
    """|X+Y| differs from |X| + |Y| beyond tolerance; the witness construction
    does not apply."""

    def __init__(self, residual: float):
        super().__init__(f"triangle equality residual {residual:.3e} above tolerance")
        self.residual = residual


class Verdict(Enum):
    """Outcome of comparing the mean gap against the commutator gap."""

    MEANS_EQUAL_AND_COMMUTE = "MeansEqualAndCommute"
    BOTH_GAPS_POSITIVE = "BothGapsPositive"
    INDETERMINATE = "Indeterminate"
    COUNTEREXAMPLE_TO_THEOREM = "CounterexampleToTheorem"


@dataclass(frozen=True)
class GapReport:
    """Normalized gaps and identity residuals for one pair.

    mean_gap        ||heron - wasserstein||_F / (||A||_F + ||B||_F)
    commutator_gap  ||AB - BA||_F / (||A||_F ||B||_F)
    residuals       r1..r6 as described in the module docstring
    trace_gap       tr X - tr(A^{1/2} B^{1/2}), nonnegative up to roundoff
    polar_singular  True when the polar factor of Y was unavailable and r6's
                    companion residual r5 is reported as inf
    """

    mean_gap: float
    commutator_gap: float
    residuals: dict[str, float]
    trace_gap: float
    polar_singular: bool = False


@dataclass(frozen=True)
class WitnessReport:
    """Common polar factor recovered from an operator triangle equality."""

    triangle_residual: float
    witness: np.ndarray
    factor_residuals: tuple[float, float]


@dataclass(frozen=True)
class DescentTrace:
    """Accepted-iterate record of one gap-minimization run.

    iterates     (step, mean_gap, commutator_gap, objective) per accepted
                 step, starting with the initial point at step 0
    final_b      the matrix exp(S) at the last accepted iterate
    stop_reason  "converged", "budget", or "no_descent"
    states       the Hermitian chart points S per iterate when recording
                 was requested, else None
    """

    iterates: list[tuple[int, float, float, float]]
    final_b: np.ndarray
    stop_reason: str
    states: list[np.ndarray] | None = None

    @property
    def no_descent(self) -> bool:
        """A zero gradient, or MAX_BACKTRACKS failed halvings in a row."""
        return self.stop_reason == "no_descent"


def commutator_gap(a, b) -> float:
    """||AB - BA||_F / (||A||_F ||B||_F)."""
    a = as_matrix(a)
    b = as_matrix(b)
    return _commutator_gap(a, b, frobenius_norm(a) * frobenius_norm(b))


def _commutator_gap(a: np.ndarray, b: np.ndarray, denom: float) -> float:
    """`commutator_gap` with the product of the Frobenius norms given."""
    return frobenius_norm(a @ b - b @ a) / denom if denom != 0.0 else 0.0


def pair_gaps(p: HpdPair) -> tuple[float, float]:
    """(mean_gap, commutator_gap) without the full residual report."""
    s = p.spectra
    return s.mean_gap, commutator_gap(s.a, s.b)


def _relative(diff: np.ndarray, name: str, *terms: np.ndarray) -> float:
    """||diff||_F over the sum of the terms' Frobenius norms, summed left to
    right, or NumericalError for a sum out of (0, inf)."""
    scale = sum(frobenius_norm(t) for t in terms)
    if not 0.0 < scale < math.inf:
        raise NumericalError(f"residual {name} has normalizing scale {scale!r}, out of range")
    return frobenius_norm(diff) / scale


def proof_chain_report(p: HpdPair) -> GapReport:
    """Evaluate every identity residual for one pair.

    Everything comes from the pair's spectral context (`HpdPair.spectra`),
    which proof_intermediates and the means of the same pair share; the
    gram of A+Y, for r4, is decomposed in the pass that takes the core, or
    alone when the context already holds the core, from A's frame either
    way, so both give the same bits. The residuals are
    computed on the context's scaled pair, which leaves them unchanged;
    the trace gap is converted back to the pair's units.
    """
    s = p.spectra
    a, b, n = s.a, s.b, p.dim
    sqrt_a, sqrt_b, inv_sqrt_a, y = s.sqrt_a, s.sqrt_b, s.inv_sqrt_a, s.y
    apy = a + y
    # (A+Y)*(A+Y) needs Y but no X, so its spectrum, for r4, joins the core's pass
    gram = apy.conj().T @ apy
    eig_gram = s.spectrum_beside_core((gram + gram.conj().T) / 2.0)
    x = s.x
    diff = s.heron - s.wasserstein

    # r1: cross-term identity for 4(heron - wasserstein)
    sab = sqrt_a @ sqrt_b
    sxs_r = sqrt_a @ x @ inv_sqrt_a
    sxs_l = inv_sqrt_a @ x @ sqrt_a
    r1 = _relative(4.0 * diff - (sab + y - sxs_r - sxs_l), "r1", sab, y, sxs_r, sxs_l)

    # r2: the same identity conjugated by A^{1/2}
    ay = a @ y
    ya = y.conj().T @ a
    ax = a @ x
    xa = x @ a
    lhs2 = ay + ya - ax - xa
    r2 = _relative(lhs2 - 4.0 * (sqrt_a @ diff @ sqrt_a), "r2", ay, ya, ax, xa)

    # r3: expansion of (A+Y)*(A+Y) - (A+X)^2 using Y*Y = X^2
    apx = a + x
    r3 = _relative(gram - apx @ apx - lhs2, "r3", gram)

    # r4: triangle equality |A+Y| = A + X (conditional on mean equality)
    r4 = _relative(_sqrt_from(eig_gram) - apx, "r4", apx)

    # r5: polar factor of Y collapses to the identity (conditional); Y*Y
    # is the core, so it comes from the core's spectrum
    polar_singular = False
    try:
        u = _isometry(y, s.core[0])
        r5 = frobenius_norm(u - np.eye(n)) / math.sqrt(n)
    except Singular:
        polar_singular = True
        r5 = math.inf

    # r6: self-adjointness of Y, the commutativity conclusion
    r6 = _relative(y - y.conj().T, "r6", y)

    return GapReport(
        mean_gap=s.mean_gap,
        commutator_gap=commutator_gap(a, b),
        residuals={"r1": r1, "r2": r2, "r3": r3, "r4": r4, "r5": r5, "r6": r6},
        trace_gap=s.trace_gap * s.unit,
        polar_singular=polar_singular,
    )


def classify_gaps(mean_gap: float, comm_gap: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Verdict:
    """Verdict from the two gaps.

    Equality band is identity_tol; a commutator gap above VIOLATION_BAND
    together with an equality-band mean gap is CounterexampleToTheorem. It
    occurs on valid pairs: near a commuting pair whose eigenvalue ratios
    tie, the mean gap is second order in the commutator gap (ROADMAP item
    1). Anything straddling the band in between is Indeterminate.
    """
    tol = cfg.identity_tol
    means_equal = mean_gap <= tol
    if means_equal and comm_gap > VIOLATION_BAND:
        return Verdict.COUNTEREXAMPLE_TO_THEOREM
    if means_equal and comm_gap <= tol:
        return Verdict.MEANS_EQUAL_AND_COMMUTE
    if mean_gap > 10.0 * tol and comm_gap > 10.0 * tol:
        return Verdict.BOTH_GAPS_POSITIVE
    return Verdict.INDETERMINATE


def trace_criterion(p: HpdPair, cfg: ToleranceConfig = DEFAULT_CONFIG) -> tuple[float, bool]:
    """Trace witness for commutativity: tr X - tr(A^{1/2} B^{1/2}).

    By cyclicity of the trace, tr(heron) = (tr A + tr B)/4 + tr(A^{1/2}B^{1/2})/2
    and tr(wasserstein) = (tr A + tr B)/4 + tr(X)/2, so this gap equals
    2 (tr wasserstein - tr heron). It is also tr|Y| - tr Y >= 0, with
    equality exactly when Y is positive, i.e. when A and B commute.

    Returns (trace_gap, commute_flag) with the flag true when the gap is
    within identity_tol * tr X of zero. Equals the report's trace gap; on
    a validated pair it costs one eigendecomposition, of the core.
    """
    s = p.spectra
    gap = s.trace_gap
    return gap * s.unit, gap <= cfg.identity_tol * s.trace_x


def ando_hayashi_witness(x, y, cfg: ToleranceConfig = DEFAULT_CONFIG) -> WitnessReport:
    """Recover the common polar factor guaranteed by |X+Y| = |X| + |Y|.

    Raises TriangleEqualityFails when the triangle residual exceeds
    identity_tol (the construction then does not apply) and Singular when
    X + Y is not invertible within the floor. The witness and the
    residuals are scale-free, so X and Y are first divided by the one
    common even power of two (exact) that brings their largest entry into
    [1, 4), which keeps their grams from overflowing or underflowing.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    unit = math.ldexp(1.0, 2 * _scale_exponent(x, y))
    x, y = x / unit, y / unit
    total = x + y
    # one pass: the grams of X and Y, and that of X+Y for both |X+Y| and
    # its polar factor
    eig_x, eig_y, gram = hermitian_eigen((_gram(x), _gram(y), _gram(total)))
    abs_x, abs_y, abs_total = _sqrt_from(eig_x), _sqrt_from(eig_y), _sqrt_from(gram)
    denom = frobenius_norm(abs_total)
    residual = frobenius_norm(abs_total - abs_x - abs_y) / denom if denom > 0.0 else 0.0
    if residual > cfg.identity_tol:
        raise TriangleEqualityFails(residual)
    u = _isometry(total, gram)
    nx = frobenius_norm(x)
    ny = frobenius_norm(y)
    rx = frobenius_norm(x - u @ abs_x) / nx if nx > 0.0 else 0.0
    ry = frobenius_norm(y - u @ abs_y) / ny if ny > 0.0 else 0.0
    return WitnessReport(triangle_residual=residual, witness=u, factor_residuals=(rx, ry))


def _coords(g: np.ndarray) -> np.ndarray:
    """Re <G, E> for each coordinate direction E of the n^2-dimensional real
    space of Hermitian matrices: diagonal units, then (E_ij + E_ji) and
    i (E_ij - E_ji) for i < j."""
    n = g.shape[0]
    i, j = _upper_plan(n)
    upper, lower = g[i, j], g[j, i]
    coords = np.empty(n * n)
    coords[:n] = np.diag(g).real
    coords[n::2] = upper.real + lower.real
    coords[n + 1::2] = upper.imag - lower.imag
    return coords


def _hermitian(coords: np.ndarray) -> np.ndarray:
    """sum_k c_k E_k over the directions of `_coords`: Re <G, H(c)> = coords(G) . c."""
    n = math.isqrt(len(coords))
    i, j = _upper_plan(n)
    c = coords + 0.0  # -0.0 -> +0.0, the zeros that sum has
    h = np.diag(c[:n]).astype(np.complex128)
    sym, anti = c[n::2], 1j * c[n + 1::2]
    h[i, j] = sym + anti
    h[j, i] = sym - anti
    return h


@dataclass(frozen=True)
class _ChartPoint:
    """What one evaluation of the gap objective computes at S, kept so the
    gradient at that point takes no eigendecomposition of its own."""

    s: np.ndarray
    eig_s: HermitianEigen
    b: np.ndarray
    sqrt_b: np.ndarray
    eig_core: HermitianEigen
    roots: np.ndarray
    diff: np.ndarray
    norm_b: float
    gap: float


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x) / x, with the limit 1 at x = 0."""
    return np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)


def _frechet_adjoint(eig: HermitianEigen, divided: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q (L o Q* G Q) Q*: the Daleckii-Krein derivative of a matrix function
    with first divided differences L on the spectrum (Q, lambda), which is
    also its own adjoint since L is real and symmetric."""
    q = eig.frame
    qh = q.conj().T
    return q @ (divided * (qh @ g @ q)) @ qh


class GapObjective:
    """Squared normalized mean gap as a function of the log chart of B.

    The free variable is a Hermitian matrix S and the objective is
    mean_gap(A, exp(S))^2, so positivity of B is structural. `gradient` is
    exact, by the Daleckii-Krein formula on the spectra that `evaluate`
    takes, and is what the optimizer uses; the finite differences in the
    n^2 real coordinates of S (`gradient_forward`, `gradient_central`) are
    kept as independent checks.
    """

    def __init__(self, a, cfg: ToleranceConfig = DEFAULT_CONFIG):
        self.a = require_hermitian(a, cfg)
        self.sqrt_a, self.inv_sqrt_a = sqrt_and_inv_sqrt(self.a)
        self.norm_a = frobenius_norm(self.a)
        self.n = self.a.shape[0]
        self._last: _ChartPoint | None = None

    def evaluate(self, s) -> tuple[float, float, np.ndarray]:
        """(objective, mean_gap, exp(S)); exp(S/2) shares the one
        eigendecomposition of S. The point is kept for `gradient`."""
        s = np.array(s, dtype=np.complex128)
        eig = hermitian_eigen(s)
        b = _assemble(eig.frame, np.exp(eig.eigenvalues))
        sqrt_b = _assemble(eig.frame, np.exp(eig.eigenvalues / 2.0))
        eig_core = hermitian_eigen(_core(self.sqrt_a, b))
        roots = _sqrt_values(eig_core)
        x = _assemble(eig_core.frame, roots)
        heron = _heron_form(self.sqrt_a, sqrt_b)
        wass = _wasserstein_form(self.a, b, self.sqrt_a, self.inv_sqrt_a, x)
        diff = heron - wass
        norm_b = frobenius_norm(b)
        if not self.norm_a * norm_b < math.inf:  # the commutator gap's denominator
            raise NumericalError(
                f"||A||_F ||B||_F = {self.norm_a!r} * {norm_b!r} leaves the double range; scale the pair"
            )
        gap = frobenius_norm(diff) / (self.norm_a + norm_b)
        self._last = _ChartPoint(s, eig, b, sqrt_b, eig_core, roots, diff, norm_b, gap)
        return gap * gap, gap, b

    def gradient(self, s) -> np.ndarray:
        """Exact gradient in the coordinates of `_coords`.

        One reverse pass through f = ||D||_F^2 / N^2, D = heron - wasserstein,
        N = ||A||_F + ||B||_F: the Frechet derivatives of the core's square
        root and of exp(S) and exp(S/2) come from the Daleckii-Krein formula
        on the spectra of the core and of S. At the point of the latest
        `evaluate` they are reused; elsewhere S is evaluated first.
        """
        pt = self._last
        if pt is None or not np.array_equal(pt.s, s):
            self.evaluate(s)
            pt = self._last
        sqrt_a, inv_sqrt_a = self.sqrt_a, self.inv_sqrt_a
        norm = self.norm_a + pt.norm_b
        # N ||B||_F <= N^2: the one underflows first, the other overflows first
        if not (0.0 < norm * pt.norm_b and norm * norm < math.inf):
            raise NumericalError(
                f"gradient normalization N = ||A||_F + ||B||_F = {norm!r} with ||B||_F = "
                f"{pt.norm_b!r}: N^2 or N ||B||_F leaves the double range; scale the pair"
            )
        g_d = pt.diff * (2.0 / (norm * norm))
        avg = (sqrt_a + pt.sqrt_b) / 2.0
        g_sqrt_b = (g_d @ avg + avg @ g_d) / 2.0
        g_x = -(sqrt_a @ g_d @ inv_sqrt_a + inv_sqrt_a @ g_d @ sqrt_a) / 4.0
        g_core = _frechet_adjoint(pt.eig_core, 1.0 / (pt.roots[:, None] + pt.roots), g_x)
        # N depends on B through d||B||_F = Re <B, dB> / ||B||_F
        norm_term = 2.0 * pt.gap * pt.gap / (norm * pt.norm_b)
        g_b = sqrt_a @ g_core @ sqrt_a - g_d / 4.0 - norm_term * pt.b
        # divided differences of exp and exp(./2), written without cancellation
        lam = pt.eig_s.eigenvalues
        mid, half = (lam[:, None] + lam) / 2.0, (lam[:, None] - lam) / 2.0
        div_b = np.exp(mid) * _sinhc(half)
        div_sqrt_b = np.exp(mid / 2.0) * _sinhc(half / 2.0) / 2.0
        eig_s = pt.eig_s
        g_s = _frechet_adjoint(eig_s, div_b, g_b) + _frechet_adjoint(eig_s, div_sqrt_b, g_sqrt_b)
        return _coords(g_s)

    def step_size(self, s) -> float:
        return FD_STEP_SCALE * (1.0 + frobenius_norm(s))

    def gradient_forward(self, s) -> np.ndarray:
        """Forward-difference gradient, an independent check on `gradient`."""
        f0, h = self.evaluate(s)[0], self.step_size(s)
        g = np.empty(self.n * self.n)
        for k, e in enumerate(np.eye(self.n * self.n)):
            g[k] = (self.evaluate(s + h * _hermitian(e))[0] - f0) / h
        return g

    def gradient_central(self, s) -> np.ndarray:
        """Central-difference gradient, kept independent for spot checks."""
        h = self.step_size(s)
        g = np.empty(self.n * self.n)
        for k, e in enumerate(np.eye(self.n * self.n)):
            step = h * _hermitian(e)
            g[k] = (self.evaluate(s + step)[0] - self.evaluate(s - step)[0]) / (2.0 * h)
        return g


def minimize_gap(
    a,
    b0,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    budget: int = 1000,
    record_states: bool = False,
) -> DescentTrace:
    """Drive the squared mean gap toward zero over B with A held fixed.

    Steepest descent in the Hermitian log chart S (B = exp(S)) with the
    exact gradient (`GapObjective.gradient`, which reuses the spectra of
    the evaluation that accepted each iterate, so a step costs about one
    evaluation) and a halving backtracking line search (Armijo slope
    ARMIJO_SLOPE, at most MAX_BACKTRACKS halvings). The
    initial trial step of each line search is the Barzilai-Borwein
    estimate from the last accepted move (falling back to twice the last
    accepted step), which is what lets the descent cross the
    ill-conditioned valley floor within realistic budgets. Stops when the
    objective reaches OBJECTIVE_FLOOR, the accepted-step budget is
    exhausted, or no descent step can be found; the last case stops with
    reason "no_descent" instead of raising. B0 must be Hermitian (NotHermitian)
    and positive definite (DomainError from its logarithm).
    """
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    obj = GapObjective(a, cfg)
    b0 = require_hermitian(b0, cfg)
    if b0.shape != obj.a.shape:
        raise ValueError(f"dimension mismatch: {obj.a.shape} vs {b0.shape}")
    s = logm(b0)
    f, gap, b = obj.evaluate(s)
    # obj holds ||A||_F, and ||B||_F of the B its latest evaluation returned
    iterates = [(0, gap, _commutator_gap(obj.a, b, obj.norm_a * obj._last.norm_b), f)]
    states = [s] if record_states else None
    stop_reason = "budget"
    trial_scale = 1.0
    prev_g: np.ndarray | None = None
    prev_move: np.ndarray | None = None
    if f <= OBJECTIVE_FLOOR:
        stop_reason = "converged"
        budget = 0
    for step in range(1, budget + 1):
        g = obj.gradient(s)
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            stop_reason = "no_descent"
            break
        t = trial_scale
        if prev_g is not None:
            dg = g - prev_g
            dgg = float(dg @ dg)
            if dgg > 0.0:
                bb = float(prev_move @ dg) / dgg
                if bb > 0.0:
                    t = min(max(bb, 1e-12), 1e6)
        delta = -_hermitian(g)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            s_try = s + t * delta
            f_try, gap_try, b_try = obj.evaluate(s_try)
            if f_try <= f - ARMIJO_SLOPE * t * gnorm2:
                accepted = True
                break
            t /= 2.0
        if not accepted:
            stop_reason = "no_descent"
            break
        prev_g = g
        prev_move = -t * g
        s, f, gap, b = s_try, f_try, gap_try, b_try
        iterates.append((step, gap, _commutator_gap(obj.a, b, obj.norm_a * obj._last.norm_b), f))
        if states is not None:
            states.append(s)
        trial_scale = min(t * 2.0, 1e6)
        if f <= OBJECTIVE_FLOOR:
            stop_reason = "converged"
            break
    return DescentTrace(
        iterates=iterates,
        final_b=b,
        stop_reason=stop_reason,
        states=states,
    )
