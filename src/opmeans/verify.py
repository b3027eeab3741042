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

Everything about a pair derives from the spectral context an `HpdPair`
holds, in A's eigenframe, where the Frobenius norms and traces that make
up the report are unitarily invariant, so nothing returns to the original
frame. Each caller takes only what it emits. The pair's two gaps and its
trace gap need two passes of the eigensolver, over A and B as one stack
(none for a generated pair) and then the core; the full report adds
(A+Y)*(A+Y), for r4, to the core's pass, `means._take_cores`, the one
second pass of a report and of a sweep block. Since Y*Y is the core, r5
takes the polar factor of Y from the core's spectrum, by `_isometry`, the
one polar route, which `ando_hayashi_witness` takes too.
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
    POSITIVITY_FLOOR,
    Singular,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
    _assemble,
    _exponent,
    _gram,
    _isometry,
    _positive,
    _scale_exponent,
    _sqrt_from,
    _sqrt_values,
    _upper_plan,
)
from .means import HpdPair, _commutator, _from_frame, _gap, _graded, _take_cores

__all__ = [
    "Verdict",
    "GapReport",
    "WitnessReport",
    "DescentTrace",
    "TriangleEqualityFails",
    "proof_chain_report",
    "ando_hayashi_witness",
    "GapObjective",
    "minimize_gap",
]

# gaps above this are treated as firmly nonzero when classifying verdicts
VIOLATION_BAND = 1e-6
# descent stops once the squared normalized mean gap falls this low
OBJECTIVE_FLOOR = 1e-16
# finite-difference step of the gradient checks is FD_STEP_SCALE * (1 + ||R||_F)
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
    residuals       r1..r6 as described in the module docstring; r5 is
                    inf when the polar factor of Y was unavailable
    trace_gap       tr X - tr(A^{1/2} B^{1/2}) >= 0 up to roundoff, `HpdPair.trace_gap`
    """

    mean_gap: float
    commutator_gap: float
    residuals: dict[str, float]
    trace_gap: float


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
    final_b      B = Q (nu R~^4) Q* at the last accepted iterate, in the
                 units of the input A and B0
    stop_reason  "converged", "budget", or "no_descent" (a zero gradient,
                 or MAX_BACKTRACKS failed halvings in a row)
    """

    iterates: list[tuple[int, float, float, float]]
    final_b: np.ndarray
    stop_reason: str


def _relative(diff: np.ndarray, name: str, *terms: np.ndarray) -> float:
    """||diff||_F over the sum of the terms' Frobenius norms, summed left to
    right, or NumericalError for a sum out of (0, inf)."""
    scale = sum(frobenius_norm(t) for t in terms)
    if not 0.0 < scale < math.inf:
        raise NumericalError(f"residual {name} has normalizing scale {scale!r}, out of range")
    return frobenius_norm(diff) / scale


def proof_chain_report(p: HpdPair) -> GapReport:
    """Evaluate every identity residual for one pair.

    Everything comes from the pair's spectral context, which the means of
    the same pair share, and stays in A's eigenframe, where A is diag(a),
    A^{1/2} is diag(s) and each product with either is an entrywise
    scaling. The gram of A+Y, for r4, is decomposed by `_take_cores` in
    the pass that takes the core, or alone when the context already holds
    the core, so both give the same bits. The residuals are computed on the
    scaled pair, which leaves them unchanged; the trace gap is the pair's,
    in its units. A balanced pair is refused.
    """
    p._common_frame()
    lam, s, n = p.eig_a.eigenvalues, p.root_a, p.dim
    a, y = np.diag(lam), p.y
    apy = a + y
    # (A+Y)*(A+Y) needs Y but no X, so its spectrum, for r4, joins the core's pass
    gram = apy.conj().T @ apy
    (eig_gram,) = _take_cores([p], ((gram + gram.conj().T) / 2.0,))
    x = p.x
    diff = p.heron - p.wasserstein

    # r1: 4(heron - wasserstein) is the gap formula, whose terms are
    # A^{1/2}B^{1/2} = Y*, Y, A^{1/2}XA^{-1/2} and its adjoint
    cross = x * (s[:, None] / s)
    r1 = _relative(4.0 * diff - p.gap, "r1", y.conj().T, y, cross, cross.conj().T)

    # r2: the same identity conjugated by A^{1/2}
    ay = lam[:, None] * y
    ya = y.conj().T * lam
    ax = lam[:, None] * x
    xa = x * lam
    lhs2 = ay + ya - ax - xa
    r2 = _relative(lhs2 - 4.0 * np.outer(s, s) * diff, "r2", ay, ya, ax, xa)

    # r3: expansion of (A+Y)*(A+Y) - (A+X)^2 using Y*Y = X^2
    apx = a + x
    r3 = _relative(gram - apx @ apx - lhs2, "r3", gram)

    # r4: triangle equality |A+Y| = A + X (conditional on mean equality)
    r4 = _relative(_sqrt_from(eig_gram) - apx, "r4", apx)

    # r5: polar factor of Y collapses to the identity (conditional); Y*Y
    # is the core, so it comes from the core's spectrum
    try:
        u = _isometry(y, p.core[0])
        r5 = frobenius_norm(u - np.eye(n)) / math.sqrt(n)
    except Singular:
        r5 = math.inf

    # r6: self-adjointness of Y, the commutativity conclusion
    r6 = _relative(y - y.conj().T, "r6", y)

    return GapReport(
        mean_gap=p.mean_gap,
        commutator_gap=p.commutator_gap,
        residuals={"r1": r1, "r2": r2, "r3": r3, "r4": r4, "r5": r5, "r6": r6},
        trace_gap=p.trace_gap,
    )


def classify_gaps(mean_gap: float, comm_gap: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Verdict:
    """Verdict from the two gaps.

    Equality band is identity_tol; a commutator gap above VIOLATION_BAND
    together with an equality-band mean gap is CounterexampleToTheorem. It
    occurs on valid pairs: near a commuting pair whose eigenvalue ratios
    tie, the mean gap is second order in the commutator gap (ROADMAP,
    "Verdicts the theorem supports"); where B's spectrum spans many orders,
    as exp(log B0 + epsilon K) at a large epsilon, ||B||_F swamps the mean
    gap's normalization ("Scale-free verdicts"). Anything straddling the
    band in between is Indeterminate.
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


def ando_hayashi_witness(x, y, cfg: ToleranceConfig = DEFAULT_CONFIG) -> WitnessReport:
    """Recover the common polar factor guaranteed by |X+Y| = |X| + |Y|.

    Raises TriangleEqualityFails when the triangle residual exceeds
    identity_tol (the construction then does not apply): the Frobenius norm
    of |X+Y| - |X| - |Y| over that of |X+Y|, or, where |X+Y| = 0, over the
    sum of those of |X| and |Y|, so X = -Y != 0 fails. Raises Singular when
    X + Y is not invertible within the floor. The witness and the
    residuals are scale-free, so X and Y are first divided by the one
    common even power of two (exact) that brings their largest entry into
    [1, 4), which keeps their grams from overflowing or underflowing.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    unit = math.ldexp(1.0, 2 * _scale_exponent(_exponent(x), _exponent(y)))
    x, y = x / unit, y / unit
    total = x + y
    # one pass: the grams of X and Y, and that of X+Y for both |X+Y| and
    # its polar factor
    eig_x, eig_y, gram = hermitian_eigen((_gram(x), _gram(y), _gram(total)))
    abs_x, abs_y, abs_total = _sqrt_from(eig_x), _sqrt_from(eig_y), _sqrt_from(gram)
    denom = frobenius_norm(abs_total) or frobenius_norm(abs_x) + frobenius_norm(abs_y)
    residual = frobenius_norm(abs_total - abs_x - abs_y) / denom if denom > 0.0 else 0.0
    if residual > cfg.identity_tol:
        raise TriangleEqualityFails(residual)
    u = _isometry(total, gram)
    nx = frobenius_norm(x)
    ny = frobenius_norm(y)
    rx = frobenius_norm(x - u @ abs_x) / nx if nx > 0.0 else 0.0
    ry = frobenius_norm(y - u @ abs_y) / ny if ny > 0.0 else 0.0
    return WitnessReport(triangle_residual=residual, witness=u, factor_residuals=(rx, ry))


def _hermitian(coords: np.ndarray) -> np.ndarray:
    """sum_k c_k E_k over the directions E_k of the n^2-dimensional real
    space of Hermitian matrices: diagonal units, then (E_ij + E_ji) and
    i (E_ij - E_ji) for i < j."""
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
    """One evaluation of the gap objective at the chart point R~ of A's frame:
    the objective, the mean gap, whether it is `positive` (`GapObjective`),
    and R~, B~, B^{1/2}~, ||B||_F, 4(H - W)~ and the core's spectrum, which
    the gradient there and the trajectory's row read."""

    r: np.ndarray
    b: np.ndarray
    sqrt_b: np.ndarray
    eig_core: HermitianEigen
    roots: np.ndarray
    diff: np.ndarray
    norm_b: float
    gap: float
    objective: float
    positive: bool


class GapObjective:
    """Squared normalized mean gap as a function of the root chart of B.

    The free variable is a Hermitian R~ in A's frame (Q, a), with
    B^{1/2}~ = sqrt(nu) R~^2 and B~ = nu R~^4, so B is only semidefinite;
    nu is B0's largest eigenvalue in the context's units, and `start` is
    R~0 = W diag((b / nu)^{1/4}) W*, W = Q* Q_B, from the pair's spectrum
    of B0. The core and the gap are the pair's entrywise forms
    (`means._graded`, `means._gap`), whose weights s_i s_j and -w2 are
    taken once per objective, as are the commutator's a_i - a_j, which
    each trajectory row reads (`means._commutator`). Q is kept only for `minimize_gap` to return
    B to the original frame. A point is `positive` where the core
    C's eigenvalue ratio clears the positivity floor over cond(A), as it
    does wherever B's clears the floor, since
    ratio(B) >= ratio(C) / cond(A) >= ratio(B) / cond(A)^2. `evaluate`
    takes one eigendecomposition, of the core, and returns its point;
    `gradient` is exact at a positive point, polynomial in R~ but for the
    Daleckii-Krein formula on the core's spectrum, and is what the
    optimizer uses; forward differences along the n^2 real directions of
    R~ (`gradient_forward`) are an independent check. Both are Hermitian
    G with df = Re <G, dR~>, the Frobenius inner product.
    """

    def __init__(self, pair: HpdPair):
        self.frame, self.lam_a = pair.eig_a.frame, pair.eig_a.eigenvalues
        self.weights = pair.weights  # lam_a is positive: the weights take root_a
        self.neg_w2 = -self.weights[1]
        self.diff = self.lam_a[:, None] - self.lam_a  # the commutator's weights a_i - a_j
        self.unit = pair.unit
        self.norm_a = pair.norms[0]
        self.n = pair.dim
        self.core_floor = POSITIVITY_FLOOR * float(self.lam_a[0]) / float(self.lam_a[-1])
        eig_b = _positive(pair.eig_b, "b")
        self.nu = float(eig_b.eigenvalues[-1])
        if not self.nu * self.unit < math.inf:  # final_b returns to the pair's units
            raise NumericalError(f"an eigenvalue leaves the double range (n = {self.n})")
        self.root_nu = math.sqrt(self.nu)
        self.start = _assemble(self.frame.conj().T @ eig_b.frame, np.sqrt(np.sqrt(eig_b.eigenvalues / self.nu)))

    def evaluate(self, r) -> _ChartPoint:
        """The point at R~: the objective, the mean gap, B^{1/2}~ and B~."""
        r = np.array(r, dtype=np.complex128)
        # a B past DBL_MAX / 2 has inf or nan entries, which _graded reports
        with np.errstate(over="ignore", invalid="ignore"):
            sqrt_b = (r @ r) * self.root_nu
            b = sqrt_b @ sqrt_b
            core = _graded(self.weights[2], b)
        eig_core = hermitian_eigen(core)
        roots = _sqrt_values(eig_core.eigenvalues)
        diff = _gap(self.weights, sqrt_b, _assemble(eig_core.frame, roots))
        norm_b = frobenius_norm(b)
        if not self.norm_a * norm_b < math.inf:  # the commutator gap's denominator
            raise NumericalError(f"||A||_F ||B||_F = {self.norm_a!r} * {norm_b!r} leaves the double range")
        gap = frobenius_norm(diff) / (4.0 * (self.norm_a + norm_b))
        lam = eig_core.eigenvalues
        positive = float(lam[0]) > self.core_floor * float(lam[-1])
        return _ChartPoint(r, b, sqrt_b, eig_core, roots, diff, norm_b, gap, gap * gap, positive)

    def gradient(self, pt: _ChartPoint) -> np.ndarray:
        """Exact gradient at the point `evaluate` returned, the Hermitian
        G~ with df = Re <G~, dR~>.

        One reverse pass through f = ||G||_F^2 / (4N)^2, G = 4(H - W)~ =
        w1 o B^{1/2}~ - w2 o X~, N = ||A||_F + ||B||_F: the weights and the
        core's s_i s_j are their own adjoints, the core's square root takes
        the Daleckii-Krein formula on the point's spectrum, and B~ = nu P~^2
        and P~ = R~^2 the product rule, G~ = g_P R~ + R~ g_P, formed as
        M + M* with M = g_P R~, so that it is Hermitian to the last bit.
        """
        norm = self.norm_a + pt.norm_b
        # N ||B||_F <= N^2: the one underflows first, the other overflows first
        if not (0.0 < norm * pt.norm_b and norm * norm < math.inf):
            raise NumericalError(
                f"gradient normalization N = ||A||_F + ||B||_F = {norm!r} with ||B||_F = "
                f"{pt.norm_b!r}: N^2 or N ||B||_F leaves the double range"
            )
        if not pt.positive:  # the Daleckii-Krein step divides by sums of the roots
            lam = pt.eig_core.eigenvalues
            raise NumericalError(
                f"core eigenvalues {float(lam[0]):.3e} / {float(lam[-1]):.3e} below the floor {self.core_floor:.1e}"
            )
        g_diff = pt.diff * (0.125 / (norm * norm))
        # Daleckii-Krein: V (L o V* G V) V* with the square root's divided
        # differences L_ij = 1 / (roots_i + roots_j), its own adjoint
        v, vh = pt.eig_core.frame, pt.eig_core.frame.conj().T
        g_core = v @ ((vh @ (self.neg_w2 * g_diff) @ v) / (pt.roots[:, None] + pt.roots)) @ vh
        # N depends on B through d||B||_F = Re <B, dB> / ||B||_F
        norm_term = 2.0 * pt.gap * pt.gap / (norm * pt.norm_b)
        g_b = self.weights[2] * g_core - norm_term * pt.b
        g_p = (self.weights[0] * g_diff + g_b @ pt.sqrt_b + pt.sqrt_b @ g_b) * self.root_nu
        g_r = g_p @ pt.r
        return g_r + g_r.conj().T

    def gradient_forward(self, r) -> np.ndarray:
        """Forward-difference gradient with step FD_STEP_SCALE * (1 + ||R~||_F),
        an independent check on `gradient`, as a Hermitian matrix like it."""
        f0, h = self.evaluate(r).objective, FD_STEP_SCALE * (1.0 + frobenius_norm(r))
        g = np.empty(self.n * self.n)
        for k, e in enumerate(np.eye(self.n * self.n)):
            g[k] = (self.evaluate(r + h * _hermitian(e)).objective - f0) / h
        g[self.n:] /= 2.0  # ||E_k||_F^2 = 2 off the diagonal
        return _hermitian(g)


def minimize_gap(
    a,
    b0,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    budget: int = 1000,
) -> DescentTrace:
    """Drive the squared mean gap toward zero over B with A held fixed.

    Steepest descent R~ - t G~ in the Hermitian root chart of A's frame
    (B~ = nu R~^4) with the exact gradient (`GapObjective.gradient`, taken
    at the point whose evaluation accepted each iterate, so a step costs
    about one evaluation) and a halving backtracking line search (Armijo
    slope ARMIJO_SLOPE on ||G~||_F^2, at most MAX_BACKTRACKS halvings). The
    initial trial step of each line search is the Barzilai-Borwein
    estimate from the last accepted move, in Frobenius inner products
    (falling back to twice the last accepted step), which is what lets the
    descent cross the ill-conditioned valley floor within realistic
    budgets. No unitary congruence changes these inner products, so the
    descent on (UAU*, UB0U*) is that on (A, B0) up to roundoff. Stops when
    the objective reaches OBJECTIVE_FLOOR, the accepted-step budget is
    exhausted, or no descent step can be found; the last case stops with
    reason "no_descent" instead of raising. A trial point that is not
    `positive` (`GapObjective`) fails like the Armijo test; a start that
    is not, which only roundoff makes, is a NumericalError. A and B0 are
    checked by `HpdPair.validated`. Each iterate is the point `evaluate`
    returned, and its row is read from it, the commutator gap by
    `means._commutator`; `final_b`, in the input's units, is the last
    one's B~ taken back by Q . Q*, once, after the loop.
    """
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    obj = GapObjective(HpdPair.validated(a, b0, cfg))
    pt = obj.evaluate(obj.start)
    iterates: list[tuple[int, float, float, float]] = []
    stop_reason = "budget"
    trial_scale = 1.0
    prev_g: np.ndarray | None = None
    prev_move: np.ndarray | None = None
    for step in range(budget + 1):
        iterates.append((step, pt.gap, _commutator(obj.diff, pt.b, obj.norm_a, pt.norm_b), pt.objective))
        if pt.objective <= OBJECTIVE_FLOOR:
            stop_reason = "converged"
            break
        if step == budget:
            break
        g = obj.gradient(pt)
        gnorm2 = float(np.vdot(g, g).real)
        if gnorm2 == 0.0:
            stop_reason = "no_descent"
            break
        t = trial_scale
        if prev_g is not None:
            dg = g - prev_g
            dgg = float(np.vdot(dg, dg).real)
            if dgg > 0.0:
                bb = float(np.vdot(prev_move, dg).real) / dgg
                if bb > 0.0:
                    t = min(max(bb, 1e-12), 1e6)
        for _ in range(MAX_BACKTRACKS):
            trial = obj.evaluate(pt.r - t * g)
            if trial.positive and trial.objective <= pt.objective - ARMIJO_SLOPE * t * gnorm2:
                break
            t /= 2.0
        else:
            stop_reason = "no_descent"
            break
        prev_g = g
        prev_move = -t * g
        pt = trial
        trial_scale = min(t * 2.0, 1e6)
    return DescentTrace(iterates=iterates, final_b=_from_frame(obj.frame, pt.b) * obj.unit, stop_reason=stop_reason)
