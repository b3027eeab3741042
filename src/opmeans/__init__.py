"""Operator-means laboratory on the positive-definite cone.

Computes the Heron-type, Kubo-Ando geometric, and Wasserstein means of
Hermitian positive-definite matrices, measures the residuals of the
identity chain that links equality of the first and last of these means
to commutativity, and drives the gap-minimization experiment that probes
that linkage numerically.
"""

from .linalg import (
    DEFAULT_CONFIG,
    DomainError,
    HermitianEigen,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    NumericalError,
    PolarParts,
    Singular,
    ToleranceConfig,
    abs_op,
    adjoint,
    commutator,
    expm,
    frobenius_norm,
    hermitian_eigen,
    invm,
    inv_sqrtm,
    is_positive_definite,
    logm,
    matrix_function,
    polar,
    sqrtm,
)
from .means import (
    HpdPair,
    PairSpectra,
    ProofIntermediates,
    bw_distance_sq,
    geometric_mean,
    heron_mean,
    proof_intermediates,
    wasserstein_mean,
)
from .verify import (
    DescentTrace,
    GapObjective,
    GapReport,
    TriangleEqualityFails,
    Verdict,
    WitnessReport,
    ando_hayashi_witness,
    commutator_gap,
    minimize_gap,
    pair_gaps,
    proof_chain_report,
    theorem_check,
    trace_criterion,
)
from .randgen import (
    GenSpec,
    InvalidSpec,
    SplitMix64,
    mix_seed,
    near_commuting_pair,
    random_commuting_pair,
    random_hpd,
)
from .sweep import SweepRow, SweepSpec, run_sweep

__version__ = "0.1.0"
