"""Batch sweeps over the near-commuting perturbation size.

A row carries the two gaps and the trace gap of one generated pair, all
taken from the pair's spectral context, in A's eigenframe. The pair is
built with the spectra of A and B it was drawn from, so a row decomposes
the core alone at epsilon = 0, and the generator's perturbed logarithm,
started from B0's drawn frame, and then the core at epsilon > 0. In A's
drawn frame the core is diagonal to O(epsilon), so at epsilon = 0 it takes
no rotating sweep. `verify` on the same matrices read back from `gen`
files decomposes A and B itself, so its gaps can differ from the row's in
the last digits. The residual report is not built, since a row does not
print it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .linalg import DEFAULT_CONFIG, NumericalError, ToleranceConfig
from .randgen import GenSpec, InvalidSpec, mix_seed, near_commuting_pair
from .verify import classify_gaps, trace_criterion

__all__ = ["SweepSpec", "SweepRow", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """A grid of perturbation sizes with repeated trials per size.

    base.seed acts as the master seed; trial (i, t) runs with
    mix_seed(base.seed, i * trials_per_epsilon + t).
    """

    base: GenSpec
    epsilons: tuple[float, ...]
    trials_per_epsilon: int

    def __post_init__(self) -> None:
        if len(self.epsilons) == 0:
            raise InvalidSpec("epsilons must be non-empty")
        if any(not e >= 0.0 for e in self.epsilons):  # NaN fails too
            raise InvalidSpec("epsilons must be >= 0")
        if math.inf in self.epsilons:
            raise InvalidSpec("epsilons must be finite")
        if any(b <= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise InvalidSpec("epsilons must be strictly increasing")
        trials = self.trials_per_epsilon
        if not isinstance(trials, int) or isinstance(trials, bool):
            raise InvalidSpec(f"trials_per_epsilon must be an integer, got {trials!r}")
        if trials < 1:
            raise InvalidSpec("trials_per_epsilon must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    """One (epsilon, trial) outcome; verdict is "error:<Type>" and the
    gaps are NaN when that trial failed numerically."""

    epsilon: float
    seed: int
    mean_gap: float
    commutator_gap: float
    trace_gap: float
    verdict: str


def run_sweep(spec: SweepSpec, cfg: ToleranceConfig = DEFAULT_CONFIG) -> list[SweepRow]:
    """One row per (epsilon, trial), in deterministic grid order.

    Numerical failures are recorded per row rather than aborting the
    batch.
    """
    rows: list[SweepRow] = []
    for ei, eps in enumerate(spec.epsilons):
        for trial in range(spec.trials_per_epsilon):
            seed = mix_seed(spec.base.seed, ei * spec.trials_per_epsilon + trial)
            gspec = replace(spec.base, seed=seed, family="near_commuting", epsilon=eps)
            try:
                pair = near_commuting_pair(gspec)
                mean_gap, comm_gap = pair.mean_gap, pair.commutator_gap
                trace_gap = trace_criterion(pair)[0]
                verdict = classify_gaps(mean_gap, comm_gap, cfg).value
            except NumericalError as exc:
                mean_gap = comm_gap = trace_gap = math.nan
                verdict = f"error:{type(exc).__name__}"
            rows.append(SweepRow(eps, seed, mean_gap, comm_gap, trace_gap, verdict))
    return rows
