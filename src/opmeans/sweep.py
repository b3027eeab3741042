"""Batch sweeps over the near-commuting perturbation size.

A row carries the two gaps and the trace gap of one generated pair, all
taken from the pair's spectral context, in A's eigenframe. The pairs come
from the generators' one builder, `randgen._drawn_pairs`, with the
spectra of A and B they were drawn from, so a row decomposes the
generator's perturbed logarithm at epsilon > 0, started from B0's drawn
frame, and the core, which in A's drawn frame is diagonal to O(epsilon)
and at epsilon = 0 takes no rotating sweep. A block of rows takes these
in two passes, the logarithms in the builder, then the cores in the one
second pass, `means._take_cores`, as a `verify` report does; a large
stack runs round-robin, whose last digits differ from a lone call's.
Around the passes a block is one stack too, from its frames to its gap
terms, built in (k, n, n) operations that give each row the bits of its
lone ones; a row reads only its norms, gaps and traces alone.
`verify` on the same matrices read back from `gen` files decomposes A and
B itself, so its gaps can differ from the row's in the last digits. The
residual report is not built, since a row does not print it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace

from .linalg import DEFAULT_CONFIG, NumericalError, ToleranceConfig
from .means import _take_cores
from .randgen import GenSpec, InvalidSpec, _drawn_pairs, _trial_seeds
from .verify import classify_gaps

__all__ = ["SweepSpec", "SweepRow", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """A grid of perturbation sizes with repeated trials per size.

    base.seed acts as the master seed; trial (i, t) runs with epsilons[i]
    and seed k of `randgen._trial_seeds(base.seed, ...)`,
    k = i * trials_per_epsilon + t.
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


# rows decomposed together; it bounds a long sweep's memory
_BLOCK = 32


def run_sweep(spec: SweepSpec, cfg: ToleranceConfig = DEFAULT_CONFIG) -> list[SweepRow]:
    """One row per (epsilon, trial), in deterministic grid order, read from
    the pairs `randgen._drawn_pairs` builds for each block of `_BLOCK`
    rows, base at the trial's seed and epsilon, commuting at epsilon = 0,
    whose cores `means._take_cores` then takes in one pass, or, where that
    fails, each alone. Numerical failures are recorded per row rather than
    aborting the batch.
    """
    epsilons = [eps for eps in spec.epsilons for _ in range(spec.trials_per_epsilon)]
    grid = list(zip(epsilons, _trial_seeds(spec.base.seed, len(epsilons))))
    rows: list[SweepRow] = []
    for start in range(0, len(grid), _BLOCK):
        block = grid[start : start + _BLOCK]
        pairs = _drawn_pairs([replace(spec.base, seed=seed) for _, seed in block], [eps for eps, _ in block])
        with suppress(NumericalError):
            _take_cores([p for p in pairs if not isinstance(p, NumericalError)])
        for (eps, seed), pair in zip(block, pairs):
            try:
                if isinstance(pair, NumericalError):
                    raise pair
                mean_gap, comm_gap, trace_gap = pair.mean_gap, pair.commutator_gap, pair.trace_gap
                verdict = classify_gaps(mean_gap, comm_gap, cfg).value
            except NumericalError as exc:
                mean_gap = comm_gap = trace_gap = math.nan
                verdict = f"error:{type(exc).__name__}"
            rows.append(SweepRow(eps, seed, mean_gap, comm_gap, trace_gap, verdict))
    return rows
