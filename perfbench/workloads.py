"""The three workloads: inputs, operations, output checks and self-tests.

Each workload writes its inputs in `prepare` (timed as set-up), names the
`opmeans` command lines of one round in `Op`s, and checks the files one
round wrote against `oracle`. A check returns, per unit of work (a CSV row
for a sweep, a pair for verify, a run for minimize), whether it passed and
the decimal digits of its accuracy measure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

import oracle

GAP_TOL = 1e-11          # oracle agreement of normalized gaps
IDENTITY_TOL = 1e-10     # r1-r3 hold for every pair
COMMUTING_TOL = 1e-9     # r4-r6 on commuting pairs
HOMOGENEITY_TOL = 1e-9   # relative agreement of a scaled pair with its twin
DESCENT_TARGET = 1e-8    # mean gap a converged descent run reaches
COMMUTE_AT_TARGET = 1e-4


@dataclass
class Op:
    """One `opmeans` command line of a round.

    units   work units it stands for (CSV rows for a sweep call)
    edge    inputs outside the domain the program handles today
    """

    kind: str
    argv: list
    outputs: tuple
    units: int = 1
    edge: bool = False
    info: dict | None = None


@dataclass
class Outcome:
    passed: bool
    digits: float
    reason: str = ""


def _fail(reason: str) -> Outcome:
    return Outcome(False, math.nan, reason)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _gen(cli, argv) -> None:
    code = cli.cli_main(["gen", *map(str, argv)])
    if code != 0:
        raise RuntimeError(f"opmeans gen {argv} exited {code}")


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * max(abs(ref), 1e-12)


# --------------------------------------------------------------- sweep-small

class SweepSmall:
    """`opmeans sweep` over near-commuting pairs, one call per size."""

    name = "sweep-small"
    SIZES = (3, 4, 5, 6)
    COND = 10.0
    EPSILONS = (0.0, 0.01, 0.0316, 0.1, 0.316, 1.0)
    TRIALS = 4
    HEADER = ["epsilon", "seed", "mean_gap", "commutator_gap", "trace_gap", "verdict"]

    def prepare(self, cli, seed: int, work) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []
        for n in self.SIZES:
            master = rng.getrandbits(64)
            out = work / f"sweep_n{n}.csv"
            argv = ["sweep", "--n", str(n), "--seed", str(master), "--cond", str(self.COND),
                    "--epsilons", ",".join(map(str, self.EPSILONS)),
                    "--trials", str(self.TRIALS), "--out", str(out)]
            ops.append(Op("sweep", argv, (out,), units=len(self.EPSILONS) * self.TRIALS,
                          info={"n": n, "master": master}))
        return ops

    def parse(self, op: Op):
        rows = oracle.read_csv(op.outputs[0])
        if not rows or list(rows[0]) != self.HEADER:
            raise ValueError("unexpected CSV header")
        return rows

    def check(self, op: Op, rows) -> list[Outcome]:
        if len(rows) != op.units:
            return [_fail(f"{len(rows)} CSV rows, expected {op.units}")] * op.units
        n, master = op.info["n"], op.info["master"]
        out = []
        for idx, row in enumerate(rows):
            eps = float(row["epsilon"])
            verdict = row["verdict"]
            if int(row["seed"]) != oracle.mix_seed(master, idx):
                out.append(_fail("row seed out of grid order"))
                continue
            if verdict.startswith("error:") or verdict == "CounterexampleToTheorem":
                out.append(_fail(f"verdict {verdict}"))
                continue
            mg, cg, tg = (float(row[k]) for k in ("mean_gap", "commutator_gap", "trace_gap"))
            ref = oracle.gaps(*oracle.near_commuting_pair(int(row["seed"]), n, self.COND, eps))
            err = max(abs(mg - ref["mean_gap"]), abs(cg - ref["commutator_gap"]),
                      abs(tg - ref["trace_gap"]) / ref["trace_x"])
            if not err <= GAP_TOL:
                out.append(_fail(f"gaps differ from the oracle by {err:.2e}"))
            elif verdict != oracle.classify(mg, cg):
                out.append(_fail(f"verdict {verdict} does not follow from the gaps"))
            elif eps == 0.0 and verdict != "MeansEqualAndCommute":
                out.append(_fail(f"commuting row has verdict {verdict}"))
            else:
                out.append(Outcome(True, oracle.digits(err)))
        return out

    def self_test(self, op: Op, rows) -> list[str]:
        bad = [dict(r) for r in rows]
        bad[1]["mean_gap"] = repr(float(bad[1]["mean_gap"]) + 1e-6)
        return [] if not self.check(op, bad)[1].passed else ["a wrong CSV gap passed the check"]


# -------------------------------------------------------------- verify-large

class VerifyLarge:
    """`opmeans verify` on n = 24 pairs, plus the scaled edge group."""

    name = "verify-large"
    N = 24
    GENERIC_CONDS = (10.0, 31.6, 100.0, 316.0, 1000.0)
    COMMUTING_CONDS = (10.0, 100.0)
    # the edge group is fixed: its twin does not depend on --seed
    TWIN_SEEDS = (0x5EED_ED6E_0001, 0x5EED_ED6E_0002)
    TWIN_COND = 100.0
    EDGE_SCALES = (("up", 2.0**330, 2.0**330), ("down", 2.0**-330, 2.0**-330),
                   ("mixed", 1e-8, 1e8))

    def prepare(self, cli, seed: int, work) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []

        def verify_op(tag, a, b, **info):
            out = work / f"report_{tag}.json"
            ops.append(Op("verify", ["verify", "--a", str(a), "--b", str(b), "--out", str(out)],
                          (out,), edge="scale" in info, info={"a": a, "b": b, **info}))

        for i, cond in enumerate(self.GENERIC_CONDS):
            a, b = work / f"g{i}_a.json", work / f"g{i}_b.json"
            _gen(cli, ["--n", self.N, "--seed", rng.getrandbits(63), "--cond", cond, "--out", a])
            _gen(cli, ["--n", self.N, "--seed", rng.getrandbits(63), "--cond", cond, "--out", b])
            verify_op(f"g{i}", a, b, commuting=False)
        for i, cond in enumerate(self.COMMUTING_CONDS):
            a, b = work / f"c{i}_a.json", work / f"c{i}_b.json"
            _gen(cli, ["--n", self.N, "--seed", rng.getrandbits(63), "--cond", cond,
                       "--family", "commuting", "--out-a", a, "--out-b", b])
            verify_op(f"c{i}", a, b, commuting=True)
        twin = work / "twin_a.json", work / "twin_b.json"
        for path, s in zip(twin, self.TWIN_SEEDS):
            _gen(cli, ["--n", self.N, "--seed", s, "--cond", self.TWIN_COND, "--out", path])
        ta, tb = (oracle.load_matrix(p) for p in twin)
        for tag, sa, sb in self.EDGE_SCALES:
            a, b = work / f"edge_{tag}_a.json", work / f"edge_{tag}_b.json"
            oracle.save_matrix(a, ta * sa)
            oracle.save_matrix(b, tb * sb)
            verify_op(f"edge_{tag}", a, b, scale=(sa, sb))
        self.twin = Op("verify", ["verify", "--a", str(twin[0]), "--b", str(twin[1]),
                                  "--out", str(work / "report_twin.json")],
                       (work / "report_twin.json",), info={"a": twin[0], "b": twin[1],
                                                          "commuting": False})
        return ops

    def parse(self, op: Op):
        with open(op.outputs[0], encoding="utf-8") as fh:
            return json.load(fh)

    def finish(self, run_op) -> None:
        """Verify the unscaled twin of the edge group, outside the timed rounds."""
        result = run_op(self.twin)
        ok = result.code == 0 and self.check(self.twin, self.parse(self.twin))[0].passed
        self.twin_report = self.parse(self.twin) if ok else None

    def check(self, op: Op, rep) -> list[Outcome]:
        if op.edge:
            return [self._check_edge(op, rep)]
        res = rep["residuals"]
        worst = max(res["r1"], res["r2"], res["r3"])
        ref = oracle.gaps(oracle.load_matrix(op.info["a"]), oracle.load_matrix(op.info["b"]))
        err = max(abs(rep["mean_gap"] - ref["mean_gap"]),
                  abs(rep["commutator_gap"] - ref["commutator_gap"]),
                  abs(rep["trace_gap"] - ref["trace_gap"]) / ref["trace_x"])
        if not err <= GAP_TOL:
            return [_fail(f"gaps differ from the oracle by {err:.2e}")]
        if not worst <= IDENTITY_TOL:
            return [_fail(f"max(r1, r2, r3) = {worst:.2e}")]
        if rep["verdict"] != oracle.classify(rep["mean_gap"], rep["commutator_gap"]):
            return [_fail(f"verdict {rep['verdict']} does not follow from the gaps")]
        if op.info["commuting"]:
            cond = max(res["r4"], res["r5"], res["r6"])
            if not cond <= COMMUTING_TOL or rep["verdict"] != "MeansEqualAndCommute":
                return [_fail(f"commuting pair: max(r4, r5, r6) = {cond:.2e}, {rep['verdict']}")]
        return [Outcome(True, oracle.digits(worst))]

    def _check_edge(self, op: Op, rep) -> Outcome:
        """Homogeneity: (cA, cB) has the twin's gaps and residuals and c times
        its trace gap; (sA, B/s) keeps the commutator gap, r5, r6 and the
        trace gap. r1-r3 must hold either way."""
        twin = self.twin_report
        if twin is None:
            return _fail("the unscaled twin failed")
        sa, sb = op.info["scale"]
        worst = max(rep["residuals"][k] for k in ("r1", "r2", "r3"))
        if not worst <= IDENTITY_TOL:
            return _fail(f"max(r1, r2, r3) = {worst:.2e}")
        if sa == sb:
            pairs = [(rep["mean_gap"], twin["mean_gap"]), (rep["trace_gap"] / sa, twin["trace_gap"])]
            keys = ("r1", "r2", "r3", "r4", "r5", "r6")
        else:
            pairs = [(rep["trace_gap"], twin["trace_gap"])]
            keys = ("r5", "r6")
        pairs.append((rep["commutator_gap"], twin["commutator_gap"]))
        pairs += [(rep["residuals"][k], twin["residuals"][k]) for k in keys if twin["residuals"][k] > 1e-12]
        for x, ref in pairs:
            if not _close(x, ref, HOMOGENEITY_TOL):
                return _fail(f"scaled pair gives {x!r} where its twin gives {ref!r}")
        return Outcome(True, oracle.digits(worst))

    def self_test(self, op: Op, rep) -> list[str]:
        bad = json.loads(json.dumps(rep))
        bad["residuals"]["r1"] = 1e-6
        problems = [] if not self.check(op, bad)[0].passed else ["a perturbed r1 passed the check"]
        bad = json.loads(json.dumps(rep))
        bad["mean_gap"] *= 1.0 + 1e-6
        if self.check(op, bad)[0].passed:
            problems.append("a perturbed mean gap passed the check")
        return problems


# ------------------------------------------------------------- descent-small

class DescentSmall:
    """`opmeans minimize` at n = 3 and 4, all runs with one budget.

    Generic A (cond 3) from a far start uses the whole budget; diagonal A
    with distinct eigenvalues from a start near its commutant converges
    or stalls at the forward-difference floor near mean gap 1e-8.
    """

    name = "descent-small"
    BUDGET = 40
    GENERIC = ((3, 4), (4, 4))   # (n, runs)
    DIAGONAL = ((3, 2), (4, 2))
    START_OFFSET = 0.01          # distance of a diagonal run's B0 from the commutant

    def prepare(self, cli, seed: int, work) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []

        def run_op(tag, a, b0):
            traj, final = work / f"traj_{tag}.csv", work / f"final_{tag}.json"
            argv = ["minimize", "--a", str(a), "--b0", str(b0), "--budget", str(self.BUDGET),
                    "--out", str(traj), "--out-b", str(final)]
            ops.append(Op("minimize", argv, (traj, final), info={"a": a}))

        for n, runs in self.GENERIC:
            for r in range(runs):
                a, b0 = work / f"gen{n}_{r}_a.json", work / f"gen{n}_{r}_b0.json"
                _gen(cli, ["--n", n, "--seed", rng.getrandbits(63), "--cond", 3.0, "--out", a])
                _gen(cli, ["--n", n, "--seed", rng.getrandbits(63), "--cond", 3.0, "--out", b0])
                run_op(f"gen{n}_{r}", a, b0)
        for n, runs in self.DIAGONAL:
            for r in range(runs):
                a, b0 = work / f"diag{n}_{r}_a.json", work / f"diag{n}_{r}_b0.json"
                # distinct eigenvalues: a jittered ladder in [1/sqrt(3), sqrt(3)]
                ladder = np.linspace(-0.5, 0.5, n) * math.log(3.0)
                lam = np.exp(ladder + [rng.uniform(-0.1, 0.1) for _ in range(n)])
                oracle.save_matrix(a, np.diag(lam).astype(np.complex128))
                g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                              for _ in range(n)])
                k = oracle.hermitian(g)
                mu = np.diag([rng.uniform(-0.5, 0.5) for _ in range(n)])
                b = oracle.spectral(mu + self.START_OFFSET * k / np.linalg.norm(k), np.exp)
                oracle.save_matrix(b0, b)
                run_op(f"diag{n}_{r}", a, b0)
        return ops

    def parse(self, op: Op):
        rows = oracle.read_csv(op.outputs[0])
        traj = [(int(r["step"]), float(r["mean_gap"]), float(r["commutator_gap"]),
                 float(r["objective"])) for r in rows]
        return {"traj": traj, "final_b": oracle.load_matrix(op.outputs[1])}

    def check(self, op: Op, run) -> list[Outcome]:
        traj = run["traj"]
        if not traj or [t[0] for t in traj] != list(range(len(traj))) or len(traj) > self.BUDGET + 1:
            return [_fail("trajectory steps are not 0, 1, ... within the budget")]
        for (_, _, _, f0), (step, _, _, f1) in zip(traj, traj[1:]):
            if not f1 <= f0:
                return [_fail(f"objective rises at step {step}")]
        b = run["final_b"]
        if not oracle.is_positive_definite(b):
            return [_fail("final B is not positive definite")]
        ref = oracle.gaps(oracle.load_matrix(op.info["a"]), b)
        _, gap, comm, _ = traj[-1]
        err = abs(gap - ref["mean_gap"]) / ref["mean_gap"]
        if not err <= 1e-6 or not _close(comm, ref["commutator_gap"], 1e-6):
            return [_fail(f"last row gap {gap!r}, oracle {ref['mean_gap']!r}")]
        if gap <= DESCENT_TARGET and not comm <= COMMUTE_AT_TARGET:
            return [_fail(f"mean gap {gap:.2e} with commutator gap {comm:.2e}")]
        return [Outcome(True, oracle.digits(err))]

    def self_test(self, op: Op, run) -> list[str]:
        problems = []
        traj = list(run["traj"])
        if len(traj) >= 2:
            step, gap, comm, f = traj[-1]
            rising = traj[:-1] + [(step, gap, comm, traj[-2][3] * 1.5)]
            if self.check(op, {**run, "traj": rising})[0].passed:
                problems.append("a rising objective passed the check")
        step, gap, comm, f = traj[-1]
        wrong = traj[:-1] + [(step, gap * 1.01, comm, f)]
        if self.check(op, {**run, "traj": wrong})[0].passed:
            problems.append("a wrong final CSV gap passed the check")
        return problems

    @staticmethod
    def converged(run) -> bool:
        return run["traj"][-1][1] <= DESCENT_TARGET


WORKLOADS = {w.name: w for w in (SweepSmall, VerifyLarge, DescentSmall)}
