"""opmeans benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload drives `opmeans.cli.cli_main` in-process on inputs generated
from --seed, repeats whole rounds of the same operations for at least
--seconds, checks the outputs of the first round against `oracle` and
requires every later round to reproduce them byte for byte. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import os

# one BLAS thread: the Jacobi solver is pure Python and the box is small;
# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
CAL_KERNELS = 10  # calibration kernels run just before every operation
# one calibration kernel's time on the reference box (README), to give
# set-up time in seconds at that box's speed
REFERENCE_KERNEL_S = 0.72e-3

END_TO_END = (("setup_s", "s"), ("op_cost", "cal"), ("result_digits", "digits"))
LINALG_FUNCTIONS = ("sqrtm", "inv_sqrtm", "sqrt_and_inv_sqrt", "invm", "expm", "logm", "matrix_function")
# (metric, unit, how it is computed from the spans)
PER_LAYER = (
    ("linalg.hermitian_eigen.calls_per_op", "count", ("calls", "linalg.hermitian_eigen")),
    ("linalg.hermitian_eigen.ms_per_call", "ms", ("ms_per_call", "linalg.hermitian_eigen")),
    ("linalg.hermitian_eigen.self_ms", "ms/op", ("self", "linalg.hermitian_eigen")),
    ("linalg.functions.self_ms", "ms/op", ("self", *(f"linalg.{f}" for f in LINALG_FUNCTIONS))),
    ("linalg.polar.self_ms", "ms/op", ("self", "linalg.polar")),
    ("linalg.abs_op.self_ms", "ms/op", ("self", "linalg.abs_op")),
    ("linalg.require_hermitian.self_ms", "ms/op", ("self", "linalg.require_hermitian")),
    ("linalg.other.self_ms", "ms/op", ("self_rest", "linalg.")),
    ("means.HpdPair.validated.self_ms", "ms/op", ("self", "means.HpdPair.validated")),
    ("means.proof_intermediates.self_ms", "ms/op", ("self", "means.proof_intermediates")),
    ("verify.proof_chain_report.calls_per_op", "count", ("calls", "verify.proof_chain_report")),
    ("verify.proof_chain_report.self_ms", "ms/op", ("self", "verify.proof_chain_report")),
    ("verify.GapObjective.evaluate.calls_per_step", "count", ("per_step", "verify.GapObjective.evaluate")),
    ("verify.GapObjective.evaluate.ms_per_call", "ms", ("ms_per_call", "verify.GapObjective.evaluate")),
    ("verify.GapObjective.evaluate.self_ms", "ms/op", ("self", "verify.GapObjective.evaluate")),
    ("verify.gradient_forward.self_ms", "ms/op", ("self", "verify.gradient_forward")),
    ("verify.minimize_gap.self_ms", "ms/op", ("self", "verify.minimize_gap")),
    ("verify.minimize_gap.steps", "count", ("steps",)),
    ("verify.minimize_gap.converged_runs", "count", ("converged",)),
    ("randgen.near_commuting_pair.ms_per_call", "ms", ("ms_per_call", "randgen.near_commuting_pair")),
    ("sweep.run_sweep.self_ms", "ms/op", ("self", "sweep.run_sweep")),
    ("matio.load_matrix.self_ms", "ms/op", ("self", "matio.load_matrix")),
    ("matio.save_json.self_ms", "ms/op", ("self", "matio.save_json")),
    ("matio.write_csv.self_ms", "ms/op", ("self", "matio.write_csv")),
    ("matio.save_matrix.self_ms", "ms/op", ("self", "matio.save_matrix")),
    ("cli.cli_main.self_ms", "ms/op", ("self", "cli.cli_main")),
    ("trace.spans_per_op", "count", ("spans",)),
    ("trace.overhead_pct", "%", ("overhead",)),
)


@dataclass
class Result:
    code: int | None
    error: str | None
    seconds: float
    cal_seconds: float = 0.0  # one block of calibration kernels run next to it


def calibration_kernel() -> None:
    """Fixed pure-Python work shaped like a Jacobi rotation: complex
    multiply-adds on a list row. About 0.7 ms on the reference box."""
    row = [complex(i, 1.0) for i in range(64)]
    for _ in range(100):
        for i in range(0, 64, 2):
            x, y = row[i], row[i + 1]
            row[i] = x * 0.8 - y * 0.6
            row[i + 1] = x * 0.6 + y * 0.8


def calibrate() -> float:
    """Seconds taken by CAL_KERNELS calibration kernels."""
    t0 = time.perf_counter()
    for _ in range(CAL_KERNELS):
        calibration_kernel()
    return time.perf_counter() - t0


def load_program():
    """Import opmeans from this checkout's src/, never from elsewhere."""
    if not (SRC / "opmeans" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opmeans sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("opmeans")
    if Path(package.__file__).resolve().parent != SRC / "opmeans":
        sys.exit(f"perfbench: imported opmeans from {package.__file__}, not {SRC}")
    return package, importlib.import_module("opmeans.cli")


def run_op(cli, op) -> Result:
    """One command line through cli_main; exceptions count as failures."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code, error = cli.cli_main(op.argv), None
        except Exception as exc:  # a raw exception escaping the CLI is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        return Result(code, error, time.perf_counter() - t0)


def fresh_import() -> None:
    """Import the opmeans CLI afresh, as every `opmeans` command does, then
    put the modules in use back. The import runs in this process, on the
    core the calibration kernels ran on."""
    def ours():
        return [k for k in sys.modules if k == "opmeans" or k.startswith("opmeans.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("opmeans.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def set_up(wl, cli, seed: int, work: Path):
    """A fresh import plus input generation, SETUP_REPEATS times, each between
    two calibrations; the operations and one Result per repeat."""
    reps = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        before = calibrate()
        t0 = time.perf_counter()
        fresh_import()
        ops = wl.prepare(cli, seed, work)
        seconds = time.perf_counter() - t0
        after = calibrate()
        reps.append(Result(0, None, seconds, (before + after) / 2.0))
    return ops, reps


def run_rounds(cli, ops, seconds: float, rounds: int | None, tracer=None):
    """Whole rounds for `seconds` (or exactly `rounds`); per round the op
    results, and the bytes each op wrote."""
    out = []
    deadline = time.perf_counter() + seconds
    while (len(out) < rounds) if rounds is not None else (not out or time.perf_counter() < deadline):
        results = []
        for i, op in enumerate(ops):
            cal = calibrate()
            if tracer is not None:
                tracer.current_op = i
            res = run_op(cli, op)
            res.cal_seconds = cal
            results.append(res)
        files = [tuple(p.read_bytes() if p.exists() else None for p in op.outputs) for op in ops]
        out.append((results, files))
    return out


# Timing on a shared box. Other tenants slow this one by up to 40% for
# stretches of seconds to minutes, and operations of 0.1 s or more never run
# clean. So every operation is preceded by CAL_KERNELS calibration kernels,
# which see the same slowdown, and times are reported relative to them.

def kernel_mean(results) -> float:
    """Mean seconds of one calibration kernel run before these results."""
    return sum(r.cal_seconds for r in results) / (CAL_KERNELS * len(results))


def cost(r: Result) -> float:
    """A result's time in units of the calibration kernels run next to it."""
    return r.seconds / kernel_mean([r])


def op_cost(rounds, indices) -> float:
    """Sum over the operations of each one's median cost over rounds."""
    return sum(statistics.median(cost(res[i]) for res, _ in rounds) for i in indices)


def check_outputs(wl, ops, rounds):
    """Check the first round's outputs; later rounds must reproduce them byte
    for byte. Returns per-op outcomes, parsed outputs and run-level problems."""
    first_results, first_files = rounds[0]
    outcomes, parsed, problems = [], [], []
    for op, res in zip(ops, first_results):
        data = None
        if res.code == 0:
            try:
                data = wl.parse(op)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{op.outputs[0].name}: unreadable output: {exc}")
        parsed.append(data)
        if data is None:
            why = res.error or f"exit code {res.code}"
            outcomes.append([workloads.Outcome(False, float("nan"), why)] * op.units)
        else:
            outcomes.append(wl.check(op, data))
    for results, files in rounds[1:]:
        for op, res, res0, f, f0 in zip(ops, results, first_results, files, first_files):
            if res.code != res0.code or (res.code == 0 and f != f0):
                problems.append(f"{op.outputs[0].name}: output changed between rounds")
    sample = next((i for i, op in enumerate(ops) if not op.edge and parsed[i] is not None), None)
    if sample is None:
        problems.append("no operation outside the edge group produced output to self-test")
    else:
        problems += [f"self-test: {p}" for p in wl.self_test(ops[sample], parsed[sample])]
    for op, outs in zip(ops, outcomes):
        for o in outs:
            if not o.passed:
                group = "edge group" if op.edge else "unexpected failure"
                print(f"perfbench: {group}: {op.outputs[0].stem}: {o.reason}", file=sys.stderr)
                if not op.edge:
                    problems.append(f"{op.outputs[0].stem} failed")
    return outcomes, parsed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, package, cli, work: Path):
    wl = workloads.WORKLOADS[name]()
    ops, setup = set_up(wl, cli, seed, work)
    if trace:
        plain = run_rounds(cli, ops, seconds / 2.0, None)
        tracer = Tracer()
        tracer.install(package)
        try:
            traced = run_rounds(cli, ops, 0.0, len(plain), tracer)
        finally:
            tracer.uninstall()
        rounds = plain + traced
    else:
        rounds = run_rounds(cli, ops, seconds, None)
    if hasattr(wl, "finish"):
        wl.finish(lambda op: run_op(cli, op))

    outcomes, parsed, problems = check_outputs(wl, ops, rounds)
    for p in dict.fromkeys(problems):
        print(f"perfbench: {p}", file=sys.stderr)
    in_domain = [i for i, op in enumerate(ops) if not op.edge]
    domain_units = sum(ops[i].units for i in in_domain)
    summary = {
        "correct": not problems,
        "attempted": sum(op.units for op in ops) * len(rounds),
        "failed": sum(not o.passed for outs in outcomes for o in outs) * len(rounds),
    }
    if trace:
        summary["metrics"] = layer_metrics(tracer, ops, in_domain, plain, traced, parsed, wl)
        return summary
    digits = [o.digits for i in in_domain for o in outcomes[i] if o.passed]
    values = {
        "setup_s": statistics.median(cost(r) for r in setup) * REFERENCE_KERNEL_S,
        "op_cost": op_cost(rounds, in_domain) / domain_units,
        "result_digits": statistics.median(digits) if digits else 0.0,
    }
    wall_ms = 1000.0 * statistics.median(sum(res[i].seconds for i in in_domain) for res, _ in rounds)
    kernel_ms = 1000.0 * kernel_mean([r for res, _ in rounds for r in res])
    print(f"perfbench: {name}: {len(rounds)} rounds, {wall_ms / domain_units:.4g} ms wall per op, "
          f"calibration kernel {kernel_ms:.4g} ms", file=sys.stderr)
    summary["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return summary


def layer_metrics(tracer, ops, in_domain, plain, traced, parsed, wl) -> dict:
    totals = tracer.layer_totals(set(in_domain))
    units = len(traced) * sum(ops[i].units for i in in_domain)
    runs = [parsed[i] for i in in_domain if ops[i].kind == "minimize" and parsed[i] is not None]
    steps = sum(len(r["traj"]) - 1 for r in runs) * len(traced)
    plain_cost = op_cost(plain, in_domain)
    traced_cost = op_cost(traced, in_domain)
    named = {n for _, _, (kind, *names) in PER_LAYER if kind != "self_rest" for n in names}

    def value(kind, names):
        pick = [totals[n] for n in names if n in totals]
        calls = sum(t["calls"] for t in pick)
        if kind == "calls":
            return calls / units
        if kind == "ms_per_call":
            return 1000.0 * sum(t["total"] for t in pick) / calls if calls else 0.0
        if kind == "self":
            return 1000.0 * sum(t["self"] for t in pick) / units
        if kind == "self_rest":
            rest = [t for n, t in totals.items() if n.startswith(names[0]) and n not in named]
            return 1000.0 * sum(t["self"] for t in rest) / units
        if kind == "per_step":
            return calls / steps if steps else 0.0
        if kind == "steps":
            return steps / (len(traced) * len(runs)) if runs else 0.0
        if kind == "converged":
            return float(sum(wl.converged(r) for r in runs))
        if kind == "spans":
            return sum(t["calls"] for t in totals.values()) / units
        if kind == "overhead":
            return 100.0 * traced_cost / plain_cost - 100.0
        raise ValueError(kind)

    return {name: {"value": value(kind, names), "unit": unit} for name, unit, (kind, *names) in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", "sweep-small", "verify-large", "descent-small"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package, cli = load_program()
    names = ["sweep-small", "verify-large", "descent-small"] if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), package, cli, work)
            if len(names) > 1:
                print(json.dumps({"workload": name, **results[name]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
