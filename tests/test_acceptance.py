"""Acceptance gate.

Each test below implements one numbered criterion at its stated tolerance
and prints one PASS/FAIL line (run with `pytest -s` to see them on
success). The randomized suites are built once per session and shared:

  generic suites     1000 pairs, n in 2..8, condition targets up to 1e3
  commuting suite     500 pairs, shared random eigenframe
  near-commuting      500 pairs, perturbation sizes 0.01 .. 1.0

The near-commuting perturbation grid deliberately stays at or above 0.01,
and the generic suites draw condition targets from [2, hi] rather than
[1, hi]: a pair at the classification boundary (commutator gap crossing
1e-6 while the quadratically small trace gap crosses 1e-10) measures
threshold placement rather than the identities under test, and condition
targets near 1 produce near-scalar, hence accidentally near-commuting,
pairs inside exactly that band.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (
    SplitMix64,
    gap_objective,
    gradient_central,
    minimize_with_states,
    mix_seed,
    polar,
    proof_intermediates,
    random_hermitian,
    random_invertible,
    svd_abs,
    uniform,
)

from opmeans.linalg import frobenius_norm, hermitian_eigen
from opmeans.means import HpdPair, heron_mean, wasserstein_mean
from opmeans.randgen import GenSpec, near_commuting_pair, random_hpd
from opmeans.verify import (
    TriangleEqualityFails,
    Verdict,
    ando_hayashi_witness,
    classify_gaps,
    proof_chain_report,
)

MASTER_GENERIC_A = 0x5EED_0001
MASTER_COMMUTING = 0x5EED_0002
MASTER_NEAR_COMM = 0x5EED_0003
MASTER_GENERIC_E = 0x5EED_0004
MASTER_WITNESS = 0x5EED_0005
MASTER_SCALARS = 0x5EED_0006
MASTER_SUBSTRATE = 0x5EED_0007


def report_line(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@dataclass
class PairRecord:
    mean_gap: float
    commutator_gap: float
    residuals: dict
    trace_gap: float
    trace_x: float
    abs_y_vs_x: float
    verdict: str


def analyze_pair(pair):
    ints = proof_intermediates(pair)
    rep = proof_chain_report(pair)
    abs_res = frobenius_norm(svd_abs(ints.y) - ints.x) / frobenius_norm(ints.x)
    trace_x = float(np.trace(ints.x).real)
    verdict = classify_gaps(rep.mean_gap, rep.commutator_gap)
    return PairRecord(
        mean_gap=rep.mean_gap,
        commutator_gap=rep.commutator_gap,
        residuals=rep.residuals,
        trace_gap=rep.trace_gap,
        trace_x=trace_x,
        abs_y_vs_x=abs_res,
        verdict=verdict.value,
    )


def log_uniform_cond(rng, hi, lo=1.0):
    return math.exp(math.log(lo) + rng.next_double() * (math.log(hi) - math.log(lo)))


@pytest.fixture(scope="session")
def generic_suite_a():
    t0 = time.perf_counter()
    rng = SplitMix64(MASTER_GENERIC_A)
    records = []
    for i in range(500):
        n = 2 + i % 7
        cond = log_uniform_cond(rng, 1e3, lo=2.0)
        a, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(MASTER_GENERIC_A, 2 * i), cond_target=cond))
        b, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(MASTER_GENERIC_A, 2 * i + 1), cond_target=cond))
        records.append(analyze_pair(HpdPair(a=a, b=b)))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def commuting_suite(request):
    t0 = time.perf_counter()
    rng = SplitMix64(MASTER_COMMUTING)
    records = []
    for i in range(500):
        n = 2 + i % 7
        cond = log_uniform_cond(rng, 1e3)
        pair = near_commuting_pair(
            GenSpec(dim=n, seed=mix_seed(MASTER_COMMUTING, i), cond_target=cond)
        )
        records.append(analyze_pair(pair))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def near_commuting_suite():
    records = []
    epsilons = (0.01, 0.0316, 0.1, 0.316, 1.0)
    for ei, eps in enumerate(epsilons):
        for t in range(100):
            seed = mix_seed(MASTER_NEAR_COMM, ei * 100 + t)
            pair = near_commuting_pair(GenSpec(dim=3, seed=seed, cond_target=30.0), eps)
            records.append(analyze_pair(pair))
    return records


@pytest.fixture(scope="session")
def generic_suite_e():
    rng = SplitMix64(MASTER_GENERIC_E)
    records = []
    for i in range(500):
        n = 2 + i % 5
        cond = log_uniform_cond(rng, 100.0, lo=2.0)
        a, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(MASTER_GENERIC_E, 2 * i), cond_target=cond))
        b, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(MASTER_GENERIC_E, 2 * i + 1), cond_target=cond))
        records.append(analyze_pair(HpdPair(a=a, b=b)))
    return records


@pytest.fixture(scope="session")
def all_records(generic_suite_a, commuting_suite, near_commuting_suite, generic_suite_e):
    return generic_suite_a[0] + commuting_suite[0] + near_commuting_suite + generic_suite_e


@pytest.fixture(scope="session")
def descent_runs():
    """Ten budget-5000 descents from random starts against a fixed
    non-scalar A, with chart states recorded for the gradient checks."""
    t0 = time.perf_counter()
    a = np.diag([1.0, 1.5, 2.25]).astype(complex)
    runs = []
    for seed in range(1, 11):
        b0, _ = random_hpd(GenSpec(dim=3, seed=seed, cond_target=2.0))
        runs.append(minimize_with_states(a, b0, budget=5000))
    return a, runs, time.perf_counter() - t0


def test_criterion_1_scalar_closed_form():
    t0 = time.perf_counter()
    rng = SplitMix64(MASTER_SCALARS)
    worst = 0.0
    for _ in range(100):
        a = math.exp(uniform(rng, -4.0, 4.0))
        b = math.exp(uniform(rng, -4.0, 4.0))
        target = ((math.sqrt(a) + math.sqrt(b)) / 2.0) ** 2
        p = HpdPair.validated(np.array([[a]], dtype=complex), np.array([[b]], dtype=complex))
        h = heron_mean(p)[0, 0].real
        w = wasserstein_mean(p)[0, 0].real
        worst = max(worst, abs(h - target) / target, abs(w - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 1.0
    report_line(1, "scalar closed form", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-14
    assert elapsed < 1.0


def test_criterion_2_unconditional_identities(generic_suite_a):
    records, elapsed = generic_suite_a
    worst = {k: max(r.residuals[k] for r in records) for k in ("r1", "r2", "r3")}
    worst_abs = max(r.abs_y_vs_x for r in records)
    ok = all(v <= 1e-10 for v in worst.values()) and worst_abs <= 1e-10 and elapsed < 30.0
    report_line(
        2, "unconditional proof-chain identities", ok,
        f"500 pairs, max r1 {worst['r1']:.2e}, r2 {worst['r2']:.2e}, "
        f"r3 {worst['r3']:.2e}, |Y|-X {worst_abs:.2e}, {elapsed:.1f}s",
    )
    for k, v in worst.items():
        assert v <= 1e-10, f"{k} = {v}"
    assert worst_abs <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_forward_direction(commuting_suite):
    records, elapsed = commuting_suite
    worst_gap = max(r.mean_gap for r in records)
    worst = {k: max(r.residuals[k] for r in records) for k in ("r4", "r5", "r6")}
    ok = worst_gap <= 1e-10 and all(v <= 1e-9 for v in worst.values()) and elapsed < 30.0
    report_line(
        3, "forward direction on commuting pairs", ok,
        f"500 pairs, max mean_gap {worst_gap:.2e}, r4 {worst['r4']:.2e}, "
        f"r5 {worst['r5']:.2e}, r6 {worst['r6']:.2e}, {elapsed:.1f}s",
    )
    assert worst_gap <= 1e-10
    for k, v in worst.items():
        assert v <= 1e-9, f"{k} = {v}"
    assert elapsed < 30.0


def test_criterion_4_no_counterexample(all_records):
    total = len(all_records)
    counterexamples = sum(r.verdict == Verdict.COUNTEREXAMPLE_TO_THEOREM.value for r in all_records)
    coexist = sum(r.mean_gap <= 1e-10 and r.commutator_gap > 1e-6 for r in all_records)
    # linkage: equality-band pairs must also satisfy the conditional chain
    linkage_bad = sum(
        r.mean_gap <= 1e-10 and (r.residuals["r4"] > 1e-9 or r.residuals["r5"] > 1e-9)
        for r in all_records
    )
    ok = total >= 2000 and counterexamples == 0 and coexist == 0 and linkage_bad == 0
    report_line(
        4, "no counterexample across suites", ok,
        f"{total} pairs, {counterexamples} counterexample verdicts, "
        f"{coexist} gap coexistences, {linkage_bad} linkage breaks",
    )
    assert total >= 2000
    assert counterexamples == 0
    assert coexist == 0
    assert linkage_bad == 0


def test_criterion_5_trace_criterion(all_records):
    violations = 0
    for r in all_records:
        trace_small = r.trace_gap <= 1e-10 * r.trace_x
        comm_small = r.commutator_gap <= 1e-6
        if trace_small != comm_small:
            violations += 1
        assert r.trace_gap >= -1e-10 * r.trace_x
    # the pair's own trace gap reads commuting on commuting draws
    spot = 0
    for i in range(0, 100, 10):
        pair = near_commuting_pair(
            GenSpec(dim=3, seed=mix_seed(MASTER_COMMUTING, i), cond_target=10.0)
        )
        assert pair.trace_gap <= 1e-10 * np.trace(proof_intermediates(pair).x).real
        spot += 1
    ok = violations == 0
    report_line(
        5, "trace criterion equivalence", ok,
        f"{len(all_records)} pairs, {violations} violations, {spot} operation spot checks",
    )
    assert violations == 0


def test_criterion_6_witness_construction():
    t0 = time.perf_counter()
    worst_triangle = 0.0
    worst_factor = 0.0
    for i in range(200):
        n = 2 + i % 4
        w = np.linalg.qr(SplitMix64(mix_seed(MASTER_WITNESS, 3 * i)).complex_gaussian_matrix(n))[0]
        p, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(MASTER_WITNESS, 3 * i + 1), cond_target=100.0))
        q, _ = random_hpd(GenSpec(dim=n, seed=mix_seed(MASTER_WITNESS, 3 * i + 2), cond_target=100.0))
        rep = ando_hayashi_witness(w @ p, w @ q)
        worst_triangle = max(worst_triangle, rep.triangle_residual)
        worst_factor = max(worst_factor, *rep.factor_residuals)
    failures_detected = 0
    for i in range(50):
        rng = SplitMix64(mix_seed(MASTER_WITNESS, 1000 + i))
        x = rng.complex_gaussian_matrix(3)
        y = rng.complex_gaussian_matrix(3)
        try:
            ando_hayashi_witness(x, y)
        except TriangleEqualityFails:
            failures_detected += 1
    elapsed = time.perf_counter() - t0
    ok = worst_triangle <= 1e-10 and worst_factor <= 1e-8 and failures_detected == 50 and elapsed < 10.0
    report_line(
        6, "triangle-equality witness", ok,
        f"200 aligned triples: triangle {worst_triangle:.2e}, factors {worst_factor:.2e}; "
        f"{failures_detected}/50 generic pairs rejected; {elapsed:.1f}s",
    )
    assert worst_triangle <= 1e-10
    assert worst_factor <= 1e-8
    assert failures_detected == 50
    assert elapsed < 10.0


def test_criterion_7_descent_experiment(descent_runs):
    a, runs, elapsed = descent_runs
    reached = 0
    implication_failures = 0
    for tr, _ in runs:
        _, gap, comm, _ = tr.iterates[-1]
        if gap <= 1e-8:
            reached += 1
            if comm > 1e-4:
                implication_failures += 1
    # the analytic gradient and forward differences, each against central
    # differences at recorded iterates; the comparison is meaningful while
    # the gradient still dominates the forward-difference curvature bias,
    # i.e. away from the objective floor
    obj = gap_objective(a)
    pool = []
    for tr, states in runs:
        for it, state in zip(tr.iterates, states):
            if it[3] >= 1e-7:
                pool.append(state)
    rng = SplitMix64(987654321)
    worst_rel = 0.0
    for _ in range(10):
        state = pool[rng.next_u64() % len(pool)]
        gc = gradient_central(obj, state)
        for g in (obj.gradient(obj.evaluate(state)), obj.gradient_forward(state)):
            worst_rel = max(worst_rel, float(np.linalg.norm(g - gc) / np.linalg.norm(gc)))
    ok = implication_failures == 0 and reached >= 5 and worst_rel <= 1e-4 and elapsed < 120.0
    report_line(
        7, "descent drives commutator down", ok,
        f"{reached}/10 runs reached mean_gap 1e-8, {implication_failures} implication failures, "
        f"gradient check worst rel {worst_rel:.2e} over {len(pool)} eligible iterates, {elapsed:.0f}s",
    )
    assert implication_failures == 0
    assert reached >= 5, "too few runs reached the mean-gap target for the check to be meaningful"
    assert worst_rel <= 1e-4
    assert elapsed < 120.0


def test_criterion_8_substrate_accuracy():
    t0 = time.perf_counter()
    worst_recon = 0.0
    worst_unitary = 0.0
    worst_polar = 0.0
    for i in range(500):
        n = 2 + i % 15
        if i % 2 == 0:
            h = random_hermitian(n, mix_seed(MASTER_SUBSTRATE, i))
            e = hermitian_eigen(h)
            scale = max(frobenius_norm(h), 1e-300)
            recon = (e.frame * e.eigenvalues) @ e.frame.conj().T
            worst_recon = max(worst_recon, frobenius_norm(recon - h) / scale)
            worst_unitary = max(
                worst_unitary,
                frobenius_norm(e.frame.conj().T @ e.frame - np.eye(n)) / math.sqrt(n),
            )
        else:
            t = random_invertible(n, mix_seed(MASTER_SUBSTRATE, i), cond=100.0)
            parts = polar(t)
            scale = frobenius_norm(t)
            worst_polar = max(
                worst_polar,
                frobenius_norm(parts.isometry @ parts.positive - t) / scale,
                frobenius_norm(parts.isometry.conj().T @ parts.isometry - np.eye(n)) / math.sqrt(n),
                frobenius_norm(parts.positive - svd_abs(t)) / scale,
            )
    elapsed = time.perf_counter() - t0
    ok = worst_recon <= 1e-11 and worst_unitary <= 1e-11 and worst_polar <= 1e-11 and elapsed < 30.0
    report_line(
        8, "eigensolver and polar substrate", ok,
        f"500 inputs to n=16: reconstruction {worst_recon:.2e}, unitarity {worst_unitary:.2e}, "
        f"polar {worst_polar:.2e}, {elapsed:.1f}s",
    )
    assert worst_recon <= 1e-11
    assert worst_unitary <= 1e-11
    assert worst_polar <= 1e-11
    assert elapsed < 30.0


def test_criterion_9_cli_determinism(tmp_path):
    from opmeans.cli import cli_main
    from opmeans.matio import save_matrix

    outcomes = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        gen = str(d / "m.json")
        assert cli_main(["gen", "--n", "3", "--seed", "42", "--cond", "50", "--out", gen]) == 0
        sweep = str(d / "s.csv")
        assert cli_main(["sweep", "--n", "3", "--seed", "7", "--cond", "10",
                         "--epsilons", "0,0.1,1.0", "--trials", "3", "--out", sweep]) == 0
        fa, fb = str(d / "a.json"), str(d / "b.json")
        assert cli_main(["gen", "--n", "3", "--seed", "11", "--family", "commuting",
                         "--out-a", fa, "--out-b", fb]) == 0
        rep = str(d / "r.json")
        assert cli_main(["verify", "--a", fa, "--b", fb, "--seed", "11", "--out", rep]) == 0
        mean_out = str(d / "mean.json")
        assert cli_main(["mean", "--kind", "wasserstein", "--a", fa, "--b", fb,
                         "--out", mean_out]) == 0
        # two positive matrices always satisfy the triangle equality
        ah = str(d / "ah.json")
        assert cli_main(["lemma-ah", "--x", fa, "--y", fb, "--out", ah]) == 0
        b0 = str(d / "b0.json")
        save_matrix(b0, random_hpd(GenSpec(dim=2, seed=3, cond_target=5.0))[0])
        amat = str(d / "adiag.json")
        save_matrix(amat, np.diag([1.0, 2.0]).astype(complex))
        traj = str(d / "t.csv")
        bf = str(d / "bf.json")
        assert cli_main(["minimize", "--a", amat, "--b0", b0, "--budget", "200",
                         "--out", traj, "--out-b", bf]) == 0
        outcomes.append({name: (d / name).read_bytes() for name in
                         ("m.json", "s.csv", "a.json", "b.json", "r.json",
                          "mean.json", "ah.json", "t.csv", "bf.json")})
    mismatched = [k for k in outcomes[0] if outcomes[0][k] != outcomes[1][k]]
    ok = not mismatched
    report_line(9, "byte-identical reruns", ok, f"9 artifacts compared, mismatches: {mismatched or 'none'}")
    assert not mismatched
