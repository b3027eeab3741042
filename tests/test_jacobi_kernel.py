"""The Jacobi kernels against their earlier forms.

The cyclic loop writes rows p and q of a rotation as the conjugates of the
columns it updates; `pre_mirror_jacobi` is the loop as it was before, with
a second pass over the rows, and both must give the same bytes. The
round-robin plans are built per stack from positions cached per size;
`per_stack_plan` is the plan as it was built and cached per (size, stack).
"""

import math

import numpy as np
import pytest

from conftest import SplitMix64, mix_seed, random_hermitian, uniform
from opmeans import linalg
from opmeans.linalg import EIG_OFF_DIAG_TOL, MAX_JACOBI_SWEEPS, frobenius_norm, hermitian_eigen


def pre_mirror_jacobi(m, v0, target):
    """`linalg._jacobi` with the rows' update as its own pass, the reference."""
    n = m.shape[0]
    skip = target / (4.0 * n)
    a = m.tolist()
    v = v0.tolist()
    for sweep in range(MAX_JACOBI_SWEEPS + 1):
        total = 0.0
        for i in range(n - 1):
            row = a[i]
            for j in range(i + 1, n):
                x = row[j]
                total += x.real * x.real + x.imag * x.imag
        mass = math.sqrt(2.0 * total)
        if mass <= target or sweep == MAX_JACOBI_SWEEPS:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                h = ap[q]
                r = abs(h)
                if r <= skip:
                    continue
                aq = a[q]
                alpha = ap[p].real
                beta = aq[q].real
                u = h / r
                tau = (beta - alpha) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (math.sqrt(1.0 + tau * tau) - tau)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cu = c * u
                su = s * u
                cu_c = cu.conjugate()
                su_c = su.conjugate()
                for i in range(n):
                    ai = a[i]
                    x = ai[p]
                    y = ai[q]
                    ai[p] = x * cu - y * s
                    ai[q] = x * su + y * c
                for i in range(n):
                    x = ap[i]
                    y = aq[i]
                    ap[i] = cu_c * x - s * y
                    aq[i] = su_c * x + c * y
                ap[q] = 0j
                aq[p] = 0j
                ap[p] = complex(ap[p].real, 0.0)
                aq[q] = complex(aq[q].real, 0.0)
                for vi in v:
                    x = vi[p]
                    y = vi[q]
                    vi[p] = x * cu - y * s
                    vi[q] = x * su + y * c
    return np.array([a[i][i].real for i in range(n)]), np.array(v, dtype=np.complex128), mass


def integers(n, seed, lo=-3, hi=3):
    """An n x n matrix of integers in [lo, hi], drawn from the seed."""
    rng = SplitMix64(seed)
    return np.array([[math.floor(uniform(rng, lo, hi + 1)) for _ in range(n)] for _ in range(n)], dtype=float)


def hermitian_inputs(n, seed):
    """(kind, matrix) of each kind of Hermitian input the kernel must keep."""
    h = random_hermitian(n, seed)
    g = integers(n, seed) + 1j * integers(n, seed + 1)
    keep = integers(n, seed + 2, 0, 2) == 0
    # the zero parts of entries in -1, 0, 1 are -0.0 where `flip` holds
    s, k, flip = integers(n, seed + 3, -1, 1), integers(n, seed + 4, -1, 1), integers(n, seed + 5, 0, 1) == 0
    unit = s + s.T + 1j * (k - k.T)
    return [("random", h), ("real", h.real.astype(complex)), ("integer", (g + g.conj().T) / 2.0),
            ("sparse", np.where(keep | keep.T, h, 0.0)), ("diagonal", np.diag(h.diagonal().real).astype(complex)),
            ("signed-zero", np.where(flip | flip.T, -unit, unit))]


def random_unitary(n, seed):
    return np.linalg.qr(SplitMix64(seed).complex_gaussian_matrix(n))[0]


def solution_bytes(solution):
    lam, frame, mass = solution
    return lam.tobytes(), frame.tobytes(), np.float64(mass).tobytes()


@pytest.mark.parametrize("n", range(1, 12))
def test_cyclic_loop_keeps_the_pre_mirror_bits(n):
    for seed in (n, mix_seed(n, 1)):
        for kind, m in hermitian_inputs(n, seed):
            # as `hermitian_eigen` forms them: cold, and congruent to a frame
            q = random_unitary(n, seed)
            warm = q.conj().T @ m @ q
            for start, h in ((np.eye(n, dtype=complex), m), (q, (warm + warm.conj().T) / 2.0)):
                target = EIG_OFF_DIAG_TOL * frobenius_norm(h)
                want = solution_bytes(pre_mirror_jacobi(h, start, target))
                assert solution_bytes(linalg._jacobi(h, start, target)) == want, (kind, seed)


def test_signed_zero_input_has_zeros_of_both_signs():
    m = dict(hermitian_inputs(6, 6))["signed-zero"]
    zeros = m.view(np.float64)[m.view(np.float64) == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert np.array_equal(m, m.conj().T)


def per_stack_plan(n, k):
    """`linalg._rounds_plan(n, k)` as it was built, round by round, the reference."""
    members = np.arange(k)[:, None]
    plan = []
    for p, q in linalg._round_robin(n):
        entries = np.stack((q * n + p, p * n + q, p * (n + 1), q * (n + 1)))[:, None, :]
        place = (entries + members * (n * n)).ravel()
        spot = (entries + members * (2 * n * n)).ravel()
        plan.append((place, spot[len(spot) // 4 :], np.concatenate((2 * spot[: len(spot) // 2], 2 * spot + 1))))
    return plan


@pytest.mark.parametrize("n, k", [(3, 8), (4, 20), (12, 1), (12, 7), (13, 2), (24, 5)])
def test_plan_keeps_its_flat_positions(n, k):
    plan, want = linalg._rounds_plan(n, k), per_stack_plan(n, k)
    assert len(plan) == len(want)
    for got, ref in zip(plan, want):
        for index, ref_index in zip(got, ref):
            assert np.array_equal(index, ref_index)


def test_plan_cache_holds_one_entry_per_size(monkeypatch):
    # members coupled from 1e-1 down to 1e-13 leave the stack one by one;
    # each departure builds a plan for the smaller stack, and none is kept
    n = 12
    mats = [np.diag(np.arange(1.0, n + 1)).astype(complex) + random_hermitian(n, k, 10.0 ** -k)
            for k in range(1, 14, 2)]
    sizes, real_plan = [], linalg._rounds_plan
    monkeypatch.setattr(linalg, "_rounds_plan", lambda n, k: sizes.append(k) or real_plan(n, k))
    linalg._round_entries.cache_clear()
    hermitian_eigen(mats)
    assert len(sizes) >= 4 and sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
    assert linalg._round_entries.cache_info().currsize == 1
    assert not hasattr(real_plan, "cache_info")
