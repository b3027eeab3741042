"""A stack prepared for the eigensolver in one pass against its members
prepared one by one.

`hermitian_eigen` checks, symmetrizes, scales and warm-starts a stack of
matrices with (k, n, n) operations, once per stack. `per_member_prepared`
is that preparation as it ran member by member before, the reference: each
member must get the same exponent, the same matrix and frame to start
Jacobi from, and the same target, bit for bit. The congruence relies on a
stacked `@` giving each member the bits of a lone `@`.
"""

import math

import numpy as np
import pytest

from conftest import hpd, random_hermitian
from opmeans import linalg
from opmeans.linalg import (
    DEFAULT_CONFIG,
    EIG_OFF_DIAG_TOL,
    NotHermitian,
    as_matrix,
    frobenius_norm,
    hermitian_eigen,
)
from opmeans.randgen import SplitMix64

SIZES = [*range(1, 14), 24]
STACKS = [1, 2, 7, 8, 33]


def reference_require_hermitian(h):
    """`require_hermitian` as it was: (H + H*)/2 under np.errstate, H/2 + H*/2 where that overflows."""
    h = as_matrix(h)
    h_star = h.conj().T
    if not (h == h_star).all():
        scale = frobenius_norm(h)
        with np.errstate(over="ignore"):
            asym = frobenius_norm(h - h_star)
        if asym > DEFAULT_CONFIG.identity_tol * scale:
            raise NotHermitian(f"asymmetry {asym:.3e} exceeds {DEFAULT_CONFIG.identity_tol:.1e} * ||H||_F = "
                               f"{DEFAULT_CONFIG.identity_tol * scale:.3e}")
    try:
        with np.errstate(over="raise"):
            return (h + h_star) / 2.0
    except FloatingPointError:
        return h / 2.0 + h_star / 2.0


def reference_checked_frame(q, shape):
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != shape:
        raise ValueError(f"frame has shape {q.shape}, expected {shape}")
    if not np.isfinite(q).all():
        raise ValueError("frame entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frobenius_norm(q.conj().T @ q - np.eye(shape[0]))
    tol = DEFAULT_CONFIG.identity_tol
    if not defect <= tol:
        raise ValueError(f"frame is not unitary: ||Q*Q - I||_F = {defect:.3e} exceeds {tol:.1e}")
    return q


def per_member_prepared(m, q):
    """(e, the matrix Jacobi runs on, its starting frame, its target) of one
    member, as `hermitian_eigen` prepared each member alone."""
    hm = reference_require_hermitian(m)
    n = hm.shape[0]
    e = max(math.frexp(np.abs(hm).max() or math.ulp(0.0))[1], -1021)
    scaled = hm * math.ldexp(1.0, -e)
    target = EIG_OFF_DIAG_TOL * frobenius_norm(scaled)
    if q is None:
        return e, scaled, np.eye(n, dtype=complex), target
    q = reference_checked_frame(q, hm.shape)
    scaled = q.conj().T @ scaled @ q
    return e, (scaled + scaled.conj().T) / 2.0, q, target


def run_bits(run):
    e, m, q, target = run
    return e, np.ascontiguousarray(m).tobytes(), np.ascontiguousarray(q).tobytes(), target.hex()


def random_unitary(n, seed):
    return np.linalg.qr(SplitMix64(seed).complex_gaussian_matrix(n))[0]


def exact_members(n, k, seed):
    """k exactly Hermitian members: random, HPD, zero, scaled by 2^1000
    and 2^-1000, and entries near 8e307, just below 2^1023."""
    kinds = [
        lambda s: random_hermitian(n, s),
        lambda s: hpd(n, s, cond=1e3),
        lambda s: np.zeros((n, n), dtype=complex),
        lambda s: random_hermitian(n, s) * 2.0**1000,
        lambda s: random_hermitian(n, s) * 2.0**-1000,
        lambda s: random_hermitian(n, s) / np.abs(random_hermitian(n, s)).max() * 8e307,
    ]
    return [kinds[i % len(kinds)](seed + i) for i in range(k)]


def frames_for(mats, mode, seed):
    n = mats[0].shape[0]
    if mode == "none":
        return [None] * len(mats)
    frames = [random_unitary(n, seed + i) if i % 2 else np.linalg.eigh(m)[1] for i, m in enumerate(mats)]
    return frames if mode == "all" else [q if i % 3 else None for i, q in enumerate(frames)]


def stack_prepared(mats, frames):
    return linalg._prepared(*linalg._as_matrices(np.stack(mats), 3), frames)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mode", ["none", "all", "mixed"])
def test_stack_prepares_each_member_as_alone(n, mode):
    for k in STACKS:
        mats = exact_members(n, k, 100 * n + k)
        frames = frames_for(mats, mode, 7 * n + k)
        got = stack_prepared(mats, frames)
        want = [per_member_prepared(m, q) for m, q in zip(mats, frames)]
        assert [run_bits(r) for r in got] == [run_bits(r) for r in want], (n, k, mode)


def near_hermitian(n, seed):
    """A Hermitian matrix with one entry moved by 1e-13 i of its norm."""
    h = random_hermitian(n, seed)
    h[0, -1] += 1e-13j * frobenius_norm(h)
    return h


@pytest.mark.parametrize("n", [1, 2, 5, 12, 24])
@pytest.mark.parametrize("odd", ["near-hermitian", "past-2^1023"])
def test_stack_with_a_member_taken_alone(n, odd):
    # a member that is not exactly Hermitian, or that has an entry of 2^1023
    # or more, sends the whole stack member by member; each gets the bits of
    # its lone call
    for k in STACKS[1:]:
        mats = exact_members(n, k, 3 * n + k)
        big = random_hermitian(n, k) * 1e300
        big[0, 0] = 1.5e308
        mats[k // 2] = near_hermitian(n, k) if odd == "near-hermitian" else big
        frames = frames_for(mats, "mixed", k)
        with pytest.raises(NotHermitian):
            stack_prepared(mats, frames)
        want = [per_member_prepared(m, q) for m, q in zip(mats, frames)]
        got = [r for m, q in zip(mats, frames) for r in linalg._prepared(*linalg._as_matrices(m, 2), [q])]
        assert [run_bits(r) for r in got] == [run_bits(r) for r in want]
        if k <= 7 and n < 12:
            lone = [hermitian_eigen(m, frame=q) for m, q in zip(mats, frames)]
            stacked = hermitian_eigen(np.stack(mats), frame=frames)
            assert [(e.eigenvalues.tobytes(), e.frame.tobytes()) for e in stacked] == [
                (e.eigenvalues.tobytes(), e.frame.tobytes()) for e in lone]


@pytest.mark.parametrize("n", [2, 5, 12, 24])
def test_first_bad_member_raises_its_single_call_error(n):
    # the 3rd member is not Hermitian and the 5th frame is not unitary: the
    # stack raises the 3rd member's error, as a call on it alone does
    mats = exact_members(n, 8, n)
    mats[2] = random_hermitian(n, 2)
    mats[2][0, 1] += 1.0
    frames = frames_for(mats, "all", n)
    frames[4] = frames[4] * 2.0
    with pytest.raises(NotHermitian) as single:
        hermitian_eigen(mats[2], frame=frames[2])
    with pytest.raises(NotHermitian) as stacked:
        hermitian_eigen(np.stack(mats), frame=frames)
    assert str(stacked.value) == str(single.value)
    # with the 3rd member mended, the 5th frame's error
    mats[2] = exact_members(n, 3, 0)[2]
    with pytest.raises(ValueError) as single:
        hermitian_eigen(mats[4], frame=frames[4])
    with pytest.raises(ValueError) as stacked:
        hermitian_eigen(mats, frame=frames)
    assert "frame is not unitary" in str(single.value) and str(stacked.value) == str(single.value)


def test_stacked_product_gives_each_member_its_lone_bits():
    # the kernel property the stack-wide congruence rests on
    for n in SIZES:
        for k in STACKS:
            q = np.stack([random_unitary(n, 50 * n + i) for i in range(k)])
            m = np.stack(exact_members(n, k, n)[:k]) * 2.0**-3
            stacked = q.conj().swapaxes(1, 2) @ m @ q
            lone = [qi.conj().T @ mi @ qi for qi, mi in zip(q, m)]
            assert all(s.tobytes() == x.tobytes() for s, x in zip(stacked, lone)), (n, k)


def test_require_hermitian_keeps_its_bits():
    # (H + H*)/2 without np.errstate below 2^1023, H/2 + H*/2 past it, as before
    for n in (1, 3, 8):
        for h in [*exact_members(n, 6, n), near_hermitian(n, n)]:
            for scale in (1.0, 2.0, 1.7e308, 1e308):
                with np.errstate(over="ignore", invalid="ignore"):
                    x = h / max(np.abs(h).max(), 1e-300) * scale
                if not np.isfinite(x).all():
                    continue
                try:
                    want = reference_require_hermitian(x)
                except NotHermitian as exc:
                    with pytest.raises(NotHermitian, match=str(exc).replace("+", r"\+")):
                        linalg.require_hermitian(x)
                    continue
                assert linalg.require_hermitian(x).tobytes() == want.tobytes()
