"""Labeled random instances for tests, acceptance runs, and the CLI.

Constructions are exact: orthogonal pairs are produced by shifting a random
direction so the attainable pairing set contains zero (at an interior point
whenever the spectrum layout allows one), parallel pairs share singular
frames so triangle equality holds identically, and negative instances are
rejection-sampled far from the decision bands.
"""

from __future__ import annotations

import numpy as np

from .decide import check_pair, check_parallel
from .linalg import haar_unitary
from .model import COMPLEX_FIELD, REAL_FIELD, Verdict
from .norms import ky_fan_norm
from .subdiff import build_frame

__all__ = [
    "random_matrix",
    "tied_spectrum",
    "make_orthogonal_pair",
    "make_nonorthogonal_pair",
    "make_parallel_pair",
    "make_nonparallel_pair",
    "make_singular_pair",
    "make_subspace_instance",
    "haar_unitary",
]


def random_matrix(n: int, rng=None) -> np.ndarray:
    """Complex Ginibre matrix with entries of standard deviation 1/sqrt(n)."""
    rng = np.random.default_rng(0) if rng is None else rng
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (1.0 / np.sqrt(2.0 * n)) * z


def tied_spectrum(n: int, k: int, rng=None, q: int = 1, r: int = 0,
                  zero_boundary: bool = False) -> np.ndarray:
    """Descending spectrum whose cluster at position k has the split (q, r).

    Clusters are separated by gaps of at least 0.1 so default clustering
    recovers the layout exactly. zero_boundary puts the boundary cluster at
    zero, which forces it to absorb the whole tail.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if not 1 <= q <= k:
        raise ValueError("need 1 <= q <= k")
    if r < 0 or (not zero_boundary and k + r > n):
        raise ValueError("boundary cluster exceeds the spectrum")
    lead = k - q
    if zero_boundary:
        tail = 0
        distinct = lead
    else:
        tail = n - k - r
        distinct = lead + 1 + tail
    gaps = rng.uniform(0.1, 0.5, size=max(distinct, 1))
    levels = np.cumsum(gaps)[::-1] + 0.2
    s = np.empty(n)
    s[:lead] = levels[:lead]
    if zero_boundary:
        s[lead:] = 0.0
    else:
        vb = levels[lead]
        s[lead:k + r] = vb
        s[k + r:] = levels[lead + 1:]
    return s


def _compose(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u * s) @ v.conj().T


def _shift_to_contain_zero(b: np.ndarray, frame, interior: bool,
                           field: str) -> np.ndarray:
    """Subtract a multiple of the first singular pair's rank-one term so the
    pairing set of the result contains zero, at an interior point when
    ``interior``."""
    model = frame.range_model(b)
    q, d = model.m, model.width
    fixed = model.fixed_part
    if frame.degenerate_zero:
        # pairing set is fixed + a disk; zeroing fixed centers it on zero
        target = fixed
    elif interior and d > q:
        target = fixed + (q / d) * complex(np.trace(model.compression))
    else:
        target = fixed + complex(np.trace(model.compression))
    if field == REAL_FIELD:
        target = complex(target.real, 0.0)
    # with no leading block the term lands in the boundary compression,
    # whose pairing takes q/d of it when interior
    if frame.part.boundary[0] == 0 and interior and d > q:
        target = target * (d / q)
    return b - target * np.outer(frame.svd.u[:, 0], frame.svd.v[:, 0].conj())


def make_orthogonal_pair(n: int, k: int, rng=None, q: int = 1, r: int = 0,
                         degenerate: bool = False,
                         field: str = COMPLEX_FIELD):
    """Pair (A, B) with B orthogonal to A by construction.

    The spectrum of A is laid out with the requested boundary split and the
    random direction is shifted so zero lands in its pairing set, interior
    whenever r >= 1 gives the set two dimensions. Returns (a, b, label).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    s = tied_spectrum(n, k, rng, q=q, r=r, zero_boundary=degenerate)
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    a = _compose(u, s, v)
    frame = build_frame(a, k)
    b = _shift_to_contain_zero(random_matrix(n, rng), frame,
                               interior=r >= 1 or degenerate, field=field)
    label = {
        "kind": "orthogonal",
        "expected": Verdict.ORTHOGONAL.value,
        "field": field,
        "n": n,
        "k": k,
        "q": q,
        "r": r,
        "degenerate": degenerate,
    }
    return a, b, label


def _clearly_failing_pair(n: int, k: int, rng, check, kind: str,
                          expected: Verdict):
    """Random pair (A, B) whose margin under ``check`` is far below the
    strict band, by rejection sampling over up to 64 draws; a random pair
    almost always qualifies on the first. Returns (a, b, label) with the
    observed margin recorded."""
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(64):
        a = random_matrix(n, rng)
        b = random_matrix(n, rng)
        d = check(a, b, k, want_certificate=False)
        if d.margin < -10.0 * d.tolerances.strict * d.scale:
            return a, b, {"kind": kind, "expected": expected.value, "n": n,
                          "k": k, "margin": d.margin}
    raise RuntimeError("rejection sampling failed to find a clear instance")


def make_nonorthogonal_pair(n: int, k: int, rng=None):
    """Pair (A, B) whose margin is far below the strict band."""
    return _clearly_failing_pair(n, k, rng, check_pair, "nonorthogonal",
                                 Verdict.NOT_ORTHOGONAL)


def make_parallel_pair(n: int, k: int, rng=None):
    """Pair achieving triangle equality at a known unimodular scalar.

    A and B share left and right singular frames with both spectra
    descending, so the equality scalar is the conjugate of the random phase
    applied to B. Returns (a, b, label) with the scalar in the label.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    sa = tied_spectrum(n, k, rng)
    sb = np.sort(rng.uniform(0.2, 2.0, size=n))[::-1]
    psi = float(rng.uniform(0.0, 2.0 * np.pi))
    a = _compose(u, sa, v)
    b = np.exp(1j * psi) * _compose(u, sb, v)
    lam = np.exp(-1j * psi)
    label = {
        "kind": "parallel",
        "expected": Verdict.PARALLEL.value,
        "n": n,
        "k": k,
        "lambda_re": float(lam.real),
        "lambda_im": float(lam.imag),
    }
    return a, b, label


def make_nonparallel_pair(n: int, k: int, rng=None):
    """Pair whose peak pairing modulus stays clearly below ||B||_(k)."""
    if n < 2:
        # every 1 x 1 pair is parallel: the unimodular lambda that turns
        # lambda b onto a gives |a + lambda b| = |a| + |b|
        raise ValueError("a nonparallel pair needs n >= 2")
    return _clearly_failing_pair(n, k, rng, check_parallel, "nonparallel",
                                 Verdict.NOT_PARALLEL)


def make_singular_pair(n: int, k: int, rng=None, rank: int | None = None):
    """A with prescribed rank below k plus a random direction.

    Exercises the degenerate branch: s_k(A) = 0, so witness systems and the
    parallelism criterion are out of scope while the widened block criterion
    still decides. Returns (a, b, label).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    rank = k - 1 if rank is None else rank
    if not 0 <= rank < k:
        raise ValueError("rank must be below k")
    s = np.zeros(n)
    if rank:
        s[:rank] = np.sort(rng.uniform(0.5, 2.0, size=rank))[::-1]
    a = _compose(haar_unitary(n, rng), s, haar_unitary(n, rng))
    b = random_matrix(n, rng)
    label = {"kind": "singular", "n": n, "k": k, "rank": rank}
    return a, b, label


def make_subspace_instance(n: int, k: int, m: int, rng=None,
                           orthogonal: bool = True, q: int = 1, r: int = 0):
    """Basis of m directions with a known subspace verdict against A.

    Orthogonal: a fixed subgradient G is assembled from an interior boundary
    coefficient and every basis matrix is projected Frobenius-orthogonal to
    G, which makes G annihilate the whole span. Negative: one direction gets
    a strong component along A itself, whose pairing set sits at distance
    ||A||_(k) from zero. Returns (a, basis, label).
    """
    if m < 1:
        raise ValueError(f"a subspace instance needs m >= 1, got {m}")
    rng = np.random.default_rng(0) if rng is None else rng
    s = tied_spectrum(n, k, rng, q=q, r=r)
    a = _compose(haar_unitary(n, rng), s, haar_unitary(n, rng))
    frame = build_frame(a, k)
    d = frame.part.q + frame.part.r
    g = frame.subgradient(np.eye(d, dtype=complex) * (frame.part.q / d))
    g_norm2 = float(np.real(np.trace(g.conj().T @ g)))
    basis = []
    for _ in range(m):
        w = random_matrix(n, rng)
        if orthogonal:
            w = w - (np.trace(g.conj().T @ w) / g_norm2) * g
        basis.append(w)
    if not orthogonal:
        # every subgradient pairs with A at exactly the norm, so a dominant
        # component along A keeps the whole span infeasible
        basis[-1] = 0.05 * basis[-1] + a / ky_fan_norm(a, k)
    label = {
        "kind": "subspace",
        "expected": (Verdict.ORTHOGONAL if orthogonal
                     else Verdict.NOT_ORTHOGONAL).value,
        "n": n,
        "k": k,
        "m": m,
        "q": q,
        "r": r,
    }
    return a, basis, label
