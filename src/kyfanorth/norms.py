"""Ky Fan k-norms, their duals, and a variational cross-check."""

from __future__ import annotations

import numpy as np

from .errors import KOutOfRange, ShapeMismatch
from .linalg import as_matrix, require_square, singular_values

__all__ = [
    "ky_fan_norm",
    "ky_fan_norm_batch",
    "ky_fan_dual_norm",
    "variational_norm",
]


def require_k(k: int, n: int):
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")


def require_operands(a, others, k: int) -> tuple:
    """The argument check every decision and referee entry shares: A and
    each of ``others`` as finite complex matrices, A square, the others of
    A's shape, and k in 1..n. Returns (A, list of the others)."""
    a = as_matrix(a)
    require_square(a)
    mats = [as_matrix(w) for w in others]
    for w in mats:
        if w.shape != a.shape:
            raise ShapeMismatch(f"operand shape {w.shape} != {a.shape}")
    require_k(k, a.shape[0])
    return a, mats


def ky_fan_norm(a, k: int) -> float:
    """Sum of the k largest singular values."""
    s = singular_values(as_matrix(a))
    require_k(k, s.size)
    return float(s[:k].sum())


def ky_fan_norm_batch(ms: np.ndarray, k: int) -> np.ndarray:
    """Ky Fan k-norms of a stack of matrices (m, rows, cols)."""
    sv = np.linalg.svd(ms, compute_uv=False)
    require_k(k, sv.shape[-1])
    return sv[..., :k].sum(axis=-1)


def ky_fan_dual_norm(x, k: int) -> float:
    """Dual of the Ky Fan k-norm: max of the operator norm and trace norm / k."""
    s = singular_values(as_matrix(x))
    require_k(k, s.size)
    return float(max(s[0], s.sum() / k))


def _random_isometry(n: int, k: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    q, _ = np.linalg.qr(z)
    return q


def variational_norm(a, k: int, samples: int = 0, rng=None, frames=None) -> float:
    """Best value of Re tr(U* A V) over trial rank-k isometry pairs.

    Any value is a lower bound on ``ky_fan_norm(a, k)``; feeding the top-k
    singular vector columns through ``frames`` attains it exactly. Used for
    tests and diagnostics only, the closed form is the production path.
    """
    a = as_matrix(a)
    require_k(k, min(a.shape))
    best = -np.inf
    for u, v in frames or []:
        best = max(best, float(np.real(np.trace(u.conj().T @ a @ v))))
    if samples:
        rng = np.random.default_rng(0) if rng is None else rng
        for _ in range(samples):
            u = _random_isometry(a.shape[0], k, rng)
            v = _random_isometry(a.shape[1], k, rng)
            best = max(best, float(np.real(np.trace(u.conj().T @ a @ v))))
    if best == -np.inf:
        raise ValueError("need samples > 0 or at least one frame")
    return best
