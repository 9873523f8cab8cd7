"""Ky Fan k-norms and the argument checks every decision and referee shares."""

from __future__ import annotations

import numpy as np

from .errors import KOutOfRange, ShapeMismatch
from .linalg import as_matrix, require_square
from .model import COMPLEX_FIELD, REAL_FIELD, rounding_level

__all__ = [
    "ky_fan_norm",
    "ky_fan_norm_batch",
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


def require_field(field: str) -> None:
    """The scalar field every pair decision and referee names: complex or
    real."""
    if field not in (COMPLEX_FIELD, REAL_FIELD):
        raise ValueError(f"unknown scalar field {field!r}")


def ky_fan_norm(a, k: int) -> float:
    """Sum of the k largest singular values."""
    m = as_matrix(a)
    require_k(k, min(m.shape))
    return ky_fan_sum(m, k)


def ky_fan_sum(m: np.ndarray, k: int) -> float:
    """``ky_fan_norm`` of a matrix its caller has already checked, with k in
    range. Nothing is validated again."""
    return float(np.linalg.svd(m, compute_uv=False)[:k].sum())


def chord_allowance(norm_a: float, norm_b: float, t: float, n: int) -> float:
    """Rounding allowance on a chord rate (||A + cB||_(k) - ||A||_(k))/|c|
    at |c| = t for n x n operands: each of the two norms is exact to
    32 n eps (||A||_(k) + t ||B||_(k))."""
    return rounding_level(n) * (norm_a + t * norm_b) / t


def ky_fan_norm_batch(ms: np.ndarray, k: int) -> np.ndarray:
    """Ky Fan k-norms of a stack of matrices (m, rows, cols), one SVD call
    for all of them; like ``ky_fan_sum`` it trusts the stack's entries."""
    sv = np.linalg.svd(ms, compute_uv=False)
    require_k(k, sv.shape[-1])
    return sv[..., :k].sum(axis=-1)
