"""Subdifferential frames of the Ky Fan k-norm.

The norm A -> sum of the k largest singular values is convex; its
subdifferential at A is parametrized through the SVD A = U diag(S) V* and the
clustering of the spectrum around position k. With boundary cluster split
(q, r) the subgradients are

    G = U1 V1* + U2 T V2*

where columns are grouped (1..k-q | boundary cluster | rest) and T ranges
over the PSD contractions with trace q when s_k > 0, or over general
contractions with singular value sum at most q (and the U2 block widened to
the whole tail) when s_k = 0. The one-sided directional derivative is the
support function of that set and has the closed form implemented in
``directional_derivative``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KOutOfRange, QOutOfRange, ShapeMismatch
from .linalg import (
    SpectralPartition,
    SvdFrame,
    as_matrix,
    cluster_spectrum,
    default_cluster_tol,
    default_rank_tol,
    haar_unitary,
    herm,
    singular_values,
    svd,
    top_q_eigsum,
    top_q_singsum,
)
from .norms import ky_fan_norm, require_k, require_operands

__all__ = [
    "SubdifferentialFrame",
    "SpectralSetDescriptor",
    "PSD_CASE",
    "GENERAL_CASE",
    "build_frame",
    "directional_derivative",
    "subgradient_membership",
    "sample_subgradient",
]

PSD_CASE = "psd"
GENERAL_CASE = "general"


@dataclass
class SubdifferentialFrame:
    """SVD of A split around the cluster of s_k.

    u1/v1 carry the k-q leading singular pairs, u2/v2 the boundary cluster
    (q + r columns), u3/v3 the remainder. When ``degenerate_zero`` (s_k at or
    below ``rank_tol``) the role of u2 widens to ``u2_wide`` = [u2 u3].
    """

    svd: SvdFrame
    part: SpectralPartition
    rank_tol: float
    degenerate_zero: bool
    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray
    u3: np.ndarray
    v3: np.ndarray

    @property
    def u2_wide(self) -> np.ndarray:
        if self.degenerate_zero:
            return np.hstack([self.u2, self.u3])
        return self.u2

    @property
    def k(self) -> int:
        return self.part.k

    @property
    def norm_value(self) -> float:
        return float(self.svd.s[: self.part.k].sum())

    def descriptor(self) -> "SpectralSetDescriptor":
        q, r = self.part.q, self.part.r
        if self.degenerate_zero:
            return SpectralSetDescriptor(
                kind=GENERAL_CASE, dims=(self.u2_wide.shape[1], q + r), q=q
            )
        return SpectralSetDescriptor(kind=PSD_CASE, dims=(q + r, q + r), q=q)


def build_frame(a, k: int, cluster_tol: float | None = None,
                rank_tol: float | None = None) -> SubdifferentialFrame:
    """Compute the SVD of ``a`` and split it around the cluster of s_k."""
    a, _ = require_operands(a, [], k)
    fr = svd(a)
    s1 = float(fr.s[0]) if fr.s.size else 0.0
    ct = default_cluster_tol(s1) if cluster_tol is None else float(cluster_tol)
    rt = default_rank_tol(s1) if rank_tol is None else float(rank_tol)
    part = cluster_spectrum(fr.s, k, ct)
    i1, i2 = part.boundary
    return SubdifferentialFrame(
        svd=fr,
        part=part,
        rank_tol=rt,
        degenerate_zero=bool(fr.s[k - 1] <= rt),
        u1=fr.u[:, :i1],
        v1=fr.v[:, :i1],
        u2=fr.u[:, i1:i2],
        v2=fr.v[:, i1:i2],
        u3=fr.u[:, i2:],
        v3=fr.v[:, i2:],
    )


def _dd_from_frame(frame: SubdifferentialFrame, x: np.ndarray) -> float:
    q = frame.part.q
    lead = float(np.real(np.trace(frame.u1.conj().T @ x @ frame.v1)))
    if frame.degenerate_zero:
        m = frame.u2_wide.conj().T @ x @ frame.v2
        return lead + top_q_singsum(m, q)
    m = frame.u2.conj().T @ x @ frame.v2
    return lead + top_q_eigsum(herm(m), q)[0]


def directional_derivative(a, k: int, x, frame: SubdifferentialFrame | None = None) -> float:
    """One-sided derivative of the Ky Fan k-norm at ``a`` along ``x``.

    Computed in closed form from the frame: the leading-block trace plus a
    top-q eigenvalue sum of the Hermitian boundary compression (top-q
    singular value sum of the widened compression when s_k = 0).
    """
    if frame is None:
        frame = build_frame(a, k)
    x = as_matrix(x)
    if x.shape != frame.svd.u.shape:
        raise ShapeMismatch(f"direction shape {x.shape} != {frame.svd.u.shape}")
    return _dd_from_frame(frame, x)


def subgradient_membership(a, k: int, g, tol: float = 1e-8) -> bool:
    """Test the three subgradient conditions for the Ky Fan k-norm.

    G is a subgradient at A iff s_1(G) <= 1, the singular values of G sum to
    at most k, and Re tr(G* A) reaches the norm. The two dual-norm clauses
    are dimensionless and take ``tol`` as it is; the norming clause takes
    it relative to ||A||_(k).
    """
    a = as_matrix(a)
    g = as_matrix(g)
    if g.shape != a.shape:
        raise ShapeMismatch(f"subgradient shape {g.shape} != {a.shape}")
    require_k(k, min(a.shape))
    sg = singular_values(g)
    if sg[0] > 1.0 + tol or sg.sum() > k + tol:
        return False
    norm = ky_fan_norm(a, k)
    return float(np.real(np.trace(g.conj().T @ a))) >= norm - tol * norm


def sample_subgradient(a, k: int, rng=None,
                       frame: SubdifferentialFrame | None = None) -> np.ndarray:
    """Draw an extreme subgradient with random mixing inside the boundary cluster.

    Leading clusters contribute U1 V1* exactly (their sum does not depend on
    the basis chosen inside each cluster). From the boundary cluster q mixed
    singular pairs are taken; in the degenerate case the left vectors may come
    from anywhere in the tail.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if frame is None:
        frame = build_frame(a, k)
    q = frame.part.q
    g = frame.u1 @ frame.v1.conj().T
    if frame.degenerate_zero:
        uw = frame.u2_wide
        wu = haar_unitary(uw.shape[1], rng)
        wv = haar_unitary(frame.v2.shape[1], rng)
        ucols = uw @ wu[:, :q]
        vcols = frame.v2 @ wv[:, :q]
    else:
        w = haar_unitary(frame.u2.shape[1], rng)
        ucols = frame.u2 @ w[:, :q]
        vcols = frame.v2 @ w[:, :q]
    return g + ucols @ vcols.conj().T


@dataclass(frozen=True)
class SpectralSetDescriptor:
    """Feasible set for the boundary coefficient T of a subgradient.

    kind PSD_CASE: Hermitian T with 0 <= T <= I and tr T = q.
    kind GENERAL_CASE: dims[0] x dims[1] contractions with singular values
    summing to at most q.
    """

    kind: str
    dims: tuple
    q: int

    def contains(self, t, tol: float = 1e-8) -> bool:
        t = as_matrix(t)
        if t.shape != tuple(self.dims):
            raise ShapeMismatch(f"T shape {t.shape} != {tuple(self.dims)}")
        if self.kind == PSD_CASE:
            if float(np.abs(t - t.conj().T).max()) > tol:
                return False
            w = np.linalg.eigvalsh(herm(t))
            return (
                w[0] >= -tol
                and w[-1] <= 1.0 + tol
                and abs(float(np.real(np.trace(t))) - self.q) <= tol * max(1, self.q)
            )
        s = singular_values(t)
        return s[0] <= 1.0 + tol and s.sum() <= self.q + tol

    def sample(self, rng) -> np.ndarray:
        """Random feasible point, used by sampling validations in tests."""
        rows, cols = self.dims
        if self.kind == PSD_CASE:
            lam = _capped_simplex(rng, cols, self.q)
            w = haar_unitary(cols, rng)
            return (w * lam) @ w.conj().T
        d = min(rows, cols)
        lam = _capped_simplex(rng, d, min(self.q, d)) * rng.uniform(0.0, 1.0)
        wu = haar_unitary(rows, rng)[:, :d]
        wv = haar_unitary(cols, rng)[:, :d]
        return (wu * lam) @ wv.conj().T


def _capped_simplex(rng, d: int, total) -> np.ndarray:
    """Random point with entries in [0, 1] summing to ``total`` (total <= d)."""
    if total > d:
        raise QOutOfRange(f"total {total} exceeds dimension {d}")
    x = rng.dirichlet(np.ones(d)) * total
    for _ in range(d):
        over = x > 1.0
        if not over.any():
            break
        excess = (x[over] - 1.0).sum()
        x[over] = 1.0
        free = ~over
        room = 1.0 - x[free]
        if room.sum() <= 0:
            break
        x[free] += excess * room / room.sum()
    return np.clip(x, 0.0, 1.0)
