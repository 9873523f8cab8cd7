"""Dense complex linear-algebra primitives.

Everything downstream is built on two ingredients: singular value
decompositions and single-linkage clustering of a descending spectrum. The
Hermitian eigenproblems of the range model call numpy directly.

Singular vectors are deterministic for identical input: columns are
phase-normalized so that the first significant component of the left vector
is real positive, and degenerate clusters keep the backend's (deterministic)
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, ShapeMismatch

__all__ = [
    "SvdFrame",
    "SpectralPartition",
    "as_matrix",
    "herm",
    "singular_values",
    "default_cluster_tol",
    "default_rank_tol",
    "haar_unitary",
]


def as_matrix(a) -> np.ndarray:
    """Coerce input to a finite complex128 2-d array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {m.shape}")
    # a complex entry is finite when both of its parts are
    if not np.isfinite(m).all():
        raise NonFinite("matrix entries must be finite")
    return m


def require_square(m: np.ndarray):
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*)/2, of each matrix of a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def default_cluster_tol(s1: float) -> float:
    """Spectrum clustering width: well above eigensolver noise, user-overridable."""
    return 1e-8 * float(s1)


def default_rank_tol(s1: float) -> float:
    """Threshold below which a singular value is treated as zero."""
    return 1e-12 * float(s1)


def _column_phases(m: np.ndarray) -> np.ndarray:
    """Unit factors that make each column's first significant entry real
    positive (1 for a zero column)."""
    phases = np.ones(m.shape[1], dtype=complex)
    if not m.size:
        return phases
    mags = np.abs(m)
    top = mags.max(axis=0)
    first = np.argmax(mags > 1e-12 * top, axis=0)
    cols = np.arange(m.shape[1])
    live = top > 0.0
    phases[live] = np.conj(m[first, cols][live] / mags[first, cols][live])
    return phases


@dataclass
class SvdFrame:
    """Singular value decomposition A = U diag(S) V* of a square matrix."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd_frame(m: np.ndarray) -> SvdFrame:
    """SVD of a matrix its caller has already checked, a finite complex128
    square array, with joint phase normalization; nothing is validated
    again.

    Left and right singular vector pairs are rotated by a common phase keyed
    on the left vector, which leaves the reconstruction unchanged.
    """
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NoConvergence(f"svd failed: {exc}") from exc
    phases = _column_phases(u)
    return SvdFrame(u=u * phases, s=np.real(s), v=vh.conj().T * phases)


def singular_values(m) -> np.ndarray:
    """Singular values of a (possibly rectangular) matrix, descending."""
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"svd failed: {exc}") from exc


@dataclass
class SpectralPartition:
    """Single-linkage clustering of a descending spectrum around index k.

    ``q`` counts boundary-cluster members with index <= k and ``r`` those
    with index > k, so the cluster containing position k has exactly
    q + r members.
    """

    k: int
    q: int
    r: int
    cluster_tol: float

    @property
    def boundary(self) -> tuple:
        """Index range (start, stop) of the cluster containing position k."""
        return (self.k - self.q, self.k + self.r)


def cluster_spectrum(values: np.ndarray, k: int,
                     cluster_tol: float) -> SpectralPartition:
    """Group a descending spectrum by single linkage at width ``cluster_tol``.

    Adjacent values closer than ``cluster_tol`` land in one cluster. The
    returned partition records how the cluster containing position k splits
    around k, which is what the decision formulas consume. The caller has
    already checked its arguments, a nonempty descending float array, k in
    1..n and a width >= 0: nothing is validated again.
    """
    n = values.size
    gaps = values[:-1] - values[1:]
    cut = np.flatnonzero(gaps > cluster_tol) + 1
    starts = np.concatenate([[0], cut])
    stops = np.concatenate([cut, [n]])
    # the cluster holding index k - 1 is the first one stopping beyond it
    c = int(np.searchsorted(stops, k - 1, side="right"))
    return SpectralPartition(k=k, q=k - int(starts[c]),
                             r=int(stops[c]) - k, cluster_tol=float(cluster_tol))


def haar_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR of a Ginibre draw."""
    rng = np.random.default_rng(0) if rng is None else rng
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
