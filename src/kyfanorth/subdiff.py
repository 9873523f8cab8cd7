"""Subdifferential frames of the Ky Fan k-norm.

The norm A -> sum of the k largest singular values is convex; its
subdifferential at A is parametrized through the SVD A = U diag(S) V* and the
clustering of the spectrum around position k. With boundary cluster split
(q, r) the subgradients are

    G = U1 V1* + U2 T V2*

where columns are grouped (1..k-q | boundary cluster | rest) and T ranges
over the PSD contractions with trace q when s_k > 0, or over general
contractions with singular value sum at most q (and the U2 block widened to
the whole tail) when s_k = 0.

``SubdifferentialFrame`` is the one place that knows this shape: it builds
the range model {tr(G* B)} of a direction B (a fixed complex offset plus
the pairings tr(T* C) of the coefficient with a compression C of B), the
subgradient of a coefficient and the partial-isometry factors of a rank-q
one. The one-sided directional derivative along X is the range model's
support function at angle 0; the certified sweeps of that support function
over all angles close the module.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralPartition,
    SvdFrame,
    cluster_spectrum,
    default_cluster_tol,
    default_rank_tol,
    haar_unitary,
    svd_frame,
)
from .norms import ky_fan_sum, require_operands

__all__ = [
    "SubdifferentialFrame",
    "RangeSetModel",
    "SweepOutcome",
    "build_frame",
    "directional_derivative",
    "subgradient_membership",
    "sample_subgradient",
    "swept_minimum",
    "swept_maximum",
]

_TWO_PI = 2.0 * np.pi


@dataclass
class SubdifferentialFrame:
    """SVD of A split around the cluster of s_k.

    u1/v1 carry the k-q leading singular pairs, u2/v2 the boundary cluster
    (q + r columns). When ``degenerate_zero`` (s_k at or below the rank
    tolerance) the role of u2 widens to ``u2_wide``, the whole tail of U.
    """

    svd: SvdFrame
    part: SpectralPartition
    degenerate_zero: bool
    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray

    @property
    def u2_wide(self) -> np.ndarray:
        if self.degenerate_zero:
            return self.svd.u[:, self.part.boundary[0]:]
        return self.u2

    @property
    def norm_value(self) -> float:
        return float(self.svd.s[: self.part.k].sum())

    def range_model(self, b: np.ndarray) -> "RangeSetModel":
        """The pairing set {tr(G* B)} of the direction B over the
        subgradients G at this frame."""
        if self.u1.shape[1]:
            fixed = complex(np.trace(self.u1.conj().T @ b @ self.v1))
        else:
            fixed = 0.0 + 0.0j
        comp = self.u2.conj().T @ b @ self.v2
        if self.degenerate_zero:
            wide = self.u2_wide.conj().T @ b @ self.v2
            return RangeSetModel(fixed_part=fixed, compression=comp,
                                 m=self.part.q, degenerate=True,
                                 wide_compression=wide)
        return RangeSetModel(fixed_part=fixed, compression=comp, m=self.part.q)

    def subgradient(self, coeff: np.ndarray) -> np.ndarray:
        """G = U1 V1* + U2 T V2* for the boundary coefficient T, with U2
        widened when s_k = 0."""
        return (self.u1 @ self.v1.conj().T
                + self.u2_wide @ coeff @ self.v2.conj().T)

    def term(self, left: np.ndarray, right: np.ndarray) -> tuple:
        """The factors (Y, X) = ([U1, U2 L], [V1, V2 R]) of the subgradient
        Y X* of the boundary coefficient T = L R*, U2 widened when s_k = 0.
        With L and R of q orthonormal columns both have k orthonormal
        columns: X holds the leading right singular vectors and the
        boundary vectors with coordinates R in the boundary cluster."""
        return (np.hstack([self.u1, self.u2_wide @ left]),
                np.hstack([self.v1, self.v2 @ right]))

    def top_term(self) -> tuple:
        """(U_k, V_k): the factors of the subgradient U_k V_k* on the top k
        singular pairs, which norms A exactly."""
        k = self.part.k
        return self.svd.u[:, :k], self.svd.v[:, :k]


def build_frame(a, k: int) -> SubdifferentialFrame:
    """Compute the SVD of ``a`` and split it around the cluster of s_k at
    the default clustering width."""
    a, _ = require_operands(a, [], k)
    return frame_of(a, k)


def frame_of(a: np.ndarray, k: int,
             cluster_tol: float | None = None) -> SubdifferentialFrame:
    """``build_frame`` of a matrix, k and clustering width (None for the
    default) that an entry point has already checked: nothing is
    validated again."""
    fr = svd_frame(a)
    s1 = float(fr.s[0]) if fr.s.size else 0.0
    ct = default_cluster_tol(s1) if cluster_tol is None else float(cluster_tol)
    part = cluster_spectrum(fr.s, k, ct)
    i1, i2 = part.boundary
    return SubdifferentialFrame(
        svd=fr,
        part=part,
        degenerate_zero=bool(fr.s[k - 1] <= default_rank_tol(s1)),
        u1=fr.u[:, :i1],
        v1=fr.v[:, :i1],
        u2=fr.u[:, i1:i2],
        v2=fr.v[:, i1:i2],
    )


def directional_derivative(a, k: int, x, frame: SubdifferentialFrame | None = None) -> float:
    """One-sided derivative of the Ky Fan k-norm at ``a`` along ``x``.

    It is the support function at angle 0 of the range model of ``x``: the
    real leading-block trace plus a top-q eigenvalue sum of the Hermitian
    boundary compression (top-q singular value sum of the widened
    compression when s_k = 0).
    """
    a, (x,) = require_operands(a, [x], k)
    if frame is None:
        frame = frame_of(a, k)
    return frame.range_model(x).support(0.0)


def subgradient_membership(a, k: int, g, tol: float = 1e-8) -> bool:
    """Test the three subgradient conditions for the Ky Fan k-norm.

    G is a subgradient at A iff s_1(G) <= 1, the singular values of G sum to
    at most k, and Re tr(G* A) reaches the norm. The two dual-norm clauses
    are dimensionless and take ``tol`` as it is; the norming clause takes
    it relative to ||A||_(k).
    """
    a, (g,) = require_operands(a, [g], k)
    sg = np.linalg.svd(g, compute_uv=False)
    if sg[0] > 1.0 + tol or sg.sum() > k + tol:
        return False
    norm = ky_fan_sum(a, k)
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
    if frame.degenerate_zero:
        wu = haar_unitary(frame.u2_wide.shape[1], rng)
        wv = haar_unitary(frame.v2.shape[1], rng)
        return frame.subgradient(wu[:, :q] @ wv[:, :q].conj().T)
    w = haar_unitary(frame.v2.shape[1], rng)[:, :q]
    return frame.subgradient(w @ w.conj().T)


# ---------------------------------------------------------------------------
# certified support-function sweep over exposed points


@dataclass(frozen=True)
class SweepOutcome:
    """Extremum over all angles of the support function of a convex set.

    ``value`` is the best sampled support value, attained at ``theta``.
    ``bound`` is the certified other end of the bracket: at or below the
    true minimum, or at or above the true maximum. ``capped`` records that
    the sweep stopped before the bracket closed to its tolerance: on the
    evaluation cap, or with no angle left that it had not sampled.
    ``evals`` counts the angles sampled and ``rounds`` the batches after
    the first; ``angles`` holds every angle sampled and ``points`` the
    exposed point of the set found at each.
    """

    theta: float
    value: float
    bound: float
    evals: int
    angles: np.ndarray
    points: np.ndarray
    capped: bool = False
    rounds: int = 0


_START_ANGLES = 8


def swept_minimum(expose, tol_abs: float, slack: float = 0.0,
                  max_evals: int = 256) -> SweepOutcome:
    """Minimum over theta of the support function h of a compact convex
    set K in the plane, h(theta) = max Re(e^{-i theta} z) over z in K.

    ``expose(thetas)`` returns h at each angle and a point of K attaining
    it, each to within ``slack``. The convex hull of the exposed points lies
    in K, so on each arc between neighbouring sampled angles the hull's
    support function bounds h from below, and its smallest value over all
    arcs bounds min h (the signed distance of 0 to the hull: negative
    outside, the nearest edge line inside). Each round samples every arc
    whose bound is not yet within ``tol_abs`` of the smallest sample, at the
    angle attaining its bound, and the sweep stops once none is left.
    No decision calls it (only ``check_parallel`` sweeps, for a maximum);
    the benchmark reads its ``max_evals`` default as the sweep's cap.
    """
    return _sweep(expose, tol_abs, max_evals, -1.0,
                  lambda th, h, z: _inner_bound(th, z, slack))


def swept_maximum(expose, tol_abs: float, slack: float = 0.0,
                  max_evals: int = 256) -> SweepOutcome:
    """Maximum over theta of the support function h of a compact convex
    set K, that is max |z| over K; ``expose`` as for ``swept_minimum``.

    The supporting lines at the sampled angles cut out a polygon holding
    K, so on each arc the modulus of the polygon's vertex there bounds h
    from above. Each round samples every arc whose bound is not yet within
    ``tol_abs`` of the largest sample, at that vertex's angle.
    """
    return _sweep(expose, tol_abs, max_evals, 1.0,
                  lambda th, h, z: _outer_bound(th, h, slack))


def _sweep(expose, tol_abs, max_evals, sign, certify) -> SweepOutcome:
    """Refine the live arcs round by round; sign -1 minimizes, +1 maximizes.

    ``certify`` takes the samples in angle order and returns, for each arc
    from one sampled angle to the next, its certified bound and the angle
    attaining it. An arc is live while its bound is more than ``tol_abs``
    beyond the best sample. One round samples every live arc in a single
    ``expose`` call: at that angle, and also at the midpoints on either side
    of it once a sample has already failed to close the arc (one of its
    ends was sampled after the first batch), so that the arc closes about
    16-fold rather than 4-fold. A batch that would pass ``max_evals`` takes
    the arcs with the worst bounds first. Angles already sampled are
    dropped, and the sweep stops when no live arc is left, at the cap, or
    when no new angle is.
    """
    theta = np.linspace(0.0, _TWO_PI, _START_ANGLES, endpoint=False)
    h, z = expose(theta)
    rounds = 0
    while True:
        i = int(np.argmax(sign * h))
        order = np.argsort(theta)
        th = theta[order]
        bounds, spots = certify(th, h[order], z[order])
        gaps = sign * (bounds - h[i])
        live = np.flatnonzero(gaps > tol_abs)
        if live.size == 0 or theta.size >= max_evals:
            break
        ranked = live[np.argsort(-sign * bounds[live], kind="stable")]
        late = order >= _START_ANGLES
        fresh = _round_angles(th, spots, ranked, late | np.roll(late, -1),
                              theta)[:max_evals - theta.size]
        if fresh.size == 0:  # repeated samples cannot move the bracket
            break
        hn, zn = expose(fresh)
        theta = np.append(theta, fresh)
        h = np.append(h, hn)
        z = np.append(z, zn)
        rounds += 1
    j = int(np.argmax(sign * bounds))
    bound = max(bounds[j], h[i]) if sign > 0 else min(bounds[j], h[i])
    return SweepOutcome(theta=float(theta[i]), value=float(h[i]),
                        bound=float(bound), evals=int(theta.size),
                        capped=bool(gaps[j] > tol_abs), angles=theta,
                        points=z, rounds=rounds)


def _round_angles(th, spots, ranked, refined, taken) -> np.ndarray:
    """The new angles of one round, arc by arc in the order ``ranked``:
    each arc's ``spot``, then, for a ``refined`` arc, the midpoints between
    the spot and the arc's two ends. Angles in ``taken`` or repeated are
    dropped."""
    ends = np.append(th[1:], th[0] + _TWO_PI)
    split = np.column_stack([spots, 0.5 * (th + spots), 0.5 * (spots + ends)])
    used = np.ones(split.shape, dtype=bool)
    used[~refined, 1:] = False
    angles = split[ranked][used[ranked]] % _TWO_PI
    same = angles[:, None] == np.append(taken, angles)
    seen = same[:, :taken.size].any(axis=1)
    seen |= np.tril(same[:, taken.size:], -1).any(axis=1)
    return angles[~seen]


def _inner_bound(th, near, slack: float) -> tuple:
    """Smallest support value over each arc of the hull of the exposed
    points, less rounding slack, and the angle attaining it.

    Exposed points ``near`` follow the boundary in the order of their
    angles ``th`` (ascending), so on the arc from th_j to th_{j+1} the hull's support
    value is max(Re(e^{-i phi} z_j), Re(e^{-i phi} z_{j+1})). That maximum
    of two sinusoids is smallest at an end of the arc, where the two cross
    (a normal of the edge from z_j to z_{j+1}), or at the trough of one of
    them. Reading each arc off its two points alone keeps the bound below
    the support function of the set even where rounding bends the polygon.
    """
    far = np.roll(near, -1)
    delta = np.diff(th, append=th[0] + _TWO_PI)
    normal = np.angle(far - near) - 0.5 * np.pi
    spots = np.stack([normal, normal + np.pi, np.angle(-near),
                      np.angle(-far)], axis=1)
    offset = np.column_stack([np.zeros_like(delta), delta,
                              (spots - th[:, None]) % _TWO_PI])
    phase = np.exp(-1j * (th[:, None] + offset))
    value = np.maximum(np.real(phase * near[:, None]),
                       np.real(phase * far[:, None]))
    value[offset > delta[:, None]] = np.inf
    s = np.argmin(value, axis=1)
    arcs = np.arange(th.size)
    return value[arcs, s] - slack, th + offset[arcs, s]


def _outer_bound(th, ends, slack: float) -> tuple:
    """Largest support value over each arc of the polygon cut out by the
    supporting lines with support values ``ends`` at the sampled angles
    ``th`` (ascending), plus rounding slack, and the angle attaining it.

    Over the arc from th_j to th_j + delta the two half-planes of its
    ends have support value a h_j + b h_{j+1}, with e^{i phi} =
    a e^{i th_j} + b e^{i th_{j+1}}. That peaks at the modulus of the
    vertex where their lines meet when the vertex points into the arc, and
    at an end otherwise. An error of at most ``slack`` in each h moves the
    peak by at most (a + b) slack <= slack / cos(delta / 2).
    """
    far = np.roll(ends, -1)
    delta = np.diff(th, append=th[0] + _TWO_PI)
    vertex = np.exp(1j * th) * (
        ends + 1j * (far - ends * np.cos(delta)) / np.sin(delta))
    turn = np.angle(vertex * np.exp(-1j * th))
    inside = (turn >= 0.0) & (turn <= delta)
    peak = np.where(inside, np.abs(vertex), np.maximum(ends, far))
    return (peak + slack / np.cos(0.5 * delta),
            th + np.where(inside, turn, 0.0))


@dataclass
class RangeSetModel:
    """The attainable pairing set {tr(G* B)} of a direction B at a frame of A.

    The set equals fixed_part + {tr(T* C) : T in the boundary coefficient
    set}, where fixed_part collects the forced traces over singular clusters
    fully inside the top k and C = ``block`` is the boundary compression of
    the direction. m is the trace budget of the boundary coefficient. When
    the frame is degenerate (s_k = 0) the coefficient ranges over
    contractions on the widened tail, C is ``wide_compression``, and the
    support function loses its angular part except through fixed_part.
    """

    fixed_part: complex
    compression: np.ndarray
    m: int
    degenerate: bool = False
    wide_compression: np.ndarray | None = None

    @property
    def width(self) -> int:
        return int(self.compression.shape[1]) if self.compression.size else 0

    @property
    def block(self) -> np.ndarray:
        """The compression a boundary coefficient pairs with."""
        return self.wide_compression if self.degenerate else self.compression

    def pairing(self, coeff: np.ndarray) -> complex:
        """fixed_part + tr(T* C): the pairing tr(G* B) of the subgradient G
        with coefficient T."""
        return complex(self.fixed_part) + complex(np.vdot(coeff, self.block))

    @property
    def is_point(self) -> bool:
        # trace budget equal to the block width pins the coefficient to I
        return (not self.degenerate) and self.m == self.width

    @property
    def point_value(self) -> complex:
        return complex(self.fixed_part + np.trace(self.compression))

    def support(self, thetas):
        """max over the set of Re(e^{-i theta} z), vectorized over thetas."""
        th = np.atleast_1d(np.asarray(thetas, dtype=float))
        out = self._expose(th)[0]
        if np.ndim(thetas) == 0:
            return float(out[0])
        return out

    def _expose(self, thetas: np.ndarray) -> tuple:
        """Support values at the angles and a point of the set attaining
        each: fixed_part + tr(W* C W) for the top-m eigenvectors W of
        H(theta), in closed form for a point or a disk."""
        ph = np.exp(-1j * thetas)
        fixed = complex(self.fixed_part)
        if self.degenerate:
            radius = ky_fan_sum(self.wide_compression, self.m)
            return np.real(ph * fixed) + radius, fixed + radius * np.conj(ph)
        if self.is_point:
            z = self.point_value
            return np.real(ph * z), np.full(thetas.shape, z)
        w, top = self._top_eigen(thetas)
        values = np.real(ph * fixed) + w.sum(axis=1)
        points = fixed + np.sum(top.conj() * (self.compression @ top),
                                axis=(1, 2))
        return values, points

    def _top_eigen(self, thetas: np.ndarray) -> tuple:
        """Top-m eigenvalues and eigenvectors of H(theta) = (e^{-i theta} C
        + e^{i theta} C*) / 2 at each angle."""
        ph = np.exp(-1j * thetas)
        c = self.compression
        hs = 0.5 * (ph[:, None, None] * c
                    + np.conj(ph)[:, None, None] * c.conj().T)
        w, v = np.linalg.eigh(hs)
        return w[:, -self.m:], v[:, :, -self.m:]

    def _rounding_slack(self) -> float:
        # eigenvalue sums and the traces tr(W* C W) carry rounding of order
        # d * eps * ||C||; the certified bounds give that much away
        return (16.0 * self.width * np.finfo(float).eps
                * (float(np.linalg.norm(self.compression))
                   + abs(complex(self.fixed_part))))

    def maximum(self, tol_abs: float) -> SweepOutcome:
        """max over theta of the support function = max |z| over the set,
        in closed form when the set is a point."""
        if self.is_point:
            z = self.point_value
            theta = 0.0 if z == 0 else cmath.phase(z) % _TWO_PI
            angles = np.array([theta])
            return SweepOutcome(theta=theta, value=abs(z), bound=abs(z),
                                evals=0, angles=angles,
                                points=np.array([z]))
        return swept_maximum(self._expose, tol_abs,
                             slack=self._rounding_slack())
