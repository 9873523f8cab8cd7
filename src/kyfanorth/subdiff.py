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
the subgradient of a coefficient, the partial-isometry factors of a
rank-q one, and the range model {(tr(G* B_j))_j} of directions B_1..B_m
(fixed complex offsets plus the pairings tr(T* C_j) of the coefficient
with compressions C_j of the B_j). ``RangeSetModel`` is the one place
that knows the boundary coefficient set: its pairing, its centre and the
nearest-point search's start, the batched exposure of the points lowest
along given directions, which every search, sweep and support value
reads, and the purification of a pair's coefficient to one projector.
The one-sided directional derivative along X is the range model's
support function at angle 0; the certified sweeps of that support
function over all angles close the module.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import WitnessSearchFailed
from .linalg import (
    SpectralPartition,
    SvdFrame,
    cluster_spectrum,
    default_cluster_tol,
    default_rank_tol,
    haar_unitary,
    herm,
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

    def range_model(self, *directions: np.ndarray) -> "RangeSetModel":
        """The joint pairing set {(tr(G* B_j))_j} of the directions over
        the subgradients G at this frame; one direction makes a pair's."""
        fixed = [complex(np.trace(self.u1.conj().T @ b @ self.v1))
                 if self.u1.shape[1] else 0j for b in directions]
        rows = self.u2_wide.conj().T
        return RangeSetModel(fixed=np.array(fixed),
                             blocks=np.array([rows @ b @ self.v2
                                              for b in directions]),
                             q=self.part.q, degenerate=self.degenerate_zero)

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
    the first.
    """

    theta: float
    value: float
    bound: float
    evals: int
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
                        capped=bool(gaps[j] > tol_abs), rounds=rounds)


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
    """The joint pairing set {(tr(G* B_j))_j} of directions B_1..B_m over
    the subgradients G at a frame of A; a pair's set is m = 1.

    The set equals fixed + {(tr(T* C_j))_j : T a boundary coefficient}.
    ``fixed`` collects the forced traces over the singular clusters fully
    inside the top k, and ``blocks`` stacks the compressions C_j of the
    directions that a coefficient pairs with. q is the coefficient's trace
    budget. When s_k > 0 the coefficient ranges over the PSD contractions of
    trace q and each C_j is the d x d boundary compression. When the frame
    is ``degenerate`` (s_k = 0) it ranges over the contractions of singular
    value sum at most q, and C_j widens to the rows of the whole tail.

    The model is the one owner of that set. Its pairing, its centre and
    start, and its batched ``expose`` serve the nearest-point search, the
    parallel sweep, the support function and the generator.
    """

    fixed: np.ndarray
    blocks: np.ndarray
    q: int
    degenerate: bool = False

    @property
    def width(self) -> int:
        return int(self.blocks.shape[2])

    @property
    def is_point(self) -> bool:
        # trace budget equal to the block width pins the coefficient to I
        return (not self.degenerate) and self.q == self.width

    def pairing(self, coeff: np.ndarray) -> np.ndarray:
        """fixed + (tr(T* C_j))_j: the pairings tr(G* B_j) of the
        subgradient G with boundary coefficient T."""
        flat = self.blocks.reshape(self.fixed.size, -1)
        return self.fixed + flat @ coeff.conj().ravel()

    @functools.cached_property
    def centre(self) -> tuple:
        """The centre of the coefficient set as a mixture [(w, L, R), ...]
        of rank-q atoms L R*, and its image: the point the generator
        shifts to 0.

        - s_k = 0: the centre 0 is the midpoint of the contractions E and
          -E, E = [I_q; 0], and its image is the fixed part.
        - Otherwise: (q/d) I is the mean of the d projectors on q
          cyclically consecutive coordinates, or I itself for a point set.
        """
        q, d = self.q, self.width
        if self.degenerate:
            left = np.eye(self.blocks.shape[1], q, dtype=complex)
            right = np.eye(d, q, dtype=complex)
            return [(0.5, left, right), (0.5, -left, right)], self.fixed
        eye = np.eye(d, dtype=complex)
        point = self.fixed + (q / d) * self.blocks.trace(axis1=1, axis2=2)
        if self.is_point:
            return [(1.0, eye, eye)], point
        # column j of the i-th factor is column i + j (mod d) of I
        cyclic = eye[:, (np.arange(d)[:, None] + np.arange(q)) % d]
        return [(1.0 / d, p, p) for p in cyclic.transpose(1, 0, 2)], point

    def start(self) -> tuple:
        """A pair search's first atom and its point: the centre or, when
        d > 3q, the atom exposed at the centre's image. The coefficient of
        a corral of three atoms then has at most 3q eigenvalues strictly
        between 0 and 1, and purifies in fewer than 3q steps."""
        atoms, point = self.centre
        if self.degenerate or self.width <= 3 * self.q:
            return atoms, point
        points, left, right = self.expose(point[None])
        return [(1.0, left[0], right[0])], points[0]

    def expose(self, x: np.ndarray) -> tuple:
        """The points of the set lowest along the rows of the N x m
        directions x, each minimizing Re <x_i, z>, and their rank-q atoms:
        (points, L, R), N x m, N x rows x q and N x d x q, with T = L R*.

        With M = sum_j conj(x_j) C_j the minimum of Re tr(T* M) is reached
        at the rank-q projector V V* on the bottom-q eigenvectors V of
        herm(M) when s_k > 0, and at T = -U_q V_q* for the top-q singular
        pairs of M, with value -||M||_(q), at s_k = 0. A point set is its
        own exposed point, with coefficient I.
        """
        n = x.shape[0]
        if self.is_point:
            eye = np.repeat(np.eye(self.q, dtype=complex)[None], n, axis=0)
            return np.repeat(self.centre[1][None], n, axis=0), eye, eye
        flat = self.blocks.reshape(self.fixed.size, -1)
        mix = (x.conj() @ flat).reshape(n, *self.blocks.shape[1:])
        if self.degenerate:
            u, _, vh = np.linalg.svd(mix, full_matrices=False)
            left, right = -u[..., :self.q], _adjoint(vh[:, :self.q])
        else:
            left = right = np.linalg.eigh(herm(mix))[1][..., :self.q]
        coeff = left @ _adjoint(right)
        return (self.fixed + coeff.conj().reshape(n, -1) @ flat.T, left,
                right)

    def purify(self, coeff: np.ndarray) -> tuple:
        """q orthonormal columns L of a rank-q projector L L* whose pairing
        equals that of the pair coefficient ``coeff`` at s_k > 0, and the
        steps ``_purify`` took to reach it."""
        return _purify(coeff, self.blocks[0], self.q)

    def _angles(self, thetas: np.ndarray) -> tuple:
        """A pair's support values at the angles and the points attaining
        them: the points exposed along -e^{i theta}."""
        ph = np.exp(-1j * thetas)
        z = self.expose(-np.conj(ph)[:, None])[0][:, 0]
        return np.real(ph * z), z

    def support(self, thetas):
        """A pair's max over the set of Re(e^{-i theta} z), vectorized over
        thetas."""
        out = self._angles(np.atleast_1d(np.asarray(thetas, dtype=float)))[0]
        if np.ndim(thetas) == 0:
            return float(out[0])
        return out

    @property
    def slack(self) -> float:
        """The rounding an exposed support value carries, of order
        d * eps * ||C||, which the certified sweep bounds give away."""
        return (16.0 * self.width * np.finfo(float).eps
                * (float(np.linalg.norm(self.blocks))
                   + float(np.abs(self.fixed).max())))

    def maximum(self, tol_abs: float) -> SweepOutcome:
        """A pair's max over theta of the support function = max |z| over
        the set, in closed form when the set is a point."""
        if self.is_point:
            z = complex(self.centre[1][0])
            theta = 0.0 if z == 0 else cmath.phase(z) % _TWO_PI
            return SweepOutcome(theta=theta, value=abs(z), bound=abs(z),
                                evals=0)
        return swept_maximum(self._angles, tol_abs, slack=self.slack)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


# eigenvalues of a coefficient this close to 0 or 1 count as there
_SNAP = 1e-11


def _purify(coeff: np.ndarray, c: np.ndarray, q: int) -> tuple:
    """q orthonormal columns spanning a rank-q projector P with
    tr(P C) = tr(T C), walked from a trace-q coefficient 0 <= T <= I, and
    the number of steps.

    Each step takes two interior eigenvalues l_i, l_j of T (strictly
    between 0 and 1). Of the traceless Hermitian 2x2 directions D on their
    eigenvectors V, a 3-parameter family, one keeps tr(V D V* C) = 0. The
    block diag(l_i, l_j) + tD keeps its mean m, and its spread
    r(t)^2 = t^2 + 2 l a t + l^2 (l = (l_i - l_j) / 2, a = D_11) reaches
    min(m, 1 - m) at the step, which sends one eigenvalue to 0 or 1. So p
    interior eigenvalues take at most p - 1 steps: a lone one cannot
    remain, as the trace q is whole. A pair search hands over at most 3q:
    a mixture of three rank-q projectors, or one with the centre (q/d) I
    when d <= 3q.
    """
    lam, vec = np.linalg.eigh(coeff)
    steps = 0
    while True:
        lam[lam <= _SNAP] = 0.0
        lam[lam >= 1.0 - _SNAP] = 1.0
        inner = np.flatnonzero((lam > 0.0) & (lam < 1.0))
        if inner.size < 2:
            break
        pair = inner[:2]
        v = vec[:, pair]
        m = v.conj().T @ c @ v
        row = np.array([m[0, 0] - m[1, 1], m[0, 1] + m[1, 0],
                        1j * (m[0, 1] - m[1, 0])])
        a, b, s = np.linalg.svd(np.vstack([row.real, row.imag]))[2][-1]
        li, lj = lam[pair]
        mean, half = 0.5 * (li + lj), 0.5 * (li - lj)
        reach = min(mean, 1.0 - mean)
        if half * a > 0.0:  # -D keeps the root free of cancellation
            a, b, s = -a, -b, -s
        gap = (reach - half) * (reach + half)
        t = np.sqrt((half * a) ** 2 + gap) - half * a
        _, u = np.linalg.eigh([[li + t * a, t * (b - 1j * s)],
                               [t * (b + 1j * s), lj - t * a]])
        # the block keeps its trace 2 mean; one end lands on 0 or 1
        lam[pair] = [2 * mean - 1.0, 1.0] if mean >= 0.5 else [0.0, 2 * mean]
        vec[:, pair] = v @ u
        steps += 1
    picked = np.flatnonzero(lam > 0.5)
    if picked.size != q:
        raise WitnessSearchFailed(
            f"purification left {picked.size} unit eigenvalues, expected {q}")
    return vec[:, picked], steps
