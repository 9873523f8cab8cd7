"""Norm-evaluation referee for the decision engine.

Every procedure here judges orthogonality and parallelism by evaluating Ky
Fan norms of perturbed matrices, helped only by Fan's variational lower
bound ||M||_(k) >= Re tr(U* M V) over n x k isometries; nothing imports the
subdifferential machinery or the decision engine, so agreement between the
two sides is meaningful evidence. The margin estimator uses chord rates
(f(c) - f(0)) / |c|, which by convexity are upper bounds on the one-sided
derivative at 0 for every sampled scalar c, so the sampled minimum can
undershoot the true margin only by floating-point noise. Fan's bound only
decides which probe phases need no evaluation, whether a reading settles at
A's own singular vectors or on its strided probe and, where it can, proves
that no scalar dips the norm; every chord reported is a norm evaluation.

A reading settled at A (``_settle_at_a``) takes its minorant from this
module's own SVD of A, but that minorant's dual matrix U_k V_k* is the
engine's point-set witness: such a reading re-checks the engine's
arithmetic, not its frame logic.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .linalg import (
    cluster_spectrum,
    default_cluster_tol,
    default_rank_tol,
    haar_unitary,
    svd_frame,
)
from .model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    Decision,
    Tolerances,
    Verdict,
)
from .norms import (
    ky_fan_norm_batch,
    ky_fan_sum,
    require_field,
    require_operands,
)

__all__ = [
    "fd_directional",
    "oracle_check_pair",
    "oracle_check_subspace",
    "oracle_check_parallel",
    "sample_range_points",
]

_TWO_PI = 2.0 * np.pi


# the certified dip bound starts from rings of ratio at most 4 with 32
# phases each, and gives up after this many norm evaluations
_RING_RATIO = 4.0
_RING_PHASES = 32
_DIP_CAP = 4096
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# the chord probe scans _PROBE_PHASES phases, evaluating every
# _PROBE_STRIDE-th first, refines the best in _REFINE_ROUNDS rounds of the 16
# points of its 17 other than the centre, and then samples _TAIL_RADII radii
_PROBE_PHASES = 512
_PROBE_STRIDE = 32
_REFINE_ROUNDS = 7
_TAIL_RADII = 13
_AROUND = np.r_[0:8, 9:17]

# sectors of the dip annulus that the probe's Fan minorants are read on
# before the dip check runs
_CLEARANCE_ARCS = 1024

# span directions the subspace referee samples, the basis matrices first,
# and the norm evaluations after which the parallel referee gives up
_SUBSPACE_DIRECTIONS = 64
_PEAK_CAP = 1024


def _operand_norms(a: np.ndarray, others: list, k: int) -> list:
    """||A||_(k) followed by the norm of each of ``others``, from one SVD
    call for singular values only."""
    sv = np.linalg.svd(np.stack([a, *others]), compute_uv=False)
    return [float(x) for x in sv[:, :k].sum(axis=-1)]


def _norms_at(a: np.ndarray, b: np.ndarray, k: int, cs: np.ndarray) -> np.ndarray:
    cs = np.asarray(cs, dtype=complex).ravel()
    mats = a[None, :, :] + cs[:, None, None] * b[None, :, :]
    return ky_fan_norm_batch(mats, k)


class _Scalars:
    """Batched evaluations of c -> ||A + c B||_(k) that count themselves and
    keep the lowest value seen with its scalar."""

    def __init__(self, a: np.ndarray, b: np.ndarray, k: int):
        self.a, self.b, self.k = a, b, k
        self.evals, self.value, self.point = 0, np.inf, 0.0 + 0.0j

    def __call__(self, cs: np.ndarray) -> np.ndarray:
        cs = np.asarray(cs, dtype=complex).ravel()
        vals = _norms_at(self.a, self.b, self.k, cs)
        self.evals += vals.size
        i = int(np.argmin(vals))
        if vals[i] < self.value:
            self.value = float(vals[i])
            self.point = complex(cs[i])
        return vals


def _ray_minima(norms: _Scalars, phases: np.ndarray, reach: float,
                t_tol: float, level: float):
    """Golden-section minima of the convex rays t -> f(t e^{i phase}) over
    [0, reach], one batched evaluation per step across all phases, to a
    bracket of t_tol or until some value falls below level. Returns the
    smaller end value of each ray and its radius."""
    units = np.exp(1j * phases)
    lo = np.zeros(phases.size)
    hi = np.full(phases.size, reach)
    x1 = hi - _GOLDEN * hi
    x2 = _GOLDEN * hi
    f1 = norms(x1 * units)
    f2 = norms(x2 * units)
    while hi[0] - lo[0] > t_tol and norms.value >= level:
        # a convex function with f(x1) <= f(x2) has a minimiser left of x2
        left = f1 <= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fx = norms(x * units)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    return np.minimum(f1, f2), np.where(f1 <= f2, x1, x2)


def _phase_search(norms: _Scalars, center: float, reach: float, depth: float,
                  level: float, norm_b: float) -> None:
    """Look for a scalar whose norm is below level; what it finds is left in
    ``norms``.

    m(phi), the minimum of f on the ray at phase phi, is quasiconvex where
    it is below f(0): each sublevel set of f below f(0) is convex and misses
    0, so the phases of the rays that meet it form an arc. The lowest of a
    set of sampled phases therefore has the minimising phase between its
    neighbours, and each round samples four more phases in that bracket. It
    stops once the phase step, times the radius of the best ray minimum and
    ||B||_(k), is a fiftieth of depth: with the rays' own golden-section
    tolerance this finds any dip of 1.05 depth.
    """
    t_tol = 0.01 * depth / norm_b
    step = _TWO_PI / 8
    phases = center + step * np.arange(8)
    values, radii = _ray_minima(norms, phases, reach, t_tol, level)
    i = int(np.argmin(values))
    best, best_value, radius = phases[i], values[i], radii[i]
    # at or above f(0) = level + depth the arc argument says nothing
    while norms.value >= level and best_value < level + depth \
            and step * max(radius, t_tol) * norm_b > 0.02 * depth:
        step /= 3.0
        phases = best + step * np.array([-2.0, -1.0, 1.0, 2.0])
        values, radii = _ray_minima(norms, phases, reach, t_tol, level)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best, best_value, radius = phases[i], values[i], radii[i]


def _dip_check(a: np.ndarray, b: np.ndarray, k: int, norm_a: float,
               norm_b: float, depth: float, phase: float = 0.0) -> dict:
    """Prove that no scalar c has ||A + c B||_(k) < ||A||_(k) - depth, or
    find one. Returns the ``dip_*`` details of the referee.

    f(c) = ||A + c B||_(k) is convex with f(0) = a, and |f(c) - f(c')| <=
    |c - c'| b by the triangle inequality (a, b the norms of A and B). So a
    dip lies in the annulus depth/b < |c| < 2a/b. Rings of ratio at most 4
    and 32 phases from ``phase`` cut it into cells [t_lo, t_hi] x [th_lo,
    th_hi], and the two samples at (t_lo, th_lo) and (t_lo, th_hi) bound f
    on the cell from below:

    - around the arc, f(t_lo e^{i th}) is at least their mean less
      t_lo (th_hi - th_lo) b / 2;
    - along each ray, chord slopes from 0 increase, so f - a is at least
      min(0, t_hi / t_lo (f(t_lo e^{i th}) - a)).

    A cell is cleared when that bound, less a rounding allowance of
    64 n eps (a + t_hi b), is at least -depth. Each round splits every cell
    still open, across the arc or along the ray, whichever tightens its
    bound more, and evaluates the new corners in one batch. A phase search
    over convex line searches (``_phase_search``) looks for a witness once
    a sample dips a quarter of depth, or before the cap would be passed.
    Status ``cleared``, ``dip`` (with ``dip_value`` and ``dip_point``, the
    lowest point on the witness's ray) or ``capped`` (with ``dip_reason``);
    ``dip_evals`` counts the norms.
    """
    norms = _Scalars(a, b, k)
    level = norm_a - depth
    if norm_b <= 0.0 or depth >= 2.0 * norm_a:
        # the annulus is empty: no scalar moves f by depth below a
        return {"dip_status": "cleared", "dip_evals": 0}
    t0, reach = depth / norm_b, 2.0 * norm_a / norm_b
    rings = max(1, math.ceil(math.log(reach / t0) / math.log(_RING_RATIO)))
    radii = t0 * (reach / t0) ** (np.arange(rings + 1) / rings)
    angles = phase + (_TWO_PI / _RING_PHASES) * np.arange(_RING_PHASES + 1)
    grid = norms(radii[:-1, None] * np.exp(1j * angles[None, :-1]))
    grid = grid.reshape(rings, _RING_PHASES)
    rounding = 64.0 * a.shape[0] * np.finfo(float).eps
    allowance = rounding * (norm_a + reach * norm_b)
    # through 0: a <= (|x| f(y) + |y| f(x)) / (|x| + |y|) for y on the ray
    # opposite x, and f on the chord between two samples at radius s is at
    # most their larger value, so f(x) - a >= -|x| * opposite[j] with
    # opposite[j] taken over the rings for the cells of base phase j
    rise = np.maximum(np.maximum(grid, np.roll(grid, -1, axis=1))
                      - norm_a + 2.0 * allowance, 0.0)
    chord = math.cos(math.pi / _RING_PHASES)
    opposite = np.roll((rise / (chord * radii[:-1, None])).min(axis=0),
                       -_RING_PHASES // 2)
    t_lo = np.repeat(radii[:-1], _RING_PHASES)
    t_hi = np.repeat(radii[1:], _RING_PHASES)
    th_lo = np.tile(angles[:-1], rings)
    th_hi = np.tile(angles[1:], rings)
    f_lo = grid.ravel()
    f_hi = np.roll(grid, -1, axis=1).ravel()
    base = np.tile(np.arange(_RING_PHASES), rings)
    searched = False
    while norms.value >= level:
        ratio = t_hi / t_lo
        spread = 0.5 * t_lo * (th_hi - th_lo) * norm_b
        gap = 0.5 * (f_lo + f_hi) - norm_a - rounding * (norm_a + t_hi * norm_b)
        live = ((ratio * np.minimum(gap - spread, 0.0) < -depth)
                & (t_hi * opposite[base] + allowance > depth))
        if not live.any():
            return {"dip_status": "cleared", "dip_evals": norms.evals}
        t_lo, t_hi, th_lo, th_hi, f_lo, f_hi, base, ratio, spread, gap = (
            x[live] for x in (t_lo, t_hi, th_lo, th_hi, f_lo, f_hi, base,
                              ratio, spread, gap))
        # halving the arc gains ratio*spread/2; the inner half of a split
        # along the ray gains (ratio - sqrt(ratio)) * (spread - gap)
        across = ratio * spread / 2.0 >= (ratio - np.sqrt(ratio)) * (spread - gap)
        along = ~across
        t_mid = np.sqrt(t_lo * t_hi)
        th_mid = 0.5 * (th_lo + th_hi)
        points, slot = np.unique(np.concatenate([
            t_lo[across] * np.exp(1j * th_mid[across]),
            t_mid[along] * np.exp(1j * th_lo[along]),
            t_mid[along] * np.exp(1j * th_hi[along])]), return_inverse=True)
        low = np.minimum(f_lo, f_hi)
        j = int(np.argmin(low))
        over = norms.evals + points.size > _DIP_CAP
        if not searched and (over or low[j] < norm_a - 0.25 * depth):
            searched = True
            center = th_lo[j] if f_lo[j] <= f_hi[j] else th_hi[j]
            _phase_search(norms, center, reach, depth, level, norm_b)
            continue
        if over:
            return {"dip_status": "capped", "dip_evals": norms.evals,
                    "dip_reason": f"{live.sum()} cells still open after "
                                  f"{norms.evals} norm evaluations; lowest "
                                  f"value seen {norms.value:.17g}"}
        vals = norms(points)[slot]
        n_across = int(across.sum())
        n_along = int(along.sum())
        f_mid = vals[:n_across]
        g_lo = vals[n_across:n_across + n_along]
        g_hi = vals[n_across + n_along:]
        t_lo = np.concatenate([t_lo[across], t_lo[across], t_lo[along], t_mid[along]])
        t_hi = np.concatenate([t_hi[across], t_hi[across], t_mid[along], t_hi[along]])
        th_lo, th_hi = (
            np.concatenate([th_lo[across], th_mid[across], th_lo[along], th_lo[along]]),
            np.concatenate([th_mid[across], th_hi[across], th_hi[along], th_hi[along]]))
        f_lo, f_hi = (
            np.concatenate([f_lo[across], f_mid, f_lo[along], g_lo]),
            np.concatenate([f_mid, f_hi[across], f_hi[along], g_hi]))
        base = np.concatenate([base[across], base[across], base[along],
                               base[along]])
    # report the lowest point on the witness's ray, not the first below level
    _ray_minima(norms, np.array([cmath.phase(norms.point)]), reach,
                0.01 * depth / norm_b, -np.inf)
    return {"dip_status": "dip", "dip_evals": norms.evals,
            "dip_value": norms.value, "dip_point": norms.point}


def fd_directional(a, x, k: int, t: float) -> float:
    """One-sided finite difference (||A + t X|| - ||A||) / t, t > 0.

    For convex norms this is nonincreasing as t decreases and lower bounded
    by the one-sided directional derivative.
    """
    a, (x,) = require_operands(a, [x], k)
    # an inf or NaN step would carry past the operand check into the SVD
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    return (ky_fan_sum(a + t * x, k) - ky_fan_sum(a, k)) / t


def _fan_minorants(a: np.ndarray, b: np.ndarray, k: int,
                   known: np.ndarray) -> tuple:
    """Fan minorants of c -> ||A + c B||_(k) taken at the scalars ``known``.

    Fan's formula ||M||_(k) = max Re tr(U* M V) over n x k isometries U, V
    makes the top-k singular vectors U_j, V_j of A + c_j B an affine
    minorant c -> alpha_j + Re(c beta_j), alpha_j = Re tr(U_j* A V_j) and
    beta_j = tr(U_j* B V_j). Computed vectors are isometries only up to a
    defect d = k (max |U*U - I| + max |V*V - I|), and ||U|| ||V|| <= 1 + d,
    so each minorant stands less d (||A||_(k) + |c| ||B||_(k)). Returns
    (alpha, beta, d).
    """
    u, _, vh = np.linalg.svd(a[None, :, :] + known[:, None, None] * b[None, :, :])
    u, vh = u[:, :, :k], vh[:, :k, :]
    # tr(U* M V) = <U V*, M>
    polar = (u @ vh).conj()
    alpha = np.einsum("jpq,pq->j", polar, a).real
    beta = np.einsum("jpq,pq->j", polar, b)
    return alpha, beta, _isometry_defect(u, vh)


def _isometry_defect(u: np.ndarray, vh: np.ndarray) -> float:
    """k (max |U*U - I| + max |V*V - I|) over computed n x k factors U and
    k x n factors V*, one pair or a stack of them."""
    k = u.shape[-1]
    eye = np.eye(k)
    return k * float(np.abs(u.conj().swapaxes(-1, -2) @ u - eye).max()
                     + np.abs(vh @ vh.conj().swapaxes(-1, -2) - eye).max())


def _chord_floors(minorants: tuple, n: int, norm_a: float, norm_b: float,
                  cs: np.ndarray) -> np.ndarray:
    """Lower bounds on the computed chord rates at the scalars ``cs``, from
    the Fan minorants (``_fan_minorants``) of n x n operands. The traces,
    the sum A + c B and the values-only SVD that computes the chords round
    by 64 n eps (||A||_(k) + |c| ||B||_(k)) beyond the isometry defect."""
    alpha, beta, defect = minorants
    lower = (alpha[:, None] + (beta[:, None] * cs[None, :]).real).max(axis=0)
    radius = np.abs(cs)
    slack = (defect + 64.0 * n * np.finfo(float).eps) \
        * (norm_a + radius * norm_b)
    return (lower - norm_a - slack) / radius


def _with_minorant_at(minorants: tuple, a: np.ndarray, b: np.ndarray,
                      k: int, c: complex) -> tuple:
    """``minorants`` with one more Fan minorant, taken at the scalar c; the
    isometry defect is the larger of the two."""
    alpha, beta, defect = _fan_minorants(a, b, k, np.array([c]))
    return (np.append(minorants[0], alpha), np.append(minorants[1], beta),
            max(minorants[2], defect))


@functools.cache
def _clearance_arcs(count: int) -> tuple:
    """The cosines and sines of the centres of ``count`` equal arcs of the
    circle, as a (count, 2) array, and the arcs' width; built once per count
    and shared read-only."""
    width = _TWO_PI / count
    centres = width * (np.arange(count) + 0.5)
    trig = np.stack([np.cos(centres), np.sin(centres)], axis=1)
    trig.setflags(write=False)
    return trig, width


def _minorants_clear(minorants: tuple, n: int, norm_a: float, norm_b: float,
                     depth: float) -> bool:
    """Whether the Fan minorants alone prove what ``_dip_check`` proves: no
    scalar c has ||A + c B||_(k) < ||A||_(k) - depth.

    A dip lies in the annulus t0 = depth/||B||_(k) <= |c| <= reach =
    2 ||A||_(k)/||B||_(k) (see ``_dip_check``), cut here into
    ``_CLEARANCE_ARCS`` sectors of width w. On a sector with centre phase
    phi, Re(c beta_j) >= |c| (Re(e^{i phi} beta_j) - |beta_j| w/2), so
    minorant j bounds f(c) - ||A||_(k) below by an affine function of |c|,
    less ``_chord_floors``' slack (d + 64 n eps) and ``_dip_check``'s own
    rounding allowance 64 n eps, each times ||A||_(k) + |c| ||B||_(k). An
    affine function is least at an end radius, so the sector is cleared
    when for some j that bound is at least -depth at both t0 and reach.
    """
    if depth >= 2.0 * norm_a:
        # the annulus is empty, as in _dip_check
        return True
    alpha, beta, defect = minorants
    t0, reach = depth / norm_b, 2.0 * norm_a / norm_b
    slack = defect + 128.0 * n * np.finfo(float).eps
    base = alpha - norm_a - slack * norm_a
    trig, width = _clearance_arcs(_CLEARANCE_ARCS)
    # the least Re(e^{i phi} beta_j) at a sector's centre phi that holds
    # minorant j's bound at or above -depth at both end radii
    need = (np.maximum((-depth - base) / t0, (-depth - base) / reach)
            + 0.5 * width * np.abs(beta) + slack * norm_b)
    rates = trig @ np.stack([beta.real, -beta.imag])
    return bool((rates >= need).any(axis=1).all())


@functools.cache
def _probe_circle(count: int) -> tuple:
    """``count`` equally spaced probe phases from 0 and their unit scalars,
    built once per count and shared read-only by every chord scan."""
    thetas = np.linspace(0.0, _TWO_PI, count, endpoint=False)
    units = np.exp(1j * thetas)
    thetas.setflags(write=False)
    units.setflags(write=False)
    return thetas, units


@functools.cache
def _tail_steps(count: int) -> np.ndarray:
    """The tail's ``count`` radii as fractions of the scan's unit, from 1e-7
    to 0.25, built once per count and shared read-only."""
    steps = np.geomspace(1e-7, 0.25, count)
    steps.setflags(write=False)
    return steps


def _chord_scan(a: np.ndarray, b: np.ndarray, k: int, norm_a: float,
                norm_b: float, field: str = COMPLEX_FIELD,
                proof: float = -np.inf, settle: float = np.inf):
    """Sampled minimum chord rate of ||A + c B||_(k) over scalars c, from
    the norms ||A||_(k) and ||B||_(k) in hand.

    Scans phases at a probe radius, refines the worst phase, then sweeps
    magnitudes down to 1e-7 of the combined norm scale along it. Every
    sample is a chord and hence at least the true margin; the reported value
    approaches the margin from above as the smallest magnitudes dominate.
    Returns (margin, phase, details, minorants): ``chord_point`` is the
    scalar c of the reported chord, ``chord_evals`` counts the norm
    evaluations (the two norms in hand included), ``probe_evals`` the probe
    phases evaluated, ``probe_minorants`` the SVDs with vectors taken for
    Fan minorants and ``refine_rounds`` the refinement rounds run;
    ``minorants`` is what ``_fan_minorants`` returned, or None when none
    were taken.

    The probe evaluates every ``_PROBE_STRIDE``-th phase, builds a Fan
    minorant at each and then evaluates only the phases whose chord floor
    (``_chord_floors``) is not strictly above the lowest chord seen. A
    skipped phase has a chord strictly above the minimum, so the probe's
    minimum and its first argmin are those of a scan of every phase.

    Each refinement round evaluates 16 phases around the best one, at a
    fifth of the last round's spacing. After a round whose 17 chords span
    no more than the rounding allowance of a chord at the probe radius,
    64 n eps (||A||_(k) + t ||B||_(k)) / t, the window is flat to rounding
    and the rounds stop, at most ``_REFINE_ROUNDS`` of them.

    A chord below ``proof`` already proves the margin below that level, so
    the scan stops after the first batch that holds one (the strided probe,
    the rest of the probe, a refinement round or the tail) and reports that
    batch's lowest chord. At the default level, -inf, it scans everything.

    A reading is settled (``details["settled"]``) when the strided chords,
    the chord floors of every other probe phase and the chords at the
    strided phases on the tail's smallest radius (the inner ring) all lie
    at or above ``settle``. Chord rates grow outward along a ray, so every
    probe chord and every strided chord from that radius outward then
    stands at or above the level. A settled scan skips the rest of the
    probe and the refinement and runs the tail along the best strided
    phase: it reports the lowest strided or tail chord after 2 + 16 + 16 +
    13 norm evaluations. The inner ring is evaluated only when the probe
    settles; otherwise the scan goes on as if no level were set, and the
    ring only adds its 16 to ``chord_evals``. At the default level, +inf,
    no reading settles.
    """
    if norm_b <= 0:
        return 0.0, 0.0, {"chord_point": 0j, "chord_evals": 2,
                          "probe_evals": 0, "probe_minorants": 0,
                          "refine_rounds": 0}, None
    norms = _Scalars(a, b, k)

    def chords(cs):
        return (norms(cs) - norm_a) / np.abs(cs)

    # magnitudes chosen so the perturbation size t*||B|| spans the norm scale
    unit = (norm_a + norm_b) / norm_b
    ts = unit * _tail_steps(_TAIL_RADII)
    t_probe = unit * 1e-4
    if field == REAL_FIELD:
        thetas = np.array([0.0, np.pi])
        units = np.exp(1j * thetas)
    else:
        thetas, units = _probe_circle(_PROBE_PHASES)
    cs = t_probe * units
    probe = np.full(thetas.size, np.inf)
    done = np.zeros(thetas.size, dtype=bool)
    # a probe no longer than the stride is evaluated whole
    done[::_PROBE_STRIDE if thetas.size > _PROBE_STRIDE else 1] = True
    probe[done] = chords(cs[done])
    minorants = None
    settled = False
    if not done.all() and not probe.min() < proof:
        minorants = _fan_minorants(a, b, k, cs[done])
        rest = np.flatnonzero(~done)
        floors = _chord_floors(minorants, a.shape[0], norm_a, norm_b,
                               cs[rest])
        # the inner ring is evaluated only once the probe circle settles;
        # a NaN floor or chord settles nothing
        settled = bool(probe.min() >= settle and floors.min() >= settle
                       and chords(ts[0] * units[done]).min() >= settle)
        if not settled:
            # only a floor strictly above the best rules a phase out: a tie
            # keeps argmin's first index, and a NaN floor rules nothing out
            rest = rest[~(floors > probe.min())]
            if rest.size:
                probe[rest] = chords(cs[rest])
                done[rest] = True
    i = int(np.argmin(probe))
    best, theta, point = float(probe[i]), float(thetas[i]), cs[i]
    rounds = 0
    if field != REAL_FIELD and not settled:
        width = _TWO_PI / _PROBE_PHASES
        flat = 64.0 * a.shape[0] * np.finfo(float).eps \
            * (norm_a + t_probe * norm_b) / t_probe
        while rounds < _REFINE_ROUNDS and not best < proof:
            # local[8] is theta itself, whose chord is best
            local = theta + np.linspace(-width, width, 17)
            vals, points = np.full(17, best), np.full(17, point)
            points[_AROUND] = t_probe * np.exp(1j * local[_AROUND])
            vals[_AROUND] = chords(points[_AROUND])
            j = int(np.argmin(vals))
            best, theta, point = float(vals[j]), float(local[j]), points[j]
            width *= 0.2
            rounds += 1
            if vals.max() - vals.min() <= flat:
                break
    if not best < proof:
        along = ts * cmath.exp(1j * theta)
        tail = chords(along)
        j = int(np.argmin(tail))
        if tail[j] < best:
            best, point = float(tail[j]), along[j]
    taken = 0 if minorants is None else minorants[0].size
    details = {"chord_point": complex(point), "chord_evals": 2 + norms.evals,
               "probe_evals": int(done.sum()), "probe_minorants": taken,
               "refine_rounds": rounds}
    if settled:
        details["settled"] = True
    return best, theta % _TWO_PI, details, minorants


def _settle_at_a(a: np.ndarray, b: np.ndarray, k: int, u: np.ndarray,
                 vh: np.ndarray, norm_a: float, norm_b: float, level: float,
                 depth: float):
    """Settle an ORTHOGONAL reading from the Fan minorant at c = 0, or
    return None.

    U and V* are A's top-k singular vectors, n x k and k x n, and ||B||_(k)
    is positive. The minorant c -> alpha_0 + Re(c beta_0), beta_0 =
    tr(U* B V) and alpha_0 = Re tr(U* A V), is what ``_fan_minorants``
    takes at 0. Where s_k > s_{k+1} and s_k > 0 the norm is smooth at A and
    beta_0 is the whole pairing set, so A is orthogonal to B iff beta_0 =
    0. The reading settles when |beta_0| is below ``level``, the minorant
    alone clears the dip annulus (``_minorants_clear``, in effect eta_0 +
    (2 ||A||_(k) / ||B||_(k)) |beta_0| plus rounding at most ``depth``,
    with eta_0 = ||A||_(k) - alpha_0), and the lower of two chords at the
    tail's smallest radius, along +-(-conj(beta_0) / |beta_0|) where the
    minorant falls fastest, is at or above -``level``. Returns (margin,
    phase, details) like ``_chord_scan``: ``chord_evals`` is 4 (the two
    norms in hand and the two chords) and ``settled_at_a`` marks it.
    """
    polar = u @ vh
    beta = complex(np.vdot(polar, b))
    if not abs(beta) < level:
        return None
    alpha = float(np.vdot(polar, a).real)
    minorant = (np.array([alpha]), np.array([beta]), _isometry_defect(u, vh))
    if not _minorants_clear(minorant, a.shape[0], norm_a, norm_b, depth):
        return None
    toward = -beta.conjugate() / abs(beta) if beta else 1.0
    t = (norm_a + norm_b) / norm_b * _tail_steps(_TAIL_RADII)[0]
    cs = t * np.array([toward, -toward])
    chords = (_norms_at(a, b, k, cs) - norm_a) / np.abs(cs)
    j = int(np.argmin(chords))
    if not chords[j] >= -level:
        return None
    return (float(chords[j]), cmath.phase(cs[j]) % _TWO_PI,
            {"chord_point": complex(cs[j]), "chord_evals": 4,
             "probe_evals": 0, "probe_minorants": 0, "refine_rounds": 0,
             "settled_at_a": True})


def oracle_check_pair(a, b, k: int, field: str = COMPLEX_FIELD,
                      tol: Tolerances | None = None) -> Decision:
    """Referee verdict on pair orthogonality from norm evaluations alone.

    In the complex field a reading first tries to settle at A
    (``_settle_at_a``): the one SVD call that gives both operand norms also
    gives A's top-k singular vectors U_k, V_k. When |tr(U_k* B V_k)| is
    below decide scale, their Fan minorant clears the dip annulus alone,
    and the lower of two chords at the tail's smallest radius reads
    ORTHOGONAL, that chord is the margin (``settled_at_a``, 4 norm
    evaluations, ``dip_status`` ``cleared`` with ``dip_evals`` 0), and the
    near-tie rule below runs as on any reading. U_k V_k* is the engine's
    own point-set witness, so such a reading re-checks the engine's
    arithmetic rather than its frame logic. Any other reading runs the
    chord scan.

    The margin estimate comes from the chord scan, which stops at the first
    chord below -strict scale: by convexity that chord proves NOT_ORTHOGONAL,
    and it is the reported margin, at ``chord_point``. It also settles at
    the dip check's own depth, 1e-3 scale: a reading whose probe circle and
    strided inner ring stand at or above it stops at the strided probe
    (``settled``, see ``_chord_scan``). When the scan reads ORTHOGONAL in
    the complex field, the only case a dip can overturn, the probe's own
    Fan minorants (``_minorants_clear``), then those with one more taken at
    ``chord_point``, or, where they fall short, ``_dip_check`` either prove
    that no scalar c takes ||A + c B||_(k) below ||A||_(k) - 1e-3 scale, or
    the dip check finds one, which demotes the answer to BOUNDARY with
    ``grid_contradiction``; a check stopped by its cap demotes it too, with
    the reason in ``dip_reason``. ``dip_status`` says which happened:
    ``cleared`` (with ``dip_evals`` 0 when the minorants cleared it),
    ``dip``, ``capped``, ``skipped`` (any other chord verdict) or
    ``real_field``.

    An ORTHOGONAL reading is demoted to BOUNDARY, with the gap in
    ``near_tie``, when a value distinct from s_k (beyond 64 n eps s_1) that
    could trade places with it across index k lies closer than the probe's
    perturbation t ||B||_(k) = 1e-4 (||A||_(k) + ||B||_(k)): at the probe
    radius the norm acts as if the two were tied, and a dip of order
    margin x gap is below what the dip check resolves. Those values are the
    singular values of A below s_k and 0 below s_n, and the ones above s_k
    when s_{k+1} is tied to it; a value above an untied s_k stays in the
    top k and leaves the norm smooth.
    """
    tol = Tolerances() if tol is None else tol
    require_field(field)
    a, (b,) = require_operands(a, [b], k)
    # A's singular vectors come with the norms, for the settle at A
    u, sv, vh = np.linalg.svd(np.stack([a, b]))
    sv_a = sv[0]
    norm_a, norm_b = (float(x) for x in sv[:, :k].sum(axis=-1))
    scale = tol.margin_scale(norm_a, norm_b)
    depth = 1e-3 * scale
    settle = None
    if field == COMPLEX_FIELD and norm_b > 0:
        settle = _settle_at_a(a, b, k, u[0, :, :k], vh[0, :k], norm_a,
                              norm_b, tol.decide * scale, depth)
    if settle is None:
        margin, theta, scan, minorants = _chord_scan(
            a, b, k, norm_a, norm_b, field, -tol.strict * scale, depth)
    else:
        (margin, theta, scan), minorants = settle, None
    verdict = tol.band(margin, scale)
    details = {"field": field, "norm_a": norm_a, "norm_b": norm_b,
               "chord_phase": theta, **scan}
    if field != COMPLEX_FIELD:
        # real scalars: the dip check scans complex ones
        details.update(dip_status="real_field", dip_evals=0)
    elif verdict is not Verdict.ORTHOGONAL:
        details.update(dip_status="skipped", dip_evals=0)
    elif settle is not None:
        # its own minorant cleared the annulus
        details.update(dip_status="cleared", dip_evals=0)
    elif minorants is not None and (
            _minorants_clear(minorants, a.shape[0], norm_a, norm_b, depth)
            or _minorants_clear(
                _with_minorant_at(minorants, a, b, k, scan["chord_point"]),
                a.shape[0], norm_a, norm_b, depth)):
        details.update(dip_status="cleared", dip_evals=0)
    else:
        details.update(_dip_check(a, b, k, norm_a, norm_b, depth, theta))
        if details["dip_status"] != "cleared":
            verdict = Verdict.BOUNDARY
        if details["dip_status"] == "dip":
            details["grid_contradiction"] = True
    if verdict is Verdict.ORTHOGONAL and norm_b > 0:
        # zero stands below s_n: a small s_n is a near tie with it
        s = np.append(sv_a, 0.0)
        gaps = np.abs(s - s[k - 1])
        rounding = 64.0 * a.shape[0] * np.finfo(float).eps * s[0]
        # values above s_k cross index k only when s_{k+1} is tied to s_k
        gaps = gaps[gaps > rounding] if gaps[k] <= rounding else gaps[k:]
        if gaps.size and gaps.min() < 1e-4 * (norm_a + norm_b):
            verdict = Verdict.BOUNDARY
            details["near_tie"] = float(gaps.min())
    return Decision(verdict=verdict, margin=margin, scale=scale,
                    method="oracle-chord", tolerances=tol, details=details)


def oracle_check_subspace(a, basis, k: int,
                          tol: Tolerances | None = None) -> Decision:
    """Referee for subspace orthogonality by sampling span directions.

    Checks each basis matrix and random unit combinations; one refuted
    direction refutes the span, so the sampling stops at the first chord
    below -strict scale, and ``directions`` counts the directions sampled.
    The positive outcome is deliberately weak, NO_COUNTEREXAMPLE rather than
    ORTHOGONAL, because finitely many sampled directions cannot certify the
    whole span.
    """
    tol = Tolerances() if tol is None else tol
    rng = np.random.default_rng(0)
    a, mats = require_operands(a, basis, k)
    norm_a, *norms_w = _operand_norms(a, mats, k)
    if not mats:
        return Decision(verdict=Verdict.NO_COUNTEREXAMPLE, margin=0.0,
                        scale=tol.margin_scale(norm_a, 0.0),
                        method="oracle-sample", tolerances=tol,
                        details={"directions": 0})
    scale = tol.margin_scale(norm_a, max(norms_w))
    proof = -tol.strict * scale
    worst, chord_evals = np.inf, 0
    m = len(mats)
    for j in range(_SUBSPACE_DIRECTIONS):
        if j < m:
            combo = mats[j]
        else:
            zeta = rng.normal(size=m) + 1j * rng.normal(size=m)
            zeta /= np.linalg.norm(zeta)
            combo = sum(z * w for z, w in zip(zeta, mats))
        fro = float(np.linalg.norm(combo))
        if fro <= 0:
            continue
        direction = combo / fro
        margin, _, scan, _ = _chord_scan(a, direction, k, norm_a,
                                         ky_fan_sum(direction, k),
                                         COMPLEX_FIELD, proof)
        worst = min(worst, margin)
        chord_evals += scan["chord_evals"]
        if worst < proof:
            break
    # one-sided: sampling never certifies the span, so the band between
    # the thresholds reads as no counterexample
    verdict = tol.band(worst, scale, Verdict.NO_COUNTEREXAMPLE,
                       Verdict.NOT_ORTHOGONAL, middle=Verdict.NO_COUNTEREXAMPLE)
    return Decision(verdict=verdict, margin=float(worst), scale=scale,
                    method="oracle-sample", tolerances=tol,
                    details={"directions": j + 1,
                             "basis_size": m, "chord_evals": chord_evals})


def oracle_check_parallel(a, b, k: int,
                          tol: Tolerances | None = None) -> Decision:
    """Referee for norm parallelism: a certified bracket on the peak of
    f(phi) = ||A + e^{i phi} B||_(k) below the triangle bound.

    On an arc of width w between two samples, f is bounded by the smaller
    of two bounds, each with ``_dip_check``'s rounding allowance. f is
    ||B||_(k)-Lipschitz in phi, so it is at most the samples' mean plus
    w ||B||_(k) / 2 (S. A. Piyavskii, USSR Comput. Math. Math. Phys. 12,
    1972; B. O. Shubert, SIAM J. Numer. Anal. 9, 1972). And c -> ||A + c
    B||_(k) is convex, so it is at most the larger sample on the chord
    between them, which lies within 1 - cos(w/2) of the arc along each
    radius: f is at most that sample plus (1 - cos(w/2)) ||B||_(k). From
    ``_RING_PHASES`` phases, each round halves every arc whose bound reaches
    the strict band, until the best sample (``peak``, at ``lambda``) and
    the highest bound (``peak_upper_bound``) read the same verdict, which
    is BOUNDARY when both lie inside the band. When the next round would
    pass ``_PEAK_CAP`` norms (``peak_evals``) it stops with BOUNDARY and
    ``peak_reason``.
    """
    tol = Tolerances() if tol is None else tol
    a, (b,) = require_operands(a, [b], k)
    norm_a, norm_b = _operand_norms(a, [b], k)
    scale, triangle = tol.margin_scale(norm_a, norm_b), norm_a + norm_b
    allowance = 64.0 * a.shape[0] * np.finfo(float).eps * triangle

    def read(value):
        return tol.band(value - triangle, scale, Verdict.PARALLEL,
                        Verdict.NOT_PARALLEL)

    phases = (_TWO_PI / _RING_PHASES) * np.arange(_RING_PHASES)
    f = _norms_at(a, b, k, np.exp(1j * phases))
    while True:
        order = np.argsort(phases)
        phases, f = phases[order], f[order]
        # arc j runs from phases[j] to the next sample, around the circle
        width = np.diff(phases, append=phases[0] + _TWO_PI)
        after = np.roll(f, -1)
        bounds = np.minimum(
            0.5 * (f + after + width * norm_b),
            np.maximum(f, after) + (1.0 - np.cos(0.5 * width)) * norm_b
        ) + allowance
        i, top = int(np.argmax(f)), float(bounds.max())
        closed = read(f[i]) is read(top)
        live = bounds >= triangle - tol.strict * scale
        if closed or not live.any() or f.size + live.sum() > _PEAK_CAP:
            break
        mid = phases[live] + 0.5 * width[live]
        phases = np.append(phases, mid)
        f = np.append(f, _norms_at(a, b, k, np.exp(1j * mid)))
    verdict = read(f[i]) if closed else Verdict.BOUNDARY
    lam = cmath.exp(1j * phases[i])
    details = {"lambda_re": lam.real, "lambda_im": lam.imag,
               "peak": float(f[i]), "peak_upper_bound": top,
               "peak_evals": f.size, "triangle_bound": triangle}
    if not closed:
        details["peak_reason"] = (f"{live.sum()} arcs still open after "
                                  f"{f.size} norm evaluations")
    return Decision(verdict=verdict, margin=details["peak"] - triangle,
                    scale=scale, method="oracle-peak", tolerances=tol,
                    details=details)


def sample_range_points(a, b, k: int, count: int = 100, rng=None) -> np.ndarray:
    """Random attainable pairing values tr(G* B) over subgradients G at A.

    Subgradients are assembled directly from the SVD of A: the forced
    leading part plus random convex mixtures of rank-q projectors on the
    boundary cluster (uniform disk points in the rank-degenerate case).
    Exact members of the attainable set up to rounding, for convexity and
    support-function cross-checks.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a, (b,) = require_operands(a, [b], k)
    fr = svd_frame(a)
    s1 = float(fr.s[0]) if fr.s.size else 0.0
    part = cluster_spectrum(fr.s, k, default_cluster_tol(s1))
    i1, i2 = part.boundary
    q = part.q
    u1, v1 = fr.u[:, :i1], fr.v[:, :i1]
    fixed = complex(np.trace(u1.conj().T @ b @ v1)) if i1 else 0.0 + 0.0j
    if float(fr.s[k - 1]) <= default_rank_tol(s1):
        wide = fr.u[:, i1:].conj().T @ b @ fr.v[:, i1:i2]
        rho = ky_fan_sum(wide, q)
        rr = rho * np.sqrt(rng.uniform(0.0, 1.0, count))
        ph = rng.uniform(0.0, _TWO_PI, count)
        return fixed + rr * np.exp(1j * ph)
    comp = fr.u[:, i1:i2].conj().T @ b @ fr.v[:, i1:i2]
    d = i2 - i1
    pts = np.empty(count, dtype=complex)
    for j in range(count):
        n_atoms = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(n_atoms))
        t = np.zeros((d, d), dtype=complex)
        for w in weights:
            cols = haar_unitary(d, rng)[:, :q]
            t += w * (cols @ cols.conj().T)
        pts[j] = fixed + complex(np.trace(t @ comp))
    return pts
