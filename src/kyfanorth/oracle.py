"""Norm-evaluation referee for the decision engine.

Every procedure here judges orthogonality and parallelism purely by
evaluating Ky Fan norms of perturbed matrices; nothing imports the
subdifferential machinery or the decision engine, so agreement between the
two sides is meaningful evidence. The margin estimator uses chord rates
(f(c) - f(0)) / |c|, which by convexity are upper bounds on the one-sided
derivative at 0 for every sampled scalar c, so the sampled minimum can
undershoot the true margin only by floating-point noise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .linalg import (
    as_matrix,
    cluster_spectrum,
    default_cluster_tol,
    default_rank_tol,
    haar_unitary,
    require_square,
    svd,
    top_q_singsum,
)
from .model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    Decision,
    Tolerances,
    Verdict,
)
from .norms import ky_fan_norm, ky_fan_norm_batch, require_k

__all__ = [
    "GridSpec",
    "grid_min_norm",
    "fd_directional",
    "chord_margin",
    "oracle_check_pair",
    "oracle_check_subspace",
    "oracle_check_parallel",
    "sample_range_points",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Search grid for scalar minimization of ||A + c B||.

    radius None means 2 ||A||_(k) / ||B||_(k). coarse_points sets the angular
    resolution of the initial polar grid (at least 64); refine_rounds local
    shrinking passes follow, then a simplex polish.
    """

    radius: float | None = None
    coarse_points: int = 96
    refine_rounds: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.coarse_points < 64:
            raise ValueError("coarse_points must be at least 64")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")
        if self.radius is not None and self.radius <= 0:
            raise ValueError("radius must be positive")


def _norms_at(a: np.ndarray, b: np.ndarray, k: int, cs: np.ndarray) -> np.ndarray:
    cs = np.asarray(cs, dtype=complex).ravel()
    mats = a[None, :, :] + cs[:, None, None] * b[None, :, :]
    return ky_fan_norm_batch(mats, k)


def grid_min_norm(a, b, k: int, grid: GridSpec | None = None):
    """Approximate min over scalars c of ||A + c B||_(k).

    Polar coarse scan (with a seeded angular jitter so axis-aligned minima
    are not systematically favored), local refinement around the incumbent,
    and a Nelder-Mead polish. Returns (value, c).
    """
    grid = GridSpec() if grid is None else grid
    a = as_matrix(a)
    b = as_matrix(b)
    require_square(a)
    require_k(k, a.shape[0])
    norm_a = ky_fan_norm(a, k)
    norm_b = ky_fan_norm(b, k)
    if norm_b <= 0:
        return norm_a, 0.0 + 0.0j
    radius = grid.radius
    if radius is None:
        radius = 2.0 * norm_a / norm_b if norm_a > 0 else 1.0 / norm_b
    rng = np.random.default_rng(grid.seed)
    n_th = int(grid.coarse_points)
    n_r = max(n_th // 2, 8)
    thetas = np.linspace(0.0, _TWO_PI, n_th, endpoint=False)
    thetas = thetas + rng.uniform(0.0, _TWO_PI / n_th)
    radii = np.linspace(0.0, radius, n_r + 1)[1:]
    cs = (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    cs = np.concatenate([[0.0 + 0.0j], cs])
    vals = _norms_at(a, b, k, cs)
    i = int(np.argmin(vals))
    best_c = complex(cs[i])
    best_v = float(vals[i])
    window = radius / n_r
    for _ in range(grid.refine_rounds):
        re = np.linspace(best_c.real - window, best_c.real + window, 9)
        im = np.linspace(best_c.imag - window, best_c.imag + window, 9)
        local = (re[:, None] + 1j * im[None, :]).ravel()
        vals = _norms_at(a, b, k, local)
        i = int(np.argmin(vals))
        if float(vals[i]) < best_v:
            best_v = float(vals[i])
            best_c = complex(local[i])
        window /= 4.0

    def f(xy):
        return ky_fan_norm(a + complex(xy[0], xy[1]) * b, k)

    res = scipy.optimize.minimize(
        f, x0=[best_c.real, best_c.imag], method="Nelder-Mead",
        options={"xatol": 1e-12 * max(radius, 1.0), "fatol": 1e-15 * (norm_a + 1.0),
                 "maxiter": 400})
    if float(res.fun) < best_v:
        best_v = float(res.fun)
        best_c = complex(res.x[0], res.x[1])
    return best_v, best_c


def fd_directional(a, x, k: int, t: float) -> float:
    """One-sided finite difference (||A + t X|| - ||A||) / t, t > 0.

    For convex norms this is nonincreasing as t decreases and lower bounded
    by the one-sided directional derivative.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a = as_matrix(a)
    x = as_matrix(x)
    return (ky_fan_norm(a + t * x, k) - ky_fan_norm(a, k)) / t


def chord_margin(a, b, k: int, field: str = COMPLEX_FIELD, n_theta: int = 512,
                 refine_rounds: int = 7, t_count: int = 13):
    """Sampled minimum chord rate of ||A + c B|| over scalar directions.

    Scans phases at a probe radius, refines the worst phase, then sweeps
    magnitudes down to 1e-7 of the combined norm scale along it. Every
    sample is a chord and hence at least the true margin; the reported value
    approaches the margin from above as the smallest magnitudes dominate.
    Returns (margin_estimate, phase).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    require_square(a)
    require_k(k, a.shape[0])
    norm_a = ky_fan_norm(a, k)
    norm_b = ky_fan_norm(b, k)
    if norm_b <= 0:
        return 0.0, 0.0

    def chords(cs):
        cs = np.asarray(cs, dtype=complex).ravel()
        return (_norms_at(a, b, k, cs) - norm_a) / np.abs(cs)

    # magnitudes chosen so the perturbation size t*||B|| spans the norm scale
    unit = (norm_a + norm_b) / norm_b
    ts = unit * np.geomspace(1e-7, 0.25, t_count)
    t_probe = unit * 1e-4
    if field == REAL_FIELD:
        thetas = np.array([0.0, np.pi])
    else:
        thetas = np.linspace(0.0, _TWO_PI, n_theta, endpoint=False)
    probe = chords(t_probe * np.exp(1j * thetas))
    i = int(np.argmin(probe))
    best = float(probe[i])
    theta = float(thetas[i])
    if field != REAL_FIELD:
        width = _TWO_PI / n_theta
        for _ in range(refine_rounds):
            local = theta + np.linspace(-width, width, 17)
            vals = chords(t_probe * np.exp(1j * local))
            j = int(np.argmin(vals))
            if float(vals[j]) < best:
                best = float(vals[j])
            theta = float(local[j])
            width *= 0.2
    tail = chords(ts * cmath.exp(1j * theta))
    best = min(best, float(tail.min()))
    return best, theta % _TWO_PI


def oracle_check_pair(a, b, k: int, field: str = COMPLEX_FIELD,
                      tol: Tolerances | None = None,
                      grid: GridSpec | None = None) -> Decision:
    """Referee verdict on pair orthogonality from norm evaluations alone.

    The margin estimate comes from the chord scan; a scalar grid search
    provides an independent floor, and a deep grid dip contradicting an
    orthogonal chord verdict demotes the answer to BOUNDARY.
    """
    tol = Tolerances() if tol is None else tol
    a = as_matrix(a)
    b = as_matrix(b)
    norm_a = ky_fan_norm(a, k)
    norm_b = ky_fan_norm(b, k)
    scale = tol.margin_scale(norm_a, norm_b)
    margin, theta = chord_margin(a, b, k, field=field)
    verdict = tol.band(margin, scale)
    details = {
        "field": field,
        "norm_a": norm_a,
        "norm_b": norm_b,
        "chord_phase": theta,
    }
    if field == COMPLEX_FIELD:
        # the disk grid scans complex scalars, so it can only referee
        # complex-field verdicts
        grid_value, grid_point = grid_min_norm(a, b, k, grid)
        details["grid_value"] = grid_value
        details["grid_point"] = grid_point
        if verdict is Verdict.ORTHOGONAL and grid_value < norm_a - 1e-3 * scale:
            verdict = Verdict.BOUNDARY
            details["grid_contradiction"] = True
    return Decision(verdict=verdict, margin=margin, scale=scale,
                    method="oracle-chord", tolerances=tol, details=details)


def oracle_check_subspace(a, basis, k: int, tol: Tolerances | None = None,
                          directions: int = 64, rng=None) -> Decision:
    """Referee for subspace orthogonality by sampling span directions.

    Checks each basis matrix and random unit combinations; one refuted
    direction refutes the span. The positive outcome is deliberately weak,
    NO_COUNTEREXAMPLE rather than ORTHOGONAL, because finitely many sampled
    directions cannot certify the whole span.
    """
    tol = Tolerances() if tol is None else tol
    rng = np.random.default_rng(0) if rng is None else rng
    a = as_matrix(a)
    mats = [as_matrix(w) for w in basis]
    norm_a = ky_fan_norm(a, k)
    if not mats:
        return Decision(verdict=Verdict.NO_COUNTEREXAMPLE, margin=0.0,
                        scale=tol.margin_scale(norm_a, 0.0),
                        method="oracle-sample", tolerances=tol,
                        details={"directions": 0})
    norms_w = [ky_fan_norm(w, k) for w in mats]
    scale = tol.margin_scale(norm_a, max(norms_w))
    worst = np.inf
    m = len(mats)
    for j in range(directions):
        if j < m:
            combo = mats[j]
        else:
            zeta = rng.normal(size=m) + 1j * rng.normal(size=m)
            zeta /= np.linalg.norm(zeta)
            combo = sum(z * w for z, w in zip(zeta, mats))
        fro = float(np.linalg.norm(combo))
        if fro <= 0:
            continue
        margin, _ = chord_margin(a, combo / fro, k)
        worst = min(worst, margin)
    # one-sided: sampling never certifies the span, so the band between
    # the thresholds reads as no counterexample
    verdict = tol.band(worst, scale, Verdict.NO_COUNTEREXAMPLE,
                       Verdict.NOT_ORTHOGONAL, middle=Verdict.NO_COUNTEREXAMPLE)
    return Decision(verdict=verdict, margin=float(worst), scale=scale,
                    method="oracle-sample", tolerances=tol,
                    details={"directions": directions, "basis_size": m})


def oracle_check_parallel(a, b, k: int, tol: Tolerances | None = None,
                          n_grid: int = 720) -> Decision:
    """Referee for norm parallelism: scan unimodular scalars for triangle
    equality, with a bounded polish around the best grid phase."""
    tol = Tolerances() if tol is None else tol
    a = as_matrix(a)
    b = as_matrix(b)
    norm_a = ky_fan_norm(a, k)
    norm_b = ky_fan_norm(b, k)
    scale = tol.margin_scale(norm_a, norm_b)
    phis = np.linspace(0.0, _TWO_PI, n_grid, endpoint=False)
    vals = _norms_at(a, b, k, np.exp(1j * phis))
    i = int(np.argmax(vals))
    peak = float(vals[i])
    phi = float(phis[i])
    delta = _TWO_PI / n_grid

    def neg(p):
        return -ky_fan_norm(a + cmath.exp(1j * p) * b, k)

    res = scipy.optimize.minimize_scalar(
        neg, bounds=(phi - delta, phi + delta), method="bounded",
        options={"xatol": 1e-12, "maxiter": 200})
    if -float(res.fun) > peak:
        peak = -float(res.fun)
        phi = float(res.x)
    margin = peak - (norm_a + norm_b)
    verdict = tol.band(margin, scale, Verdict.PARALLEL, Verdict.NOT_PARALLEL)
    lam = cmath.exp(1j * phi)
    return Decision(verdict=verdict, margin=margin, scale=scale,
                    method="oracle-peak", tolerances=tol,
                    details={"lambda_re": lam.real, "lambda_im": lam.imag,
                             "peak": peak, "triangle_bound": norm_a + norm_b})


def sample_range_points(a, b, k: int, count: int = 100, rng=None) -> np.ndarray:
    """Random attainable pairing values tr(G* B) over subgradients G at A.

    Subgradients are assembled directly from the SVD of A: the forced
    leading part plus random convex mixtures of rank-q projectors on the
    boundary cluster (uniform disk points in the rank-degenerate case).
    Exact members of the attainable set up to rounding, for convexity and
    support-function cross-checks.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = as_matrix(a)
    b = as_matrix(b)
    require_square(a)
    require_k(k, a.shape[0])
    fr = svd(a)
    s1 = float(fr.s[0]) if fr.s.size else 0.0
    part = cluster_spectrum(fr.s, k, default_cluster_tol(s1))
    i1, i2 = part.boundary
    q = part.q
    u1, v1 = fr.u[:, :i1], fr.v[:, :i1]
    fixed = complex(np.trace(u1.conj().T @ b @ v1)) if i1 else 0.0 + 0.0j
    if float(fr.s[k - 1]) <= default_rank_tol(s1):
        wide = fr.u[:, i1:].conj().T @ b @ fr.v[:, i1:i2]
        rho = top_q_singsum(wide, q)
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
