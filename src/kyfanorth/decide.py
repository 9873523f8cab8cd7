"""Decision procedures with certificates for Ky Fan k-norm orthogonality.

A matrix A is orthogonal to B when ||A + c*B||_(k) >= ||A||_(k) for every
scalar c. By convex duality this holds iff 0 lies in the attainable set
K = {tr(G* B) : G a subgradient of the norm at A}, a compact convex subset
of the plane, and A is orthogonal to a span iff 0 lies in the joint set of
its basis in C^m. Each set is the range model of the spectral frame of A
(``subdiff.RangeSetModel``: fixed complex offsets plus the pairings of a
boundary coefficient with the compressions of the directions), which
alone knows the coefficient set: its start, and its exposure of the
points lowest along a direction. This module holds the geometry on top of
it. It reads the decision off a certified bracket on the distance of 0
from the set, found by one nearest-point search (Wolfe's method) on the
model's exposure for pairs and subspaces alike, bands it, and backs each
verdict with a checkable certificate: a witness system, a convex
combination sum_i w_i Y_i X_i* of rank-k partial isometries that norms A
and annihilates the direction or every basis matrix, or a scalar c whose
chord rate (||A + cB||_(k) - ||A||_(k))/|c|, an upper bound on the
derivative along cB by convexity, proves the margin below -strict*scale.
The witness is the search's own corral: each atom, a rank-q projector or
a contraction -U_q V_q* on the boundary block, lifts to one partial
isometry, and the model purifies a pair's mixture to one term when
s_k > 0. Certificates are checked by ``verify.verify_certificate``, which
reads nothing of the frame.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRank, WitnessSearchFailed
from .model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    CertKind,
    Certificate,
    Decision,
    Tolerances,
    Verdict,
)
from .norms import (
    chord_allowance,
    ky_fan_sum,
    require_field,
    require_operands,
)
from .subdiff import (
    RangeSetModel,
    SubdifferentialFrame,
    frame_of,
)

__all__ = [
    "check_pair",
    "check_subspace",
    "check_parallel",
]


# ---------------------------------------------------------------------------
# pair setup shared by every pair-shaped entry point


def _tol_or_default(tol: Tolerances | None) -> Tolerances:
    return Tolerances() if tol is None else tol


@dataclass
class _PairSetup:
    """Validated pair (A, B) with the frame of A, ||B||_(k), the margin
    scale and the range-set model that every pair decision and certificate
    reads."""

    a: np.ndarray
    b: np.ndarray
    k: int
    tol: Tolerances
    frame: SubdifferentialFrame
    norm_b: float
    scale: float
    model: RangeSetModel


def _pair_setup(a, b, k: int, tol: Tolerances | None = None) -> _PairSetup:
    tol = _tol_or_default(tol)
    a, (b,) = require_operands(a, [b], k)
    return _setup_of(a, b, k, tol, frame_of(a, k, tol.cluster))


def _setup_of(a: np.ndarray, b: np.ndarray, k: int, tol: Tolerances,
              frame: SubdifferentialFrame) -> _PairSetup:
    """``_pair_setup`` of a checked pair whose frame is in hand."""
    norm_b = ky_fan_sum(b, k)
    return _PairSetup(a=a, b=b, k=k, tol=tol, frame=frame, norm_b=norm_b,
                      scale=tol.margin_scale(frame.norm_value, norm_b),
                      model=frame.range_model(b))


# ---------------------------------------------------------------------------
# pair orthogonality


def check_pair(a, b, k: int, field: str = COMPLEX_FIELD,
               tol: Tolerances | None = None,
               want_certificate: bool = True) -> Decision:
    """Decide whether ||A + c*B||_(k) >= ||A||_(k) for all scalars c.

    The margin, the smallest one-sided derivative of the norm along rotated
    copies of B, is minus the distance of 0 from the pairing set K, or the
    depth of 0 inside it. ``_nearest_point`` brackets that distance, and
    the verdict is read off the bracket. Field "real" reads the set's real
    parts, which only the two real directions 0 and pi expose.
    """
    require_field(field)
    return _decide_pair(_pair_setup(a, b, k, tol), field, want_certificate)


def _pair_search(setup: _PairSetup, field: str) -> "_Search":
    """The point of the pairing set (of its real parts, in the real field)
    nearest 0, searched to 1e-3 cert*scale."""
    model = setup.model
    return _search(model, model.start(), 1e-3 * setup.tol.cert * setup.scale,
                   real=field == REAL_FIELD)


def _decide_pair(setup: _PairSetup, field: str,
                 want_certificate: bool) -> Decision:
    frame, scale = setup.frame, setup.scale
    search = _pair_search(setup, field)
    details = {
        "field": field,
        "norm_a": frame.norm_value,
        "norm_b": setup.norm_b,
        "boundary_value": float(frame.svd.s[setup.k - 1]),
        "q": frame.part.q,
        "r": frame.part.r,
        "degenerate_zero": frame.degenerate_zero,
        "cluster_tol": frame.part.cluster_tol,
        "leading_trace": complex(setup.model.fixed[0]),
    }
    decision = search.decision(setup.tol, scale, "nearest-point", details)
    if want_certificate:
        _attach_pair_certificate(decision, setup, search, field)
    return decision


def _attach_pair_certificate(decision: Decision, setup: _PairSetup,
                             search: "_Search", field: str) -> None:
    if decision.verdict is Verdict.ORTHOGONAL:
        _attach_witness(decision, setup.a, setup.frame, setup.tol,
                        lambda: _pair_witness(setup, search, field,
                                              decision.details))
    elif decision.verdict is Verdict.NOT_ORTHOGONAL:
        # the support value -lower is read along -x: the ray c = -t conj(x)/|x|
        x = complex(search.x[0])
        decision.certificate, info = _violation_certificate(
            setup, decision.margin, -x.conjugate() / abs(x))
        decision.details.update(info)


def _violation_certificate(setup: _PairSetup, margin: float, phase: complex
                           ) -> tuple[Certificate | None, dict]:
    """First scalar on the ray c = t * phase whose chord rate proves the
    refutation, with the ``violation_evals`` spent and, when there is none,
    the ``certificate_error``.

    f(t) = ||A + t phase B||_(k) is convex, and ``margin`` bounds its
    derivative f'(0+) from below, so the chord rate (f(t) - f(0))/t, an
    upper bound on that derivative, never lies below the margin. A rate
    below -strict*scale less ``chord_allowance`` proves the verdict. The
    search quarters t from ||A||/||B|| and gives up once the allowance
    alone would lift the margin above that bar: then no chord at t or below
    can prove it.
    """
    a, b, k = setup.a, setup.b, setup.k
    norm_a, norm_b, n = setup.frame.norm_value, setup.norm_b, a.shape[0]
    bar = -setup.tol.strict * setup.scale
    t, evals = norm_a / norm_b, 0
    while margin + chord_allowance(norm_a, norm_b, t, n) < bar:
        value = ky_fan_sum(a + (t * phase) * b, k)
        evals += 1
        rate = (value - norm_a) / t
        if rate + chord_allowance(norm_a, norm_b, t, n) < bar:
            cert = Certificate(
                kind=CertKind.VIOLATION,
                coefficient=complex(t * phase),
                norm_value=value,
                details={"norm_a": norm_a, "chord_rate": rate,
                         "evals": evals},
            )
            return cert, {"violation_evals": evals}
        t *= 0.25
    return None, {"violation_evals": evals, "certificate_error": (
        f"no chord rate on the steepest ray clears -strict*scale: the "
        f"rounding allowance at |c| = {t:.3e} lifts the margin "
        f"{margin:.3e} above it")}


# ---------------------------------------------------------------------------
# nearest point of a convex set to 0

# atoms a nearest-point search may add before it stops with its bracket open
_ATOM_CAP = 800


def _nearest_point(oracle, start: tuple, tol: float,
                   gate: float = np.inf) -> tuple:
    """Point x nearest 0 of a convex set Z in C^m, given by its linear
    oracle, as (atoms, weights, x, lower, added, capped): the kept atoms
    and their convex weights, whose points combine to x, a lower bound on
    the distance of 0 from Z, the atoms added after the start and whether
    the cap stopped the search. The caller combines the atoms.

    Wolfe's minimum-norm-point algorithm (P. Wolfe, Math. Programming 11,
    1976) in its support-oracle form (E. G. Gilbert, SIAM J. Control 4,
    1966), on Z as a subset of R^{2m}. ``start`` and each ``oracle(x)`` are
    (atom, point); the oracle's point p minimizes <x, z> over Z, so Z lies
    beyond the supporting line <x, z> = <x, p> and <x, p> / |x| bounds the
    distance of 0 from Z below. The search stops once |x| <= tol, the bound
    exceeds ``gate``, or |x| is within tol of the bound: the bracket then
    decides.
    """
    atoms, points = [start[0]], np.atleast_2d(start[1])
    weights = np.ones(1)
    x = points[0]
    lower, added, capped = 0.0, 0, False
    while True:
        miss = float(np.linalg.norm(x))
        if miss <= tol:
            break
        atom, p = oracle(x)
        lower = max(lower, float(np.real(np.vdot(x, p))) / miss)
        if lower > gate or miss - lower <= tol:
            break
        if added == _ATOM_CAP:
            capped = True
            break
        added += 1
        atoms.append(atom)
        points = np.vstack([points, p])
        weights, keep = _wolfe_step(points, np.append(weights, 0.0))
        atoms = [a for a, kept in zip(atoms, keep) if kept]
        points = points[keep]
        x = weights @ points
    # the distance is at most |x| = miss, as x has not moved since; only
    # rounding could put the bound above
    return atoms, weights, x, min(lower, miss), added, capped


def _wolfe_step(points: np.ndarray, weights: np.ndarray) -> tuple:
    """Minor cycle of Wolfe's algorithm: convex weights on the points that
    make the nearest point to 0 of the affine hull of those kept, and the
    mask of the points kept.

    The affine nearest point is solved from the differences to the first
    point by least squares, which stays exact when the points are nearly
    affinely dependent. While some of its weights are not positive the
    current combination moves toward it until a weight reaches 0, and that
    point is dropped, so rounding cannot keep it in the cycle.
    """
    real = np.hstack([points.real, points.imag])
    keep = np.ones(weights.size, dtype=bool)
    while True:
        idx = np.flatnonzero(keep)
        base = real[idx[0]]
        nu = np.linalg.lstsq((real[idx[1:]] - base).T, -base, rcond=None)[0]
        mu = np.concatenate([[1.0 - nu.sum()], nu])
        lam = weights[idx]
        if mu.min() > 0.0:
            return mu, keep
        neg = np.flatnonzero(mu <= 0.0)
        ratio = lam[neg] / np.maximum(lam[neg] - mu[neg], np.finfo(float).tiny)
        j = int(np.argmin(ratio))
        weights[idx] = lam + ratio[j] * (mu - lam)
        weights[idx[neg[j]]] = 0.0
        keep &= weights > 0.0


@dataclass
class _Search:
    """A finished nearest-point search: the weighted boundary atoms
    (w, L, R) whose coefficient sum w L R* makes the point x, and the
    bracket [lower, |x|] on the distance of 0 from the set."""

    terms: list
    x: np.ndarray
    lower: float
    added: int
    capped: bool

    @property
    def coeff(self) -> np.ndarray:
        return sum(w * (left @ right.conj().T) for w, left, right
                   in self.terms)

    def decision(self, tol: Tolerances, scale: float, method: str,
                 details: dict) -> Decision:
        """The verdict of the margin bracket [-|x|, -lower], read through
        ``Tolerances.band``, with the search's details. A refutation
        reports the support value -lower of its direction, every other
        verdict the certified end -|x|."""
        resid = float(np.linalg.norm(self.x))
        verdict = tol.band(-resid, scale, bound=-self.lower)
        details.update({"feasibility_residual": resid,
                        "residual_lower_bound": self.lower,
                        "iterations": self.added,
                        "search_capped": self.capped})
        if verdict is Verdict.BOUNDARY:
            bracket = f"[{-resid:.3e}, {-self.lower:.3e}]"
            details["boundary_reason"] = (
                f"the {_ATOM_CAP}-atom cap stopped the search with the "
                f"margin bracket {bracket} open" if self.capped else
                f"the margin bracket {bracket} is not clear of the band "
                f"[{-tol.strict * scale:.3e}, {-tol.decide * scale:.3e}]")
        margin = -self.lower if verdict is Verdict.NOT_ORTHOGONAL else -resid
        return Decision(verdict=verdict, margin=margin, scale=scale,
                        method=method, tolerances=tol, details=details)


def _search(model: RangeSetModel, start: tuple, tol: float,
            gate: float = np.inf, real: bool = False) -> _Search:
    """``_nearest_point`` on the joint pairing set of the model from the
    ``start`` it made, each oracle call one atom of the model's exposure,
    and the corral flattened into one mixture [(w, L, R), ...]. ``real``
    takes the real parts of the points, the set of a real-field pair. A
    point set is its own nearest point, at distance |x|."""
    def oracle(x):
        points, left, right = model.expose(x[None])
        return [(1.0, left[0], right[0])], points[0]

    if real:
        oracle, start = (lambda x, whole=oracle: _real_parts(whole(x)),
                         _real_parts(start))
    if model.is_point:
        atoms, weights, x = [start[0]], np.ones(1), start[1]
        lower, added, capped = float(np.linalg.norm(x)), 0, False
    else:
        atoms, weights, x, lower, added, capped = _nearest_point(
            oracle, start, tol, gate)
    terms = [(float(w * v), left, right) for w, atom in zip(weights, atoms)
             for v, left, right in atom]
    return _Search(terms=terms, x=x, lower=lower, added=added, capped=capped)


def _real_parts(exposure: tuple) -> tuple:
    return exposure[0], exposure[1].real + 0j


# ---------------------------------------------------------------------------
# witness construction


def _checked_miss(setup: _PairSetup, coeff: np.ndarray, field: str,
                  what: str = "nearest point of the pairing set") -> float:
    """|fixed part + tr(T* C)| (its real part in the real field), checked
    against the construction bar 10 cert_tol."""
    miss = complex(setup.model.pairing(coeff)[0])
    resid = abs(miss.real) if field == REAL_FIELD else abs(miss)
    if resid > 10.0 * setup.tol.cert * setup.scale:
        raise WitnessSearchFailed(f"{what} misses 0 by {resid:.3e}")
    return resid


def _attach_witness(decision: Decision, a: np.ndarray,
                    frame: SubdifferentialFrame, tol: Tolerances,
                    build) -> None:
    """Attach the witness system ``build()`` makes, once its norming defect
    ||A||_(k) - Re tr(G* A) passes ``Tolerances.norming_level``, the bar
    the verifier holds it to; a failed construction leaves the verdict and
    its ``certificate_error``."""
    try:
        cert = build()
        defect = frame.norm_value - cert.pairing(a).real
        level = tol.norming_level(a.shape[0], frame.part.k,
                                  float(frame.svd.s[0]))
        if defect > level:
            raise WitnessSearchFailed(
                f"norming defect {defect:.3e} exceeds the rounding level "
                f"{level:.3e}")
    except WitnessSearchFailed as exc:
        decision.details["certificate_error"] = str(exc)
        return
    cert.details["norming_defect"] = defect
    decision.certificate = cert


def _witness(frame: SubdifferentialFrame, terms: list,
             details: dict) -> Certificate:
    """The WITNESS_SYSTEM of weighted boundary atoms (w, L, R), each lifted
    to the factors of one partial isometry Y X* = U1 V1* + U2 L R* V2*."""
    lifted = [frame.term(left, right) for _, left, right in terms]
    return Certificate(kind=CertKind.WITNESS_SYSTEM,
                       weights=[w for w, _, _ in terms],
                       left=[y for y, _ in lifted],
                       right=[x for _, x in lifted], details=details)


def _pair_witness(setup: _PairSetup, search: _Search, field: str,
                  details: dict) -> Certificate:
    """The pair's witness system: one term purified from the search's
    coefficient when s_k > 0, else, or when that fails (its
    ``witness_error`` in ``details``), the search's corral."""
    if not setup.frame.degenerate_zero:
        try:
            return _witness_system(setup, search.coeff, field)
        except WitnessSearchFailed as exc:
            details["witness_error"] = str(exc)
    return _corral_witness(setup, search, field)


def _purpose(field: str) -> str:
    return "real" if field == REAL_FIELD else "orthogonal"


def _witness_system(setup: _PairSetup, coeff: np.ndarray,
                    field: str) -> Certificate:
    """One term: the search's coefficient purified to a rank-q projector
    P = L L* on the boundary cluster that solves the trace equation (its
    real part, in the real field), so that X = [V1, V2 L] holds k
    orthonormal eigenvectors of |A| and Y = [U1, U2 L]."""
    _checked_miss(setup, coeff, field)
    cols, steps = setup.model.purify(coeff)
    resid = _checked_miss(setup, cols @ cols.conj().T, field,
                          "purified projector")
    return _witness(setup.frame, [(1.0, cols, cols)], {
        "purpose": _purpose(field),
        "construction_residual": resid,
        "purify_steps": steps,
    })


def _corral_witness(setup: _PairSetup, search: _Search,
                    field: str) -> Certificate:
    """The search's corral as it stands, one term per atom: rank-q
    projectors when s_k > 0, contractions -U_q V_q* on the widened tail at
    s_k = 0, whose coefficient solves the trace equation (its real part,
    in the real field)."""
    return _witness(setup.frame, search.terms, {
        "purpose": _purpose(field),
        "construction_residual": _checked_miss(setup, search.coeff, field),
    })


# ---------------------------------------------------------------------------
# subspace orthogonality
#
# With W_1..W_m an orthonormal basis of the span, A is orthogonal to the
# span iff one subgradient G annihilates every W_j, that is iff 0 lies in
# the joint pairing set Z = {(tr(G* W_j))_j} in C^m. Its j-th coordinate is
# the pair range set of W_j, fixed_j + tr(T C_j), over one shared trace-q
# coefficient T.

def _orthonormalize_basis(mats: list) -> list:
    out = []
    for w in mats:
        size = float(np.linalg.norm(w))
        for _ in range(2):
            for o in out:
                w = w - np.vdot(o, w) * o
        nrm = float(np.linalg.norm(w))
        # relative, so that the rank of a basis does not depend on its scale
        if nrm > 1e-12 * size:
            out.append(w / nrm)
    return out


def check_subspace(a, basis, k: int, tol: Tolerances | None = None,
                   want_certificate: bool = True) -> Decision:
    """Decide orthogonality of A to the span of the basis matrices.

    Orthogonality to the whole span is equivalent to one dual matrix
    annihilating every basis direction at once, that is to 0 lying in the
    joint pairing set of an orthonormal basis, scaled to the largest basis
    matrix so that a one-matrix basis is the pair (A, B) itself. The pair's
    search finds the nearest point z of that set until its bracket decides;
    a refutation is proved by the chord rate along sum_j conj(z_j) W_j.
    """
    tol = _tol_or_default(tol)
    a, basis = require_operands(a, basis, k)
    frame = frame_of(a, k, tol.cluster)
    norm_a = frame.norm_value
    ortho = _orthonormalize_basis(basis)
    if not ortho:
        decision = Decision(
            verdict=Verdict.ORTHOGONAL, margin=0.0,
            scale=tol.margin_scale(norm_a, 0.0), method="subspace-feasibility",
            tolerances=tol, details={"basis_rank": 0, "trivial": True,
                                     "search_capped": False})
        if want_certificate:
            # the top-k singular pairs norm A exactly
            left, right = frame.top_term()
            _attach_witness(decision, a, frame, tol, lambda: Certificate(
                kind=CertKind.WITNESS_SYSTEM, weights=[1.0], left=[left],
                right=[right], details={"purpose": "orthogonal"}))
        return decision
    size = max(float(np.linalg.norm(w)) for w in basis)
    ortho = [size * w for w in ortho]
    scale = tol.margin_scale(norm_a, max(ky_fan_sum(w, k) for w in ortho))
    feas_tol, gate = 0.125 * tol.decide * scale, 4.0 * tol.strict * scale
    # the corral is the witness as it stands, so the search starts at the
    # centre: no start that purifies well is needed
    model = frame.range_model(*ortho)
    search = _search(model, model.centre, feas_tol, gate)
    decision = search.decision(tol, scale, "subspace-feasibility", {
        "basis_rank": len(ortho),
        "degenerate_zero": frame.degenerate_zero,
        "q": frame.part.q,
        "r": frame.part.r,
    })
    if not want_certificate:
        return decision
    if decision.verdict is Verdict.ORTHOGONAL:
        _attach_witness(decision, a, frame, tol, lambda: _witness(
            frame, search.terms, {"purpose": "orthogonal"}))
    elif decision.verdict is Verdict.NOT_ORTHOGONAL:
        # the direction of the span along conj(z), as large as the largest
        # basis matrix: its pairing set lies beyond a line missing 0, at the
        # support value -lower along c = -t
        resid = decision.details["feasibility_residual"]
        coefficients = search.x.conj() / resid
        witness_dir = sum(c * w for c, w in zip(coefficients, ortho))
        decision.details["counterexample_coefficients"] = [
            complex(c) for c in coefficients]
        cert, info = _violation_certificate(
            _setup_of(a, witness_dir, k, tol, frame), decision.margin, -1.0)
        decision.details.update(info)
        if cert is not None:
            cert.details["combination"] = _raw_combination(basis, witness_dir)
            decision.certificate = cert
    return decision


def _raw_combination(basis, direction: np.ndarray) -> list:
    """Coefficients over the caller's basis reproducing an in-span matrix."""
    stack = np.stack([w.ravel() for w in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(stack, direction.ravel(), rcond=None)
    return [[float(c.real), float(c.imag)] for c in coeffs]


# ---------------------------------------------------------------------------
# parallelism


def check_parallel(a, b, k: int, tol: Tolerances | None = None,
                   want_certificate: bool = True) -> Decision:
    """Decide whether ||A + c*B||_(k) = ||A||_(k) + ||B||_(k) for some
    unimodular c.

    Equality at some phase is equivalent to the pairing set reaching modulus
    ||B||_(k); the peak modulus is read from the support-function sweep and
    the maximizing phase supplies the equality scalar. The norm at that
    scalar is not evaluated: it lies between ||A||_(k) + peak_modulus and
    triangle_bound.
    """
    setup = _pair_setup(a, b, k, tol)
    frame, norm_b, scale = setup.frame, setup.norm_b, setup.scale
    if frame.degenerate_zero:
        raise DegenerateRank(
            "parallelism is only characterized when s_k is positive")
    norm_a = frame.norm_value
    outcome = setup.model.maximum(1e-3 * setup.tol.decide * scale)
    margin = outcome.value - norm_b
    verdict = setup.tol.band(margin, scale, Verdict.PARALLEL,
                             Verdict.NOT_PARALLEL,
                             bound=outcome.bound - norm_b)
    lam = cmath.exp(-1j * outcome.theta)
    details = {
        "peak_modulus": outcome.value,
        "peak_upper_bound": outcome.bound,
        "sweep_evals": outcome.evals,
        "sweep_rounds": outcome.rounds,
        "sweep_capped": outcome.capped,
        "norm_a": norm_a,
        "norm_b": norm_b,
        "lambda_re": lam.real,
        "lambda_im": lam.imag,
        "triangle_bound": norm_a + norm_b,
    }
    decision = Decision(verdict=verdict, margin=margin, scale=scale,
                        method="parallel-sweep", tolerances=setup.tol,
                        details=details)
    if verdict is Verdict.PARALLEL and want_certificate:
        # the atom exposed along -e^{i theta} attains the peak
        _, left, right = setup.model.expose(np.array([[-lam.conjugate()]]))
        _attach_witness(decision, setup.a, frame, setup.tol, lambda: _witness(
            frame, [(1.0, left[0], right[0])], {
                "purpose": "parallel",
                "target_modulus": norm_b,
                "lambda_re": lam.real,
                "lambda_im": lam.imag,
            }))
    return decision
