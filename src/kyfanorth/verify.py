"""Verification of certificates, from singular values alone.

A WITNESS_SYSTEM is a dual matrix G = sum_i w_i Y_i X_i* of the Ky Fan
k-norm: convex weights and n x k factors with orthonormal columns put it in
the dual unit ball {||G|| <= 1, ||G||_1 <= k} (K. Fan, Proc. Natl. Acad.
Sci. USA 37, 1951; G. A. Watson, Linear Algebra Appl. 170, 1992). Then
|tr(G* M)| <= ||M||_(k) for every M, so

    ||A + sum_j c_j W_j||_(k) >= ||A||_(k) - eta - sum_j |c_j| rho_j

for every choice of scalars c_j, with the norming defect
eta = ||A||_(k) - Re tr(G* A) and the pairings rho_j = |tr(G* W_j)| (their
real parts when the scalars are real). The verifier checks the layout, the
orthonormality and weights to the rounding level 64 n eps, eta against
``Tolerances.norming_level`` and each rho_j against min(decide,
0.1 strict)*scale, and states the bound it proved. It reads ||A||_(k) from
singular values and uses no singular vector or cluster of A: it imports
nothing from the engine (``decide``, ``subdiff``) or the referee
(``oracle``), so a fault in the frame that builds a certificate cannot
also pass it.
"""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from .errors import NonFinite
from .linalg import as_matrix
from .model import CertKind, Certificate, Tolerances, rounding_level
from .norms import chord_allowance, ky_fan_norm_batch, ky_fan_sum, \
    require_operands

__all__ = ["verify_certificate"]


def verify_certificate(cert: Certificate, a, second, k: int,
                       tol: Tolerances | None = None) -> dict:
    """Independently re-check every clause of a certificate.

    ``second`` is the direction matrix of a pair or parallel certificate,
    or the list of basis matrices of a subspace: a witness system pairs
    with each of them, a VIOLATION whose ``combination`` detail combines
    the basis with that combination. The operands pass the entry preamble
    once, inside the report, and every clause reads the arrays it returns.
    Returns a report dict with one entry per clause, an overall ``ok`` flag
    and the ``statement`` the certificate proves once it passes (None when
    no clause could be read); never raises on a bad certificate, operand
    or k.
    """
    tol = Tolerances() if tol is None else tol
    checks = []
    statement = None

    def add(name, value, bound):
        checks.append({"name": name, "value": float(value),
                       "bound": float(bound), "pass": bool(value <= bound)})

    try:
        if cert.kind is CertKind.VIOLATION:
            statement = _verify_violation(cert, a, second, k, tol, add)
        elif cert.kind is CertKind.WITNESS_SYSTEM:
            statement = _verify_witness(cert, a, second, k, tol, add)
        else:
            add("known_kind", 1.0, 0.0)
    except Exception as exc:  # verification must always produce a report
        checks.append({"name": "exception", "value": 1.0, "bound": 0.0,
                       "pass": False, "error": f"{type(exc).__name__}: {exc}"})
    return {"kind": cert.kind.value, "checks": checks,
            "ok": all(c["pass"] for c in checks), "statement": statement}


def _certificate_scalar(value) -> complex:
    """A scalar c that a certificate supplies, refused unless finite. The
    operands are checked at entry, so c is the one way that A + c B can
    reach LAPACK with an inf or a NaN in it."""
    c = complex(value)
    if not cmath.isfinite(c):
        raise NonFinite(f"certificate scalar {c} is not finite")
    return c


def _checked_terms(cert: Certificate, n: int, k: int) -> Certificate | None:
    """The certificate with its weights and factors as finite arrays, or
    None for a layout that is off: no terms, lists of unequal lengths, or
    a factor that is not n x k."""
    weights, left, right = cert.weights, cert.left, cert.right
    if not (weights and left and right
            and len(weights) == len(left) == len(right)):
        return None
    left, right = [as_matrix(y) for y in left], [as_matrix(x) for x in right]
    if any(m.shape != (n, k) for m in left + right):
        return None
    return dataclasses.replace(cert, weights=[float(w) for w in weights],
                               left=left, right=right)


def _verify_witness(cert, a, second, k, tol, add):
    basis = isinstance(second, (list, tuple))
    a, mats = require_operands(a, second if basis else [second], k)
    n = a.shape[0]
    # A and every direction in one SVD call
    sv = np.linalg.svd(np.stack([a, *mats]), compute_uv=False)
    norm_a, norms = float(sv[0, :k].sum()), sv[1:, :k].sum(axis=1)
    scale = tol.margin_scale(norm_a, float(norms.max(initial=0.0)))
    terms = _checked_terms(cert, n, k)
    if terms is None:
        add("term_layout", 1.0, 0.0)
        return None
    # held to rounding, so that no inflation of G can make up a norming
    # defect beyond the rounding level
    eye = np.eye(k)
    add("orthonormal", max(float(np.abs(m.conj().T @ m - eye).max())
                           for m in terms.left + terms.right),
        rounding_level(n))
    w = np.asarray(terms.weights)
    add("convex_weights", max(-float(w.min()), abs(float(w.sum()) - 1.0)),
        rounding_level(n))
    eta = norm_a - terms.pairing(a).real
    add("norming", eta, tol.norming_level(n, k, float(sv[0, 0])))
    pairings = [terms.pairing(m) for m in mats]
    # a pairing beyond decide*scale leaves the margin short of ORTHOGONAL
    bound = min(tol.decide, 0.1 * tol.strict) * scale
    purpose = cert.details.get("purpose", "orthogonal")
    if purpose == "parallel":
        return _verify_parallel(cert, a, mats, basis, k, norm_a, norms,
                                pairings, eta, bound, add)
    real = purpose == "real"
    rho = [abs(z.real) if real else abs(z) for z in pairings]
    for j, value in enumerate(rho):
        name = (f"basis_pairing_{j}" if basis
                else "pairing_real_part" if real else "pairing")
        add(name, value, bound)
    return {"bound": "||A + sum_j c_j W_j||_(k) >= norm_a - eta "
                     "- sum_j |c_j| rho_j",
            "scalars": "real" if real else "complex",
            "norm_a": norm_a, "eta": eta, "rho": rho}


def _verify_parallel(cert, a, mats, basis, k, norm_a, norms, pairings, eta,
                     bound, add):
    if basis or len(mats) != 1:
        add("one_direction", 1.0, 0.0)
        return None
    norm_b = float(norms[0])
    add("pairing_modulus", abs(abs(pairings[0]) - norm_b), bound)
    lam = complex(cert.details.get("lambda_re", 1.0),
                  cert.details.get("lambda_im", 0.0))
    add("unimodular", abs(abs(lam) - 1.0), 1e-9)
    lam = _certificate_scalar(lam)
    achieved = ky_fan_sum(a + lam * mats[0], k)
    add("triangle_equality", abs(achieved - (norm_a + norm_b)), bound)
    return {"bound": "||A + lambda B||_(k) = achieved, which is "
                     "norm_a + norm_b up to triangle_equality",
            "norm_a": norm_a, "norm_b": norm_b, "eta": eta,
            "achieved": achieved}


def _materialize_direction(mats: list, details) -> np.ndarray:
    """The direction of a violation: the one matrix in ``mats``, or the
    ``combination`` of the basis ``mats`` a subspace refutation records."""
    combo = details.get("combination")
    if combo is None:
        return mats[0]
    out = np.zeros_like(mats[0])
    for (re, im), w in zip(combo, mats):
        out = out + complex(re, im) * w
    return out


def _verify_violation(cert, a, second, k, tol, add):
    basis = "combination" in cert.details
    a, mats = require_operands(a, second if basis else [second], k)
    b = _materialize_direction(mats, cert.details)
    # ||A||, ||B|| and ||A + lam B|| in one SVD call
    lam = _certificate_scalar(cert.coefficient)
    norm_a, norm_b, value = (float(x) for x in ky_fan_norm_batch(
        np.stack([a, b, a + lam * b]), k))
    scale = tol.margin_scale(norm_a, norm_b)
    add("claimed_norm_matches", abs(value - float(cert.norm_value)),
        tol.cert * scale)
    # by convexity the chord rate bounds the derivative along lam B above
    t = abs(lam)
    rate = (value - norm_a) / t
    allowance = chord_allowance(norm_a, norm_b, t, a.shape[0])
    add("chord_rate", rate + allowance, -tol.strict * scale)
    return {"bound": "d/dt ||A + t c B||_(k) at t = 0+ <= chord_rate "
                     "+ allowance",
            "norm_a": norm_a, "chord_rate": rate, "allowance": allowance}
