"""Result types shared by the decision engine, the oracle, and the CLI."""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["Verdict", "CertKind", "Tolerances", "Certificate", "Decision",
           "COMPLEX_FIELD", "REAL_FIELD"]

COMPLEX_FIELD = "complex"
REAL_FIELD = "real"


def rounding_level(n: int) -> float:
    """64 n eps: the relative rounding of the singular values of an n x n
    matrix, and of the products and sums a certificate is read from."""
    return 64.0 * n * np.finfo(float).eps


class Verdict(str, enum.Enum):
    ORTHOGONAL = "ORTHOGONAL"
    NOT_ORTHOGONAL = "NOT_ORTHOGONAL"
    BOUNDARY = "BOUNDARY"
    # parallelism checks and the sampling falsifier reuse the report plumbing
    PARALLEL = "PARALLEL"
    NOT_PARALLEL = "NOT_PARALLEL"
    NO_COUNTEREXAMPLE = "NO_COUNTEREXAMPLE"


class CertKind(str, enum.Enum):
    WITNESS_SYSTEM = "WITNESS_SYSTEM"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class Tolerances:
    """Decision bands and certificate budgets, each a pure number times the
    problem's own scale, so that (tA, tB) decides and verifies as (A, B).

    Norm values (margins, pairings, construction misses) are read in units
    of the margin scale ||A||_(k) + ||B||_(k): at or above -decide*scale is
    orthogonal, below -strict*scale not, anything between BOUNDARY. Spectral
    widths are in units of s1 = ||A||: the clustering width 1e-8 s1 (the
    absolute cluster when set) and the rank cut 1e-12 s1. In units of the
    margin scale, cert bounds construction misses and a claimed norm. The
    norming defect of a witness is held to ``norming_level``, a rounding
    level in units of s1, by the engine and the verifier alike.

    A problem file carries its tolerances, and ``check`` and ``verify`` both
    read them from there; the Python entry points take them as ``tol``.
    This is their one door: every value is finite, 0 < decide <= strict,
    cert > 0 and cluster, when set, >= 0; nothing below checks them again.
    """

    decide: float = 1e-7
    strict: float = 1e-6
    cert: float = 1e-8
    cluster: float | None = None

    def __post_init__(self):
        # chained comparisons: a NaN fails every one of them
        if not 0 < self.decide <= self.strict < math.inf:
            raise ValueError("need 0 < decide <= strict, all finite")
        if not 0 < self.cert < math.inf:
            raise ValueError("cert must be positive and finite")
        if self.cluster is not None and not 0 <= self.cluster < math.inf:
            raise ValueError("cluster must be None or finite and >= 0")

    def margin_scale(self, norm_a: float, norm_b: float) -> float:
        return max(norm_a + norm_b, 1e-300)

    def norming_level(self, n: int, k: int, s1: float) -> float:
        """The largest norming defect ||A||_(k) - Re tr(G* A) a witness of
        an n x n matrix A with top singular value s1 may carry: the
        rounding level 64 n eps s1 of its singular values, plus
        k (n - 1) cluster when a clustering width is set, since a
        single-linkage cluster spans at most n - 1 gaps of that width."""
        level = rounding_level(n) * s1
        if self.cluster is not None:
            level += k * (n - 1) * self.cluster
        return level

    def band(self, margin: float, scale: float,
             hold: Verdict = Verdict.ORTHOGONAL,
             fail: Verdict = Verdict.NOT_ORTHOGONAL,
             bound: float | None = None,
             middle: Verdict = Verdict.BOUNDARY) -> Verdict:
        """Read a verdict off a margin.

        At or above -decide*scale reads ``hold``, below -strict*scale
        ``fail``, anything between ``middle``. ``bound`` is the other end of
        a certified bracket around the margin; when given, both ends must
        land on the same side or the verdict is ``middle``.
        """
        def side(value):
            if value >= -self.decide * scale:
                return hold
            if value < -self.strict * scale:
                return fail
            return middle

        verdict = side(margin)
        if bound is not None and side(bound) is not verdict:
            return middle
        return verdict

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Certificate:
    """Checkable evidence attached to a decision.

    kind WITNESS_SYSTEM: the dual matrix G = sum_i w_i Y_i X_i* of convex
    ``weights`` w_i and n x k factors X_i (``right``) and Y_i (``left``)
    with orthonormal columns, a point of the dual unit ball
    {||G|| <= 1, ||G||_1 <= k} of the Ky Fan k-norm. It norms A,
    Re tr(G* A) = ||A||_(k) up to its norming defect, and its pairings
    tr(G* W) = sum_i w_i tr(Y_i* W X_i) vanish on the direction or every
    basis matrix (their real parts over the reals), or reach modulus
    ||B||_(k) for parallelism. Then ||A + sum_j c_j W_j||_(k) >=
    ||A||_(k) - defect - sum_j |c_j| |tr(G* W_j)| for all scalars c_j.
    kind VIOLATION: ``coefficient`` is a scalar c with ||A + c*B||_(k) =
    ``norm_value`` whose chord rate (``norm_value`` - ||A||_(k))/|c|, plus a
    rounding allowance, lies below -strict*scale. The norm is convex in c,
    so that rate bounds the derivative along c*B above and proves the
    NOT_ORTHOGONAL verdict; the norm value lies strictly below ||A||_(k).
    """

    kind: CertKind
    weights: list | None = None
    left: list | None = None
    right: list | None = None
    coefficient: complex | None = None
    norm_value: float | None = None
    details: dict = field(default_factory=dict)

    def pairing(self, m: np.ndarray) -> complex:
        """tr(G* M) = sum_i w_i tr(Y_i* M X_i) of a witness system."""
        return complex(sum(w * np.vdot(y, m @ x) for w, y, x
                           in zip(self.weights, self.left, self.right)))


@dataclass
class Decision:
    """Outcome of a check: verdict, the margin it was read from, evidence."""

    verdict: Verdict
    margin: float
    scale: float
    method: str = ""
    tolerances: Tolerances | None = None
    certificate: Certificate | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        parts = [
            f"verdict={self.verdict.value}",
            f"margin={self.margin:.6e}",
            f"scale={self.scale:.6e}",
        ]
        if self.method:
            parts.append(f"method={self.method}")
        if self.certificate is not None:
            parts.append(f"certificate={self.certificate.kind.value}")
        return " ".join(parts)
