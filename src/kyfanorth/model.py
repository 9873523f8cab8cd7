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
    BLOCK_COEFFICIENT = "BLOCK_COEFFICIENT"
    DENSITY_SYSTEM = "DENSITY_SYSTEM"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class Tolerances:
    """Decision bands and certificate budgets, each a pure number times the
    problem's own scale, so that (tA, tB) decides and verifies as (A, B).

    Norm values (margins, pairings, construction misses) are read in units
    of the margin scale ||A||_(k) + ||B||_(k): at or above -decide*scale is
    orthogonal, below -strict*scale not, anything between BOUNDARY. Spectral
    widths are in units of s1 = ||A||: the clustering width 1e-8 s1 (the
    absolute cluster when set) and the rank cut 1e-12 s1. Bare, cert
    bounds trace, cluster span and operator norm.

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

    kind WITNESS_SYSTEM: ``vectors`` holds k orthonormal columns, each in
    the span of its cluster's right singular vectors of A, whose
    compression sum of the polar-rotated direction hits the recorded target
    (0 for orthogonality, modulus ||B||_(k) for parallelism).
    kind BLOCK_COEFFICIENT: ``block_matrix`` solves the boundary-block trace
    equation in the basis of a spectral frame of A; ``subgradient`` is the
    assembled dual matrix built from it.
    kind DENSITY_SYSTEM: k PSD trace-one matrices P_i, each supported in the
    matching eigenspace of |A|, with combined operator norm at most one,
    whose rotated sum annihilates every basis direction. The indices of one
    singular cluster of A share their P_i, so it is stored once per cluster
    as an n-row factor X_c in ``factors``, P_i = X_c X_c*, and its index
    count m_c in ``multiplicities`` (sum m_c = k, in index order).
    kind VIOLATION: ``coefficient`` is a scalar c with ||A + c*B||_(k) =
    ``norm_value`` whose chord rate (``norm_value`` - ||A||_(k))/|c|, plus a
    rounding allowance, lies below -strict*scale. The norm is convex in c,
    so that rate bounds the derivative along c*B above and proves the
    NOT_ORTHOGONAL verdict; the norm value lies strictly below ||A||_(k).
    """

    kind: CertKind
    vectors: np.ndarray | None = None
    block_matrix: np.ndarray | None = None
    subgradient: np.ndarray | None = None
    coefficient: complex | None = None
    norm_value: float | None = None
    factors: list | None = None
    multiplicities: list | None = None
    details: dict = field(default_factory=dict)


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
