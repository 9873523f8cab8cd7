"""Birkhoff-James orthogonality of complex matrices in Ky Fan k-norms.

The package decides whether one matrix is orthogonal to another (or to a
whole subspace) in the k-th Ky Fan norm, certifies each verdict with a
checkable witness, and ships an independent norm-evaluation referee for
cross-validation. See the README for the decision model and CLI usage.
"""

from .decide import check_pair, check_parallel, check_subspace
from .errors import (
    DegenerateRank,
    KOutOfRange,
    KyFanError,
    NoConvergence,
    NonFinite,
    ParseError,
    ShapeMismatch,
    WitnessSearchFailed,
)
from .generate import (
    make_nonorthogonal_pair,
    make_nonparallel_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
    random_matrix,
    tied_spectrum,
)
from .io import (
    Problem,
    Report,
    decode_problem,
    decode_report,
    encode_problem,
    encode_report,
    load_problem,
    load_report,
    save_problem,
    save_report,
)
from .linalg import haar_unitary, singular_values
from .model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    Certificate,
    CertKind,
    Decision,
    Tolerances,
    Verdict,
)
from .norms import ky_fan_norm, ky_fan_norm_batch
from .oracle import (
    fd_directional,
    oracle_check_pair,
    oracle_check_parallel,
    oracle_check_subspace,
    sample_range_points,
)
from .subdiff import (
    SubdifferentialFrame,
    build_frame,
    directional_derivative,
    sample_subgradient,
    subgradient_membership,
    swept_minimum,
)
from .verify import verify_certificate

__version__ = "0.1.0"

__all__ = [
    "COMPLEX_FIELD",
    "REAL_FIELD",
    "CertKind",
    "Certificate",
    "Decision",
    "DegenerateRank",
    "KOutOfRange",
    "KyFanError",
    "NoConvergence",
    "NonFinite",
    "ParseError",
    "Problem",
    "Report",
    "ShapeMismatch",
    "SubdifferentialFrame",
    "Tolerances",
    "Verdict",
    "WitnessSearchFailed",
    "build_frame",
    "check_pair",
    "check_parallel",
    "check_subspace",
    "decode_problem",
    "decode_report",
    "directional_derivative",
    "encode_problem",
    "encode_report",
    "fd_directional",
    "haar_unitary",
    "ky_fan_norm",
    "ky_fan_norm_batch",
    "load_problem",
    "load_report",
    "make_nonorthogonal_pair",
    "make_nonparallel_pair",
    "make_orthogonal_pair",
    "make_parallel_pair",
    "make_singular_pair",
    "make_subspace_instance",
    "oracle_check_pair",
    "oracle_check_parallel",
    "oracle_check_subspace",
    "random_matrix",
    "sample_range_points",
    "sample_subgradient",
    "save_problem",
    "save_report",
    "singular_values",
    "subgradient_membership",
    "swept_minimum",
    "tied_spectrum",
    "verify_certificate",
    "__version__",
]
