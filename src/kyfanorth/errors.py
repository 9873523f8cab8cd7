"""Exception types shared across the package."""


class KyFanError(Exception):
    """Base class for every error raised by this package."""


class NonFinite(KyFanError):
    """A matrix contains NaN or infinite entries."""


class NoConvergence(KyFanError):
    """An iterative kernel failed to converge within its cap."""


class ShapeMismatch(KyFanError):
    """Operands have incompatible shapes."""


class KOutOfRange(KyFanError):
    """The norm index k is outside 1..n."""


class DegenerateRank(KyFanError):
    """s_k(A) is numerically zero and the requested criterion needs s_k > 0."""


class WitnessSearchFailed(KyFanError):
    """The witness search did not reach the requested residual."""


class ParseError(KyFanError):
    """A problem or report file is malformed."""
