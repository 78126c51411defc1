"""Exception types shared across the package."""


class PopiError(Exception):
    """Base class for all errors raised by this package."""


class PointOutOfRange(PopiError):
    pass


class DuplicateKey(PopiError):
    pass


class DuplicateValue(PopiError):
    pass


class MismatchedChainSize(PopiError):
    pass


class BadParameters(PopiError):
    pass


class NotAMember(PopiError):
    pass


class FullRangeNotSupported(PopiError):
    pass


class TooLarge(PopiError):
    """The semigroup asked for has more elements than the package builds."""


class DecompositionFailed(PopiError):
    """Internal search exhausted without finding a factorization."""
