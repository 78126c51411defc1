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


class GeneratorOutsideSemigroup(PopiError):
    pass


class NotAMember(PopiError):
    pass


class NotOrientationPreserving(PopiError):
    pass


class RankTooHigh(PopiError):
    pass


class BadRank(PopiError):
    pass


class NotRestricted(PopiError):
    """Element is not an order-preserving corank-one map with domain in the range set."""


class DomainMismatch(PopiError):
    pass


class FullRangeNotSupported(PopiError):
    pass


class ChainTooSmall(PopiError):
    pass


class NotARangeMap(PopiError):
    pass


class InvalidConjugator(PopiError):
    pass


class TooLarge(PopiError):
    """The semigroup asked for has more elements than the package builds."""


class DecompositionFailed(PopiError):
    """Internal search exhausted without finding a factorization."""
