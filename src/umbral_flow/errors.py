"""Exception types shared across the package."""


class UmbralFlowError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInverseError(UmbralFlowError):
    """Inversion of zero (or of a value that is zero at working precision)."""


class EnumerationCapExceededError(UmbralFlowError):
    """An exhaustive enumeration would exceed the configured cap."""


class PrecisionLossError(UmbralFlowError):
    """A quantity (e.g. a valuation) is not determined at stored precision."""


class CompositionConstantTermError(UmbralFlowError):
    """Series composition P(Q) requires Q(0) = 0."""


class NotAGeneratorError(UmbralFlowError):
    """Additive series does not satisfy the generator conditions."""


class TruncationMismatchError(UmbralFlowError):
    """Truncation ranges of the operands are incompatible."""


class OutsideConvergenceDomainError(UmbralFlowError):
    """Argument lies outside the guaranteed convergence domain."""


class NoConvergenceDetectedError(UmbralFlowError):
    """A windowed summation hit its term cap before settling."""


class PreconditionFailedError(UmbralFlowError):
    """A documented precondition of a verification routine failed."""


class UnknownClaimError(UmbralFlowError):
    """Verification claim identifier is not recognized."""


class ParseError(UmbralFlowError):
    """Element text could not be parsed; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position
