"""Exception types shared across the engine."""


class LocusError(Exception):
    """Base class for all engine errors."""


class ParseError(LocusError):
    """Malformed rational syntax or malformed run configuration."""


class ZeroInput(LocusError):
    """A zero element where only nonzero rationals are meaningful."""


class FactorizationCapacityExceeded(LocusError):
    """A cofactor survived every factoring method or is too large for the
    deterministic primality test, or a value passes rationals.DIGIT_CAP digits."""


class RangeTooLarge(LocusError):
    """Prime scan range beyond the configured ceiling."""


class InstanceTooLarge(LocusError):
    """Cover search past verify.COVER_RECHECK_LIMIT candidate values."""


class OracleLimitExceeded(LocusError):
    """Brute-force oracle invoked beyond its size limits or work budget."""


class NonUnitExponent(LocusError):
    """Exponent vector entry divisible by q where units mod q are required."""


class DegenerateParameters(LocusError):
    """Family constructor parameters that collapse the intended set."""


class InapplicableCase(LocusError):
    """Exceptional-form template not applicable to this exponent shape."""


class NotEven(LocusError):
    """Even exponent required."""


class WrongCardinality(LocusError):
    """Set has the wrong number of elements for this operation."""


class InternalInconsistency(LocusError):
    """A certificate and independent evidence disagree; this is a bug signal."""
