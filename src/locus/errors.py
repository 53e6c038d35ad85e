"""Exception types shared across the engine."""


class LocusError(Exception):
    """Base class for all engine errors."""


class ParseError(LocusError):
    """Malformed rational syntax or malformed run configuration."""


class ZeroInput(LocusError):
    """A zero element where only nonzero rationals are meaningful."""


class UnitInput(LocusError):
    """+1 or -1 passed to an operation that cannot handle units."""


class FactorizationCapacityExceeded(LocusError):
    """A cofactor survived every configured factoring method, or is too
    large for the deterministic primality test."""


class BadPrime(LocusError):
    """Modulus is 2 or divides the support of the tested element."""


class RangeTooLarge(LocusError):
    """Prime scan range beyond the configured ceiling."""


class NotQFree(LocusError):
    """Element has an exponent outside [0, q) where q-free input is required."""


class UnitElement(LocusError):
    """+1 or -1 in a set feeding the hyperplane construction."""


class InstanceTooLarge(LocusError):
    """Point enumeration q^s beyond the configured ceiling."""


class OracleLimitExceeded(LocusError):
    """Brute-force oracle invoked beyond its configured size limits."""


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
