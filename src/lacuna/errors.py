"""Exception types shared across the package.

Everything derives from LacunaError so callers (and the CLI) can map
computation guards to a single exit path without enumerating causes.
"""


class LacunaError(Exception):
    """Base class for all package-specific errors."""


class TooLarge(LacunaError):
    """A size guard tripped (enumeration or sample count would explode)."""


class TooFewPoints(LacunaError):
    """Not enough consecutive data points for tail detection."""


class IndexOutOfRange(LacunaError):
    """Tuple index points outside the materialized terms."""


class RoundingAmbiguous(LacunaError):
    """A rounded power sits too close to a half-integer at the given precision."""


class NonIntegerRecurrence(LacunaError):
    """Exact division by the leading recurrence coefficient failed."""


class NonPositiveTerm(LacunaError):
    """A generated sequence term fell below 1."""


class ZeroModulus(LacunaError):
    """Polynomial reduction modulo the zero polynomial."""
