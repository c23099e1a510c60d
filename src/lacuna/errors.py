"""The package's two exception types.

A rejected argument is a plain ``ValueError``.  A computation the
package refuses to do or finish raises LacunaError; ``lacuna.cli.exit_code``
maps the first to exit 2 and the second to exit 3.
"""


class LacunaError(Exception):
    """A refused computation: ambiguous rounding, a non-integer or non-positive term, too few points."""


class TooLarge(LacunaError):
    """A size guard tripped: the work or memory estimated a priori is over its cap."""
