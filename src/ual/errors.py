"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad flags exit 1 (usage), bad config
values and malformed or inconsistent data exit 2, numerical failures
(non-finite losses, failed gradient checks) exit 3.
"""


class UalError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(UalError, ValueError):
    """Dimension or shape mismatch. Nothing broadcasts silently here."""


class DataError(UalError, ValueError):
    """Malformed input file, bad label, schema/hash mismatch."""


class ConfigError(DataError):
    """Invalid or unknown configuration key/value."""


class NumericError(UalError, ArithmeticError):
    """Non-finite value where a finite one is required."""
