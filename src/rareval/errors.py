"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
data and format problems exit 1.
"""

from __future__ import annotations


class RarevalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RarevalError):
    """A malformed input line (wrong field count, bad number, ...)."""

    def __init__(self, message: str, *, source: str, line: int):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class FormatError(RarevalError):
    """Structurally invalid data (mixed run tags, duplicate entries, ...)."""


class DataError(RarevalError):
    """A semantically invalid request on otherwise well-formed data."""


class ConfigError(RarevalError):
    """An invalid configuration value or combination."""


class UndefinedRarityError(DataError):
    """Rarity was requested for a document no counted system retrieved."""
