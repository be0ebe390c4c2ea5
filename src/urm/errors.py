"""Exception types shared across the package."""

from __future__ import annotations

__all__ = (
    "URMError", "SourceError", "NotStandardForm", "PcOutOfRange", "Incompatible", "NotAbstractProgram", "UnsupportedAtom",
)


class URMError(Exception):
    """Base class for all errors raised by this package."""


class NotStandardForm(URMError):
    """A jump target exceeds the program length."""


class PcOutOfRange(URMError):
    """The program counter of a running state is outside [1..n]."""


class Incompatible(URMError):
    """A finite configuration is too short for the program's registers."""


class NotAbstractProgram(URMError):
    """The abstract decision procedure was given a non-jump instruction."""


class UnsupportedAtom(URMError):
    """A constraint falls outside the difference-bound fragment."""


class SourceError(URMError):
    """A parse error in one of the text formats, with 1-based position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
