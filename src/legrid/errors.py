"""Exception types shared across the toolkit."""


class LegridError(Exception):
    """Base class for every domain error raised by this package."""


class NotAPermutation(LegridError):
    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which  # "x" or "o" when known


class SharedCell(LegridError):
    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class SizeMismatch(LegridError):
    pass


class UnknownComponent(LegridError):
    pass


class SameComponent(LegridError):
    pass


class OracleMismatch(LegridError):
    """The two tb routes disagree. Signals a convention bug, never
    expected on valid input."""


class ParityViolation(LegridError):
    """A signed crossing count that closed curves force to be even came
    out odd.  Signals a bookkeeping bug, never expected on valid input."""


class TripleDrift(LegridError):
    """The simulator's relative triple moved.  Signals a bookkeeping bug,
    never expected on valid input."""


class InterleavingSpans(LegridError):
    pass


class BadCell(LegridError):
    pass


class LengthMismatch(LegridError):
    pass


class BaseMismatch(LegridError):
    pass


class InconsistentProfile(LegridError):
    pass


class MultipleSingularClasps(LegridError):
    pass


class ParseError(LegridError):
    """Input text could not be parsed; carries a 1-based position."""

    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ScriptStepError(LegridError):
    """A move or event script failed at a specific step."""

    def __init__(self, index, cause):
        super().__init__(f"step {index}: {cause}")
        self.index = index
        self.cause = cause
