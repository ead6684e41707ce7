"""Exception types shared across the toolkit, and the check of a
+1/-1 sign that the invariants and the simulator share."""


class LegridError(Exception):
    """Base class for every domain error raised by this package."""


class _MarkerListError(LegridError):
    """A fault of the grid's size or of one of its marker lists."""

    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which  # "x" or "o" when a marker list is at fault


class NotAPermutation(_MarkerListError):
    pass


class SharedCell(LegridError):
    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class SizeMismatch(_MarkerListError):
    pass


class UnknownComponent(LegridError):
    pass


class SameComponent(LegridError):
    pass


class _InvariantError(LegridError):
    """An invariant check that valid input never fails.  Raised while a
    move script is traced, it names the step and the component's index
    in that step's grid; elsewhere both are None."""

    def __init__(self, message, step=None, component=None):
        super().__init__(message)
        self.step = step
        self.component = component


class OracleMismatch(_InvariantError):
    """The two tb routes disagree.  Both read the same NW_SE reading
    grid, so this signals a bug in the front reader or in the push-off
    count, never expected on valid input."""


class ParityViolation(_InvariantError):
    """A signed crossing count that closed curves force to be even came
    out odd, or two that they force to be equal differ.  Signals a
    bookkeeping bug, never expected on valid input."""


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


def _check_sign(sign, field):
    # floats and bools compare equal to ints, so the type is checked
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"{field} must be +1 or -1, got {sign!r}")
