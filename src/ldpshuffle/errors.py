"""Exception types shared across the package, and how their messages
quote a value read from an input."""


def quote(text):
    """text, or its first 40 characters and "..." if it is longer, so that
    a message stays short whatever an input held."""
    return text if len(text) <= 40 else text[:40] + "..."


class InvalidParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class OutOfRegimeError(InvalidParameterError):
    """Inputs violate the hypotheses a closed-form bound needs; no silent extrapolation."""


class MalformedReportError(InvalidParameterError):
    """A report's (level, timestep) pair does not address a valid tree node."""


class ParseError(InvalidParameterError):
    """A serialized input file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
