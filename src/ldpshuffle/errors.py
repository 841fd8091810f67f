"""Exception types shared across the package."""


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
