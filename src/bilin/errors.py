"""Exception types shared across the toolkit.

Most inherit from ValueError so callers that only care about "bad input"
can catch the builtin; the subclasses exist so the CLI can map failures
to distinct exit codes and tests can assert the precise failure mode.
"""


class ShapeError(ValueError):
    """Array dimensions are inconsistent with the operation's contract."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class FormatError(ValueError):
    """A binary file fails header validation (bad magic, version, flags)."""


class CorruptFileError(FormatError):
    """Payload length disagrees with the header (truncated or oversized)."""


class BoundsError(FormatError):
    """Declared dimensions exceed the format's limits."""


class ModelValueError(FormatError):
    """Gallery model values are non-finite, or a rescale_a is not positive."""


class MetadataError(ValueError):
    """Dataset metadata violates the split schema."""


class ProtocolError(ValueError):
    """An evaluation precondition fails (no mated probes, no impostors, ...)."""


class ConfigError(ValueError):
    """A configuration value is invalid or infeasible."""


class DataError(ValueError):
    """Training data violates a precondition (empty class, label range, ...)."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class DegenerateModelError(ArithmeticError):
    """A trained classifier cannot satisfy the median rescaling contract."""
