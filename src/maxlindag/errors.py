"""Exception hierarchy.

Errors split into two families so the CLI can map them onto distinct exit
codes: structurally bad input (``ValidationError`` and friends) versus
mathematically impossible requests (``NotRealizableError`` and friends).
"""


class MaxlinError(Exception):
    """Base class for all library errors."""


class ValidationError(MaxlinError, ValueError):
    """Input violates a structural precondition (shape, range, type)."""


class CycleError(ValidationError):
    """Edge set contains a directed cycle."""


class FormatError(ValidationError):
    """A model or matrix file could not be parsed."""


class EnumerationCapError(ValidationError):
    """Dimension exceeds the configured enumeration cap."""


class TailSampleError(ValidationError):
    """Too few tail exceedances for a stable estimate."""


class PatternMismatchError(MaxlinError):
    """Zero pattern of the tail dependence matrix contradicts the graph."""


class NotRealizableError(MaxlinError):
    """No model with the requested structure can produce these values."""


class IllConditionedError(MaxlinError):
    """A value cannot be told apart from zero, or does not fit in float64."""
