"""Exception types shared across the toolkit, and the one rule for numbers.

Everything raised on purpose derives from :class:`KernelEpError` so the CLI
can map domain failures to a single exit code.  Every numeric setting passes
`integer` or `real`, whose DomainError names it; a bool is neither.
"""

from numbers import Integral, Real
from sys import float_info


class KernelEpError(Exception):
    """Base class for all toolkit errors."""


class DomainError(KernelEpError, ValueError):
    """Invalid value for an operation (improper distribution, bad moments, ...)."""


class DegenerateMomentsError(DomainError):
    """Moment vector implies non-positive variance."""


class DegenerateSampleError(DomainError):
    """Importance sampling collapsed: effective sample size below the floor."""

    def __init__(self, message: str, ess: float):
        super().__init__(message)
        self.ess = ess


class GenerationError(KernelEpError):
    """Training-set generation exhausted its resample budget."""


class QuadratureError(KernelEpError):
    """Quadrature failed its order-doubling convergence check."""


class PredictionError(KernelEpError):
    """Operator produced a non-finite prediction."""


class EpSourceError(KernelEpError):
    """A message source failed inside the EP loop; carries the edge identity."""

    def __init__(self, message: str, factor_id: str, variable_id: str):
        super().__init__(message)
        self.factor_id = factor_id
        self.variable_id = variable_id


class DatasetFormatError(KernelEpError):
    """Dataset file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ModelFormatError(KernelEpError):
    """Model file is corrupt, truncated, or has an unsupported version."""


class GraphFormatError(KernelEpError):
    """Graph file failed to parse or describes an invalid structure."""


class ConfigError(KernelEpError):
    """Run configuration is malformed or holds out-of-range values."""


def integer(name: str, value, low: int) -> int:
    """value as an int: an Integral, not a bool, and at least low."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """value as a float: a finite Real (not an int past the float range), not a bool."""
    if isinstance(value, bool) or not (isinstance(value, Real) and abs(value) <= float_info.max):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return float(value)
