"""Exception types shared across the benchmark engine, and the finite-number
check that every parameter group applies to its float fields."""

import math


class OcbError(Exception):
    """Base class for all benchmark errors."""


class ParameterError(OcbError):
    """A parameter set violates its invariants (config error, exit code 2)."""


def require_finite(**values: float) -> None:
    """Raise ParameterError for the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be a finite number (got {value})")


class FormatError(OcbError):
    """A database or report file is malformed or has the wrong version."""


class PlacementError(OcbError):
    """An object placement is invalid (page overflow, oversized object)."""


class RunError(OcbError):
    """The experiment protocol cannot run (e.g. empty database)."""


class ComparisonError(OcbError):
    """Two reports cannot be compared (workload fingerprints differ)."""
