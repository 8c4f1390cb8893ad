"""Exception types shared across the benchmark engine."""


class OcbError(Exception):
    """Base class for all benchmark errors."""


class ParameterError(OcbError):
    """A parameter set violates its invariants (config error, exit code 2)."""


class FormatError(OcbError):
    """A database or report file is malformed or has the wrong version."""


class PlacementError(OcbError):
    """An object placement is invalid (page overflow, oversized object)."""


class RunError(OcbError):
    """The experiment protocol cannot run (e.g. empty database)."""


class ComparisonError(OcbError):
    """Two reports cannot be compared (workload fingerprints differ)."""
