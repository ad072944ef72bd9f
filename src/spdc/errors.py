"""Exception types shared across the package."""


class DataError(ValueError):
    """Malformed or invalid input data (parse errors carry the line number)."""


class ScheduleError(ValueError):
    """A plan outside its step-size rule's limits: a probability cap, a batch limit,
    steps not positive and finite, or Corollary 17's norm spread (naming the instance)."""


class ZeroViolations(Exception):
    """All optimality violations are exactly zero.

    Raised by the violation-weighted plan builders.  Callers either fall back
    to uniform sampling or treat the current iterate as optimal.
    """


class ConfigError(ValueError):
    """Invalid run configuration (unknown algorithm, bad flag combination)."""


class NumericalFailure(RuntimeError):
    """Non-finite values or cache drift detected during a solver run."""
