"""Exception types shared across the package."""


class SubgradLabError(Exception):
    """Base class for errors raised by this package."""


class AlphaOutOfRange(SubgradLabError, ValueError):
    """Seed value of the step-size sequence is below 1."""


class EmptySchedule(SubgradLabError, ValueError):
    """A step-size list was empty where at least one step is required."""


class ScheduleExhausted(SubgradLabError, ValueError):
    """A custom step schedule is shorter than the requested horizon."""


class StepOutOfRange(SubgradLabError, ValueError):
    """A step size or step length lies outside its admissible range."""


class StepTooSmall(SubgradLabError, ValueError):
    """A step size falls in the short-step regime where the long-step
    construction is undefined."""


class ScriptedPieceInactive(SubgradLabError, RuntimeError):
    """A scripted subgradient choice referenced a piece that is not active
    at the queried point."""


class MonotonicityViolation(SubgradLabError, ValueError):
    """A certificate weight sequence is not positive and non-decreasing."""


class IncompatibleLength(SubgradLabError, ValueError):
    """Two sequences that must share a common horizon have different lengths."""


class InfeasibleReference(SubgradLabError, ValueError):
    """A point that must lie in the feasible set does not."""


class OptimizationFailed(SubgradLabError, RuntimeError):
    """A one-dimensional search did not bracket an interior minimum."""


class InvariantViolation(SubgradLabError, RuntimeError):
    """An identity that a formula or construction guarantees failed to hold
    numerically; it signals a bug, not bad input."""
