"""A laboratory for last-iterate analysis of projected subgradient methods.

The package is organized around five pieces:

* :mod:`subgradlab.sequences` -- the step-size recursion s_{k+1} = s_k + 1/s_k
  and its exact identities and bracketing bounds,
* :mod:`subgradlab.rates` -- closed-form worst-case gap calculators for every
  step-size regime,
* :mod:`subgradlab.solver` -- the projected subgradient loop with pluggable
  step schedules,
* :mod:`subgradlab.worstcase` -- generators for instances that attain the
  rates exactly, and experiment cells: a method at (N, h) on its instance,
  built by ``cell_instance`` and measured by ``cell``,
* :mod:`subgradlab.certify` -- a numerical checker for the weighted
  telescoping inequality that drives the last-iterate bounds.

``subgradlab.cli`` only checks the flags of the ``subgradlab`` command and
formats its rows; the cells and certify's trials are library calls.
"""

from .certify import (
    LemmaCheck,
    WeightSequence,
    alpha_family_bound,
    coefficients,
    constant_step_weights,
    matching_alpha,
    optimal_step_weights,
    recursive_weights,
    trial_slacks,
    verify_lemma,
)
from .core import (
    PiecewiseLinearMax,
    PiecewiseOracle,
    ProblemInstance,
    SubgradientSample,
    check_instance,
    eval_plmax,
    instance_from_pieces,
    project_all,
    project_ball,
    project_box,
    scale_instance,
)
from .errors import (
    AlphaOutOfRange,
    EmptySchedule,
    IncompatibleLength,
    InfeasibleReference,
    InvariantViolation,
    MonotonicityViolation,
    OptimizationFailed,
    ScheduleExhausted,
    ScriptedPieceInactive,
    StepOutOfRange,
    StepTooSmall,
    SubgradLabError,
)
from .rates import (
    RateReport,
    classical_lower_bound,
    constant_length_rate,
    constant_step_rate,
    lower_bound,
    no_universal_step_certificate,
    optimal_constant_step,
    optimal_method_rate,
    two_step_worst_gap,
    weakened_rate_bounds,
)
from .sequences import iter_s, s, s_bounds, s_identity_check
from .solver import (
    RunTrace,
    StepSchedule,
    avg_gap,
    best_gap,
    best_iterate_bound,
    last_gap,
    run,
)
from .worstcase import (
    abs_instance,
    cell,
    cell_instance,
    long_step_instance,
    random_instance,
    tightness_report,
    two_step_schedule,
    two_step_worst_long,
    two_step_worst_small,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "EmptySchedule",
    "IncompatibleLength",
    "InfeasibleReference",
    "InvariantViolation",
    "LemmaCheck",
    "MonotonicityViolation",
    "OptimizationFailed",
    "PiecewiseLinearMax",
    "PiecewiseOracle",
    "ProblemInstance",
    "RateReport",
    "RunTrace",
    "ScheduleExhausted",
    "ScriptedPieceInactive",
    "StepOutOfRange",
    "StepSchedule",
    "StepTooSmall",
    "SubgradLabError",
    "SubgradientSample",
    "WeightSequence",
    "abs_instance",
    "alpha_family_bound",
    "avg_gap",
    "best_gap",
    "best_iterate_bound",
    "cell",
    "cell_instance",
    "check_instance",
    "classical_lower_bound",
    "coefficients",
    "constant_length_rate",
    "constant_step_rate",
    "constant_step_weights",
    "eval_plmax",
    "instance_from_pieces",
    "iter_s",
    "last_gap",
    "long_step_instance",
    "lower_bound",
    "matching_alpha",
    "no_universal_step_certificate",
    "optimal_constant_step",
    "optimal_method_rate",
    "optimal_step_weights",
    "project_all",
    "project_ball",
    "project_box",
    "random_instance",
    "recursive_weights",
    "run",
    "s",
    "s_bounds",
    "s_identity_check",
    "scale_instance",
    "tightness_report",
    "trial_slacks",
    "two_step_schedule",
    "two_step_worst_gap",
    "two_step_worst_long",
    "two_step_worst_small",
    "verify_lemma",
    "weakened_rate_bounds",
]
