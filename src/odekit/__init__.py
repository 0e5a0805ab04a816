"""odekit: classical ODE integrators, stability analysis, and benchmarks."""

from .adaptive import ode12_solve, step_size_update
from .core import IvpProblem, RunStats, Trajectory, error_at_end, march
from .driver import integrate, run_study
from .multistep import (
    MultistepMethod,
    ab_method,
    am_method,
    bdf_coefficients,
    consistency_report,
    multistep_march,
)
from .problems import get_problem, list_problems
from .stability import (
    DifferenceEquation,
    boundary_locus,
    classify_stability,
    is_abs_stable,
    raster_one_step,
    solve_difference_equation,
    stiffness_ratio,
)
from .steppers import ButcherTableau, rk_stability_value

__all__ = [
    "ButcherTableau",
    "DifferenceEquation",
    "IvpProblem",
    "MultistepMethod",
    "RunStats",
    "Trajectory",
    "ab_method",
    "am_method",
    "bdf_coefficients",
    "boundary_locus",
    "classify_stability",
    "consistency_report",
    "error_at_end",
    "get_problem",
    "integrate",
    "is_abs_stable",
    "list_problems",
    "march",
    "multistep_march",
    "ode12_solve",
    "raster_one_step",
    "rk_stability_value",
    "run_study",
    "solve_difference_equation",
    "step_size_update",
    "stiffness_ratio",
]

__version__ = "0.1.0"
