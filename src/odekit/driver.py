"""The method table ``METHODS``, read by every dispatch on a method name,
plus the convergence-study harness shared by the CLI and the test suite."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import multistep as ms
from . import steppers as st
from .adaptive import ode12_solve
from .core import IvpProblem, RunStats, Trajectory, build_grid, error_at_end, march
from .errors import MissingExactError
from .linalg import polyval

ONE_STEP, MULTISTEP, ADAPTIVE = "one-step", "multistep", "adaptive"


@dataclass(frozen=True)
class Method:
    """A row of ``METHODS``.  ``family`` is how ``integrate`` marches the
    method: ONE_STEP by ``steppers.make_stepper``, MULTISTEP by
    ``multistep_march`` of ``model()``, ADAPTIVE as ode12.  ``model()`` builds
    the stability model ``kind`` names: an R(z) for "onestep", a fresh
    MultistepMethod (mutable, so never shared) for "multistep"."""

    family: str
    kind: str
    model: Callable


def _one_step(fn, arg, family: str = ONE_STEP) -> Method:
    """A row with R(z) = fn(arg, z)."""
    return Method(family, "onestep", lambda: partial(fn, arg))


def _lmm(family: str, make, *args) -> Method:
    """A row whose stability model is ``make(*args)``."""
    return Method(family, "multistep", partial(make, *args))


METHODS = {
    **{name: _one_step(st.rk_stability_value, tableau) for name, tableau in st.TABLEAUS.items()},
    # Taylor steps have no tableau: R(z) is their truncated exponential series.
    "taylor2": _one_step(polyval, (0.5, 1.0, 1.0)),
    "taylor3": _one_step(polyval, (1.0 / 6.0, 0.5, 1.0, 1.0)),
    # a stepper on the march, the two-step formula it is in the analysis
    "leapfrog": _lmm(ONE_STEP, ms.leapfrog_method),
    **{f"ab{q}": _lmm(MULTISTEP, ms.ab_method, q) for q in range(1, 5)},
    **{f"am{q}": _lmm(MULTISTEP, ms.am_method, q) for q in range(4)},
    **{f"bdf{q}": _lmm(MULTISTEP, ms.bdf_coefficients, q) for q in range(1, 7)},
    # every accepted ode12 step is a midpoint step; R(z) ignores the controller
    "ode12": _one_step(st.rk_stability_value, st.MIDPOINT, ADAPTIVE),
}


def lookup(name: str) -> Method:
    """The ``METHODS`` row of ``name``, or the one-step row of
    ``theta:<v>``; any other name raises ValueError."""
    tableau = st.theta_by_name(name)
    if tableau is not None:
        return _one_step(st.rk_stability_value, tableau)
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    return METHODS[name]


def _no_options(method: str, family, options) -> None:
    """TypeError naming ``options`` unless ``family`` is MULTISTEP, the one
    family that takes any."""
    if options and family != MULTISTEP:
        raise TypeError(f"method {method!r} takes no options; got {', '.join(sorted(options))}")


def integrate(problem: IvpProblem, method: str, h: float | None = None,
              tol: float | None = None, **multistep_kw) -> Trajectory:
    """Run ``method`` (any CLI name) on ``problem``.

    Fixed-step methods take ``h`` alone, the adaptive pair ``tol`` alone.
    Implicit solves run Newton when the problem has a Jacobian, else
    fixed-point iteration.  Multistep extras (bootstrap, predictor,
    corrections) pass through; any other method rejects them.
    """
    row = lookup(method)
    _no_options(method, row.family, multistep_kw)
    if row.family == ADAPTIVE:
        if h is not None:
            raise ValueError(f"method {method!r} chooses its own steps; got h={h!r}")
        if tol is None:
            raise ValueError("ode12 needs a tolerance")
        return ode12_solve(problem, tol)
    if tol is not None:
        raise ValueError(f"method {method!r} takes fixed steps, no tolerance; got tol={tol!r}")
    if h is None:
        raise ValueError(f"method {method!r} needs a step size h")
    if row.family == MULTISTEP:
        return ms.multistep_march(problem, row.model(), h, **multistep_kw)
    return march(problem, method, h)


def exact_trajectory(problem: IvpProblem, h: float) -> Trajectory:
    """Sample the problem's exact solution on the uniform grid."""
    grid, _ = build_grid(problem.t0, problem.t_end, h)
    states = np.array([problem.exact_at(t) for t in grid])
    return Trajectory(np.array(grid), states, RunStats())


@dataclass
class StudyRow:
    h: float
    y_end: np.ndarray
    abs_err: float
    rel_err: float
    order: float | None  # None on the first row or after an exact/zero error


def run_study(problem: IvpProblem, method: str, h_list, **kw) -> list[StudyRow]:
    """Solve at each h (sorted decreasing) and log errors and observed orders.

    order_i = log(e_i / e_{i+1}) / log(h_i / h_{i+1}), which reduces to
    log2(e_i/e_{i+1}) on halving grids.
    """
    _no_options(method, None if method == "exact" else lookup(method).family, kw)
    if problem.exact is None:
        raise MissingExactError("convergence studies need an exact solution")
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    rows: list[StudyRow] = []
    for h in hs:
        if method == "exact":
            traj = exact_trajectory(problem, h)
        else:
            traj = integrate(problem, method, h=h, **kw)
        abs_err, rel_err = error_at_end(traj, problem)
        order = None
        if rows:
            prev = rows[-1]
            if prev.abs_err > 0 and abs_err > 0:
                order = math.log(prev.abs_err / abs_err) / math.log(prev.h / h)
        rows.append(StudyRow(h, traj.final_state.copy(), abs_err, rel_err, order))
    return rows


def stability_function(name: str):
    """R(z) for a named one-step method, or None for a method whose
    stability model is a multistep formula (see ``stability_object``).

    The callable takes a scalar z or a numpy array of z.
    """
    row = lookup(name)
    return row.model() if row.kind == "onestep" else None


def stability_object(name: str):
    """("onestep", R) or ("multistep", MultistepMethod) for a CLI name."""
    r = stability_function(name)
    if r is not None:
        return "onestep", r
    row = lookup(name)
    return row.kind, row.model()
