"""Name-based dispatch over every shipped integrator, plus the
convergence-study harness shared by the CLI and the test suite."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multistep as ms
from . import steppers as st
from .adaptive import AdaptiveConfig, ode12_solve
from .core import IvpProblem, RunStats, Trajectory, error_at_end, march
from .errors import MissingExactError
from .linalg import polyval

ALL_METHOD_NAMES = st.ONE_STEP_NAMES + ms.MULTISTEP_NAMES + ("ode12",)


def is_known_method(name: str) -> bool:
    return name in ALL_METHOD_NAMES or name.startswith("theta:")


def integrate(problem: IvpProblem, method: str, h: float | None = None,
              tol: float | None = None, cfg=None, **multistep_kw) -> Trajectory:
    """Run ``method`` (any CLI name) on ``problem``.

    Fixed-step methods need ``h``; the adaptive pair needs ``tol``.
    Multistep extras (bootstrap, predictor, corrections) pass through.
    """
    if method == "ode12":
        if tol is None:
            raise ValueError("ode12 needs a tolerance")
        return ode12_solve(problem, AdaptiveConfig(tol=tol))
    if h is None:
        raise ValueError(f"method {method!r} needs a step size h")
    if method in ms.MULTISTEP_NAMES:
        return ms.multistep_march(problem, ms.multistep_by_name(method), h,
                                  cfg=cfg, **multistep_kw)
    return march(problem, method, h, cfg=cfg)


def exact_trajectory(problem: IvpProblem, h: float) -> Trajectory:
    """Sample the problem's exact solution on the uniform grid."""
    from .core import build_grid

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


def run_study(problem: IvpProblem, method: str, h_list, cfg=None, **kw) -> list[StudyRow]:
    """Solve at each h (sorted decreasing) and log errors and observed orders.

    order_i = log(e_i / e_{i+1}) / log(h_i / h_{i+1}), which reduces to
    log2(e_i/e_{i+1}) on halving grids.
    """
    if problem.exact is None:
        raise MissingExactError("convergence studies need an exact solution")
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    rows: list[StudyRow] = []
    for h in hs:
        if method == "exact":
            traj = exact_trajectory(problem, h)
        else:
            traj = integrate(problem, method, h=h, cfg=cfg, **kw)
        abs_err, rel_err = error_at_end(traj, problem)
        order = None
        if rows:
            prev = rows[-1]
            if prev.abs_err > 0 and abs_err > 0:
                order = math.log(prev.abs_err / abs_err) / math.log(prev.h / h)
        rows.append(StudyRow(h, traj.final_state.copy(), abs_err, rel_err, order))
    return rows


# Taylor steps have no tableau: R(z) is their truncated exponential series.
_TAYLOR_POLYNOMIALS = {"taylor2": (0.5, 1.0, 1.0), "taylor3": (1.0 / 6.0, 0.5, 1.0, 1.0)}


def stability_function(name: str):
    """R(z) for a named one-step method, or None when only a multistep
    root-condition view exists.

    The callable takes a scalar z or a numpy array of z.
    """
    if name in _TAYLOR_POLYNOMIALS:
        coeffs = _TAYLOR_POLYNOMIALS[name]
        return lambda z: polyval(coeffs, z)
    if name.startswith("theta:"):
        tab = st.theta_tableau(float(name.split(":", 1)[1]))
    elif name in st.TABLEAUS:
        tab = st.TABLEAUS[name]
    else:
        return None
    return lambda z: st.rk_stability_value(tab, z)


def stability_object(name: str):
    """("onestep", R) or ("multistep", MultistepMethod) for a CLI name."""
    r = stability_function(name)
    if r is not None:
        return "onestep", r
    if name in ms.MULTISTEP_NAMES or name == "leapfrog":
        return "multistep", ms.multistep_by_name(name)
    raise ValueError(f"no stability model for method {name!r}")
