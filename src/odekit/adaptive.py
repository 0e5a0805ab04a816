"""Embedded Euler/RK2 adaptive integrator with the elementary step-size law.

Per attempted step, with f1 = f(t, y) and f2 = f(t + h/2, y + (h/2) f1):

* error estimate  e = ||h (f2 - f1)||_inf
* accept when e < tol, advancing with the second-order value y + h f2 and
  resetting h to tol^(1/3)
* otherwise retry with h <- 0.8 h (tol/e)^(1/2)

``tol`` is the only setting.  A step below H_MIN raises StepUnderflowError
and MAX_REJECTS + 1 rejections in a row raise RejectCapError.  The last
step lands exactly on t_end, as does a step leaving less than H_MIN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CountingRhs, IvpProblem, RunStats, Trajectory, _check_state, _finish
from .errors import RejectCapError, StepUnderflowError
from .linalg import vec_norm_inf

H_MIN = 1e-12
MAX_REJECTS = 50


@dataclass
class StepRecord:
    """One attempted step: start time, step size, estimate, verdict."""

    t: float
    h: float
    e: float
    accepted: bool


def step_size_update(h: float, e: float, tol: float) -> float:
    """0.8 * h * (tol/e)^(1/2); callers handle e = 0 by accepting."""
    if not (h > 0 and e > 0):
        raise ValueError("h and e must be positive")
    return 0.8 * h * (tol / e) ** 0.5


def ode12_solve(problem: IvpProblem, tol: float) -> Trajectory:
    """Integrate with the adaptive Euler/RK2 pair; logs every attempt.

    The returned trajectory's ``step_log`` holds a StepRecord per attempt
    (two rhs evaluations each, so rhs_evals = 2 * len(step_log)).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    stats = RunStats()
    f = CountingRhs(problem.rhs, problem.dim, stats)
    t = problem.t0
    y = problem.y0.copy()
    times = [t]
    states = [y.copy()]
    log: list[StepRecord] = []
    h_init = h = tol ** (1.0 / 3.0)
    rejects_in_a_row = 0

    while t < problem.t_end:
        h_eff = min(h, problem.t_end - t)
        if h_eff < H_MIN:
            raise StepUnderflowError(f"step size {h_eff:.3e} fell below h_min")
        f1 = f(t, y)
        f2 = f(t + h_eff / 2.0, y + (h_eff / 2.0) * f1)
        e = vec_norm_inf(h_eff * (f2 - f1))
        t_new = t + h_eff
        if h_eff == problem.t_end - t or problem.t_end - t_new < H_MIN:
            t_new = problem.t_end  # the clamped last step, or one leaving a sliver
        if e < tol:
            log.append(StepRecord(t, h_eff, e, True))
            y = y + h_eff * f2
            times.append(t_new)
            states.append(y)
            _check_state(y, len(states) - 1, times, states, stats, log)
            t = t_new
            h = h_init
            rejects_in_a_row = 0
        else:
            log.append(StepRecord(t, h_eff, e, False))
            stats.rejected_steps += 1
            if not e < math.inf:
                # no step size can be judged on a non-finite estimate: the run
                # stops as on a non-finite state at the attempted step's end
                times.append(t_new)
                states.append(math.nan)
                _check_state(math.nan, len(states) - 1, times, states, stats, log)
            rejects_in_a_row += 1
            if rejects_in_a_row > MAX_REJECTS:
                raise RejectCapError(
                    f"{rejects_in_a_row} consecutive rejections at t={t:.6g}"
                )
            # an h below H_MIN raises at the loop top, where H_MIN or more remains
            h = step_size_update(h_eff, e, tol)
    return _finish(times, states, stats, log)
