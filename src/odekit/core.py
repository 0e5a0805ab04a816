"""Problem model, trajectories, and the fixed-grid time-marching driver."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, MissingExactError, NonFiniteError, SampleCapError
from .linalg import vec_norm_inf

# A state is declared diverged once its inf-norm crosses this threshold; the
# run itself is only cut short when values become non-finite or cross the
# overflow guard, so genuinely explosive runs still report their final size.
DIVERGENCE_THRESHOLD = 1e12
OVERFLOW_GUARD = 1e200
# A state whose sum of squares is below this has every |y_i| below
# DIVERGENCE_THRESHOLD, with ample room for the sum's rounding.
_QUIET_SUM_OF_SQUARES = DIVERGENCE_THRESHOLD ** 2 / 10
# The most samples a grid, raster, locus or recurrence may hold.  It bounds a
# count, not memory: a multistep raster holds ~1.1 KB per cell while it is
# evaluated (bdf6 at 100 x 100 peaks at 11.1 MB), ~11 GB at the cap.
MAX_SAMPLES = 10_000_000


@dataclass
class RunStats:
    """Counters populated while a solver runs."""

    rhs_evals: int = 0
    implicit_iters: int = 0
    jac_evals: int = 0
    lu_factorizations: int = 0
    rejected_steps: int = 0
    diverged: bool = False
    divergence_time: Optional[float] = None


@dataclass
class IvpProblem:
    """An initial value problem y' = f(t, y), y(t0) = y0 on [t0, t_end].

    ``rhs`` maps (t, y) to a length-``dim`` vector.  It must be a pure
    function of (t, y) and must not modify y in place: a march returns its
    last value again at a repeated call (see ``CountingRhs``).  Optional
    extras: ``jacobian`` (t, y) -> dim x dim matrix, ``taylor_d2``/
    ``taylor_d3`` total time derivatives y'' and y''' for Taylor-series
    stepping, and ``exact`` (t) -> vector for error measurement.

    ``jacobian_constant=True`` promises that ``jacobian`` returns the same
    matrix for every (t, y), as on a linear problem with a constant
    coefficient matrix.  A march's Newton solves then evaluate it once per
    step size and implicit stage, not on every iteration.
    """

    name: str
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    t_end: float
    y0: np.ndarray
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    taylor_d2: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    taylor_d3: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    exact: Optional[Callable[[float], np.ndarray]] = None
    meta: dict = field(default_factory=dict)
    jacobian_constant: bool = False

    def __post_init__(self):
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.y0) != self.dim:
            raise ValueError("y0 length must equal dim")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("t0 and t_end must be finite")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if self.jacobian_constant and self.jacobian is None:
            raise ValueError("jacobian_constant needs a jacobian")
        if self.exact is not None:
            mismatch = vec_norm_inf(self.exact_at(self.t0) - self.y0)
            if mismatch > 1e-12:
                raise ValueError(f"exact(t0) disagrees with y0 by {mismatch:.3e}")

    def exact_at(self, t: float) -> np.ndarray:
        if self.exact is None:
            raise MissingExactError(f"problem {self.name!r} has no exact solution")
        return np.atleast_1d(np.asarray(self.exact(t), dtype=float))


@dataclass
class Trajectory:
    """Ordered (t_k, y_k) samples from one solver run, plus its statistics."""

    times: np.ndarray
    states: np.ndarray
    stats: RunStats
    step_log: Optional[list] = None

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


class CountingRhs:
    """Wraps a right-hand side, counting evaluations and checking shape.
    First same as last: a call at the last evaluation's t (``==``) with the
    very array it was given returns that evaluation's value, uncounted."""

    def __init__(self, rhs, dim: int, stats: RunStats):
        self._rhs = rhs
        self._shape = (dim,)
        self._stats = stats
        self._t = self._y = self._f = None  # the last evaluation

    def __call__(self, t, y):
        if y is self._y and t == self._t:
            return self._f
        self._stats.rhs_evals += 1
        out = np.asarray(self._rhs(t, y), dtype=float)
        if out.shape != self._shape:
            out = as_state(out, self._shape, "rhs")
        self._t, self._y, self._f = t, y, out
        return out


def as_state(out: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """``out``, the value of the user callback ``what``, as a state of
    ``shape``; a scalar is accepted as the whole state of a one-dimensional
    problem, any other shape is rejected."""
    if out.shape == shape:
        return out
    if out.shape != () or shape != (1,):
        raise ValueError(f"{what} returned shape {out.shape}; expected {shape}")
    return out.reshape(1)


def check_sample_cap(what: str, *sizes: int) -> None:
    """Raise SampleCapError, before anything is allocated, when ``what``
    would hold more than MAX_SAMPLES samples (the product of ``sizes``)."""
    if math.prod(sizes) > MAX_SAMPLES:
        shape = " x ".join(map(str, sizes))
        raise SampleCapError(f"{what} would hold {shape} samples (cap {MAX_SAMPLES})")


def build_grid(t0: float, t_end: float, h: float):
    """Uniform grid t0 + k*h covering [t0, t_end].

    Returns (times, n_full) where times[k] = t0 + k*h exactly for
    k <= n_full, followed (when h does not divide the span) by one final
    shortened node at t_end.  The samples are counted before any is made:
    a grid of more than MAX_SAMPLES, or one whose span / h overflows,
    raises SampleCapError.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    span = t_end - t0
    if h > span * (1 + 1e-12):
        raise ValueError("h exceeds the integration interval")
    ratio = span / h
    if not ratio < math.inf:
        raise SampleCapError(f"grid would hold more than {MAX_SAMPLES} samples "
                             f"(span / h = {ratio})")
    n = int(round(ratio))
    exact = n >= 1 and abs(ratio - n) <= 4 * np.finfo(float).eps * max(1.0, ratio)
    n_full = n if exact else int(np.floor(ratio))
    # the last node is t_end, which an inexact grid adds after t0 + n_full h
    count = n_full + 1 if exact else n_full + 1 + (t0 + n_full * h < t_end)
    if count > MAX_SAMPLES:
        raise SampleCapError(f"grid would hold {float(count):.15g} samples (cap {MAX_SAMPLES})")
    if exact:
        return [t0 + k * h for k in range(n_full)] + [t_end], n_full
    times = [t0 + k * h for k in range(n_full + 1)]
    if times[-1] < t_end:
        times.append(t_end)
    return times, n_full


def _check_state(y, k, times, states, stats, step_log=None):
    """Divergence bookkeeping shared by every march, for ``y``, the state
    just stored as ``states[k]`` at ``times[k]`` (or a bare NaN).

    The first state past DIVERGENCE_THRESHOLD, or the first non-finite one,
    flags the run as diverged.  A non-finite state stops the run with the k
    states before it, a state past OVERFLOW_GUARD with the k + 1 up to and
    including it: DivergenceError carries that partial trajectory.

    Only the exact reduction max |y_i| gives a verdict.  A state whose sum
    of squares is below _QUIET_SUM_OF_SQUARES (1e23) returns before it; a
    NaN or inf sum (a NaN, an inf or an overflowing square) fails that
    test.  ``np.vdot`` forms the sum without the overflow warning
    ``ndarray.dot`` gives.
    """
    if isinstance(y, np.ndarray) and np.vdot(y, y) < _QUIET_SUM_OF_SQUARES:
        return
    t = times[k]
    # NaN when the state holds a NaN, inf when it holds an inf
    size = float(np.abs(y).max())
    if not size < math.inf:
        stats.diverged = True
        if stats.divergence_time is None:
            stats.divergence_time = t
        raise DivergenceError(f"state became non-finite near t={t:.6g}",
                              _finish(times[:k], states[:k], stats, step_log))
    if size > DIVERGENCE_THRESHOLD and not stats.diverged:
        stats.diverged = True
        stats.divergence_time = t
    if size > OVERFLOW_GUARD:
        raise DivergenceError(f"state magnitude passed the overflow guard near t={t:.6g}",
                              _finish(times[:k + 1], states[:k + 1], stats, step_log))


def _finish(times, states, stats, step_log=None) -> Trajectory:
    return Trajectory(
        np.array(times, dtype=float), np.asarray(states, dtype=float), stats, step_log
    )


def march(problem: IvpProblem, stepper, h: float, strategy=None) -> Trajectory:
    """Drive a fixed-step method on the uniform grid t_k = t0 + k*h: the one
    fixed-grid loop, for one-step and multistep methods alike.

    ``stepper`` is a method name (see ``steppers.make_stepper``, which also
    takes ``strategy``) or a Stepper instance, such as a
    ``multistep.MultistepStepper``; its ``reset`` receives the grid and
    n_full before the first step.  When h does not divide t_end - t0 the
    last step is shortened to land exactly on t_end.  A run whose state grows past the divergence threshold is
    flagged; it is cut short (DivergenceError with the partial trajectory
    attached) only on non-finite values or past the overflow guard.
    """
    from . import steppers as _steppers

    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    if isinstance(stepper, str):
        stepper = _steppers.make_stepper(stepper, problem, strategy)
    stepper.reset(grid, n_full)

    stats = RunStats()
    f = CountingRhs(problem.rhs, problem.dim, stats)
    states = np.empty((len(grid), problem.dim))
    states[0] = y = problem.y0.copy()
    for k in range(1, len(grid)):
        t_prev = grid[k - 1]
        hk = h if k <= n_full else grid[k] - t_prev
        try:
            y = stepper.advance(f, t_prev, y, hk, stats)
        except NonFiniteError:
            y = math.nan  # stored as a non-finite state, which the check rejects
        states[k] = y
        _check_state(y, k, grid, states, stats)
    return _finish(grid, states, stats)


def error_at_end(traj: Trajectory, problem: IvpProblem):
    """Final-time absolute and relative error in the inf-norm."""
    exact = problem.exact_at(traj.final_time)
    abs_err = vec_norm_inf(traj.final_state - exact)
    denom = vec_norm_inf(exact)
    rel_err = abs_err if denom < 1e-300 else abs_err / denom
    return abs_err, rel_err
