import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

import odekit as ok
from odekit import driver
from odekit import steppers as sp
from odekit.errors import TableauInvariantError
from odekit.multistep import MultistepMethod


# Method names in table order: those that march as multistep formulas, those
# whose stability model is one (the same and leapfrog), and the one-step ones.
MULTISTEP_NAMES = tuple(n for n, row in driver.METHODS.items() if row.family == driver.MULTISTEP)
LMM_MODEL_NAMES = tuple(n for n, row in driver.METHODS.items() if row.kind == "multistep")
ONE_STEP_NAMES = tuple(n for n, row in driver.METHODS.items() if row.family == driver.ONE_STEP)


def lmm(name: str) -> MultistepMethod:
    """A fresh MultistepMethod for a table name."""
    return driver.lookup(name).model()


def trajectory_max_error(traj, problem):
    """Largest inf-norm error over every sample of a trajectory."""
    return max(
        float(np.max(np.abs(traj.states[k] - problem.exact_at(traj.times[k]))))
        for k in range(len(traj.times))
    )


def inverse_t(c):
    """y' = c/t, 0 at t = 0: f1 = 0 and f2 = 2c/h, so ode12's estimate is
    2c on every attempt from t = 0, whatever the step size."""
    return ok.IvpProblem(name="inverse_t", dim=1,
                         rhs=lambda t, y: np.array([c / t if t else 0.0]),
                         t0=0.0, t_end=1.0, y0=np.zeros(1))


def halving_orders(errors):
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


# Reference rationals for the generated BDF coefficients.  Each alpha row
# must sum to 1; for q=4 that forces the middle weight -36/25.
BDF_TABLE = {
    1: ([F(1)], F(1)),
    2: ([F(4, 3), F(-1, 3)], F(2, 3)),
    3: ([F(18, 11), F(-9, 11), F(2, 11)], F(6, 11)),
    4: ([F(48, 25), F(-36, 25), F(16, 25), F(-3, 25)], F(12, 25)),
    5: ([F(300, 137), F(-300, 137), F(200, 137), F(-75, 137), F(12, 137)], F(60, 137)),
    6: ([F(360, 147), F(-450, 147), F(400, 147), F(-225, 147), F(72, 147), F(-10, 147)], F(60, 147)),
}


def bdf_table_method(q: int) -> MultistepMethod:
    """The q-step BDF method built from the hardcoded reference rationals."""
    alphas, beta = BDF_TABLE[q]
    a = [float(x) for x in alphas]
    b = [float(beta)] + [0.0] * q
    return MultistepMethod("BDF", f"bdf{q}", a, b, q)


def without_jacobian(problem):
    """``problem`` without its Jacobian, on which every implicit solve runs
    fixed-point iteration: with a Jacobian it runs Newton."""
    return dataclasses.replace(problem, jacobian=None, jacobian_constant=False)


# One-step formulas: one-line calls of the stage engine ``rk_step``, named
# after the methods the tests check.


def explicit_euler_step(f, t, y, h):
    """y + h f(t, y); exactly one rhs evaluation."""
    return sp.rk_step(sp.EULER, f, t, y, h)


def explicit_rk_step(tableau: sp.ButcherTableau, f, t, y, h):
    """Step of an explicit tableau; stage sums accumulate left to right."""
    if tableau.kind != sp.EXPLICIT:
        raise TableauInvariantError("explicit_rk_step needs an explicit tableau")
    return sp.rk_step(tableau, f, t, y, h)


def heun_step(f, t, y, h):
    """Average of the endpoint slopes, the Euler value predicting the right one."""
    return sp.rk_step(sp.HEUN, f, t, y, h)


def midpoint_rk2_step(f, t, y, h):
    """Single slope taken at the Euler-predicted midpoint."""
    return sp.rk_step(sp.MIDPOINT, f, t, y, h)


def rk4_step(f, t, y, h):
    """The classical four-stage fourth-order scheme."""
    return sp.rk_step(sp.RK4, f, t, y, h)


def implicit_euler_step(f, t_next, y, h, jacobian=None, stats=None):
    """Solve y_next = y + h f(t_next, y_next)."""
    return sp.rk_step(sp.IMPLICIT_EULER_TABLEAU, f, t_next - h, y, h, jacobian, stats)


def trapezoidal_step(f, t, y, h, jacobian=None, stats=None):
    """Solve y_next = y + (h/2)[f(t, y) + f(t+h, y_next)]."""
    return sp.rk_step(sp.TRAPEZOIDAL_TABLEAU, f, t, y, h, jacobian, stats)


def theta_step(f, t, y, h, theta, jacobian=None, stats=None):
    """Weighted endpoint scheme: Euler at 0, trapezoidal at 1/2, implicit
    Euler at 1."""
    return sp.rk_step(sp.theta_by_name(f"theta:{float(theta)!r}"), f, t, y, h, jacobian, stats)


def dirk_step(tableau: sp.ButcherTableau, f, t, y, h, jacobian=None, stats=None):
    """Stage-by-stage step of a lower-triangular tableau, each implicit
    stage iterated from its known part."""
    if tableau.kind not in (sp.EXPLICIT, sp.DIRK):
        raise TableauInvariantError("dirk_step needs a lower-triangular tableau")
    return sp.rk_step(tableau, f, t, y, h, jacobian, stats, start=sp.KNOWN)


def gauss2_step(f, t, y, h, jacobian=None, stats=None):
    """Two-stage Gauss step: both stages solved as one coupled 2n system."""
    return sp.rk_step(sp.GAUSS2, f, t, y, h, jacobian, stats)


@pytest.fixture
def decay():
    return ok.get_problem("decay")


@pytest.fixture
def growth():
    return ok.get_problem("growth")
