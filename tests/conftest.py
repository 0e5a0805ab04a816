import math
from fractions import Fraction as F

import numpy as np
import pytest

import odekit as ok
from odekit.multistep import MultistepMethod


def trajectory_max_error(traj, problem):
    """Largest inf-norm error over every sample of a trajectory."""
    return max(
        float(np.max(np.abs(traj.states[k] - problem.exact_at(traj.times[k]))))
        for k in range(len(traj.times))
    )


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


@pytest.fixture
def decay():
    return ok.get_problem("decay")


@pytest.fixture
def growth():
    return ok.get_problem("growth")
