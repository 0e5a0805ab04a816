"""Oracles independent of the trajectories' bits.

The integrators against the stability analysis: one step of every one-step
method on y' = lambda y equals its R(h lambda), and every multistep method
marched with Newton on y' = lambda y equals the recurrence of its
characteristic polynomial rho - z sigma.  The stiff nonlinear runs of the
benchmark against published values, an invariant and an independent
integrator.  None of these depends on how the linear algebra rounds, so
they hold across changes that move trajectories within the solve
tolerance.
"""
import math

import numpy as np
import pytest

import odekit as ok
from odekit import multistep as ms
from odekit import steppers as sp
from odekit.core import RunStats
from odekit.driver import stability_function
from odekit.stability import DifferenceEquation, difference_recurrence
from tests.conftest import MULTISTEP_NAMES, lmm
from tests.test_engine import ROBERTSON_T40

ONE_STEP = list(sp.TABLEAUS) + ["theta:0.3", "theta:0.7", "taylor2", "taylor3"]


def rotation_problem(a, b):
    """y' = lambda y, lambda = a + ib, in the real form y' = [[a, -b], [b, a]] y."""
    jac = np.array([[a, -b], [b, a]])
    return ok.IvpProblem(
        name="rotation", dim=2, rhs=lambda t, y: jac @ y, t0=0.0, t_end=1.0,
        y0=np.array([1.0, 0.0]), jacobian=lambda t, y: jac,
        taylor_d2=lambda t, y: jac @ (jac @ y),
        taylor_d3=lambda t, y: jac @ (jac @ (jac @ y)))


@pytest.mark.parametrize("name", ONE_STEP)
def test_one_step_equals_its_amplification_factor(name):
    r = stability_function(name)
    rng = np.random.default_rng(13)
    for a, b in zip(rng.uniform(-4.0, 1.0, 200), rng.uniform(-3.0, 3.0, 200)):
        problem = rotation_problem(a, b)
        stepper = sp.make_stepper(name, problem)
        y = stepper.advance(problem.rhs, 0.0, problem.y0, 1.0, RunStats())
        want = complex(r(complex(a, b)))
        assert abs(complex(y[0], y[1]) - want) <= 1e-13 * abs(want), (a, b)


LAMBDAS = (-0.1, -0.5, -1.3, -2.5, -7.0, 0.4)


@pytest.mark.parametrize("name", MULTISTEP_NAMES)
def test_newton_multistep_march_equals_its_recurrence(name):
    method = lmm(name)
    p = method.q + 1  # order of the recurrence
    for lam in LAMBDAS:
        problem = ok.IvpProblem(name="decay", dim=1, rhs=lambda t, y: lam * y, t0=0.0,
                                t_end=30.0, y0=np.array([1.0]),
                                jacobian=lambda t, y: np.array([[lam]]))
        traj = ok.multistep_march(problem, method, 1.0,
                                  strategy="newton")
        # the march's first ``depth`` states come from the bootstrap (am2 and
        # am3 seed one more than p, for their AB predictor)
        depth = p if not method.implicit else max(p, ms._default_predictor(method).q + 1)
        march = traj.states[depth - p:, 0]
        c = method.characteristic_coeffs(complex(lam)).real
        recurrence = difference_recurrence(DifferenceEquation(c, march[:p]), len(march) - 1)
        scale = np.maximum(1.0, np.abs(recurrence))
        assert np.max(np.abs(march - recurrence) / scale) <= 1e-11, lam


def robertson_bdf_run(q, h):
    """A bdf``q`` run on Robertson to t = 40, held to the published state and
    to its mass.  The corrector keeps its Newton factors across steps on
    this changing J."""
    traj = ok.multistep_march(ok.get_problem("robertson", t_end=40.0),
                              ok.bdf_coefficients(q), h)
    assert traj.final_time == 40.0
    assert np.max(np.abs(traj.final_state - ROBERTSON_T40) / ROBERTSON_T40) <= 1e-6
    # y1' + y2' + y3' = 0 exactly, and BDF conserves linear invariants
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-10


def test_robertson_bdf3_reaches_the_published_state_and_keeps_its_mass():
    # measured: 1.0e-8 relative at t = 40, mass within 8.4e-13
    robertson_bdf_run(3, 0.002)


@pytest.mark.parametrize("q", [2, 4])
def test_robertson_bdf_at_h_1e_3_reaches_the_published_state(q):
    # measured: 1.5e-8 (bdf2) and 9.2e-10 (bdf4) relative at t = 40, mass
    # within 1.3e-12
    robertson_bdf_run(q, 1e-3)


def vdp_error_and_bound(run, p, c):
    """A march against scipy's Radau on Van der Pol, mu = 100, to t = 2 at
    h = 1e-3: ``run(problem, h)`` marches, ``p`` is its order and ``c`` the
    constant of its local error c h^(p+1) y^(p+1).  The sum of those local
    errors over [0, 2], |c| h^p times the integral of |y_i^(p+1)|, bounds
    each component's global error; the integral is taken from the reference
    solution.  Returns the errors and the bounds, per component."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    problem = ok.get_problem("vdp", mu=100.0, t_end=2.0)
    h = 1e-3
    traj = run(problem, h)
    ref = solve_ivp(problem.rhs, (0.0, 2.0), problem.y0, method="Radau", rtol=1e-11,
                    atol=1e-13, jac=problem.jacobian, dense_output=True).sol
    err = np.max(np.abs(traj.states - ref(traj.times).T), axis=0)

    fine = np.linspace(0.0, 2.0, 20001)
    f = np.array([problem.rhs(t, y) for t, y in zip(fine, ref(fine).T)])
    dt = fine[1] - fine[0]
    # the integral of |y^(p+1)|, from p-th differences of y' = f
    derivative = np.abs(np.diff(f, p, axis=0)).sum(axis=0) / dt ** (p - 1)
    return err, abs(c) * h ** p * derivative


def test_vdp_trbdf2_stays_within_its_leading_error_term():
    """TR-BDF2's local error constant is
    C = (-3g^2 + 4g - 2) / (12 (2 - g)) ~ -0.0404, g = 2 - sqrt(2).  The
    bounds read ~8.1e-8 for y1 and ~2.4e-5 for y2 (the initial transient
    dominates), and the errors measured at this writing are 3.1e-8 and
    9.4e-6, a margin of 2.6 on both.
    """
    g = 2.0 - math.sqrt(2.0)
    err, bound = vdp_error_and_bound(lambda problem, h: ok.integrate(problem, "trbdf2", h=h),
                                     2, (-3.0 * g * g + 4.0 * g - 2.0) / (12.0 * (2.0 - g)))
    assert np.all(err <= bound), (err, bound)


def test_vdp_bdf3_stays_within_its_leading_error_term():
    """bdf3, whose corrector keeps its Newton factors across steps (one J
    call in this run), has the local error constant -3/22.  The bounds read
    ~7.9e-8 for y1 and ~2.4e-5 for y2; the errors measured at this writing
    are 3.9e-8 and 1.2e-5, a margin of 2.1 on both, and within 4e-13 of
    the errors of a corrector that factors on every update.
    """
    err, bound = vdp_error_and_bound(
        lambda problem, h: ok.multistep_march(problem, ok.bdf_coefficients(3), h),
        3, -3.0 / 22.0)
    assert np.all(err <= bound), (err, bound)
