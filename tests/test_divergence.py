"""Divergence handling shared by the fixed-grid march, the multistep march
and the adaptive ode12 run: a non-finite state, the overflow guard, the
divergence threshold, and the partial trajectory a stopped run carries.

Every grid here is exact in binary (h = 1/8 on [0, 1]), so the stopping
times and the partial lengths are exact.
"""
import dataclasses
import math

import numpy as np
import pytest

import odekit as ok
from odekit.adaptive import ode12_solve
from odekit.core import DIVERGENCE_THRESHOLD
from odekit.errors import DivergenceError
from odekit.multistep import ab_method, multistep_march
from odekit.steppers import Stepper
from tests import csv_readers
from tests.conftest import lmm

H = 0.125


def switching_problem(late):
    """y' = -y up to t = 0.5 and ``late`` (a constant) after it."""
    def rhs(t, y):
        return np.full(1, late) if t > 0.5 else -y
    return ok.IvpProblem(name="switch", dim=1, rhs=rhs, t0=0.0, t_end=1.0, y0=np.ones(1))


def run_march(problem):
    return ok.march(problem, "euler", H)


def run_ab2(problem):
    return multistep_march(problem, ab_method(2), H)


# Both take the first value of f past t = 0.5 at the step start t = 0.625, so
# the first affected state is the one at t = 0.75.
FIXED_GRID = [pytest.param(run_march, id="march-euler"), pytest.param(run_ab2, id="ab2")]


def first_past_threshold(traj):
    return int(np.argmax(np.abs(traj.states).max(axis=1) > DIVERGENCE_THRESHOLD))


@pytest.mark.parametrize("run", FIXED_GRID)
class TestFixedGrid:
    def test_nan_mid_run(self, run):
        with pytest.raises(DivergenceError, match=r"^state became non-finite near t=0\.75$") as err:
            run(switching_problem(np.nan))
        partial = err.value.trajectory
        assert len(partial.times) == len(partial.states) == 6
        assert partial.final_time == 0.625
        assert np.isfinite(partial.states).all()
        assert partial.stats.diverged
        assert partial.stats.divergence_time == 0.75

    def test_overflow_guard(self, run):
        with pytest.raises(DivergenceError,
                           match=r"^state magnitude passed the overflow guard near t=0\.75$") as err:
            run(switching_problem(1e250))
        partial = err.value.trajectory
        assert len(partial.times) == len(partial.states) == 7
        assert partial.final_time == 0.75
        assert abs(partial.final_state[0]) > 1e200
        assert partial.stats.diverged
        assert partial.stats.divergence_time == 0.75

    def test_threshold_only_flags(self, run):
        traj = run(switching_problem(1e13))
        assert len(traj.times) == 9
        assert traj.final_time == 1.0
        assert traj.stats.diverged
        assert traj.stats.divergence_time == 0.75
        assert traj.times[first_past_threshold(traj)] == 0.75


@pytest.mark.parametrize("method", ["rk4", "taylor2", "leapfrog", "trap", "ieuler", "gauss2", "trbdf2"])
def test_march_nan_stops_at_the_first_non_finite_state(method):
    problem = switching_problem(np.nan)
    problem.taylor_d2 = lambda t, y: -problem.rhs(t, y)
    with pytest.raises(DivergenceError, match=r"^state became non-finite near t=") as err:
        ok.march(problem, method, H)
    partial = err.value.trajectory
    t_stop = partial.stats.divergence_time
    assert err.value.args[0].endswith(f"t={t_stop:.6g}")
    assert partial.final_time == t_stop - H
    assert len(partial.times) == len(partial.states) == round(t_stop / H)
    assert np.isfinite(partial.states).all()


def nan_problem(t_nan, t_end=1.0, jacobian=None):
    """y' = -y up to ``t_nan`` and NaN after it."""
    def rhs(t, y):
        return np.full(1, np.nan) if t > t_nan else -y
    return ok.IvpProblem(name="nan", dim=1, rhs=rhs, t0=0.0, t_end=t_end, y0=np.ones(1),
                         jacobian=jacobian)


def minus_one(t, y):
    return -np.eye(1)


@pytest.mark.parametrize("method", ["trap", "gauss2", "trbdf2"])
def test_implicit_newton_stops_at_a_nan_residual(method):
    with pytest.raises(DivergenceError, match=r"^state became non-finite near t=0\.625$") as err:
        ok.march(nan_problem(0.5, jacobian=minus_one), method, H)
    partial = err.value.trajectory
    assert partial.final_time == 0.5
    assert partial.stats.diverged
    # four finite steps take a few Newton iterations each; the NaN step, two
    assert partial.stats.implicit_iters < 30


@pytest.mark.parametrize("method", ["trap", "trbdf2"])
def test_implicit_nan_exits_three_with_partial_csv(method, monkeypatch, capsys, tmp_path):
    from odekit import cli

    monkeypatch.setattr(cli, "get_problem", lambda key, **params: switching_problem(np.nan))
    out = tmp_path / "t.csv"
    code = cli.main(["solve", "decay", method, "--h", str(H), "--out", str(out)])
    assert code == 3
    assert "error: state became non-finite near t=0.625" in capsys.readouterr().err
    times, states = csv_readers.read_trajectory_csv(out.read_text())
    assert list(times) == [0.0, 0.125, 0.25, 0.375, 0.5]
    assert np.isfinite(states).all()


def nan_jacobian(t, y):
    return np.full((1, 1), np.nan) if t > 0.5 else -np.eye(1)


@pytest.mark.parametrize("method", ["trap", "ieuler", "trbdf2", "gauss2", "bdf2"])
def test_nan_jacobian_exits_three_with_partial_csv(method, monkeypatch, capsys, tmp_path):
    # a one-step stage solve evaluates J at its finite start and factors the
    # Newton matrix before it tests a residual; a multistep corrector tests
    # the residual first.  Both end the same way.
    from odekit import cli

    problem = nan_problem(0.5, jacobian=nan_jacobian)
    monkeypatch.setattr(cli, "get_problem", lambda key, **params: problem)
    out = tmp_path / "t.csv"
    code = cli.main(["solve", "decay", method, "--h", str(H), "--out", str(out)])
    assert code == 3
    assert "error: state became non-finite near t=0.625" in capsys.readouterr().err
    times, states = csv_readers.read_trajectory_csv(out.read_text())
    assert list(times) == [0.0, 0.125, 0.25, 0.375, 0.5]
    assert np.isfinite(states).all()


# (problem, method, bootstrap, first non-finite time): the NaN reaches the
# bootstrap step, the corrector, the shortened landing step onto t_end = 17/16,
# and an implicit bootstrap's Newton solve
MULTISTEP_NAN = [
    pytest.param(nan_problem(0.05), "ab2", "rk4", 0.125, id="bootstrap"),
    pytest.param(nan_problem(0.5, jacobian=minus_one), "bdf2", "rk4", 0.625, id="corrector"),
    pytest.param(nan_problem(1.0, t_end=1.0625), "ab2", "rk4", 1.0625, id="landing"),
    pytest.param(nan_problem(0.05, jacobian=minus_one), "bdf2", "trbdf2", 0.125,
                 id="implicit-bootstrap"),
]


@pytest.mark.parametrize("problem, name, bootstrap, t_stop", MULTISTEP_NAN)
def test_multistep_nan_ends_in_divergence(problem, name, bootstrap, t_stop):
    with pytest.raises(DivergenceError, match=rf"^state became non-finite near t={t_stop:g}$") as err:
        multistep_march(problem, lmm(name), H, bootstrap=bootstrap)
    partial = err.value.trajectory
    assert partial.stats.diverged
    assert partial.stats.divergence_time == t_stop
    assert partial.final_time == t_stop - (0.0625 if t_stop == 1.0625 else H)
    assert len(partial.times) == len(partial.states)
    assert np.isfinite(partial.states).all()
    assert partial.stats.implicit_iters < 30


@pytest.mark.parametrize("method", ["rk4", "trbdf2", "bdf2"])
def test_partial_trajectory_holds_the_states_before_the_stop(method):
    """The states y' = -y reaches by t = 0.5, bit for bit, before the NaN
    rhs after it stops the run."""
    before = ok.integrate(dataclasses.replace(switching_problem(np.nan), t_end=0.5), method, h=H)
    with pytest.raises(DivergenceError, match=r"^state became non-finite near t=0\.625$") as err:
        ok.integrate(switching_problem(np.nan), method, h=H)
    partial = err.value.trajectory
    assert partial.states.shape == before.states.shape == (5, 1)
    assert partial.times.tobytes() == before.times.tobytes()
    assert partial.states.tobytes() == before.states.tobytes()


class NanStepper(Stepper):
    """A stepper that returns a NaN state without raising NonFiniteError."""

    name = "nan"

    def advance(self, f, t, y, h, stats):
        return [math.nan] * len(y) if t >= 0.5 else [a + h * b for a, b in zip(y, f(t, y))]


def test_march_names_a_non_finite_state_from_any_stepper():
    with pytest.raises(DivergenceError, match=r"^state became non-finite near t=0\.625$") as err:
        ok.march(ok.get_problem("decay", t_end=1.0), NanStepper(), H)
    partial = err.value.trajectory
    assert len(partial.times) == len(partial.states) == 5
    assert partial.final_time == 0.5
    assert partial.stats.divergence_time == 0.625


class InPlaceEuler(Stepper):
    """An Euler stepper that overwrites the state it is given and returns it."""

    name = "in-place-euler"

    def advance(self, f, t, y, h, stats):
        y[:] = [a + h * b for a, b in zip(y, f(t, y))]
        return y


def test_march_rows_do_not_alias_an_in_place_stepper():
    problem = ok.get_problem("decay", t_end=1.0)
    y0 = problem.y0.copy()
    traj = ok.march(problem, InPlaceEuler(), H)
    ref = ok.march(problem, "euler", H)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.times, ref.times)
    assert len(np.unique(traj.states[:, 0])) == len(traj.times)
    assert np.array_equal(problem.y0, y0)


class TestOde12:
    def test_nan_mid_run(self):
        with pytest.raises(DivergenceError, match=r"^state became non-finite near t=") as err:
            ode12_solve(switching_problem(np.nan), 1e-6)
        partial = err.value.trajectory
        t_stop = partial.stats.divergence_time
        assert err.value.args[0].endswith(f"t={t_stop:.6g}")
        assert partial.stats.diverged
        assert 0.5 < t_stop <= 0.5 + 1e-6 ** (1 / 3)
        assert len(partial.times) == len(partial.states) > 1
        assert partial.final_time < t_stop
        assert np.isfinite(partial.states).all()
        last = partial.step_log[-1]
        assert not last.accepted and not last.e < np.inf
        assert last.t == partial.final_time
        assert partial.stats.rhs_evals == 2 * len(partial.step_log)

    def test_nan_mid_run_exits_three_with_partial_csv(self, monkeypatch, capsys, tmp_path):
        from odekit import cli

        monkeypatch.setattr(cli, "get_problem", lambda key, **params: switching_problem(np.nan))
        out = tmp_path / "t.csv"
        code = cli.main(["solve", "decay", "ode12", "--tol", "1e-6", "--out", str(out)])
        assert code == 3
        assert "error: state became non-finite near t=" in capsys.readouterr().err
        times, states = csv_readers.read_trajectory_csv(out.read_text())
        assert 0.49 < times[-1] <= 0.5
        assert np.isfinite(states).all()

    def test_overflow_guard(self):
        problem = ok.IvpProblem(name="steep", dim=1, rhs=lambda t, y: np.full(1, 1e205),
                                t0=0.0, t_end=1.0, y0=np.zeros(1))
        h_init = 1e-6 ** (1 / 3)
        with pytest.raises(DivergenceError,
                           match=r"^state magnitude passed the overflow guard near t=") as err:
            ode12_solve(problem, 1e-6)
        partial = err.value.trajectory
        assert len(partial.times) == len(partial.states) == 2
        assert partial.final_time == h_init
        assert err.value.args[0].endswith(f"t={h_init:.6g}")
        assert partial.stats.diverged
        assert partial.stats.divergence_time == h_init
        assert len(partial.step_log) == 1

    def test_threshold_only_flags(self):
        problem = ok.IvpProblem(name="steep", dim=1, rhs=lambda t, y: np.full(1, 3e13),
                                t0=0.0, t_end=1.0, y0=np.zeros(1))
        traj = ode12_solve(problem, 1e-6)
        assert traj.final_time == 1.0
        assert traj.stats.diverged
        k = first_past_threshold(traj)
        assert k > 1
        assert traj.stats.divergence_time == traj.times[k]
