import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odekit as ok
from odekit import cli
from odekit.adaptive import H_MIN, ode12_solve, step_size_update
from odekit.errors import StepUnderflowError
from tests import csv_readers
from tests.conftest import inverse_t


class TestStepSizeUpdate:
    def test_ratio_one(self):
        assert step_size_update(0.1, 1e-3, 1e-3) == pytest.approx(0.08, abs=1e-15)

    def test_square_root_shrink(self):
        assert step_size_update(0.1, 4e-3, 1e-3) == pytest.approx(0.04, abs=1e-15)

    def test_growth_case(self):
        assert step_size_update(0.1, 0.25e-3, 1e-3) == pytest.approx(0.16, abs=1e-15)

    @given(lo=st.floats(1e-8, 1e-1), factor=st.floats(1.001, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_estimate(self, lo, factor):
        hi = lo * factor
        assert step_size_update(0.1, hi, 1e-3) < step_size_update(0.1, lo, 1e-3)


class TestOde12:
    def test_constant_field_accepts_at_h_init(self):
        problem = ok.IvpProblem(name="unit", dim=1, rhs=lambda t, y: np.ones(1),
                                t0=0.0, t_end=1.0, y0=np.zeros(1))
        traj = ode12_solve(problem, 1e-3)
        accepted = [r for r in traj.step_log if r.accepted]
        assert all(r.e == 0.0 for r in accepted)
        assert traj.stats.rejected_steps == 0
        # every step runs at h_init = tol^(1/3) except the final clamped one
        assert all(r.h == 1e-3 ** (1 / 3) for r in accepted[:-1])
        assert traj.final_time == 1.0

    def test_front_loaded_problem_uses_smaller_steps(self):
        problem = ok.get_problem("adapt_demo")
        traj = ode12_solve(problem, 1e-3)
        acc = [r for r in traj.step_log if r.accepted]
        early = [r.h for r in acc if r.t < 0.3]
        late = [r.h for r in acc if r.t >= 2.0]
        assert np.mean(early) < np.mean(late)

    def test_decay_global_error(self):
        problem = ok.get_problem("decay", t_end=3.0)
        traj = ode12_solve(problem, 1e-6)
        assert abs(traj.final_state[0] - math.exp(-3.0)) < 1e-3

    def test_acceptance_soundness(self):
        problem = ok.get_problem("adapt_demo")
        traj = ode12_solve(problem, 1e-3)
        assert all(r.e < 1e-3 for r in traj.step_log if r.accepted)

    def test_rhs_budget(self):
        problem = ok.get_problem("adapt_demo")
        traj = ode12_solve(problem, 1e-3)
        assert traj.stats.rhs_evals == 2 * len(traj.step_log)

    def test_step_underflow_raises(self):
        # e = 2 at t = 0 cuts h by 0.8 (1e-3/2)^(1/2) per rejection: the 7th
        # cut takes it below H_MIN
        with pytest.raises(StepUnderflowError, match=r"^step size 5\.862e-14 fell below h_min$"):
            ode12_solve(inverse_t(1.0), 1e-3)

    def test_step_underflow_at_the_first_attempt(self):
        # h_init = (1e-40)^(1/3) = 4.6e-14 is below H_MIN
        problem = ok.get_problem("decay")
        problem.rhs = lambda t, y: pytest.fail("no attempt should evaluate f")
        with pytest.raises(StepUnderflowError, match=r"^step size 4\.642e-14 fell below h_min$"):
            ode12_solve(problem, 1e-40)

    def test_reject_cap_raises(self):
        # e = 1.01e-3 > tol on every attempt, while h shrinks by only ~0.8 a
        # rejection and stays far above H_MIN: the cap of 50 ends the run
        with pytest.raises(ok.errors.RejectCapError, match=r"^51 consecutive rejections at t=0$"):
            ode12_solve(inverse_t(0.505e-3), 1e-3)

    def test_config_validation(self):
        for tol in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="^tol must be positive and finite$"):
                ode12_solve(ok.get_problem("decay"), tol)

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_cli_rejects_a_bad_tol(self, capsys, tol):
        assert cli.main(["solve", "decay", "ode12", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: tol must be positive and finite\n"

    @pytest.mark.parametrize("key, t_end", [
        ("sqrt_nonunique", 5.0), ("sqrt_nonunique", 4.9), ("sqrt_nonunique", 7.3),
        ("sqrt_nonunique", 10.0), ("unit_slope", 5.0), ("unit_slope", 10.0),
    ])
    def test_a_rounding_sliver_lands_on_t_end(self, key, t_end):
        # accepted steps at h_init stop a few ulp short of t_end; that sliver
        # is below H_MIN, so the step before it lands on t_end
        if key == "unit_slope":
            problem = ok.IvpProblem(name=key, dim=1, rhs=lambda t, y: np.ones(1),
                                    t0=0.0, t_end=t_end, y0=np.zeros(1))
        else:
            problem = ok.get_problem(key, t_end=t_end)
        traj = ode12_solve(problem, 1e-3)
        assert traj.final_time == t_end
        assert np.all(np.diff(traj.times) >= H_MIN)
        assert all(r.h >= H_MIN for r in traj.step_log)

    def test_cli_lands_on_a_rounding_sliver(self, capsys):
        argv = ["solve", "sqrt_nonunique", "ode12", "--tol", "1e-3", "--t-end", "5"]
        assert cli.main(argv) == 0
        times, _ = csv_readers.read_trajectory_csv(capsys.readouterr().out)
        assert times[-1] == 5.0

    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
    def test_termination_exact_on_nonstiff_catalog(self, tol):
        # explicit pair: the stiff entries (robertson, vdp at large mu,
        # mol_diffusion, lambda_cos) would need ~1e5..1e7 stability-limited
        # steps, so the sweep covers the nonstiff/nonsmooth families
        cases = [
            ("decay", {}), ("growth", {}), ("atan", {}), ("texp", {}),
            ("quartic", {}), ("rational", {}), ("nonsmooth", {}),
            ("adapt_demo", {}), ("kinetics2", {}), ("kinetics3", {}),
            ("sqrt_nonunique", {}), ("alpha_power", {}), ("pendulum", {}),
            ("stiff_sys_A", {}), ("dog_jogger", {}), ("blowup", {"t_end": 0.9}),
        ]
        for key, params in cases:
            problem = ok.get_problem(key, **params)
            traj = ode12_solve(problem, tol)
            assert traj.final_time == problem.t_end, key
