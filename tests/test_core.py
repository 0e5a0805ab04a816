import math
import tracemalloc

import numpy as np
import pytest

import odekit as ok
from odekit import core
from odekit.errors import DivergenceError, MissingExactError, SampleCapError

ALL_ONE_STEP = ["euler", "heun", "rk2mid", "rk3", "rk4", "ieuler", "trap",
                "theta:0.3", "trbdf2", "gauss2", "taylor2", "taylor3", "leapfrog"]


def zero_field_problem():
    return ok.IvpProblem(
        name="zero", dim=1,
        rhs=lambda t, y: np.zeros(1),
        jacobian=lambda t, y: np.zeros((1, 1)),
        taylor_d2=lambda t, y: np.zeros(1),
        taylor_d3=lambda t, y: np.zeros(1),
        t0=0.0, t_end=2.0, y0=np.array([1.0]),
    )


class TestGrid:
    def test_exact_divisor(self):
        times, n_full = core.build_grid(0.0, 2.0, 0.5)
        assert n_full == 4
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_grid_exactness(self):
        times, _ = core.build_grid(0.0, 5.0, 0.2)
        for k, t in enumerate(times):
            assert t == 0.0 + k * 0.2

    def test_partial_final_step(self):
        times, n_full = core.build_grid(0.0, 1.0, 0.3)
        assert n_full == 3
        assert times[-1] == 1.0
        assert times[:-1] == [0.0, 0.3, 0.6, 0.8999999999999999]

    def test_h_too_large(self):
        with pytest.raises(ValueError):
            core.build_grid(0.0, 1.0, 2.0)

    def test_sample_cap(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SAMPLES", 10)
        with pytest.raises(SampleCapError):
            core.build_grid(0.0, 1.0, 0.01)

    def test_sample_cap_is_checked_before_the_grid_is_built(self, monkeypatch):
        # 100,001 samples would take ~3 MB as a list of floats
        monkeypatch.setattr(core, "MAX_SAMPLES", 10)
        tracemalloc.start()
        try:
            with pytest.raises(SampleCapError, match="100001 samples"):
                core.build_grid(0.0, 1.0, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("t0, t_end, h", [(0.0, 1.0, 0.3), (0.0, 2.0, 0.5), (0.0, 1.0, 0.1),
                                              (1.0, 1.7, 0.25)])
    def test_sample_cap_counts_the_grid(self, monkeypatch, t0, t_end, h):
        size = len(core.build_grid(t0, t_end, h)[0])
        monkeypatch.setattr(core, "MAX_SAMPLES", size)
        core.build_grid(t0, t_end, h)
        monkeypatch.setattr(core, "MAX_SAMPLES", size - 1)
        with pytest.raises(SampleCapError, match=f"hold {size} samples"):
            core.build_grid(t0, t_end, h)

    @pytest.mark.parametrize("t0, t_end, h", [(0.0, 1.0, 1e-300), (-1e308, 1e308, 1.0),
                                              (0.0, 1e308, 1e-10)])
    def test_huge_or_overflowing_sample_count_is_capped(self, t0, t_end, h):
        with pytest.raises(SampleCapError):
            core.build_grid(t0, t_end, h)

    @pytest.mark.parametrize("t0, t_end", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                                           (math.nan, 1.0)])
    def test_problem_rejects_non_finite_ends(self, t0, t_end):
        with pytest.raises(ValueError, match="t0 and t_end must be finite"):
            ok.IvpProblem(name="p", dim=1, rhs=lambda t, y: -y, t0=t0, t_end=t_end, y0=[1.0])


class TestMarch:
    def test_zero_field_all_steppers_exact(self):
        problem = zero_field_problem()
        for name in ALL_ONE_STEP:
            traj = ok.march(problem, name, 0.5)
            assert np.all(traj.states == 1.0), name
            assert len(traj.times) == 5

    def test_table1_endpoint(self, decay):
        traj = ok.march(decay, "euler", 0.2)
        assert traj.final_state[0] == pytest.approx(3.778e-3, rel=5e-4)
        assert traj.stats.rhs_evals == 25

    def test_determinism_bitwise(self, decay):
        a = ok.march(decay, "rk4", 0.1)
        b = ok.march(decay, "rk4", 0.1)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_divergence_flag_and_magnitude(self):
        problem = ok.get_problem("lambda_cos", lam=-2100.0)
        traj = ok.march(problem, "euler", 0.001)
        assert traj.stats.diverged
        assert abs(traj.final_state[0]) > 1e50
        assert traj.stats.divergence_time is not None

    def test_stable_below_cliff(self):
        problem = ok.get_problem("lambda_cos", lam=-2100.0)
        traj = ok.march(problem, "euler", 0.00095)
        assert not traj.stats.diverged
        abs_err, _ = ok.error_at_end(traj, problem)
        assert abs_err <= 1e-6

    def test_overflow_guard_truncates(self):
        # y' = y^2 from y0=1 blows up at t=1; the run must stop with a
        # partial trajectory rather than iterating on inf
        problem = ok.IvpProblem(
            name="finite_blowup", dim=1,
            rhs=lambda t, y: y * y,
            t0=0.0, t_end=2.0, y0=np.array([1.0]),
        )
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            ok.march(problem, "euler", 0.01)
        partial = err.value.trajectory
        assert partial is not None
        assert partial.stats.diverged
        assert partial.final_time < 2.0

    def test_partial_step_lands_on_t_end(self, decay):
        traj = ok.march(decay, "rk4", 0.3)
        assert traj.final_time == 5.0
        err, _ = ok.error_at_end(traj, decay)
        assert err < 1e-5

    def test_leapfrog_keeps_order_on_shortened_final_step(self):
        # h does not divide [0, 1]: the last step is shorter than the step
        # the two-step history was taken at
        problem = ok.get_problem("decay", t_end=1.0)
        errs = [ok.error_at_end(ok.march(problem, "leapfrog", h), problem)[0]
                for h in (0.015, 0.0075)]
        assert math.log2(errs[0] / errs[1]) >= 1.8

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_column_vector_rhs_rejected(self, method):
        problem = ok.IvpProblem(
            name="column", dim=2,
            rhs=lambda t, y: -np.reshape(y, (-1, 1)),
            t0=0.0, t_end=1.0, y0=np.array([1.0, 2.0]),
        )
        with pytest.raises(ValueError, match=r"rhs returned shape \(2, 1\); expected \(2,\)"):
            ok.march(problem, method, 0.25)


class TestErrorAtEnd:
    def test_table1_h01(self, decay):
        traj = ok.march(decay, "euler", 0.1)
        abs_err, rel_err = ok.error_at_end(traj, decay)
        assert abs_err == pytest.approx(1.584e-3, rel=5e-4)
        assert rel_err == pytest.approx(2.351e-1, rel=5e-4)

    def test_exact_trajectory_zero_error(self, decay):
        from odekit.driver import exact_trajectory

        traj = exact_trajectory(decay, 0.5)
        assert ok.error_at_end(traj, decay) == (0.0, 0.0)

    def test_growth_table2(self, growth):
        traj = ok.march(growth, "euler", 0.2)
        abs_err, _ = ok.error_at_end(traj, growth)
        assert abs_err == pytest.approx(5.302e1, rel=5e-4)

    def test_missing_exact(self):
        problem = ok.get_problem("adapt_demo")
        traj = ok.march(problem, "euler", 0.1)
        with pytest.raises(MissingExactError):
            ok.error_at_end(traj, problem)
