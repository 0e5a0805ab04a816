"""The tableau stage engine ``rk_step`` and the iteration kernel
``solve_implicit``: stage starts, stiffly accurate results, coupled solves
of tableaus that no named method uses, the kernel's stopping rule, and the
reuse of Newton-matrix factors within a march, and across steps of a
multistep corrector on a changing J; and first same as last, the rhs
wrapper's reuse of f at a repeated call."""
import dataclasses
import math
import re

import numpy as np
import pytest

import odekit as ok
from odekit import multistep as ms
from odekit import steppers as sp
from odekit.core import CountingRhs, RunStats, build_grid
from odekit.errors import DivergenceError, NonFiniteError, SingularMatrixError
from tests.conftest import (
    ONE_STEP_NAMES,
    dirk_step,
    gauss2_step,
    implicit_euler_step,
    trapezoidal_step,
)

ONE = np.array([1.0])

# published Robertson values at t = 40 (Hairer & Wanner, Solving ODEs II)
ROBERTSON_T40 = np.array([0.7158270687, 9.185534765e-6, 0.2841637457])

# two-stage SDIRK, gamma = 1 - 1/sqrt(2), order 2, stiffly accurate
_G = 1.0 - 1.0 / math.sqrt(2.0)
SDIRK2 = sp.ButcherTableau("sdirk2", [[_G, 0.0], [1.0 - _G, _G]], [1.0 - _G, _G],
                           [_G, 1.0], sp.DIRK, 2)
# two-stage Radau IIA, order 3, stiffly accurate and fully implicit
RADAU2 = sp.ButcherTableau("radau2", [[5 / 12, -1 / 12], [3 / 4, 1 / 4]], [3 / 4, 1 / 4],
                           [1 / 3, 1.0], sp.FULLY_IMPLICIT, 3)


class TestStiffAccuracy:
    def test_read_from_the_tableau(self):
        accurate = {name for name, tab in sp.TABLEAUS.items() if tab.stiffly_accurate}
        assert accurate == {"ieuler", "trap", "trbdf2"}
        assert sp.theta_tableau(0.3).stiffly_accurate
        assert SDIRK2.stiffly_accurate and RADAU2.stiffly_accurate

    @pytest.mark.parametrize("tableau", [SDIRK2, RADAU2], ids=["sdirk2", "radau2"])
    def test_unshipped_tableaus_match_their_amplification(self, tableau):
        for z in (-0.5, -3.0, -40.0):
            out = sp.rk_step(tableau, lambda t, y: z * y, 0.0, ONE, 1.0,
                             jacobian=lambda t, y: np.array([[z]]))
            expected = sp.rk_stability_value(tableau, complex(z)).real
            assert out[0] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_radau2_fixed_point_order(self):
        # the coupled fixed-point solve reaches the tableau's third order
        def err(h):
            y = ONE
            for k in range(round(1.0 / h)):
                y = sp.rk_step(RADAU2, lambda t, y: -y, k * h, y, h)
            return abs(y[0] - math.exp(-1.0))

        assert math.log2(err(0.1) / err(0.05)) == pytest.approx(3.0, abs=0.15)


class TestStageStart:
    def test_trbdf2_stepper_iterates_from_the_known_part(self):
        # each solve evaluates f at its first iterate first: the sequence of
        # rhs arguments shows where every stage's iteration started
        problem = ok.get_problem("vdp", mu=10.0)
        y = np.array([2.0, -0.3])

        def rhs_calls(step):
            calls = []

            def f(t, u):
                calls.append((t, u.tobytes()))
                return problem.rhs(t, u)

            return step(f), calls

        stepper = sp.make_stepper("trbdf2", problem)
        via_stepper = rhs_calls(lambda f: stepper.advance(f, 0.1, y, 0.05, RunStats()))
        known = rhs_calls(lambda f: dirk_step(sp.TRBDF2, f, 0.1, y, 0.05,
                                              jacobian=problem.jacobian))
        predicted = rhs_calls(lambda f: sp.rk_step(sp.TRBDF2, f, 0.1, y, 0.05,
                                                   jacobian=problem.jacobian))
        assert np.array_equal(via_stepper[0], known[0]) and via_stepper[1] == known[1]
        assert via_stepper[1] != predicted[1]

    def test_trbdf2_robertson_reference(self):
        # from the explicit-Euler start Newton leaves the physical branch here
        traj = ok.integrate(ok.get_problem("robertson", t_end=40.0), "trbdf2", h=0.02)
        rel = np.abs(traj.final_state - ROBERTSON_T40) / ROBERTSON_T40
        assert np.max(rel) <= 1e-6
        assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12

    def test_predictor_slope_is_evaluated_once(self):
        stats = RunStats()
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        gauss2_step(f, 0.0, ONE, 0.1, jacobian=lambda t, y: np.array([[-1.0]]),
                       stats=stats)
        # f(t, y) for both stage starts, then two stage values per iteration
        assert len(calls) == 1 + 2 * stats.implicit_iters
        assert calls[0] == 0.0


class TestFirstSameAsLast:
    # lambda_cos's f depends on t: f taken at t_prev + 1.0 h where the step
    # starts at another t would change the bits
    PROBLEM = ok.get_problem("lambda_cos", lam=-50.0, t_end=1.0)

    def _wrapped(self):
        """A ``CountingRhs`` of PROBLEM's rhs, its stats and the (t, y) of
        every call that reached the rhs."""
        calls, stats = [], RunStats()

        def rhs(t, y):
            calls.append((t, y))
            return self.PROBLEM.rhs(t, y)

        return CountingRhs(rhs, 1, stats), stats, calls

    def test_reuse_needs_the_same_t_and_the_same_array(self):
        t = 0.1 + 1.0 * 0.2
        assert t != 0.3  # 0.30000000000000004
        f, stats, calls = self._wrapped()
        y = np.array([0.5])
        first = f(0.3, y)
        assert f(0.3, y) is first and f(0.3 + 0.0, y) is first
        assert stats.rhs_evals == len(calls) == 1
        f(t, y)
        f(t, y.copy())  # equal values at the same t, but another array
        # only the last evaluation is kept
        f(t, y)
        assert stats.rhs_evals == len(calls) == 4

    def test_nothing_is_reused_across_reset(self):
        # a march resets its stepper and starts a new wrapper
        calls = []

        def rhs(t, y):
            calls.append((t, y.tobytes()))
            return self.PROBLEM.rhs(t, y)

        problem = dataclasses.replace(self.PROBLEM, rhs=rhs, t_end=0.01)
        stepper = sp.make_stepper("trbdf2", problem)
        first = ok.march(problem, stepper, 1e-3)
        first_calls, calls[:] = calls[:], []
        again = ok.march(problem, stepper, 1e-3)
        assert calls == first_calls and calls[0] == (0.0, problem.y0.tobytes())
        assert again.stats == first.stats and first.stats.rhs_evals == len(calls)

    def test_a_stepper_with_a_bare_f_reuses_nothing(self):
        # the second step starts where the first one's last stage was taken
        t, h = 0.1, 0.2
        stepper = sp.make_stepper("trbdf2", self.PROBLEM)
        calls = []

        def f(tc, u):
            calls.append((tc, u))
            return self.PROBLEM.rhs(tc, u)

        y1 = stepper.advance(f, t, ONE, h, RunStats())
        assert calls[-1][0] == t + 1.0 * h and calls[-1][1] is y1
        del calls[:]
        stepper.advance(f, t + 1.0 * h, y1, h, RunStats())
        assert calls[0][0] == t + 1.0 * h and calls[0][1] is y1

    @pytest.mark.parametrize("method", ["ieuler", "trap", "theta:0.3", "trbdf2"])
    def test_march_matches_the_march_without_reuse(self, method):
        # h = 1e-3: on some steps t_prev + 1.0 h is the grid node, on others not
        h = 1e-3
        stepper = sp.make_stepper(method, self.PROBLEM)
        traj = ok.march(self.PROBLEM, stepper, h)

        grid, n_full = build_grid(self.PROBLEM.t0, self.PROBLEM.t_end, h)
        assert n_full == len(grid) - 1
        calls = []

        def f(t, y):
            calls.append((t, y))
            return self.PROBLEM.rhs(t, y)

        ys, stats = [self.PROBLEM.y0], RunStats()
        for t in grid[:-1]:
            ys.append(sp.rk_step(stepper._tableau, f, t, ys[-1], h, self.PROBLEM.jacobian,
                                 stats, stepper._start))
        assert traj.states.tobytes() == np.array(ys).tobytes()
        assert traj.stats.implicit_iters == stats.implicit_iters
        repeats = sum(t == t0 and y is y0 for (t0, y0), (t, y) in zip(calls, calls[1:]))
        assert traj.stats.rhs_evals == len(calls) - repeats
        # step k + 1 starts at grid[k]; step k's last stage was at grid[k - 1] + 1.0 h
        fsal = sum(grid[k - 1] + 1.0 * h == grid[k] for k in range(1, len(grid) - 1))
        assert 0 < fsal < len(grid) - 2
        # trap and theta predict from their first stage's k: no call repeats within a step
        assert repeats == fsal

    def test_multistep_bootstrap_reuses_the_history_f(self):
        # the history's f at (0, y0) and trbdf2's first stage, and trbdf2's
        # last stage and the history's f at (0.001, y1), were each two
        # evaluations (22 in all)
        calls = []

        def rhs(t, y):
            calls.append((t, y.tobytes()))
            return self.PROBLEM.rhs(t, y)

        problem = dataclasses.replace(self.PROBLEM, rhs=rhs, t_end=0.01)
        traj = ok.integrate(problem, "bdf2", h=1e-3, bootstrap="trbdf2")
        assert traj.stats.rhs_evals == len(calls) == 20
        assert len(set(calls)) == 20


class TestKernel:
    def test_scaling_regression_trapezoidal(self):
        # recorded falsifying example: the Euler start met the residual test
        # for y = -0.5 but not for y = 1, so one of the two went unrefined
        c, lam, h = -0.5, 1.739671605652681e-05, 0.125
        f = lambda t, y: lam * y
        jac = lambda t, y: np.array([[lam]])
        base = trapezoidal_step(f, 0.0, np.array([1.0]), h, jacobian=jac)[0]
        scaled = trapezoidal_step(f, 0.0, np.array([c]), h, jacobian=jac)[0]
        assert scaled == pytest.approx(c * base, rel=1e-13, abs=1e-14)

    def test_exact_start_still_takes_one_update(self):
        stats = RunStats()
        out = implicit_euler_step(lambda t, y: np.zeros(1), 0.1, ONE, 0.1,
                                     jacobian=lambda t, y: np.zeros((1, 1)), stats=stats)
        assert out[0] == 1.0 and stats.implicit_iters == 2

    def test_solve_implicit_runs_newton_exactly_with_a_jacobian(self):
        # u = 1 + h f(u) with f = -u^3 at h = 0.1: with J every update
        # factors a Newton matrix; without it the same call substitutes f
        f = lambda t, u: -u ** 3
        jac = lambda t, u: np.diag(-3.0 * u ** 2)
        runs = []
        for jacobian in (jac, None):
            stats = RunStats()
            (u,), _ = sp.solve_implicit(f, [0.1], [ONE], 0.1, [[(0, 1.0)]], [ONE], jacobian, stats)
            assert u[0] + 0.1 * u[0] ** 3 == pytest.approx(1.0, abs=1e-12)
            runs.append(stats)
        newton, fixed = runs
        assert newton.jac_evals == newton.lu_factorizations == newton.implicit_iters - 1 > 0
        assert fixed.jac_evals == fixed.lu_factorizations == 0
        assert fixed.implicit_iters > newton.implicit_iters

    def test_bounded_newton_returns_last_iterate(self):
        f = lambda t, y: -y ** 3
        jac = lambda t, y: np.diag(-3.0 * y ** 2)
        u, fu = sp.solve_implicit(f, [0.5], [ONE], 0.5, [[(0, 1.0)]], [ONE], jac, sweeps=1)
        assert fu is None
        # one Newton update from u = 1 on u + u^3 / 2 = 1
        assert u[0][0] == pytest.approx(1.0 - 0.5 / 2.5, abs=1e-15)

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, -1.0])
    def test_corrector_sweeps_are_bounded(self, lam):
        # PE(CE)^N is a method of its own: even where the AB2 predictor
        # already meets the kernel's tolerance (small lam) all N sweeps run
        h, am, ab = 0.1, ms.am_method(2), ms.ab_method(2)
        problem = ok.IvpProblem(name="lin", dim=1, rhs=lambda t, y: lam * y,
                                t0=0.0, t_end=1.0, y0=[1.0])
        for sweeps in (0, 1, 2, 3):
            traj = ok.multistep_march(problem, am, h, corrections=sweeps, predictor=ab)
            ys = list(traj.states[:2, 0])
            for _ in range(2, len(traj.times)):
                fs = (lam * ys[-1], lam * ys[-2])
                u = ys[-1] + h * (ab.b[1] * fs[0] + ab.b[2] * fs[1])
                known = ys[-1] + h * (am.b[1] * fs[0] + am.b[2] * fs[1])
                for _ in range(sweeps):
                    u = known + h * am.b[0] * (lam * u)
                ys.append(u)
            assert np.array_equal(traj.states[:, 0], ys)
            assert traj.stats.implicit_iters == sweeps * (len(traj.times) - 2)


class TestStepperTable:
    def test_names_come_from_the_table(self):
        assert ONE_STEP_NAMES == (
            "euler", "heun", "rk2mid", "rk3", "rk4", "ieuler", "trap",
            "trbdf2", "gauss2", "taylor2", "taylor3", "leapfrog",
        )
        for name in ONE_STEP_NAMES[:9]:
            assert sp.make_stepper(name).declared_order == sp.TABLEAUS[name].declared_order

    def test_no_third_argument(self):
        # the third parameter stays for the benchmark tracer, which passes None
        problem = ok.get_problem("decay")
        assert sp.make_stepper("trap", problem, None).name == "trap"
        message = re.escape("make_stepper() takes no third argument; got 'newton'")
        with pytest.raises(TypeError, match=message):
            sp.make_stepper("trap", problem, "newton")

    def test_theta_entries(self):
        assert sp.make_stepper("theta:0.5").declared_order == 2
        assert sp.make_stepper("theta:0.3").name == "theta:0.3"
        with pytest.raises(ValueError):
            sp.make_stepper("theta:1.5")
        with pytest.raises(ValueError):
            sp.make_stepper("rk5")


def _free_step_loop(problem, step, h):
    """March with a free step function, which keeps no factors: the
    reference for marches that reuse them."""
    f = lambda t, y: np.asarray(problem.rhs(t, y), dtype=float)
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    stats = RunStats()
    ys = [problem.y0.copy()]
    for k in range(1, len(grid)):
        hk = h if k <= n_full else grid[k] - grid[k - 1]
        ys.append(step(f, grid[k - 1], ys[-1], hk, problem.jacobian, stats))
    return np.array(ys), stats


def _trbdf2_step(f, t, y, h, jacobian, stats):
    return dirk_step(sp.TRBDF2, f, t, y, h, jacobian, stats)


def _switching_problem(t_switch=0.25):
    """Linear y' = A(t) y whose Jacobian changes value once, at t_switch."""
    stiff = np.array([[-1000.0, 1.0], [0.0, -2.0]])
    mild = np.array([[-10.0, 1.0], [0.0, -2.0]])
    a = lambda t: stiff if t < t_switch else mild
    return ok.IvpProblem(name="switch", dim=2, rhs=lambda t, y: a(t) @ y,
                         jacobian=lambda t, y: a(t), t0=0.0, t_end=0.5, y0=[1.0, 1.0])


class TestLuReuse:
    @pytest.mark.parametrize("key, params, method, step, h", [
        ("lambda_cos", dict(lam=-1e4, y0=1.5, t_end=0.5), "trap", trapezoidal_step, 3e-3),
        ("stiff_sys_B", dict(t_end=1.0), "gauss2", gauss2_step, 0.03),
        ("mol_diffusion", dict(m=10), "trbdf2", _trbdf2_step, 0.003),
    ], ids=["trap", "gauss2", "trbdf2"])
    def test_march_matches_free_step_loop(self, key, params, method, step, h):
        # h does not divide the span, so the shortened last step needs new factors
        problem = ok.get_problem(key, **params)
        traj = ok.march(problem, method, h)
        ys, free = _free_step_loop(problem, step, h)
        assert traj.states.tobytes() == ys.tobytes()
        stats = traj.stats
        assert stats.implicit_iters == free.implicit_iters
        # one factorization per implicit stage group and step size; the
        # declared-constant J once per stage block of each
        groups = 2 if method == "trbdf2" else 1
        assert stats.jac_evals == 2 * groups * (2 if method == "gauss2" else 1)
        assert stats.lu_factorizations == 2 * groups
        assert free.lu_factorizations == free.jac_evals // (2 if method == "gauss2" else 1)

    def test_changed_jacobian_gets_fresh_factors(self):
        problem = _switching_problem()
        for method, step in (("trap", trapezoidal_step), ("trbdf2", _trbdf2_step)):
            traj = ok.march(problem, method, 0.01)
            ys, free = _free_step_loop(problem, step, 0.01)
            assert traj.states.tobytes() == ys.tobytes()
            # J is not declared constant: every Newton update factors
            stats = traj.stats
            assert stats.lu_factorizations == stats.jac_evals == free.lu_factorizations

    def test_robertson_trbdf2_has_no_false_hits(self):
        # J changes on every Newton update, so every update factors
        traj = ok.integrate(ok.get_problem("robertson", t_end=40.0), "trbdf2", h=0.02)
        stats = traj.stats
        assert stats.lu_factorizations == stats.jac_evals == 6269
        assert stats.implicit_iters == stats.jac_evals + 2 * (len(traj.times) - 1)

    def test_reused_stepper_matches_fresh_ones(self):
        problem = ok.get_problem("mol_diffusion", m=10)
        stepper = sp.make_stepper("trbdf2", problem)
        # reset() drops the factors: a repeated h factors again, as fresh
        for h in (0.01, 0.02, 0.02):
            reused = ok.march(problem, stepper, h)
            fresh = ok.march(problem, sp.make_stepper("trbdf2", problem), h)
            assert reused.states.tobytes() == fresh.states.tobytes()
            assert reused.stats == fresh.stats

    def test_rejected_matrix_is_never_stored(self):
        # y' = y: at h = 1 the Newton matrix I - h J is singular
        slot = sp.LuSlot()
        stats = RunStats()

        def solve(h, jac=1.0):
            return sp.solve_implicit(lambda t, y: y, [0.0], [ONE], h, [[(0, 1.0)]], [ONE],
                                     lambda t, y: np.array([[jac]]), stats, slot=slot)

        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                solve(1.0)
        assert stats.lu_factorizations == 2 and slot.h is None
        for _ in range(2):
            solve(0.5)
        assert stats.lu_factorizations == 3 and slot.h == 0.5
        # a non-finite matrix is rejected too, and leaves the stored factors
        factors = slot.factors
        with pytest.raises(NonFiniteError):
            solve(0.25, jac=np.nan)
        assert stats.lu_factorizations == 4 and slot.h == 0.5 and slot.factors is factors

    def test_non_finite_newton_matrix_still_raises_in_a_march(self):
        # every Newton update factors; the matrix of a non-finite Jacobian is
        # rejected, and the rejection stops the march like any non-finite state
        jac = lambda t, y: np.array([[-5.0]]) if t < 0.3 else np.array([[np.inf]])
        problem = ok.IvpProblem(name="bad_jac", dim=1, rhs=lambda t, y: -5.0 * y,
                                jacobian=jac, t0=0.0, t_end=1.0, y0=[1.0])
        with pytest.raises(DivergenceError, match="non-finite near t=0.3") as err:
            ok.march(problem, "ieuler", 0.1)
        partial = err.value.trajectory
        assert list(partial.times) == [0.0, 0.1, 0.2]
        assert partial.stats.lu_factorizations == partial.stats.jac_evals == 3

    def test_multistep_counts_on_mol_bdf2(self):
        problem = ok.get_problem("mol_diffusion", m=40)
        calls = []
        jacobian = problem.jacobian
        problem.jacobian = lambda t, y: calls.append(t) or jacobian(t, y)
        traj = ok.multistep_march(problem, ms.bdf_coefficients(2), 1e-3)
        stats = traj.stats
        assert len(traj.times) == 501 and stats.implicit_iters == 998
        # one Newton update per corrector step, all on the same matrix, and
        # the declared-constant J evaluated once
        assert stats.jac_evals == len(calls) == 1
        assert stats.lu_factorizations == 1


class TestKeptFactors:
    # A slot with constant=False (a multistep corrector's on a J the problem
    # does not declare constant) keeps its factors across solves at one h,
    # and the kernel refreshes J and the factors at the current iterate once
    # a residual exceeds THETA times the one before.  The calls solve
    # u = 1 + h f(t, u) from u = 1 with f = -lam(t) u: on factors kept from
    # lam = 1 at h = 1, the residual shrinks by |1 - (1 + lam) / 2| per
    # update, 0.3 at lam = 1.6 and 0.025 at lam = 1.05.
    LAM = {1.0: 1.0, 2.0: 1.6, 3.0: 1.05}

    def _solve(self, slot, calls):
        """The solutions of the ``(t, h)`` calls, their counters and the
        (t, u) of every Jacobian call."""
        lam, stats, seen = self.LAM, RunStats(), []

        def jacobian(t, u):
            seen.append((t, u[0]))
            return np.array([[-lam[t]]])

        out = []
        for t, h in calls:
            (u,), _ = sp.solve_implicit(lambda t, u: -lam[t] * u, [t], [ONE], h, [[(0, 1.0)]],
                                        [ONE], jacobian, stats, 0, slot)
            out.append(u[0])
        return out, stats, seen

    def test_slow_contraction_refreshes_j_at_the_current_iterate(self):
        slot = sp.LuSlot(constant=False)
        (_, u), stats, seen = self._solve(slot, [(1.0, 1.0), (2.0, 1.0)])
        assert sp.THETA == 0.1
        assert u == pytest.approx(1.0 / 2.6, rel=1e-15)
        # the kept factors of 2 take u from 1 to 1 - 1.6 / 2, where the
        # residual is 0.3 times the first: J is evaluated there and factored
        assert seen == [(1.0, 1.0), (2.0, 1.0 - 1.6 / 2.0)]
        assert stats.jac_evals == stats.lu_factorizations == 2
        assert stats.implicit_iters == 2 + 3
        assert slot.h == 1.0 and slot.factors.rows == [[2.6]]

    def test_fast_contraction_keeps_the_factors(self):
        (_, u), stats, seen = self._solve(sp.LuSlot(constant=False), [(1.0, 1.0), (3.0, 1.0)])
        assert u == pytest.approx(1.0 / 2.05, rel=1e-12)
        assert seen == [(1.0, 1.0)]
        assert stats.jac_evals == stats.lu_factorizations == 1

    @pytest.mark.parametrize("constant", [True, False])
    def test_a_new_step_size_refactors(self, constant):
        slot = sp.LuSlot(constant)
        _, stats, seen = self._solve(slot, [(1.0, 1.0), (3.0, 1.0), (3.0, 0.5)])
        assert seen == [(1.0, 1.0), (3.0, 1.0)]
        assert stats.jac_evals == stats.lu_factorizations == 2
        assert slot.h == 0.5

    def test_declared_constant_slot_never_refreshes(self):
        # the slow contraction of the first test, on a slot that promises a
        # constant J: one J call and one LU fewer, and more updates
        (_, u), stats, seen = self._solve(sp.LuSlot(), [(1.0, 1.0), (2.0, 1.0)])
        assert u == pytest.approx(1.0 / 2.6, rel=1e-11)
        assert seen == [(1.0, 1.0)]
        assert stats.jac_evals == stats.lu_factorizations == 1
        assert stats.implicit_iters > 2 + 3


CONSTANT_JACOBIAN = [e.key for e in ok.list_problems() if e.factory().jacobian_constant]


def _newton_march(problem, method, h):
    if method == "bdf2":
        return ok.multistep_march(problem, ms.bdf_coefficients(2), h, bootstrap="ieuler")
    return ok.march(problem, method, h)


class TestConstantJacobian:
    # Jacobian evaluations of a march on a declared-constant J, when h
    # divides the span and when the last step is shortened: one per stage
    # block, slot and step size.  trbdf2 has two one-stage slots, gauss2 one
    # two-stage slot; bdf2 has its ieuler bootstrap's slot, which also
    # takes the shortened step, and the corrector's.  Without the
    # declaration the one-step methods evaluate J on every Newton update.
    # bdf2 does not: its corrector keeps its factors either way (on these
    # linear problems they never stop contracting), and its ieuler
    # bootstrap and landing step each converge after one update.
    JAC_EVALS = {"ieuler": (1, 2), "trap": (1, 2), "trbdf2": (2, 4), "gauss2": (2, 4),
                 "bdf2": (2, 3)}

    @pytest.mark.parametrize("method", list(JAC_EVALS))
    @pytest.mark.parametrize("h, shortened", [(0.025, False), (0.03, True)],
                             ids=["divides", "shortened"])
    def test_matches_the_march_that_evaluates_j(self, method, h, shortened):
        for key in CONSTANT_JACOBIAN:
            kept = ok.get_problem(key, t_end=0.5)
            evaluated = dataclasses.replace(kept, jacobian_constant=False)
            grid, n_full = build_grid(kept.t0, kept.t_end, h)
            assert (n_full + 1 < len(grid)) == shortened
            a, b = _newton_march(kept, method, h), _newton_march(evaluated, method, h)
            assert a.times.tobytes() == b.times.tobytes(), key
            assert a.states.tobytes() == b.states.tobytes(), key
            assert (dataclasses.replace(a.stats, jac_evals=0, lu_factorizations=0)
                    == dataclasses.replace(b.stats, jac_evals=0, lu_factorizations=0)), key
            assert a.stats.jac_evals == self.JAC_EVALS[method][shortened], key
            if method == "bdf2":
                assert b.stats.jac_evals == a.stats.jac_evals, key
            else:
                assert b.stats.jac_evals > a.stats.jac_evals, key
            blocks = 2 if method == "gauss2" else 1
            for run in (a, b):
                assert run.stats.lu_factorizations == run.stats.jac_evals // blocks, key


def _wrong_jacobian_problem(jac, constant=False):
    """y' = -y in two unknowns, with a Jacobian of the wrong shape."""
    return ok.IvpProblem(name="wrong_jac", dim=2, rhs=lambda t, y: -y, t0=0.0, t_end=1.0,
                         y0=[1.0, 2.0], jacobian=lambda t, y: jac, jacobian_constant=constant)


class TestJacobianShape:
    # a Jacobian that is not n x n is rejected where it is evaluated, before
    # numpy could broadcast it into the Newton matrix
    WRONG = {"vector": (-np.ones(2), "(2,)"), "scalar": (-1.0, "()"),
             "3x3": (-np.eye(3), "(3, 3)")}

    @pytest.mark.parametrize("method", ["ieuler", "trbdf2", "gauss2", "bdf2"])
    @pytest.mark.parametrize("case", list(WRONG))
    def test_wrong_shape_raises(self, method, case):
        jac, shape = self.WRONG[case]
        problem = _wrong_jacobian_problem(jac)
        message = re.escape(f"jacobian returned shape {shape}; expected (2, 2)")
        with pytest.raises(ValueError, match=message):
            if method == "bdf2":
                # an explicit bootstrap: the corrector evaluates J first
                ok.multistep_march(problem, ms.bdf_coefficients(2), 0.1)
            else:
                ok.march(problem, method, 0.1)

    def test_declared_constant_jacobian_is_checked_too(self):
        problem = _wrong_jacobian_problem(-np.ones(2), constant=True)
        with pytest.raises(ValueError, match=re.escape("shape (2,); expected (2, 2)")):
            ok.march(problem, "ieuler", 0.1)

    def test_right_shape_runs(self):
        traj = ok.march(_wrong_jacobian_problem(-np.eye(2)), "ieuler", 0.1)
        assert traj.stats.jac_evals == traj.stats.lu_factorizations > 0
