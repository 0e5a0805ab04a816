import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odekit as ok
from odekit import steppers as sp
from odekit.errors import (
    ImplicitSolveError,
    MissingDerivativeError,
    NonFiniteError,
    TableauInvariantError,
)
from tests.conftest import (
    dirk_step,
    explicit_euler_step,
    explicit_rk_step,
    gauss2_step,
    heun_step,
    implicit_euler_step,
    midpoint_rk2_step,
    on_lists,
    rk4_step,
    rk_step,
    theta_step,
    trapezoidal_step,
)

DECAY_F = lambda t, y: -y
DECAY_JAC = lambda t, y: np.array([[-1.0]])
ONE = np.array([1.0])


class TestTableauInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(TableauInvariantError):
            sp.ButcherTableau("bad", [[0.0]], [0.5], [0.0], sp.EXPLICIT, 1)

    def test_row_sums_must_match_c(self):
        with pytest.raises(TableauInvariantError):
            sp.ButcherTableau("bad", [[0.0, 0.0], [0.3, 0.0]], [0.5, 0.5],
                              [0.0, 1.0], sp.EXPLICIT, 2)

    def test_explicit_requires_strictly_lower(self):
        with pytest.raises(TableauInvariantError):
            sp.ButcherTableau("bad", [[1.0]], [1.0], [1.0], sp.EXPLICIT, 1)

    def test_shipped_tableaus_are_valid(self):
        for tab in sp.TABLEAUS.values():
            assert abs(float(np.sum(tab.b)) - 1.0) <= 1e-12
            assert np.max(np.abs(np.sum(tab.A, axis=1) - tab.c)) <= 1e-12


class TestExplicitEuler:
    def test_single_step(self):
        out = explicit_euler_step(DECAY_F, 0.0, ONE, 0.1)
        assert out[0] == pytest.approx(0.9, abs=0.0)

    def test_zero_field(self):
        out = explicit_euler_step(lambda t, y: np.zeros(1), 0.0, ONE, 0.1)
        assert out[0] == 1.0

    def test_iterated_matches_table1(self, decay):
        traj = ok.march(decay, "euler", 0.2)
        assert traj.final_state[0] == pytest.approx(3.778e-3, rel=5e-4)


class TestImplicitOneStep:
    def test_implicit_euler_closed_form(self):
        out = implicit_euler_step(DECAY_F, 0.1, ONE, 0.1, jacobian=DECAY_JAC)
        assert out[0] == pytest.approx(1.0 / 1.1, abs=1e-12)

    def test_implicit_euler_fixed_point(self):
        out = implicit_euler_step(DECAY_F, 0.1, ONE, 0.1)
        assert out[0] == pytest.approx(1.0 / 1.1, abs=1e-12)

    def test_trapezoidal_amplification(self):
        out = trapezoidal_step(DECAY_F, 0.0, ONE, 0.2, jacobian=DECAY_JAC)
        assert out[0] == pytest.approx(0.9 / 1.1, abs=1e-12)

    def test_fixed_point_cap_raises(self):
        # each sweep multiplies the error by h lam = -2000: no convergence
        stiff = lambda t, y: -1e4 * y
        with pytest.raises(ImplicitSolveError,
                           match="fixed-point iteration did not converge in 50 iterations"):
            implicit_euler_step(stiff, 0.2, ONE, 0.2)

    def test_stiff_newton_feasible(self):
        problem = ok.get_problem("lambda_cos", lam=-1e4, t_end=10.0)
        traj = ok.march(problem, "ieuler", 0.2)
        errs = max(abs(traj.states[k, 0] - math.cos(traj.times[k]))
                   for k in range(len(traj.times)))
        assert errs == pytest.approx(9.998e-6, rel=0.05)


class TestTheta:
    def test_theta_zero_is_euler_bitwise(self):
        f = lambda t, y: np.sin(y) + t
        y = np.array([0.7])
        a = theta_step(f, 0.3, y, 0.17, 0.0)
        b = explicit_euler_step(f, 0.3, y, 0.17)
        assert np.array_equal(a, b)

    def test_theta_one_is_implicit_euler_bitwise(self):
        a = theta_step(DECAY_F, 0.0, ONE, 0.1, 1.0, jacobian=DECAY_JAC)
        b = implicit_euler_step(DECAY_F, 0.1, ONE, 0.1, jacobian=DECAY_JAC)
        assert np.array_equal(a, b)

    def test_theta_half_is_trapezoidal(self):
        a = theta_step(DECAY_F, 0.0, ONE, 0.2, 0.5, jacobian=DECAY_JAC)
        assert a[0] == pytest.approx(0.9 / 1.1, abs=1e-12)
        b = trapezoidal_step(DECAY_F, 0.0, ONE, 0.2, jacobian=DECAY_JAC)
        assert np.array_equal(a, b)

    def test_generic_theta_value(self):
        # theta=0.25 on y'=-y: y1 = (1 - 0.75h)/(1 + 0.25h)
        h = 0.2
        out = theta_step(DECAY_F, 0.0, ONE, h, 0.25, jacobian=DECAY_JAC)
        assert out[0] == pytest.approx((1 - 0.75 * h) / (1 + 0.25 * h), abs=1e-12)


class TestExplicitRk:
    def test_heun_amplification_boundary(self):
        # z = -2 sits on the RK2 stability boundary: R = 1 + z + z^2/2 = 1
        out = heun_step(lambda t, y: -2.0 * y, 0.0, ONE, 1.0)
        assert out[0] == pytest.approx(1.0, abs=1e-14)

    def test_heun_series(self):
        out = heun_step(lambda t, y: y, 0.0, ONE, 0.1)
        assert out[0] == pytest.approx(1.105, abs=1e-14)

    def test_midpoint_series(self):
        out = midpoint_rk2_step(lambda t, y: y, 0.0, ONE, 0.1)
        assert out[0] == pytest.approx(1.105, abs=1e-14)

    def test_midpoint_quadrature(self):
        out = midpoint_rk2_step(lambda t, y: np.array([t]), 0.0, np.zeros(1), 1.0)
        assert out[0] == 0.5

    def test_rk4_simpson(self):
        out = rk4_step(lambda t, y: np.array([t * t]), 0.0, np.zeros(1), 1.0)
        assert abs(out[0] - 1.0 / 3.0) <= 1e-15

    def test_rk4_series(self):
        out = rk4_step(lambda t, y: y, 0.0, ONE, 0.1)
        expected = sum(0.1 ** j / math.factorial(j) for j in range(5))
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_rk3_series(self):
        out = explicit_rk_step(sp.RK3, lambda t, y: y, 0.0, ONE, 0.1)
        expected = 1.0 + 0.1 + 0.1 ** 2 / 2 + 0.1 ** 3 / 6
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_one_stage_tableau_is_euler(self):
        f = lambda t, y: np.cos(y) - t
        y = np.array([0.4])
        a = explicit_rk_step(sp.EULER, f, 0.2, y, 0.3)
        b = explicit_euler_step(f, 0.2, y, 0.3)
        assert np.array_equal(a, b)

    def test_generic_matches_dedicated_bitwise(self):
        f = lambda t, y: np.array([math.sin(y[0]) + t * t])
        y = np.array([0.3])
        assert np.array_equal(heun_step(f, 0.1, y, 0.2),
                              explicit_rk_step(sp.HEUN, f, 0.1, y, 0.2))
        assert np.array_equal(rk4_step(f, 0.1, y, 0.2),
                              explicit_rk_step(sp.RK4, f, 0.1, y, 0.2))
        assert np.array_equal(midpoint_rk2_step(f, 0.1, y, 0.2),
                              explicit_rk_step(sp.MIDPOINT, f, 0.1, y, 0.2))

    def test_rejects_implicit_tableau(self):
        with pytest.raises(TableauInvariantError):
            explicit_rk_step(sp.GAUSS2, DECAY_F, 0.0, ONE, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestDirectCallRaisesOnNonFiniteResult:
    """Called directly, the step functions (``rk_step`` of the tests, on
    arrays, and ``taylor_step``) check their result; the steppers a march
    drives leave that to the march's state check."""

    @pytest.mark.parametrize("name", ["euler", "heun", "rk2mid", "rk3", "rk4"])
    def test_rk_step(self, name, bad):
        # inf - inf in a later stage is NaN, as it should be
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match="^step produced a non-finite state$"):
            rk_step(sp.TABLEAUS[name], lambda t, y: np.full(1, bad), 0.0, ONE, 0.1)

    @pytest.mark.parametrize("order", [2, 3])
    def test_taylor_step(self, order, bad):
        f = lambda t, y: y  # noqa: E731
        d = lambda t, y: np.full(1, bad)  # noqa: E731
        with pytest.raises(NonFiniteError, match="^step produced a non-finite state$"):
            sp.taylor_step(f, d, d, order, 0.0, ONE, 0.1)


def leapfrog_formula(f, t_k, y_k, y_km1, h):
    """y_{k+1} from leapfrog's formula step as a march runs it: the
    stepper's second step, with y_km1 and y_k the states the march hands
    its first and second steps (the first step's Heun result is dropped)."""
    problem = ok.IvpProblem(name="f", dim=1, rhs=f, t0=t_k - h, t_end=t_k + h, y0=y_km1)
    stepper = sp.make_stepper("leapfrog", problem)
    stepper.reset([t_k - h, t_k, t_k + h], 2)
    stats, f = ok.RunStats(), on_lists(f)
    stepper.advance(f, t_k - h, y_km1.tolist(), h, stats)
    return stepper.advance(f, t_k, y_k.tolist(), h, stats)


class TestLeapfrog:
    def test_zero_field_returns_previous(self):
        out = leapfrog_formula(lambda t, y: np.zeros(1), 0.1, ONE, np.array([0.7]), 0.1)
        assert out[0] == 0.7

    def test_exact_for_linear_solutions(self):
        out = leapfrog_formula(lambda t, y: np.ones(1), 0.1, np.array([0.1]), np.zeros(1), 0.1)
        assert out[0] == pytest.approx(0.2, abs=0.0)

    def test_third_order_local_error(self):
        # exact history values; local error should shrink ~8x per halving
        def local_err(h):
            t = 0.5
            y_k = np.array([math.exp(-t)])
            y_km1 = np.array([math.exp(-(t - h))])
            out = leapfrog_formula(DECAY_F, t, y_k, y_km1, h)
            return abs(out[0] - math.exp(-(t + h)))

        ratio = local_err(0.02) / local_err(0.01)
        assert ratio == pytest.approx(8.0, rel=0.05)

    def test_lone_weight_scales_the_step_first(self):
        # 2 f alone overflows at f = 1e308; (2 h) f does not, so the march
        # runs to t_end without a warning (past the divergence threshold)
        problem = ok.IvpProblem(name="const", dim=1, rhs=lambda t, y: np.array([1e308]),
                                t0=0.0, t_end=1e-119, y0=np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = ok.integrate(problem, "leapfrog", h=1e-120)
        assert traj.times[-1] == 1e-119 and np.isfinite(traj.states).all()
        assert traj.states[-1, 0] == pytest.approx(1e189, rel=1e-12)


class TestTaylor:
    def test_second_order_series(self):
        out = sp.taylor_step(lambda t, y: y, lambda t, y: y, None, 2, 0.0, ONE, 0.1)
        assert out[0] == pytest.approx(1.105, abs=1e-15)

    def test_third_order_series(self):
        out = sp.taylor_step(lambda t, y: y, lambda t, y: y, lambda t, y: y, 3, 0.0, ONE, 0.1)
        assert out[0] == pytest.approx(1.1051666666666666, abs=1e-15)

    def test_zero_field(self):
        out = sp.taylor_step(lambda t, y: np.zeros(1), lambda t, y: np.zeros(1),
                             None, 2, 0.0, ONE, 0.1)
        assert out[0] == 1.0

    @pytest.mark.parametrize("order, what", [(2, "taylor_d2"), (3, "taylor_d3")])
    def test_column_derivative_rejected(self, order, what):
        good = lambda t, y: y  # noqa: E731
        column = lambda t, y: np.reshape(y, (-1, 1))  # noqa: E731
        d2, d3 = (column, good) if what == "taylor_d2" else (good, column)
        with pytest.raises(ValueError, match=rf"{what} returned shape \(1, 1\); expected \(1,\)"):
            sp.taylor_step(lambda t, y: y, d2, d3, order, 0.0, ONE, 0.1)

    def test_column_derivative_rejected_on_a_one_step_grid(self):
        problem = ok.IvpProblem(name="column", dim=1, rhs=lambda t, y: -y,
                                taylor_d2=lambda t, y: np.reshape(y, (1, 1)),
                                t0=0.0, t_end=0.5, y0=ONE)
        with pytest.raises(ValueError, match=r"taylor_d2 returned shape \(1, 1\)"):
            ok.march(problem, "taylor2", 0.5)

    def test_scalar_derivative_only_for_dim_one(self):
        out = sp.taylor_step(lambda t, y: y, lambda t, y: 1.0, lambda t, y: 1.0, 3, 0.0, ONE, 0.1)
        assert out[0] == pytest.approx(1.1051666666666666, abs=1e-15)
        two = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match=r"taylor_d2 returned shape \(\); expected \(2,\)"):
            sp.taylor_step(lambda t, y: y, lambda t, y: 1.0, None, 2, 0.0, two, 0.1)

    def test_missing_derivative_raises(self):
        with pytest.raises(MissingDerivativeError):
            sp.taylor_step(lambda t, y: y, None, None, 2, 0.0, ONE, 0.1)
        with pytest.raises(MissingDerivativeError):
            sp.taylor_step(lambda t, y: y, lambda t, y: y, None, 3, 0.0, ONE, 0.1)


class TestImplicitRk:
    def test_trbdf2_zero_field(self):
        out = dirk_step(sp.TRBDF2, lambda t, y: np.zeros(1), 0.0, ONE, 0.5,
                           jacobian=lambda t, y: np.zeros((1, 1)))
        assert out[0] == 1.0

    def test_trbdf2_amplification_matches_stability_function(self):
        for z in (-0.4, -1.3, -3.0):
            out = dirk_step(sp.TRBDF2, lambda t, y: z * y, 0.0, ONE, 1.0,
                               jacobian=lambda t, y: np.array([[z]]))
            expected = sp.rk_stability_value(sp.TRBDF2, complex(z)).real
            assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_gauss2_zero_field(self):
        out = gauss2_step(lambda t, y: np.zeros(1), 0.0, ONE, 0.5,
                             jacobian=lambda t, y: np.zeros((1, 1)))
        assert out[0] == 1.0

    def test_gauss2_amplification_closed_form(self):
        for z in (-0.3, -1.0, -2.5):
            out = gauss2_step(lambda t, y: z * y, 0.0, ONE, 1.0,
                                 jacobian=lambda t, y: np.array([[z]]))
            expected = (1 + z / 2 + z * z / 12) / (1 - z / 2 + z * z / 12)
            assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_gauss2_fixed_point_scalar(self):
        out = gauss2_step(DECAY_F, 0.0, ONE, 0.2)
        expected = (1 - 0.1 + 0.04 / 12) / (1 + 0.1 + 0.04 / 12)
        assert out[0] == pytest.approx(expected, abs=1e-11)

    def test_gauss2_on_system(self):
        # one coupled 2n-unknown step; local error is O(h^5)
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        y0 = np.array([1.0, 0.0])
        from odekit.linalg import linear_exact_solution
        errs = []
        for h in (0.1, 0.05):
            out = gauss2_step(lambda t, y: a @ y, 0.0, y0, h,
                                 jacobian=lambda t, y: a)
            errs.append(np.max(np.abs(out - linear_exact_solution(a, y0, h))))
        assert errs[1] < errs[0] / 20.0
        assert errs[1] < 1e-7


class TestStabilityValue:
    def test_euler_at_minus_two(self):
        assert sp.rk_stability_value(sp.EULER, -2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_heun_boundary(self):
        assert abs(sp.rk_stability_value(sp.HEUN, -2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_r_at_zero_is_one(self):
        for tab in sp.TABLEAUS.values():
            assert sp.rk_stability_value(tab, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_gauss2_negative_axis_contained(self):
        for x in np.linspace(-50.0, -0.1, 40):
            assert abs(sp.rk_stability_value(sp.GAUSS2, complex(x))) <= 1.0 + 1e-12

    def test_measured_amplification_matches(self, decay):
        # one actual step on y' = -y must match R(-h) for every tableau method
        h = 0.37
        z = -h
        cases = {
            "euler": lambda: explicit_euler_step(DECAY_F, 0.0, ONE, h),
            "heun": lambda: heun_step(DECAY_F, 0.0, ONE, h),
            "rk2mid": lambda: midpoint_rk2_step(DECAY_F, 0.0, ONE, h),
            "rk3": lambda: explicit_rk_step(sp.RK3, DECAY_F, 0.0, ONE, h),
            "rk4": lambda: rk4_step(DECAY_F, 0.0, ONE, h),
            "ieuler": lambda: implicit_euler_step(DECAY_F, h, ONE, h, jacobian=DECAY_JAC),
            "trap": lambda: trapezoidal_step(DECAY_F, 0.0, ONE, h, jacobian=DECAY_JAC),
            "trbdf2": lambda: dirk_step(sp.TRBDF2, DECAY_F, 0.0, ONE, h, jacobian=DECAY_JAC),
            "gauss2": lambda: gauss2_step(DECAY_F, 0.0, ONE, h, jacobian=DECAY_JAC),
        }
        for name, step in cases.items():
            expected = sp.rk_stability_value(sp.TABLEAUS[name], complex(z)).real
            assert step()[0] == pytest.approx(expected, abs=1e-12), name


@st.composite
def scale_factors(draw):
    mag = draw(st.floats(0.1, 10.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return sign * mag


class TestLinearity:
    @given(c=scale_factors(), lam=st.floats(-2.0, 0.5), h=st.floats(0.01, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_steppers_commute_with_scaling(self, c, lam, h):
        f = lambda t, y: lam * y
        jac = lambda t, y: np.array([[lam]])
        steps = [
            lambda y: explicit_euler_step(f, 0.0, y, h),
            lambda y: heun_step(f, 0.0, y, h),
            lambda y: rk4_step(f, 0.0, y, h),
            lambda y: implicit_euler_step(f, h, y, h, jacobian=jac),
            lambda y: trapezoidal_step(f, 0.0, y, h, jacobian=jac),
            lambda y: gauss2_step(f, 0.0, y, h, jacobian=jac),
        ]
        for step in steps:
            base = step(np.array([1.0]))[0]
            scaled = step(np.array([c]))[0]
            assert scaled == pytest.approx(c * base, rel=1e-13, abs=1e-14)


class TestOrderPortfolio:
    EXPECTED = {
        "euler": 1, "ieuler": 1, "trap": 2, "heun": 2, "rk2mid": 2,
        "rk3": 3, "rk4": 4, "trbdf2": 2, "gauss2": 4, "taylor2": 2, "taylor3": 3,
    }

    @pytest.mark.parametrize("method,declared", sorted(EXPECTED.items()))
    def test_observed_order_on_decay(self, decay, method, declared):
        rows = ok.run_study(decay, method, [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625])
        assert rows[-1].order == pytest.approx(declared, abs=0.1)
