import math

import numpy as np
import pytest

import odekit as ok
from odekit import multistep as ms
from odekit.errors import UnsupportedOrderError
from tests.conftest import MULTISTEP_NAMES, bdf_table_method, lmm, without_jacobian


class TestAdamsBashforth:
    def test_ab1_is_euler(self):
        m = ms.ab_method(1)
        assert list(m.a) == [1.0]
        assert list(m.b) == [0.0, 1.0]
        assert m.declared_order == 1

    def test_ab2_weights(self):
        m = ms.ab_method(2)
        assert list(m.b[1:]) == [1.5, -0.5]

    def test_ab4_weights(self):
        m = ms.ab_method(4)
        expected = [55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0]
        assert np.allclose(m.b[1:], expected, atol=0.0)

    def test_unsupported(self):
        with pytest.raises(UnsupportedOrderError):
            ms.ab_method(5)


class TestAdamsMoulton:
    def test_am0_is_implicit_euler(self):
        m = ms.am_method(0)
        assert m.b[0] == 1.0
        assert m.implicit

    def test_am1_is_trapezoidal(self):
        m = ms.am_method(1)
        assert list(m.b) == [0.5, 0.5]
        assert m.declared_order == 2

    def test_am2_weights(self):
        m = ms.am_method(2)
        assert m.b[0] == pytest.approx(5.0 / 12.0, abs=0.0)
        assert np.allclose(m.b[1:], [8.0 / 12.0, -1.0 / 12.0], atol=0.0)

    def test_am3_weights(self):
        m = ms.am_method(3)
        assert m.b[0] == pytest.approx(9.0 / 24.0, abs=0.0)
        assert np.allclose(m.b[1:], [19.0 / 24.0, -5.0 / 24.0, 1.0 / 24.0], atol=0.0)


class TestBdf:
    def test_bdf1(self):
        m = ms.bdf_coefficients(1)
        assert list(m.a) == [1.0]
        assert m.b[0] == 1.0

    def test_bdf3_values(self):
        m = ms.bdf_coefficients(3)
        assert np.allclose(m.a, [18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0], atol=1e-15)
        assert m.b[0] == pytest.approx(6.0 / 11.0, abs=1e-15)

    def test_bdf5_beta(self):
        assert ms.bdf_coefficients(5).b[0] == pytest.approx(60.0 / 137.0, abs=1e-15)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_generated_matches_table(self, q):
        gen = ms.bdf_coefficients(q)
        tab = bdf_table_method(q)
        assert np.max(np.abs(gen.a - tab.a)) <= 1e-12
        assert np.max(np.abs(gen.b - tab.b)) <= 1e-12

    def test_unsupported(self):
        with pytest.raises(UnsupportedOrderError):
            ms.bdf_coefficients(7)


class TestConsistency:
    def test_euler_form(self):
        m = ms.MultistepMethod("AB", "euler", [1.0], [0.0, 1.0], 1)
        report = ms.consistency_report(m, 1)
        assert all(res <= 1e-12 for _, res in report)

    def test_ab3_passes_3_fails_4(self):
        m = ms.ab_method(3)
        assert all(res <= 1e-12 for _, res in ms.consistency_report(m, 3))
        assert ms.consistency_report(m, 4)[-1][1] > 0.01

    def test_bdf2_passes(self):
        assert ms.certifies_order(ms.bdf_coefficients(2), 2)

    @pytest.mark.parametrize("name", MULTISTEP_NAMES)
    def test_every_method_certifies_declared_order(self, name):
        m = lmm(name)
        assert ms.certifies_order(m, m.declared_order)


class TestMarch:
    def test_ab2_constant_field_exact(self):
        problem = ok.IvpProblem(name="unit", dim=1, rhs=lambda t, y: np.ones(1),
                                t0=0.0, t_end=2.0, y0=np.zeros(1),
                                exact=lambda t: np.array([t]))
        traj = ok.multistep_march(problem, ms.ab_method(2), 0.25)
        assert np.max(np.abs(traj.states[:, 0] - traj.times)) <= 1e-14

    def test_ab_interpolatory_quadrature_exact(self):
        # f independent of y: AB-q integrates polynomials of degree q-1 exactly
        for q, power in ((2, 1), (3, 2), (4, 3)):
            problem = ok.IvpProblem(
                name="poly", dim=1, rhs=lambda t, y, p=power: np.array([t ** p]),
                t0=0.0, t_end=2.0, y0=np.zeros(1),
                exact=lambda t, p=power: np.array([t ** (p + 1) / (p + 1)]),
            )
            traj = ok.multistep_march(problem, ms.ab_method(q), 0.125)
            exact = traj.times ** (power + 1) / (power + 1)
            assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-12

    def test_bdf3_order(self, decay):
        rows = ok.run_study(decay, "bdf3", [0.2, 0.1, 0.05, 0.025, 0.0125])
        assert rows[-1].order == pytest.approx(3.0, abs=0.1)

    def test_am3_order_with_one_correction(self, decay):
        rows = ok.run_study(without_jacobian(decay), "am3", [0.2, 0.1, 0.05, 0.025, 0.0125],
                            corrections=1, predictor=ms.ab_method(3))
        assert rows[-1].order >= 3.0

    def test_am_matches_one_step_methods(self, decay):
        for name, onestep in (("am0", "ieuler"), ("am1", "trap")):
            t1 = ok.multistep_march(decay, lmm(name), 0.1, corrections="converge")
            t2 = ok.march(decay, onestep, 0.1)
            assert np.max(np.abs(t1.states - t2.states)) <= 1e-12, name

    def test_bootstrap_quality_limits_order(self, decay):
        # seeding BDF3 with a first-order method drags the global order to ~2
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            traj = ok.multistep_march(decay, ms.bdf_coefficients(3), h, bootstrap="euler")
            errs.append(ok.error_at_end(traj, decay)[0])
        order = math.log2(errs[-2] / errs[-1])
        assert order < 2.5

    def test_exact_bootstrap_supports_high_order(self, decay):
        errs = []
        for h in (0.2, 0.1, 0.05):
            traj = ok.multistep_march(decay, ms.bdf_coefficients(5), h, bootstrap="exact")
            errs.append(ok.error_at_end(traj, decay)[0])
        order = math.log2(errs[-2] / errs[-1])
        assert order == pytest.approx(5.0, abs=0.25)

    @pytest.mark.parametrize("option, value", [("predictor", ms.ab_method(4)), ("corrections", 5)])
    def test_explicit_formula_rejects_corrector_options(self, decay, option, value):
        # each used to march as if the option were absent, to the same bits
        for name in MULTISTEP_NAMES:
            if not lmm(name).implicit:
                with pytest.raises(TypeError, match=f"^explicit method {name} takes no {option}$"):
                    ok.integrate(decay, name, h=0.1, **{option: value})

    def test_stiff_bdf_newton(self):
        # the explicit RK4 bootstrap would blow up at lam*h = -2000, so the
        # seed row comes from the exact solution; the BDF sweep itself must
        # then hold the stiff problem without any step restriction
        problem = ok.get_problem("lambda_cos", lam=-1e4, t_end=10.0)
        traj = ok.multistep_march(problem, ms.bdf_coefficients(2), 0.2, bootstrap="exact")
        assert not traj.stats.diverged
        errs = max(abs(traj.states[k, 0] - math.cos(traj.times[k]))
                   for k in range(len(traj.times)))
        assert errs < 1e-3

    def test_no_jacobian_runs_fixed_point_sweeps(self):
        # without a Jacobian there is no Newton: one fixed-point sweep per
        # corrector step, and the one-step stages iterate without factors
        problem = ok.get_problem("dog_jogger", t_end=1.0)
        traj = ok.multistep_march(problem, ms.bdf_coefficients(2), 0.01)
        assert traj.stats.implicit_iters == len(traj.times) - 2
        assert traj.stats.jac_evals == traj.stats.lu_factorizations == 0
        traj = ok.march(problem, "ieuler", 0.01)
        assert traj.stats.implicit_iters > len(traj.times) - 1
        assert traj.stats.jac_evals == traj.stats.lu_factorizations == 0
