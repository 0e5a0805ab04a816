import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odekit import multistep as ms
from odekit import stability as sb
from odekit.driver import stability_function, stability_object
from tests.conftest import LMM_MODEL_NAMES, MULTISTEP_NAMES, ONE_STEP_NAMES, lmm


class TestRasterOneStep:
    def test_euler_disc_membership(self):
        raster = sb.raster_one_step(stability_function("euler"), (-3, 1, -2, 2), 64, 64)
        res, ims = raster.grid_centers()

        def member_at(z):
            ix = int(np.argmin(np.abs(res - z.real)))
            iy = int(np.argmin(np.abs(ims - z.imag)))
            return bool(raster.member[iy, ix])

        assert member_at(complex(-1.0, 0.0))
        assert not member_at(complex(-2.5, 0.0))
        assert not member_at(complex(0.5, 0.0))

    def test_implicit_euler_complement_disc(self):
        r_func = stability_function("ieuler")
        assert abs(r_func(complex(-100.0, 0.0))) <= 1.0
        assert abs(r_func(complex(0.5, 0.0))) > 1.0  # inside the excluded disc

    def test_trapezoidal_left_half_plane(self):
        r_func = stability_function("trap")
        assert abs(r_func(complex(-10.0, 10.0))) <= 1.0
        assert abs(r_func(complex(-10.0, -10.0))) <= 1.0
        assert abs(r_func(complex(0.1, 0.0))) > 1.0

    def test_pole_counts_as_non_member(self):
        raster = sb.raster_one_step(lambda z: 1.0 / (1.0 - z), (0.5, 1.5, -0.5, 0.5), 4, 4)
        assert not raster.member.all()

    def test_pole_on_cell_center_counts_as_failed(self):
        # the center of cell (2, 2) is exactly z = 1, the pole of 1/(1 - z)
        raster = sb.raster_one_step(lambda z: 1.0 / (1.0 - z), (0.5, 1.5, -0.5, 0.5), 5, 5)
        res, ims = raster.grid_centers()
        assert (res[2], ims[2]) == (1.0, 0.0)
        assert raster.failed == 1
        assert not raster.member[2, 2]

    def test_multistep_vanishing_leading_coefficient_counts_as_failed(self):
        # am0 is implicit Euler: its leading coefficient 1 - z vanishes at z = 1
        raster = sb.raster_multistep(ms.am_method(0), (0.5, 1.5, -0.5, 0.5), 5, 5)
        assert raster.failed == 1
        assert not raster.member[2, 2]


class TestBoundaryLocus:
    def test_ab1_is_shifted_unit_circle(self):
        points = sb.boundary_locus(ms.ab_method(1), 64)
        assert points[0] == pytest.approx(0.0, abs=1e-14)
        assert points[32] == pytest.approx(-2.0, abs=1e-13)
        for j, z in enumerate(points):
            theta = 2.0 * math.pi * j / 64
            assert z == pytest.approx(cmath.exp(1j * theta) - 1.0, abs=1e-12)

    def test_bdf2_real_axis_crossing(self):
        # exact-rational oracle: rho(-1)/sigma(-1) with alpha=(4/3,-1/3), beta=2/3
        r = Fraction(-1)
        rho = r**2 - Fraction(4, 3) * r - Fraction(-1, 3)
        sigma = Fraction(2, 3) * r**2
        assert rho / sigma == Fraction(4)
        points = sb.boundary_locus(ms.bdf_coefficients(2), 64)
        assert points[32] == pytest.approx(4.0, abs=1e-12)

    def test_gap_marker_where_sigma_vanishes(self):
        # trapezoidal sigma(r) = (r+1)/2 vanishes at theta = pi, a sample
        # point of even counts only; no other sigma vanishes on the circle
        for samples in (8, 256, 512, 1000, 1001):
            for name in LMM_MODEL_NAMES:
                points = sb.boundary_locus(lmm(name), samples)
                gaps = [j for j, z in enumerate(points) if z is None]
                want = [samples // 2] if name == "am1" and samples % 2 == 0 else []
                assert gaps == want, (name, samples)


class TestRootCondition:
    def test_ab1_real_interval(self):
        m = ms.ab_method(1)
        assert sb.is_abs_stable(m, complex(-1.0, 0.0))
        assert not sb.is_abs_stable(m, complex(-2.5, 0.0))

    def test_bdf1_deep_left_plane(self):
        assert sb.is_abs_stable(ms.bdf_coefficients(1), complex(-1000.0, 0.0))

    def test_ab3_outside_its_interval(self):
        assert not sb.is_abs_stable(ms.ab_method(3), complex(-1.0, 0.0))

    def test_adams_moulton_real_intervals(self):
        # the order-3 and order-4 AM regions reach to about -6 and -3 on the
        # real axis, so z = -1 is stable for both and far points are not
        am2, am3 = ms.am_method(2), ms.am_method(3)
        assert sb.is_abs_stable(am2, complex(-1.0, 0.0))
        assert not sb.is_abs_stable(am2, complex(-7.0, 0.0))
        assert sb.is_abs_stable(am3, complex(-1.0, 0.0))
        assert not sb.is_abs_stable(am3, complex(-4.0, 0.0))

    def test_leading_coefficient_guard(self):
        with pytest.raises(ValueError):
            sb.is_abs_stable(ms.am_method(0), complex(1.0, 0.0))

    @given(re=st.floats(-3.0, 0.5), im=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetry(self, re, im):
        m = ms.ab_method(2)
        z = complex(re, im)
        assert sb.is_abs_stable(m, z) == sb.is_abs_stable(m, z.conjugate())

    @pytest.mark.parametrize("name", LMM_MODEL_NAMES)
    def test_zero_stability(self, name):
        assert sb.is_abs_stable(lmm(name), 0j)

    def test_leapfrog_characteristic_polynomial(self):
        m = ms.leapfrog_method()
        z = complex(-0.3, 0.7)
        coeffs = m.characteristic_coeffs(z)
        assert np.allclose(coeffs, [1.0, -2.0 * z, -1.0], atol=1e-15)

    def test_multistep_raster_agrees_with_one_step(self):
        bounds = (-3.0, 1.0, -2.0, 2.0)
        rng = np.random.default_rng(2)
        r_ieuler = stability_function("ieuler")
        bdf1 = ms.bdf_coefficients(1)
        am0 = ms.am_method(0)
        for _ in range(200):
            z = complex(rng.uniform(-3, 1), rng.uniform(-2, 2))
            expected = abs(r_ieuler(z)) <= 1.0
            assert sb.is_abs_stable(bdf1, z) == expected
            assert sb.is_abs_stable(am0, z) == expected


def _winding_number(points, z):
    total = 0.0
    finite = [p for p in points if p is not None]
    for a, b in zip(finite, finite[1:] + finite[:1]):
        total += cmath.phase((b - z) / (a - z))
    return total / (2.0 * math.pi)


class TestRasterLocusConsistency:
    @pytest.mark.parametrize("name", ["ab2", "ab3", "am2", "am3"])
    def test_bounded_regions_lie_inside_locus(self, name):
        m = lmm(name)
        locus = sb.boundary_locus(m, 512)
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(100):
            z = complex(rng.uniform(-6.5, 0.5), rng.uniform(-4, 4))
            if sb.is_abs_stable(m, z):
                hits += 1
                assert abs(_winding_number(locus, z)) > 0.5
        assert hits > 0

    @pytest.mark.parametrize("name", ["bdf1", "bdf2", "bdf3"])
    def test_bdf_regions_lie_outside_locus(self, name):
        m = lmm(name)
        locus = sb.boundary_locus(m, 512)
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(100):
            z = complex(rng.uniform(-8, 0.0), rng.uniform(-5, 5))
            if sb.is_abs_stable(m, z):
                hits += 1
                assert abs(_winding_number(locus, z)) < 0.5
        assert hits > 0


class TestClassification:
    def test_implicit_euler_a_and_l_stable(self):
        c = sb.classify_stability(stability_function("ieuler"))
        assert c.a_stable and c.l_stable
        assert c.sampled

    def test_trapezoidal_a_not_l(self):
        c = sb.classify_stability(stability_function("trap"))
        assert c.a_stable and not c.l_stable

    def test_explicit_euler_not_a_stable(self):
        c = sb.classify_stability(stability_function("euler"))
        assert not c.a_stable

    def test_bdf3_wedge_angle(self):
        c = sb.classify_stability(ms.bdf_coefficients(3))
        assert not c.a_stable
        deg = math.degrees(c.alpha)
        assert 80.0 < deg < 90.0

    def test_bdf2_a_stable(self):
        c = sb.classify_stability(ms.bdf_coefficients(2))
        assert c.a_stable
        assert c.l_stable is None

    @pytest.mark.parametrize("name", ["heun", "rk2mid", "rk3", "rk4"])
    def test_explicit_runge_kutta(self, name):
        c = sb.classify_stability(stability_function(name))
        assert not c.a_stable
        assert c.alpha == 0.0
        assert c.l_stable is False

    @pytest.mark.parametrize(
        "name", ONE_STEP_NAMES + MULTISTEP_NAMES + ("theta:0", "theta:0.3", "theta:0.5", "theta:1"))
    def test_every_named_method_classifies(self, name):
        _, obj = stability_object(name)
        c = sb.classify_stability(obj)
        assert 0.0 <= c.alpha <= math.pi / 2.0
        assert c.failed_probes == 0

    def test_pole_on_l_stability_tail_counts_as_failed(self):
        c = sb.classify_stability(lambda z: 1.0 / (1.0 + z / 100.0))
        assert c.failed_probes == 1
        assert not c.l_stable


class TestStiffnessRatio:
    def test_thousand(self):
        assert sb.stiffness_ratio([-1000.0, -1.0]) == 1000.0

    def test_three(self):
        assert sb.stiffness_ratio([-3.0, -1.0]) == 3.0

    def test_infinite_flag(self):
        assert math.isinf(sb.stiffness_ratio([-5.0, 0.0]))


class TestDifferenceEquations:
    def test_quartic_with_triple_root(self):
        eq = sb.DifferenceEquation([1.0, -5.0, 6.0, 4.0, -8.0], [-1.0, -7.0, -7.0, 7.0])
        sol = sb.solve_difference_equation(eq)
        by_mult = dict(zip(sol.roots.multiplicities, range(len(sol.beta))))
        simple = sol.beta[by_mult[1]]
        triple = sol.beta[by_mult[3]]
        assert simple[0].real == pytest.approx(1.0, abs=1e-9)
        assert np.allclose([b.real for b in triple], [-2.0, -2.0, 1.0], atol=1e-9)
        for k, expected in enumerate([-1.0, -7.0, -7.0, 7.0]):
            assert sb.evaluate_difference_solution(sol, k) == pytest.approx(expected, abs=1e-8)

    def test_distinct_roots_example(self):
        eq = sb.DifferenceEquation([1.0, 5.0, 6.0], [0.0, 2.0])
        sol = sb.solve_difference_equation(eq)
        assert sorted(r.real for r in sol.roots.roots) == pytest.approx([-3.0, -2.0], abs=1e-10)
        assert sb.evaluate_difference_solution(sol, 2) == pytest.approx(-10.0, abs=1e-9)
        assert sb.evaluate_difference_solution(sol, 5) == pytest.approx(422.0, abs=1e-6)

    def test_identity_recurrence(self):
        eq = sb.DifferenceEquation([1.0, -1.0], [7.0])
        sol = sb.solve_difference_equation(eq)
        assert sb.evaluate_difference_solution(sol, 0) == pytest.approx(7.0, abs=1e-12)
        assert sb.evaluate_difference_solution(sol, 19) == pytest.approx(7.0, abs=1e-10)

    def test_closed_form_matches_recurrence_random(self):
        rng = np.random.default_rng(9)
        root_pool = [-3, -2, -1, 1, 2, 3]
        for _ in range(200):
            p = int(rng.integers(1, 5))
            roots = rng.choice(root_pool, size=p)
            coeffs = np.array([1.0])
            for r in roots:
                coeffs = np.convolve(coeffs, [1.0, -float(r)])
            initial = rng.integers(-5, 6, size=p).astype(float)
            eq = sb.DifferenceEquation(coeffs, initial)
            sol = sb.solve_difference_equation(eq)
            rec = sb.difference_recurrence(eq, 25)
            for k in range(26):
                closed = sb.evaluate_difference_solution(sol, k)
                assert abs(closed - rec[k]) <= 1e-6 * max(1.0, abs(rec[k]))

    def test_bad_initial_count(self):
        with pytest.raises(ValueError):
            sb.DifferenceEquation([1.0, 2.0, 1.0], [1.0])
