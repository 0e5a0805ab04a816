import math

import numpy as np
import pytest

import odekit as ok
from odekit import problems
from odekit.errors import BadParamError, UnknownProblemError
from odekit.linalg import eig_2x2, jacobi_symmetric_eig, tridiag_toeplitz_eigs


ENTRIES_WITH_EXACT = [
    e.key for e in problems.list_problems()
    if e.factory().exact is not None
]
CONSTANT_JACOBIAN = [e.key for e in problems.list_problems() if e.factory().jacobian_constant]
VARYING_JACOBIAN = [
    e.key for e in problems.list_problems()
    if e.factory().jacobian is not None and not e.factory().jacobian_constant
]


def _random_points(problem, seed, count=5):
    """(t, y) pairs: t in the problem's interval, y scattered around y0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t = problem.t0 + (problem.t_end - problem.t0) * rng.random()
        yield t, problem.y0 + rng.normal(size=problem.dim)


def _difference_jacobian(problem, t, y):
    """Central differences of the rhs, one column per component of y."""
    cols = []
    for i in range(problem.dim):
        step = 1e-6 * max(1.0, abs(y[i]))
        e = np.zeros(problem.dim)
        e[i] = step
        up, down = (np.asarray(problem.rhs(t, y + s * e), dtype=float) for s in (1.0, -1.0))
        cols.append((up - down) / (2.0 * step))
    return np.column_stack(cols)


class TestCatalog:
    def test_listing_is_sorted_and_complete(self):
        keys = [e.key for e in problems.list_problems()]
        assert keys == sorted(keys)
        assert "robertson" in keys
        assert "sqrt_nonunique" in keys

    def test_tags(self):
        entries = {e.key: e for e in problems.list_problems()}
        assert "stiff" in entries["robertson"].tags
        assert "nonsmooth" in entries["sqrt_nonunique"].tags
        assert "pursuit" in entries["dog_jogger"].tags
        assert "mol" in entries["mol_diffusion"].tags

    def test_unknown_key(self):
        with pytest.raises(UnknownProblemError):
            ok.get_problem("nope")

    def test_unknown_param(self):
        with pytest.raises(BadParamError):
            ok.get_problem("decay", bogus=3.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_param(self, value):
        with pytest.raises(BadParamError, match=f"^bad parameters for 'vdp': mu must be finite, "
                                                f"got {value}$"):
            ok.get_problem("vdp", mu=value)

    @pytest.mark.parametrize("key", ENTRIES_WITH_EXACT)
    def test_exact_solution_satisfies_ode(self, key):
        problem = ok.get_problem(key)
        assert problems.exact_residual(problem) <= 1e-6


class TestJacobianDeclaration:
    def test_declared_entries(self):
        assert CONSTANT_JACOBIAN == ["decay", "growth", "kinetics2", "kinetics3", "lambda_cos",
                                     "mol_diffusion", "nonsmooth", "stiff_sys_A", "stiff_sys_B",
                                     "texp"]

    @pytest.mark.parametrize("key", CONSTANT_JACOBIAN)
    def test_declared_constant_jacobian_is_constant_and_right(self, key):
        problem = problems.get_problem(key)
        first = None
        for t, y in _random_points(problem, seed=31):
            jac = np.asarray(problem.jacobian(t, y), dtype=float)
            first = jac if first is None else first
            assert jac.shape == first.shape == (problem.dim, problem.dim)
            assert jac.tobytes() == first.tobytes()
            fd = _difference_jacobian(problem, t, y)
            assert np.allclose(fd, jac, rtol=1e-6, atol=1e-6 * max(1.0, float(np.abs(jac).max())))

    @pytest.mark.parametrize("key", VARYING_JACOBIAN)
    def test_undeclared_jacobians_vary(self, key):
        # every entry whose Jacobian is one fixed matrix declares it
        problem = problems.get_problem(key)
        jacs = {np.asarray(problem.jacobian(t, y), dtype=float).tobytes()
                for t, y in _random_points(problem, seed=32)}
        assert len(jacs) > 1

    def test_declaration_needs_a_jacobian(self):
        with pytest.raises(ValueError, match="jacobian_constant needs a jacobian"):
            ok.IvpProblem(name="no_jac", dim=1, rhs=lambda t, y: -y, t0=0.0, t_end=1.0,
                          y0=[1.0], jacobian_constant=True)


class TestSpecificEntries:
    def test_kinetics2_initial_value(self):
        problem = ok.get_problem("kinetics2", k1=2.0, k2=1.0)
        assert np.allclose(problem.exact_at(0.0), [5.0, 2.0], atol=1e-12)

    def test_decay_exact(self):
        problem = ok.get_problem("decay")
        assert problem.exact_at(5.0)[0] == pytest.approx(math.exp(-5.0), abs=0.0)

    def test_stiff_sys_b_spectrum(self):
        problem = ok.get_problem("stiff_sys_B")
        eigs = eig_2x2(problem.jacobian(0.0, problem.y0)).eigenvalues
        assert sorted(eigs.real) == pytest.approx([-1000.0, -1.0], abs=1e-9)

    def test_stiff_pair_share_exact_trajectory(self):
        pa = ok.get_problem("stiff_sys_A")
        pb = ok.get_problem("stiff_sys_B")
        for t in np.linspace(0.0, 10.0, 21):
            assert np.max(np.abs(pa.exact_at(t) - pb.exact_at(t))) <= 1e-12

    def test_mol_jacobian_matches_closed_form_eigs(self):
        problem = ok.get_problem("mol_diffusion", m=9)
        jac = problem.jacobian(0.0, problem.y0)
        eigs = np.sort(jacobi_symmetric_eig(jac).eigenvalues.real)
        closed = np.sort(tridiag_toeplitz_eigs(9, 0.1))
        assert np.max(np.abs(eigs - closed)) <= 1e-9

    def test_blowup_domain_guard(self):
        with pytest.raises(BadParamError):
            ok.get_problem("blowup", t_end=1.0)

    def test_sqrt_rhs_guards_negative_roundoff(self):
        problem = ok.get_problem("sqrt_nonunique")
        out = problem.rhs(0.0, np.array([-1e-18]))
        assert out[0] == 0.0

    def test_kinetics3_requires_distinct_rates(self):
        with pytest.raises(BadParamError):
            ok.get_problem("kinetics3", k1=1.0, k2=1.0)

    def test_robertson_jacobian_middle_row(self):
        problem = ok.get_problem("robertson")
        y = np.array([1.0, 2e-5, 0.1])
        row = problem.jacobian(0.0, y)[1]
        assert row[0] == 0.04
        assert row[1] == pytest.approx(-1e4 * 0.1 - 6e7 * 2e-5)
        assert row[2] == pytest.approx(-1e4 * 2e-5)

    def test_outback_path_is_continuous(self):
        problem = ok.get_problem("dog_jogger", path="outback")
        jog = problem.meta["jogger"]
        before = jog(7.0 - 1e-9)[0]
        after = jog(7.0 + 1e-9)[0]
        assert abs(before - after) < 1e-6
        assert jog(12.0)[0] == pytest.approx(16.0)

    def test_lambda_cos_general_initial_value(self):
        problem = ok.get_problem("lambda_cos", lam=-20.0, y0=1.5)
        t = 0.3
        expected = math.exp(-20.0 * t) * 0.5 + math.cos(t)
        assert problem.exact_at(t)[0] == pytest.approx(expected, abs=1e-14)

    def test_alpha_power_rhs_limit_at_zero(self):
        problem = ok.get_problem("alpha_power", alpha=1.5)
        assert problem.rhs(0.0, np.zeros(1))[0] == 0.0

    def test_pursuit_closes_distance(self):
        problem = ok.get_problem("dog_jogger", w=10.0, path="line")
        traj = ok.march(problem, "rk4", 0.01)
        jog = problem.meta["jogger"]

        def dist(k):
            jx, jy = jog(traj.times[k])
            return math.hypot(traj.states[k, 0] - jx, traj.states[k, 1] - jy)

        assert dist(len(traj.times) - 1) < dist(0)
