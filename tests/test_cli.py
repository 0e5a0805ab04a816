import math
import warnings

import numpy as np
import pytest

import odekit as ok
from odekit import cli, core
from odekit.linalg import eigen_decomposition
from tests import csv_readers


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_success_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "decay", "euler", "--h", "0.2")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[0]) == 5.0
        assert float(last[1]) == pytest.approx(3.778e-3, rel=5e-4)

    def test_zero_h_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "decay", "euler", "--h", "0")
        assert code == 2
        assert "usage" in err

    def test_infinite_t_end_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "decay", "euler", "--t-end", "inf",
                                 "--h", "0.1")
        assert code == 2 and out == ""
        # rejected by get_problem, which names the parameter
        assert err == "usage error: bad parameters for 'decay': t_end must be finite, got inf\n"

    @pytest.mark.parametrize("argv, message", [
        # a NaN rate used to run and end "state became non-finite" (exit 3)
        (["lambda_cos", "euler", "--h", "0.1", "--param", "lam=nan"],
         "bad parameters for 'lambda_cos': lam must be finite, got nan"),
        # an overflowing size used to escape main as an OverflowError
        (["mol_diffusion", "bdf2", "--h", "0.01", "--param", "m=1e400"],
         "bad parameters for 'mol_diffusion': m must be finite, got inf"),
    ], ids=["nan-rate", "overflowing-size"])
    def test_non_finite_parameter_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "solve", *argv)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"

    def test_tiny_h_hits_the_sample_cap_at_once(self, capsys):
        code, out, err = run_cli(capsys, "solve", "decay", "bdf2", "--h", "1e-300")
        assert code == 3 and out == ""
        assert "samples (cap" in err

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "decay", "euler5", "--h", "0.1")
        assert code == 2

    def test_divergence_exits_three_with_partial_csv(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "solve", "lambda_cos", "euler",
                               "--h", "0.001", "--param", "lam=-2100",
                               "--out", str(out_file))
        assert code == 3
        assert "diverged" in err
        times, states = csv_readers.read_trajectory_csv(out_file.read_text())
        assert len(times) > 100

    def test_ode12_needs_tol(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "decay", "ode12")
        assert code == 2
        code, out, _ = run_cli(capsys, "solve", "adapt_demo", "ode12", "--tol", "1e-3")
        assert code == 0

    def test_ode12_step_log_csv(self, capsys, tmp_path):
        log_file = tmp_path / "log.csv"
        code, _, _ = run_cli(capsys, "solve", "adapt_demo", "ode12", "--tol", "1e-3",
                             "--step-log", str(log_file), "--out", str(tmp_path / "t.csv"))
        assert code == 0
        rows = csv_readers.read_step_log_csv(log_file.read_text())
        assert rows[0][0] == 0.0
        assert any(not accepted for *_, accepted in rows)
        assert all(e < 1e-3 for _, _, e, accepted in rows if accepted)

    def test_step_log_rejected_for_fixed_step(self, capsys, tmp_path):
        # rejected before the run: no trajectory is written either
        out_file, log_file = tmp_path / "o.csv", tmp_path / "s.csv"
        code, out, err = run_cli(capsys, "solve", "decay", "euler", "--h", "0.5",
                                 "--t-end", "1", "--out", str(out_file),
                                 "--step-log", str(log_file))
        assert code == 2 and out == ""
        assert "--step-log" in err
        assert not out_file.exists() and not log_file.exists()

    def test_tol_rejected_for_fixed_step(self, capsys):
        code, out, err = run_cli(capsys, "solve", "decay", "euler", "--h", "0.5", "--tol", "1e-3")
        assert code == 2 and out == ""
        assert err == "usage error: --tol applies only to an adaptive method\n"

    def test_h_rejected_for_ode12(self, capsys):
        code, out, err = run_cli(capsys, "solve", "decay", "ode12", "--tol", "1e-3", "--h", "0.5")
        assert code == 2 and out == ""
        assert err == "usage error: --h applies only to a fixed-step method\n"

    def test_trajectory_roundtrip_bitwise(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "kinetics2", "rk4", "--h", "0.1")
        assert code == 0
        times, states = csv_readers.read_trajectory_csv(out)
        import odekit as ok

        traj = ok.march(ok.get_problem("kinetics2"), "rk4", 0.1)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(states, traj.states)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_trajectory_csv_matches_per_value_fmt(self, dim):
        from odekit.core import RunStats, Trajectory

        rng = np.random.default_rng(dim)
        states = rng.standard_normal((50, dim)) * 10.0 ** rng.integers(-300, 300, (50, dim))
        states[0] = -0.0
        states[1] = 5e-324
        times = np.cumsum(rng.random(50))
        reference = "t," + ",".join(f"y{i + 1}" for i in range(dim)) + "\n" + "".join(
            ",".join(cli.fmt(v) for v in [t, *row]) + "\n" for t, row in zip(times, states))
        assert cli.trajectory_csv(Trajectory(times, states, RunStats())) == reference


class TestStudy:
    def test_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "study", "decay", "euler",
                               "--h-list", "0.2,0.1,0.05")
        assert code == 0
        rows = csv_readers.read_study_csv(out)
        assert rows[0][3] is None
        assert rows[1][3] == pytest.approx(0.90, abs=0.01)
        # bitwise round-trip against the values the study computed
        import odekit as ok
        from odekit.driver import run_study

        direct = run_study(ok.get_problem("decay"), "euler", [0.2, 0.1, 0.05])
        for parsed, row in zip(rows, direct):
            assert parsed[0] == row.h
            assert parsed[1] == row.abs_err
            assert parsed[2] == row.rel_err
            assert parsed[3] == row.order

    def test_requires_halving(self, capsys):
        code, _, _ = run_cli(capsys, "study", "decay", "euler", "--h-list", "0.2,0.15")
        assert code == 2

    @pytest.mark.parametrize("h_list", ["0,0", "0.2,-0.1", "inf,inf", "0.2,nan"])
    def test_step_sizes_must_be_positive_and_finite(self, capsys, h_list):
        code, out, err = run_cli(capsys, "study", "decay", "euler", "--h-list", h_list)
        assert code == 2 and out == ""
        assert err == "usage error: --h-list entries must be positive and finite\n"

    def test_requires_exact(self, capsys):
        code, _, _ = run_cli(capsys, "study", "adapt_demo", "euler",
                             "--h-list", "0.2,0.1")
        assert code == 2

    def test_exact_sampler_rows(self, capsys):
        code, out, _ = run_cli(capsys, "study", "decay", "exact",
                               "--h-list", "0.2,0.1")
        assert code == 0
        for row in csv_readers.read_study_csv(out):
            assert row[1] == 0.0
            assert row[3] is None

    def test_ascii_table_has_bound_columns(self, capsys):
        code, out, _ = run_cli(capsys, "study", "decay", "euler",
                               "--h-list", "0.2,0.1", "--format", "ascii")
        assert code == 0
        assert "0.5h(e^b-1)" in out
        assert "14.74" in out

    @pytest.mark.parametrize("problem", ["decay", "growth"])
    def test_bound_columns_follow_the_euler_scheme_not_its_name(self, capsys, problem):
        # theta:0 is the EULER tableau: the same rows and bound columns
        tables = []
        for method in ("euler", "theta:0"):
            code, out, _ = run_cli(capsys, "study", problem, method,
                                   "--h-list", "0.2,0.1", "--format", "ascii")
            assert code == 0
            tables.append(out.splitlines()[:-1])  # all but the timed footer
        assert tables[0] == tables[1]
        assert "0.5h(e^b-1)" in tables[1][0]

    def test_other_schemes_have_no_bound_columns(self, capsys):
        code, out, _ = run_cli(capsys, "study", "decay", "theta:0.5",
                               "--h-list", "0.2,0.1", "--format", "ascii")
        assert code == 0
        assert "0.5h(e^b-1)" not in out


class TestStability:
    def test_euler_disc_area_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "euler",
                               "--nx", "200", "--ny", "200")
        assert code == 0
        rows = csv_readers.read_raster_csv(out)
        frac = sum(r[2] for r in rows) / len(rows)
        assert frac == pytest.approx(math.pi / 16.0, rel=0.02)

    def test_bdf1_matches_ieuler(self, capsys):
        code1, out1, _ = run_cli(capsys, "stability", "ieuler", "--nx", "60", "--ny", "60")
        code2, out2, _ = run_cli(capsys, "stability", "bdf1", "--nx", "60", "--ny", "60")
        assert code1 == code2 == 0
        ieuler = csv_readers.read_raster_csv(out1)
        bdf1 = csv_readers.read_raster_csv(out2)
        assert ieuler == bdf1

    def test_ieuler_excluded_disc_point(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "ieuler", "--nx", "40", "--ny", "40")
        rows = csv_readers.read_raster_csv(out)
        at_half = min(rows, key=lambda r: abs(r[0] - 0.5) + abs(r[1]))
        assert at_half[2] == 0

    def test_unknown_method_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "stability", "bdf7", "--nx", "8", "--ny", "8")
        assert code == 2 and out == ""
        assert "unknown method 'bdf7'" in err

    def test_svg_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "stability", "heun", "--nx", "32", "--ny", "32",
                "--format", "svg", "--out", str(a))
        run_cli(capsys, "stability", "heun", "--nx", "32", "--ny", "32",
                "--format", "svg", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")

    @pytest.mark.parametrize("method, flags, message", [
        ("rk4", ["--re-min", "nan"], "--re-min and --re-max must be finite"),
        ("bdf3", ["--re-min", "inf"], "--re-min and --re-max must be finite"),
        ("rk4", ["--im-max=-inf"], "--im-min and --im-max must be finite"),
        ("rk4", ["--re-min", "1", "--re-max", "0"],
         "--re-min and --re-max: the min must be below the max"),
        ("bdf3", ["--im-min", "2", "--im-max", "2"],
         "--im-min and --im-max: the min must be below the max"),
        ("rk4", ["--re-min=-1e308", "--re-max=1e308"],
         "--re-min and --re-max: the window is too wide for its cell centers"),
        ("bdf3", ["--im-min=1e307", "--im-max=1.5e308"],
         "--im-min and --im-max: the window is too wide for its cell centers"),
    ])
    def test_bad_window_is_usage_error(self, capsys, method, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "stability", method, *flags,
                                     "--nx", "4", "--ny", "4")
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("method, flags, nx", [
        ("rk4", ["--re-min=-1e307", "--re-max=1e307"], "4"),
        ("ab2", ["--re-min=-1e307", "--re-max=1e307"], "4"),
        ("rk4", ["--im-min=-2e305", "--im-max=2e305"], "200"),
        ("ab2", ["--im-min=-2e305", "--im-max=2e305"], "200"),
    ])
    def test_svg_window_must_fit_its_pixels(self, capsys, tmp_path, method, flags, nx):
        # the pixel map 800 (x - min) / (max - min) overflowed: x1="inf" from
        # rk4, a RuntimeWarning from ab2's locus; a CSV of the window is written
        axis = flags[0][2:4]
        svg = tmp_path / "w.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "stability", method, *flags, "--nx", nx,
                                     "--ny", "4", "--format", "svg", "--out", str(svg))
            assert run_cli(capsys, "stability", method, *flags, "--nx", nx, "--ny", "4")[0] == 0
        assert code == 2 and out == "" and not svg.exists()
        assert err == (f"usage error: --{axis}-min and --{axis}-max: "
                       "the window is too wide for the SVG's 800 pixels\n")

    def test_far_finite_window_is_drawn(self, capsys):
        # every cell center of a window far out on the real axis is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(capsys, "stability", "bdf3", "--re-min=1e307",
                                   "--re-max=2e307", "--nx", "4", "--ny", "4")
        assert code == 0
        assert all(math.isfinite(r[0]) for r in csv_readers.read_raster_csv(out))


class TestLocus:
    def test_ab2_csv(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "ab2", "--samples", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 17

    def test_one_step_method_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "locus", "rk4")
        assert code == 2

    def test_svg(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "bdf2", "--format", "svg")
        assert code == 0
        assert "<polyline" in out


# Every command that takes a method name reads theta:<v> through one parse, so
# every command rejects the same values.
BAD_THETAS = ["theta:2", "theta:-1", "theta:inf", "theta:1e400", "theta:nan", "theta:x"]
METHOD_COMMANDS = {
    "stability": ["stability", "{method}", "--nx", "8", "--ny", "8"],
    "locus": ["locus", "{method}"],
    "solve": ["solve", "decay", "{method}", "--h", "0.1"],
    "study": ["study", "decay", "{method}", "--h-list", "0.2,0.1"],
}


class TestThetaNames:
    @pytest.mark.parametrize("command", sorted(METHOD_COMMANDS))
    @pytest.mark.parametrize("method", BAD_THETAS)
    def test_bad_theta_is_usage_error_on_every_command(self, capsys, command, method):
        argv = [method if a == "{method}" else a for a in METHOD_COMMANDS[command]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(METHOD_COMMANDS))
    def test_theta_that_is_no_number_names_the_form(self, capsys, command):
        argv = ["theta:x" if a == "{method}" else a for a in METHOD_COMMANDS[command]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "usage error: theta:<v> needs a number v in [0, 1]\n"

    @pytest.mark.parametrize("command", sorted(METHOD_COMMANDS))
    def test_theta_in_range_runs_on_every_command_but_locus(self, capsys, command):
        argv = ["theta:0.3" if a == "{method}" else a for a in METHOD_COMMANDS[command]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == (2 if command == "locus" else 0)
        assert (out == "") == (command == "locus")


class TestStiffness:
    def test_stiff_sys_b(self, capsys):
        code, out, _ = run_cli(capsys, "stiffness", "stiff_sys_B")
        assert code == 0
        assert "stiffness_ratio: 1000.0" in out
        assert "euler_step_bound: 0.002" in out

    def test_kinetics2_infinite_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "stiffness", "kinetics2")
        assert code == 0
        assert "stiffness_ratio: inf" in out

    def test_mol_reports_heuristic(self, capsys):
        code, out, _ = run_cli(capsys, "stiffness", "mol_diffusion", "--param", "m=9")
        assert code == 0
        assert "half_dx_squared: 0.005" in out
        bound = [ln for ln in out.splitlines() if ln.startswith("euler_step_bound")]
        expected = 2.0 / (400.0 * math.sin(0.45 * math.pi) ** 2)
        assert float(bound[0].split(": ")[1]) == pytest.approx(expected, rel=1e-9)

    def test_requires_jacobian(self, capsys):
        code, _, _ = run_cli(capsys, "stiffness", "sqrt_nonunique")
        assert code == 2

    def test_triangular_with_repeated_diagonal(self, capsys):
        # at t0 Robertson's J is lower-triangular with 0 twice on the diagonal
        code, out, _ = run_cli(capsys, "stiffness", "robertson")
        assert code == 0
        assert out == ("problem: robertson\nt: 0.0\neigenvalue: -0.04+0j\n"
                       "eigenvalue: -0.0+0j\neigenvalue: 0.0+0j\nstiffness_ratio: inf\n")

    def test_general_nonsymmetric_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "stiffness", "robertson", "--y", "0.9,1e-5,0.1")
        assert code == 2 and out == ""
        assert err == "usage error: general nonsymmetric spectra above 2x2 are not supported\n"

    def test_defective_2x2(self, capsys):
        # at y = 0 the vdp Jacobian [[0, 1], [-1, mu]] has mu / 2 = 1 twice
        code, out, _ = run_cli(capsys, "stiffness", "vdp", "--param", "mu=2", "--y", "0,0")
        assert code == 0
        assert out == ("problem: vdp_mu2\nt: 0.0\neigenvalue: 1.0+0j\n"
                       "eigenvalue: 1.0+0j\nstiffness_ratio: 1.0\n")

    def test_non_finite_state_is_a_usage_error(self, capsys, monkeypatch):
        def no_call(t, y):
            raise AssertionError("the Jacobian must not be called")

        def get_problem(key, _build=cli.get_problem, **params):
            problem = _build(key, **params)
            problem.jacobian = no_call
            return problem

        monkeypatch.setattr(cli, "get_problem", get_problem)
        code, out, err = run_cli(capsys, "stiffness", "vdp", "--y", "inf,0")
        assert code == 2 and out == ""
        assert err == "usage error: --y entries must be finite\n"

    @pytest.mark.parametrize("problem, t", [("vdp", "nan"), ("decay", "inf"), ("decay", "-inf")])
    def test_non_finite_time_is_a_usage_error(self, capsys, problem, t):
        code, out, err = run_cli(capsys, "stiffness", problem, f"--t={t}")
        assert code == 2 and out == ""
        assert err == "usage error: --t must be finite\n"

    def test_state_of_the_wrong_length_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "stiffness", "robertson", "--y", "1,2")
        assert code == 2 and out == ""
        assert err == "usage error: --y needs 3 entries for robertson, got 2\n"

    def test_euler_step_bound_on_a_complex_spectrum(self, capsys):
        # vdp mu = 0.1 at y0: lam = -0.15 +- 0.9887i, where |1 + h lam| <= 1
        # up to h = -2 Re lam / |lam|^2 = 0.3, not 2 / |Re lam|
        code, out, _ = run_cli(capsys, "stiffness", "vdp", "--param", "mu=0.1")
        assert code == 0
        assert "euler_step_bound: 0.30000000000000004\n" in out
        bound = 0.30000000000000004
        problem = ok.get_problem("vdp", mu=0.1)
        eigs = eigen_decomposition(problem.jacobian(0.0, problem.y0)).eigenvalues
        assert all(lam.imag != 0.0 for lam in eigs)
        assert max(abs(1.0 + bound * (1.0 - 1e-6) * lam) for lam in eigs) < 1.0
        assert min(abs(1.0 + bound * (1.0 + 1e-6) * lam) for lam in eigs) > 1.0

    def test_non_finite_jacobian_is_a_numerical_error(self, capsys):
        # finite, but the vdp Jacobian entry -2 mu y1 y2 - 1 overflows; the
        # Jacobian computes on Python floats, which overflow to inf silently
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "stiffness", "vdp", "--y", "1e200,1e200")
        assert code == 3 and out == ""
        assert err == "error: Jacobian of vdp_mu1 is not finite at this state\n"


class TestDiffeq:
    def test_quartic_betas(self, capsys):
        code, out, _ = run_cli(capsys, "diffeq", "--coeffs=1,-5,6,4,-8",
                               "--initial=-1,-7,-7,7", "--kmax", "5")
        assert code == 0
        assert "multiplicity 3" in out
        assert "max_rel_discrepancy" in out
        worst = float(out.strip().splitlines()[-1].split(": ")[1])
        assert worst <= 1e-9

    def test_constant_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "diffeq", "--coeffs", "1,-1",
                               "--initial", "7", "--kmax", "3")
        assert code == 0
        assert "3,7.0,7.0" in out

    def test_y5_value(self, capsys):
        code, out, _ = run_cli(capsys, "diffeq", "--coeffs", "1,5,6",
                               "--initial", "0,2", "--kmax", "5")
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln.startswith("5,")]
        assert float(rows[0].split(",")[2]) == 422.0

    @pytest.mark.parametrize("coeffs, initial, message", [
        ("nan,1", "1", "coefficients must be finite"),
        ("1,-inf", "1", "coefficients must be finite"),
        ("1,1", "inf", "initial values must be finite"),
        ("1,5,6", "0,nan", "initial values must be finite"),
        ("1,1e308", "1", "leading coefficient is negligible"),
        ("0,1", "1", "leading coefficient is negligible"),
    ])
    def test_bad_equation_is_usage_error(self, capsys, coeffs, initial, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "diffeq", f"--coeffs={coeffs}",
                                     f"--initial={initial}", "--kmax", "3")
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("coeffs, initial, kmax, message", [
        # 10^k overflows from k = 309 on (it wrote rows of inf)
        ("1,-10", "1", "400", "k=309: closed form inf, recurrence inf"),
        # c_1 y_1 + c_0 y_0 overflows (it warned "overflow encountered in scalar add")
        ("1e308,1e308,1e308", "1,1", "10",
         "k=2: closed form -1.9999999999999998, recurrence -inf"),
    ])
    def test_overflow_is_a_numerical_error(self, capsys, coeffs, initial, kmax, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "diffeq", f"--coeffs={coeffs}",
                                     f"--initial={initial}", "--kmax", kmax)
        assert code == 3 and out == ""
        assert err == f"error: the solution is not finite at {message}\n"


# (argv at 1,000 samples, argv at 1,001 samples, what the message names)
SIZE_CASES = {
    "stability": (["stability", "euler", "--nx", "20", "--ny", "50"],
                  ["stability", "euler", "--nx", "7", "--ny", "143"], "raster would hold 7 x 143"),
    "stability-multistep": (["stability", "bdf2", "--nx", "50", "--ny", "20"],
                            ["stability", "bdf2", "--nx", "143", "--ny", "7"],
                            "raster would hold 143 x 7"),
    "locus": (["locus", "ab2", "--samples", "1000"], ["locus", "ab2", "--samples", "1001"],
              "locus would hold 1001"),
    "diffeq": (["diffeq", "--coeffs", "1,-1", "--initial", "7", "--kmax", "999"],
               ["diffeq", "--coeffs", "1,-1", "--initial", "7", "--kmax", "1000"],
               "recurrence would hold 1001"),
}


class TestSizeCaps:
    @pytest.mark.parametrize("case", sorted(SIZE_CASES))
    def test_size_past_the_cap_exits_three(self, capsys, monkeypatch, case):
        at_cap, past_cap, what = SIZE_CASES[case]
        monkeypatch.setattr(core, "MAX_SAMPLES", 1000)
        assert run_cli(capsys, *at_cap)[0] == 0
        code, out, err = run_cli(capsys, *past_cap)
        assert code == 3 and out == ""
        assert err == f"error: {what} samples (cap 1000)\n"


class TestProblems:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "problems", "list")
        assert code == 0
        assert "robertson" in out
        assert "[stiff,system]" in out
