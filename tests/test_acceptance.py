"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Every tolerance is pinned here.  Two reference values quoted with the
source's acceptance criteria are arithmetically inconsistent with the
methods they describe; the sub-checks assert the values that independent
hand computation gives instead, with the conflicting computation recorded
here:

* criterion 4 quoted the second trapezoidal value on ``lambda_cos``
  (lam = -1e4, y0 = 1.5, h = 0.2) as 2.38.  The closed-form trapezoidal
  update y_{k+1} = [(1 + h lam/2) y_k + (h/2)(g(t_k) + g(t_{k+1}))]
  / (1 - h lam/2), with g(t) = -lam cos t - sin t, gives y_1 = 0.48107 and
  y_2 = 1.41907.  Since h lam = -2000 this is y_{k+1} ~= -y_k + cos t_{k+1}
  + cos t_k, so y_2 ~= -0.481 + cos 0.2 + cos 0.4 = 1.42; the quoted 2.38
  is +0.481 + 1.90, the recurrence with its sign dropped, and would need
  |R(z)| ~= 2.9 where criterion 5 pins R(z) = -999/1001.  The sub-check
  asserts y_2 ~ 1.42 within the unchanged tolerance 0.05.
* criterion 8 quoted "order-4 Adams-Moulton unstable at z = -1".  At
  z = -1 its characteristic polynomial is (33 r^3 - 5 r^2 - 5 r + 1)/24
  with roots 1/3, 0.2240 and -0.4058, all strictly inside the unit circle,
  so the method is absolutely stable there: its real stability interval
  reaches to about -3 (Hairer & Wanner, Solving ODEs II, section V.1).  The
  sub-checks assert stability at z = -1 and instability at z = -4, which
  keeps what the quoted probe was meant to show: the Adams-Moulton region
  is bounded, unlike the BDF1/BDF2 regions probed next.
"""
import math

import numpy as np

import odekit as ok
from odekit import multistep as ms
from odekit.driver import run_study, stability_function
from odekit.linalg import linear_exact_solution
from odekit.stability import (
    DifferenceEquation,
    difference_recurrence,
    evaluate_difference_solution,
    classify_stability,
    is_abs_stable,
    solve_difference_equation,
)
from odekit.steppers import GAUSS2, rk_stability_value
from tests.conftest import bdf_table_method, rk4_step, trajectory_max_error, without_jacobian

H_TABLE = [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]


def report(num, checks):
    failed = [name for name, flag in checks if not flag]
    verdict = "PASS" if not failed else "FAIL"
    suffix = "" if not failed else f"  (failing sub-checks: {', '.join(failed)})"
    print(f"criterion {num:02d}: {verdict}{suffix}")
    assert not failed, f"criterion {num} failed sub-checks: {failed}"


def test_criterion_01_decay_error_table(decay):
    y_table = [3.778e-3, 5.154e-3, 5.921e-3, 6.323e-3, 6.529e-3, 6.633e-3]
    e_table = [2.960e-3, 1.584e-3, 8.174e-4, 4.149e-4, 2.090e-4, 1.049e-4]
    order_table = [0.90, 0.95, 0.98, 0.99, 0.99]
    rows = run_study(decay, "euler", H_TABLE)
    checks = []
    for row, y_ref, e_ref in zip(rows, y_table, e_table):
        checks.append((f"y_N(h={row.h:g})", abs(row.y_end[0] - y_ref) <= 5e-4 * y_ref))
        checks.append((f"e_N(h={row.h:g})", abs(row.abs_err - e_ref) <= 5e-4 * e_ref))
    for row, o_ref in zip(rows[1:], order_table):
        checks.append((f"order(h={row.h:g})", abs(row.order - o_ref) <= 0.01))
    b = 5.0
    bound1 = [14.74, 7.37, 3.69, 1.84, 0.92, 0.46]
    bound2 = [0.5, 0.25, 0.12, 0.06, 0.03, 0.02]
    for h, b1, b2 in zip(H_TABLE, bound1, bound2):
        # two-digit agreement with the displayed reference values
        checks.append((f"bound1(h={h:g})", round(0.5 * h * (math.exp(b) - 1.0), 2) == b1))
        checks.append((f"bound2(h={h:g})", round(0.5 * b * h, 2) == b2))
    report(1, checks)


def test_criterion_02_growth_error_table(growth):
    e_table = [5.302e1, 3.102e1, 1.691e1, 8.849, 4.529, 2.291]
    order_table = [0.77, 0.88, 0.93, 0.97, 0.98]
    rows = run_study(growth, "euler", H_TABLE)
    checks = []
    for row, e_ref in zip(rows, e_table):
        checks.append((f"e_N(h={row.h:g})", abs(row.abs_err - e_ref) <= 5e-4 * e_ref))
    for row, o_ref in zip(rows[1:], order_table):
        checks.append((f"order(h={row.h:g})", abs(row.order - o_ref) <= 0.01))
    report(2, checks)


def test_criterion_03_stability_cliff():
    problem = ok.get_problem("lambda_cos", lam=-2100.0)
    stable = ok.march(problem, "euler", 0.00095)
    err, _ = ok.error_at_end(stable, problem)
    diverging = ok.march(problem, "euler", 0.001)
    checks = [
        ("stable run converged", not stable.stats.diverged and err <= 1e-6),
        ("unstable run flagged", diverging.stats.diverged),
        ("unstable run magnitude", abs(diverging.final_state[0]) > 1e50),
        ("threshold bracketed", 0.00095 < 2.0 / 2100.0 < 0.001),
    ]
    report(3, checks)


def test_criterion_04_stiff_implicit_comparison():
    problem = ok.get_problem("lambda_cos", lam=-1e4, y0=1.0, t_end=10.0)

    def traj_err(method):
        traj = ok.march(problem, method, 0.2)
        return max(abs(traj.states[k, 0] - math.cos(traj.times[k]))
                   for k in range(len(traj.times)))

    perturbed = ok.get_problem("lambda_cos", lam=-1e4, y0=1.5, t_end=10.0)
    trap = ok.march(perturbed, "trap", 0.2)
    ieul = ok.march(perturbed, "ieuler", 0.2)
    dev1 = trap.states[1, 0] - math.cos(trap.times[1])
    dev2 = trap.states[2, 0] - math.cos(trap.times[2])
    checks = [
        ("implicit Euler inf-error", abs(traj_err("ieuler") - 9.998e-6) <= 0.05 * 9.998e-6),
        ("trapezoidal inf-error", abs(traj_err("trap") - 3.346e-7) <= 0.05 * 3.346e-7),
        ("trapezoidal y1 ~ 0.48", abs(trap.states[1, 0] - 0.48) <= 0.05),
        # the source quoted 2.38, the recurrence with its sign dropped; the
        # trapezoidal update gives 1.41907 (see module docstring)
        ("trapezoidal y2 ~ 1.42", abs(trap.states[2, 0] - 1.42) <= 0.05),
        ("sign-alternating deviation", dev1 * dev2 < 0.0),
        ("implicit Euler second step", abs(ieul.states[2, 0] - math.cos(ieul.times[2])) <= 0.01),
    ]
    report(4, checks)


def test_criterion_05_amplification_constants():
    z = -1e4 * 0.2
    r_ieuler = stability_function("ieuler")(z)
    r_trap = stability_function("trap")(z)
    checks = [
        ("implicit Euler 1/2001", abs(r_ieuler - 1.0 / 2001.0) <= 1e-15),
        ("trapezoidal -999/1001", abs(r_trap - (-999.0 / 1001.0)) <= 1e-15),
    ]
    # cross-check: one actual integration step realizes the same factors
    f = lambda t, y: z / 0.2 * y
    jac = lambda t, y: np.array([[z / 0.2]])
    from tests.conftest import implicit_euler_step, trapezoidal_step

    y1 = implicit_euler_step(f, 0.2, np.array([1.0]), 0.2, jacobian=jac)
    y2 = trapezoidal_step(f, 0.0, np.array([1.0]), 0.2, jacobian=jac)
    checks.append(("step-level ieuler", abs(y1[0] - 1.0 / 2001.0) <= 1e-12))
    checks.append(("step-level trap", abs(y2[0] + 999.0 / 1001.0) <= 1e-12))
    report(5, checks)


def test_criterion_06_coefficient_exactness():
    checks = []
    for q in range(1, 7):
        gen, tab = ms.bdf_coefficients(q), bdf_table_method(q)
        close = (np.max(np.abs(gen.a - tab.a)) <= 1e-12
                 and np.max(np.abs(gen.b - tab.b)) <= 1e-12)
        checks.append((f"bdf{q} generated == table", close))
        checks.append((f"bdf{q} consistency", ms.certifies_order(gen, q)))
    ab_expected = {1: [1.0], 2: [1.5, -0.5], 3: [23 / 12, -16 / 12, 5 / 12],
                   4: [55 / 24, -59 / 24, 37 / 24, -9 / 24]}
    for q, weights in ab_expected.items():
        m = ms.ab_method(q)
        checks.append((f"ab{q} weights", np.allclose(m.b[1:], weights, atol=0.0)))
        checks.append((f"ab{q} consistency", ms.certifies_order(m, q)))
    am_expected = {0: [1.0, 0.0], 1: [0.5, 0.5], 2: [5 / 12, 8 / 12, -1 / 12],
                   3: [9 / 24, 19 / 24, -5 / 24, 1 / 24]}
    for q, weights in am_expected.items():
        m = ms.am_method(q)
        checks.append((f"am{q} weights", np.allclose(m.b, weights, atol=0.0)))
        checks.append((f"am{q} consistency", ms.certifies_order(m, q + 1)))
    report(6, checks)


def test_criterion_07_simpson_identity():
    out = rk4_step(lambda t, y: np.array([t * t]), 0.0, np.zeros(1), 1.0)
    report(7, [("rk4 one step == 1/3", abs(out[0] - 1.0 / 3.0) <= 1e-15)])


def test_criterion_08_stability_classification_suite():
    rng = np.random.default_rng(0)
    checks = []

    r_euler = stability_function("euler")
    ab1 = ms.ab_method(1)
    mismatches = 0
    for _ in range(1000):
        z = complex(rng.uniform(-3, 1), rng.uniform(-2, 2))
        disc = abs(1.0 + z) <= 1.0
        if (abs(r_euler(z)) <= 1.0) != disc or is_abs_stable(ab1, z) != disc:
            mismatches += 1
    checks.append(("euler region == unit disc about -1", mismatches == 0))

    c_ie = classify_stability(stability_function("ieuler"))
    c_tr = classify_stability(stability_function("trap"))
    checks.append(("implicit Euler A-stable", c_ie.a_stable))
    checks.append(("implicit Euler L-stable", bool(c_ie.l_stable)))
    checks.append(("trapezoidal A-stable", c_tr.a_stable))
    checks.append(("trapezoidal not L-stable", not c_tr.l_stable))

    worst = 0.0
    for _ in range(1000):
        z = complex(-(10.0 ** rng.uniform(-2, 5)),
                    (10.0 ** rng.uniform(-2, 5)) * rng.choice([-1.0, 1.0]))
        worst = max(worst, abs(rk_stability_value(GAUSS2, z)))
    checks.append(("gauss2 |R|<=1 on left half-plane", worst <= 1.0 + 1e-12))

    checks.append(("ab3 unstable at z=-1", not is_abs_stable(ms.ab_method(3), -1 + 0j)))
    # the source quoted "unstable at z=-1", but the order-4 AM roots there are
    # 1/3, 0.224, -0.406 (see module docstring); its real interval ends near -3
    checks.append(("am3 stable at z=-1", is_abs_stable(ms.am_method(3), -1 + 0j)))
    checks.append(("am3 unstable at z=-4", not is_abs_stable(ms.am_method(3), -4 + 0j)))

    bdf_ok = True
    bdf1, bdf2 = ms.bdf_coefficients(1), ms.bdf_coefficients(2)
    for _ in range(1000):
        z = complex(-(10.0 ** rng.uniform(-2, 5)),
                    (10.0 ** rng.uniform(-2, 5)) * rng.choice([-1.0, 1.0]))
        if not (is_abs_stable(bdf1, z) and is_abs_stable(bdf2, z)):
            bdf_ok = False
            break
    checks.append(("bdf1/bdf2 stable on left half-plane", bdf_ok))
    report(8, checks)


def test_criterion_09_difference_equations():
    eq = DifferenceEquation([1.0, -5.0, 6.0, 4.0, -8.0], [-1.0, -7.0, -7.0, 7.0])
    sol = solve_difference_equation(eq)
    checks = []
    by_mult = {int(m): i for i, m in enumerate(sol.roots.multiplicities)}
    beta_simple = sol.beta[by_mult[1]][0]
    beta_triple = sol.beta[by_mult[3]]
    expected_triple = [-2.0, -2.0, 1.0]
    checks.append(("beta1 == 1", abs(beta_simple - 1.0) <= 1e-9))
    checks.append(("beta2..4 == (-2,-2,1)",
                   max(abs(b - e) for b, e in zip(beta_triple, expected_triple)) <= 1e-9))
    initial_ok = all(
        abs(evaluate_difference_solution(sol, k) - v) <= 1e-8
        for k, v in enumerate([-1.0, -7.0, -7.0, 7.0])
    )
    checks.append(("reproduces initial values", initial_ok))

    rng = np.random.default_rng(17)
    root_pool = [-3, -2, -1, 1, 2, 3]
    random_ok = True
    for _ in range(200):
        p = int(rng.integers(1, 5))
        roots = rng.choice(root_pool, size=p)
        coeffs = np.array([1.0])
        for r in roots:
            coeffs = np.convolve(coeffs, [1.0, -float(r)])
        initial = rng.integers(-5, 6, size=p).astype(float)
        seq_eq = DifferenceEquation(coeffs, initial)
        seq_sol = solve_difference_equation(seq_eq)
        rec = difference_recurrence(seq_eq, 25)
        for k in range(26):
            closed = evaluate_difference_solution(seq_sol, k)
            if abs(closed - rec[k]) > 1e-6 * max(1.0, abs(rec[k])):
                random_ok = False
    checks.append(("200 random recurrences match closed form", random_ok))
    report(9, checks)


def test_criterion_10_mol_diffusion():
    problem = ok.get_problem("mol_diffusion", m=9)
    stable = ok.march(problem, "euler", 0.005)
    stable_err = trajectory_max_error(stable, problem)

    long_problem = ok.get_problem("mol_diffusion", m=9, t_end=20.0)
    unstable = ok.march(long_problem, "euler", 0.0052)

    rows = run_study(problem, "bdf3", [0.1, 0.05, 0.025, 0.0125, 0.00625])
    checks = [
        ("euler stable at h=0.005", not stable.stats.diverged and stable_err < 0.02),
        ("euler diverges at h=0.0052", unstable.stats.diverged),
        ("bdf3 observed order 3", abs(rows[-1].order - 3.0) <= 0.2),
    ]
    report(10, checks)


def test_criterion_11_order_portfolio(decay):
    rational = ok.get_problem("rational")
    nonsmooth = ok.get_problem("nonsmooth")
    checks = []

    def max_err_orders(problem, method):
        errs = []
        for h in H_TABLE:
            traj = ok.integrate(problem, method, h=h)
            errs.append(trajectory_max_error(traj, problem))
        return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]

    heun_orders = max_err_orders(rational, "heun")
    rk4_orders = max_err_orders(rational, "rk4")
    checks.append(("rational rk2 order 2", abs(heun_orders[-1] - 2.0) <= 0.05))
    checks.append(("rational rk4 order 4", abs(rk4_orders[-1] - 4.0) <= 0.1))

    for method, target, tol in (("ab3", 3.0, 0.1), ("bdf3", 3.0, 0.1), ("gauss2", 4.0, 0.1)):
        rows = run_study(decay, method, H_TABLE)
        checks.append((f"decay {method} order {target:g}", abs(rows[-1].order - target) <= tol))
    # predictor + one fixed corrector sweep: no solve-tolerance error floor
    am3_rows = run_study(without_jacobian(decay), "am3", H_TABLE, predictor=ms.ab_method(3),
                         corrections=1)
    checks.append(("decay am3 order >= 3", am3_rows[-1].order >= 3.0))

    ns_rows = run_study(nonsmooth, "heun", [0.1, 0.05, 0.025, 0.0125, 0.00625])
    checks.append(("nonsmooth rk2 order < 1.5", ns_rows[-1].order < 1.5))
    report(11, checks)


def test_criterion_12_adaptive_controller():
    problem = ok.get_problem("adapt_demo")
    tol = 1e-3
    traj = ok.ode12_solve(problem, tol)
    accepted = [r for r in traj.step_log if r.accepted]
    early = [r.h for r in accepted if r.t < 0.3]
    late = [r.h for r in accepted if 2.0 <= r.t]
    checks = [
        ("accepted estimates below tol", all(r.e < tol for r in accepted)),
        ("smaller steps at the front", float(np.mean(early)) < float(np.mean(late))),
        ("rhs budget = 2 per attempt", traj.stats.rhs_evals == 2 * len(traj.step_log)),
        ("lands exactly on t_end", traj.final_time == problem.t_end),
    ]
    report(12, checks)


def test_criterion_13_kinetics_closed_form():
    a = np.array([[-2.0, 1.0], [2.0, -1.0]])
    y0 = np.array([5.0, 2.0])

    def reference(t):
        decayed = math.exp(-3.0 * t)
        return np.array([
            5.0 / 3.0 * (2.0 * decayed + 1.0) + 2.0 / 3.0 * (-decayed + 1.0),
            5.0 / 3.0 * (-2.0 * decayed + 2.0) + 2.0 / 3.0 * (decayed + 2.0),
        ])

    checks = []
    for t in (0.0, 1.0, 3.0):
        got = linear_exact_solution(a, y0, t)
        checks.append((f"component formulas at t={t:g}",
                       float(np.max(np.abs(got - reference(t)))) <= 1e-10))
    limit = linear_exact_solution(a, y0, 20.0)
    checks.append(("steady state (7/3, 14/3)",
                   float(np.max(np.abs(limit - np.array([7 / 3, 14 / 3])))) <= 1e-8))

    problem = ok.get_problem("kinetics2")
    traj = ok.march(problem, "euler", 0.01)
    checks.append(("euler h=0.01 tracks within 0.05",
                   trajectory_max_error(traj, problem) <= 0.05))
    report(13, checks)


def test_criterion_14_pursuit_sanity():
    problem = ok.get_problem("dog_jogger", w=10.0, path="line")
    jogger = problem.meta["jogger"]

    def distances(traj):
        out = []
        for k in range(len(traj.times)):
            jx, jy = jogger(traj.times[k])
            out.append(math.hypot(traj.states[k, 0] - jx, traj.states[k, 1] - jy))
        return np.array(out)

    run = ok.march(problem, "rk4", 1e-3)
    dist = distances(run)
    oracle = ok.march(problem, "rk4", 1e-4)
    oracle_final = distances(oracle)[-1]
    monotone_fraction = float(np.mean(np.diff(dist) < 0.0))
    checks = [
        ("final distance below initial", dist[-1] < dist[0]),
        ("distance decreases on >=95% of steps", monotone_fraction >= 0.95),
        ("agrees with h=1e-4 oracle within 1%",
         abs(dist[-1] - oracle_final) <= 0.01 * oracle_final),
    ]
    report(14, checks)
