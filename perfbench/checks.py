"""Output checks, each against a computation made apart from odekit or a
property the method must have; never against a stored copy of an earlier
output.  Each check returns a list of problems (empty when the output is
right).  Tolerances come from the leading error term of the method at the
operation's step size, with a stated margin, so the same checks serve the
measured sizes and the self-test's tiny ones.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

# Coefficients typed in here, not read from odekit.
BDF3_A = (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)
BDF3_BETA = 6.0 / 11.0
AB3_B = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)
ROBERTSON_T40 = np.array([0.7158270687, 9.185534765e-6, 0.2841637457])  # Hairer & Wanner II
SVG_MEMBER_FILL = "#9db8e8"
# Raster cells may disagree with the numpy verdict only this close to the
# boundary: | |R(z)| - 1 | for one-step rasters, | max|root| - 1 | for the
# root condition (Durand-Kerner versus numpy.roots accuracy).
ONE_STEP_BAND = 1e-9
ROOT_BAND = 1e-6


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _trajectory(path):
    data = _table(path)
    return data[:, 0], data[:, 1:]


def _grid_ok(t, t_end, h, problems):
    n = int(round(t_end / h))
    if len(t) != n + 1 or abs(t[-1] - t_end) > 1e-12 * t_end:
        problems.append(f"grid has {len(t)} nodes ending at {t[-1]!r}; expected {n + 1} ending at {t_end}")
        return False
    return True


def _bound(label, err, tol, problems):
    worst = float(np.max(err / tol)) if np.size(err) else 0.0
    if not worst <= 1.0:
        problems.append(f"{label}: error reaches {worst:.3g} x the tolerance")


class References:
    """Reference solutions computed once per run and reused by every pass."""

    def __init__(self, src):
        self.src = src
        self._cache = {}

    def get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def dog_jogger(self, h):
        """Pursuit with jogger (8t, 0), speed 10, dog from (60, 70), t in [0, 12]."""
        def rhs(t, y):
            dx, dy = 8.0 * t - y[0], -y[1]
            return (10.0 / math.hypot(dx, dy)) * np.array([dx, dy])

        def build():
            try:
                from scipy.integrate import solve_ivp
            except ImportError:
                return _own_rk4(rhs, np.array([60.0, 70.0]), 12.0, h / 4.0, stride=4)
            sol = solve_ivp(rhs, (0.0, 12.0), [60.0, 70.0], method="DOP853",
                            rtol=1e-12, atol=1e-12, dense_output=True)
            n = int(round(12.0 / h))
            return sol.sol(np.linspace(0.0, 12.0, n + 1)).T

        return self.get(("dog", h), build)

    def vdp(self, h, t_end, mu=100.0):
        """Van der Pol from (2, 0): scipy Radau, or without scipy a Richardson
        extrapolation of odekit's trbdf2 at h/2 and h/4."""
        def build():
            try:
                from scipy.integrate import solve_ivp
            except ImportError:
                return self._vdp_richardson(h, t_end, mu)
            sol = solve_ivp(
                lambda t, y: [y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0]],
                (0.0, t_end), [2.0, 0.0], method="Radau", rtol=1e-11, atol=1e-12,
                jac=lambda t, y: [[0.0, 1.0], [-2.0 * mu * y[0] * y[1] - 1.0, mu * (1.0 - y[0] ** 2)]],
                dense_output=True)
            return sol.sol(np.linspace(0.0, t_end, int(round(t_end / h)) + 1)).T

        return self.get(("vdp", h, t_end), build)

    def _vdp_richardson(self, h, t_end, mu):
        import sys

        sys.path.insert(0, str(self.src))
        from odekit import get_problem, integrate

        problem = get_problem("vdp", mu=mu, t_end=t_end)
        half = integrate(problem, "trbdf2", h=h / 2.0).states[::2]
        quarter = integrate(problem, "trbdf2", h=h / 4.0).states[::4]
        return (4.0 * quarter - half) / 3.0


def _own_rk4(rhs, y0, t_end, h, stride):
    n = int(round(t_end / h))
    y = y0.copy()
    out = [y.copy()]
    for k in range(n):
        t = k * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y.copy())
    return np.array(out[::stride])


# ---------------------------------------------------------------------------
# explicit_march


def check_decay_euler(op, files, rec, refs):
    h = op["params"]["h"]
    t, y = _trajectory(files["out"])
    problems = []
    if _grid_ok(t, 5.0, h, problems):
        # global error of Euler on y' = -y: h t e^{-t} / 2 to leading order
        ratio = (np.exp(-t[1:]) - y[1:, 0]) / (h * t[1:] * np.exp(-t[1:]) / 2.0)
        _bound("error / (h t e^-t / 2) - 1", np.abs(ratio - 1.0), 0.01, problems)
    return problems


def check_dog_jogger_rk4(op, files, rec, refs):
    h = op["params"]["h"]
    t, y = _trajectory(files["out"])
    problems = []
    if _grid_ok(t, 12.0, h, problems):
        ref = refs.dog_jogger(h)
        # rk4 error ~2.7e3 h^4 on this pursuit; the tolerance allows 40x that
        _bound("distance from the reference", np.abs(y - ref), 1e5 * h ** 4 + 1e-9, problems)
        # central-difference speed differs from w by O(h^2) (chord vs arc)
        speed = np.hypot(*(y[2:] - y[:-2]).T) / (t[2:] - t[:-2])
        _bound("dog speed - w", np.abs(speed - 10.0), 10.0 * h ** 2, problems)
    return problems


def check_decay_ab4(op, files, rec, refs):
    h = op["params"]["h"]
    t, y = _trajectory(files["out"])
    problems = []
    if _grid_ok(t, 5.0, h, problems):
        # leading AB4 error (251/720) h^4 t e^{-t} <= 0.13 h^4, plus round-off
        _bound("error against e^-t", np.abs(y[:, 0] - np.exp(-t)), h ** 4 + 1e-13, problems)
    return problems


def check_rational_rk4_study(op, files, rec, refs):
    rows = np.loadtxt(files["out"], delimiter=",", skiprows=1, ndmin=2,
                      converters={3: lambda s: float("nan") if s.strip() == "-" else float(s)})
    hs, abs_err, rel_err, order = rows.T
    problems = []
    if not np.allclose(hs, op["params"]["h_list"], rtol=1e-15, atol=0.0):
        problems.append(f"step sizes {hs.tolist()} differ from the requested list")
        return problems
    if not np.all(abs_err > 0) or not np.all(np.diff(abs_err) < 0):
        problems.append("errors are not positive and decreasing")
        return problems
    # exact solution t/(1+t^2) at t = 2 is 0.4
    _bound("rel_err - abs_err/0.4", np.abs(rel_err - abs_err / 0.4), 1e-15 * rel_err, problems)
    observed = np.log2(abs_err[:-1] / abs_err[1:])
    _bound("order column against log2 of the error ratios", np.abs(order[1:] - observed), 1e-12, problems)
    _bound("|order - 4| on every grid", np.abs(observed - 4.0), 0.6, problems)
    _bound("|order - 4| on the finest grid", np.abs(observed[-1:] - 4.0), 0.25, problems)
    return problems


def check_adapt_demo_ode12(op, files, rec, refs):
    tol = op["params"]["tol"]
    t, y = _trajectory(files["out"])
    log = _table(files["step_log"])
    accepted = log[:, 3] == 1
    problems = []
    if np.any(log[accepted, 2] >= tol):
        problems.append("an accepted step has an error estimate at or above tol")
    if np.any(log[~accepted, 2] < tol):
        problems.append("a rejected step has an error estimate below tol")
    if len(t) != int(accepted.sum()) + 1 or t[-1] != 3.0:
        problems.append(f"{len(t)} samples ending at t={t[-1]!r} for {int(accepted.sum())} accepted steps")
        return problems
    if np.any(np.abs(log[accepted, 0] - t[:-1]) > 1e-12):
        problems.append("accepted steps do not start at the trajectory's sample times")
    # exact solution: y^3/3 + 0.01 y = t
    _bound("y^3/3 + 0.01y - t", np.abs(y[:, 0] ** 3 / 3.0 + 0.01 * y[:, 0] - t), 10.0 * tol, problems)
    return problems


# ---------------------------------------------------------------------------
# stiff_linear


def check_mol_diffusion(op, files, rec, refs):
    h, m = op["params"]["h"], op["params"]["m"]
    t, y = _trajectory(files["out"])
    problems = []
    if _grid_ok(t, 0.5, h, problems):
        dx = 1.0 / (m + 1)
        lam1 = -(4.0 / dx ** 2) * math.sin(math.pi * dx / 2.0) ** 2
        exact = np.exp(lam1 * t)[:, None] * np.sin(math.pi * dx * np.arange(1, m + 1))[None, :]
        # relative error of a second-order method grows like C h^2 |lam1|^3 t,
        # with C = 0.33 for bdf2 and 0.04 for trbdf2; the tolerance takes C = 1
        tol = (h * h * abs(lam1) ** 3 * t + 1e-9) * np.exp(lam1 * t)
        _bound("error against e^(lam1 t) sin(pi x)", np.abs(y - exact), tol[:, None], problems)
    return problems


def check_stiff_sys_B(op, files, rec, refs):
    h = op["params"]["h"]
    t, y = _trajectory(files["out"])
    problems = []
    if not _grid_ok(t, 10.0, h, problems):
        return problems
    a = np.array([[-2.0, 1.0], [998.0, -999.0]])
    # forcing g(t) = gs sin t + gc cos t; particular p = c sin t + d cos t
    # solves c = A d + gc and -d = A c + gs
    gs, gc = np.array([2.0, -999.0]), np.array([0.0, 999.0])
    eye = np.eye(2)
    big = np.block([[eye, -a], [a, eye]])
    cd = np.linalg.solve(big, np.concatenate([gc, -gs]))
    c, d = cd[:2], cd[2:]
    lam, vec = np.linalg.eig(a)
    coef = np.linalg.solve(vec, np.array([2.0, 3.0]) - d)
    exact = ((vec * coef) @ np.exp(np.outer(lam, t))).real.T
    exact += np.outer(np.sin(t), c) + np.outer(np.cos(t), d)
    # Gauss-2 is fourth order: error ~3 h^4 (3.3e-12 at h = 1e-3), ~600x below the tolerance
    _bound("error against the eigen-solution", np.abs(y - exact), 1e3 * h ** 4 + 1e-9, problems)
    return problems


def check_lambda_cos(op, files, rec, refs):
    p = op["params"]
    h, lam, y0 = p["h"], p["lam"], p["y0"]
    t, y = _trajectory(files["out"])
    problems = []
    if not _grid_ok(t, 2.0, h, problems):
        return problems
    exact = np.exp(lam * t) * (y0 - 1.0) + np.cos(t)
    z = h * lam
    amp = abs(1.0 / (1.0 - z)) if p["method"] == "ieuler" else abs((1.0 + z / 2) / (1.0 - z / 2))
    k = np.arange(len(t))
    # transient: numerical (y0-1) R^k against exact (y0-1) e^{lam t};
    # smooth part: O(h/|lam|) for both methods once the transient is gone
    tol = abs(y0 - 1.0) * (amp ** k + np.exp(lam * t)) + 10.0 * h / abs(lam) + 1e-12
    _bound("error against e^(lam t)(y0-1) + cos t", np.abs(y[:, 0] - exact), tol, problems)
    return problems


# ---------------------------------------------------------------------------
# stiff_nonlinear


def check_vdp(op, files, rec, refs):
    p = op["params"]
    h, t_end = p["h"], p["t_end"]
    t, y = _trajectory(files["out"])
    problems = []
    if not _grid_ok(t, t_end, h, problems):
        return problems
    ref = refs.vdp(h, t_end, p["mu"])
    scale = np.max(np.abs(ref), axis=0)
    err = np.abs(y - ref)
    layer = t < 0.1
    # the initial layer (time scale 1/300) is resolved to O(h); after it
    # trbdf2 is second order: 1e-3 h^2 relative is >60x the error at h=1e-3
    _bound("error in the initial layer", err[layer], 10.0 * h * scale, problems)
    _bound("error after the initial layer", err[~layer], (1e-3 * h ** 2 + 1e-11) * scale, problems)
    return problems


def check_robertson(op, files, rec, refs):
    h = op["params"]["h"]
    t, y = _trajectory(files["out"])
    problems = []
    if not _grid_ok(t, 40.0, h, problems):
        return problems
    _bound("y1+y2+y3 - 1", np.abs(y.sum(axis=1) - 1.0), 1e-10, problems)
    _bound("relative error at t=40", np.abs(y[-1] / ROBERTSON_T40 - 1.0), 1e-6, problems)
    return problems


# ---------------------------------------------------------------------------
# stability_maps


def _centers(bounds, n):
    re0, re1, im0, im1 = bounds
    return (re0 + (np.arange(n) + 0.5) * (re1 - re0) / n,
            im0 + (np.arange(n) + 0.5) * (im1 - im0) / n)


def _bdf3_max_root(z):
    coeffs = [1.0 - z * BDF3_BETA] + [-a for a in BDF3_A]
    return float(np.max(np.abs(np.roots(coeffs))))


def check_stability_rk4(op, files, rec, refs):
    n, bounds = op["params"]["n"], op["params"]["bounds"]
    rows = _table(files["out"])
    problems = []
    res, ims = _centers(bounds, n)
    grid_re, grid_im = np.meshgrid(res, ims)
    if len(rows) != n * n or not (np.allclose(rows[:, 0], grid_re.ravel(), rtol=0, atol=1e-12)
                                  and np.allclose(rows[:, 1], grid_im.ravel(), rtol=0, atol=1e-12)):
        problems.append("raster rows are not the cell centers in row-major order")
        return problems
    z = rows[:, 0] + 1j * rows[:, 1]
    mag = np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)
    wrong = (rows[:, 2] == 1) != (mag <= 1.0)
    outside = wrong & (np.abs(mag - 1.0) > ONE_STEP_BAND)
    if outside.any():
        problems.append(f"{int(outside.sum())} cells disagree with |R(z)| <= 1 away from the boundary")
    return problems


def check_stability_bdf3_svg(op, files, rec, refs):
    n, bounds = op["params"]["n"], op["params"]["bounds"]
    svg = Path(files["out"]).read_text()
    problems = []
    cw = 800.0 / n
    member = np.zeros((n, n), dtype=bool)
    for x, y in re.findall(r'<rect x="([-0-9.]+)" y="([-0-9.]+)" width="[0-9.]+" height="[0-9.]+" fill="'
                           + SVG_MEMBER_FILL + '"/>', svg):
        member[int(round((800.0 - float(y)) / cw - 1.0)), int(round(float(x) / cw))] = True
    res, ims = _centers(bounds, n)
    wrong = 0
    for iy, im in enumerate(ims):
        for ix, re_ in enumerate(res):
            top = _bdf3_max_root(complex(re_, im))
            if member[iy, ix] != (top <= 1.0) and abs(top - 1.0) > ROOT_BAND:
                wrong += 1
    if wrong:
        problems.append(f"{wrong} cells disagree with the numpy.roots root condition")
    # the locus overlay: z(theta) = rho(e^{i theta}) / sigma(e^{i theta}), 256 samples
    found = re.search(r'<polyline points="([^"]*)"', svg)
    if found is None:
        problems.append("no boundary-locus polyline")
        return problems
    pts = np.array([[float(v) for v in p.split(",")] for p in found.group(1).split()])
    r = np.exp(2j * np.pi * np.arange(256) / 256)
    zs = (r ** 3 - BDF3_A[0] * r ** 2 - BDF3_A[1] * r - BDF3_A[2]) / (BDF3_BETA * r ** 3)
    re0, re1, im0, im1 = bounds
    want = np.column_stack([800.0 * (zs.real - re0) / (re1 - re0),
                            800.0 - 800.0 * (zs.imag - im0) / (im1 - im0)])
    if pts.shape != want.shape:
        problems.append(f"locus has {len(pts)} points, expected {len(want)}")
    else:
        _bound("locus pixel offset", np.abs(pts - want), 1e-3, problems)
    return problems


def check_locus_ab3(op, files, rec, refs):
    samples = op["params"]["samples"]
    rows = _table(files["out"])
    problems = []
    if len(rows) != samples:
        problems.append(f"{len(rows)} locus points for {samples} samples")
        return problems
    theta = rows[:, 0]
    _bound("theta_j - 2 pi j / samples", np.abs(theta - 2 * np.pi * np.arange(samples) / samples), 1e-12, problems)
    r = np.exp(1j * theta)
    z = rows[:, 1] + 1j * rows[:, 2]
    rho = r ** 3 - r ** 2
    sigma = AB3_B[0] * r ** 2 + AB3_B[1] * r + AB3_B[2]
    resid = np.abs(rho - z * sigma)
    _bound("rho(r) - z sigma(r)", resid, 1e-12 * (np.abs(rho) + np.abs(z * sigma)) + 1e-14, problems)
    return problems


def check_diffeq(op, files, rec, refs):
    p = op["params"]
    lines = Path(files["out"]).read_text().splitlines()
    problems = []
    mults = [int(ln.rsplit(" ", 1)[1]) for ln in lines if ln.startswith("root:")]
    if sum(mults) != len(p["coeffs"]) - 1:
        problems.append(f"root multiplicities {mults} do not add up to the order")
    start = lines.index("k,closed_form,recurrence") + 1
    rows = [ln.split(",") for ln in lines[start:start + p["kmax"] + 1]]
    # exact rational recurrence c_p y_k + ... + c_0 y_{k-p} = 0
    c = [Fraction(v) for v in p["coeffs"]]
    ys = [Fraction(v) for v in p["initial"]]
    while len(ys) <= p["kmax"]:
        ys.append(-sum(c[j] * ys[-j] for j in range(1, len(c))) / c[0])
    if [int(r[0]) for r in rows] != list(range(p["kmax"] + 1)):
        problems.append("closed-form table does not list k = 0..kmax")
        return problems
    closed = np.array([float(r[1]) for r in rows])
    exact = np.array([float(v) for v in ys])
    _bound("closed form against the recurrence", np.abs(closed - exact), 1e-9 * np.maximum(1.0, np.abs(exact)), problems)
    return problems


def check_classify(op, files, rec, refs):
    a_stable, alpha_deg, l_stable = op["params"]["expect"]
    got = rec["result"]
    problems = []
    if got["a_stable"] != a_stable:
        problems.append(f"A-stable {got['a_stable']}, expected {a_stable}")
    if abs(math.degrees(got["alpha"]) - alpha_deg) > 0.5:
        problems.append(f"alpha {math.degrees(got['alpha']):.3f} deg, expected {alpha_deg} +- 0.5")
    if got["l_stable"] != l_stable:
        problems.append(f"L-stable {got['l_stable']}, expected {l_stable}")
    return problems


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")}


def check_op(op, pass_dir, rec, refs):
    """Problems with one operation's outcome and outputs ([] when right)."""
    if rec.get("rc") != 0:
        return [rec.get("error") or f"exit code {rec.get('rc')}"]
    files = {k: str(Path(pass_dir) / v) for k, v in op["files"].items()}
    try:
        return CHECKS[op["check"]](op, files, rec, refs)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
