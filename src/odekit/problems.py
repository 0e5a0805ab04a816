"""Benchmark problem catalog.

Each entry builds an ``IvpProblem`` with whatever extras are known in
closed form: exact solutions, Jacobians, and total time derivatives for
the Taylor steppers.  Parameter defaults follow the experiments the
solvers are benchmarked on.

Callbacks that read the state entry by entry (robertson, vdp, dog_jogger,
lambda_cos) compute on Python floats taken once with ``y.tolist()`` or
``y.item()``: numpy's bits at a fraction of its cost, and inf or NaN
without a RuntimeWarning.  ``**`` and division by a state-dependent
quantity stay off that path, since there Python floats raise where numpy
returns inf or NaN; matrix products (``a @ y``) stay numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import IvpProblem
from .errors import BadParamError, UnknownProblemError
from .linalg import lu_solve  # noqa: F401  (module attribute wrapped by perfbench/tracing.py)
from .linalg import linear_exact_solution, tridiag_toeplitz_eigs, vec_norm_inf


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    factory: Callable[..., IvpProblem]
    tags: frozenset
    notes: str
    params: str


def _require(cond: bool, message: str):
    if not cond:
        raise BadParamError(message)


def _decay(t_end: float = 5.0) -> IvpProblem:
    _require(t_end > 0, "t_end must be positive")
    return IvpProblem(
        name="decay", dim=1,
        rhs=lambda t, y: -y,
        jacobian=lambda t, y: np.array([[-1.0]]), jacobian_constant=True,
        taylor_d2=lambda t, y: y,
        taylor_d3=lambda t, y: -y,
        t0=0.0, t_end=t_end, y0=np.array([1.0]),
        exact=lambda t: np.array([math.exp(-t)]),
    )


def _growth(t_end: float = 5.0) -> IvpProblem:
    _require(t_end > 0, "t_end must be positive")
    return IvpProblem(
        name="growth", dim=1,
        rhs=lambda t, y: y,
        jacobian=lambda t, y: np.array([[1.0]]), jacobian_constant=True,
        taylor_d2=lambda t, y: y,
        taylor_d3=lambda t, y: y,
        t0=0.0, t_end=t_end, y0=np.array([1.0]),
        exact=lambda t: np.array([math.exp(t)]),
    )


def _lambda_cos(lam: float = -2100.0, y0: float = 1.0, t_end: float = 2.0) -> IvpProblem:
    _require(lam != 0, "lam must be nonzero")
    _require(t_end > 0, "t_end must be positive")

    def exact(t):
        return np.array([math.exp(lam * t) * (y0 - 1.0) + math.cos(t)])

    return IvpProblem(
        name="lambda_cos", dim=1,
        rhs=lambda t, y: np.array([lam * (y.item() - math.cos(t)) - math.sin(t)]),
        jacobian=lambda t, y: np.array([[lam]]), jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=np.array([float(y0)]),
        exact=exact,
    )


def _kinetics2(k1: float = 2.0, k2: float = 1.0, y10: float = 5.0, y20: float = 2.0,
               t_end: float = 3.0) -> IvpProblem:
    _require(k1 > 0 and k2 > 0, "rates k1, k2 must be positive")
    a = np.array([[-k1, k2], [k1, -k2]])
    y0 = np.array([y10, y20], dtype=float)
    return IvpProblem(
        name="kinetics2", dim=2,
        rhs=lambda t, y: a @ y,
        jacobian=lambda t, y: a, jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=y0,
        exact=lambda t: linear_exact_solution(a, y0, t),
    )


def _kinetics3(k1: float = 2.0, k2: float = 1.0, y0=(1.0, 3.0, 2.0),
               t_end: float = 5.0) -> IvpProblem:
    _require(k1 > 0 and k2 > 0, "rates k1, k2 must be positive")
    _require(abs(k1 - k2) > 1e-9 * max(k1, k2),
             "k1 and k2 must differ (repeated rates make the matrix defective)")
    a = np.array([[-k1, 0.0, 0.0], [k1, -k2, 0.0], [0.0, k2, 0.0]])
    y0 = np.asarray(y0, dtype=float)
    _require(len(y0) == 3, "y0 must have three components")
    return IvpProblem(
        name="kinetics3", dim=3,
        rhs=lambda t, y: a @ y,
        jacobian=lambda t, y: a, jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=y0,
        exact=lambda t: linear_exact_solution(a, y0, t),
    )


def _jogger_path(path: str):
    if path == "line":
        return lambda t: (8.0 * t, 0.0), 12.0
    if path == "outback":
        def pos(t):
            return (8.0 * t, 0.0) if t < 7.0 else (8.0 * (14.0 - t), 0.0)
        return pos, 12.0
    if path == "circle":
        return lambda t: (30.0 + 20.0 * math.cos(t), 20.0 + 15.0 * math.sin(t)), 4.0 * math.pi
    raise BadParamError(f"unknown jogger path {path!r}")


def _dog_jogger(w: float = 10.0, path: str = "line", x0: float = 60.0, y0: float = 70.0,
                t_end: float | None = None) -> IvpProblem:
    _require(w > 0, "dog speed w must be positive")
    jogger, default_t_end = _jogger_path(path)

    def rhs(t, y):
        jx, jy = jogger(t)
        px, py = y.tolist()
        dx, dy = jx - px, jy - py
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            return np.zeros(2)
        scale = w / dist  # dist is at least 1e-9 or NaN, never zero
        return np.array([scale * dx, scale * dy])

    problem = IvpProblem(
        name="dog_jogger", dim=2, rhs=rhs,
        t0=0.0, t_end=float(t_end) if t_end is not None else default_t_end,
        y0=np.array([x0, y0], dtype=float),
        meta={"jogger": jogger, "speed": w},
    )
    return problem


def _pendulum(g: float = 9.81, ell: float = 1.0, theta0: float = math.pi / 4,
              v0: float = 0.0, t_end: float = 10.0) -> IvpProblem:
    _require(g > 0 and ell > 0, "g and ell must be positive")
    ratio = g / ell
    return IvpProblem(
        name="pendulum", dim=2,
        rhs=lambda t, y: np.array([y[1], -ratio * math.sin(y[0])]),
        jacobian=lambda t, y: np.array([[0.0, 1.0], [-ratio * math.cos(y[0]), 0.0]]),
        t0=0.0, t_end=t_end, y0=np.array([theta0, v0]),
    )


def _sqrt_nonunique(t_end: float = 2.0) -> IvpProblem:
    # y' = 2 sqrt(y) with y(0) = 0 has infinitely many solutions (y = 0 and
    # every shifted parabola); the catalog carries the t^2 branch.  The rhs
    # clamps y at 0 so round-off below zero never reaches sqrt.
    return IvpProblem(
        name="sqrt_nonunique", dim=1,
        rhs=lambda t, y: 2.0 * np.sqrt(np.maximum(y, 0.0)),
        t0=0.0, t_end=t_end, y0=np.array([0.0]),
        exact=lambda t: np.array([t * t]),
    )


def _blowup(t_end: float = 0.99) -> IvpProblem:
    _require(0 < t_end <= 0.99, "t_end must stay in (0, 0.99]; the solution blows up at t=1")
    return IvpProblem(
        name="blowup", dim=1,
        rhs=lambda t, y: 2.0 * t * y * y,
        jacobian=lambda t, y: np.array([[4.0 * t * y[0]]]),
        t0=0.0, t_end=t_end, y0=np.array([1.0]),
        exact=lambda t: np.array([1.0 / (1.0 - t * t)]),
    )


def _atan(t_end: float = 10.0) -> IvpProblem:
    def d2(t, y):
        # y'' = -2 cos^3(y) sin(y)
        return np.array([-2.0 * math.cos(y[0]) ** 3 * math.sin(y[0])])

    def d3(t, y):
        c, s = math.cos(y[0]), math.sin(y[0])
        # y''' = 2 cos^4(y) (3 sin^2(y) - cos^2(y))
        return np.array([2.0 * c ** 4 * (3.0 * s * s - c * c)])

    return IvpProblem(
        name="atan", dim=1,
        rhs=lambda t, y: np.cos(y) ** 2,
        jacobian=lambda t, y: np.array([[-2.0 * math.cos(y[0]) * math.sin(y[0])]]),
        taylor_d2=d2, taylor_d3=d3,
        t0=0.0, t_end=t_end, y0=np.array([0.0]),
        exact=lambda t: np.array([math.atan(t)]),
    )


def _texp(t_end: float = 10.0) -> IvpProblem:
    return IvpProblem(
        name="texp", dim=1,
        rhs=lambda t, y: t * math.exp(-t) - y,
        jacobian=lambda t, y: np.array([[-1.0]]), jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=np.array([1.0]),
        exact=lambda t: np.array([(1.0 + 0.5 * t * t) * math.exp(-t)]),
    )


def _quartic(t_end: float = 10.0) -> IvpProblem:
    return IvpProblem(
        name="quartic", dim=1,
        rhs=lambda t, y: t ** 3 / y,
        jacobian=lambda t, y: np.array([[-t ** 3 / y[0] ** 2]]),
        t0=0.0, t_end=t_end, y0=np.array([1.0]),
        exact=lambda t: np.array([math.sqrt(0.5 * t ** 4 + 1.0)]),
    )


def _rational(t_end: float = 10.0) -> IvpProblem:
    return IvpProblem(
        name="rational", dim=1,
        rhs=lambda t, y: 1.0 / (1.0 + t * t) - 2.0 * y * y,
        jacobian=lambda t, y: np.array([[-4.0 * y[0]]]),
        t0=0.0, t_end=t_end, y0=np.array([0.0]),
        exact=lambda t: np.array([t / (1.0 + t * t)]),
    )


def _nonsmooth(t_end: float = 5.0) -> IvpProblem:
    # exact solution t^1.1 has an unbounded second derivative at t=0, which
    # caps the observed order of smooth-theory methods
    return IvpProblem(
        name="nonsmooth", dim=1,
        rhs=lambda t, y: -y + t ** 0.1 * (1.1 + t),
        jacobian=lambda t, y: np.array([[-1.0]]), jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=np.array([0.0]),
        exact=lambda t: np.array([t ** 1.1]),
    )


def _alpha_power(alpha: float = 2.5, t_end: float = 1.0) -> IvpProblem:
    _require(alpha > 1.0, "alpha must exceed 1 for the t=0 limit to exist")

    def rhs(t, y):
        if t == 0.0:
            return np.zeros(1)  # limit of y/t + (alpha-1) t^(alpha-1) along y = t^alpha
        return y / t + (alpha - 1.0) * t ** (alpha - 1.0)

    return IvpProblem(
        name="alpha_power", dim=1, rhs=rhs,
        t0=0.0, t_end=t_end, y0=np.array([0.0]),
        exact=lambda t: np.array([t ** alpha]),
    )


def _stiff_sys(variant: str, t_end: float = 10.0) -> IvpProblem:
    if variant == "A":
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        g = lambda t: np.array([2.0 * math.sin(t), 2.0 * (math.cos(t) - math.sin(t))])
    else:
        a = np.array([[-2.0, 1.0], [998.0, -999.0]])
        g = lambda t: np.array([2.0 * math.sin(t), 999.0 * (math.cos(t) - math.sin(t))])

    def exact(t):
        return 2.0 * math.exp(-t) * np.ones(2) + np.array([math.sin(t), math.cos(t)])

    return IvpProblem(
        name=f"stiff_sys_{variant}", dim=2,
        rhs=lambda t, y: a @ y + g(t),
        jacobian=lambda t, y: a, jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=np.array([2.0, 3.0]),
        exact=exact,
    )


def _mol_diffusion(m: int = 9, t_end: float = 0.5) -> IvpProblem:
    _require(int(m) == m and m >= 1, "m must be a positive integer")
    m = int(m)
    dx = 1.0 / (m + 1)
    a = np.zeros((m, m))
    for i in range(m):
        a[i, i] = -2.0
        if i > 0:
            a[i, i - 1] = 1.0
        if i + 1 < m:
            a[i, i + 1] = 1.0
    a /= dx * dx
    xs = dx * np.arange(1, m + 1)
    mode = np.sin(math.pi * xs)
    lam1 = float(tridiag_toeplitz_eigs(m, dx)[0])

    def exact(t):
        # the initial profile is exactly the slowest discrete mode, so the
        # semidiscrete system decays at the discrete rate lam1 -> -pi^2
        return math.exp(lam1 * t) * mode

    return IvpProblem(
        name=f"mol_diffusion_{m}", dim=m,
        rhs=lambda t, y: a @ y,
        jacobian=lambda t, y: a, jacobian_constant=True,
        t0=0.0, t_end=t_end, y0=mode.copy(),
        exact=exact,
        meta={"dx": dx, "matrix": a},
    )


def _robertson(t_end: float = 500.0) -> IvpProblem:
    def rhs(t, y):
        y1, y2, y3 = y.tolist()
        r1 = -0.04 * y1 + 1e4 * y2 * y3
        r2 = 0.04 * y1 - 1e4 * y2 * y3 - 3e7 * y2 * y2
        return np.array([r1, r2, 3e7 * y2 * y2])

    def jac(t, y):
        _, y2, y3 = y.tolist()
        return np.array([
            [-0.04, 1e4 * y3, 1e4 * y2],
            [0.04, -1e4 * y3 - 6e7 * y2, -1e4 * y2],
            [0.0, 6e7 * y2, 0.0],
        ])

    return IvpProblem(
        name="robertson", dim=3, rhs=rhs, jacobian=jac,
        t0=0.0, t_end=t_end, y0=np.array([1.0, 0.0, 0.0]),
    )


def _vdp(mu: float = 1.0, t_end: float = 20.0) -> IvpProblem:
    _require(mu > 0, "mu must be positive")

    def rhs(t, y):
        x, v = y.tolist()
        return np.array([v, mu * (1.0 - x * x) * v - x])

    def jac(t, y):
        x, v = y.tolist()
        return np.array([[0.0, 1.0], [-2.0 * mu * x * v - 1.0, mu * (1.0 - x * x)]])

    return IvpProblem(
        name=f"vdp_mu{mu:g}", dim=2, rhs=rhs, jacobian=jac,
        t0=0.0, t_end=t_end, y0=np.array([2.0, 0.0]),
    )


def _adapt_demo(t_end: float = 3.0) -> IvpProblem:
    return IvpProblem(
        name="adapt_demo", dim=1,
        rhs=lambda t, y: 1.0 / (y * y + 0.01),
        jacobian=lambda t, y: np.array([[-2.0 * y[0] / (y[0] * y[0] + 0.01) ** 2]]),
        t0=0.0, t_end=t_end, y0=np.array([0.0]),
    )


CATALOG: dict[str, CatalogEntry] = {
    e.key: e
    for e in [
        CatalogEntry("adapt_demo", _adapt_demo, frozenset({"scalar", "nonstiff"}),
                     "y' = 1/(y^2+0.01); fast start, slow tail", "t_end"),
        CatalogEntry("alpha_power", _alpha_power, frozenset({"scalar", "nonsmooth"}),
                     "y' = y/t + (a-1)t^(a-1); exact t^a", "alpha>1, t_end"),
        CatalogEntry("atan", _atan, frozenset({"scalar", "nonstiff"}),
                     "y' = cos^2 y; exact arctan t", "t_end"),
        CatalogEntry("blowup", _blowup, frozenset({"scalar", "nonstiff"}),
                     "y' = 2ty^2; exact 1/(1-t^2), domain capped at t=0.99", "t_end<=0.99"),
        CatalogEntry("decay", _decay, frozenset({"scalar", "nonstiff"}),
                     "y' = -y; exact e^-t", "t_end"),
        CatalogEntry("dog_jogger", _dog_jogger, frozenset({"system", "pursuit"}),
                     "pursuit at constant speed w toward a moving jogger", "w>0, path in {line,outback,circle}, x0, y0, t_end"),
        CatalogEntry("growth", _growth, frozenset({"scalar", "nonstiff"}),
                     "y' = y; exact e^t", "t_end"),
        CatalogEntry("kinetics2", _kinetics2, frozenset({"system", "nonstiff"}),
                     "two-species reversible reaction; closed-form solution", "k1>0, k2>0, y10, y20, t_end"),
        CatalogEntry("kinetics3", _kinetics3, frozenset({"system", "nonstiff"}),
                     "three-species decay chain (triangular matrix)", "k1>0, k2>0 (k1 != k2), y0, t_end"),
        CatalogEntry("lambda_cos", _lambda_cos, frozenset({"scalar", "stiff"}),
                     "y' = lam(y - cos t) - sin t; exact e^(lam t)(y0-1) + cos t", "lam!=0, y0, t_end"),
        CatalogEntry("mol_diffusion", _mol_diffusion, frozenset({"system", "stiff", "mol"}),
                     "method-of-lines heat equation with sin(pi x) start", "m>=1, t_end"),
        CatalogEntry("nonsmooth", _nonsmooth, frozenset({"scalar", "nonsmooth"}),
                     "y' = -y + t^0.1(1.1+t); exact t^1.1", "t_end"),
        CatalogEntry("pendulum", _pendulum, frozenset({"system", "nonstiff"}),
                     "theta'' = -(g/l) sin theta reduced to first order", "g>0, ell>0, theta0, v0, t_end"),
        CatalogEntry("quartic", _quartic, frozenset({"scalar", "nonstiff"}),
                     "y' = t^3/y; exact sqrt(0.5 t^4 + 1)", "t_end"),
        CatalogEntry("rational", _rational, frozenset({"scalar", "nonstiff"}),
                     "y' = 1/(1+t^2) - 2y^2; exact t/(1+t^2)", "t_end"),
        CatalogEntry("robertson", _robertson, frozenset({"system", "stiff"}),
                     "auto-catalytic reaction with rates spanning 9 orders", "t_end"),
        CatalogEntry("sqrt_nonunique", _sqrt_nonunique, frozenset({"scalar", "nonsmooth"}),
                     "y' = 2 sqrt(y), y(0)=0; non-unique (t^2 branch shipped)", "t_end"),
        CatalogEntry("stiff_sys_A", lambda **kw: _stiff_sys("A", **kw), frozenset({"system", "nonstiff"}),
                     "mildly coupled 2x2 system, eigenvalues -1, -3", "t_end"),
        CatalogEntry("stiff_sys_B", lambda **kw: _stiff_sys("B", **kw), frozenset({"system", "stiff"}),
                     "same solution as stiff_sys_A, eigenvalues -1, -1000", "t_end"),
        CatalogEntry("texp", _texp, frozenset({"scalar", "nonstiff"}),
                     "y' = t e^-t - y; exact (1 + t^2/2) e^-t", "t_end"),
        CatalogEntry("vdp", _vdp, frozenset({"system", "stiff"}),
                     "Van der Pol oscillator in first-order form", "mu>0, t_end"),
    ]
}


def get_problem(key: str, **params) -> IvpProblem:
    """Build a catalog problem; unknown keys or parameters, and a float
    parameter that is not finite, raise."""
    entry = CATALOG.get(key)
    if entry is None:
        raise UnknownProblemError(f"unknown problem {key!r}; see list_problems()")
    for name, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise BadParamError(f"bad parameters for {key!r}: {name} must be finite, got {value}")
    try:
        return entry.factory(**params)
    except TypeError as exc:
        raise BadParamError(f"bad parameters for {key!r}: {exc}") from None


def list_problems() -> list[CatalogEntry]:
    """Catalog entries in deterministic key order."""
    return [CATALOG[k] for k in sorted(CATALOG)]


def exact_residual(problem: IvpProblem, samples: int = 20) -> float:
    """Worst normalized defect of the exact solution against the rhs.

    Uses central differences with step 1e-6 at interior sample times;
    returns max over samples of ||d/dt exact - f||_inf / (1 + ||f||_inf).
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution")
    span = problem.t_end - problem.t0
    worst = 0.0
    eps = 1e-6
    for i in range(samples):
        t = problem.t0 + span * (i + 1) / (samples + 1)
        deriv = (problem.exact_at(t + eps) - problem.exact_at(t - eps)) / (2.0 * eps)
        f = problem.rhs(t, problem.exact_at(t))
        defect = vec_norm_inf(deriv - np.atleast_1d(np.asarray(f, dtype=float)))
        worst = max(worst, defect / (1.0 + vec_norm_inf(f)))
    return worst
