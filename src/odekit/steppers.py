"""One-step integrators: explicit/implicit Euler, trapezoidal, theta-method,
Runge-Kutta families (dedicated and generic tableau execution), leapfrog,
Taylor series steps, and the implicit RK pair (two-stage Gauss, TR-BDF2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    ImplicitSolveError,
    MissingDerivativeError,
    NonFiniteError,
    SingularMatrixError,
    TableauInvariantError,
)
from .linalg import lu_solve, polyval, vec_norm_inf

EXPLICIT = "explicit"
DIRK = "diagonally-implicit"
FULLY_IMPLICIT = "fully-implicit"


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (A, b, c) with a structural kind tag."""

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    kind: str
    declared_order: int

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        s = len(self.b)
        if self.A.shape != (s, s) or len(self.c) != s:
            raise TableauInvariantError("A, b, c sizes disagree")
        if abs(float(np.sum(self.b)) - 1.0) > 1e-12:
            raise TableauInvariantError("weights b must sum to 1")
        row_sums = np.sum(self.A, axis=1)
        if np.max(np.abs(row_sums - self.c)) > 1e-12:
            raise TableauInvariantError("row sums of A must equal c")
        strictly_lower = all(
            self.A[i, j] == 0.0 for i in range(s) for j in range(i, s)
        )
        lower = all(self.A[i, j] == 0.0 for i in range(s) for j in range(i + 1, s))
        if self.kind == EXPLICIT and not strictly_lower:
            raise TableauInvariantError("explicit tableau must be strictly lower triangular")
        if self.kind == DIRK and (not lower or strictly_lower):
            raise TableauInvariantError("DIRK tableau needs a lower-triangular A with a nonzero diagonal")
        if self.kind not in (EXPLICIT, DIRK, FULLY_IMPLICIT):
            raise TableauInvariantError(f"unknown tableau kind {self.kind!r}")

    @property
    def stages(self) -> int:
        return len(self.b)

    @cached_property
    def stability_polynomials(self):
        """(P, Q), highest degree first, with R(z) = P(z) / Q(z) exactly:
        P(z) = det(I - zA + z 1 b^T) and Q(z) = det(I - zA) (Hairer & Wanner,
        Solving ODEs II, IV.3).  Computed on first use, in exact rational
        arithmetic on the stored coefficients, then rounded once."""
        a = np.array([[Fraction(x) for x in row] for row in self.A], dtype=object)
        b = np.array([Fraction(x) for x in self.b], dtype=object)
        return _det_coeffs(a - b[None, :])[::-1], _det_coeffs(a)[::-1]


def _det_coeffs(m) -> np.ndarray:
    """Coefficients c_0..c_s, lowest power first, of det(I - z M) for a
    square object array of Fractions.

    They are the coefficients of the characteristic polynomial
    det(lambda I - M) = sum_k c_k lambda^(s-k), from the Faddeev-LeVerrier
    recursion.
    """
    eye = np.eye(len(m), dtype=int).astype(object)
    coeffs = [Fraction(1)]
    n = eye
    for k in range(1, len(m) + 1):
        mn = m @ n
        coeffs.append(-np.trace(mn) / k)
        n = mn + coeffs[-1] * eye
    return np.array([float(c) for c in coeffs])


EULER = ButcherTableau("euler", [[0.0]], [1.0], [0.0], EXPLICIT, 1)
HEUN = ButcherTableau("heun", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0], EXPLICIT, 2)
MIDPOINT = ButcherTableau("rk2mid", [[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 0.5], EXPLICIT, 2)
RK3 = ButcherTableau(
    "rk3",
    [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [0.0, 0.5, 1.0],
    EXPLICIT,
    3,
)
RK4 = ButcherTableau(
    "rk4",
    [[0.0] * 4, [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    [0.0, 0.5, 0.5, 1.0],
    EXPLICIT,
    4,
)
IMPLICIT_EULER_TABLEAU = ButcherTableau("ieuler", [[1.0]], [1.0], [1.0], DIRK, 1)
TRAPEZOIDAL_TABLEAU = ButcherTableau(
    "trap", [[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0], DIRK, 2
)
TRBDF2 = ButcherTableau(
    "trbdf2",
    [[0.0, 0.0, 0.0], [0.25, 0.25, 0.0], [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]],
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [0.0, 0.5, 1.0],
    DIRK,
    2,
)
_SQRT3 = math.sqrt(3.0)
GAUSS2 = ButcherTableau(
    "gauss2",
    [[0.25, (3.0 - 2.0 * _SQRT3) / 12.0], [(3.0 + 2.0 * _SQRT3) / 12.0, 0.25]],
    [0.5, 0.5],
    [(3.0 - _SQRT3) / 6.0, (3.0 + _SQRT3) / 6.0],
    FULLY_IMPLICIT,
    4,
)


def theta_tableau(theta: float) -> ButcherTableau:
    if theta == 0.0:
        return EULER
    if theta == 1.0:
        return IMPLICIT_EULER_TABLEAU
    return ButcherTableau(
        f"theta:{theta:g}",
        [[0.0, 0.0], [1.0 - theta, theta]],
        [1.0 - theta, theta],
        [0.0, 1.0],
        DIRK,
        2 if theta == 0.5 else 1,
    )


@dataclass
class ImplicitSolveConfig:
    """How implicit steps are solved.

    ``strategy`` is "fixed-point", "newton", or None for automatic choice
    (Newton whenever a Jacobian is available).  The predictor supplies the
    starting iterate: one explicit-Euler step, or the previous value.
    ``require_convergence=False`` turns the iteration cap into a plain
    truncation instead of an error (bounded-sweep schemes).
    """

    strategy: Optional[str] = None
    tol: float = 1e-12
    max_iters: int = 50
    predictor: str = "explicit-euler"
    require_convergence: bool = True

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.predictor not in ("explicit-euler", "previous-value"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.strategy not in (None, "fixed-point", "newton"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def pick_strategy(self, jacobian) -> str:
        if self.strategy is not None:
            return self.strategy
        return "newton" if jacobian is not None else "fixed-point"


DEFAULT_IMPLICIT = ImplicitSolveConfig()


def _finite_or_raise(y):
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("step produced a non-finite state")
    return y


def _count_iter(stats):
    if stats is not None:
        stats.implicit_iters += 1


def _solve_stage(f, t_u, const, gamma_h, u0, cfg, jacobian, stats):
    """Solve u = const + gamma_h * f(t_u, u); returns (u, f(t_u, u)).

    Fixed-point iteration measures the true residual once per f evaluation;
    Newton updates through (I - gamma_h*J). Tolerance is relative to 1+|u|.
    """
    if cfg is None:
        cfg = DEFAULT_IMPLICIT
    strategy = cfg.pick_strategy(jacobian)
    u = np.asarray(u0, dtype=float)
    if strategy == "fixed-point":
        fu = None
        for _ in range(cfg.max_iters):
            fu = f(t_u, u)
            _count_iter(stats)
            resid = vec_norm_inf(u - const - gamma_h * fu)
            if resid <= cfg.tol * (1.0 + vec_norm_inf(u)):
                return u, fu
            u = const + gamma_h * fu
        if cfg.require_convergence:
            raise ImplicitSolveError(
                f"fixed-point iteration did not converge in {cfg.max_iters} iterations"
            )
        return u, None
    if jacobian is None:
        raise ImplicitSolveError("Newton strategy needs a Jacobian callback")
    n = len(u)
    eye = np.eye(n)
    for _ in range(cfg.max_iters):
        fu = f(t_u, u)
        _count_iter(stats)
        g = u - const - gamma_h * fu
        if vec_norm_inf(g) <= cfg.tol * (1.0 + vec_norm_inf(u)):
            return u, fu
        m = eye - gamma_h * np.asarray(jacobian(t_u, u), dtype=float)
        u = u - lu_solve(m, g)
    raise ImplicitSolveError(f"Newton did not converge in {cfg.max_iters} iterations")


# ---------------------------------------------------------------------------
# explicit one-step formulas


def explicit_euler_step(f, t, y, h):
    """y + h f(t, y); exactly one rhs evaluation."""
    return _finite_or_raise(y + h * f(t, y))


def explicit_rk_step(tableau: ButcherTableau, f, t, y, h):
    """Generic explicit stage loop; accumulates stage sums left to right."""
    if tableau.kind != EXPLICIT:
        raise TableauInvariantError("explicit_rk_step needs an explicit tableau")
    a, b, c = tableau.A, tableau.b, tableau.c
    ks = []
    for l in range(tableau.stages):
        acc = None
        for j in range(l):
            if a[l, j] != 0.0:
                term = a[l, j] * ks[j]
                acc = term if acc is None else acc + term
        z = y if acc is None else y + h * acc
        ks.append(f(t + c[l] * h, z))
    acc = None
    for j in range(tableau.stages):
        if b[j] != 0.0:
            term = b[j] * ks[j]
            acc = term if acc is None else acc + term
    return _finite_or_raise(y if acc is None else y + h * acc)


def heun_step(f, t, y, h):
    """Average of the endpoint slopes, the Euler value predicting the right one."""
    return explicit_rk_step(HEUN, f, t, y, h)


def midpoint_rk2_step(f, t, y, h):
    """Single slope taken at the Euler-predicted midpoint."""
    return explicit_rk_step(MIDPOINT, f, t, y, h)


def rk4_step(f, t, y, h):
    """The classical four-stage fourth-order scheme."""
    return explicit_rk_step(RK4, f, t, y, h)


def leapfrog_step(f, t_k, y_k, y_km1, h):
    """y_{k+1} = y_{k-1} + 2h f(t_k, y_k); needs the two previous values."""
    return _finite_or_raise(y_km1 + (2.0 * h) * f(t_k, y_k))


def taylor_step(f, d2, d3, order, t, y, h):
    """Truncated Taylor series step using supplied total derivatives.

    ``d2`` and ``d3`` return y''(t) and y'''(t) along the solution; no
    finite differencing is done here.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    if d2 is None:
        raise MissingDerivativeError("Taylor step needs the y'' callback")
    if order == 3 and d3 is None:
        raise MissingDerivativeError("third-order Taylor step needs the y''' callback")
    out = y + h * f(t, y) + (h * h / 2.0) * np.atleast_1d(np.asarray(d2(t, y), dtype=float))
    if order == 3:
        out = out + (h ** 3 / 6.0) * np.atleast_1d(np.asarray(d3(t, y), dtype=float))
    return _finite_or_raise(out)


# ---------------------------------------------------------------------------
# implicit one-step formulas


def implicit_euler_step(f, t_next, y, h, cfg=None, jacobian=None, stats=None):
    """Solve y_next = y + h f(t_next, y_next)."""
    cfg = cfg or DEFAULT_IMPLICIT
    if cfg.predictor == "explicit-euler":
        u0 = y + h * f(t_next - h, y)
    else:
        u0 = y
    u, _ = _solve_stage(f, t_next, y, h, u0, cfg, jacobian, stats)
    return _finite_or_raise(u)


def trapezoidal_step(f, t, y, h, cfg=None, jacobian=None, stats=None):
    """Solve y_next = y + (h/2)[f(t, y) + f(t+h, y_next)]."""
    cfg = cfg or DEFAULT_IMPLICIT
    f0 = f(t, y)
    const = y + (h / 2.0) * f0
    u0 = y + h * f0 if cfg.predictor == "explicit-euler" else y
    u, _ = _solve_stage(f, t + h, const, h / 2.0, u0, cfg, jacobian, stats)
    return _finite_or_raise(u)


def theta_step(f, t, y, h, theta, cfg=None, jacobian=None, stats=None):
    """Weighted endpoint scheme; reduces exactly to Euler (0), trapezoidal
    (1/2) and implicit Euler (1) by dispatching to those steppers."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if theta == 0.0:
        return explicit_euler_step(f, t, y, h)
    if theta == 1.0:
        return implicit_euler_step(f, t + h, y, h, cfg, jacobian, stats)
    if theta == 0.5:
        return trapezoidal_step(f, t, y, h, cfg, jacobian, stats)
    cfg = cfg or DEFAULT_IMPLICIT
    f0 = f(t, y)
    const = y + (h * (1.0 - theta)) * f0
    u0 = y + h * f0 if cfg.predictor == "explicit-euler" else y
    u, _ = _solve_stage(f, t + h, const, h * theta, u0, cfg, jacobian, stats)
    return _finite_or_raise(u)


def dirk_step(tableau: ButcherTableau, f, t, y, h, cfg=None, jacobian=None, stats=None):
    """Stage-by-stage solve of a (diagonally) implicit lower-triangular tableau."""
    if tableau.kind not in (EXPLICIT, DIRK):
        raise TableauInvariantError("dirk_step needs a lower-triangular tableau")
    a, b, c = tableau.A, tableau.b, tableau.c
    ks = []
    for l in range(tableau.stages):
        acc = None
        for j in range(l):
            if a[l, j] != 0.0:
                term = a[l, j] * ks[j]
                acc = term if acc is None else acc + term
        base = y if acc is None else y + h * acc
        t_l = t + c[l] * h
        if a[l, l] == 0.0:
            ks.append(f(t_l, base))
        else:
            z, fu = _solve_stage(f, t_l, base, a[l, l] * h, base, cfg, jacobian, stats)
            ks.append(fu if fu is not None else f(t_l, z))
    acc = None
    for j in range(tableau.stages):
        if b[j] != 0.0:
            term = b[j] * ks[j]
            acc = term if acc is None else acc + term
    return _finite_or_raise(y if acc is None else y + h * acc)


def gauss2_step(f, t, y, h, cfg=None, jacobian=None, stats=None):
    """Two-stage Gauss step: both stages solved as one coupled 2n system."""
    cfg = cfg or DEFAULT_IMPLICIT
    a, b, c = GAUSS2.A, GAUSS2.b, GAUSS2.c
    n = len(y)
    if cfg.predictor == "explicit-euler":
        f0 = f(t, y)
        z = [y + (c[0] * h) * f0, y + (c[1] * h) * f0]
    else:
        z = [y.copy(), y.copy()]
    strategy = cfg.pick_strategy(jacobian)
    ts = [t + c[0] * h, t + c[1] * h]

    def residual(z, fz):
        return [
            z[i] - y - h * (a[i, 0] * fz[0] + a[i, 1] * fz[1])
            for i in range(2)
        ]

    fz_final = None
    if strategy == "fixed-point":
        for _ in range(cfg.max_iters):
            fz = [f(ts[0], z[0]), f(ts[1], z[1])]
            _count_iter(stats)
            res = residual(z, fz)
            size = max(vec_norm_inf(z[0]), vec_norm_inf(z[1]))
            if max(vec_norm_inf(res[0]), vec_norm_inf(res[1])) <= cfg.tol * (1.0 + size):
                fz_final = fz
                break
            z = [y + h * (a[i, 0] * fz[0] + a[i, 1] * fz[1]) for i in range(2)]
        if fz_final is None:
            raise ImplicitSolveError("Gauss-2 fixed-point iteration did not converge")
    else:
        if jacobian is None:
            raise ImplicitSolveError("Newton strategy needs a Jacobian callback")
        eye = np.eye(2 * n)
        for _ in range(cfg.max_iters):
            fz = [f(ts[0], z[0]), f(ts[1], z[1])]
            _count_iter(stats)
            res = residual(z, fz)
            size = max(vec_norm_inf(z[0]), vec_norm_inf(z[1]))
            if max(vec_norm_inf(res[0]), vec_norm_inf(res[1])) <= cfg.tol * (1.0 + size):
                fz_final = fz
                break
            jac_blocks = [np.asarray(jacobian(ts[j], z[j]), dtype=float) for j in range(2)]
            m = eye.copy()
            for i in range(2):
                for j in range(2):
                    m[i * n:(i + 1) * n, j * n:(j + 1) * n] -= h * a[i, j] * jac_blocks[j]
            delta = lu_solve(m, np.concatenate(res))
            z = [z[0] - delta[:n], z[1] - delta[n:]]
        if fz_final is None:
            raise ImplicitSolveError("Gauss-2 Newton iteration did not converge")
    return _finite_or_raise(y + h * (b[0] * fz_final[0] + b[1] * fz_final[1]))


def rk_stability_value(tableau: ButcherTableau, z):
    """Amplification R(z) = 1 + z b^T (I - zA)^{-1} 1 on y' = lambda*y.

    Evaluated as the exact rational ``tableau.stability_polynomials``, for a
    scalar z or elementwise on a numpy array.  Poles give inf or nan.
    """
    p, q = tableau.stability_polynomials
    return polyval(p, z) / polyval(q, z)


# ---------------------------------------------------------------------------
# march adapters

TABLEAUS = {
    "euler": EULER,
    "heun": HEUN,
    "rk2mid": MIDPOINT,
    "rk3": RK3,
    "rk4": RK4,
    "ieuler": IMPLICIT_EULER_TABLEAU,
    "trap": TRAPEZOIDAL_TABLEAU,
    "trbdf2": TRBDF2,
    "gauss2": GAUSS2,
}


class Stepper:
    """Adapter driven by ``core.march``: one state update per ``advance``."""

    name = "?"
    declared_order = 1

    def reset(self):
        pass

    def advance(self, f, t, y, h, stats):
        raise NotImplementedError


class _ExplicitStepper(Stepper):
    def __init__(self, name, order, fn):
        self.name = name
        self.declared_order = order
        self._fn = fn

    def advance(self, f, t, y, h, stats):
        return self._fn(f, t, y, h)


class _ImplicitStepper(Stepper):
    def __init__(self, name, order, fn, cfg, jacobian):
        self.name = name
        self.declared_order = order
        self._fn = fn
        self._cfg = cfg
        self._jac = jacobian

    def advance(self, f, t, y, h, stats):
        return self._fn(f, t, y, h, self._cfg, self._jac, stats)


class _TaylorStepper(Stepper):
    def __init__(self, order, d2, d3):
        self.name = f"taylor{order}"
        self.declared_order = order
        if d2 is None or (order == 3 and d3 is None):
            raise MissingDerivativeError(
                f"problem lacks the derivative callbacks needed by taylor{order}"
            )
        self._order = order
        self._d2 = d2
        self._d3 = d3

    def advance(self, f, t, y, h, stats):
        return taylor_step(f, self._d2, self._d3, self._order, t, y, h)


class _LeapfrogStepper(Stepper):
    """Two-step scheme run as a stepper.  A step with no history, or with a
    step size other than the one the history was taken at (a shortened final
    step), is one Heun step (local error h^3, which preserves the method's
    second order)."""

    name = "leapfrog"
    declared_order = 2

    def __init__(self):
        self._prev = None
        self._h = None

    def reset(self):
        self._prev = None
        self._h = None

    def advance(self, f, t, y, h, stats):
        if self._prev is None or h != self._h:
            out = heun_step(f, t, y, h)
        else:
            out = leapfrog_step(f, t, y, self._prev, h)
        self._prev, self._h = y, h
        return out


def make_stepper(name: str, problem=None, cfg=None) -> Stepper:
    """Build a march-ready stepper from its command-line name."""
    jacobian = getattr(problem, "jacobian", None)
    if name == "euler":
        return _ExplicitStepper("euler", 1, explicit_euler_step)
    if name == "heun":
        return _ExplicitStepper("heun", 2, heun_step)
    if name == "rk2mid":
        return _ExplicitStepper("rk2mid", 2, midpoint_rk2_step)
    if name == "rk3":
        return _ExplicitStepper("rk3", 3, lambda f, t, y, h: explicit_rk_step(RK3, f, t, y, h))
    if name == "rk4":
        return _ExplicitStepper("rk4", 4, rk4_step)
    if name == "ieuler":
        return _ImplicitStepper(
            "ieuler", 1,
            lambda f, t, y, h, c, j, s: implicit_euler_step(f, t + h, y, h, c, j, s),
            cfg, jacobian,
        )
    if name == "trap":
        return _ImplicitStepper("trap", 2, trapezoidal_step, cfg, jacobian)
    if name.startswith("theta:"):
        theta = float(name.split(":", 1)[1])
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        order = 2 if theta == 0.5 else 1
        return _ImplicitStepper(
            name, order,
            lambda f, t, y, h, c, j, s: theta_step(f, t, y, h, theta, c, j, s),
            cfg, jacobian,
        )
    if name == "trbdf2":
        return _ImplicitStepper(
            "trbdf2", 2,
            lambda f, t, y, h, c, j, s: dirk_step(TRBDF2, f, t, y, h, c, j, s),
            cfg, jacobian,
        )
    if name == "gauss2":
        return _ImplicitStepper("gauss2", 4, gauss2_step, cfg, jacobian)
    if name == "taylor2":
        return _TaylorStepper(2, getattr(problem, "taylor_d2", None), getattr(problem, "taylor_d3", None))
    if name == "taylor3":
        return _TaylorStepper(3, getattr(problem, "taylor_d2", None), getattr(problem, "taylor_d3", None))
    if name == "leapfrog":
        return _LeapfrogStepper()
    raise ValueError(f"unknown one-step method {name!r}")


ONE_STEP_NAMES = (
    "euler", "heun", "rk2mid", "rk3", "rk4", "ieuler", "trap",
    "trbdf2", "gauss2", "taylor2", "taylor3", "leapfrog",
)
