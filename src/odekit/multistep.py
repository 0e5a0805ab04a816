"""Adams-Bashforth, Adams-Moulton, and BDF integrators.

A method is stored in the common form

    y_{k+1} = sum_{j=0..q} a_j y_{k-j} + h * sum_{j=-1..q} b_j f(t_{k-j}, y_{k-j})

where q is the history depth.  ``b[0]`` holds b_{-1}, the weight on the new
(implicit) derivative.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import (
    CountingRhs,
    IvpProblem,
    RunStats,
    Trajectory,
    _check_state,
    _finish,
    build_grid,
)
from .errors import NonFiniteError, UnsupportedOrderError
from .linalg import _cmul
from .linalg import lu_solve  # noqa: F401  (module attribute wrapped by perfbench/tracing.py)
from .steppers import DEFAULT_IMPLICIT, ImplicitSolveConfig, LuSlot, make_stepper, solve_implicit


@dataclass(eq=False)
class MultistepMethod:
    """Coefficients of one linear multistep formula."""

    family: str
    label: str
    a: np.ndarray          # a_0 .. a_q
    b: np.ndarray          # b_{-1} .. b_q
    declared_order: int

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if len(self.b) != len(self.a) + 1:
            raise ValueError("b must hold one more weight than a")

    @property
    def q(self) -> int:
        return len(self.a) - 1

    @property
    def implicit(self) -> bool:
        return self.b[0] != 0.0

    def rho(self, r):
        """r^{q+1} - sum_j a_j r^{q-j} over an array of r, each point rounded
        as the scalar complex expression rounds it (see ``_powers``)."""
        powers = _powers(r, self.q + 1)
        acc = powers[self.q + 1]
        for j in range(self.q + 1):
            acc = acc - _cmul(np.complex128(self.a[j]), powers[self.q - j])
        return acc

    def sigma(self, r):
        """b_{-1} r^{q+1} + sum_j b_j r^{q-j} over an array of r, rounded as rho."""
        powers = _powers(r, self.q + 1)
        acc = _cmul(np.complex128(self.b[0]), powers[self.q + 1])
        for j in range(self.q + 1):
            acc = acc + _cmul(np.complex128(self.b[j + 1]), powers[self.q - j])
        return acc

    def characteristic_coeffs(self, z) -> np.ndarray:
        """Coefficients (highest first) of (1 - z b_{-1}) r^{q+1} - sum (a_j + z b_j) r^{q-j}.

        For an array of z the coefficients run along a new last axis.
        """
        z = np.asarray(z, dtype=complex)[..., None]
        return np.concatenate([1.0 - z * self.b[0], -(self.a + z * self.b[1:])], axis=-1)


def _powers(r, n: int) -> list:
    """r^0 .. r^n for an array of complex r, each rounded as CPython rounds
    ``complex ** int``: binary powering from 1, squaring and multiplying in
    the set bits of the exponent, every product through ``_cmul``."""
    r = np.asarray(r, dtype=complex)
    one = np.ones_like(r)
    squares = [r]  # r^(2^i)
    out = [one]
    for k in range(1, n + 1):
        acc = one
        for i in range(k.bit_length()):
            if i == len(squares):
                squares.append(_cmul(squares[-1], squares[-1]))
            if k >> i & 1:
                acc = _cmul(acc, squares[i])
        out.append(acc)
    return out


F = Fraction

AB_WEIGHTS = {
    1: [F(1)],
    2: [F(3, 2), F(-1, 2)],
    3: [F(23, 12), F(-16, 12), F(5, 12)],
    4: [F(55, 24), F(-59, 24), F(37, 24), F(-9, 24)],
}

# keyed by the history parameter; order is key+1.  The one-step entry uses
# trapezoidal weights (1/2, 1/2).
AM_WEIGHTS = {
    0: (F(1), []),
    1: (F(1, 2), [F(1, 2)]),
    2: (F(5, 12), [F(8, 12), F(-1, 12)]),
    3: (F(9, 24), [F(19, 24), F(-5, 24), F(1, 24)]),
}


def ab_method(q: int) -> MultistepMethod:
    """q-step Adams-Bashforth method (order q), q in 1..4."""
    if q not in AB_WEIGHTS:
        raise UnsupportedOrderError(f"AB supports q in 1..4, got {q}")
    w = AB_WEIGHTS[q]
    a = [1.0] + [0.0] * (q - 1)
    b = [0.0] + [float(x) for x in w]
    return MultistepMethod("AB", f"ab{q}", a, b, q)


def am_method(q: int) -> MultistepMethod:
    """Adams-Moulton method with history parameter q in 0..3 (order q+1)."""
    if q not in AM_WEIGHTS:
        raise UnsupportedOrderError(f"AM supports q in 0..3, got {q}")
    bm1, rest = AM_WEIGHTS[q]
    a = [1.0] + [0.0] * max(0, q - 1)
    b = [float(bm1)] + [float(x) for x in rest]
    while len(b) < len(a) + 1:
        b.append(0.0)
    return MultistepMethod("AM", f"am{q}", a, b, q + 1)


def _lagrange_derivative_at_zero(nodes: list[Fraction], i: int) -> Fraction:
    """d/dx of the i-th Lagrange basis over ``nodes``, evaluated at 0."""
    xi = nodes[i]
    denom = F(1)
    for n, xn in enumerate(nodes):
        if n != i:
            denom *= xi - xn
    total = F(0)
    for m, xm in enumerate(nodes):
        if m == i:
            continue
        prod = F(1)
        for n, xn in enumerate(nodes):
            if n != i and n != m:
                prod *= -xn
        total += prod
    return total / denom


def bdf_coefficients(q: int) -> MultistepMethod:
    """q-step BDF method, q in 1..6, generated from Lagrange derivatives.

    On the scaled nodes {0, -1, ..., -q} (0 standing for the new time
    level) the weights are beta = 1/l'_{-1}(0) and
    alpha_j = -l'_j(0)/l'_{-1}(0).
    """
    if not 1 <= q <= 6:
        raise UnsupportedOrderError(f"BDF supports q in 1..6, got {q}")
    nodes = [F(0)] + [F(-(j + 1)) for j in range(q)]
    d_new = _lagrange_derivative_at_zero(nodes, 0)
    beta = 1 / d_new
    alphas = [-_lagrange_derivative_at_zero(nodes, j + 1) / d_new for j in range(q)]
    a = [float(x) for x in alphas]
    b = [float(beta)] + [0.0] * q
    return MultistepMethod("BDF", f"bdf{q}", a, b, q)


def leapfrog_method() -> MultistepMethod:
    """y_{k+1} = y_{k-1} + 2h f_k in multistep form (for stability analysis)."""
    return MultistepMethod("leapfrog", "leapfrog", [0.0, 1.0], [0.0, 2.0, 0.0], 2)


def consistency_report(method: MultistepMethod, m: int) -> list[tuple[str, float]]:
    """Residuals of the order conditions up to order m.

    The first two entries are the zeroth/first-order conditions
    sum a_j = 1 and -sum j*a_j + sum b_j = 1; entry i (for i = 2..m) is the
    i-th order condition sum (-j)^i a_j + i * sum (-j)^(i-1) b_j = 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    a, b, q = method.a, method.b, method.q
    out = [("sum_a", abs(float(np.sum(a)) - 1.0))]
    first = -sum(j * a[j] for j in range(q + 1)) + float(np.sum(b))
    out.append(("order_1", abs(first - 1.0)))
    for i in range(2, m + 1):
        lhs = sum((-j) ** i * a[j] for j in range(q + 1))
        lhs += i * sum((-j) ** (i - 1) * b[j + 1] for j in range(-1, q + 1))
        out.append((f"order_{i}", abs(lhs - 1.0)))
    return out


def certifies_order(method: MultistepMethod, m: int, tol: float = 1e-10) -> bool:
    return all(res <= tol for _, res in consistency_report(method, m))


class HistoryBuffer:
    """Ring of the most recent (t, y, f) triples on an equispaced grid."""

    def __init__(self, depth: int, h: float):
        self.depth = depth
        self.h = h
        self._items: deque[tuple[float, np.ndarray, np.ndarray]] = deque(maxlen=depth)

    def push(self, t, y, fy):
        if self._items:
            gap = t - self._items[-1][0]
            if abs(gap - self.h) > 1e-12 * max(1.0, abs(t)):
                raise ValueError("history spacing does not match the step size")
        self._items.append((t, y, fy))

    def back(self, j: int):
        """Triple j levels behind the newest (j=0 is the newest)."""
        return self._items[-1 - j]

    def __len__(self):
        return len(self._items)


def _default_predictor(method: MultistepMethod) -> MultistepMethod:
    """Explicit companion used to start implicit corrections.

    The AB method of the same order (capped at AB4), except that the
    one-step AM entries keep the plain Euler predictor so they stay
    self-starting and reproduce the implicit Euler/trapezoidal steppers.
    """
    if method.family == "AM" and method.q == 0:
        return ab_method(1)
    return ab_method(min(method.declared_order, 4))


def multistep_march(
    problem: IvpProblem,
    method: MultistepMethod,
    h: float,
    cfg: ImplicitSolveConfig | None = None,
    bootstrap: str = "rk4",
    predictor: MultistepMethod | None = None,
    corrections=1,
) -> Trajectory:
    """March a multistep method on the uniform grid.

    The first ``depth`` values come from a one-step bootstrap method
    (default RK4; "exact" samples the problem's exact solution).  Implicit
    methods evaluate an explicit predictor and then apply ``corrections``
    corrector sweeps (an integer, or "converge" to iterate to cfg.tol);
    with cfg.strategy="newton" the corrector equation is solved by Newton
    instead, using the problem's Jacobian.

    When h does not divide the interval, the final shortened step is taken
    with the bootstrap one-step method (the multistep history needs equal
    spacing).
    """
    cfg = cfg or DEFAULT_IMPLICIT
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    if method.implicit and predictor is None:
        predictor = _default_predictor(method)
    depth = method.q + 1
    if method.implicit and predictor is not None:
        depth = max(depth, predictor.q + 1)
    if depth >= len(grid):
        raise ValueError("step size leaves no room for the multistep history")

    stats = RunStats()
    f = CountingRhs(problem.rhs, problem.dim, stats)
    boot = None if bootstrap == "exact" else make_stepper(bootstrap, problem, cfg)

    states = np.empty((len(grid), problem.dim))
    states[0] = y = problem.y0.copy()
    hist = HistoryBuffer(depth, h)
    hist.push(grid[0], y, f(grid[0], y))

    solve_cfg, check_from = _corrector_config(cfg, problem.jacobian, corrections)
    rows = [[(0, float(method.b[0]))]]
    slot = LuSlot() if problem.jacobian_constant else None
    plan = _history_plan(method)
    pred_plan = _history_plan(predictor) if method.implicit else None
    try:
        # seed y_1 .. y_{depth-1} with the one-step bootstrap
        for k in range(1, depth):
            if boot is None:
                y = problem.exact_at(grid[k])
            else:
                y = boot.advance(f, grid[k - 1], y, h, stats)
            states[k] = y
            _check_state(y, k, grid, states, stats)
            hist.push(grid[k], y, f(grid[k], y))

        for k in range(depth, n_full + 1):
            t_new = grid[k]
            y = known = _history_sum(plan, hist, h)
            fu = None
            if method.implicit:
                y = pred = _history_sum(pred_plan, hist, h)
                if solve_cfg is not None:
                    start = pred if np.isfinite(pred).all() else known
                    (y,), fu = solve_implicit(f, [t_new], [known], h, rows, [start], solve_cfg,
                                              problem.jacobian, stats, check_from, slot)
            states[k] = y
            _check_state(y, k, grid, states, stats)
            # the solve's f at its accepted iterate; bounded sweeps return none
            hist.push(t_new, y, f(t_new, y) if fu is None else fu[0])

        if n_full + 1 < len(grid):
            # shortened landing step onto t_end, outside the equispaced history
            k = len(grid) - 1
            stepper = boot if boot is not None else make_stepper("rk4", problem, cfg)
            states[k] = y = stepper.advance(f, grid[k - 1], y, grid[k] - grid[k - 1], stats)
            _check_state(y, k, grid, states, stats)
    except NonFiniteError:
        # no state k was stored: stop before it, as on a non-finite state k
        _check_state(np.nan, k, grid, states, stats)
    return _finish(grid, states, stats)


def _history_plan(method: MultistepMethod):
    """The (j, a_j) and (j, b_j) terms of ``method``'s history sum as plain
    floats, a_0 and the nonzero others; built per march (the method is mutable)."""
    return ([(j, float(a)) for j, a in enumerate(method.a) if j == 0 or a != 0.0],
            [(j, float(b)) for j, b in enumerate(method.b[1:]) if b != 0.0])


def _history_sum(plan, hist: HistoryBuffer, h: float):
    """sum_j a_j y_{k-j} + h sum_j b_j f_{k-j} over the history, for the
    terms of ``plan`` (see ``_history_plan``) summed left to right: the
    known part of an implicit formula, or the whole update of an explicit
    one."""
    a_terms, b_terms = plan
    acc = None
    for j, a in a_terms:
        term = a * hist.back(j)[1]
        acc = term if acc is None else acc + term
    rhs = None
    for j, b in b_terms:
        term = b * hist.back(j)[2]
        rhs = term if rhs is None else rhs + term
    return acc if rhs is None else acc + h * rhs


def _corrector_config(cfg: ImplicitSolveConfig, jacobian, corrections):
    """(config, check_from) for ``solve_implicit``: Newton when the strategy
    picks it (an explicit "newton" without a Jacobian makes the solve
    raise), else fixed-point sweeps to convergence, both free to accept the
    predictor itself; or exactly ``corrections`` sweeps (PE(CE)^N), which
    never stop early (config None for zero)."""
    if cfg.pick_strategy(jacobian) == "newton":
        return replace(cfg, strategy="newton"), 0
    if corrections == "converge":
        return replace(cfg, strategy="fixed-point"), 0
    sweeps = int(corrections)
    if sweeps < 1:
        return None, sweeps
    return replace(cfg, strategy="fixed-point", max_iters=sweeps,
                   require_convergence=False), sweeps


MULTISTEP_NAMES = tuple(
    [f"ab{q}" for q in (1, 2, 3, 4)]
    + [f"am{q}" for q in (0, 1, 2, 3)]
    + [f"bdf{q}" for q in (1, 2, 3, 4, 5, 6)]
)


def multistep_by_name(name: str) -> MultistepMethod:
    if name.startswith("ab"):
        return ab_method(int(name[2:]))
    if name.startswith("am"):
        return am_method(int(name[2:]))
    if name.startswith("bdf"):
        return bdf_coefficients(int(name[3:]))
    if name == "leapfrog":
        return leapfrog_method()
    raise ValueError(f"unknown multistep method {name!r}")
