"""Adams-Bashforth, Adams-Moulton, and BDF integrators.

A method is stored in the common form

    y_{k+1} = sum_{j=0..q} a_j y_{k-j} + h * sum_{j=-1..q} b_j f(t_{k-j}, y_{k-j})

where q is the history depth.  ``b[0]`` holds b_{-1}, the weight on the new
(implicit) derivative.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CountingRhs  # noqa: F401  (module attribute patched by perfbench/tracing.py)
from .core import IvpProblem, Trajectory, march
from .errors import UnsupportedOrderError
from .linalg import polyval, vec_norm_inf
from .linalg import lu_solve  # noqa: F401  (module attribute wrapped by perfbench/tracing.py)
from .steppers import LuSlot, Stepper, _plus_weighted, make_stepper, solve_implicit


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
        """r^{q+1} - sum_j a_j r^{q-j} by Horner's rule; r a scalar or an array."""
        return polyval(np.concatenate(([1.0], -self.a)), r)

    def sigma(self, r):
        """b_{-1} r^{q+1} + sum_j b_j r^{q-j} by Horner's rule, as ``rho``."""
        return polyval(self.b, r)

    def characteristic_coeffs(self, z) -> np.ndarray:
        """Coefficients (highest first) of (1 - z b_{-1}) r^{q+1} - sum (a_j + z b_j) r^{q-j}.

        For an array of z the coefficients run along a new last axis.
        """
        z = np.asarray(z, dtype=complex)[..., None]
        return np.concatenate([1.0 - z * self.b[0], -(self.a + z * self.b[1:])], axis=-1)


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


def _default_predictor(method: MultistepMethod) -> MultistepMethod:
    """Explicit companion used to start implicit corrections.

    The AB method of the same order (capped at AB4), except that the
    one-step AM entries keep the plain Euler predictor so they stay
    self-starting and reproduce the implicit Euler/trapezoidal steppers.
    """
    if method.family == "AM" and method.q == 0:
        return ab_method(1)
    return ab_method(min(method.declared_order, 4))


class MultistepStepper(Stepper):
    """A linear multistep method as a ``core.march`` stepper, whose step k
    is picked by its index on the march's grid (from ``reset``):
    - k < depth: a bootstrap step of the one-step method ``bootstrap``
      (default RK4), or the exact solution at grid[k] for "exact";
    - depth <= k <= n_full: a formula step onto grid[k].  Implicit methods
      evaluate an explicit predictor and then apply ``corrections``
      corrector sweeps (an integer, or "converge" to iterate to the
      kernel's tolerance); on a problem with a Jacobian, Newton solves the
      corrector equation instead, on factors the march keeps across steps
      (``LuSlot``);
    - k = n_full + 1: the shortened landing step onto t_end, taken with the
      bootstrap method (RK4 after "exact"): the history needs equal spacing.

    The history holds the last ``depth`` states and their f, newest first.
    A state enters it at the start of the next bootstrap or formula step,
    with f taken then (``core.CountingRhs`` reuses a corrector's last f):
    f at the final state is never evaluated.
    """

    def __init__(self, method: MultistepMethod, problem: IvpProblem, bootstrap: str = "rk4",
                 predictor: MultistepMethod | None = None, corrections=1):
        self.name = method.label
        self.declared_order = method.declared_order
        self._problem = problem
        self._bootstrap = bootstrap
        self._corrections = corrections
        if method.implicit and predictor is None:
            predictor = _default_predictor(method)
        self._depth = method.q + 1
        if method.implicit:
            self._depth = max(self._depth, predictor.q + 1)
        self._rows = [[(0, float(method.b[0]))]]
        self._plan = _history_plan(method)
        self._pred_plan = _history_plan(predictor) if method.implicit else None

    def reset(self, grid, n_full):
        problem = self._problem
        if self._depth >= len(grid):
            raise ValueError("step size leaves no room for the multistep history")
        self._boot = None
        if self._bootstrap != "exact":
            self._boot = make_stepper(self._bootstrap, problem)
            if isinstance(self._boot, MultistepStepper):
                raise ValueError("the bootstrap must be a one-step method")
        self._sweeps = None  # Newton, or fixed-point sweeps to convergence
        if problem.jacobian is None and self._corrections != "converge":
            self._sweeps = max(int(self._corrections), 0)  # PE(CE)^N, 0 for no solve
        self._slot = None if problem.jacobian is None else LuSlot(problem.jacobian_constant)
        self._grid, self._n_full = grid, n_full
        self._k = 0
        self._ys = deque(maxlen=self._depth)
        self._fs = deque(maxlen=self._depth)

    def advance(self, f, t, y, h, stats):
        self._k = k = self._k + 1
        if k > self._n_full:
            # shortened landing step onto t_end, outside the equispaced history
            boot = self._boot or make_stepper("rk4", self._problem)
            return boot.advance(f, t, y, h, stats)
        self._ys.appendleft(y)
        self._fs.appendleft(f(t, y))
        if k < self._depth:
            # seed y_1 .. y_{depth-1} with the one-step bootstrap
            if self._boot is None:
                return self._problem.exact_at(self._grid[k])
            return self._boot.advance(f, t, y, h, stats)
        y = known = _history_sum(self._plan, self._ys, self._fs, h)
        if self._pred_plan is not None:
            y = pred = _history_sum(self._pred_plan, self._ys, self._fs, h)
            if self._sweeps != 0:
                start = pred if vec_norm_inf(pred) < math.inf else known
                (y,), _ = solve_implicit(f, [self._grid[k]], [known], h, self._rows, [start],
                                         self._problem.jacobian, stats, 0, self._slot,
                                         self._sweeps)
        return y


def multistep_march(
    problem: IvpProblem,
    method: MultistepMethod,
    h: float,
    bootstrap: str = "rk4",
    predictor: MultistepMethod | None = None,
    corrections=1,
) -> Trajectory:
    """``core.march`` of a ``MultistepStepper``, which describes the steps
    and the options."""
    return march(problem, MultistepStepper(method, problem, bootstrap, predictor, corrections), h)


def _history_plan(method: MultistepMethod):
    """The (j, a_j) and (j, b_j) terms of ``method``'s history sum as plain
    floats, a_0 and the nonzero others; built per stepper (the method is
    mutable)."""
    return ([(j, float(a)) for j, a in enumerate(method.a) if j == 0 or a != 0.0],
            [(j, float(b)) for j, b in enumerate(method.b[1:]) if b != 0.0])


def _history_sum(plan, ys, fs, h: float):
    """sum_j a_j y_{k-j} + h sum_j b_j f_{k-j} over the history ``ys``,
    ``fs`` (newest first), for the terms of ``plan`` (see ``_history_plan``)
    summed left to right: the known part of an implicit formula, or the
    whole update of an explicit one.  The b-sum is ``_weighted``'s, so a
    lone b-term is (h b_j) f_{k-j}, which does not overflow where b_j f_{k-j}
    alone would."""
    a_terms, b_terms = plan
    acc = None
    for j, a in a_terms:
        term = a * ys[j]
        acc = term if acc is None else acc + term
    return _plus_weighted(acc, h, b_terms, fs)
