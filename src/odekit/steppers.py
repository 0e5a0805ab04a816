"""One-step integrators: explicit/implicit Euler, trapezoidal, theta-method,
Runge-Kutta families, Taylor series steps, and the implicit RK pair
(two-stage Gauss, TR-BDF2); ``make_stepper`` also builds leapfrog, a
two-step formula run by ``multistep.MultistepStepper``.

Every Runge-Kutta method is a Butcher tableau run by one stage engine,
``rk_step``; every implicit solve in the package (RK stages and multistep
correctors) goes through one iteration kernel, ``solve_implicit``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import as_state
from .errors import (
    ImplicitSolveError,
    MissingDerivativeError,
    NonFiniteError,
    TableauInvariantError,
)
from . import linalg
from .linalg import lu_solve  # noqa: F401  (module attribute wrapped by perfbench/tracing.py)
from .linalg import polyval

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

    @cached_property
    def stages(self) -> int:
        return len(self.b)

    @cached_property
    def stiffly_accurate(self) -> bool:
        """The last row of A equals b: the last stage value is the step result."""
        return bool(np.array_equal(self.A[-1], self.b))

    @cached_property
    def plan(self):
        """Stage groups in solve order, as (stages, cs, known, implicit): each
        stage alone for an explicit or DIRK tableau, all stages together for
        a fully implicit one.  ``cs`` holds the group's c_i; ``known[i]``
        lists the nonzero (j, a_ij) on earlier groups' stages, ``implicit[i]``
        those on the group's own stages (j counted from its first), and
        ``implicit`` is None for an explicit stage."""
        s = self.stages
        groups = [range(s)] if self.kind == FULLY_IMPLICIT else [range(i, i + 1) for i in range(s)]
        plan = []
        for g in groups:
            cs = [float(self.c[i]) for i in g]
            known = [_nonzero(self.A[i, :g.start]) for i in g]
            implicit = [_nonzero(self.A[i, g.start:g.stop]) for i in g]
            plan.append((g, cs, known, implicit if any(implicit) else None))
        return plan

    @cached_property
    def plan_b(self):
        """The nonzero (j, b_j)."""
        return _nonzero(self.b)

    @cached_property
    def stability_polynomials(self):
        """(P, Q), highest degree first, with R(z) = P(z) / Q(z) exactly:
        P(z) = det(I - zA + z 1 b^T) and Q(z) = det(I - zA) (Hairer & Wanner,
        Solving ODEs II, IV.3).  Computed on first use, in exact rational
        arithmetic on the stored coefficients, then rounded once."""
        a = np.array([[Fraction(x) for x in row] for row in self.A], dtype=object)
        b = np.array([Fraction(x) for x in self.b], dtype=object)
        return _det_coeffs(a - b[None, :])[::-1], _det_coeffs(a)[::-1]


def _nonzero(weights) -> list:
    return [(j, float(w)) for j, w in enumerate(weights) if w != 0.0]


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


def theta_by_name(name: str) -> ButcherTableau | None:
    """The tableau of the method name ``theta:<v>``, or None for any other
    name; the one parse of that form.  A v that is not a number in [0, 1]
    (nan, inf and out-of-range floats included) raises ValueError."""
    if not name.startswith("theta:"):
        return None
    try:
        theta = float(name[len("theta:"):])
    except ValueError:
        raise ValueError("theta:<v> needs a number v in [0, 1]") from None
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    return theta_tableau(theta)


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


# The implicit-solve kernel's stopping rule: |g| <= TOL (1 + |u|), tested
# for at most MAX_ITERS updates.  Newton factors kept from an earlier step
# for a changing J are refreshed once a residual exceeds THETA times the
# one before it.
TOL = 1e-12
MAX_ITERS = 50
THETA = 0.1


def uses_newton(strategy, jacobian) -> bool:
    """Whether an implicit solve runs Newton: ``strategy`` is "newton", or
    None (the automatic choice) with a Jacobian at hand; "fixed-point"
    gives False, any other value raises ValueError."""
    if strategy not in (None, "fixed-point", "newton"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return strategy == "newton" or (strategy is None and jacobian is not None)


# Where the iteration of an implicit stage starts: at the explicit-Euler
# value y + c_i h f(t, y), or at the stage's known part
# y + h sum_{j<i} a_ij k_j.
PREDICTED = "predicted"
KNOWN = "known"


def _finite_or_raise(y):
    if not np.isfinite(y).all():
        raise NonFiniteError("step produced a non-finite state")
    return y


def _weighted(h, terms, ks):
    """h times the sum of w * ks[j] over the nonempty ``terms`` = [(j, w), ...],
    summed left to right.  A lone term is formed as (h w) ks[j], the form of
    the closed-form theta-method updates."""
    if len(terms) == 1:
        j, w = terms[0]
        return (h * w) * ks[j]
    acc = None
    for j, w in terms:
        term = w * ks[j]
        acc = term if acc is None else acc + term
    return h * acc


def _plus_weighted(y, h, terms, ks):
    """y + h sum_j w_j ks[j], or y itself when there are no terms."""
    return y + _weighted(h, terms, ks) if terms else y


class LuSlot:
    """The LU factors of one solve site's Newton matrix and ``h``, the step
    size they were factored at; a solve at ``h`` takes them without
    evaluating J or building the matrix (Hairer & Wanner, Solving ODEs II,
    IV.8).

    ``constant`` (the default) is for a problem that declares its Jacobian
    constant: the Newton matrix depends on the step size alone, so factors
    at ``h`` are never refreshed.  A multistep corrector on a changing J
    holds a slot with ``constant=False``: its factors are kept across steps
    at one ``h`` and refreshed at the current iterate when the iteration
    stops contracting (see ``solve_implicit``), as BDF codes keep theirs
    (Brown, Byrne & Hindmarsh, VODE, SISC 1989).  A slot belongs to one
    march and one set of stage rows: one per implicit stage group of a
    stepper's tableau (replaced by ``Stepper.reset``) and one for a
    multistep corrector.
    """

    def __init__(self, constant=True):
        self.constant = constant
        self.h = None
        self.factors = None


def solve_implicit(f, ts, bases, h, rows, u, strategy=None, jacobian=None, stats=None,
                   check_from=1, slot=None, sweeps=None):
    """Solve u_i = bases_i + h sum_j a_ij f(ts_j, u_j), rows[i] listing the
    nonzero (j, a_ij), from the iterates ``u``; returns (u, [f(ts_i, u_i)]).

    ``strategy`` picks the iteration (see ``uses_newton``).  Fixed-point
    iteration substitutes the right-hand side; Newton solves
    with the block matrix I - h (A kron J), J evaluated at every u_j and
    the matrix factored on every iteration, unless the caller's march
    passes a ``slot`` (an ``LuSlot``): factors it holds for this ``h`` are
    used as they are, and new factors are stored in it.  On a constant J
    that evaluates J once per stage block and step size in a march.  A
    slot that is not ``constant`` (a multistep corrector's) is dropped when
    a tested residual exceeds THETA times the previous tested one, so that
    J and the factors are refreshed at the current iterate.  A matrix
    that ``lu_factor`` rejects is never stored.  From
    the ``check_from``-th update on, an iterate is accepted when its
    residual g has |g| <= TOL (1 + |u|) (inf-norms over all unknowns).
    The default 1 never accepts a one-step stage start, which would make
    the result depend on the scale of y; 0 lets a start of the solution's
    own order (a multistep predictor) be the answer.  |g| <= TOL
    passes that test whatever |u| is, so |u| is formed only when it fails;
    a NaN or inf in u makes |g| NaN or inf, which passes neither (both
    norms are ``linalg.vec_norm_inf``, NaN exactly when an entry is NaN).
    A residual that is not finite where it is tested, or a Newton matrix
    with a non-finite entry (a Jacobian gone NaN), raises NonFiniteError.
    A solve that is not accepted within MAX_ITERS updates raises
    ImplicitSolveError.  ``sweeps``, set only by a bounded sweep scheme
    (a multistep PE(CE)^N corrector), makes the iteration take exactly that
    many updates, with no residual test, and return (u, None).

    A solve with one block (a multistep corrector, a DIRK stage), whose
    one row is its one term a, iterates on the state itself, with residual
    u - base - (h a) f(t, u) and Newton matrix I - (h a) J, the bits of
    the block forms; only coupled stages (gauss2's) are stacked end to end.
    """
    newton = uses_newton(strategy, jacobian)
    if newton and jacobian is None:
        raise ImplicitSolveError("Newton strategy needs a Jacobian callback")
    n = len(u[0])
    one = len(u) == 1
    if one:  # the iterate is the state itself
        (t,), (((_, a),),) = ts, rows
        ha = h * a
        u, base = np.asarray(u[0], dtype=float), bases[0]
    else:
        blocks = [slice(i * n, (i + 1) * n) for i in range(len(u))]
        u = np.concatenate([np.asarray(ui, dtype=float) for ui in u])
        base = np.concatenate(bases)
    prev = math.inf
    for it in range(MAX_ITERS if sweeps is None else sweeps):
        if one:
            fu = [f(t, u)]
            terms = ha * fu[0]
        else:
            fu = [f(tj, u[bi]) for tj, bi in zip(ts, blocks)]
            terms = np.concatenate([_weighted(h, row, fu) if row else np.zeros(n)
                                    for row in rows])
        if stats is not None:
            stats.implicit_iters += 1
        g = u - base - terms
        if sweeps is None and it >= check_from:
            res = linalg.vec_norm_inf(g)
            if res <= TOL or res <= TOL * (1.0 + linalg.vec_norm_inf(u)):
                return ([u] if one else [u[bi] for bi in blocks]), fu
            if not res < math.inf:
                raise NonFiniteError("implicit solve met a non-finite residual")
            if slot is not None and not slot.constant and res > THETA * prev:
                slot.h = None  # the kept factors stopped contracting
            prev = res
        if not newton:
            u = base + terms
            continue
        if slot is not None and slot.h == h:
            factors = slot.factors
        else:
            if one:
                jac = [np.asarray(jacobian(t, u), dtype=float)]
            else:
                jac = [np.asarray(jacobian(tj, u[bi]), dtype=float) for tj, bi in zip(ts, blocks)]
            for j in jac:
                if j.shape != (n, n):
                    raise ValueError(f"jacobian returned shape {j.shape}; expected {(n, n)}")
            if stats is not None:
                stats.jac_evals += len(jac)
                stats.lu_factorizations += 1
            m = _identity(n) - ha * jac[0] if one else _coupled_matrix(jac, h, rows, blocks)
            try:
                factors = linalg.lu_factor(m)
            except ValueError:  # lu_factor's rejection of a non-finite entry
                raise NonFiniteError("implicit solve met a non-finite Newton matrix") from None
            if slot is not None:
                slot.h, slot.factors = h, factors
        u = u - linalg.lu_solve_factored(factors, g)
    if sweeps is None:
        what = "Newton" if newton else "fixed-point iteration"
        raise ImplicitSolveError(f"{what} did not converge in {MAX_ITERS} iterations")
    return ([u] if one else [u[bi] for bi in blocks]), None


def _coupled_matrix(jac, h, rows, blocks):
    """The Newton matrix I - h (A kron J) of stage blocks ``blocks``, J
    evaluated at block j in ``jac[j]``."""
    m = _identity(blocks[-1].stop).copy()
    for bi, row in zip(blocks, rows):
        for j, a in row:
            m[bi, blocks[j]] -= (h * a) * jac[j]
    return m


@lru_cache(maxsize=32)
def _identity(n):
    """A read-only n x n identity, the start of every n-unknown Newton matrix."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def rk_step(tableau: ButcherTableau, f, t, y, h, strategy=None, jacobian=None, stats=None,
            start=PREDICTED, slots=None):
    """One step of any tableau (see ``_rk_stages``); a non-finite result
    raises NonFiniteError."""
    return _finite_or_raise(_rk_stages(tableau, f, t, y, h, strategy, jacobian, stats, start,
                                       slots))


def _rk_stages(tableau, f, t, y, h, strategy, jacobian, stats, start, slots):
    """The stage engine behind ``rk_step``, without its finiteness check.

    The stage groups of ``tableau.plan`` are taken in order: an explicit
    stage is one rhs evaluation, an implicit group one ``solve_implicit``
    call started at PREDICTED or KNOWN values (``start``).  ``slots``, if
    given, holds one ``LuSlot`` per plan group for its Newton factors.  A
    stiffly accurate tableau returns its last stage value, any other
    y + h sum_j b_j k_j.  The result may be non-finite: a march checks it.
    """
    ks = [None] * tableau.stages
    slope = None  # f(t, y) for a PREDICTED start: the first stage's k if already taken
    for group, (stages, cs, known, implicit) in enumerate(tableau.plan):
        if implicit is None:
            z = _plus_weighted(y, h, known[0], ks)
            ks[stages.start] = f(t + cs[0] * h, z)
            continue
        ts = [t + ci * h for ci in cs]
        bases = [_plus_weighted(y, h, terms, ks) for terms in known]
        if start == KNOWN:
            u0 = bases
        else:
            if slope is None:
                slope = f(t, y) if ks[0] is None else ks[0]
            u0 = [y + (ci * h) * slope for ci in cs]
        zs, fz = solve_implicit(f, ts, bases, h, implicit, u0, strategy, jacobian, stats,
                                slot=None if slots is None else slots[group])
        z = zs[-1]
        for i, k in zip(stages, fz):
            ks[i] = k
    if tableau.stiffly_accurate:
        return z
    return _plus_weighted(y, h, tableau.plan_b, ks)


# ---------------------------------------------------------------------------
# one-step formulas


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
    out = y + h * f(t, y) + (h * h / 2.0) * _derivative(d2, "taylor_d2", t, y)
    if order == 3:
        out = out + (h ** 3 / 6.0) * _derivative(d3, "taylor_d3", t, y)
    return _finite_or_raise(out)


def _derivative(fn, what, t, y):
    return as_state(np.asarray(fn(t, y), dtype=float), y.shape, what)


def rk_stability_value(tableau: ButcherTableau, z):
    """Amplification R(z) = 1 + z b^T (I - zA)^{-1} 1 on y' = lambda*y.

    Evaluated as the exact rational ``tableau.stability_polynomials``, for a
    scalar z or elementwise on a numpy array.  Poles give inf or nan.
    """
    p, q = tableau.stability_polynomials
    return polyval(p, z) / polyval(q, z)


# ---------------------------------------------------------------------------
# march adapters

# the shipped tableaus, by the name each one carries
TABLEAUS = {tab.name: tab for tab in (EULER, HEUN, MIDPOINT, RK3, RK4, IMPLICIT_EULER_TABLEAU,
                                      TRAPEZOIDAL_TABLEAU, TRBDF2, GAUSS2)}


class Stepper:
    """Adapter driven by ``core.march``: one state update per ``advance``.

    ``reset(grid, n_full)`` starts a march on ``grid`` (see
    ``core.build_grid``; steps 1..n_full have the full step size, a last
    one may be shorter) and drops what a previous march left.  ``advance``
    is then called once per step, in order; a stepper may keep the state it
    returns, which callers must not modify in place.  A step may return a
    non-finite state or raise NonFiniteError; the march's state check turns
    either into DivergenceError.  ``f`` is a pure function of (t, y) whose
    value the march's wrapper returns again at a repeated call, so no array
    passed to it may be modified in place afterwards.
    """

    name = "?"
    declared_order = 1

    def reset(self, grid, n_full):
        pass

    def advance(self, f, t, y, h, stats):
        raise NotImplementedError


class _RkStepper(Stepper):
    def __init__(self, name, tableau, start, strategy, problem):
        self.name = name
        self.declared_order = tableau.declared_order
        self._tableau = tableau
        self._start = start
        self._strategy = strategy
        self._jac = getattr(problem, "jacobian", None)
        self._jac_constant = getattr(problem, "jacobian_constant", False)
        self.reset(None, None)  # a multistep bootstrap steps without a march's reset

    def reset(self, grid, n_full):
        self._slots = None
        if self._jac_constant:
            self._slots = [None if implicit is None else LuSlot()
                           for *_, implicit in self._tableau.plan]

    def advance(self, f, t, y, h, stats):
        return _rk_stages(self._tableau, f, t, y, h, self._strategy, self._jac, stats,
                          self._start, self._slots)


class _TaylorStepper(Stepper):
    def __init__(self, order, problem):
        self.name = f"taylor{order}"
        self.declared_order = order
        d2 = getattr(problem, "taylor_d2", None)
        d3 = getattr(problem, "taylor_d3", None)
        if d2 is None or (order == 3 and d3 is None):
            raise MissingDerivativeError(
                f"problem lacks the derivative callbacks needed by taylor{order}"
            )
        self._order = order
        self._d2 = d2
        self._d3 = d3

    def advance(self, f, t, y, h, stats):
        return taylor_step(f, self._d2, self._d3, self._order, t, y, h)


def _rk(tableau, start=PREDICTED):
    """Table entry of a tableau method whose implicit stages start at ``start``."""
    return lambda name, problem, strategy: _RkStepper(name, tableau, start, strategy, problem)


def _leapfrog(name, problem, strategy):
    """y_{k+1} = y_{k-1} + 2h f(t_k, y_k) after one Heun step, which also
    takes a shortened final step (local error h^3 keeps the second order)."""
    from .multistep import MultistepStepper, leapfrog_method

    return MultistepStepper(leapfrog_method(), problem, strategy, bootstrap="heun")


# Name -> stepper factory.  TR-BDF2 iterates its stages from their known
# parts: from the explicit-Euler value Newton fails on Robertson's problem
# at h = 0.02.
_STEPPERS = {
    **{name: _rk(tableau) for name, tableau in TABLEAUS.items()},
    "trbdf2": _rk(TRBDF2, KNOWN),
    "taylor2": lambda name, problem, strategy: _TaylorStepper(2, problem),
    "taylor3": lambda name, problem, strategy: _TaylorStepper(3, problem),
    "leapfrog": _leapfrog,
}


def make_stepper(name: str, problem=None, strategy=None) -> Stepper:
    """Build a march-ready stepper from its command-line name
    (``theta:<value>`` for the theta-method); ``strategy`` is the implicit
    solves' iteration (see ``uses_newton``)."""
    uses_newton(strategy, None)  # an unknown strategy raises here
    tableau = theta_by_name(name)
    entry = _rk(tableau) if tableau is not None else _STEPPERS.get(name)
    if entry is None:
        raise ValueError(f"unknown one-step method {name!r}")
    return entry(name, problem, strategy)
