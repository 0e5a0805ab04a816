"""Bit-identity of the implicit kernel's building blocks, of the 2x2
eigensolver, of the stability raster emitters, of the boundary locus and
of the fixed-grid and multistep marches.

Each reference below is a verbatim copy of a routine as it stood before
it was tuned (wrapper-free reductions and per-march history plans for
small systems; axis labels formatted once per raster; one finiteness check
per march step, with a sum-of-squares exit before the exact reduction;
the locus one sample at a time; the corrector's f evaluated again at the
new state) or before it was made safe for tiny and huge entries (the 2x2
eigensolver, now scaled by a power of two).  The tuned routines
must reproduce them bit for bit: factors, permutations, solutions,
history sums and trajectories compare by ``tobytes()``, locus points by
the ``repr`` of their parts, the errors raised on singular, non-finite or
non-square input by message, and emitted text by string.
"""
import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

import odekit as ok
from odekit import cli
from odekit import core
from odekit import linalg
from odekit import multistep as ms
from odekit import steppers as sp
from odekit.core import (
    DIVERGENCE_THRESHOLD,
    OVERFLOW_GUARD,
    CountingRhs,
    RunStats,
    _finish,
    build_grid,
)
from odekit.multistep import (
    HistoryBuffer,
    _corrector_config,
    _default_predictor,
    _history_plan,
    _history_sum,
)
from odekit.stability import StabilityRegionRaster
from odekit.errors import DivergenceError, NonFiniteError, OdekitError, SingularMatrixError
from odekit.linalg import PIVOT_RTOL
from odekit.steppers import (
    DEFAULT_IMPLICIT,
    KNOWN,
    PREDICTED,
    _finite_or_raise,
    _plus_weighted,
    solve_implicit,
)


# ---------------------------------------------------------------------------
# verbatim references


def ref_mat_norm_inf(a) -> float:
    a = np.atleast_2d(np.asarray(a))
    return float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0


def ref_lu_factor(a):
    a = np.array(a, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    n = a.shape[0]
    if not np.all(np.isfinite(a.real)) or (np.iscomplexobj(a) and not np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    scale = ref_mat_norm_inf(a)
    perm = np.arange(n)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) < PIVOT_RTOL * max(scale, 1e-300):
            raise SingularMatrixError(
                f"pivot {abs(pivot):.3e} below threshold at column {col}"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            perm[[col, pivot_row]] = perm[[pivot_row, col]]
        if col + 1 < n:
            factors = a[col + 1:, col] / pivot
            a[col + 1:, col] = factors
            a[col + 1:, col + 1:] -= np.outer(factors, a[col, col + 1:])
    return a, perm


def ref_lu_solve_factored(lu, perm, b):
    b = np.asarray(b)
    x = np.array(b[perm], dtype=lu.dtype)
    n = lu.shape[0]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lu[i, i + 1:] @ x[i + 1:]
        x[i] /= lu[i, i]
    return x


def ref_eig_2x2(a):
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("2x2 matrix required")
    a11, a12, a21, a22 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = complex(tr * tr - 4.0 * det)
    s = cmath.sqrt(disc)
    lam = np.array([(tr - s) / 2.0, (tr + s) / 2.0], dtype=complex)
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-300)

    def eigvec(l):
        v1 = np.array([a12, l - a11], dtype=complex)
        v2 = np.array([l - a22, a21], dtype=complex)
        v = v1 if linalg.vec_norm_inf(v1) >= linalg.vec_norm_inf(v2) else v2
        if linalg.vec_norm_inf(v) <= 1e-14 * scale:
            return None
        return v / linalg.vec_norm_inf(v)

    if abs(s) <= 1e-12 * scale:
        lam[:] = tr / 2.0
        if max(abs(a12), abs(a21), abs(a11 - a22)) <= 1e-14 * scale:
            vecs = np.eye(2, dtype=complex)
            return linalg.EigenDecomposition(lam, vecs, defective=False)
        v = eigvec(lam[0])
        vecs = np.column_stack([v, v])
        return linalg.EigenDecomposition(lam, vecs, defective=True)

    vecs = []
    for l in lam:
        v = eigvec(l)
        if v is None:
            v = np.array([1.0, 0.0], dtype=complex) if len(vecs) == 0 else np.array([0.0, 1.0], dtype=complex)
        vecs.append(v)
    return linalg.EigenDecomposition(lam, np.column_stack(vecs), defective=False)


def ref_history_sum(method, hist, h):
    a, b = method.a, method.b
    acc = a[0] * hist.back(0)[1]
    for j in range(1, method.q + 1):
        if a[j] != 0.0:
            acc = acc + a[j] * hist.back(j)[1]
    rhs = None
    for j in range(method.q + 1):
        if b[j + 1] != 0.0:
            term = b[j + 1] * hist.back(j)[2]
            rhs = term if rhs is None else rhs + term
    return acc if rhs is None else acc + h * rhs


def history_sum(method, hist, h):
    """The package's history sum of ``method`` over ``hist``."""
    return ms._history_sum(ms._history_plan(method), hist, h)


def ref_raster_csv(raster):
    fmt = cli.fmt
    lines = ["re,im,stable"]
    res, ims = raster.grid_centers()
    for iy, im in enumerate(ims):
        for ix, re in enumerate(res):
            lines.append(f"{fmt(re)},{fmt(im)},{1 if raster.member[iy, ix] else 0}")
    return "\n".join(lines) + "\n"


def ref_raster_svg(raster, locus_points=None):
    parts = cli._svg_header()
    cw = 800.0 / raster.nx
    ch = 800.0 / raster.ny
    res, ims = raster.grid_centers()
    for iy in range(raster.ny):
        for ix in range(raster.nx):
            if raster.member[iy, ix]:
                x = f"{ix * cw:.4f}"
                y = f"{800.0 - (iy + 1) * ch:.4f}"
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cw:.4f}" height="{ch:.4f}" fill="#9db8e8"/>'
                )
    # axes
    if raster.re_min < 0 < raster.re_max:
        px = cli._to_px(0.0, raster.re_min, raster.re_max)
        parts.append(f'<line x1="{px:.4f}" y1="0" x2="{px:.4f}" y2="800" stroke="black"/>')
    if raster.im_min < 0 < raster.im_max:
        py = 800.0 - cli._to_px(0.0, raster.im_min, raster.im_max)
        parts.append(f'<line x1="0" y1="{py:.4f}" x2="800" y2="{py:.4f}" stroke="black"/>')
    if locus_points:
        parts.append(cli._locus_polyline(locus_points, raster.re_min, raster.re_max,
                                         raster.im_min, raster.im_max))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# matrices


def random_matrix(rng, n, dtype):
    a = rng.normal(size=(n, n))
    if dtype is complex:
        a = a + 1j * rng.normal(size=(n, n))
    return a


def newton_matrix(rng, n, dtype):
    """I - c J with a stiff J, the kind of matrix the Newton solves factor."""
    j = random_matrix(rng, n, dtype) * 10.0 ** rng.uniform(-3, 4, size=(n, 1))
    return np.eye(n) - 0.01 * j


def same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("build", [random_matrix, newton_matrix])
def test_lu_factor_and_solve_match_reference(dtype, build):
    rng = np.random.default_rng(20261018)
    for n in range(1, 41):
        a = build(rng, n, dtype)
        lu, perm = linalg.lu_factor(a)
        ref_lu, ref_perm = ref_lu_factor(a)
        assert same_bytes(lu, ref_lu), n
        assert same_bytes(perm, ref_perm), n
        for b in (random_matrix(rng, n, dtype)[:, 0], random_matrix(rng, n, dtype)[:, :3]):
            assert same_bytes(linalg.lu_solve_factored(lu, perm, b),
                              ref_lu_solve_factored(ref_lu, ref_perm, b)), n
            assert same_bytes(linalg.lu_solve(a, b), ref_lu_solve_factored(ref_lu, ref_perm, b)), n


def test_empty_system_matches_reference():
    a, b = np.zeros((0, 0)), np.zeros(0)
    for got, ref in zip(linalg.lu_factor(a), ref_lu_factor(a)):
        assert same_bytes(got, ref)
    assert same_bytes(linalg.lu_solve(a, b), ref_lu_solve_factored(*ref_lu_factor(a), b))


def test_lu_solve_of_real_factors_with_list_rhs():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    lu, perm = linalg.lu_factor(a)
    b = [1, 2, 3]
    assert same_bytes(linalg.lu_solve_factored(lu, perm, b), ref_lu_solve_factored(lu, perm, b))


def test_mat_norm_inf_matches_reference():
    rng = np.random.default_rng(3)
    cases = [np.zeros((0, 0)), np.zeros(0), rng.normal(size=5), rng.normal(size=(4, 7)),
             random_matrix(rng, 6, complex), [[1.0, -2.0], [3.0, 4.0]]]
    for a in cases:
        assert linalg.mat_norm_inf(a) == ref_mat_norm_inf(a)


def error_of(fn, a):
    try:
        fn(a)
    except (SingularMatrixError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def near_singular_cases():
    rng = np.random.default_rng(11)
    yield np.zeros((1, 1))
    yield np.zeros((3, 3))
    yield np.array([[1e-320]])
    yield np.array([[1.0, 2.0], [2.0, 4.0]])
    yield np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    for n in (2, 3, 5, 9, 17, 40):
        for dtype in (float, complex):
            u = random_matrix(rng, n, dtype)[:, :1]
            v = random_matrix(rng, n, dtype)[:1, :]
            yield u @ v  # rank one
            a = random_matrix(rng, n, dtype)
            a[:, -1] = a[:, 0] * 3.0  # two proportional columns
            yield a


@pytest.mark.parametrize("a", list(near_singular_cases()))
def test_singular_input_raises_the_reference_error(a):
    want = error_of(ref_lu_factor, a)
    assert want is not None and want[0] is SingularMatrixError
    assert error_of(linalg.lu_factor, a) == want


@pytest.mark.parametrize("a", [np.array([[1e308, 1e308], [1.0, 1.0]]),
                               np.array([[complex(1.5e308, 1.5e308)]]),
                               np.array([[1e308, -1e308], [1e308, 1e308]])])
def test_finite_entries_with_an_overflowing_norm_match_reference(a):
    # the norm is inf, but every entry is finite: no "must be finite" error
    with np.errstate(over="ignore"):
        assert not linalg.mat_norm_inf(a) < np.inf
        want = error_of(ref_lu_factor, a)
        assert error_of(linalg.lu_factor, a) == want
        if want is None:
            for got, ref in zip(linalg.lu_factor(a), ref_lu_factor(a)):
                assert same_bytes(got, ref)


def bad_input_cases():
    yield np.array([[1.0, np.nan], [0.0, 1.0]])
    yield np.array([[np.inf, 0.0], [0.0, 1.0]])
    yield np.array([[1.0, 0.0], [0.0, -np.inf]])
    yield np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]])
    yield np.array([[complex(1.0, np.nan)]])
    yield np.array([[complex(np.inf, 1.0), 0.0], [0.0, 1.0]])
    yield np.ones((2, 3))
    yield np.ones(3)
    yield np.ones((2, 2, 2))


@pytest.mark.parametrize("a", list(bad_input_cases()))
def test_bad_input_raises_the_reference_error(a):
    want = error_of(ref_lu_factor, a)
    assert want is not None and want[0] is ValueError
    assert error_of(linalg.lu_factor, a) == want


def normal_range_2x2():
    """Random 2x2 matrices from 1e-100 to 1e100 in size, with real,
    complex, repeated and zero eigenvalues, and scalar, triangular and
    defective ones."""
    rng = np.random.default_rng(11)
    for size in 10.0 ** np.arange(-100, 101, 20):
        for _ in range(20):
            yield size * rng.normal(size=(2, 2))
        yield size * np.array([[0.0, 1.0], [-1.0, 0.0]])
        yield size * np.array([[1.0, 1.0], [0.0, 1.0]])
        yield size * np.array([[-2.0, 1.0], [2.0, -1.0]])
        yield size * np.eye(2)
    yield np.zeros((2, 2))


def test_eig_2x2_matches_reference_in_the_normal_range():
    for a in normal_range_2x2():
        got, ref = linalg.eig_2x2(a), ref_eig_2x2(a)
        assert same_bytes(got.eigenvalues, ref.eigenvalues), a
        assert same_bytes(got.eigenvectors, ref.eigenvectors), a
        assert got.defective == ref.defective, a


@pytest.mark.parametrize("name", ms.MULTISTEP_NAMES + ("leapfrog",))
def test_history_sum_matches_reference(name):
    method = ms.multistep_by_name(name)
    rng = np.random.default_rng(len(name) * 100 + method.q)
    h = 0.125
    hist = ms.HistoryBuffer(method.q + 1, h)
    for k in range(method.q + 7):
        y = rng.normal(size=4)
        fy = rng.normal(size=4) * 10.0
        # signed zeros: with leapfrog's zero a_0, 0 * (+0) + (-0) + h * 2 * (-0)
        # is +0 only when the zero-weight term is summed, as the reference does
        y[0] = -0.0 if k % 2 else 0.0
        fy[0] = -0.0
        hist.push(k * h, y, fy)
        if len(hist) == method.q + 1:
            assert same_bytes(history_sum(method, hist, h), ref_history_sum(method, hist, h))


def rasters():
    """Non-square rasters, one-cell-wide included, with random, full and
    empty membership; bounds with and without the axes inside."""
    rng = np.random.default_rng(3)
    for nx, ny, bounds in [(7, 3, (-3.0, 1.0, -2.5, 2.5)), (1, 5, (-0.7, 0.3, 0.1, 9.0)),
                           (3, 7, (0.25, 6.0, -1.0, 1e-3)), (11, 2, (-1e6, -1e-3, -3.0, 1.0))]:
        for member in (rng.random((ny, nx)) < 0.5, np.ones((ny, nx), bool),
                       np.zeros((ny, nx), bool)):
            yield StabilityRegionRaster(*bounds, nx, ny, member)


@pytest.mark.parametrize("raster", list(rasters()))
def test_raster_emitters_match_reference(raster):
    assert cli.raster_csv(raster) == ref_raster_csv(raster)
    assert cli.raster_svg(raster) == ref_raster_svg(raster)
    locus = [complex(-1.0, 0.5), None, complex(0.2, -0.4)]
    assert cli.raster_svg(raster, locus) == ref_raster_svg(raster, locus)


# ---------------------------------------------------------------------------
# the fixed-grid march: verbatim references of the state check, of the
# checked stage engine and of the march loop (which here takes a built
# stepper in place of a method name)


def ref_check_state(y, k, times, states, stats, step_log=None):
    t = times[k]
    # NaN when the state holds a NaN, inf when it holds an inf
    size = float(np.abs(y).max())
    if not size < math.inf:
        stats.diverged = True
        if stats.divergence_time is None:
            stats.divergence_time = t
        raise DivergenceError(f"state became non-finite near t={t:.6g}",
                              _finish(times[:k], states[:k], stats, step_log))
    if size > DIVERGENCE_THRESHOLD and not stats.diverged:
        stats.diverged = True
        stats.divergence_time = t
    if size > OVERFLOW_GUARD:
        raise DivergenceError(f"state magnitude passed the overflow guard near t={t:.6g}",
                              _finish(times[:k + 1], states[:k + 1], stats, step_log))


def ref_rk_step(tableau, f, t, y, h, cfg=None, jacobian=None, stats=None,
                start=PREDICTED, slots=None):
    ks = [None] * tableau.stages
    slope = None
    z = y
    for group, (stages, cs, known, implicit) in enumerate(tableau.plan):
        if implicit is None:
            z = _plus_weighted(y, h, known[0], ks)
            ks[stages.start] = f(t + cs[0] * h, z)
            continue
        ts = [t + ci * h for ci in cs]
        bases = [_plus_weighted(y, h, terms, ks) for terms in known]
        if start == KNOWN:
            u0 = bases
        elif (cfg or DEFAULT_IMPLICIT).predictor == "previous-value":
            u0 = [y] * len(stages)
        else:
            if slope is None:
                slope = f(t, y) if ks[0] is None else ks[0]
            u0 = [y + (ci * h) * slope for ci in cs]
        zs, fz = solve_implicit(f, ts, bases, h, implicit, u0, cfg, jacobian, stats,
                                slot=None if slots is None else slots[group])
        z = zs[-1]
        if fz is None and not (tableau.stiffly_accurate and stages.stop == tableau.stages):
            fz = [f(ti, zi) for ti, zi in zip(ts, zs)]
        for i, k in zip(stages, fz or ()):
            ks[i] = k
    if tableau.stiffly_accurate:
        return _finite_or_raise(z)
    return _finite_or_raise(_plus_weighted(y, h, tableau.plan_b, ks))


def ref_march(problem, stepper, h):
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    stepper.reset()

    stats = RunStats()
    f = CountingRhs(problem.rhs, problem.dim, stats)
    states = np.empty((len(grid), problem.dim))
    states[0] = y = problem.y0.copy()
    for k in range(1, len(grid)):
        t_prev = grid[k - 1]
        hk = h if k <= n_full else grid[k] - t_prev
        try:
            y = stepper.advance(f, t_prev, y, hk, stats)
        except NonFiniteError:
            y = math.nan  # stored as a non-finite state, which the check rejects
        states[k] = y
        ref_check_state(y, k, grid, states, stats)
    return _finish(grid, states, stats)


def reference_stepper(name, problem):
    """The package's stepper for ``name``, whose tableau steps (if any) run
    ``ref_rk_step`` on the stepper's own tableau, start and LU slots."""
    stepper = sp.make_stepper(name, problem)
    if isinstance(stepper, sp._RkStepper):
        def advance(f, t, y, h, stats, s=stepper):
            return ref_rk_step(s._tableau, f, t, y, h, s._cfg, s._jac, stats, s._start,
                               s._slots)
        stepper.advance = advance
    return stepper


def switching_problem(late):
    """y' = -y up to t = 0.5 and the constant ``late`` after it."""
    def rhs(t, y):
        return np.full(1, late) if t > 0.5 else -y
    return ok.IvpProblem(name="switch", dim=1, rhs=rhs, t0=0.0, t_end=1.0, y0=np.ones(1))


MARCH_METHODS = ("euler", "heun", "rk2mid", "rk3", "rk4", "ieuler", "trap", "trbdf2",
                 "gauss2", "leapfrog", "taylor2", "taylor3")

# (problem, h): exact and shortened grids, and runs that end flagged, past the
# overflow guard and on a non-finite state
MARCH_CASES = {
    "decay": (ok.get_problem("decay", t_end=1.0), 0.125),
    "decay-short-last-step": (ok.get_problem("decay", t_end=1.0), 0.03),
    "dog_jogger": (ok.get_problem("dog_jogger"), 0.05),
    "blowup-past-its-pole": (dataclasses.replace(ok.get_problem("blowup"), t_end=1.5), 0.01),
    "lambda_cos-unstable-euler": (ok.get_problem("lambda_cos", lam=-2100.0), 1e-3),
    "nan-rhs": (switching_problem(np.nan), 0.125),
    "inf-rhs": (switching_problem(np.inf), 0.125),
}


def march_outcome(run):
    """The trajectory a run returns or its DivergenceError carries (None
    after any other error), the error and its message (None on a clean run)
    and the warnings the run emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            traj, message = run(), None
        except DivergenceError as exc:
            traj, message = exc.trajectory, exc.args[0]
        except OdekitError as exc:
            traj, message = None, (type(exc), exc.args[0])
    return traj, message, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("method, case", [
    (method, case) for method in MARCH_METHODS for case, (problem, _) in MARCH_CASES.items()
    if not method.startswith("taylor") or problem.taylor_d2 is not None])
def test_march_matches_reference(method, case):
    problem, h = MARCH_CASES[case]
    got = march_outcome(lambda: ok.march(problem, method, h))
    ref = march_outcome(lambda: ref_march(problem, reference_stepper(method, problem), h))
    (traj, message, caught), (ref_traj, ref_message, ref_caught) = got, ref
    assert message == ref_message
    assert caught == ref_caught
    if ref_traj is not None:
        assert same_bytes(traj.times, ref_traj.times)
        assert same_bytes(traj.states, ref_traj.states)
        assert traj.stats == ref_traj.stats


def test_march_cases_reach_every_verdict():
    """The cases above end clean, flagged, past the guard and non-finite."""
    verdicts = set()
    for case, (problem, h) in MARCH_CASES.items():
        traj, message, _ = march_outcome(lambda: ok.march(problem, "euler", h))
        verdicts.add((message or "clean").split(" near")[0]
                     + (" flagged" if traj.stats.diverged else ""))
    assert verdicts == {"clean", "clean flagged", "state became non-finite flagged",
                        "state magnitude passed the overflow guard flagged"}


def check_verdict(check, y, stats):
    """What ``check`` makes of ``y`` stored as state 3 of five: the stats,
    the error message and the partial trajectory's bytes."""
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    states = np.ones((len(times), np.size(y)))
    states[3] = y
    try:
        check(y, 3, times, states, stats)
    except DivergenceError as exc:
        partial = exc.trajectory
        return stats, exc.args[0], partial.times.tobytes(), partial.states.tobytes()
    return stats, None, None, None


def boundary_states():
    up, down = np.nextafter(1e12, np.inf), np.nextafter(1e12, -np.inf)
    root = math.sqrt(1e23)
    for v in (up, down, -up, -down, 1e12, root, np.nextafter(root, np.inf),
              np.nextafter(root, -np.inf), 3e11, np.inf, -np.inf, np.nan, 1e160, -1e160,
              1e250, 1e200, np.nextafter(1e200, np.inf), 5e-324, 0.0):
        yield np.array([v])
    yield np.full(1000, 5e11)  # sum of squares past 1e23, no entry past 1e12
    yield np.full(1000, 1e10)
    yield np.array([1.0, np.nan, 2.0])
    yield np.array([1.0, -np.inf])
    yield np.array([1e154, 1e155])
    yield np.array([1e11, 2e11, 2.5e11])
    yield np.zeros(3)
    yield np.nan


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flagged_before", [False, True])
@pytest.mark.parametrize("y", list(boundary_states()), ids=repr)
def test_check_state_verdict_matches_exact_reduction(y, flagged_before):
    def stats():
        return RunStats(diverged=True, divergence_time=0.25) if flagged_before else RunStats()
    assert check_verdict(core._check_state, y, stats()) == check_verdict(ref_check_state, y,
                                                                         stats())


# ---------------------------------------------------------------------------
# boundary locus: one sample at a time, through the scalar rho and sigma


def ref_rho(method, r: complex) -> complex:
    acc = r ** (method.q + 1)
    for j in range(method.q + 1):
        acc -= method.a[j] * r ** (method.q - j)
    return acc


def ref_sigma(method, r: complex) -> complex:
    acc = method.b[0] * r ** (method.q + 1)
    for j in range(method.q + 1):
        acc += method.b[j + 1] * r ** (method.q - j)
    return acc


def ref_boundary_locus(method, samples: int):
    if samples < 8:
        raise ValueError("need at least 8 samples")
    out = []
    scale = max(1e-300, float(np.max(np.abs(method.b))))
    for j in range(samples):
        theta = 2.0 * math.pi * j / samples
        r = cmath.exp(1j * theta)
        sig = ref_sigma(method, r)
        if abs(sig) <= 1e-12 * scale:
            out.append(None)
        else:
            out.append(ref_rho(method, r) / sig)
    return out


def locus_bits(points):
    """Per point: None for a gap, else the repr of its real and imaginary parts."""
    return [None if z is None else (repr(float(z.real)), repr(float(z.imag)))
            for z in points]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("samples", [8, 9, 100, 256, 512, 1000, 1001])
@pytest.mark.parametrize("name", ms.MULTISTEP_NAMES + ("leapfrog",))
def test_boundary_locus_matches_scalar_reference(name, samples):
    method = ms.multistep_by_name(name)
    assert locus_bits(ok.boundary_locus(method, samples)) == locus_bits(
        ref_boundary_locus(method, samples))


def test_boundary_locus_reference_has_gaps():
    """am1's sigma vanishes at theta = pi: the comparison covers gaps."""
    assert ref_boundary_locus(ms.am_method(1), 8)[4] is None
    assert ok.boundary_locus(ms.am_method(1), 8)[4] is None


# ---------------------------------------------------------------------------
# multistep march: f at the new state evaluated again after the corrector


def ref_multistep_march(problem, method, h, cfg=None, bootstrap="rk4", predictor=None,
                        corrections=1):
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
    boot = None if bootstrap == "exact" else sp.make_stepper(bootstrap, problem, cfg)

    states = np.empty((len(grid), problem.dim))
    states[0] = y = problem.y0.copy()
    hist = HistoryBuffer(depth, h)
    hist.push(grid[0], y, f(grid[0], y))

    solve_cfg, check_from = _corrector_config(cfg, problem.jacobian, corrections)
    rows = [[(0, float(method.b[0]))]]
    slot = sp.LuSlot() if problem.jacobian_constant else None
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
            core._check_state(y, k, grid, states, stats)
            hist.push(grid[k], y, f(grid[k], y))

        for k in range(depth, n_full + 1):
            t_new = grid[k]
            y = known = _history_sum(plan, hist, h)
            if method.implicit:
                y = pred = _history_sum(pred_plan, hist, h)
                if solve_cfg is not None:
                    start = pred if np.isfinite(pred).all() else known
                    y = solve_implicit(f, [t_new], [known], h, rows, [start], solve_cfg,
                                       problem.jacobian, stats, check_from, slot)[0][0]
            states[k] = y
            core._check_state(y, k, grid, states, stats)
            hist.push(t_new, y, f(t_new, y))

        if n_full + 1 < len(grid):
            # shortened landing step onto t_end, outside the equispaced history
            k = len(grid) - 1
            stepper = boot if boot is not None else sp.make_stepper("rk4", problem, cfg)
            states[k] = y = stepper.advance(f, grid[k - 1], y, grid[k] - grid[k - 1], stats)
            core._check_state(y, k, grid, states, stats)
    except NonFiniteError:
        # no state k was stored: stop before it, as on a non-finite state k
        core._check_state(np.nan, k, grid, states, stats)
    return _finish(grid, states, stats)


# (problem, method, h, keyword arguments, whether the corrector's f is reused)
MULTISTEP_RUNS = {
    "bdf2-newton": (ok.get_problem("vdp", t_end=2.0), "bdf2", 0.01, {}, True),
    "bdf3-newton-constant-jacobian": (ok.get_problem("mol_diffusion"), "bdf3", 0.005, {}, True),
    "bdf2-newton-short-last-step": (ok.get_problem("decay", t_end=1.0), "bdf2", 0.03, {}, True),
    "am2-converge": (ok.get_problem("dog_jogger", t_end=3.0), "am2", 0.05,
                     {"corrections": "converge"}, True),
    "am2-converge-nan-rhs": (switching_problem(np.nan), "am2", 0.0625,
                             {"corrections": "converge"}, True),
    "am1-pece": (ok.get_problem("dog_jogger", t_end=3.0), "am1", 0.05, {}, False),
    "am3-pe(ce)^3": (ok.get_problem("vdp", t_end=2.0), "am3", 0.01,
                     {"cfg": sp.ImplicitSolveConfig(strategy="fixed-point"), "corrections": 3},
                     False),
    "bdf2-zero-corrections": (ok.get_problem("dog_jogger", t_end=3.0), "bdf2", 0.05,
                              {"corrections": 0}, False),
    "ab3": (ok.get_problem("vdp", t_end=2.0), "ab3", 0.01, {}, False),
}


def corrector_steps(traj, problem, method, h):
    """The multistep steps stored in ``traj``: not the bootstrap, not a
    shortened landing step."""
    _, n_full = build_grid(problem.t0, problem.t_end, h)
    depth = max(method.q + 1, _default_predictor(method).q + 1)
    return min(len(traj.times), n_full + 1) - depth


@pytest.mark.parametrize("case", list(MULTISTEP_RUNS))
def test_multistep_march_matches_reference(case):
    problem, name, h, kwargs, reuses = MULTISTEP_RUNS[case]
    method = ms.multistep_by_name(name)
    got = march_outcome(lambda: ms.multistep_march(problem, method, h, **kwargs))
    ref = march_outcome(lambda: ref_multistep_march(problem, method, h, **kwargs))
    (traj, message, caught), (ref_traj, ref_message, ref_caught) = got, ref
    assert message == ref_message
    assert caught == ref_caught
    assert same_bytes(traj.times, ref_traj.times)
    assert same_bytes(traj.states, ref_traj.states)
    saved = corrector_steps(ref_traj, problem, method, h) if reuses else 0
    assert traj.stats == dataclasses.replace(ref_traj.stats,
                                             rhs_evals=ref_traj.stats.rhs_evals - saved)


def test_multistep_runs_reach_the_nan_rhs():
    problem, name, h, kwargs, _ = MULTISTEP_RUNS["am2-converge-nan-rhs"]
    traj, message, _ = march_outcome(
        lambda: ms.multistep_march(problem, ms.multistep_by_name(name), h, **kwargs))
    assert message.startswith("state became non-finite")
    assert corrector_steps(traj, problem, ms.multistep_by_name(name), h) > 0
