"""Bit-identity of the 2x2 eigensolver, of the history sums, of the
stability raster emitters, of the implicit-solve kernel, of the
fixed-grid and multistep marches and of the adaptive pair; the accuracy
contracts of the implicit kernel's linear algebra; and the accuracy of the
boundary locus.

Each bit reference below is a verbatim copy of a routine as it stood before
it was tuned (per-march history plans; axis labels formatted once per
raster; one finiteness check per march step, with a sum-of-squares exit
before the exact reduction; the corrector's f evaluated again at the new
state; every implicit solve on stacked stage blocks, now iterated on the
state itself when there is one block; the adaptive pair's and the implicit
solve's settings, now module constants, and for the solve a ``strategy``
that the problem's Jacobian now decides; the rhs wrapper, which evaluated f
on every call), before it became a stepper under ``core.march`` (the
multistep march loop with its history buffer, and the leapfrog stepper) or
before it was made safe for tiny and huge entries (the 2x2 eigensolver, now
scaled by a power of two).  The tuned routines must reproduce them bit for
bit: history sums and trajectories compare by ``tobytes()``, emitted text by
string.  The references of the stage engine and of the multistep march call
the kernel's reference, so each of them runs on the old settings throughout,
and every reference run evaluates f on every call, so the package's runs
make fewer evaluations by exactly the calls that repeat the last one (first
same as last).  One exception: a multistep corrector that runs Newton on a
Jacobian its problem does not declare constant now keeps its factors across
steps, where the reference factors on every update; those runs are held to
the reference's times and messages, to its states within a stated bound and
to at most its J evaluations.

``lu_factor`` and ``vec_norm_inf`` have no bit reference.  Factors and
solutions are held to Higham's backward-error bounds, checked in exact
arithmetic; the inf-norm to the exact maximum, NaN exactly when an entry is
NaN; the pivot test to the exact floor outside a 2n-ulp window; and their
errors to literal messages.  The banded ``lu_solve_factored`` also has the
bits of the dense substitution it replaced (a verbatim copy below) on
finite systems with nonzero right-hand sides, where the products it leaves
out, each with an exact 0, cannot change a sum.

The boundary locus has no bit reference either: each of its points is held
to the exact value of rho(r) / sigma(r) at its float r, within 1e-12
relative.
"""
import cmath
import dataclasses
from array import array
import math
import re
import warnings
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odekit as ok
from odekit import cli
from odekit import core
from odekit import linalg
from odekit import multistep as ms
from odekit import problems
from odekit import steppers as sp
from odekit.core import (
    DIVERGENCE_THRESHOLD,
    OVERFLOW_GUARD,
    CountingRhs,
    RunStats,
    build_grid,
)
from odekit.multistep import _default_predictor, _history_plan
from odekit.stability import StabilityRegionRaster
from odekit.adaptive import StepRecord
from odekit.errors import (
    DivergenceError,
    ImplicitSolveError,
    NonFiniteError,
    OdekitError,
    RejectCapError,
    SingularMatrixError,
    StepUnderflowError,
)
from odekit.linalg import PIVOT_RTOL
from odekit.steppers import (
    KNOWN,
    PREDICTED,
    _finite_or_raise,
    _identity,
    solve_implicit,
)
from tests.conftest import LMM_MODEL_NAMES, inverse_t, lmm, rk_step, without_jacobian


# ---------------------------------------------------------------------------
# verbatim references


class RefCountingRhs:
    """Wraps a right-hand side, counting evaluations and checking shape."""

    def __init__(self, rhs, dim: int, stats: RunStats):
        self._rhs = rhs
        self._shape = (dim,)
        self._stats = stats

    def __call__(self, t, y):
        self._stats.rhs_evals += 1
        out = np.asarray(self._rhs(t, y), dtype=float)
        if out.shape != self._shape:
            out = core.as_state(out, self._shape, "rhs")
        return out


def ref_weighted(h, terms, ks):
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


def ref_plus_weighted(y, h, terms, ks):
    """y + h sum_j w_j ks[j], or y itself when there are no terms."""
    return y + ref_weighted(h, terms, ks) if terms else y


def ref_finish(times, states, stats, step_log=None):
    return core.Trajectory(
        np.array(times, dtype=float), np.asarray(states, dtype=float), stats, step_log
    )


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

    # not verbatim: the small real root by Vieta's formula, which the scaled
    # solver took on together with the reference
    if disc.real > 0:
        far = 0 if tr < 0 else 1
        lam[1 - far] = det / lam[far].real if det else 0.0
    vecs = []
    for l in lam:
        v = eigvec(l)
        if v is None:
            v = np.array([1.0, 0.0], dtype=complex) if len(vecs) == 0 else np.array([0.0, 1.0], dtype=complex)
        vecs.append(v)
    return linalg.EigenDecomposition(lam, np.column_stack(vecs), defective=False)


def ref_lu_solve_factored(lu, perm, b):
    pb = np.asarray(b)[perm]
    rows = lu.tolist()
    n = len(rows)
    cols = pb.T.tolist() if pb.ndim == 2 else [pb.tolist()]
    for x in cols:
        for i in range(1, n):
            row, s = rows[i], x[i]
            for j in range(i):
                s -= row[j] * x[j]
            x[i] = s
        for i in range(n - 1, -1, -1):
            row, s = rows[i], x[i]
            for j in range(i + 1, n):
                s -= row[j] * x[j]
            x[i] = s / row[i]
    x = np.array(cols, dtype=np.result_type(lu, pb)).reshape(len(cols), n)
    return x.T.copy() if pb.ndim == 2 else x[0]


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


def _history_sum(plan, hist, h):
    """The history sum over a ``HistoryBuffer``, as ``ref_multistep_march``
    calls it."""
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


def history_sum(method, hist, h):
    """The package's history sum of ``method`` over the states and f values
    of ``hist``, newest first, handed over as the lists of floats a march
    holds; returned as an array."""
    back = [hist.back(j) for j in range(len(hist))]
    return np.array(ms._history_sum(ms._history_plan(method), [y.tolist() for _, y, _ in back],
                                    [fy.tolist() for _, _, fy in back], h))


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
# the implicit kernel's contracts, checked in exact arithmetic: the LU
# backward error, the substitution bound, the pivot floor and the inf-norm

U = 2.0 ** -53  # unit roundoff: 1 + U rounds to 1
MAX = np.finfo(float).max
# One Python complex operation is within 8u of its exact value (a product
# within sqrt(2) gamma_2, Higham Lemma 3.5; a quotient by Smith's method, as
# CPython divides), so complex factors are held to the real bounds with u
# replaced by 8u.
COMPLEX_UNIT = 8


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


def exact(*arrays):
    """The real and imaginary parts of ``arrays`` as object arrays of ints
    over one power of two (see ``dyadic``): returns ([(re, im), ...], s)."""
    arrays = [np.asarray(a, dtype=complex) for a in arrays]
    parts = [part for a in arrays for part in (a.real, a.imag)]
    ints, s = dyadic([x for part in parts for x in part.ravel().tolist()])
    out, pos = [], 0
    for part in parts:
        out.append(np.array(ints[pos:pos + part.size], dtype=object).reshape(part.shape))
        pos += part.size
    return list(zip(out[::2], out[1::2])), s


def cmatmul(x, y):
    (xr, xi), (yr, yi) = x, y
    return xr @ yr - xi @ yi, xr @ yi + xi @ yr


def modulus_floor(z, bits):
    """floor(|z| 2^bits) of each entry of the exact pair ``z``."""
    return np.frompyfunc(lambda r, i: math.isqrt((r * r + i * i) << 2 * bits), 2, 1)(*z)


def within_gamma(resid, bound, k, unit, scale, extra):
    """|resid| <= gamma_k M + k eta entry by entry.

    ``resid`` is an exact pair at 2^scale, ``bound`` a lower bound of M at
    2^(scale + extra), gamma_k = kv / (1 - kv) with v = unit * u, and
    eta = 2^-1075 is the error of one rounding into the subnormal range.
    """
    kv = k * unit
    d = 2 ** 53 - kv  # gamma_k = kv / d
    eta = 1 << max(scale + extra - 1075, 0)
    t = kv * bound + d * k * eta
    rr, ri = resid
    return bool(np.all((rr * rr + ri * ri) * (d << extra) ** 2 <= t * t))


def triangles(lu):
    n = lu.shape[0]
    return np.tril(lu, -1) + np.eye(n), np.triu(lu)


def factor_error_holds(a, factors, unit=1):
    """PA = LU + dA with |dA| <= gamma_n |L| |U| (Higham, Thm 9.3), exactly."""
    perm = factors.perm
    (pa, l, u), s = exact(np.asarray(a)[perm], *triangles(factors.lu))
    prod = cmatmul(l, u)
    resid = (pa[0] * (1 << s) - prod[0], pa[1] * (1 << s) - prod[1])
    bound = modulus_floor(l, 30) @ modulus_floor(u, 30)
    return within_gamma(resid, bound, len(perm), unit, 2 * s, 60)


def solve_error_holds(factors, b, x, unit=1):
    """|Pb - LUx| <= gamma_2n |L| |U| |x| for the computed factors (two
    triangular solves, each within gamma_n, Higham Thm 8.5), exactly."""
    perm = factors.perm
    (pb, l, u, xs), s = exact(np.asarray(b)[perm], *triangles(factors.lu), x)
    prod = cmatmul(l, cmatmul(u, xs))
    resid = (pb[0] * (1 << 2 * s) - prod[0], pb[1] * (1 << 2 * s) - prod[1])
    bound = modulus_floor(l, 20) @ (modulus_floor(u, 20) @ modulus_floor(xs, 20))
    return within_gamma(resid, bound, 2 * len(perm), unit, 3 * s, 60)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("build", [random_matrix, newton_matrix])
def test_lu_factor_and_solve_match_reference(dtype, build):
    """Factors and solutions for n = 1 to 40 meet the backward-error bounds
    of exact arithmetic, and ``lu_solve`` is factor then substitute."""
    rng = np.random.default_rng(20261018)
    unit = COMPLEX_UNIT if dtype is complex else 1
    for n in range(1, 41):
        a = build(rng, n, dtype)
        factors = linalg.lu_factor(a)
        assert factors.lu.dtype == np.dtype(dtype), n
        assert sorted(factors.perm) == list(range(n)), n
        assert factor_error_holds(a, factors, unit), n
        for b in (random_matrix(rng, n, dtype)[:, 0], random_matrix(rng, n, dtype)[:, :3]):
            x = linalg.lu_solve_factored(factors, b)
            assert x.shape == b.shape and x.dtype == np.dtype(dtype), n
            assert solve_error_holds(factors, b, x, unit), n
            assert same_bytes(linalg.lu_solve(a, b), x), n


def kernel_entries(cplx):
    """Floats from 1e-6 to 1e6 in size, zeros, and small integers that make
    pivot ties; complex ones from two such parts."""
    part = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 0.5]),
                     st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
    return st.tuples(part, part).map(lambda p: complex(*p)) if cplx else part


@st.composite
def square_systems(draw, cplx):
    n = draw(st.integers(1, 6))
    entries = kernel_entries(cplx)
    dtype = complex if cplx else float
    a = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    b = draw(st.lists(entries, min_size=n, max_size=n))
    return np.array(a, dtype=dtype).reshape(n, n), np.array(b, dtype=dtype)


@pytest.mark.parametrize("cplx", [False, True], ids=["float", "complex"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lu_backward_error_on_hypothesis_matrices(cplx, data):
    a, b = data.draw(square_systems(cplx))
    try:
        factors = linalg.lu_factor(a)
    except SingularMatrixError:
        return
    unit = COMPLEX_UNIT if cplx else 1
    assert factor_error_holds(a, factors, unit)
    assert solve_error_holds(factors, b, linalg.lu_solve_factored(factors, b), unit)


def structured_matrices(rng, n, dtype):
    """(name, matrix) pairs with structural zeros: tridiagonal (diagonally
    dominant, and with small diagonals that make row swaps), banded with
    two sub- and three superdiagonals (row swaps fill U in), block-diagonal,
    arrow (dense first row and column) and scattered interior zeros."""
    def rand(shape):
        a = rng.normal(size=shape)
        return a + 1j * rng.normal(size=shape) if dtype is complex else a

    def banded(p, q):
        a = rand((n, n))
        i, j = np.indices((n, n))
        a[(j < i - p) | (j > i + q)] = 0.0
        return a

    dominant = banded(1, 1)  # by columns, so partial pivoting makes no swap
    dominant[np.diag_indices(n)] = 1.0 + np.abs(dominant).sum(axis=0)
    yield "tridiagonal_dominant", dominant
    swapping = banded(1, 1)
    swapping[np.diag_indices(n)] *= 1e-3
    yield "tridiagonal_swapping", swapping
    yield "banded_2_3", banded(2, 3)
    blocks = np.zeros((n, n), dtype=dtype)
    for start in range(0, n, 5):
        stop = min(start + 5, n)
        blocks[start:stop, start:stop] = rand((stop - start, stop - start))
    yield "block_diagonal", blocks
    arrow = np.diag(rand(n) + 3.0)
    arrow[0], arrow[:, 0] = rand(n), rand(n)
    yield "arrow", arrow
    scattered = rand((n, n))
    scattered[rng.random((n, n)) < 0.6] = 0.0
    scattered[np.diag_indices(n)] += 1.0
    yield "interior_zeros", scattered


def band_holds(a, factors):
    """Row i of the factors is zero outside [lo[i], hi[i]) and nonzero at
    each end of L's and of U's part, and L's row has no nonzero left of the
    first nonzero of the row of A it came from: the leading zeros of a row
    never fill in."""
    n = len(factors.rows)
    for i, (row, lo, hi) in enumerate(zip(factors.rows, factors.lo, factors.hi)):
        if not (0 <= lo <= i < hi <= n):
            return False
        if any(row[j] != 0 for j in (*range(lo), *range(hi, n))):
            return False
        if (lo < i and row[lo] == 0) or (hi > i + 1 and row[hi - 1] == 0):
            return False
        first = next((j for j, x in enumerate(np.asarray(a)[factors.perm[i]]) if x != 0), n)
        if lo < min(first, i):
            return False
    return True


@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_on_structured_matrices_matches_reference(dtype):
    """Matrices with structural zeros, n = 1 to 40: the factors meet the
    backward-error bound and their bands, the banded solve meets the
    substitution bound and has the bytes of the dense substitution, and a
    diagonally dominant tridiagonal matrix keeps rows of three entries."""
    rng = np.random.default_rng(20261020)
    unit = COMPLEX_UNIT if dtype is complex else 1
    for n in range(1, 41):
        for name, a in structured_matrices(rng, n, dtype):
            factors = linalg.lu_factor(a)
            assert factor_error_holds(a, factors, unit), (name, n)
            assert band_holds(a, factors), (name, n)
            if name == "tridiagonal_dominant":
                assert factors.perm == list(range(n)), n
                assert factors.lo == [max(i - 1, 0) for i in range(n)], n
                assert factors.hi == [min(i + 2, n) for i in range(n)], n
            for b in (random_matrix(rng, n, dtype)[:, 0], random_matrix(rng, n, dtype)[:, :3]):
                x = linalg.lu_solve_factored(factors, b)
                assert solve_error_holds(factors, b, x, unit), (name, n)
                assert same_bytes(x, ref_lu_solve_factored(factors.lu, factors.perm, b)), (name, n)


@st.composite
def zero_heavy_systems(draw, cplx):
    """Systems of n <= 8 whose entries are signed zeros more than half the
    time; the right-hand side has no zero entry."""
    n = draw(st.integers(1, 8))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), kernel_entries(cplx))
    dtype = complex if cplx else float
    a = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    b = draw(st.lists(kernel_entries(cplx).filter(bool), min_size=n, max_size=n))
    return np.array(a, dtype=dtype).reshape(n, n), np.array(b, dtype=dtype)


@pytest.mark.parametrize("cplx", [False, True], ids=["float", "complex"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lu_on_zero_heavy_hypothesis_matrices(cplx, data):
    a, b = data.draw(zero_heavy_systems(cplx))
    try:
        factors = linalg.lu_factor(a)
    except SingularMatrixError:
        return
    unit = COMPLEX_UNIT if cplx else 1
    x = linalg.lu_solve_factored(factors, b)
    assert factor_error_holds(a, factors, unit)
    assert band_holds(a, factors)
    assert solve_error_holds(factors, b, x, unit)
    want = ref_lu_solve_factored(factors.lu, factors.perm, b)
    if np.isfinite(want).all():
        assert same_bytes(x, want)


def test_empty_system_matches_reference():
    factors = linalg.lu_factor(np.zeros((0, 0)))
    assert factors.lu.shape == (0, 0) and factors.lu.dtype == np.dtype(float)
    assert factors.perm == []
    x = linalg.lu_solve(np.zeros((0, 0)), np.zeros(0))
    assert x.shape == (0,) and x.dtype == np.dtype(float)


def test_lu_solve_of_real_factors_with_list_rhs():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    factors = linalg.lu_factor(a)
    x = linalg.lu_solve_factored(factors, [1, 2, 3])
    assert same_bytes(x, linalg.lu_solve_factored(factors, np.array([1.0, 2.0, 3.0])))
    assert solve_error_holds(factors, [1.0, 2.0, 3.0], x)


def test_mat_norm_inf_matches_reference():
    """The largest row sum of |a_ij|, within (n + 1) u of the exact sums of
    the moduli."""
    rng = np.random.default_rng(3)
    cases = [np.zeros((0, 0)), np.zeros(0), rng.normal(size=5), rng.normal(size=(4, 7)),
             random_matrix(rng, 6, complex), [[1.0, -2.0], [3.0, 4.0]]]
    for a in cases:
        rows = np.atleast_2d(np.asarray(a)).tolist()
        want = max((sum(Fraction(abs(complex(x))) for x in row) for row in rows),
                   default=Fraction(0))
        got = Fraction(linalg.mat_norm_inf(a))
        assert abs(got - want) <= (len(rows[0]) + 1) * Fraction(U) * want if rows else got == 0


def error_of(fn, a):
    try:
        fn(a)
    except (SingularMatrixError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def below(pivot, col):
    return f"pivot {pivot} below threshold at column {col}"


def near_singular_cases():
    """(matrix, message pattern): the zero pivot of an exactly singular
    matrix is named by value; the round-off pivot of a random rank-one or
    two-column-dependent matrix only by its column."""
    rng = np.random.default_rng(11)
    yield np.zeros((1, 1)), re.escape(below("0.000e+00", 0))
    yield np.zeros((3, 3)), re.escape(below("0.000e+00", 0))
    yield np.array([[1e-320]]), re.escape(below("1.000e-320", 0))
    yield np.array([[1.0, 2.0], [2.0, 4.0]]), re.escape(below("0.000e+00", 1))
    yield np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]), re.escape(below("0.000e+00", 1))
    for n in (2, 3, 5, 9, 17, 40):
        for dtype in (float, complex):
            u = random_matrix(rng, n, dtype)[:, :1]
            v = random_matrix(rng, n, dtype)[:1, :]
            yield u @ v, below(r"\d\.\d{3}e[+-]\d+", 1)  # rank one
            a = random_matrix(rng, n, dtype)
            a[:, -1] = a[:, 0] * 3.0  # two proportional columns
            yield a, below(r"\d\.\d{3}e[+-]\d+", n - 1)


SINGULAR = list(near_singular_cases())


@pytest.mark.parametrize("a, pattern", SINGULAR, ids=[f"a{i}" for i in range(len(SINGULAR))])
def test_singular_input_raises_the_reference_error(a, pattern):
    kind, message = error_of(linalg.lu_factor, a)
    assert kind is SingularMatrixError
    assert re.fullmatch(pattern, message), message


OVERFLOWING_NORM = [
    (np.array([[1e308, 1e308], [1.0, 1.0]]), below("1.000e+308", 0)),
    (np.array([[complex(1.5e308, 1.5e308)]]), "pivot modulus overflows at column 0"),
    (np.array([[1e308, -1e308], [1e308, 1e308]]), below("1.000e+308", 0)),
]


@pytest.mark.parametrize("a, message", OVERFLOWING_NORM, ids=["a0", "a1", "a2"])
def test_finite_entries_with_an_overflowing_norm_match_reference(a, message):
    """An overflowing ||A||_inf makes the floor inf: every finite pivot is
    refused, by its size or, where its modulus overflows, by that.  No
    entry is called not finite, and nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert error_of(linalg.lu_factor, a) == (SingularMatrixError, message)


BAD_INPUT = [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix entries must be finite"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    (np.array([[1.0, 0.0], [0.0, -np.inf]]), "matrix entries must be finite"),
    (np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]]), "matrix entries must be finite"),
    (np.array([[complex(1.0, np.nan)]]), "matrix entries must be finite"),
    (np.array([[complex(np.inf, 1.0), 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    (np.ones((2, 3)), "square matrix required"),
    (np.ones(3), "square matrix required"),
    (np.ones((2, 2, 2)), "square matrix required"),
]


@pytest.mark.parametrize("a, message", BAD_INPUT, ids=[f"a{i}" for i in range(len(BAD_INPUT))])
def test_bad_input_raises_the_reference_error(a, message):
    assert error_of(linalg.lu_factor, a) == (ValueError, message)


def readonly(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


P, BIG = 1e300, 1.7e308  # a pivot far above the floor; a row sum just short of overflow


def lu_edge_cases():
    """(name, matrix) pairs: pivot ties, signed zeros, subnormals, memory
    layouts, read-only input and row updates that overflow."""
    yield "tie_first_positive", np.array([[2.0, 1.0], [-2.0, 3.0]])
    yield "tie_first_negative", np.array([[-2.0, 1.0], [2.0, 3.0]])
    yield "tie_in_later_column", np.array([[4.0, 1.0, 2.0], [1.0, 3.0, -1.0],
                                           [2.0, -2.5, 5.0]])
    yield "three_way_tie", np.array([[-1.0, 2.0, 0.5], [1.0, -1.0, 3.0], [-1.0, 0.0, 1.0]])
    yield "negative_zeros", np.array([[-0.0, 1.0, -0.0], [2.0, -0.0, 1.0],
                                      [-0.0, -3.0, 2.0]])
    yield "negative_zero_factor", np.array([[4.0, -0.0], [-0.0, 2.0]])
    yield "subnormal", np.array([[5e-310, 1e-310, -3e-311], [2e-310, -4e-310, 1e-311],
                                 [-1e-310, 2e-311, 6e-310]])
    yield "subnormal_updates", np.array([[1e-300, 1e-308], [1e-301, 3e-309]])
    yield "fortran_order", np.asfortranarray(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5],
                                                        [7.0, 8.5, 10.0]]))
    yield "transposed_view", np.arange(1.0, 17.0).reshape(4, 4).T + np.eye(4)
    yield "read_only", readonly([[0.5, -1.0], [3.0, 2.0]])
    yield "read_only_identity", sp._identity(3)
    # row updates that overflow: inf on one row, then 0 * inf and inf - inf
    # make NaN
    yield "update_overflows", np.array([[P, BIG], [-P, BIG]])
    yield "update_overflows_to_nan", np.array([[P, 0.0, BIG, 0.0], [-P, P, BIG, 0.0],
                                               [0.0, P, 5.0, P], [0.0, 0.0, 5.0, 2 * P]])
    yield "update_overflows_nan_first", np.array([[P, 0.0, BIG, 0.0], [-P, P, BIG, 0.0],
                                                  [0.0, 0.0, 5.0, 2 * P], [0.0, P, 5.0, P]])


# the pivot of each column is the first entry of largest modulus
PIVOT_ORDER = {"tie_first_positive": [0, 1], "tie_first_negative": [0, 1],
               "tie_in_later_column": [0, 2, 1], "three_way_tie": [0, 2, 1]}


@pytest.mark.parametrize("name, a", list(lu_edge_cases()))
def test_lu_factor_edge_case_matches_reference(name, a):
    """Each case factors without a warning and leaves its argument as it
    was.  Finite factors meet the backward-error bound, with its absolute
    term for the subnormal cases; an update that overflows leaves
    non-finite factors."""
    before = a.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = linalg.lu_factor(a)
    assert a.tobytes() == before
    if name.startswith("update"):
        assert not np.isfinite(factors.lu).all()
    else:
        assert factor_error_holds(a, factors)
    if name in PIVOT_ORDER:
        assert factors.perm == PIVOT_ORDER[name]


@pytest.mark.parametrize("a", [np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
                               np.array([[3, 7], [-5, 2]], dtype=np.int8),
                               np.array([[1, 2], [3, 4]], dtype=np.uint16),
                               np.array([[True, False], [True, True]]),
                               np.array([[False, True, True], [True, False, True],
                                         [True, True, False]])])
def test_lu_factor_of_int_and_bool_matches_reference_on_floats(a):
    factors = linalg.lu_factor(a)
    float_factors = linalg.lu_factor(a.astype(float))
    assert same_bytes(factors.lu, float_factors.lu)
    assert factors.perm == float_factors.perm
    assert factor_error_holds(a.astype(float), factors)


@pytest.mark.parametrize("a", [np.array([[1, 2], [2, 4]]), np.array([[True, True], [True, True]])])
def test_lu_factor_of_singular_int_and_bool_raises_the_reference_error(a):
    assert error_of(linalg.lu_factor, a) == (SingularMatrixError, below("0.000e+00", 1))


@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_factor_leaves_its_argument_unchanged(dtype):
    a = newton_matrix(np.random.default_rng(5), 6, dtype)
    before = a.copy()
    linalg.lu_factor(a)
    assert same_bytes(a, before)


def test_complex_entries_whose_modulus_overflows():
    """The modulus of a finite complex entry may exceed the largest float.
    The kernel takes it as inf, where Python's ``abs`` raises OverflowError,
    and warns of nothing.  A pivot of that modulus is refused by name: a
    quotient by it overflows inside Smith's method and comes out 0, so
    factors of [[1, z], [z, 1]] would leave PA - LU = 1 at (1, 0)."""
    z = complex(1.5e308, 1.5e308)
    with pytest.raises(OverflowError):
        abs(z)
    assert 1.0 / z == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.vec_norm_inf(np.array([1.0, z])) == math.inf
        for a in ([[z, 1.0], [1.0, 1.0]], [[1.0, z], [z, 1.0]]):
            assert error_of(linalg.lu_factor, np.array(a)) == (
                SingularMatrixError, "pivot modulus overflows at column 0")


# ---------------------------------------------------------------------------
# the inf-norm of a vector and the pivot floor

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 0.5,
           1e308, -1e308, MAX, -MAX, np.inf, -np.inf, np.nan]


def float_arrays(max_size=12):
    values = st.one_of(st.sampled_from(SPECIAL), st.floats())
    return st.lists(values, max_size=max_size).map(lambda xs: np.array(xs, dtype=float))


def complex_array(parts):
    re, im = parts
    k = min(len(re), len(im))
    out = np.empty(k, dtype=complex)
    out.real, out.imag = re[:k], im[:k]
    return out


def as_float32(v):
    with np.errstate(over="ignore"):
        return v.astype(np.float32)


VECTOR_INPUTS = st.one_of(
    float_arrays(),
    float_arrays().map(lambda v: v.tolist()),
    float_arrays().map(lambda v: v[::-1]),
    float_arrays().map(as_float32),
    st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=8).map(np.array),
    st.tuples(float_arrays(), float_arrays()).map(complex_array),
    float_arrays().map(lambda v: v[:len(v) // 2 * 2].reshape(2, -1)),
)


def float_bits(x):
    return np.float64(x).tobytes()


@given(VECTOR_INPUTS)
@example(np.zeros(0))
@example([])
@example(np.array([np.nan]))
@example(np.array([1.0, np.nan, np.inf]))
@example(np.array([np.inf, np.nan]))
@example(np.array([-np.inf, 1.0]))
@example(np.array([-np.inf, np.inf]))
@example(np.array([-0.0, -0.0]))
@example(np.array([5e-324, -1e-310]))
@example(np.array([1e308, 1e308, -3.0]))
@example(np.array([MAX, MAX, -MAX]))
@example(np.array([2, -7, 3]))
@example(np.array([complex(3, 4), -1.0]))
@example(np.array([complex(np.inf, np.nan), 1.0]))
@example(np.array([complex(1.5e308, 1.5e308)]))
@example(np.array([[1.0, -5.0], [2.0, 0.5]]))
@example(np.float64(-2.5))
@settings(max_examples=300, deadline=None)
def test_vec_norm_inf_matches_numpy_reduction(v):
    """A Python float: 0.0 for no entries, NaN exactly when an entry is NaN,
    else max |v_i| over every entry.  That is numpy's reduction bit for bit
    on real entries (the largest |v_i| is one of them, unrounded), and
    within 2 ulp of it on complex ones (each modulus is a hypot within
    1 ulp), inf where a modulus overflows."""
    arr = np.asarray(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.vec_norm_inf(v)
    assert type(got) is float
    if arr.size == 0:
        assert float_bits(got) == float_bits(0.0)
    elif np.isnan(arr).any():
        assert math.isnan(got)
    else:
        with np.errstate(all="ignore"):
            want = float(np.abs(arr).max())
        if arr.dtype.kind == "c":
            assert got == want or abs(got - want) <= 2 * math.ulp(want)
        else:
            assert float_bits(got) == float_bits(want)


def sequential_sum(row):
    s = 0.0
    for x in row:
        s += abs(float(x))
    return s


def heavy_rows():
    """(name, row) pairs for the row of largest |a_ij| sum, first and last
    entries 0.  In the first the exact sum is 7 ulp above the sequential
    float sum; in the second it is past the largest float, where the
    sequential sum stays finite; the rest mix magnitudes."""
    yield "pairwise_above_sequential", [0.0, 1.0] + [U] * 15 + [0.0]
    yield "pairwise_overflows", [0.0, MAX] + [2.0 ** 969] * 16 + [0.0]
    rng = np.random.default_rng(19)
    for n in (3, 9, 12, 17, 33):
        row = rng.uniform(0.5, 1.0, n) * 10.0 ** rng.integers(-17, 1, n)
        row[1] = 1.0
        row[0] = row[-1] = 0.0
        yield f"mixed_{n}", list(row)


def exact_floor(a):
    """PIVOT_RTOL * max(||A||_inf, 1e-300) in exact arithmetic."""
    norm = max(sum(Fraction(abs(x)) for x in row) for row in np.asarray(a).tolist())
    return Fraction(PIVOT_RTOL) * max(norm, Fraction(1e-300))


def pivot_near_floor(row, slot, k):
    """A matrix with the heavy ``row`` as row 1, the identity elsewhere, and
    at (slot, slot), slot 0 or n - 1, a pivot k ulp from the exact floor."""
    a = np.eye(len(row))
    a[1] = row
    a[slot, slot] = 0.0
    p = float(exact_floor(a))  # the heavy row's sum sets the norm
    for _ in range(abs(k)):
        p = math.nextafter(p, math.copysign(math.inf, k))
    a[slot, slot] = p
    return a


@pytest.mark.parametrize("slot", ["first", "last"])
@pytest.mark.parametrize("name, row", list(heavy_rows()))
def test_lu_factor_pivot_at_the_floor_matches_reference(name, row, slot):
    """The matrices are triangular, so their pivots are their diagonal
    entries.  Where every pivot is more than 2n ulp from the exact floor,
    the verdict and message are those of the exact floor; a pivot closer to
    it may get either verdict."""
    n = len(row)
    verdicts = set()
    for k in (-4 * n, -2 * n - 1, -1, 0, 1, 2 * n + 1, 4 * n):
        a = pivot_near_floor(row, 0 if slot == "first" else n - 1, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = error_of(linalg.lu_factor, a)
        if abs(k) > 2 * n:
            floor = exact_floor(a)
            low = [j for j, d in enumerate(np.diag(a)) if Fraction(d) < floor]
            assert got == (None if not low else
                           (SingularMatrixError, below(f"{a[low[0], low[0]]:.3e}", low[0]))), k
        verdicts.add(got is None)
    # where the norm passes the largest float, the identity's unit pivots
    # are below the floor as well
    assert verdicts == ({False} if name == "pairwise_overflows" else {True, False})


def test_pivot_floor_cases_sum_differently():
    """In the first two heavy rows the exact row sum lies above the
    sequential float sum, so a floor from a rounded sum can sit below the
    exact floor; the gap is within the 2n-ulp window of the contract."""
    rows = dict(heavy_rows())
    for name in ("pairwise_above_sequential", "pairwise_overflows"):
        row = rows[name]
        exact_sum = sum(Fraction(abs(x)) for x in row)
        assert Fraction(sequential_sum(row)) < exact_sum, name
        assert exact_sum - Fraction(sequential_sum(row)) <= len(row) * Fraction(U) * exact_sum


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


@pytest.mark.parametrize("name", LMM_MODEL_NAMES)
def test_history_sum_matches_reference(name):
    method = lmm(name)
    rng = np.random.default_rng(len(name) * 100 + method.q)
    h = 0.125
    hist = HistoryBuffer(method.q + 1, h)
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
# the implicit-solve kernel: a verbatim reference of ``solve_implicit`` as it
# stood before its one-block path, when every solve went through the stacked
# blocks, with its helpers ``_newton_factors`` and ``_stacked``, and of the
# settings it then took: ``ImplicitSolveConfig``, and the corrector's
# settings built from it by ``_corrector_config``.  The package now runs
# Newton exactly when it is given a Jacobian, with TOL and MAX_ITERS as
# module constants and a bounded sweep count as ``sweeps``; ``ref_solve``
# runs the reference under the config those stand for, and
# ``package_solve`` the package on the same arguments.


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


def ref_corrector_config(cfg: ImplicitSolveConfig, jacobian, corrections):
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


def ref_solve(f, ts, bases, h, rows, u, strategy=None, jacobian=None, stats=None,
              check_from=1, slot=None, sweeps=None):
    """``ref_solve_implicit`` with ``solve_implicit``'s arguments: the
    config of ``strategy``, capped at ``sweeps`` updates without a
    convergence demand when that is set.  The reference computes on
    arrays, so each value of ``f`` (a list from ``CountingRhs``) is handed
    to it as an array."""
    cfg = ImplicitSolveConfig(strategy)
    if sweeps is not None:
        cfg = replace(cfg, max_iters=sweeps, require_convergence=False)
    return ref_solve_implicit(lambda t, y: np.array(f(t, y), dtype=float), ts, bases, h, rows, u,
                              cfg, jacobian, stats, check_from, slot)


def ref_solve_implicit(f, ts, bases, h, rows, u, cfg=None, jacobian=None, stats=None,
                       check_from=1, slot=None):
    cfg = cfg or DEFAULT_IMPLICIT
    newton = cfg.pick_strategy(jacobian) == "newton"
    if newton and jacobian is None:
        raise ImplicitSolveError("Newton strategy needs a Jacobian callback")
    n = len(u[0])
    blocks = [slice(i * n, (i + 1) * n) for i in range(len(u))]
    u = ref_stacked([np.asarray(ui, dtype=float) for ui in u])
    base = ref_stacked(bases)
    for it in range(cfg.max_iters):
        fu = [f(tj, u[bi]) for tj, bi in zip(ts, blocks)]
        if stats is not None:
            stats.implicit_iters += 1
        terms = ref_stacked([ref_weighted(h, row, fu) if row else np.zeros(n) for row in rows])
        g = u - base - terms
        if it >= check_from:
            res = linalg.vec_norm_inf(g)
            if res <= cfg.tol or res <= cfg.tol * (1.0 + linalg.vec_norm_inf(u)):
                return [u[bi] for bi in blocks], fu
            if not res < math.inf:
                raise NonFiniteError("implicit solve met a non-finite residual")
        if not newton:
            u = base + terms
            continue
        if slot is not None and slot.h == h:
            factors = slot.factors
        else:
            factors = ref_newton_factors(jacobian, ts, u, blocks, h, rows, stats)
            if slot is not None:
                slot.h, slot.factors = h, factors
        u = u - linalg.lu_solve_factored(factors, g)
    if cfg.require_convergence:
        what = "Newton" if newton else "fixed-point iteration"
        raise ImplicitSolveError(f"{what} did not converge in {cfg.max_iters} iterations")
    return [u[bi] for bi in blocks], None


def ref_newton_factors(jacobian, ts, u, blocks, h, rows, stats):
    shape = (blocks[0].stop,) * 2
    jac = [np.asarray(jacobian(tj, u[bi]), dtype=float) for tj, bi in zip(ts, blocks)]
    for j in jac:
        if j.shape != shape:
            raise ValueError(f"jacobian returned shape {j.shape}; expected {shape}")
    if stats is not None:
        stats.jac_evals += len(jac)
        stats.lu_factorizations += 1
    m = _identity(len(u)).copy()
    for bi, row in zip(blocks, rows):
        for j, a in row:
            m[bi, blocks[j]] -= (h * a) * jac[j]
    try:
        return linalg.lu_factor(m)
    except ValueError:  # lu_factor's rejection of a non-finite entry
        raise NonFiniteError("implicit solve met a non-finite Newton matrix") from None


def ref_stacked(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


BDF3_B0 = 6.0 / 11.0
GAUSS2_ROWS = sp.GAUSS2.plan[0][3]
GAUSS2_C = [float(c) for c in sp.GAUSS2.c]


def stage_start(problem, t, y, h, c=1.0):
    """The explicit-Euler predictor y + c h f(t, y)."""
    return y + (c * h) * problem.rhs(t, y)


def robertson_corrector(problem=None, strategy="newton", start=None):
    """A bdf3 corrector call on Robertson (h = 2e-3) from its predictor."""
    problem = problem or ok.get_problem("robertson", t_end=40.0)
    y, h = np.array([0.9, 3e-5, 0.1]), 2e-3
    start = stage_start(problem, 1.0, y, h) if start is None else start
    return problem, [([1.0 + h], [y], h, [[(0, BDF3_B0)]], [start], strategy, 0, None)]


def robertson_solved_start():
    """The bdf3 corrector call on Robertson from the iterate that its Newton
    solve accepts, which passes the test before any update."""
    problem, [call] = robertson_corrector()
    ts, bases, h, rows, u, strategy, check_from, sweeps = call
    (solved,), _ = ref_solve(problem.rhs, ts, bases, h, rows, u, strategy, problem.jacobian,
                             None, check_from, None, sweeps)
    return robertson_corrector(problem, start=solved)


def vdp_stage(h=1e-3, y=(2.0, 0.0)):
    """An ieuler stage call on vdp (mu = 100) from the explicit-Euler value."""
    problem = ok.get_problem("vdp", mu=100.0)
    y = np.array(y)
    return problem, [([0.5 + h], [y], h, [[(0, 1.0)]], [stage_start(problem, 0.5, y, h)], None,
                      1, None)]


def gauss2_calls(name, y, hs):
    """gauss2's coupled two-stage calls on problem ``name`` at each h in
    ``hs``, from the explicit-Euler values."""
    problem = ok.get_problem(name)
    y = np.asarray(y, dtype=float)
    return problem, [([0.25 + c * h for c in GAUSS2_C], [y, y], h, GAUSS2_ROWS,
                      [stage_start(problem, 0.25, y, h, c) for c in GAUSS2_C], None, 1, None)
                     for h in hs]


def trbdf2_known_start():
    """trbdf2's BDF2 stage on Robertson (h = 0.02), started at its known
    part: the iterate and the base are one array."""
    problem = ok.get_problem("robertson", t_end=40.0)
    known = np.array([0.85, 2.5e-5, 0.15])
    return problem, [([0.52], [known], 0.02, [[(0, 1.0 / 3.0)]], [known], None, 1, None)]


def slot_calls():
    """The bdf3 corrector on Robertson with a slot: factored at h, reused at
    h, factored again at h / 2.  The slot's factors show the bits of the
    Newton matrix itself, which a converged iterate may not."""
    problem = ok.get_problem("robertson", t_end=40.0)
    y = np.array([0.9, 3e-5, 0.1])
    return problem, [([1.0 + h], [y], h, [[(0, BDF3_B0)]], [stage_start(problem, 1.0, y, h)],
                      "newton", 0, None) for h in (2e-3, 2e-3, 1e-3)]


def pendulum_sweeps(check_from, sweeps=None):
    problem = ok.get_problem("pendulum")
    y, h = problem.y0, 0.01
    return problem, [([h], [y], h, [[(0, 0.5)]], [stage_start(problem, 0.0, y, h)],
                      "fixed-point", check_from, sweeps)]


def nan_rhs_calls(check_from):
    problem = ok.IvpProblem(name="nan", dim=2, rhs=lambda t, y: np.full(2, np.nan), t0=0.0,
                            t_end=1.0, y0=np.ones(2), jacobian=lambda t, y: -np.eye(2))
    return problem, [([0.1], [np.ones(2)], 0.1, [[(0, 1.0)]], [np.ones(2)], "newton", check_from,
                      None)]


def robertson_with_jacobian(jacobian):
    return robertson_corrector(dataclasses.replace(ok.get_problem("robertson"),
                                                   jacobian=jacobian))


def cycle(strategy):
    """u = f(u) with f(u) = 3u - u^3 - 2 (base 0, h a = 1) from u = 0, where
    Newton (on u^3 - 2u + 2 = 0) cycles 0, 1, 0, ... and fixed-point sweeps
    cycle 0, -2, 0, ..., both exactly."""
    problem = ok.IvpProblem(name="cycle", dim=1, rhs=lambda t, u: 3.0 * u - u ** 3 - 2.0,
                            t0=0.0, t_end=1.0, y0=np.zeros(1),
                            jacobian=lambda t, u: np.diag(3.0 - 3.0 * u ** 2))
    return problem, [([1.0], [np.zeros(1)], 1.0, [[(0, 1.0)]], [np.zeros(1)], strategy, 1, None)]


# name -> (a builder of (problem, [(ts, bases, h, rows, u, strategy, check_from,
# sweeps), ...]), whether the calls share an LuSlot)
KERNEL_CASES = {
    "newton-from-a-predictor": (robertson_corrector, False),
    "predictor-accepted": (robertson_solved_start, False),
    "one-step-stage": (vdp_stage, False),
    "stage-from-its-known-part": (trbdf2_known_start, False),
    "bounded-sweeps": (lambda: pendulum_sweeps(2, sweeps=2), False),
    "converge-mode-fixed-point": (lambda: pendulum_sweeps(0), False),
    "slot-hit-then-miss": (slot_calls, True),
    "nan-residual": (lambda: nan_rhs_calls(0), False),
    "nan-after-a-newton-update": (lambda: nan_rhs_calls(1), False),
    "non-finite-newton-matrix": (
        lambda: robertson_with_jacobian(lambda t, y: np.full((3, 3), np.nan)), False),
    "jacobian-of-the-wrong-shape": (lambda: robertson_with_jacobian(lambda t, y: np.eye(2)),
                                    False),
    "newton-does-not-converge": (lambda: cycle("newton"), False),
    "fixed-point-does-not-converge": (lambda: cycle("fixed-point"), False),
    "gauss2-coupled": (lambda: gauss2_calls("vdp", [2.0, 0.0], [1e-3]), False),
    "gauss2-coupled-with-a-slot": (lambda: gauss2_calls("stiff_sys_B", [2.0, 3.0],
                                                        [0.01, 0.01, 0.02]), True),
}


def arrays(xs):
    return [(x.dtype.str, x.shape, x.tobytes()) for x in xs]


def package_solve(f, ts, bases, h, rows, u, strategy, jacobian, *rest):
    """``solve_implicit`` on ``ref_solve``'s arguments: it runs Newton
    exactly when it is given a Jacobian, so a "fixed-point" call gets none.
    The kernel iterates on lists of floats: the bases and starts are handed
    over as lists, the iterates and f values it returns come back as
    arrays."""
    if strategy == "fixed-point":
        jacobian = None
    us, fu = solve_implicit(f, ts, [np.asarray(b, dtype=float).tolist() for b in bases], h, rows,
                            [np.asarray(x, dtype=float).tolist() for x in u], jacobian, *rest)
    return [np.array(x) for x in us], fu and [np.array(x) for x in fu]


def kernel_outcome(solve, case):
    """Everything a caller of ``solve`` observes over the calls of one kernel
    case: each call's iterates and f values (None for a truncated sweep) or
    its exception, the counters and the slot after it, and the arguments of
    every rhs and Jacobian call."""
    build, with_slot = KERNEL_CASES[case]
    problem, calls = build()
    seen = []

    def rhs(t, y):
        seen.append(("rhs", t, y.tobytes()))
        return problem.rhs(t, y)

    def jacobian(t, y):
        seen.append(("jacobian", t, y.tobytes()))
        return problem.jacobian(t, y)

    stats = RunStats()
    f = CountingRhs(rhs, problem.dim, stats)
    slot = sp.LuSlot() if with_slot else None
    out = []
    for ts, bases, h, rows, u, strategy, check_from, sweeps in calls:
        try:
            us, fu = solve(f, ts, bases, h, rows, u, strategy, problem.jacobian and jacobian,
                           stats, check_from, slot, sweeps)
            out.append((arrays(us), None if fu is None else arrays(fu)))
        except OdekitError as exc:
            out.append((type(exc), str(exc)))
        except ValueError as exc:
            out.append((type(exc), str(exc)))
        out.append((dataclasses.asdict(stats), slot and (slot.h, repr(slot.factors))))
    return out, seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", KERNEL_CASES)
def test_solve_implicit_matches_reference(case):
    assert kernel_outcome(package_solve, case) == kernel_outcome(ref_solve, case)


def test_solve_implicit_cases_reach_every_outcome():
    """The cases converge, accept a start, truncate, reuse and refactor slot
    factors and end in each of the kernel's errors."""
    ends = {}
    for case in KERNEL_CASES:
        out, _ = kernel_outcome(package_solve, case)
        ends[case] = [r[1] if isinstance(r[0], type) else "truncated" if r[1] is None else "solved"
                      for r in out[::2]]
        if case.startswith(("slot", "gauss2-coupled-with")):
            assert [s["lu_factorizations"] for s, _ in out[1::2]] == [1, 1, 2], case
        if case == "predictor-accepted":
            assert out[1][0]["implicit_iters"] == 1 and out[1][0]["jac_evals"] == 0
    assert ends["newton-from-a-predictor"] == ends["gauss2-coupled"] == ["solved"]
    assert ends["predictor-accepted"] == ["solved"]
    assert ends["bounded-sweeps"] == ["truncated"]
    assert ends["nan-residual"] == ends["nan-after-a-newton-update"] == [
        "implicit solve met a non-finite residual"]
    assert ends["non-finite-newton-matrix"] == ["implicit solve met a non-finite Newton matrix"]
    assert ends["jacobian-of-the-wrong-shape"] == ["jacobian returned shape (2, 2); expected (3, 3)"]
    assert ends["newton-does-not-converge"] == ["Newton did not converge in 50 iterations"]
    assert ends["fixed-point-does-not-converge"] == [
        "fixed-point iteration did not converge in 50 iterations"]


# the stiff_nonlinear benchmark runs, as (problem, params), method, h and
# (rhs_evals, implicit_iters, jac_evals, lu_factorizations), counted on the
# stacked-block kernel that ``ref_solve_implicit`` copies; the bdf3
# corrector keeps its factors across steps (33,801 rhs calls and 13,792
# factorizations when it factored on every update), and the rhs wrapper
# returns f at a repeated call (first same as last): trbdf2 takes f at a
# step's start from the step before where its t is the grid node (12,269
# and 25,024 rhs calls without that reuse), and each of bdf3's two RK4
# bootstrap steps takes its first stage from the history (32,566 without)
STIFF_RUN_COUNTS = {
    "robertson-bdf3": (("robertson", {"t_end": 40.0}), "bdf3", 2e-3,
                       (32_564, 32_555, 13, 13)),
    "robertson-trbdf2": (("robertson", {"t_end": 40.0}), "trbdf2", 0.02,
                         (10_752, 10_269, 6_269, 6_269)),
    "vdp-trbdf2": (("vdp", {"mu": 100.0, "t_end": 5.0}), "trbdf2", 1e-3,
                   (21_419, 20_024, 10_024, 10_024)),
}


@pytest.mark.parametrize("case", STIFF_RUN_COUNTS)
def test_stiff_benchmark_run_counts(case):
    (name, params), method, h, counts = STIFF_RUN_COUNTS[case]
    stats = ok.integrate(ok.get_problem(name, **params), method, h=h).stats
    assert (stats.rhs_evals, stats.implicit_iters, stats.jac_evals,
            stats.lu_factorizations) == counts


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
                              ref_finish(times[:k], states[:k], stats, step_log))
    if size > DIVERGENCE_THRESHOLD and not stats.diverged:
        stats.diverged = True
        stats.divergence_time = t
    if size > OVERFLOW_GUARD:
        raise DivergenceError(f"state magnitude passed the overflow guard near t={t:.6g}",
                              ref_finish(times[:k + 1], states[:k + 1], stats, step_log))


def ref_rk_step(tableau, f, t, y, h, cfg=None, jacobian=None, stats=None,
                start=PREDICTED, slots=None):
    ks = [None] * tableau.stages
    slope = None
    z = y
    for group, (stages, cs, known, implicit) in enumerate(tableau.plan):
        if implicit is None:
            z = ref_plus_weighted(y, h, known[0], ks)
            ks[stages.start] = f(t + cs[0] * h, z)
            continue
        ts = [t + ci * h for ci in cs]
        bases = [ref_plus_weighted(y, h, terms, ks) for terms in known]
        if start == KNOWN:
            u0 = bases
        elif (cfg or DEFAULT_IMPLICIT).predictor == "previous-value":
            u0 = [y] * len(stages)
        else:
            if slope is None:
                slope = f(t, y) if ks[0] is None else ks[0]
            u0 = [y + (ci * h) * slope for ci in cs]
        zs, fz = ref_solve_implicit(f, ts, bases, h, implicit, u0, cfg, jacobian, stats,
                                    slot=None if slots is None else slots[group])
        z = zs[-1]
        if fz is None and not (tableau.stiffly_accurate and stages.stop == tableau.stages):
            fz = [f(ti, zi) for ti, zi in zip(ts, zs)]
        for i, k in zip(stages, fz or ()):
            ks[i] = k
    if tableau.stiffly_accurate:
        return _finite_or_raise(z)
    return _finite_or_raise(ref_plus_weighted(y, h, tableau.plan_b, ks))


def ref_march(problem, stepper, h):
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    stepper.reset(grid, n_full)

    stats = RunStats()
    f = RefCountingRhs(problem.rhs, problem.dim, stats)
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
    return ref_finish(grid, states, stats)


def ref_leapfrog_step(f, t_k, y_k, y_km1, h):
    """y_{k+1} = y_{k-1} + 2h f(t_k, y_k); needs the two previous values."""
    return _finite_or_raise(y_km1 + (2.0 * h) * f(t_k, y_k))


class RefLeapfrogStepper(sp.Stepper):
    """Two-step scheme run as a stepper.  A step with no history, or with a
    step size other than the one the history was taken at (a shortened final
    step), is one Heun step (local error h^3, which preserves the method's
    second order).

    (Verbatim but for ``reset``, which takes the march's grid, and the two
    step functions, which are the references above.)"""

    name = "leapfrog"
    declared_order = 2

    def __init__(self):
        self._prev = None
        self._h = None

    def reset(self, grid=None, n_full=None):
        self._prev = None
        self._h = None

    def advance(self, f, t, y, h, stats):
        if self._prev is None or h != self._h:
            out = ref_rk_step(sp.HEUN, f, t, y, h)
        else:
            out = ref_leapfrog_step(f, t, y, self._prev, h)
        self._prev, self._h = y, h
        return out


def ref_taylor_step(f, d2, d3, order, t, y, h):
    """Truncated Taylor series step using supplied total derivatives.

    (Verbatim but for the checks of ``order`` and of the callbacks, which
    the stepper makes when it is built.)"""
    out = y + h * f(t, y) + (h * h / 2.0) * ref_derivative(d2, "taylor_d2", t, y)
    if order == 3:
        out = out + (h ** 3 / 6.0) * ref_derivative(d3, "taylor_d3", t, y)
    return _finite_or_raise(out)


def ref_derivative(fn, what, t, y):
    return core.as_state(np.asarray(fn(t, y), dtype=float), y.shape, what)


def reference_stepper(name, problem, strategy=None):
    """The verbatim leapfrog stepper for "leapfrog", else the package's
    stepper for ``name``, whose tableau or Taylor steps (if any) run
    ``ref_rk_step`` on ``strategy`` and the stepper's own tableau, start and
    LU slots, or ``ref_taylor_step``."""
    if name == "leapfrog":
        return RefLeapfrogStepper()
    stepper = sp.make_stepper(name, problem)
    if isinstance(stepper, sp._RkStepper):
        def advance(f, t, y, h, stats, s=stepper):
            return ref_rk_step(s._tableau, f, t, y, h, ImplicitSolveConfig(strategy), s._jac,
                               stats, s._start, s._slots)
        stepper.advance = advance
    if isinstance(stepper, sp._TaylorStepper):
        def advance(f, t, y, h, stats, s=stepper):
            return ref_taylor_step(f, s._d2, s._d3, s._order, t, y, h)
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


def fsal_reused_steps(problem, method, h, traj, message):
    """How many rhs calls of a march of ``method`` return, uncounted, the
    value of the call before them (first same as last): for leapfrog one,
    its Heun start's first stage at the history's (t0, y0); none for a
    tableau that is not stiffly accurate; else one on every attempted step
    k >= 2 whose start grid[k-1] equals the previous step's last stage time
    grid[k-2] + 1.0 h_{k-1} bit for bit.  The attempted steps are read from
    the run: its stored states after t0, plus the step whose non-finite
    state is not stored."""
    if method == "leapfrog":
        return 1
    tableau = sp.TABLEAUS.get(method)
    if tableau is None or not tableau.stiffly_accurate:
        return 0
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    attempted = len(traj.times) - (message is None or message.startswith("state magnitude"))
    hs = [h if k <= n_full else grid[k] - grid[k - 1] for k in range(1, len(grid))]
    return sum(grid[k - 2] + 1.0 * hs[k - 2] == grid[k - 1] for k in range(2, attempted + 1))


def march_outcome(run):
    """The trajectory a run returns or its DivergenceError carries (None
    after another package error or a ValueError), the error and its message
    (None on a clean run) and the warnings the run emitted, as (category,
    message, file)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            traj, message = run(), None
        except DivergenceError as exc:
            traj, message = exc.trajectory, exc.args[0]
        except (OdekitError, ValueError) as exc:
            traj, message = None, (type(exc), exc.args[0])
    return traj, message, [(w.category, str(w.message), w.filename) for w in caught]


SRC = str(Path(core.__file__).parent)


def recording_callback_warnings(problem):
    """``problem`` with each callback wrapped to record, as ``march_outcome``
    does, the warnings raised inside it, and the list they are recorded in.
    The package's stage, history and iterate arithmetic runs on Python
    floats, which raise no warning, where the reference's runs on numpy
    arrays: the package's run must emit exactly the warnings that the
    reference's callbacks emit."""
    caught = []

    def recorded(fn):
        if fn is None:
            return None

        def call(*args):
            with warnings.catch_warnings(record=True) as inner:
                warnings.simplefilter("always")
                try:
                    return fn(*args)
                finally:
                    caught.extend((w.category, str(w.message), w.filename) for w in inner)
        return call

    wrapped = replace(problem, **{name: recorded(getattr(problem, name)) for name in (
        "rhs", "jacobian", "taylor_d2", "taylor_d3", "exact")})
    caught.clear()  # exact(t0), called when the problem is built
    return wrapped, caught


def assert_warnings_come_from_callbacks(caught, ref_callback_caught):
    """The package's run emitted the warnings of the reference run's
    callbacks (the catalog's in problems.py, or a test's), in the same
    order, and none from its own code."""
    assert not [w for w in caught if w[2].startswith(SRC) and not w[2].endswith("problems.py")]
    assert caught == ref_callback_caught


@pytest.mark.parametrize("method, case", [
    (method, case) for method in MARCH_METHODS for case, (problem, _) in MARCH_CASES.items()
    if not method.startswith("taylor") or problem.taylor_d2 is not None])
def test_march_matches_reference(method, case):
    problem, h = MARCH_CASES[case]
    got = march_outcome(lambda: ok.march(problem, method, h))
    recorded, ref_caught = recording_callback_warnings(problem)
    ref = march_outcome(lambda: ref_march(recorded, reference_stepper(method, recorded), h))
    (traj, message, caught), (ref_traj, ref_message, _) = got, ref
    assert message == ref_message
    assert_warnings_come_from_callbacks(caught, ref_caught)
    if ref_traj is not None:
        assert same_bytes(traj.times, ref_traj.times)
        assert same_bytes(traj.states, ref_traj.states)
        # leapfrog's history holds f(t0, y0), which the reference's Heun
        # start evaluates; the package's wrapper reuses repeated calls
        extra = (method == "leapfrog") - fsal_reused_steps(problem, method, h, traj, message)
        assert traj.stats == dataclasses.replace(ref_traj.stats,
                                                 rhs_evals=ref_traj.stats.rhs_evals + extra)


@pytest.mark.parametrize("name", ["ieuler", "trap", "theta:0.3", "trbdf2", "gauss2"])
def test_rk_step_on_a_plain_f_makes_the_reference_calls(name):
    """With no march's wrapper, a PREDICTED start predicts from the first
    stage's k when one was taken, so trap, theta and trbdf2 evaluate
    f(t, y) once a step, as the reference does."""
    problem = ok.get_problem("lambda_cos", lam=-50.0)
    tableau = sp.TRBDF2 if name == "trbdf2" else sp.make_stepper(name, problem)._tableau
    runs = []
    for step in (rk_step, ref_rk_step):
        calls, stats = [], RunStats()

        def f(t, y):
            calls.append((t, y.tobytes()))
            return problem.rhs(t, y)

        y = step(tableau, f, 0.1, problem.y0, 0.05, jacobian=problem.jacobian, stats=stats)
        runs.append((y.tobytes(), calls, stats))
    assert runs[0] == runs[1]
    assert [t for t, _ in runs[0][1]].count(0.1) == 1


def test_leapfrog_is_the_multistep_formula_after_a_heun_start():
    """``march(.., "leapfrog")`` is ``multistep_march`` of the leapfrog
    formula with a Heun bootstrap, bit for bit.  Its formula step is the
    history sum 0 y_k + y_{k-1} + h (2 f_k); the reference stepper's
    y_{k-1} + (2h) f_k has the same value, but from y0 = -0.0 on y' = -y its
    zeros alternate in sign, where the history sum's are all +0.0."""
    problem = ok.IvpProblem(name="zeros", dim=2, rhs=lambda t, y: -y, t0=0.0, t_end=1.0,
                            y0=np.array([-0.0, 0.0]))
    for case, h in [*MARCH_CASES.values(), (problem, 0.25)]:
        got = march_outcome(lambda: ok.march(case, "leapfrog", h))
        formula = march_outcome(lambda: ms.multistep_march(case, ms.leapfrog_method(), h,
                                                           bootstrap="heun"))
        assert got[1:] == formula[1:]
        assert same_bytes(got[0].states, formula[0].states)
        assert got[0].stats == formula[0].stats
    traj = ok.march(problem, "leapfrog", 0.25)
    ref = ref_march(problem, RefLeapfrogStepper(), 0.25)
    assert np.array_equal(traj.states, ref.states)
    assert np.signbit(ref.states[:, 0]).tolist() == [True, False, True, False, True]
    assert not np.signbit(traj.states[1:]).any()


def test_march_cases_reach_every_verdict():
    """The cases above end clean, flagged, past the guard and non-finite."""
    verdicts = set()
    for case, (problem, h) in MARCH_CASES.items():
        traj, message, _ = march_outcome(lambda: ok.march(problem, "euler", h))
        verdicts.add((message or "clean").split(" near")[0]
                     + (" flagged" if traj.stats.diverged else ""))
    assert verdicts == {"clean", "clean flagged", "state became non-finite flagged",
                        "state magnitude passed the overflow guard flagged"}


def package_check_state(y, k, times, states, stats):
    """``core._check_state`` on the state ``y`` as the list of floats a
    march holds (a bare NaN as a one-entry state) and on ``states`` as its
    flat ``array("d")``."""
    y = [math.nan] if np.ndim(y) == 0 else y.tolist()
    return core._check_state(y, k, times, array("d", states.ravel().tolist()), stats)


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
    assert check_verdict(package_check_state, y, stats()) == check_verdict(ref_check_state, y,
                                                                           stats())


# ---------------------------------------------------------------------------
# boundary locus: held to the exact ratio rho(r) / sigma(r), not to bits

def dyadic(values) -> tuple:
    """Integers n_i and one shift s with values[i] = n_i / 2**s exactly."""
    ratios = [float(x).as_integer_ratio() for x in values]
    shift = max(den.bit_length() for _, den in ratios) - 1
    return [num << (shift + 1 - den.bit_length()) for num, den in ratios], shift


def scaled_polyval(coeffs, rr, ri, shift) -> tuple:
    """Real and imaginary parts of the polynomial with the coefficients
    ``coeffs`` (highest first) at rr + i ri, all of them scaled by 2**shift:
    Horner's rule on integers, its value scaled by 2**(shift * len(coeffs))."""
    acc_re = acc_im = 0
    for k, c in enumerate(coeffs):
        acc_re, acc_im = (acc_re * rr - acc_im * ri + (c << shift * k),
                          acc_re * ri + acc_im * rr)
    return acc_re, acc_im


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("samples", [8, 9, 100, 256, 512, 1000, 1001])
@pytest.mark.parametrize("name", LMM_MODEL_NAMES)
def test_boundary_locus_matches_scalar_reference(name, samples):
    """Each locus point z lies within 1e-12 |z_exact| of z_exact =
    rho(r) / sigma(r), evaluated exactly at its float r = e^{i theta} with
    the method's float coefficients: |z sigma - rho| <= 1e-12 |rho|."""
    method = lmm(name)
    rho = [1.0, *(-method.a).tolist()]
    sigma = method.b.tolist()
    r = np.exp(1j * (2.0 * math.pi * np.arange(samples) / samples))
    for j, z in enumerate(ok.boundary_locus(method, samples)):
        if z is None:
            continue
        (rr, ri, zr, zi, *coeffs), s = dyadic([r[j].real, r[j].imag, z.real, z.imag,
                                              *rho, *sigma])
        pr, pi = scaled_polyval(coeffs[:len(rho)], rr, ri, s)
        sr, si = scaled_polyval(coeffs[len(rho):], rr, ri, s)
        # z sigma and rho << s both carry the scale 2**(s * (q + 3))
        err_re = zr * sr - zi * si - (pr << s)
        err_im = zr * si + zi * sr - (pi << s)
        assert 10 ** 24 * (err_re ** 2 + err_im ** 2) <= (pr ** 2 + pi ** 2) << 2 * s, j


# ---------------------------------------------------------------------------
# multistep march: f at the new state evaluated again after the corrector


def ref_multistep_march(problem, method, h, strategy=None, bootstrap="rk4", predictor=None,
                        corrections=1):
    cfg = ImplicitSolveConfig(strategy)
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    if method.implicit and predictor is None:
        predictor = _default_predictor(method)
    depth = method.q + 1
    if method.implicit and predictor is not None:
        depth = max(depth, predictor.q + 1)
    if depth >= len(grid):
        raise ValueError("step size leaves no room for the multistep history")

    stats = RunStats()
    f = RefCountingRhs(problem.rhs, problem.dim, stats)
    boot = None if bootstrap == "exact" else reference_stepper(bootstrap, problem, strategy)

    states = np.empty((len(grid), problem.dim))
    states[0] = y = problem.y0.copy()
    hist = HistoryBuffer(depth, h)
    hist.push(grid[0], y, f(grid[0], y))

    solve_cfg, check_from = ref_corrector_config(cfg, problem.jacobian, corrections)
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
            ref_check_state(y, k, grid, states, stats)
            hist.push(grid[k], y, f(grid[k], y))

        for k in range(depth, n_full + 1):
            t_new = grid[k]
            y = known = _history_sum(plan, hist, h)
            if method.implicit:
                y = pred = _history_sum(pred_plan, hist, h)
                if solve_cfg is not None:
                    start = pred if np.isfinite(pred).all() else known
                    y = ref_solve_implicit(f, [t_new], [known], h, rows, [start], solve_cfg,
                                           problem.jacobian, stats, check_from, slot)[0][0]
            states[k] = y
            ref_check_state(y, k, grid, states, stats)
            hist.push(t_new, y, f(t_new, y))

        if n_full + 1 < len(grid):
            # shortened landing step onto t_end, outside the equispaced history
            k = len(grid) - 1
            stepper = boot if boot is not None else reference_stepper("rk4", problem, strategy)
            states[k] = y = stepper.advance(f, grid[k - 1], y, grid[k] - grid[k - 1], stats)
            ref_check_state(y, k, grid, states, stats)
    except NonFiniteError:
        # no state k was stored: stop before it, as on a non-finite state k
        ref_check_state(np.nan, k, grid, states, stats)
    return ref_finish(grid, states, stats)


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
                     {"strategy": "fixed-point", "corrections": 3},
                     False),
    "bdf2-zero-corrections": (ok.get_problem("dog_jogger", t_end=3.0), "bdf2", 0.05,
                              {"corrections": 0}, False),
    "ab3": (ok.get_problem("vdp", t_end=2.0), "ab3", 0.01, {}, False),
}


def package_multistep_march(problem, method, h, kwargs):
    """``multistep_march`` on ``ref_multistep_march``'s keyword arguments:
    its correctors run Newton exactly when the problem has a Jacobian, so a
    "fixed-point" run is one on the problem without it."""
    kwargs = dict(kwargs)
    if kwargs.pop("strategy", None) == "fixed-point":
        problem = without_jacobian(problem)
    return ms.multistep_march(problem, method, h, **kwargs)


def history_depth(method, predictor=None):
    if not method.implicit:
        return method.q + 1
    return max(method.q + 1, (predictor or _default_predictor(method)).q + 1)


def checked_states(traj, message):
    """How many states of a run passed the state check: every stored one,
    but a last one past the overflow guard."""
    return len(traj.times) - (message or "").startswith("state magnitude")


def reuses_corrector_f(problem, method, kwargs):
    """Whether the corrector's solve returns f at its accepted iterate:
    Newton, or fixed-point sweeps to convergence."""
    solve_cfg, _ = ref_corrector_config(ImplicitSolveConfig(kwargs.get("strategy")),
                                        problem.jacobian, kwargs.get("corrections", 1))
    return method.implicit and solve_cfg is not None and solve_cfg.require_convergence


def rhs_evals_saved(ref_traj, ref_message, problem, method, h, kwargs):
    """How many fewer rhs evaluations the package's multistep march makes
    than ``ref_multistep_march``.  The reference evaluates f at every
    history state 0..n_full that passes the state check, and on every call.
    The package never evaluates f at state n_full, which no step reads, and
    its wrapper returns the value of the call before, uncounted, for a call
    at the same t and array (first same as last):
    - the first stage of every attempted bootstrap step (not "exact") at
      the history's f of its start;
    - the history's f at a state k >= 1 read by a later step, and the
      landing step's first stage at state n_full >= 1, where that state's
      step ended with f at it: a corrector's converged solve (Newton, or
      fixed-point sweeps to convergence), or a stiffly accurate bootstrap
      tableau whose last stage time grid[k-1] + 1.0 h is grid[k] bit for
      bit."""
    grid, n_full = build_grid(problem.t0, problem.t_end, h)
    depth = history_depth(method, kwargs.get("predictor"))
    bootstrap = kwargs.get("bootstrap", "rk4")
    tableau = sp.TABLEAUS.get(bootstrap)
    corrector = reuses_corrector_f(problem, method, kwargs)
    passed = checked_states(ref_traj, ref_message)

    def ends_with_f_at_its_state(k):
        if k >= depth:
            return corrector
        return (tableau is not None and tableau.stiffly_accurate
                and grid[k - 1] + 1.0 * h == grid[k])

    # step k + 1 reads state k, and is attempted when state k passed
    saved = (passed > n_full) + sum(map(ends_with_f_at_its_state, range(1, min(passed, n_full))))
    if bootstrap != "exact":
        saved += min(depth - 1, n_full, passed)
    if n_full + 1 < len(grid) and passed > n_full >= 1:
        saved += ends_with_f_at_its_state(n_full)
    return saved


# How far a corrector that keeps its Newton factors across steps on a
# changing J may move from the reference, which factors on every update:
# relative to the run's largest |state|.  Measured: 1.25e-11 on the sweep's
# Robertson runs, 8.9e-11 on bdf2-newton (vdp).
KEPT_FACTORS_RTOL = 1e-9


def keeps_changing_factors(problem, method, kwargs):
    """Whether the corrector runs Newton on a J the problem does not declare
    constant, where it keeps its factors across steps."""
    solve_cfg, _ = ref_corrector_config(ImplicitSolveConfig(kwargs.get("strategy")),
                                        problem.jacobian, kwargs.get("corrections", 1))
    return (method.implicit and solve_cfg is not None and solve_cfg.strategy == "newton"
            and problem.jacobian is not None and not problem.jacobian_constant)


def assert_multistep_matches_reference(problem, name, h, kwargs):
    """The package's multistep march against ``ref_multistep_march``: the
    same bytes and counters, but for the rhs evaluations it saves; or, for
    a corrector that keeps its factors on a changing J, the same times,
    messages and warnings, states within KEPT_FACTORS_RTOL and no more J
    evaluations or factorizations."""
    method = lmm(name)
    got = march_outcome(lambda: package_multistep_march(problem, method, h, kwargs))
    recorded, ref_caught = recording_callback_warnings(problem)
    ref = march_outcome(lambda: ref_multistep_march(recorded, method, h, **kwargs))
    (traj, message, caught), (ref_traj, ref_message, _) = got, ref
    assert message == ref_message
    assert_warnings_come_from_callbacks(caught, ref_caught)
    if ref_traj is not None and keeps_changing_factors(problem, method, kwargs):
        assert same_bytes(traj.times, ref_traj.times)
        assert traj.states.shape == ref_traj.states.shape
        scale = np.max(np.abs(ref_traj.states))
        assert np.max(np.abs(traj.states - ref_traj.states)) <= KEPT_FACTORS_RTOL * scale
        assert traj.stats.jac_evals <= ref_traj.stats.jac_evals
        assert traj.stats.lu_factorizations <= ref_traj.stats.lu_factorizations
        assert (traj.stats.diverged, traj.stats.divergence_time) == (
            ref_traj.stats.diverged, ref_traj.stats.divergence_time)
    elif ref_traj is not None:
        assert same_bytes(traj.times, ref_traj.times)
        assert same_bytes(traj.states, ref_traj.states)
        saved = rhs_evals_saved(ref_traj, ref_message, problem, method, h, kwargs)
        assert traj.stats == dataclasses.replace(ref_traj.stats,
                                                 rhs_evals=ref_traj.stats.rhs_evals - saved)
    return ref


@pytest.mark.parametrize("case", list(MULTISTEP_RUNS))
def test_multistep_march_matches_reference(case):
    problem, name, h, kwargs, reuses = MULTISTEP_RUNS[case]
    assert reuses_corrector_f(problem, lmm(name), kwargs) == reuses
    assert_multistep_matches_reference(problem, name, h, kwargs)


def signed_zero_problem():
    """y' = -y from signed zeros and a one."""
    return ok.IvpProblem(name="zeros", dim=3, rhs=lambda t, y: -y, t0=0.0, t_end=1.0,
                         y0=np.array([-0.0, 0.0, 1.0]), exact=lambda t: [-0.0, 0.0, math.exp(-t)])


# (problem, h): exact, shortened and one-step grids, runs that grow past the
# divergence threshold, blow up, turn NaN or inf, signed zeros, a changing and
# a declared-constant Jacobian
MULTISTEP_SWEEP_CASES = {
    "decay": (ok.get_problem("decay", t_end=1.0), 0.125),
    "decay-short-last-step": (ok.get_problem("decay", t_end=1.0), 0.03),
    "decay-landing-step-only": (ok.get_problem("decay", t_end=1.0), 1.0 + 1e-13),
    "lambda_cos-unstable": (ok.get_problem("lambda_cos", lam=-5000.0, t_end=0.1), 1e-3),
    "blowup-past-its-pole": (dataclasses.replace(ok.get_problem("blowup"), t_end=1.5), 0.01),
    "nan-rhs": (switching_problem(np.nan), 0.0625),
    "inf-rhs": (switching_problem(np.inf), 0.0625),
    "signed-zeros": (signed_zero_problem(), 0.1),
    "dog_jogger": (ok.get_problem("dog_jogger", t_end=1.0), 0.05),
    "robertson": (ok.get_problem("robertson", t_end=0.05), 0.0023),
    "mol_diffusion": (ok.get_problem("mol_diffusion", m=8, t_end=0.05), 0.005),
}

MULTISTEP_SWEEP_SETTINGS = {
    "default": {},
    "exact-bootstrap": {"bootstrap": "exact"},
    "ieuler-bootstrap": {"bootstrap": "ieuler"},
    "corrections-0": {"corrections": 0},
    "corrections-2": {"strategy": "fixed-point", "corrections": 2},
    "converge": {"strategy": "fixed-point", "corrections": "converge"},
    "fixed-point": {"strategy": "fixed-point"},
}


@pytest.mark.parametrize("name, setting", [
    (name, setting) for name in LMM_MODEL_NAMES if name != "leapfrog"
    for setting in MULTISTEP_SWEEP_SETTINGS
    if lmm(name).implicit or setting.endswith("bootstrap") or setting == "default"])
def test_multistep_sweep_matches_reference(name, setting):
    """Every multistep name under each bootstrap and corrector setting, on
    every sweep case: the same times, states, messages, warnings and
    counters as the reference, but for the rhs evaluations it saves."""
    for problem, h in MULTISTEP_SWEEP_CASES.values():
        assert_multistep_matches_reference(problem, name, h, MULTISTEP_SWEEP_SETTINGS[setting])


def test_multistep_sweep_reaches_every_outcome():
    """The sweep cases end clean, flagged, past the guard, non-finite, with
    no room for the history, after a failed Newton solve and after a missing
    exact solution."""
    outcomes = set()
    for name, kwargs in (("ab2", {}), ("bdf6", {}), ("bdf2", {"bootstrap": "exact"})):
        for problem, h in MULTISTEP_SWEEP_CASES.values():
            traj, message, _ = assert_multistep_matches_reference(problem, name, h, kwargs)
            if isinstance(message, tuple):
                outcomes.add(message[0].__name__)
            else:
                outcomes.add((message or "clean").split(" near")[0]
                             + (" flagged" if traj.stats.diverged else ""))
    assert outcomes == {"clean", "clean flagged", "state became non-finite flagged",
                        "state magnitude passed the overflow guard flagged", "ValueError",
                        "ImplicitSolveError", "MissingExactError"}


@pytest.mark.parametrize("name", ["ab1", "bdf1", "am1"])
def test_landing_step_alone(name):
    """With n_full = 0 the only step is the RK4 landing step, not a formula
    step, whatever the step size it is given."""
    problem = ok.get_problem("decay", t_end=1.0)
    traj = ok.integrate(problem, name, h=1.0 + 1e-13)
    assert build_grid(0.0, 1.0, 1.0 + 1e-13) == ([0.0, 1.0], 0)
    assert traj.final_state[0] == 0.3750000000000001
    assert traj.stats.rhs_evals == 4


def test_multistep_runs_reach_the_nan_rhs():
    problem, name, h, kwargs, _ = MULTISTEP_RUNS["am2-converge-nan-rhs"]
    traj, message, _ = march_outcome(
        lambda: package_multistep_march(problem, lmm(name), h, kwargs))
    assert message.startswith("state became non-finite")
    assert len(traj.times) > history_depth(lmm(name))


# ---------------------------------------------------------------------------
# the adaptive pair before its settings became module constants


def ref_step_size_update(h: float, e: float, tol: float, p: int = 2, safety: float = 0.8) -> float:
    """safety * h * (tol/e)^(1/p); callers handle e = 0 by accepting."""
    if not (h > 0 and e > 0):
        raise ValueError("h and e must be positive")
    return safety * h * (tol / e) ** (1.0 / p)


def ref_ode12_solve(problem, tol):
    """Integrate with the adaptive Euler/RK2 pair; logs every attempt.

    (Verbatim but for the controller's settings, which are its defaults
    inlined: safety 0.8, p = 2, h_min = 1e-12, max_rejects_per_step = 50.)"""
    if not tol > 0:
        raise ValueError("tol must be positive")
    stats = RunStats()
    f = RefCountingRhs(problem.rhs, problem.dim, stats)
    t = problem.t0
    y = problem.y0.copy()
    times = [t]
    states = [y.copy()]
    log: list[StepRecord] = []
    h = tol ** (1.0 / 3.0)
    rejects_in_a_row = 0

    while t < problem.t_end:
        h_eff = min(h, problem.t_end - t)
        if h_eff < 1e-12:
            raise StepUnderflowError(f"step size {h_eff:.3e} fell below h_min")
        f1 = f(t, y)
        f2 = f(t + h_eff / 2.0, y + (h_eff / 2.0) * f1)
        e = linalg.vec_norm_inf(h_eff * (f2 - f1))
        t_new = problem.t_end if h_eff == problem.t_end - t else t + h_eff
        if e < tol:
            log.append(StepRecord(t, h_eff, e, True))
            y = y + h_eff * f2
            times.append(t_new)
            states.append(y)
            ref_check_state(y, len(states) - 1, times, states, stats, log)
            t = t_new
            h = tol ** (1.0 / 3.0)
            rejects_in_a_row = 0
        else:
            log.append(StepRecord(t, h_eff, e, False))
            stats.rejected_steps += 1
            if not e < math.inf:
                # no step size can be judged on a non-finite estimate: the run
                # stops as on a non-finite state at the attempted step's end
                times.append(t_new)
                states.append(math.nan)
                ref_check_state(math.nan, len(states) - 1, times, states, stats, log)
            rejects_in_a_row += 1
            if rejects_in_a_row > 50:
                raise RejectCapError(
                    f"{rejects_in_a_row} consecutive rejections at t={t:.6g}"
                )
            h = ref_step_size_update(h_eff, e, tol, 2, 0.8)
            if h < 1e-12:
                raise StepUnderflowError(f"step size {h:.3e} fell below h_min")
    return ref_finish(times, states, stats, log)


# Runs that end clean, flagged, past the overflow guard, on a non-finite
# estimate, below h_min (after rejections and at the first attempt) and at
# the reject cap.  Left out: runs whose accepted steps stop less than h_min
# short of t_end, where the reference raises and ode12 now lands (see
# test_adaptive.py).
ODE12_CASES = {
    **{f"{key}-{tol}": (ok.get_problem(key), tol)
       for key in ("adapt_demo", "vdp", "blowup", "decay", "pendulum", "kinetics3")
       for tol in (1e-2, 1e-3, 1e-4)},
    "flagged": (ok.IvpProblem(name="steep", dim=1, rhs=lambda t, y: np.full(1, 3e13),
                              t0=0.0, t_end=1.0, y0=np.zeros(1)), 1e-6),
    "overflow-guard": (ok.IvpProblem(name="steep", dim=1, rhs=lambda t, y: np.full(1, 1e205),
                                     t0=0.0, t_end=1.0, y0=np.zeros(1)), 1e-6),
    "nan-rhs": (switching_problem(np.nan), 1e-6),
    "underflow": (inverse_t(1.0), 1e-3),
    "underflow-first-attempt": (ok.get_problem("vdp"), 1e-37),
    "reject-cap": (inverse_t(0.505e-3), 1e-3),
    # one step spans the interval, and t0 + (t_end - t0) rounds 3.1e-9 short
    # of t_end: the clamped step still lands on t_end
    "clamped-step-rounds-short": (ok.IvpProblem(
        name="unit_slope", dim=1, rhs=lambda t, y: np.ones(1), t0=-312981922.66052204,
        t_end=-931546.7777650921, y0=np.zeros(1)), 1e27),
}


@pytest.mark.parametrize("case", list(ODE12_CASES))
def test_ode12_matches_reference(case):
    problem, tol = ODE12_CASES[case]
    traj, message, caught = march_outcome(lambda: ok.ode12_solve(problem, tol))
    recorded, ref_caught = recording_callback_warnings(problem)
    ref_traj, ref_message, _ = march_outcome(lambda: ref_ode12_solve(recorded, tol))
    assert message == ref_message
    assert_warnings_come_from_callbacks(caught, ref_caught)
    if ref_traj is not None:
        assert same_bytes(traj.times, ref_traj.times)
        assert same_bytes(traj.states, ref_traj.states)
        assert traj.stats == ref_traj.stats
        assert traj.step_log == ref_traj.step_log


def test_ode12_cases_reach_every_outcome():
    outcomes = set()
    for problem, tol in ODE12_CASES.values():
        traj, message, _ = march_outcome(lambda: ref_ode12_solve(problem, tol))
        if isinstance(message, tuple):
            outcomes.add(message[0].__name__)
        else:
            outcomes.add((message or "clean").split(" near")[0]
                         + (" flagged" if traj.stats.diverged else ""))
    assert outcomes == {"clean", "clean flagged", "state became non-finite flagged",
                        "state magnitude passed the overflow guard flagged",
                        "StepUnderflowError", "RejectCapError"}


# ---------------------------------------------------------------------------
# catalog callbacks on Python floats: verbatim copies of their numpy forms


def ref_robertson_rhs(t, y):
    y1, y2, y3 = y
    r1 = -0.04 * y1 + 1e4 * y2 * y3
    r2 = 0.04 * y1 - 1e4 * y2 * y3 - 3e7 * y2 * y2
    return np.array([r1, r2, 3e7 * y2 * y2])


def ref_robertson_jac(t, y):
    _, y2, y3 = y
    return np.array([
        [-0.04, 1e4 * y3, 1e4 * y2],
        [0.04, -1e4 * y3 - 6e7 * y2, -1e4 * y2],
        [0.0, 6e7 * y2, 0.0],
    ])


def ref_vdp_rhs(mu):
    return lambda t, y: np.array([y[1], mu * (1.0 - y[0] * y[0]) * y[1] - y[0]])


def ref_vdp_jac(mu):
    return lambda t, y: np.array([
        [0.0, 1.0],
        [-2.0 * mu * y[0] * y[1] - 1.0, mu * (1.0 - y[0] * y[0])],
    ])


def ref_dog_jogger_rhs(w, jogger):
    def rhs(t, y):
        jx, jy = jogger(t)
        dx, dy = jx - y[0], jy - y[1]
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            return np.zeros(2)
        return (w / dist) * np.array([dx, dy])
    return rhs


def ref_lambda_cos_rhs(lam):
    return lambda t, y: lam * (y - math.cos(t)) - math.sin(t)


# states that overflow the callbacks' products (1e200 squared), hold inf or
# NaN, or are ordinary finite values
CALLBACK_ENTRIES = st.one_of(st.sampled_from(SPECIAL + [1e200, -1e155, 3e-200]), st.floats())


@st.composite
def catalog_callbacks(draw):
    """(callback, its numpy-form reference, t, y) for one rewritten catalog
    callback, its parameters and a state drawn from CALLBACK_ENTRIES."""
    positive = st.floats(1e-300, 1e300)
    key = draw(st.sampled_from(["robertson", "vdp", "dog_jogger", "lambda_cos"]))
    if key == "robertson":
        problem = ok.get_problem("robertson")
        pairs = [(problem.rhs, ref_robertson_rhs), (problem.jacobian, ref_robertson_jac)]
    elif key == "vdp":
        mu = draw(positive)
        problem = ok.get_problem("vdp", mu=mu)
        pairs = [(problem.rhs, ref_vdp_rhs(mu)), (problem.jacobian, ref_vdp_jac(mu))]
    elif key == "dog_jogger":
        w, path = draw(positive), draw(st.sampled_from(["line", "outback", "circle"]))
        problem = ok.get_problem("dog_jogger", w=w, path=path)
        pairs = [(problem.rhs, ref_dog_jogger_rhs(w, problems._jogger_path(path)[0]))]
    else:
        lam = draw(st.floats(-1e300, 1e300).filter(lambda v: v != 0.0))
        problem = ok.get_problem("lambda_cos", lam=lam)
        pairs = [(problem.rhs, ref_lambda_cos_rhs(lam))]
    callback, ref = draw(st.sampled_from(pairs))
    t = draw(st.floats(problem.t0, problem.t_end))
    y = np.array(draw(st.lists(CALLBACK_ENTRIES, min_size=problem.dim,
                               max_size=problem.dim)))
    return callback, ref, t, y


@given(catalog_callbacks())
@example((ok.get_problem("vdp").jacobian, ref_vdp_jac(1.0), 0.0, np.array([1e200, 1e200])))
@example((ok.get_problem("robertson").rhs, ref_robertson_rhs, 0.0,
          np.array([np.inf, np.inf, -np.inf])))
@example((ok.get_problem("dog_jogger").rhs, ref_dog_jogger_rhs(10.0, problems._jogger_path(
    "line")[0]), 1.0, np.array([-np.inf, np.nan])))
@settings(max_examples=300, deadline=None)
def test_catalog_callback_matches_numpy_form(case):
    """The catalog callbacks that compute on Python floats give the bytes of
    their numpy forms on finite states, on states holding inf or NaN and on
    states whose products overflow, and emit no warning where numpy warns.
    A NaN entry is compared as NaN: where two NaNs of different payloads
    meet, IEEE 754 leaves open which payload the result carries (numpy and
    CPython may pick differently), and no output of the package shows it."""
    callback, ref, t, y = case
    with np.errstate(all="ignore"):
        want = np.asarray(ref(t, y.copy()), dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = callback(t, y)
    nan = np.isnan(want)
    assert got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
    assert same_bytes(np.where(nan, 0.0, got), np.where(nan, 0.0, want))
