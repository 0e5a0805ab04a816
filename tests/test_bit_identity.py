"""Bit-identity of the implicit kernel's building blocks, of the 2x2
eigensolver and of the stability raster emitters.

Each reference below is a verbatim copy of a routine as it stood before
it was tuned (wrapper-free reductions and per-march history plans for
small systems; axis labels formatted once per raster) or before it was
made safe for tiny and huge entries (the 2x2 eigensolver, now scaled by a
power of two).  The tuned routines
must reproduce them bit for bit: factors, permutations, solutions and
history sums compare by ``tobytes()``, the errors raised on singular,
non-finite or non-square input by message, and emitted text by string.
"""
import cmath

import numpy as np
import pytest

from odekit import cli
from odekit import linalg
from odekit import multistep as ms
from odekit.stability import StabilityRegionRaster
from odekit.errors import SingularMatrixError
from odekit.linalg import PIVOT_RTOL


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
