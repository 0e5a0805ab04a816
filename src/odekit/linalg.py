"""Small dense linear algebra and polynomial root finding.

Everything takes and returns plain numpy arrays, except the LU factors.
The systems appearing in the benchmark problems are small (a few dozen
unknowns at most), so the solvers keep every pivot, finiteness and
convergence check.  The implicit steppers' kernel, ``lu_factor``,
``lu_solve_factored`` and ``vec_norm_inf``, works on the Python scalars of
``tolist()``, cheaper than numpy's per-call overhead, and each states its
accuracy: a backward-error bound for the factors and the substitution, an
exact inf-norm.  Its caller ``steppers.solve_implicit`` hands it the
state-sized matrix I - (h a) J of a one-block solve (every multistep
corrector and DIRK stage) directly, and the stacked I - h (A kron J)
only for coupled stages.

``lu_factor`` returns ``LuFactors``: the factor rows as Python lists, the
permutation, and each row's band of nonzeros, found once after the
elimination.  ``lu_solve_factored`` substitutes over the bands only, so a
solve costs O(n) on a tridiagonal matrix (a method-of-lines Newton matrix)
and O(n^2) on a dense one, with the bits of the full substitution except
for a -0.0 partial sum or an inf/NaN unknown (see its docstring).
``lu_solve`` is ``lu_factor`` followed by ``lu_solve_factored``; callers
that solve with one matrix more than once keep its factors, as the Newton
solves do on a problem that declares its Jacobian constant
(``steppers.LuSlot``).  Every factorization goes through ``lu_factor``.

Every eigen decomposition the package makes goes through
``eigen_decomposition``, one dispatch on the matrix shape, which
``complete_eigendecomposition`` wraps.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DefectiveMatrixError,
    NonConvergenceError,
    NotSymmetricError,
    SingularMatrixError,
    UnsupportedSpectrumError,
)

PIVOT_RTOL = 1e-14
JACOBI_MAX_SWEEPS = 100
DK_MAX_ITERS = 500
DK_UPDATE_TOL = 1e-13
ROOT_CLUSTER_TOL = 1e-6
ROOT_CLUSTER_MAX_TOL = 1e-3
_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)


def vec_norm_inf(v) -> float:
    """max |v_i| over every entry of ``v``, a Python float: 0.0 for none,
    NaN exactly when one is NaN (a complex one when either part is).  Exact
    on real entries, within one rounding on complex ones (inf where a
    modulus overflows).  The sum of the entries only tests for a NaN.
    """
    vals = np.asarray(v).ravel().tolist()
    total = sum(vals)
    if total != total and any(x != x for x in vals):
        return math.nan
    return float(max(map(_modulus if type(total) is complex else abs, vals), default=0.0))


def _modulus(z) -> float:
    """|z| of a Python complex, inf where it overflows (``abs`` raises)."""
    return math.hypot(z.real, z.imag)


def mat_norm_inf(a) -> float:
    a = np.atleast_2d(np.asarray(a))
    return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0


@dataclass
class EigenDecomposition:
    """Eigenvalues (and optionally eigenvectors as columns) of a matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    defective: bool = False


@dataclass
class ComplexRootSet:
    """Polynomial roots grouped into multiplicity clusters."""

    roots: np.ndarray
    multiplicities: np.ndarray

    @property
    def degree(self) -> int:
        return int(np.sum(self.multiplicities))


class LuFactors(NamedTuple):
    """The factors ``lu_factor`` returns, kept as the substitution reads them.

    ``rows[i]`` is row i of the combined LU matrix as a Python list: L's
    multipliers left of the diagonal (L's unit diagonal is implied), U's
    row from the diagonal on.  ``perm`` lists the original row behind each
    row (PA = LU with (PA)_i = A_perm[i]).  ``lo[i]`` is the first nonzero
    column of L's row i (i where there is none) and ``hi[i]`` one past the
    last nonzero of U's row i, so row i is zero outside [lo[i], hi[i]).
    ``dtype`` is float64 or complex128.
    """

    rows: list
    perm: list
    lo: list
    hi: list
    dtype: np.dtype

    @property
    def lu(self) -> np.ndarray:
        """The n x n ndarray of ``rows``, built on each access."""
        n = len(self.rows)
        return np.array(self.rows, dtype=self.dtype).reshape(n, n)


def lu_factor(a) -> LuFactors:
    """LU factorization with partial pivoting; returns ``LuFactors``.

    One elimination on the Python scalars of ``a.tolist()``, real or
    complex (integer and bool matrices give float factors); ``a`` is never
    written to, and a non-square or non-finite one raises ValueError.  The
    pivot is the first entry of largest modulus.  PA = LU + dA with
    |dA| <= gamma_n |L||U| entrywise, gamma_n = nu / (1 - nu), u = 2^-53
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    Thm 9.3; for complex factors u is a small multiple, section 3.6).

    A row whose multiplier is exactly 0 is not updated, and each row's band
    [lo, hi) is found once the elimination ends.  Partial pivoting never
    fills a row's leading zeros: with p subdiagonals and q superdiagonals,
    U has at most p + q superdiagonals and L at most p multipliers per
    column (Golub & Van Loan, "Matrix Computations", 4th ed., section
    4.3), so a tridiagonal matrix is solved in O(n) operations.  The
    elimination itself still visits every row below each pivot.

    A pivot below PIVOT_RTOL * max(||A||_inf, 1e-300) raises
    SingularMatrixError.  The norm comes from Python row sums within
    (n - 1)u of exact, so a verdict differs from the exact floor's only
    for a pivot within 2n ulp of it, or where ||A||_inf is within 2n ulp of
    overflow.  A norm that overflows (a complex modulus may) makes the
    floor inf, and every finite pivot is refused.  So is a finite complex
    pivot whose modulus overflows: a quotient by it comes out 0 (Smith's
    method overflows in its denominator), which breaks the bound.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    cplx = a.dtype.kind == "c"
    mag = _modulus if cplx else abs
    rows = a.tolist()
    n = len(rows)
    scale = total = 0.0
    for row in rows:
        s = 0.0
        for x in row:
            s += mag(x)
        total += s
        if s > scale:
            scale = s
    if not total < math.inf and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    floor = PIVOT_RTOL * max(scale, 1e-300)
    perm = list(range(n))
    for col in range(n):
        pivot_row, big = col, mag(rows[col][col])
        for r in range(col + 1, n):
            m = mag(rows[r][col])
            if m > big:
                pivot_row, big = r, m
        if not floor <= big < math.inf:
            if big < floor:
                raise SingularMatrixError(f"pivot {big:.3e} below threshold at column {col}")
            if big == math.inf and cmath.isfinite(rows[pivot_row][col]):
                raise SingularMatrixError(f"pivot modulus overflows at column {col}")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        prow = rows[col]
        pivot = prow[col]
        for row in rows[col + 1:]:
            fac = row[col] / pivot
            row[col] = fac
            if fac:
                for c in range(col + 1, n):
                    row[c] -= fac * prow[c]
    lo, hi = [], []
    for i, row in enumerate(rows):
        j, k = 0, n
        while j < i and not row[j]:
            j += 1
        while k > i + 1 and not row[k - 1]:
            k -= 1
        lo.append(j)
        hi.append(k)
    return LuFactors(rows, perm, lo, hi, _COMPLEX if cplx else _FLOAT)


def lu_solve(a, b):
    """Solve ``A x = b`` by LU with partial pivoting (real or complex)."""
    return lu_solve_factored(lu_factor(a), b)


def lu_solve_factored(factors: LuFactors, b):
    """Solve ``A x = b`` from ``factors = lu_factor(A)``.

    ``b`` is a vector or a matrix of right-hand-side columns.  Forward and
    back substitution run row by row on the Python scalars of ``tolist()``,
    in the common type of the factors and ``b``: real factors solve a
    complex ``b`` in complex arithmetic.  Row i runs over its band only,
    columns lo[i] to i - 1 forward and i + 1 to hi[i] - 1 back, so a solve
    costs the number of entries in the bands, O(n) for a tridiagonal
    matrix, O(n^2) for a dense one.  The terms left out are products with
    an exact 0, so the result has the bits of the full substitution except
    where a -0.0 partial sum would have met a -0.0 product (the full sum
    gives +0.0) or an x_j is inf or NaN (0 * inf is NaN, which the full sum
    would carry).  Each triangular solve is backward stable,
    (T + dT) x = b with |dT| <= gamma_n |T| (Higham, Thm 8.5), so
    |Pb - LUx| <= gamma_2n |L||U||x| for the computed factors, and with
    their error (A + dA) x = b, |dA| <= gamma_3n P^T |L||U| (Thm 9.4).
    """
    rows, perm, lo, hi, dtype = factors
    b = np.asarray(b)
    if b.dtype is not dtype:
        dtype = np.result_type(dtype, b.dtype)
    n = len(rows)
    cols = b.T.tolist() if b.ndim == 2 else [b.tolist()]
    for k, col in enumerate(cols):
        cols[k] = x = [col[p] for p in perm]
        for i in range(1, n):
            row, s = rows[i], x[i]
            for j in range(lo[i], i):
                s -= row[j] * x[j]
            x[i] = s
        for i in range(n - 1, -1, -1):
            row, s = rows[i], x[i]
            for j in range(i + 1, hi[i]):
                s -= row[j] * x[j]
            x[i] = s / row[i]
    if b.ndim == 2:
        return np.array(cols, dtype=dtype).reshape(len(cols), n).T.copy()
    return np.array(cols[0], dtype=dtype)


def eig_2x2(a) -> EigenDecomposition:
    """Closed-form eigen decomposition of a real 2x2 matrix.

    Eigenvalues come from the quadratic formula on the characteristic
    polynomial of the matrix scaled by the power of two that brings its
    largest entry into [0.5, 1), so that tiny or huge entries neither
    underflow nor overflow the discriminant; the scaling is exact, so a
    matrix whose values all stay in the normal range gets the same bits as
    unscaled.  Of two distinct real roots, the one farther from zero is
    (tr + sign(tr) s) / 2 and the other det over it (Vieta), where
    tr - sign(tr) s would cancel.  Eigenvectors are normalized to unit
    inf-norm.  A defective repeated eigenvalue is flagged rather than
    raised.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("2x2 matrix required")
    exp = math.frexp(float(np.abs(a).max()))[1]
    dec = _eig_2x2_scaled(np.ldexp(a, -exp))
    lam = dec.eigenvalues
    lam.real, lam.imag = np.ldexp(lam.real, exp), np.ldexp(lam.imag, exp)
    return dec


def _eig_2x2_scaled(a) -> EigenDecomposition:
    a11, a12, a21, a22 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = complex(tr * tr - 4.0 * det)
    s = cmath.sqrt(disc)
    lam = np.array([(tr - s) / 2.0, (tr + s) / 2.0], dtype=complex)
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-300)

    def eigvec(l):
        # rows of (A - lI) are (a11-l, a12) and (a21, a22-l); a null vector
        # can be read off whichever row is numerically nontrivial.
        v1 = np.array([a12, l - a11], dtype=complex)
        v2 = np.array([l - a22, a21], dtype=complex)
        v = v1 if vec_norm_inf(v1) >= vec_norm_inf(v2) else v2
        if vec_norm_inf(v) <= 1e-14 * scale:
            return None
        return v / vec_norm_inf(v)

    if abs(s) <= 1e-12 * scale:
        lam[:] = tr / 2.0
        if max(abs(a12), abs(a21), abs(a11 - a22)) <= 1e-14 * scale:
            vecs = np.eye(2, dtype=complex)
            return EigenDecomposition(lam, vecs, defective=False)
        v = eigvec(lam[0])
        vecs = np.column_stack([v, v])
        return EigenDecomposition(lam, vecs, defective=True)

    if disc.real > 0:
        far = 0 if tr < 0 else 1
        # a zero root is +0.0: det / lam would sign it by lam
        lam[1 - far] = det / lam[far].real if det else 0.0
    vecs = []
    for l in lam:
        v = eigvec(l)
        if v is None:
            # scalar matrix: every direction is an eigenvector
            v = np.array([1.0, 0.0], dtype=complex) if len(vecs) == 0 else np.array([0.0, 1.0], dtype=complex)
        vecs.append(v)
    return EigenDecomposition(lam, np.column_stack(vecs), defective=False)


def jacobi_symmetric_eig(a) -> EigenDecomposition:
    """Cyclic Jacobi eigensolver for real symmetric matrices.

    Sweeps until the off-diagonal Frobenius norm drops below
    ``1e-12 * ||A||_F`` or ``JACOBI_MAX_SWEEPS`` sweeps have run.
    Eigenvalues are returned sorted ascending with matching eigenvectors.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    scale = mat_norm_inf(a)
    if mat_norm_inf(a - a.T) > 1e-12 * max(scale, 1e-300):
        raise NotSymmetricError("matrix is not symmetric to working tolerance")
    n = a.shape[0]
    b = a.copy()
    v = np.eye(n)
    fro = math.sqrt(float(np.sum(a * a)))
    target = 1e-12 * fro

    def offdiag_norm(m):
        off = m - np.diag(np.diag(m))
        return math.sqrt(float(np.sum(off * off)))

    converged = n < 2 or offdiag_norm(b) <= target
    for _ in range(JACOBI_MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = b[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (b[q, q] - b[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * b[:, p] - s * b[:, q]
                rot_q = s * b[:, p] + c * b[:, q]
                b[:, p], b[:, q] = rot_p, rot_q
                rot_p = c * b[p, :] - s * b[q, :]
                rot_q = s * b[p, :] + c * b[q, :]
                b[p, :], b[q, :] = rot_p, rot_q
                b[p, q] = b[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
        converged = offdiag_norm(b) <= target
    if not converged:
        raise NonConvergenceError("Jacobi sweeps did not reduce off-diagonal norm")
    order = np.argsort(np.diag(b), kind="stable")
    return EigenDecomposition(
        np.diag(b)[order].astype(complex), v[:, order].astype(complex), defective=False
    )


def tridiag_toeplitz_eigs(m: int, dx: float) -> np.ndarray:
    """Eigenvalues of the (1/dx^2)*tridiag(1,-2,1) matrix of size m.

    Closed form: lambda_l = -(4/dx^2) sin^2(pi*l*dx/2) for l = 1..m, with
    dx = 1/(m+1).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if abs(dx - 1.0 / (m + 1)) > 1e-12:
        raise ValueError("dx must equal 1/(m+1)")
    ls = np.arange(1, m + 1, dtype=float)
    return -4.0 / (dx * dx) * np.sin(0.5 * math.pi * ls * dx) ** 2


def _triangular_eig(a, lower: bool) -> EigenDecomposition:
    """Eigen decomposition of a triangular matrix, each eigenvector by
    substitution from its own diagonal entry.

    Where lam_i - a_jj vanishes (within 1e-9 ||A||, a repeated eigenvalue)
    component j of the lam_i vector is free and is taken as 0; the row's
    sum must then vanish too, or the matrix has no full eigenbasis and is
    flagged defective, with no eigenvectors.
    """
    n = a.shape[0]
    lam = np.diag(a).astype(complex)
    tol = 1e-9 * max(mat_norm_inf(a), 1e-300)
    vecs = np.zeros((n, n), dtype=complex)
    for i in range(n):
        v = np.zeros(n, dtype=complex)
        v[i] = 1.0
        inner = range(i + 1, n) if lower else range(i - 1, -1, -1)
        for j in inner:
            acc = 0.0 + 0.0j
            span = range(i, j) if lower else range(j + 1, i + 1)
            for k in span:
                acc += a[j, k] * v[k]
            gap = lam[i] - a[j, j]
            if abs(gap) > tol:
                v[j] = acc / gap
            elif abs(acc) > tol:
                return EigenDecomposition(lam, defective=True)
        vecs[:, i] = v / vec_norm_inf(v)
    return EigenDecomposition(lam, vecs, defective=False)


def eigen_decomposition(a) -> EigenDecomposition:
    """Eigenvalues and eigenvectors for the matrix shapes the toolkit
    supports: 1x1, 2x2 (closed form), symmetric (Jacobi) and triangular.

    A matrix with no full eigenbasis is flagged ``defective``: a 2x2 one as
    ``eig_2x2`` flags it, and a triangular one as ``_triangular_eig``
    does.  Any other shape raises UnsupportedSpectrumError.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return EigenDecomposition(np.array([a[0, 0]], dtype=complex),
                                  np.array([[1.0]], dtype=complex))
    if n == 2:
        return eig_2x2(a)
    scale = max(mat_norm_inf(a), 1e-300)
    if mat_norm_inf(a - a.T) <= 1e-12 * scale:
        return jacobi_symmetric_eig(a)
    lower = np.array_equal(a, np.tril(a))
    if lower or np.array_equal(a, np.triu(a)):
        return _triangular_eig(a, lower)
    raise UnsupportedSpectrumError("general nonsymmetric spectra above 2x2 are not supported")


def complete_eigendecomposition(a) -> EigenDecomposition:
    """``eigen_decomposition`` of a matrix with a full eigenbasis; a
    defective one raises DefectiveMatrixError."""
    dec = eigen_decomposition(a)
    if dec.defective:
        raise DefectiveMatrixError("2x2 matrix is defective" if len(dec.eigenvalues) == 2
                                   else "triangular matrix is defective")
    return dec


def linear_exact_solution(a, y0, t: float) -> np.ndarray:
    """Exact solution ``V exp(D t) V^-1 y0`` of y' = A y, y(0) = y0."""
    a = np.asarray(a, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    dec = complete_eigendecomposition(a)
    v = dec.eigenvectors
    u0 = lu_solve(v, y0.astype(complex))
    w = u0 * np.exp(dec.eigenvalues * t)
    y = v @ w
    resid = vec_norm_inf(y.imag)
    if resid > 1e-9 * max(vec_norm_inf(y), 1e-300):
        raise DefectiveMatrixError(f"imaginary residue {resid:.3e} too large")
    return y.real


def polyval(coeffs, z):
    """Horner evaluation, highest-degree coefficient first; ``z`` may be a
    scalar or a numpy array."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _poly_from_roots(roots, mults):
    coeffs = np.array([1.0 + 0.0j])
    for r, m in zip(roots, mults):
        for _ in range(int(m)):
            coeffs = np.convolve(coeffs, np.array([1.0 + 0.0j, -r]))
    return coeffs


def _poly_derivative(coeffs):
    n = len(coeffs) - 1
    return coeffs[:-1] * np.arange(n, 0, -1)


def _polish_root(monic, r, mult):
    """Newton-refine a multiplicity-``mult`` root.

    A root of multiplicity m of p is a simple root of the (m-1)-th
    derivative, so Newton on that derivative converges quadratically where
    Newton on p itself stalls at the round-off scatter.
    """
    d = monic
    for _ in range(mult - 1):
        d = _poly_derivative(d)
    dd = _poly_derivative(d)
    for _ in range(100):
        dval = polyval(dd, r)
        if abs(dval) < 1e-300:
            break
        step = polyval(d, r) / dval
        r = r - step
        if abs(step) <= 1e-15 * max(1.0, abs(r)):
            break
    return r


def _cluster_roots(z, tol, monic):
    """Single-linkage clustering at distance tol, with polished centers."""
    n = len(z)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(z[i] - z[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    roots, mults = [], []
    for members in groups.values():
        center = complex(np.mean([z[i] for i in members]))
        roots.append(_polish_root(monic, center, len(members)))
        mults.append(len(members))
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    roots = np.array([roots[i] for i in order], dtype=complex)
    mults = np.array([mults[i] for i in order], dtype=int)
    return roots, mults


def _cmul(a, b):
    """Elementwise complex product rounded as scalar complex arithmetic rounds
    it.  numpy's complex array loops may fuse multiply-adds; this keeps every
    Durand-Kerner lane bit-identical to the same polynomial iterated alone."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def durand_kerner(monic, seed: int = 0):
    """Durand-Kerner simultaneous iteration on a batch of monic polynomials.

    ``monic`` is an (N, n+1) array, highest degree first, one polynomial
    per lane.  Every lane starts from the same seeded, perturbed angles on a
    circle of its own coefficient radius and sweeps its roots in
    Gauss-Seidel order.  A lane stops after the sweep in which its largest
    update falls below ``DK_UPDATE_TOL`` or every residual is at the
    evaluation round-off floor (the update criterion alone cannot trigger at
    multiple roots, whose approximations scatter like eps^(1/multiplicity)).

    Returns ``(z, converged)``: the (N, n) root approximations and a per-lane
    flag that is False where the lane hit ``DK_MAX_ITERS`` sweeps.
    """
    monic = np.asarray(monic, dtype=complex)
    lanes, n = monic.shape[0], monic.shape[1] - 1
    converged = np.ones(lanes, dtype=bool)
    if n == 1:
        return -monic[:, 1:], converged
    rng = np.random.default_rng(seed)
    radius = np.array([max(1.0, float(m) ** (1.0 / n))
                       for m in np.max(np.abs(monic[:, 1:]), axis=1)])
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n + rng.uniform(-0.05, 0.05, size=n)
    z = radius[:, None] * np.exp(1j * angles)
    abs_coeffs = np.abs(monic)
    floor_scale = 8.0 * n * np.finfo(float).eps
    active = np.arange(lanes)
    for _ in range(DK_MAX_ITERS):
        if not active.size:
            break
        za, ca, aa = z[active], monic[active], abs_coeffs[active]
        max_update = np.zeros(len(active))
        max_excess = np.zeros(len(active))
        for j in range(n):
            zj = za[:, j]
            pj = ca[:, 0]
            for k in range(1, n + 1):
                pj = _cmul(pj, zj) + ca[:, k]
            denom = np.ones(len(active), dtype=complex)
            for k in range(n):
                if k != j:
                    denom = _cmul(denom, zj - za[:, k])
            denom[denom == 0] = 1e-300
            delta = -pj / denom
            zj = zj + delta
            za[:, j] = zj
            max_update = np.maximum(max_update, np.hypot(delta.real, delta.imag))
            floor = floor_scale * polyval(aa.T, np.hypot(zj.real, zj.imag))
            max_excess = np.maximum(max_excess, np.hypot(pj.real, pj.imag) - floor)
        z[active] = za
        active = active[~((max_update < DK_UPDATE_TOL) | (max_excess <= 0.0))]
    converged[active] = False
    return z, converged


def cluster_roots(z, monic) -> ComplexRootSet:
    """Merge Durand-Kerner approximations ``z`` of the roots of ``monic`` into
    multiplicity clusters.

    The merge tolerance starts at ``ROOT_CLUSTER_TOL`` and is widened tenfold
    up to ``ROOT_CLUSTER_MAX_TOL``; the clustering whose polished roots best
    reconstruct the polynomial wins.
    """
    best = None
    tol = ROOT_CLUSTER_TOL
    while tol <= ROOT_CLUSTER_MAX_TOL:
        roots, mults = _cluster_roots(z, tol, monic)
        rec = _poly_from_roots(roots, mults)
        err = float(np.max(np.abs(rec - monic))) / max(1.0, float(np.max(np.abs(monic))))
        if best is None or err < best[0]:
            best = (err, roots, mults)
        tol *= 10.0
    _, roots, mults = best
    return ComplexRootSet(roots, mults)


def poly_roots(coeffs, seed: int = 0) -> ComplexRootSet:
    """All roots of a polynomial, with multiplicities.

    ``coeffs`` is highest-degree-first.  This is the one-lane case of
    ``durand_kerner`` followed by ``cluster_roots``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if abs(coeffs[0]) <= 1e-14 * float(np.max(np.abs(coeffs))):
        raise ValueError("leading coefficient is negligible")
    monic = coeffs / coeffs[0]
    z, converged = durand_kerner(monic[None, :], seed)
    if not converged[0]:
        raise NonConvergenceError("Durand-Kerner hit the iteration cap")
    return cluster_roots(z[0], monic)
