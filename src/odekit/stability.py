"""Absolute-stability machinery: region rasters, the multistep boundary
locus, root-condition tests, A/A(alpha)/L classification, the stiffness
ratio, and a closed-form solver for linear difference equations.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import core, linalg
from .errors import NonConvergenceError, SingularMatrixError
from .linalg import lu_solve  # noqa: F401  (module attribute wrapped by perfbench/tracing.py)
from .linalg import (
    ROOT_CLUSTER_MAX_TOL,
    ComplexRootSet,
    cluster_roots,
    durand_kerner,
    lu_solve_factored,
    mat_norm_inf,
    poly_roots,
    vec_norm_inf,
)
from .multistep import MultistepMethod

ROOT_CONDITION_BAND = 1e-9


@dataclass
class StabilityRegionRaster:
    """|R(z)| <= 1 (or root-condition) membership sampled at cell centers.

    ``failed`` counts the cells whose probe could not be evaluated (a pole
    of R, a vanishing leading characteristic coefficient, or a root finder
    that did not converge); such cells are non-members.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    member: np.ndarray  # shape (ny, nx), row iy sweeps the imaginary axis
    failed: int = 0

    def grid_centers(self):
        res = self.re_min + (np.arange(self.nx) + 0.5) * (self.re_max - self.re_min) / self.nx
        ims = self.im_min + (np.arange(self.ny) + 0.5) * (self.im_max - self.im_min) / self.ny
        return res, ims


def _empty_raster(bounds, nx: int, ny: int):
    """A raster with no members, and its cell centers as an (ny, nx) array of z."""
    re_min, re_max, im_min, im_max = bounds
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 per axis")
    core.check_sample_cap("raster", nx, ny)
    raster = StabilityRegionRaster(re_min, re_max, im_min, im_max, nx, ny,
                                   np.zeros((ny, nx), dtype=bool))
    res, ims = raster.grid_centers()
    z = np.empty((ny, nx), dtype=complex)
    z.real = res
    z.imag = ims[:, None]
    return raster, z


def _r_magnitude(r_func, zs):
    """|R(z)| for an array of z; non-finite where R has a pole or overflows."""
    with np.errstate(all="ignore"):
        return np.abs(np.asarray(r_func(zs), dtype=complex))


def raster_one_step(r_func: Callable, bounds, nx: int, ny: int) -> StabilityRegionRaster:
    """Evaluate |R(z)| <= 1 on an nx-by-ny grid of cell centers.

    ``r_func`` maps a numpy array of z to R(z) elementwise.  ``bounds`` is
    (re_min, re_max, im_min, im_max).  Cells where R is not finite (poles)
    are non-members and count as failed.
    """
    raster, z = _empty_raster(bounds, nx, ny)
    mag = _r_magnitude(r_func, z)
    raster.member[:] = mag <= 1.0
    raster.failed = int(np.count_nonzero(~np.isfinite(mag)))
    return raster


def raster_multistep(method: MultistepMethod, bounds, nx: int, ny: int, seed: int = 0) -> StabilityRegionRaster:
    """Root-condition membership raster for a multistep method."""
    raster, z = _empty_raster(bounds, nx, ny)
    stable, failed = root_condition(method, z, seed=seed)
    raster.member[:] = stable
    raster.failed = int(np.count_nonzero(failed))
    return raster


def boundary_locus(method: MultistepMethod, samples: int):
    """z(theta) = rho(e^{i theta}) / sigma(e^{i theta}) at theta = 2*pi*j/samples.

    rho and sigma are evaluated by Horner's rule on the whole grid at once.
    Sample points where |sigma| <= 1e-12 max|b| are reported as None gaps.
    """
    if samples < 8:
        raise ValueError("need at least 8 samples")
    core.check_sample_cap("locus", samples)
    scale = max(1e-300, float(np.max(np.abs(method.b))))
    r = np.exp(1j * (2.0 * math.pi * np.arange(samples) / samples))
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = method.sigma(r)
        z = method.rho(r) / sig
        gap = np.abs(sig) <= 1e-12 * scale
    return [None if g else v for g, v in zip(gap.tolist(), z)]


def _leading_vanishes(coeffs) -> np.ndarray:
    """Per row of characteristic coefficients: the leading one is negligible."""
    lead = np.abs(coeffs[:, 0])
    return (lead <= 1e-14) | (lead <= 1e-14 * np.max(np.abs(coeffs), axis=1))


def _roots_satisfy_condition(roots: ComplexRootSet) -> bool:
    """|r| <= 1 for simple roots, |r| < 1 for multiple (within the band)."""
    for r, m in zip(roots.roots, roots.multiplicities):
        mag = abs(r)
        if m == 1:
            if mag > 1.0 + ROOT_CONDITION_BAND:
                return False
        else:
            if mag >= 1.0 - ROOT_CONDITION_BAND:
                return False
    return True


def root_condition(method: MultistepMethod, zs, seed: int = 0):
    """Root-condition verdicts for an array of z at once.

    Returns boolean arrays ``(stable, failed)`` shaped like ``zs``.  A probe
    fails, and is not stable, when its leading characteristic coefficient
    vanishes or its Durand-Kerner lane hits the iteration cap.  A lane whose
    roots all lie farther than ``ROOT_CLUSTER_MAX_TOL`` from the unit circle
    cannot change its verdict by clustering, so it is stable exactly when
    every root has |r| < 1; only lanes with a root nearer the circle are
    clustered into multiplicities and polished, as ``poly_roots`` does.
    """
    zs = np.asarray(zs, dtype=complex)
    coeffs = method.characteristic_coeffs(zs.ravel())
    stable = np.zeros(len(coeffs), dtype=bool)
    failed = _leading_vanishes(coeffs)
    lanes = np.flatnonzero(~failed)
    monic = coeffs[lanes] / coeffs[lanes, :1]
    roots, converged = durand_kerner(monic, seed)
    failed[lanes[~converged]] = True
    mod = np.abs(roots)
    stable[lanes] = converged & np.all(mod < 1.0, axis=1)
    near = converged & np.any(np.abs(mod - 1.0) <= ROOT_CLUSTER_MAX_TOL, axis=1)
    for i in np.flatnonzero(near):
        stable[lanes[i]] = _roots_satisfy_condition(cluster_roots(roots[i], monic[i]))
    return stable.reshape(zs.shape), failed.reshape(zs.shape)


def is_abs_stable(method: MultistepMethod, z: complex, seed: int = 0) -> bool:
    """Root condition at z: |r| <= 1 for simple roots, |r| < 1 for multiple.

    The one-z case of ``root_condition``; a failed probe raises.
    """
    stable, failed = root_condition(method, np.array([z]), seed=seed)
    if failed[0]:
        if _leading_vanishes(method.characteristic_coeffs(np.array([z])))[0]:
            raise ValueError("leading characteristic coefficient vanishes at this z")
        raise NonConvergenceError("Durand-Kerner hit the iteration cap")
    return bool(stable[0])


@dataclass
class StabilityClassification:
    """Sampled stability verdicts; ``sampled`` flags that no proof is implied.

    ``failed_probes`` counts probe evaluations that failed (see
    ``StabilityRegionRaster``), at z = -1 for a multistep method; a failed
    probe counts as unstable.
    """

    a_stable: bool
    alpha: float                 # wedge half-angle, radians
    l_stable: Optional[bool]     # None when no one-step R(z) is available
    sampled: bool = True
    failed_probes: int = 0


def _classify_multistep(method: MultistepMethod, seed: int) -> StabilityClassification:
    """A(alpha) read off the boundary locus, confirmed at z = -1.

    alpha is the least |arg(-z)| over the finite locus points
    z(theta) = rho(e^{i theta}) / sigma(e^{i theta}) with Re z < 0, theta on
    a 4096-point grid of (0, pi] (conjugate symmetry covers the rest), and
    pi/2 when there is none.  The band of 1e-12 |z| keeps out loci that lie
    on the imaginary axis in exact arithmetic (am1).  If the root condition
    fails at z = -1, the wedge lies outside the region (leapfrog): alpha = 0.
    """
    w = np.exp(1j * np.linspace(0.0, math.pi, 4097)[1:])
    w[-1] = -1.0  # exact, so that a bounded region gives alpha = 0.0 exactly
    with np.errstate(divide="ignore", invalid="ignore"):
        z = method.rho(w) / method.sigma(w)
    left = z[np.isfinite(z) & (z.real < -1e-12 * np.abs(z))]
    alpha = float(np.min(np.abs(np.angle(-left)))) if left.size else math.pi / 2.0
    stable, failed = root_condition(method, np.array([-1.0 + 0.0j]), seed=seed)
    if not stable[0]:
        alpha = 0.0
    return StabilityClassification(alpha == math.pi / 2.0, alpha, None,
                                   failed_probes=int(failed[0]))


def classify_stability(obj, seed: int = 0) -> StabilityClassification:
    """A-, A(alpha)- and L-stability verdicts.

    ``obj`` is either a one-step stability function R(z), which must accept
    numpy arrays, or a MultistepMethod.  A multistep method's alpha comes
    from its boundary locus (see ``_classify_multistep``); ``seed`` drives
    only the root finder's starts at the confirming point.  A one-step R is
    A-stable when |R(z)| <= 1 on a fan of 64 rays up to the imaginary axis
    (radii 1e-2..1e6); otherwise alpha is estimated by bisection on the fan's
    half-angle, to half a degree.  L-stability additionally requires
    |R(z)| -> 0 along the negative real axis.  Each fan is evaluated as one
    array.
    """
    if isinstance(obj, MultistepMethod):
        return _classify_multistep(obj, seed)
    r_func = obj
    failed = 0

    def stable(zs):
        nonlocal failed
        mag = _r_magnitude(r_func, zs)
        failed += int(np.count_nonzero(~np.isfinite(mag)))
        return mag <= 1.0 + ROOT_CONDITION_BAND

    radii = 10.0 ** np.linspace(-2.0, 6.0, 17)
    fracs = np.linspace(1.0 / 64.0, 1.0, 64)

    def wedge_ok(phi: float) -> bool:
        rays = np.array([complex(math.cos(ang), math.sin(ang)) for ang in math.pi - fracs * phi])
        fan = rays[:, None] * radii
        return bool(np.all(stable(np.concatenate([fan, fan.conj()], axis=None))))

    half_deg = math.radians(0.5)
    lo, hi = 0.0, math.pi / 2.0
    a_stable = wedge_ok(hi - 1e-9)
    if a_stable:
        lo = hi
    elif wedge_ok(half_deg):
        lo = half_deg
        while hi - lo > half_deg:
            mid = 0.5 * (lo + hi)
            if wedge_ok(mid):
                lo = mid
            else:
                hi = mid
    alpha = lo

    tail = _r_magnitude(r_func, np.array([complex(-(10.0 ** k), 0.0) for k in range(2, 9)]))
    failed += int(np.count_nonzero(~np.isfinite(tail)))
    l_stable = bool(a_stable and tail[-1] < 1e-2 and tail[-1] <= tail[0])
    return StabilityClassification(a_stable, alpha, l_stable, failed_probes=failed)


def stiffness_ratio(eigs) -> float:
    """max|Re lambda| / min|Re lambda|; inf when the minimum vanishes."""
    eigs = np.atleast_1d(np.asarray(eigs, dtype=complex))
    if eigs.size == 0:
        raise ValueError("need at least one eigenvalue")
    res = np.abs(eigs.real)
    if float(np.min(res)) < 1e-14:
        return math.inf
    return float(np.max(res) / np.min(res))


# ---------------------------------------------------------------------------
# linear difference equations


@dataclass
class DifferenceEquation:
    """Homogeneous recurrence c_p y_k + c_{p-1} y_{k-1} + ... + c_0 y_{k-p} = 0.

    ``c`` is highest-index-first (c_p .. c_0); ``initial`` holds
    y_0 .. y_{p-1}.
    """

    c: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if len(self.c) < 2:
            raise ValueError("order must be at least 1")
        if abs(self.c[0]) <= 1e-14 * float(np.max(np.abs(self.c))):
            raise ValueError("leading coefficient must be nonzero")
        if len(self.initial) != len(self.c) - 1:
            raise ValueError("need exactly p initial values for an order-p recurrence")

    @property
    def order(self) -> int:
        return len(self.c) - 1


@dataclass
class DifferenceSolution:
    """Closed form y_k = sum_j [beta_j0 + k beta_j1 + ...] r_j^k."""

    roots: ComplexRootSet
    beta: list
    equation: DifferenceEquation
    reconstruction_error: float = 0.0


def difference_recurrence(eq: DifferenceEquation, k_max: int) -> np.ndarray:
    """Forward evaluation of the recurrence up to index k_max."""
    core.check_sample_cap("recurrence", k_max + 1)
    p = eq.order
    ys = list(eq.initial)
    for k in range(p, k_max + 1):
        acc = 0.0
        for j in range(1, p + 1):
            acc += eq.c[j] * ys[k - j]
        ys.append(-acc / eq.c[0])
    return np.asarray(ys[: k_max + 1])


def solve_difference_equation(eq: DifferenceEquation, seed: int = 0) -> DifferenceSolution:
    """Characteristic roots plus coefficients fitted to the initial values.

    Multiple roots contribute the polynomial-times-power basis
    r^k, k r^k, ..., k^(m-1) r^k; the coefficients come from the resulting
    confluent Vandermonde system.
    """
    p = eq.order
    roots = poly_roots(eq.c.astype(complex), seed=seed)
    cols = []
    for r, m in zip(roots.roots, roots.multiplicities):
        for power in range(int(m)):
            col = np.array(
                [(k ** power if power else 1.0) * r ** k for k in range(p)],
                dtype=complex,
            )
            cols.append(col)
    m_matrix = np.column_stack(cols)
    factors = linalg.lu_factor(m_matrix)
    inverse = lu_solve_factored(factors, np.eye(p, dtype=complex))
    cond = mat_norm_inf(m_matrix) * mat_norm_inf(inverse)
    if cond > 1e10:
        warnings.warn(f"confluent Vandermonde condition estimate {cond:.2e}", stacklevel=2)
    beta_flat = lu_solve_factored(factors, eq.initial.astype(complex))
    # one refinement step on the exact residual: the closed form scales beta_j
    # by r_j^k, so a vanishing beta_j must be 0 to u |correction|, not u |beta|
    frac = np.vectorize(Fraction, otypes=[object])
    mr, mi, br, bi = map(frac, (m_matrix.real, m_matrix.imag, beta_flat.real, beta_flat.imag))
    resid_re = (frac(eq.initial) - (mr @ br - mi @ bi)).astype(float)
    resid = resid_re - 1j * (mr @ bi + mi @ br).astype(float)
    beta_flat += lu_solve_factored(factors, resid)
    beta = []
    pos = 0
    for m in roots.multiplicities:
        beta.append(np.array(beta_flat[pos: pos + int(m)]))
        pos += int(m)
    sol = DifferenceSolution(roots, beta, eq)
    scale = max(1e-300, vec_norm_inf(eq.initial))
    worst = max(
        abs(evaluate_difference_solution(sol, k) - eq.initial[k]) for k in range(p)
    )
    sol.reconstruction_error = worst / scale
    if sol.reconstruction_error > 1e-8:
        raise SingularMatrixError(
            f"closed form reproduces the initial values only to {sol.reconstruction_error:.2e}"
        )
    return sol


def evaluate_difference_solution(sol: DifferenceSolution, k: int) -> float:
    """Real part of the closed form at index k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = 0.0 + 0.0j
    for r, betas in zip(sol.roots.roots, sol.beta):
        poly = sum(b * (k ** power if power else 1.0) for power, b in enumerate(betas))
        acc += poly * r ** k
    return acc.real
