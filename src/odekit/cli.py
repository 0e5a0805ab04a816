"""Command-line harness.

Subcommands: solve, study, stability, locus, stiffness, diffeq,
``problems list``.  Exit codes: 0 success, 2 usage error, 3 numerical
failure (divergence, non-convergence).
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import driver
from .core import IvpProblem, Trajectory
from .errors import (
    BadParamError,
    DivergenceError,
    MissingDerivativeError,
    MissingExactError,
    NonFiniteError,
    OdekitError,
    UnknownProblemError,
    UnsupportedSpectrumError,
)
from .linalg import eigen_decomposition
from .problems import get_problem, list_problems
from .stability import (
    DifferenceEquation,
    StabilityRegionRaster,
    boundary_locus,
    difference_recurrence,
    evaluate_difference_solution,
    raster_multistep,
    raster_one_step,
    solve_difference_equation,
    stiffness_ratio,
)
from .steppers import EULER, TABLEAUS, theta_by_name

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

_USAGE_EXCEPTIONS = (
    BadParamError,
    UnknownProblemError,
    MissingExactError,
    MissingDerivativeError,
    UnsupportedSpectrumError,
    ValueError,
)


@dataclass
class StudyReport:
    """Result of one convergence study: rows sorted by decreasing h."""

    problem: str
    method: str
    rows: list
    wall_time: float


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# CSV writers


def trajectory_csv(traj: Trajectory) -> str:
    dim = traj.states.shape[1]
    lines = ["t," + ",".join(f"y{i+1}" for i in range(dim))]
    row_fmt = ",".join(["%r"] * (dim + 1))  # %r formats as fmt does
    # row by row: a whole-trajectory tolist() would hold every value as a
    # Python float at once
    for t, row in zip(traj.times, traj.states):
        lines.append(row_fmt % (float(t), *row.tolist()))
    return "\n".join(lines) + "\n"


def study_csv(report: StudyReport) -> str:
    lines = ["h,abs_err,rel_err,order"]
    for r in report.rows:
        order = "-" if r.order is None else fmt(r.order)
        lines.append(",".join([fmt(r.h), fmt(r.abs_err), fmt(r.rel_err), order]))
    return "\n".join(lines) + "\n"


def step_log_csv(traj: Trajectory) -> str:
    lines = ["t,h,e,accepted"]
    for rec in traj.step_log or []:
        lines.append(f"{fmt(rec.t)},{fmt(rec.h)},{fmt(rec.e)},{1 if rec.accepted else 0}")
    return "\n".join(lines) + "\n"


def raster_csv(raster: StabilityRegionRaster) -> str:
    lines = ["re,im,stable"]
    res, ims = raster.grid_centers()
    xs = [fmt(re) for re in res]
    for im, row in zip(ims, raster.member.tolist()):
        y = fmt(im)
        lines.extend(f"{x},{y},{1 if m else 0}" for x, m in zip(xs, row))
    return "\n".join(lines) + "\n"


def locus_csv(points, samples: int) -> str:
    lines = ["theta,re,im"]
    for j, z in enumerate(points):
        if z is None:
            continue
        theta = 2.0 * math.pi * j / samples
        lines.append(f"{fmt(theta)},{fmt(z.real)},{fmt(z.imag)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG (self-contained, fixed 800x800 viewport, deterministic bytes)


def _svg_header():
    return ['<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
            'viewBox="0 0 800 800">',
            '<rect x="0" y="0" width="800" height="800" fill="white"/>']


def _to_px(x, lo, hi):
    """The pixel position of x on an axis from lo to hi, inf past the float
    range: on Python floats, which overflow without a warning."""
    return 800.0 * (float(x) - lo) / (hi - lo)


def _svg_axes(re_min, re_max, im_min, im_max) -> list:
    """The lines Re z = 0 and Im z = 0, each where it crosses the window."""
    lines = []
    if re_min < 0 < re_max:
        px = _to_px(0.0, re_min, re_max)
        lines.append(f'<line x1="{px:.4f}" y1="0" x2="{px:.4f}" y2="800" stroke="black"/>')
    if im_min < 0 < im_max:
        py = 800.0 - _to_px(0.0, im_min, im_max)
        lines.append(f'<line x1="0" y1="{py:.4f}" x2="800" y2="{py:.4f}" stroke="black"/>')
    return lines


def raster_svg(raster: StabilityRegionRaster, locus_points=None) -> str:
    parts = _svg_header()
    cw = 800.0 / raster.nx
    ch = 800.0 / raster.ny
    size = f'width="{cw:.4f}" height="{ch:.4f}"'
    xs = [f"{ix * cw:.4f}" for ix in range(raster.nx)]
    for iy, row in enumerate(raster.member.tolist()):
        y = f"{800.0 - (iy + 1) * ch:.4f}"
        parts.extend(f'<rect x="{x}" y="{y}" {size} fill="#9db8e8"/>' for x, m in zip(xs, row) if m)
    parts.extend(_svg_axes(raster.re_min, raster.re_max, raster.im_min, raster.im_max))
    if locus_points:
        parts.append(_locus_polyline(locus_points, raster.re_min, raster.re_max,
                                     raster.im_min, raster.im_max))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _locus_polyline(points, re_min, re_max, im_min, im_max) -> str:
    coords = []
    for z in points:
        if z is None:
            continue
        x = _to_px(z.real, re_min, re_max)
        y = 800.0 - _to_px(z.imag, im_min, im_max)
        for axis, px in (("re", x), ("im", y)):
            if not abs(px) < math.inf:
                raise ValueError(f"--{axis}-min and --{axis}-max: the window is too narrow "
                                 "for the boundary locus in the SVG's 800 pixels")
        coords.append(f"{x:.4f},{y:.4f}")
    return f'<polyline points="{" ".join(coords)}" fill="none" stroke="#c0392b" stroke-width="2"/>'


def locus_svg(points, bounds) -> str:
    parts = [*_svg_header(), *_svg_axes(*bounds), _locus_polyline(points, *bounds), "</svg>"]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# study table


def run_study_report(problem: IvpProblem, method: str, h_list, **kw) -> StudyReport:
    start = time.perf_counter()
    rows = driver.run_study(problem, method, h_list, **kw)
    return StudyReport(problem.name, method, rows, time.perf_counter() - start)


def study_ascii(report: StudyReport, problem: IvpProblem) -> str:
    """Fixed-width table; adds analytic error-bound columns for explicit
    Euler runs (``euler`` or ``theta:0``, both the EULER tableau) on the
    decay/growth benchmarks."""
    bounds = None
    b = problem.t_end - problem.t0
    euler = (theta_by_name(report.method) or TABLEAUS.get(report.method)) is EULER
    if euler and problem.name == "decay":
        bounds = [("0.5h(e^b-1)", lambda h: 0.5 * h * (math.exp(b) - 1.0)),
                  ("0.5bh", lambda h: 0.5 * b * h)]
    elif euler and problem.name == "growth":
        bounds = [("0.5h(e^b-1)|y''|", lambda h: 0.5 * h * (math.exp(b) - 1.0) * math.exp(b))]
    header = ["h", "y_N", "|e_N|", "|e_N|/|y(b)|", "order"]
    if bounds:
        header += [name for name, _ in bounds]
    lines = ["  ".join(f"{hcell:>14s}" for hcell in header)]
    for r in report.rows:
        yn = r.y_end[0] if len(r.y_end) == 1 else float(np.max(np.abs(r.y_end)))
        cells = [f"{r.h:.6g}", f"{yn:.4e}", f"{r.abs_err:.4e}", f"{r.rel_err:.4e}",
                 "-" if r.order is None else f"{r.order:.2f}"]
        if bounds:
            cells += [f"{fn(r.h):.4g}" for _, fn in bounds]
        lines.append("  ".join(f"{c:>14s}" for c in cells))
    lines.append(f"# {report.problem} / {report.method}  wall={report.wall_time:.3f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument helpers


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise BadParamError(f"--param expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError:
            params[key] = val
    return params


def _build_problem(args) -> IvpProblem:
    params = _parse_params(getattr(args, "param", None))
    if getattr(args, "t_end", None) is not None:
        params["t_end"] = args.t_end
    return get_problem(args.problem, **params)


def _write_out(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    problem = _build_problem(args)
    adaptive = driver.lookup(args.method).family == driver.ADAPTIVE
    if args.step_log is not None and not adaptive:
        raise ValueError("--step-log is only produced by an adaptive method")
    if args.tol is not None and not adaptive:
        raise ValueError("--tol applies only to an adaptive method")
    if args.h is not None and adaptive:
        raise ValueError("--h applies only to a fixed-step method")
    try:
        traj = driver.integrate(problem, args.method, h=args.h, tol=args.tol)
    except DivergenceError as exc:
        if exc.trajectory is not None:
            _write_out(trajectory_csv(exc.trajectory), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    _write_out(trajectory_csv(traj), args.out)
    if args.step_log is not None:
        with open(args.step_log, "w") as fh:
            fh.write(step_log_csv(traj))
    if traj.stats.diverged:
        print(f"error: run diverged at t={traj.stats.divergence_time:.6g}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


def cmd_study(args) -> int:
    problem = _build_problem(args)
    hs = _float_list(args.h_list)
    if len(hs) < 2:
        raise ValueError("--h-list needs at least two step sizes")
    if not all(0.0 < h < math.inf for h in hs):
        raise ValueError("--h-list entries must be positive and finite")
    for a, b in zip(hs, hs[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError("--h-list must decrease by factors of 2")
    report = run_study_report(problem, args.method, hs)
    if args.format == "ascii":
        _write_out(study_ascii(report, problem), args.out)
    else:
        _write_out(study_csv(report), args.out)
    return 0


def _bounds(args):
    """The raster window (re_min, re_max, im_min, im_max): finite, each
    axis's min below its max, and its width times the axis's cell count
    finite, so that no cell center overflows; for an SVG, also times its 800
    pixels, so that no pixel position in the window does."""
    for axis, cells in (("re", args.nx), ("im", args.ny)):
        lo, hi = getattr(args, f"{axis}_min"), getattr(args, f"{axis}_max")
        flags = f"--{axis}-min and --{axis}-max"
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{flags} must be finite")
        if not lo < hi:
            raise ValueError(f"{flags}: the min must be below the max")
        if not (hi - lo) * cells < math.inf:
            raise ValueError(f"{flags}: the window is too wide for its cell centers")
        if args.format == "svg" and not (hi - lo) * 800.0 < math.inf:
            raise ValueError(f"{flags}: the window is too wide for the SVG's 800 pixels")
    return (args.re_min, args.re_max, args.im_min, args.im_max)


def cmd_stability(args) -> int:
    kind, obj = driver.stability_object(args.method)
    if kind == "onestep":
        raster = raster_one_step(obj, _bounds(args), args.nx, args.ny)
        locus_points = None
    else:
        raster = raster_multistep(obj, _bounds(args), args.nx, args.ny, seed=args.seed)
        locus_points = boundary_locus(obj, 256)
    if args.format == "svg":
        _write_out(raster_svg(raster, locus_points), args.out)
    else:
        _write_out(raster_csv(raster), args.out)
    return 0


def cmd_locus(args) -> int:
    kind, obj = driver.stability_object(args.method)
    if kind != "multistep":
        raise ValueError("the boundary locus is defined for multistep methods")
    points = boundary_locus(obj, args.samples)
    if args.format == "svg":
        finite = [z for z in points if z is not None]
        pad = 1.0
        re_lo = min(z.real for z in finite) - pad
        re_hi = max(z.real for z in finite) + pad
        im_lo = min(z.imag for z in finite) - pad
        im_hi = max(z.imag for z in finite) + pad
        _write_out(locus_svg(points, (re_lo, re_hi, im_lo, im_hi)), args.out)
    else:
        _write_out(locus_csv(points, args.samples), args.out)
    return 0


def cmd_stiffness(args) -> int:
    problem = _build_problem(args)
    if problem.jacobian is None:
        raise ValueError(f"problem {problem.name!r} carries no Jacobian")
    t = problem.t0 if args.t is None else args.t
    if not math.isfinite(t):
        raise ValueError("--t must be finite")
    if args.y is not None:
        y = np.array(_float_list(args.y))
        if not np.isfinite(y).all():
            raise ValueError("--y entries must be finite")
        if len(y) != problem.dim:
            raise ValueError(f"--y needs {problem.dim} entries for {problem.name}, got {len(y)}")
    elif problem.exact is not None:
        y = problem.exact_at(t)
    else:
        y = problem.y0
    jac = np.asarray(problem.jacobian(t, y), dtype=float)
    if not np.isfinite(jac).all():
        raise NonFiniteError(f"Jacobian of {problem.name} is not finite at this state")
    eigs = eigen_decomposition(jac).eigenvalues
    ratio = stiffness_ratio(eigs)
    lines = [f"problem: {problem.name}", f"t: {fmt(t)}"]
    for lam in eigs:
        lines.append(f"eigenvalue: {fmt(lam.real)}{lam.imag:+g}j")
    lines.append(f"stiffness_ratio: {'inf' if math.isinf(ratio) else fmt(ratio)}")
    if np.all(eigs.real < 0):
        # |1 + h lam| <= 1 up to h = -2 Re lam / |lam|^2
        bound = min(-2.0 * (lam.real / abs(lam)) / abs(lam) for lam in map(complex, eigs))
        lines.append(f"euler_step_bound: {fmt(bound)}")
    if "dx" in problem.meta:
        dx = problem.meta["dx"]
        lines.append(f"half_dx_squared: {fmt(0.5 * dx * dx)}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_diffeq(args) -> int:
    coeffs = _float_list(args.coeffs)
    initial = _float_list(args.initial)
    eq = DifferenceEquation(np.array(coeffs), np.array(initial))
    sol = solve_difference_equation(eq, seed=args.seed)
    lines = []
    for r, m, betas in zip(sol.roots.roots, sol.roots.multiplicities, sol.beta):
        lines.append(f"root: {fmt(r.real)}{r.imag:+g}j multiplicity {int(m)}")
        for power, b in enumerate(betas):
            lines.append(f"  beta[k^{power}]: {fmt(b.real)}{b.imag:+g}j")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value stops the run
        rec = difference_recurrence(eq, args.kmax)
        closed_forms = [evaluate_difference_solution(sol, k) for k in range(args.kmax + 1)]
    worst = 0.0
    lines.append("k,closed_form,recurrence")
    for k, closed in enumerate(closed_forms):
        if not (math.isfinite(closed) and math.isfinite(rec[k])):
            raise NonFiniteError(f"the solution is not finite at k={k}: closed form "
                                 f"{fmt(closed)}, recurrence {fmt(rec[k])}")
        worst = max(worst, abs(closed - rec[k]) / max(1.0, abs(rec[k])))
        lines.append(f"{k},{fmt(closed)},{fmt(rec[k])}")
    lines.append(f"max_rel_discrepancy: {fmt(worst)}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_problems(args) -> int:
    if args.action != "list":
        raise ValueError("supported: problems list")
    lines = []
    for entry in list_problems():
        tags = ",".join(sorted(entry.tags))
        lines.append(f"{entry.key:16s} [{tags}] {entry.notes}  (params: {entry.params})")
    _write_out("\n".join(lines) + "\n", getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odekit",
        description="ODE integrators, convergence studies, and stability analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, fmt_choices=("csv",)):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--seed", type=int, default=0, help="seed for randomized internals")

    p = sub.add_parser("solve", help="integrate one problem and dump t,y CSV")
    p.add_argument("problem")
    p.add_argument("method", help=", ".join([*driver.METHODS, "theta:<v> (0 <= v <= 1)"]))
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--param", action="append", help="problem parameter name=value")
    p.add_argument("--step-log", default=None,
                   help="also dump the adaptive attempt log (t,h,e,accepted) to this path")
    add_shared(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("study", help="convergence study over a halving h list")
    p.add_argument("problem")
    p.add_argument("method")
    p.add_argument("--h-list", required=True, help="comma separated, halving")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--param", action="append")
    add_shared(p, ("csv", "ascii"))
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser("stability", help="absolute stability region raster")
    p.add_argument("method")
    p.add_argument("--re-min", type=float, default=-3.0)
    p.add_argument("--re-max", type=float, default=1.0)
    p.add_argument("--im-min", type=float, default=-2.0)
    p.add_argument("--im-max", type=float, default=2.0)
    p.add_argument("--nx", type=int, default=200)
    p.add_argument("--ny", type=int, default=200)
    add_shared(p, ("csv", "svg"))
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("locus", help="multistep boundary locus")
    p.add_argument("method")
    p.add_argument("--samples", type=int, default=256)
    add_shared(p, ("csv", "svg"))
    p.set_defaults(fn=cmd_locus)

    p = sub.add_parser("stiffness", help="Jacobian spectrum and stiffness ratio")
    p.add_argument("problem")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--y", default=None, help="comma separated state (default: exact(t) or y0)")
    p.add_argument("--param", action="append")
    add_shared(p)
    p.set_defaults(fn=cmd_stiffness)

    p = sub.add_parser("diffeq", help="solve a linear difference equation")
    p.add_argument("--coeffs", required=True, help="c_p..c_0, highest first")
    p.add_argument("--initial", required=True, help="y_0..y_{p-1}")
    p.add_argument("--kmax", type=int, default=10)
    add_shared(p)
    p.set_defaults(fn=cmd_diffeq)

    p = sub.add_parser("problems", help="catalog operations")
    p.add_argument("action", choices=["list"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_problems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except _USAGE_EXCEPTIONS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OdekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
