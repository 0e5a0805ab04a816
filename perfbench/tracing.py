"""Per-layer tracing of odekit from outside the program.

``install`` replaces public functions at the module attributes through
which odekit calls them with wrappers that record a span (name, start,
end, parent) per call.  Nothing under ``src/`` is edited, and
``uninstall`` puts the originals back, so the same process can run
untraced and traced passes.  Span names are ``<layer>.<what>``; the layers
are odekit's modules.

Spans are kept in flat arrays while a pass runs.  A layer's self time is
its spans' durations minus the part covered by their child spans; steps,
probes and bytes written are the denominators of the rates.
"""
from __future__ import annotations

import time
from array import array

import numpy as np


def _trajectory_counts(traj):
    """(steps, implicit iterations, adaptive attempts, rejected steps)."""
    return (len(traj.times) - 1, traj.stats.implicit_iters,
            len(traj.step_log or ()), traj.stats.rejected_steps)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.err = bytearray()
        self.results: list[tuple[int, tuple]] = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        """Drop the spans of the pass just summarised (arrays are reused)."""
        for buf in (self.name, self.parent, self.start, self.end, self.err):
            del buf[:]
        self.results.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` wrapped in a span; ``counts`` maps its return value to a
        tuple kept alongside the spans (used for Trajectory statistics)."""
        nid = self.name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends, errs = self.name, self.parent, self.start, self.end, self.err
        stack, results = self._stack, self.results

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            errs.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errs[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if counts is not None:
                results.append((nid, counts(out)))
            return out

        return traced

    def arrays(self) -> dict:
        """The current pass's spans as numpy arrays (for saving)."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "err": np.frombuffer(bytes(self.err), dtype=np.uint8).copy(),
        }


def install(tracer: Tracer) -> list:
    """Wrap odekit's layer boundaries; returns the patch list for ``uninstall``."""
    import odekit
    from odekit import adaptive, cli, core, driver, linalg, multistep, problems, stability, steppers

    patches = []

    def patch(mod, attr, new):
        patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def wrap(mod, attr, name, counts=None):
        patch(mod, attr, tracer.wrap(name, getattr(mod, attr), counts))

    # problems: the user's rhs and Jacobian of every problem the CLI builds
    build_problem = cli.get_problem

    def get_problem(key, **params):
        problem = build_problem(key, **params)
        problem.rhs = tracer.wrap("problems.rhs", problem.rhs)
        if problem.jacobian is not None:
            problem.jacobian = tracer.wrap("problems.jac", problem.jacobian)
        return problem

    patch(cli, "get_problem", get_problem)

    # core: the fixed-grid march loop and the counting rhs wrapper
    wrap(driver, "march", "core.march", _trajectory_counts)
    counting = core.CountingRhs
    traced_counting = type("CountingRhs", (counting,),
                           {"__call__": tracer.wrap("core.rhs_wrapper", counting.__call__)})
    for mod in (core, multistep, adaptive):
        patch(mod, "CountingRhs", traced_counting)

    # steppers: every Stepper built for a march or a multistep bootstrap
    for mod in (steppers, multistep):
        def make_stepper(name, problem=None, cfg=None, _make=mod.make_stepper):
            stepper = _make(name, problem, cfg)
            stepper.advance = tracer.wrap("steppers.advance", stepper.advance)
            return stepper
        patch(mod, "make_stepper", make_stepper)

    wrap(multistep, "multistep_march", "multistep.march", _trajectory_counts)
    wrap(driver, "ode12_solve", "adaptive.ode12", _trajectory_counts)

    # linalg: factorizations, solves and polynomial roots
    wrap(linalg, "lu_factor", "linalg.lu_factor")
    for mod in (linalg, steppers, multistep, stability, problems):
        wrap(mod, "lu_solve", "linalg.lu_solve")
    wrap(stability, "poly_roots", "linalg.poly_roots")

    # stability: rasters, probes (R(z) calls and root-condition tests),
    # classification, locus, difference equations
    wrap(cli, "raster_one_step", "stability.raster")
    wrap(cli, "raster_multistep", "stability.raster")
    wrap(cli, "boundary_locus", "stability.locus")
    wrap(cli, "solve_difference_equation", "stability.diffeq")
    wrap(stability, "is_abs_stable", "stability.probe")
    wrap(odekit, "classify_stability", "stability.classify")
    stability_function = driver.stability_function

    def traced_stability_function(name):
        r_func = stability_function(name)
        return None if r_func is None else tracer.wrap("stability.probe", r_func)

    patch(driver, "stability_function", tracer.wrap("driver.dispatch", traced_stability_function))

    # driver: name dispatch and the study loop
    for attr in ("integrate", "run_study", "stability_object"):
        wrap(driver, attr, "driver.dispatch")

    # cli: CSV/SVG formatting and writing
    for attr in ("trajectory_csv", "study_csv", "step_log_csv", "raster_csv",
                 "raster_svg", "locus_csv", "locus_svg", "_write_out"):
        wrap(cli, attr, "cli.emit")
    return patches


def uninstall(patches: list):
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


def _div(a, b):
    return a / b if b else 0.0


def pass_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Every per-layer metric for the spans of one pass."""
    k = len(tracer.names)
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    count = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_t, minlength=k)
    errs = np.bincount(name, weights=a["err"], minlength=k)

    def ids(label):
        return tracer._ids.get(label)

    def c(label):
        i = ids(label)
        return int(count[i]) if i is not None else 0

    def t_incl(label):
        i = ids(label)
        return float(incl[i]) if i is not None else 0.0

    def t_self(label):
        i = ids(label)
        return float(own[i]) if i is not None else 0.0

    # LU time: every lu_solve (with its factorization) plus bare lu_factor calls
    lu_s = t_incl("linalg.lu_solve")
    f_id, s_id = ids("linalg.lu_factor"), ids("linalg.lu_solve")
    if f_id is not None:
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        bare = (name == f_id) & (parent_name != (s_id if s_id is not None else -2))
        lu_s += float(dur[bare].sum())

    totals = {}
    for nid, counts in tracer.results:
        acc = totals.setdefault(tracer.names[nid], [0, 0, 0, 0])
        for j, v in enumerate(counts):
            acc[j] += v
    march = totals.get("core.march", [0, 0, 0, 0])
    ms = totals.get("multistep.march", [0, 0, 0, 0])
    ada = totals.get("adaptive.ode12", [0, 0, 0, 0])
    ode_steps = march[0] + ms[0]
    all_steps = ode_steps + ada[2]
    probes = c("stability.probe")
    stab_s = t_incl("stability.raster") + t_incl("stability.classify")
    lus = c("linalg.lu_factor")
    return {
        "problems.rhs_calls": c("problems.rhs"),
        "problems.rhs_s": t_incl("problems.rhs"),
        "problems.jac_calls": c("problems.jac"),
        "problems.jac_s": t_incl("problems.jac"),
        "core.march_s": t_incl("core.march"),
        "core.us_per_step": _div(t_incl("core.march"), march[0]) * 1e6,
        "core.bookkeeping_us_per_step":
            _div(t_self("core.march") + t_self("core.rhs_wrapper"), all_steps) * 1e6,
        "steppers.self_us_per_step": _div(t_self("steppers.advance"), c("steppers.advance")) * 1e6,
        "steppers.implicit_iters": march[1],
        "steppers.iters_per_step": _div(march[1], march[0]),
        "multistep.self_us_per_step": _div(t_self("multistep.march"), ms[0]) * 1e6,
        "multistep.corrector_iters": ms[1],
        "adaptive.attempts": ada[2],
        "adaptive.rejected_steps": ada[3],
        "linalg.lu_factorizations": lus,
        "linalg.lu_per_step": _div(lus, ode_steps),
        "linalg.lu_s": lu_s,
        "linalg.lu_us_per_call": _div(lu_s, lus) * 1e6,
        "linalg.poly_roots_s": t_incl("linalg.poly_roots"),
        "linalg.poly_roots_us_per_call": _div(t_incl("linalg.poly_roots"), c("linalg.poly_roots")) * 1e6,
        "stability.ms_per_10k_probes": _div(stab_s, probes) * 1e7,
        "stability.raster_s": t_incl("stability.raster"),
        "stability.classify_s": t_incl("stability.classify"),
        "stability.failed_probes": int(errs[ids("stability.probe")]) if probes else 0,
        "driver.dispatch_s": t_self("driver.dispatch"),
        "cli.emit_s": t_incl("cli.emit"),
        "cli.emit_ns_per_byte": _div(t_incl("cli.emit"), bytes_written) * 1e9,
    }
