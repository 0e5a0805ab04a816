"""The four benchmark workloads as lists of operations.

An operation is a plain dict so that it can travel to the worker process
as JSON:

* ``kind`` is ``"cli"`` (``odekit.cli.main(argv)`` run in-process) or
  ``"classify"`` (``odekit.classify_stability`` on a named method, which has
  no subcommand);
* ``argv`` holds ``{dir}`` where the worker puts the pass's output
  directory;
* ``files`` names the output files, ``check`` the check in ``checks.py``
  and ``params`` the sizes that check derives its tolerances from;
* ``known_fault`` marks an operation that fails on every call today
  because of a named fault in the program.

Every CLI operation gets the run's seed as ``--seed`` and every
classification gets it as ``seed``.  It drives odekit's randomised
internals: the Durand-Kerner starting points of the root-condition raster
and the difference-equation solver, and the classification probe set.
``solve`` and ``study`` accept the option and use no randomness, so the
seed changes no problem, step size or raster; every count except the
number of classification probes repeats exactly from seed to seed.
"""
from __future__ import annotations

WORKLOADS = ("explicit_march", "stiff_linear", "stiff_nonlinear", "stability_maps")

# classify_stability on the multi-stage explicit RK methods evaluates R(z)
# at z = -1e8, where lu_factor's relative pivot test rejects I - zA.
RK_TAIL_FAULT = "SingularMatrixError"

# Sizes for the measured runs and for the self-test ("tiny").
SIZES = {
    "full": {
        "euler_h": 1e-4, "dog_h": 1e-3, "ab4_h": 4e-4,
        "study_h": [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625], "ode12_tol": 1e-6,
        "mol_m": 40, "mol_h": 1e-3, "gauss2_h": 2e-3, "lam_h": 5e-4,
        "vdp_h": 1e-3, "vdp_t_end": 5.0, "rob_trbdf2_h": 2e-2, "rob_bdf3_h": 2e-3,
        "rk4_n": 100, "bdf3_n": 40, "locus_samples": 512, "diffeq_kmax": 40,
        # classify(bdf3) alone takes 15-18 s (its wedge bisection is fixed):
        # a pass holding it cannot be repeated within a run, so it is run
        # and checked once by selftest.py instead
        "classify": ("bdf2", "trap", "ieuler", "gauss2", "trbdf2", "heun", "rk2mid", "rk3", "rk4"),
    },
    "tiny": {
        "euler_h": 1e-3, "dog_h": 1e-2, "ab4_h": 1e-2,
        "study_h": [0.2, 0.1, 0.05], "ode12_tol": 1e-4,
        "mol_m": 10, "mol_h": 1e-2, "gauss2_h": 1e-2, "lam_h": 5e-3,
        "vdp_h": 2e-3, "vdp_t_end": 2.0, "rob_trbdf2_h": 5e-2, "rob_bdf3_h": 2e-3,
        "rk4_n": 20, "bdf3_n": 10, "locus_samples": 64, "diffeq_kmax": 10,
        "classify": ("bdf2", "trap", "ieuler", "gauss2", "trbdf2", "heun", "rk4"),
    },
}

# Raster window for bdf3: it holds the whole bounded instability region.
BDF3_BOUNDS = (-2.0, 8.0, -5.0, 5.0)

# expected verdicts: (A-stable, alpha in degrees or None, L-stable)
CLASSIFY_EXPECT = {
    "bdf3": (False, 86.03, None),
    "bdf2": (True, 90.0, None),
    "trap": (True, 90.0, False),
    "ieuler": (True, 90.0, True),
    "gauss2": (True, 90.0, False),
    "trbdf2": (True, 90.0, True),
    "heun": (False, 0.0, False),
    "rk2mid": (False, 0.0, False),
    "rk3": (False, 0.0, False),
    "rk4": (False, 0.0, False),
}


def _solve(op_id, problem, scheme, h, check, extra=(), **params):
    argv = ["solve", problem, scheme, "--h", repr(h), *extra, "--out", "{dir}/" + op_id + ".csv"]
    return {"id": op_id, "kind": "cli", "argv": argv, "files": {"out": op_id + ".csv"},
            "check": check, "params": {"h": h, **params}}


def _explicit_march(s):
    ode12 = {"id": "adapt_demo_ode12", "kind": "cli",
             "argv": ["solve", "adapt_demo", "ode12", "--tol", repr(s["ode12_tol"]),
                      "--out", "{dir}/adapt_demo_ode12.csv",
                      "--step-log", "{dir}/adapt_demo_ode12_steps.csv"],
             "files": {"out": "adapt_demo_ode12.csv", "step_log": "adapt_demo_ode12_steps.csv"},
             "check": "adapt_demo_ode12", "params": {"tol": s["ode12_tol"]}}
    hs = s["study_h"]
    study = {"id": "rational_rk4_study", "kind": "cli",
             "argv": ["study", "rational", "rk4", "--t-end", "2",
                      "--h-list", ",".join(repr(h) for h in hs),
                      "--out", "{dir}/rational_rk4_study.csv"],
             "files": {"out": "rational_rk4_study.csv"},
             "check": "rational_rk4_study", "params": {"h_list": hs}}
    return [
        _solve("decay_euler", "decay", "euler", s["euler_h"], "decay_euler"),
        _solve("dog_jogger_rk4", "dog_jogger", "rk4", s["dog_h"], "dog_jogger_rk4"),
        _solve("decay_ab4", "decay", "ab4", s["ab4_h"], "decay_ab4"),
        study,
        ode12,
    ]


def _stiff_linear(s):
    mol = ["--param", f"m={s['mol_m']}"]
    lam = ["--param", "lam=-1e4", "--param", "y0=1.5"]
    return [
        _solve("mol_bdf2", "mol_diffusion", "bdf2", s["mol_h"], "mol_diffusion", mol, m=s["mol_m"]),
        _solve("mol_trbdf2", "mol_diffusion", "trbdf2", s["mol_h"], "mol_diffusion", mol, m=s["mol_m"]),
        _solve("stiff_sys_B_gauss2", "stiff_sys_B", "gauss2", s["gauss2_h"], "stiff_sys_B"),
        _solve("lambda_cos_ieuler", "lambda_cos", "ieuler", s["lam_h"], "lambda_cos", lam,
               lam=-1e4, y0=1.5, method="ieuler"),
        _solve("lambda_cos_trap", "lambda_cos", "trap", s["lam_h"], "lambda_cos", lam,
               lam=-1e4, y0=1.5, method="trap"),
    ]


def _stiff_nonlinear(s):
    t40 = ["--t-end", "40"]
    return [
        _solve("vdp_trbdf2", "vdp", "trbdf2", s["vdp_h"], "vdp",
               ["--param", "mu=100", "--t-end", repr(s["vdp_t_end"])], mu=100.0, t_end=s["vdp_t_end"]),
        _solve("robertson_trbdf2", "robertson", "trbdf2", s["rob_trbdf2_h"], "robertson", t40),
        _solve("robertson_bdf3", "robertson", "bdf3", s["rob_bdf3_h"], "robertson", t40),
    ]


def _stability_maps(s):
    n1, n3 = s["rk4_n"], s["bdf3_n"]
    re0, re1, im0, im1 = BDF3_BOUNDS
    ops = [
        {"id": "stability_rk4", "kind": "cli",
         "argv": ["stability", "rk4", "--nx", str(n1), "--ny", str(n1),
                  "--out", "{dir}/stability_rk4.csv"],
         "files": {"out": "stability_rk4.csv"}, "check": "stability_rk4",
         "params": {"n": n1, "bounds": [-3.0, 1.0, -2.0, 2.0]}},
        {"id": "stability_bdf3_svg", "kind": "cli",
         "argv": ["stability", "bdf3", "--format", "svg", "--nx", str(n3), "--ny", str(n3),
                  f"--re-min={re0!r}", f"--re-max={re1!r}", f"--im-min={im0!r}", f"--im-max={im1!r}",
                  "--out", "{dir}/stability_bdf3.svg"],
         "files": {"out": "stability_bdf3.svg"}, "check": "stability_bdf3_svg",
         "params": {"n": n3, "bounds": list(BDF3_BOUNDS)}},
        {"id": "locus_ab3", "kind": "cli",
         "argv": ["locus", "ab3", "--samples", str(s["locus_samples"]),
                  "--out", "{dir}/locus_ab3.csv"],
         "files": {"out": "locus_ab3.csv"}, "check": "locus_ab3",
         "params": {"samples": s["locus_samples"]}},
        {"id": "diffeq", "kind": "cli",
         "argv": ["diffeq", "--coeffs=1,-5,6,4,-8", "--initial=-1,-7,-7,7",
                  "--kmax", str(s["diffeq_kmax"]), "--out", "{dir}/diffeq.txt"],
         "files": {"out": "diffeq.txt"}, "check": "diffeq",
         "params": {"coeffs": [1, -5, 6, 4, -8], "initial": [-1, -7, -7, 7],
                    "kmax": s["diffeq_kmax"]}},
    ]
    return ops + [classify_op(name) for name in s["classify"]]


def classify_op(name: str) -> dict:
    """``classify_stability`` on one named method, with its expected verdicts."""
    op = {"id": "classify_" + name, "kind": "classify", "method": name,
          "files": {}, "check": "classify", "params": {"expect": list(CLASSIFY_EXPECT[name])}}
    if name in ("heun", "rk2mid", "rk3", "rk4"):
        op["known_fault"] = RK_TAIL_FAULT
    return op


_OPS_OF = {
    "explicit_march": _explicit_march,
    "stiff_linear": _stiff_linear,
    "stiff_nonlinear": _stiff_nonlinear,
    "stability_maps": _stability_maps,
}


def build_ops(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The operation list of one pass."""
    if workload not in _OPS_OF:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    ops = _OPS_OF[workload](SIZES[size])
    for op in ops:
        if op["kind"] == "cli":
            op["argv"] += ["--seed", str(seed)]
        else:
            op["seed"] = seed
    return ops
