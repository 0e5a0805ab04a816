"""Quick self-test of the benchmark harness at tiny sizes (one to two minutes).

    python3 perfbench/selftest.py

1. Every check accepts odekit's real output and rejects the same output
   with one value corrupted, so no check passes vacuously.
2. Every workload runs end to end through the harness, untraced and
   traced, with ``correct`` true, only the known-fault operations failed,
   every metric present, and per-layer counts equal across two seeds.

Exits 0 when everything holds and 1 otherwise.
"""
from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# counts that must repeat exactly whatever the seed (classification probe
# counts depend on the seeded probe set, so stability_maps is left out)
EXACT_COUNTS = ("problems.rhs_calls", "problems.jac_calls", "steppers.implicit_iters",
                "multistep.corrector_iters", "adaptive.attempts", "adaptive.rejected_steps",
                "linalg.lu_factorizations")


def _scale_last_row(path, factor, first_col=1):
    lines = Path(path).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[first_col:] = [repr(float(c) * factor) for c in cells[first_col:]]
    lines[-1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _flip_cell_near(path, re_, im):
    lines = Path(path).read_text().splitlines()
    best = min(range(1, len(lines)), key=lambda i: abs(complex(*map(float, lines[i].split(",")[:2])) - complex(re_, im)))
    a, b, s = lines[best].split(",")
    lines[best] = f"{a},{b},{1 - int(s)}"
    Path(path).write_text("\n".join(lines) + "\n")


def _drop_first_member_rect(path):
    text = Path(path).read_text()
    marker = f'fill="{checks.SVG_MEMBER_FILL}"/>'
    end = text.index(marker) + len(marker)
    start = text.rindex("<rect", 0, end)
    Path(path).write_text(text[:start] + text[end + 1:])


def _bump_closed_form(path):
    lines = Path(path).read_text().splitlines()
    i = lines.index("k,closed_form,recurrence") + 3
    k, closed, rec = lines[i].split(",")
    lines[i] = f"{k},{float(closed) * (1 + 1e-6)!r},{rec}"
    Path(path).write_text("\n".join(lines) + "\n")


def _corrupt(op, files, rec):
    """Damage one value of an operation's output the way its check must notice."""
    check = op["check"]
    if check == "classify":
        rec["result"]["a_stable"] = not rec["result"]["a_stable"]
    elif check == "stability_rk4":
        _flip_cell_near(files["out"], -1.0, 0.0)
    elif check == "stability_bdf3_svg":
        _drop_first_member_rect(files["out"])
    elif check == "locus_ab3":
        _scale_last_row(files["out"], 1 + 1e-6)
    elif check == "diffeq":
        _bump_closed_form(files["out"])
    elif check == "rational_rk4_study":
        _scale_last_row(files["out"], 1.1, first_col=1)
    else:
        _scale_last_row(files["out"], 1.1)


def check_the_checks(failures):
    sys.path.insert(0, str(run.SRC))
    import odekit  # noqa: F401
    import odekit.cli  # noqa: F401
    import worker

    refs = checks.References(run.SRC)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.build_ops(workload, seed=1, size="tiny"):
                rec = worker._run_op(odekit, op, tmp)
                problems = checks.check_op(op, tmp, rec, refs)
                if op.get("known_fault"):
                    if not (problems and rec.get("error", "").startswith(op["known_fault"])):
                        failures.append(f"{op['id']}: expected {op['known_fault']}, got {rec}")
                    continue
                if problems:
                    failures.append(f"{op['id']}: real output rejected: {problems}")
                    continue
                if op["check"] in ("dog_jogger_rk4", "vdp"):
                    # the references used when scipy is missing
                    saved = {m: sys.modules.pop(m, None) for m in ("scipy", "scipy.integrate")}
                    sys.modules.update(dict.fromkeys(saved))
                    try:
                        problems = checks.check_op(op, tmp, rec, checks.References(run.SRC))
                    finally:
                        for m, mod in saved.items():
                            if mod is None:
                                sys.modules.pop(m)
                            else:
                                sys.modules[m] = mod
                    if problems:
                        failures.append(f"{op['id']}: rejected against the no-scipy reference: {problems}")
                files = {k: str(Path(tmp) / v) for k, v in op["files"].items()}
                _corrupt(op, files, rec)
                if not checks.check_op(op, tmp, rec, refs):
                    failures.append(f"{op['id']}: corrupted output accepted")
        # classify(bdf3) is too slow for the measured passes: it is run and
        # checked here once, and its wedge check is tried on two records
        bdf3 = {**workloads.classify_op("bdf3"), "seed": 1}
        problems = checks.check_op(bdf3, tmp, worker._run_op(odekit, bdf3, tmp), refs)
        if problems:
            failures.append(f"classify_bdf3: real output rejected: {problems}")
        for alpha, ok in ((85.8, True), (85.0, False)):
            rec = {"rc": 0, "result": {"a_stable": False, "alpha": math.radians(alpha), "l_stable": None}}
            if (checks.check_op(bdf3, tmp, rec, refs) == []) != ok:
                failures.append(f"classify bdf3 with alpha {alpha}: wrong verdict")


def check_the_harness(failures):
    for workload in workloads.WORKLOADS:
        known = sum(1 for op in workloads.build_ops(workload, 1, "tiny") if op.get("known_fault"))
        counts = []
        for seed, trace in ((1, 0), (1, 1), (2, 1)):
            res, _ = run.run(workload, seed, 0.0, trace, size="tiny")
            names = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            passes = res["attempted"] // len(workloads.build_ops(workload, seed, "tiny"))
            if not res["correct"] or res["failed"] != known * passes:
                failures.append(f"{workload} trace={trace}: {json.dumps(res)[:300]}")
            if set(res["metrics"]) != set(names):
                failures.append(f"{workload} trace={trace}: metrics {sorted(res['metrics'])}")
            if trace:
                counts.append({k: res["metrics"][k]["value"] for k in EXACT_COUNTS})
            elif not all(m["value"] > 0 for m in res["metrics"].values()):
                failures.append(f"{workload}: an end-to-end metric reads 0")
        if counts[0] != counts[1]:
            failures.append(f"{workload}: per-layer counts differ between seeds: {counts}")


def main():
    failures = []
    check_the_checks(failures)
    print(f"checks: {'ok' if not failures else 'FAILED'}", flush=True)
    n = len(failures)
    check_the_harness(failures)
    print(f"harness: {'ok' if len(failures) == n else 'FAILED'}", flush=True)
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
