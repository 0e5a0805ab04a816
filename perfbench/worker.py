"""Benchmark worker: one fresh, single-threaded interpreter per run.

    python3 worker.py --src <checkout>/src [--job job.json]

It imports odekit from ``--src``, builds the CLI parser and prints
``ready``; the parent times set-up as the span from spawning this process
to that line.  Without ``--job`` it exits there.  With a job it runs one
untimed warm-up pass and then timed passes of the job's operations, one
after another (a closed loop with one caller), and writes the results as
JSON.  Untraced passes also time reference_kernel() at even intervals, so
that the parent can scale their times to a fixed machine speed.  Output checks run in the parent, so they add nothing to this
process's time or memory.
"""
import argparse
import os
import signal
import sys
import time

# one reference-kernel sample every this many seconds of a timed pass (about
# 5% of the pass at the kernel's ~6.5 ms)
PROBE_PERIOD_S = 0.125


def _setup(src):
    sys.path.insert(0, src)
    import odekit
    import odekit.cli

    odekit.cli.build_parser()
    if not os.path.abspath(odekit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"odekit was imported from {odekit.__file__}, not from {src}")
    return odekit


def _run_op(odekit, op, out_dir):
    """Run one operation; returns a record of what happened (no timing)."""
    rec = {"id": op["id"]}
    try:
        if op["kind"] == "cli":
            argv = [a.replace("{dir}", out_dir) for a in op["argv"]]
            rec["rc"] = odekit.cli.main(argv)
        else:
            _, obj = odekit.driver.stability_object(op["method"])
            c = odekit.classify_stability(obj, seed=op["seed"])
            rec["rc"] = 0
            rec["result"] = {"a_stable": bool(c.a_stable), "alpha": float(c.alpha),
                             "l_stable": c.l_stable}
    except Exception as exc:  # an operation's failure is recorded, not fatal
        rec["rc"] = None
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def reference_kernel():
    """Fixed work that uses no odekit code, timed to gauge the machine's speed.

    It is made of what odekit's operations are made of: interpreted loops
    over small numpy arrays (an RK4 march of a 2-D rotation) and scalar
    float arithmetic.  It takes about 6.5 ms on the machine in README.md.
    """
    import numpy as np

    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y, h, s = np.array([1.0, 0.0]), 1e-3, 0.0
    for _ in range(250):
        k1 = rot @ y
        k2 = rot @ (y + 0.5 * h * k1)
        k3 = rot @ (y + 0.5 * h * k2)
        k4 = rot @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for j in range(20):
            s = s * 0.999 + abs(y[0] - j * 1e-3)
    return s


def _run_pass(odekit, ops, out_dir, probe=True):
    """Run every operation once.

    With ``probe``, reference_kernel() runs at the start of the pass and then
    every PROBE_PERIOD_S seconds from a SIGALRM handler, so that its samples
    spread evenly over the pass.  Returns the pass's wall time less those
    samples, their mean time (None without ``probe``) and the operation
    records.
    """
    os.makedirs(out_dir, exist_ok=True)
    clock = time.perf_counter
    samples = []

    def sample(*_):
        t0 = clock()
        reference_kernel()
        samples.append(clock() - t0)

    records = []
    t0 = clock()
    if probe:
        sample()
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        for op in ops:
            records.append(_run_op(odekit, op, out_dir))
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
    wall = clock() - t0 - sum(samples)
    return wall, (sum(samples) / len(samples) if probe else None), records


def _bytes_written(ops, out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for op in ops for f in op["files"].values()
               if os.path.exists(os.path.join(out_dir, f)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--job")
    args = ap.parse_args()
    odekit = _setup(args.src)
    print("ready", flush=True)
    if args.job is None:
        return 0
    os.dup2(2, 1)  # anything odekit prints goes to stderr, not into the ready pipe

    import json
    import resource

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import tracing

    with open(args.job) as fh:
        job = json.load(fh)
    ops, root, seconds, traced = job["ops"], job["out_dir"], job["seconds"], job["trace"]
    passes = []

    def record(kind, wall, kernel, records, pass_dir, metrics=None):
        passes.append({"kind": kind, "wall": wall, "kernel": kernel, "records": records,
                       "dir": pass_dir, "metrics": metrics})

    pass_dir = os.path.join(root, "pass0")
    wall, kernel, records = _run_pass(odekit, ops, pass_dir)
    record("warmup", wall, kernel, records, pass_dir)

    tracer = tracing.Tracer() if traced else None
    spans = []
    measured = 0.0
    timed = 0
    # Whole passes only, and none that would end past the time budget (a
    # pass is predicted to last as long as the mean so far).  In a traced
    # run, untraced and traced passes alternate so that the tracing
    # overhead is measured in the same process.
    while True:
        timed += 1
        pass_dir = os.path.join(root, f"pass{timed}")
        start = time.perf_counter()
        if traced and timed % 2 == 0:
            patches = tracing.install(tracer)
            try:
                wall, kernel, records = _run_pass(odekit, ops, pass_dir, probe=False)
            finally:
                tracing.uninstall(patches)
            metrics = tracing.pass_metrics(tracer, _bytes_written(ops, pass_dir))
            spans.append(tracer.arrays())
            tracer.clear()
            record("traced", wall, kernel, records, pass_dir, metrics)
        else:
            wall, kernel, records = _run_pass(odekit, ops, pass_dir)
            record("timed", wall, kernel, records, pass_dir)
        measured += time.perf_counter() - start
        if timed >= (2 if traced else 1) and measured + measured / timed > seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        import numpy as np

        flat = {"span_names": np.array(tracer.names)}
        for i, arrs in enumerate(spans):
            for key, val in arrs.items():
                flat[f"pass{i}_{key}"] = val
        np.savez(os.path.join(root, "spans.npz"), **flat)
    with open(os.path.join(root, "result.json"), "w") as fh:
        json.dump({"passes": passes, "peak_rss_kb": peak_kb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
