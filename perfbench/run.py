"""odekit benchmark: one workload per run, timed from outside odekit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py and README.md): explicit_march, stiff_linear,
stiff_nonlinear, stability_maps.  Each run

* times set-up (spawn a fresh interpreter, import odekit and odekit.cli,
  build the argument parser) over several fresh interpreters;
* runs the workload in one more fresh, single-threaded worker: an untimed
  warm-up pass, then whole timed passes for about ``--seconds``;
* reports every time at a fixed machine speed (see REFERENCE_KERNEL_S);
* checks every operation's output in this process (checks.py);
* prints one JSON line with ``correct``, ``attempted``, ``failed`` and the
  end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

odekit is imported from ``src/`` of the checkout this file sits in; without
it the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import reference_kernel  # noqa: E402

SETUP_SAMPLES = 7
# Times are reported at a fixed machine speed: each measured time is divided
# by the mean time of reference_kernel() (worker.py) sampled over the same
# span, and multiplied by this nominal kernel time (its median on the machine
# in README.md).  That machine's speed drifts: runs minutes apart differed by
# up to 47%.  The ratio cancels the drift, while any change in odekit's own
# cost moves it in full.
REFERENCE_KERNEL_S = 0.0065
WORKER_TIMEOUT_S = 170.0
# closed loop, one caller, one thread: BLAS pools pinned to a single thread
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "problems.rhs_calls": "count", "problems.rhs_s": "s",
    "problems.jac_calls": "count", "problems.jac_s": "s",
    "core.march_s": "s", "core.us_per_step": "us/step", "core.bookkeeping_us_per_step": "us/step",
    "steppers.self_us_per_step": "us/step", "steppers.implicit_iters": "count",
    "steppers.iters_per_step": "iter/step",
    "multistep.self_us_per_step": "us/step", "multistep.corrector_iters": "count",
    "adaptive.attempts": "count", "adaptive.rejected_steps": "count",
    "linalg.lu_factorizations": "count", "linalg.lu_per_step": "LU/step",
    "linalg.lu_s": "s", "linalg.lu_us_per_call": "us",
    "linalg.poly_roots_s": "s", "linalg.poly_roots_us_per_call": "us",
    "stability.ms_per_10k_probes": "ms", "stability.raster_s": "s",
    "stability.classify_s": "s", "stability.failed_probes": "count",
    "driver.dispatch_s": "s", "cli.emit_s": "s", "cli.emit_ns_per_byte": "ns/byte",
}


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def _spawn(job=None):
    """Start a worker; returns (process, seconds until it printed ready,
    at the reference speed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC)]
    if job is not None:
        cmd += ["--job", str(job)]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    clock = time.perf_counter
    t0 = clock()
    reference_kernel()
    t1 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = clock() - t1
    if line.strip() != "ready":
        _reap(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    t2 = clock()
    reference_kernel()
    kernel = 0.5 * (t1 - t0 + clock() - t2)  # one sample on each side of the span
    return proc, ready * REFERENCE_KERNEL_S / kernel


def _reap(proc, timeout=WORKER_TIMEOUT_S):
    """Wait for a worker; kill it if it overruns.  Returns its exit code."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
    return proc.returncode


def _setup_samples():
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc, ready = _spawn()
        if _reap(proc) != 0:
            raise BenchError("set-up worker failed")
        if i:  # the first spawn also writes bytecode caches; it is not timed
            samples.append(ready)
    return samples


def _grade(ops, passes, refs):
    """Check every pass's outputs; returns (attempted, failed, correct, notes)."""
    by_id = {op["id"]: op for op in ops}
    attempted = failed = 0
    correct = True
    notes = []
    for p in passes:
        for rec in p["records"]:
            op = by_id[rec["id"]]
            attempted += 1
            problems = checks.check_op(op, p["dir"], rec, refs)
            if not problems:
                continue
            failed += 1
            fault = op.get("known_fault")
            if fault and rec.get("rc") is None and rec.get("error", "").startswith(fault):
                continue
            correct = False
            notes.append(f"{p['kind']} pass, {op['id']}: {'; '.join(problems)}")
    return attempted, failed, correct, notes


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result object, tracing overhead or None)."""
    if not (SRC / "odekit" / "__init__.py").is_file():
        raise BenchError(f"no odekit sources under {SRC}")
    ops = workloads.build_ops(workload, seed, size)
    OUT.mkdir(parents=True, exist_ok=True)
    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        setup = _setup_samples()
        job = run_dir / "job.json"
        job.write_text(json.dumps({"ops": ops, "out_dir": str(run_dir),
                                   "seconds": seconds, "trace": bool(trace)}))
        proc, ready = _spawn(job)
        setup.append(ready)
        if _reap(proc) != 0:
            raise BenchError(f"worker exited with status {proc.returncode}")
        result = json.loads((run_dir / "result.json").read_text())
        passes = result["passes"]
        attempted, failed, correct, notes = _grade(ops, passes, checks.References(SRC))
        for note in notes:
            print("check failed: " + note, file=sys.stderr)
        walls = {kind: [p["wall"] for p in passes if p["kind"] == kind]
                 for kind in ("warmup", "timed", "traced")}
        # untraced passes at the reference speed (traced ones take no kernel samples)
        scaled = [p["wall"] * REFERENCE_KERNEL_S / p["kernel"] for p in passes if p["kind"] == "timed"]
        print(f"{workload} seed {seed}: pass times as measured: warm-up {walls['warmup'][0]:.3f} s, "
              f"timed {['%.3f' % w for w in walls['timed']]}, "
              f"traced {['%.3f' % w for w in walls['traced']]}; "
              f"timed at the reference speed {['%.3f' % w for w in scaled]}", file=sys.stderr)
        if trace:
            layer = {name: statistics.median(p["metrics"][name] for p in passes if p["kind"] == "traced")
                     for name in PER_LAYER_UNITS}
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
            traced_wall = statistics.median(walls["traced"])
            untraced_wall = statistics.median(walls["timed"])
            overhead = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
                        "overhead_s": traced_wall - untraced_wall,
                        "overhead_share": (traced_wall - untraced_wall) / untraced_wall}
            shutil.move(str(run_dir / "spans.npz"), str(OUT / f"spans-{workload}.npz"))
        else:
            overhead = None
            values = {"wall_s": statistics.median(scaled),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, overhead
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, overhead = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if overhead is not None:
        print(json.dumps({"tracing_overhead": overhead}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
