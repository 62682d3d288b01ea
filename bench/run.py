#!/usr/bin/env python3
"""Benchmark of the qcrelax relaxation pipeline, timed or traced.

    python3 bench/run.py --workload ssocp-lattice --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seconds 28     # each workload in its own process

Run from the root of a checkout; qcrelax is imported from its src/ and
nowhere else.  With --trace 0 the run reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with --trace 1 it reports the per-layer
metrics and writes its spans to bench/out/.  Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("ssocp-lattice", "fsocp-dense", "psd-clique", "export-frontend")
#: BLAS/OpenMP threads of the workload process, capped at nproc
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: times a run generates its instances and warms up; set-up reports the median
SETUP_REPEATS = 3


def pin_threads():
    """Must run before numpy is imported."""
    n = min(THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def load_qcrelax():
    """Import qcrelax from this checkout's src/; exit if it is not there."""
    if not (SRC / "qcrelax" / "__init__.py").is_file():
        sys.exit(f"error: no qcrelax sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qcrelax

    if Path(qcrelax.__file__).resolve().parent != SRC / "qcrelax":
        sys.exit(f"error: imported qcrelax from {qcrelax.__file__}, not from {SRC}")
    return qcrelax


def set_up(workload, seed, tracer=None, tiny=False, repeats=1):
    """Import qcrelax, then generate the instances and warm up `repeats` times.

    Returns (q, instances, set-up seconds): the import time plus the median
    time to generate and warm up.
    """
    t0 = time.perf_counter()
    q = load_qcrelax()
    import workloads

    import_s = time.perf_counter() - t0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            inst = workloads.make_instances(q, workload, seed, tiny)
            workloads.warm_up(q, OUT)
        finally:
            if tracer is not None:
                tracer.restore()
        times.append(time.perf_counter() - t0)
    return q, inst, import_s + statistics.median(times)


def measure(q, workload, inst, seed, seconds, reference, tracer=None, passes=None):
    """Run passes until the next would overrun `seconds` (or `passes` are done).

    Returns (wall seconds per pass, ops attempted, ops failed).  Checks
    run after each pass, outside its timing, with the tracer removed.
    """
    import workloads

    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            p = workloads.run_pass(q, workload, inst, OUT)
        finally:
            if tracer is not None:
                tracer.restore()
        walls.append(time.perf_counter() - t0)
        failures = workloads.check_pass(p, workload, seed, reference)
        attempted += len(p.ops)
        failed += len(failures)
        for name, what in sorted(failures.items()):
            print(f"FAILED {workload} {name}: {'; '.join(what)}", file=sys.stderr)
        del p  # so that no two passes' outputs are alive at once, for peak_rss_mb
        lap = time.perf_counter() - t0
        if passes is not None and len(walls) >= passes:
            break
        if passes is None and time.perf_counter() - start + lap > seconds:
            break
    return walls, attempted, failed


def load_reference():
    import workloads

    return workloads.load_reference()


def environment(threads, caught):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # counted, not printed: the solver warns when it drops duplicate rows,
        # which S-SDP lowerings can contain
        "warnings": dict(Counter(f"{w.category.__name__}: {w.message}" for w in caught)),
    }


def run(args, threads):
    OUT.mkdir(exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not args.trace:
            q, inst, setup_s = set_up(args.workload, args.seed, repeats=SETUP_REPEATS)
            reference = load_reference()
            walls, attempted, failed = measure(q, args.workload, inst, args.seed,
                                               args.seconds, reference)
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
        else:
            from tracing import Tracer

            tracer = Tracer()
            q, inst, _ = set_up(args.workload, args.seed, tracer)
            reference = load_reference()
            walls, attempted, failed = measure(q, args.workload, inst, args.seed,
                                               args.seconds / 2, reference)
            traced, n, f = measure(q, args.workload, inst, args.seed, 0, reference,
                                   tracer=tracer, passes=1)
            attempted, failed = attempted + n, failed + f
            metrics = tracer.layer_metrics(traced[0] - statistics.median(walls))
            for target in tracer.missing:
                print(f"absent: {target} no longer exists; its metric is not reported",
                      file=sys.stderr)
    env = environment(threads, caught)
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"env": env, "missing": tracer.missing, "layers": tracer.self_times(),
                       "spans": tracer.spans_relative()}, fh)
    print("env " + json.dumps(env))
    print(summary(args.workload, args.seed, metrics, attempted, failed, walls))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary(workload, seed, metrics, attempted, failed, walls):
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    parts.append(f"fail_ratio={failed}/{attempted} ({failed / attempted:.3f} failed/attempted)")
    passes = ",".join(f"{w:.3f}" for w in walls)
    return f"{workload} seed={seed} untraced passes=[{passes}] s: " + "  ".join(parts)


def run_all(args):
    """Run every workload, each in a fresh process of its own."""
    results, ok = {}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exited with code {done.returncode}")
            ok = False
            continue
        lines = done.stdout.strip().splitlines()
        print(lines[-2])
        results[workload] = json.loads(lines[-1])
        ok = ok and results[workload]["correct"]
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    threads = pin_threads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run(args, threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
