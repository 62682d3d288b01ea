#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Runs every workload on two seeds through all of its checks, once with the
trace wrappers installed, and checks that the wrappers restore the
originals, that a vanished wrap target is reported absent rather than
crashing the run, and that the benchmark refuses to run without the
package's sources.  It takes seconds and is kept out of the test suite.
"""

import json
import shutil
import subprocess
import sys

import run


def originals(tracing):
    out = {}
    for owner, attr, _ in tracing.TARGETS:
        obj = tracing._resolve(owner)
        out[owner, attr] = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
    return out


def traced_pass(workload, seed, tracer):
    q, inst, _ = run.set_up(workload, seed, tracer, tiny=True)
    _, attempted, failed = run.measure(q, workload, inst, seed, 0, None, tracer=tracer, passes=1)
    return attempted, failed, tracer.layer_metrics(0.0)


def main():
    run.pin_threads()
    run.OUT.mkdir(exist_ok=True)
    run.load_qcrelax()
    import tracing

    problems = []
    before = originals(tracing)
    for workload in run.WORKLOADS:
        for seed in (0, 1):
            q, inst, _ = run.set_up(workload, seed, tiny=True)
            _, attempted, failed = run.measure(q, workload, inst, seed, 0, None, passes=1)
            if failed or not attempted:
                problems.append(f"{workload} seed {seed}: {failed}/{attempted} ops failed")
        attempted, failed, metrics = traced_pass(workload, 2, tracing.Tracer())
        if failed:
            problems.append(f"{workload} traced: {failed}/{attempted} ops failed")
        if set(metrics) != set(tracing.LAYER_METRICS):
            problems.append(f"{workload} traced: missing {set(tracing.LAYER_METRICS) - set(metrics)}")
        if originals(tracing) != before:
            problems.append(f"{workload} traced: wrappers left installed")

    gone = [(o, a + "_gone" if a == "scale_columns" else a, n) for o, a, n in tracing.TARGETS]
    tracer = tracing.Tracer(gone)
    _, failed, metrics = traced_pass("psd-clique", 0, tracer)
    if failed or "cones.scale_columns_s" in metrics or "cones.apply_s" not in metrics:
        problems.append("a vanished wrap target is not reported as absent")

    # a directory holding only the benchmark must fail without a result
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ssocp-lattice", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    if done.returncode == 0 or "correct" in done.stdout:
        problems.append("runs without the package sources")

    for p in problems:
        print("FAIL", p)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
