#!/usr/bin/env python3
"""Write bench/reference.json from one pass of every workload at the default seed.

    python3 bench/make_reference.py

The file pins each op's objective and the shape and nnz of its lowered A.
Regenerate it only when a workload itself changes, never to absorb a
change in the answers.
"""

import json
import sys

import run


def main():
    run.pin_threads()
    q = run.load_qcrelax()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in run.WORKLOADS:
        inst = workloads.make_instances(q, workload, workloads.DEFAULT_SEED)
        p = workloads.run_pass(q, workload, inst, run.OUT)
        failures = workloads.check_pass(p, workload, workloads.DEFAULT_SEED, None)
        if failures:
            sys.exit(f"error: {workload} fails its checks: {failures}")
        doc["workloads"][workload] = {
            name: workloads.reference_entry(op) for name, op in p.ops.items()
        }
        print(f"{workload}: {len(p.ops)} ops", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
