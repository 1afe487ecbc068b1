#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py [workload ...]

For every workload and every input set (seed % SEED_POOL) this runs one
operation and the evaluation, and stores the outputs in
perfbench/references.json: the loss sequence a train call returns, the
landmarks predict writes for each image, and eval_nme.  Run it only on a
commit whose outputs are known good; the stored file is what later runs
are held to.
"""

import json
import os
import shutil
import sys

import run


def main(names):
    run.pin_blas()
    run.import_program()
    from workloads import SEED_POOL, WORKLOADS

    refs = {}
    if os.path.exists(run.REFERENCES):
        with open(run.REFERENCES) as f:
            refs = json.load(f)
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        refs[name] = {}
        for seed in range(SEED_POOL):
            work_dir = os.path.join(run.WORK_DIR, f"record-{name}-{seed}")
            try:
                ctx = wl.setup(work_dir, seed)
                out = wl.op(ctx, 0)
                refs[name][str(seed)] = wl.reference(ctx, out, wl.evaluate(ctx))
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            print(f"{name} input set {seed}: eval_nme {refs[name][str(seed)]['eval_nme']:.6f}",
                  flush=True)
    with open(run.REFERENCES, "w") as f:
        json.dump(refs, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
