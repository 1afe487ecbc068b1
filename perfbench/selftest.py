#!/usr/bin/env python3
"""Self-test of the benchmark in smoke mode.

    python3 perfbench/selftest.py

Runs every workload at minimal size (one set-up, one operation per phase,
no warm-up), once untraced and once traced, each in its own process, and
asserts that:

- the untraced run is correct and emits every end-to-end metric of
  BENCHMARK.json with its unit;
- the traced run emits every per-layer metric of BENCHMARK.json with its
  unit, and its record holds every named per-layer metric for each layer
  the workload calls;
- the span tree is well formed: children lie inside their parents, self
  times are >= 0 and sum per operation to its wall time minus an untraced
  remainder, which the record reports;
- a deliberately wrong reference (one loss off by 1e-6 relative, ten times
  the tolerance) is caught and counted as a failed operation.

Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

import run

failures = []


def expect(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg)
    if not cond:
        failures.append(msg)


def smoke(workload, trace, references=run.REFERENCES):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--references", references]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S)
    expect(proc.returncode == 0, f"{workload} trace {trace}: exit code {proc.returncode}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace {trace}: result line has exactly the four keys")
    with open(os.path.join(run.OUT_DIR, f"{workload}-trace{trace}.json")) as f:
        return result, json.load(f)


def emitted(result, listed, label):
    missing = [m["name"] for m in listed
               if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
               or not isinstance(result["metrics"][m["name"]].get("value"), (int, float))]
    expect(not missing, f"{label}: every listed metric emitted with its unit"
           + (f" (missing {missing})" if missing else ""))


def main():
    spec = run.load_benchmark_spec()
    named = [m for names in run.NAMED_LAYER_METRICS.values() for m in names]
    for name in [w["name"] for w in spec["workloads"]]:
        result, _ = smoke(name, 0)
        if result:
            expect(result["correct"] and result["failed"] == 0,
                   f"{name}: outputs match the references")
            emitted(result, spec["end_to_end"], f"{name} end-to-end")
        result, record = smoke(name, 1)
        if not result:
            continue
        emitted(result, spec["per_layer"], f"{name} per-layer")
        layer = record["per_layer"]
        called = {m.rsplit(".", 1)[0] for m in layer if m.endswith(".calls")}
        missing = [m for m in named if m.rsplit(".", 1)[0] in called and m not in layer]
        expect(not missing, f"{name}: named per-layer metrics of every called layer"
               + (f" (missing {missing})" if missing else ""))
        expect(not record["span_tree_problems"],
               f"{name}: span tree well formed {record['span_tree_problems'] or ''}")
        expect(0.0 <= record["untraced_remainder_s"] <= record["traced_op_wall_s"],
               f"{name}: untraced remainder reported "
               f"({record['untraced_remainder_s']:.4g} s of {record['traced_op_wall_s']:.4g} s)")

    with open(run.REFERENCES) as f:
        refs = json.load(f)
    for entry in refs["train-tiny"].values():
        entry["losses"][-1] *= 1.0 + 1e-6
    os.makedirs(run.WORK_DIR, exist_ok=True)
    wrong = os.path.join(run.WORK_DIR, "wrong-references.json")
    with open(wrong, "w") as f:
        json.dump(refs, f)
    try:
        result, record = smoke("train-tiny", 0, references=wrong)
    finally:
        os.remove(wrong)
    if result:
        expect(not result["correct"] and result["failed"] >= 1
               and record["ops_failed_frac"] > 0,
               f"wrong reference caught: correct={result['correct']} failed="
               f"{result['failed']} of {result['attempted']}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
