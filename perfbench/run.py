#!/usr/bin/env python3
"""facemark benchmark: end-to-end metrics per workload, per-layer spans on
a separate traced run.

    python3 perfbench/run.py                      # every workload, untraced + traced
    python3 perfbench/run.py --workload train-tiny --seed 3 --seconds 20 --trace 0

With --workload the run happens in this process and the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics BENCHMARK.json lists,
--trace 1 its per-layer metrics.  Without --workload each workload runs in
its own child process, once untraced and once traced, and a summary
follows.  Full records (environment, sample counts, every per-layer stat,
span-tree check, tracing overhead, baseline comparison) go to
perfbench/out/; traced runs also write their spans there.

The program is imported from src/ of the checkout this file sits in and
reads configs/ from it; the run stops with exit code 2 if either is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, "_work")
REFERENCES = os.path.join(HERE, "references.json")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_S have passed
# (at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 5, 15, 1.0
# After every window operation the reference computation runs for about
# REF_SHARE of the first operation's time (at least one pass).  An
# operation's reference time is the mean of the passes just before and just
# after it.
REF_SHARE = 0.2
CHILD_TIMEOUT_S = 600

# Functions whose per-layer stats are taken per set-up or per evaluated
# face; every other function is measured per training sample or request.
SETUP_FUNCS = {"config.load_run_config", "training.gen_synthetic",
               "io.write_dataset", "io.load_dataset", "params.save_checkpoint"}
EVAL_FUNCS = {"metrics.evaluate"}

# The end-to-end metric (and workload) each named per-layer metric should
# move; "-" marks stats reported only so that moved work shows.
NAMED_LAYER_METRICS = {
    "latency_ms_p50_norm @ predict-default": [
        "backbone.extract_memory.s", "attention.project_value.s",
        "attention.project_value.flops", "params.load_checkpoint.s",
        "params.load_checkpoint.bytes", "io.read_ppm.s", "io.read_landmarks.s",
        "io.write_landmarks.s", "io.write_overlay.s", "cli.main.self_s",
    ],
    "samples_per_s_norm @ train-parallel-64": [
        "backbone.extract_memory_bwd.s", "backbone.conv2d_bwd.s",
        "attention.project_value_bwd.s", "attention.sampling_fields.s",
        "attention.sampling_fields_bwd.s", "attention.deform_core_fwd.s",
        "attention.deform_core_fwd.samples", "attention.deform_core_fwd.inbounds_frac",
        "attention.deform_core_bwd.s", "attention.deform_core_bwd.scatter_bytes",
        "geometry.bilinear_sample_many.s", "geometry.build_pixel_positions.calls",
        "geometry.build_pixel_positions.s",
    ],
    "samples_per_s_norm @ train-tiny": [
        "backbone.conv2d_fwd.calls", "attention.self_attention_fwd.s",
        "attention.self_attention_bwd.s", "attention.ffn_fwd.s", "attention.ffn_bwd.s",
        "decoder.forward.s", "decoder.forward.self_s", "decoder.forward.calls",
        "decoder.backward.s", "decoder.backward.self_s", "params.subdict.calls",
        "params.subdict.self_s", "params.subdict.hit_frac", "params.accumulate.calls",
        "params.accumulate.self_s", "params.add_grads.s", "params.scale_grads.s",
        "training.train.self_s", "training.batch_loss_and_grads.self_s",
        "training.landmark_loss.s", "training.Adam.step.s",
    ],
    "setup_s": [
        "params.save_checkpoint.s", "training.gen_synthetic.s", "io.write_dataset.s",
        "io.load_dataset.s", "config.load_run_config.s",
    ],
    "-": ["training.augment.s", "metrics.evaluate.s"],
}

# Re-anchor baselines from ROADMAP.md (2 cores, OpenBLAS, numpy 2.4).  A
# measured value within BASELINE_FACTOR of the baseline either way agrees.
BASELINE_FACTOR = 1.5
BASELINES = {
    "train-tiny": [("tiny train step, batch 8 (ms)", 52.0)],
    "predict-default": [
        ("default basic forward per image (ms)", 168.0),
        ("value projection share of the default forward", 0.40),
    ],
}

STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "samples": "count",
              "flops": "flop", "bytes": "B", "scatter_bytes": "B",
              "hit_frac": "frac", "inbounds_frac": "frac"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas():
    """Run BLAS on one thread unless the caller chose a count.  On a shared
    host a second thread waits for whichever core is slower at the moment."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")


def blas_threads():
    """Thread count of the BLAS numpy loaded, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "blas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads(), "nproc": nproc()}


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "facemark", "__init__.py")):
        fail(f"no facemark package under {SRC}")
    for cfg in ("tiny.cfg", "default.cfg"):
        if not os.path.isfile(os.path.join(ROOT, "configs", cfg)):
            fail(f"missing configs/{cfg}")
    sys.path.insert(0, SRC)
    import facemark

    if os.path.dirname(os.path.abspath(facemark.__file__)) != os.path.join(SRC, "facemark"):
        fail(f"imported facemark from {facemark.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

class Run:
    """Operations of one run, each {id, kind, traced, start, end, units,
    div, error}; window operations also carry `ref`, the seconds per pass of
    the reference computation timed right after them.  Kinds: setup, work,
    eval."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = []

    def time(self, kind, fn, units=0, div=1, catch=True):
        traced = bool(self.tracer and self.tracer.installed)
        op = {"id": len(self.ops), "kind": kind, "traced": traced,
              "units": units, "div": div, "error": None}
        if self.tracer:
            self.tracer.op = op["id"]
        op["start"] = perf_counter()
        try:
            out = fn()
        except Exception as e:  # an operation that raises is a failed operation
            if not catch:
                raise
            traceback.print_exc(file=sys.stderr)
            out, op["error"] = None, f"{type(e).__name__}: {e}"
        op["end"] = perf_counter()
        if self.tracer:
            self.tracer.op = -1
        self.ops.append(op)
        return op, out

    def of(self, kind, traced=None):
        return [o for o in self.ops if o["kind"] == kind
                and (traced is None or o["traced"] == traced)]


def run_workload(args, spec):
    import numpy as np

    import reference
    from tracing import Tracer
    from workloads import SEED_POOL, WORKLOADS, NME_RTOL, close

    env = environment()
    if env["blas_threads"] > env["nproc"]:
        fail(f"BLAS uses {env['blas_threads']} threads but only {env['nproc']} "
             f"cores are available; set {BLAS_VARS[0]} <= {env['nproc']}")
    wl = WORKLOADS[args.workload]
    with open(args.references) as f:
        ref = json.load(f)[wl.name][str(args.seed % SEED_POOL)]
    tracer = Tracer() if args.trace else None
    run = Run(tracer)
    work_dir = os.path.join(WORK_DIR, f"{wl.name}-{os.getpid()}")
    print(f"workload {wl.name}  seed {args.seed} (input set {args.seed % SEED_POOL} "
          f"of {SEED_POOL})  seconds {args.seconds}  trace {args.trace}"
          + ("  smoke" if args.smoke else ""))
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    try:
        if tracer:
            tracer.install()
        t_setup = perf_counter()
        n_setups = 1 if args.smoke else SETUP_MAX_REPS
        for k in range(n_setups):
            setup_dir = os.path.join(work_dir, f"setup{k}")
            _, ctx = run.time("setup", lambda: wl.setup(setup_dir, args.seed), catch=False)
            if k + 1 == n_setups or (k + 1 >= SETUP_REPS
                                     and perf_counter() - t_setup >= SETUP_MIN_S):
                break
            # only the last set-up's files are used; deleting the others
            # before they are written back keeps the disk idle for the next
            shutil.rmtree(setup_dir)
        if tracer:
            tracer.uninstall()
        if not args.smoke:
            wl.warmup(ctx)
        div, units = wl.per_op(ctx)
        reference.run_once()
        ref_reps = ref_before = None
        i = 0
        t_end = perf_counter() + args.seconds
        while True:
            if tracer:
                # alternate untraced and traced operations, so that both
                # see the same machine when the overhead is taken
                (tracer.install if i % 2 else tracer.uninstall)()
            op, out = run.time("work", lambda: wl.op(ctx, i), units, div)
            if ref_reps is None:
                ref_reps = max(1, round(REF_SHARE * (op["end"] - op["start"])
                                        / reference.time_reference(1)))
            ref_after = reference.time_reference(ref_reps)
            op["ref"] = ref_after if ref_before is None else (ref_before + ref_after) / 2
            ref_before = ref_after
            if op["error"] is None:
                op["error"] = wl.check(ctx, i, out, ref)
            i += 1
            if (args.smoke or perf_counter() >= t_end) and (not tracer or i >= 2):
                break
        if tracer:
            tracer.install()
        op, nme = run.time("eval", lambda: wl.evaluate(ctx, ref), units=len(ctx["held_out"]))
        if op["error"] is None and not close(nme, ref["eval_nme"], NME_RTOL):
            op["error"] = f"eval_nme {nme!r} != reference {ref['eval_nme']!r}"
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    checked = run.of("work") + run.of("eval")
    failures = [o["error"] for o in checked if o["error"]]
    for msg in failures[:5]:
        print(f"FAILED: {msg}")
    untraced = run.of("work", traced=False)
    n = len(untraced)
    per = wl.latency_unit
    secs = np.array([o["end"] - o["start"] for o in untraced])
    norm = secs * reference.NOMINAL_S / np.array([o["ref"] for o in untraced])
    setups = [o["end"] - o["start"] for o in run.of("setup")]
    samples = sum(o["units"] for o in untraced)
    e2e = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "samples_per_s_norm": (samples / norm.sum(), "1/s",
                               f"{wl.unit}s per second at reference speed, {n} operations"),
        "latency_ms_p50_norm": (float(np.median(norm)) * 1000.0 / div, "ms",
                                f"per {per} at reference speed, n={n}"),
        "eval_nme": (nme if nme is not None else 0.0, "ratio",
                     f"{len(ctx['held_out'])} faces"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "whole process"),
        "samples_per_s": (samples / secs.sum(), "1/s", f"wall clock, {n} operations"),
        "latency_ms_p50": (float(np.median(secs)) * 1000.0 / div, "ms",
                           f"per {per}, wall clock, n={n}"),
        "latency_ms_p90": (float(np.percentile(secs, 90)) * 1000.0 / div, "ms",
                           f"per {per}, wall clock, n={n}"),
        "reference_ms": (statistics.median(o["ref"] for o in untraced) * 1000.0, "ms",
                         f"median reference pass, {ref_reps} per operation; "
                         f"{reference.NOMINAL_S * 1000:g} ms is reference speed"),
    }
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env,
              "attempted": len(checked), "failed": len(failures),
              "ops_failed_frac": len(failures) / len(checked),
              "end_to_end": {k: {"value": v, "unit": u, "note": note}
                             for k, (v, u, note) in e2e.items()},
              "window_ops": [{"s": o["end"] - o["start"], "ref_s": o["ref"]} for o in untraced]}
    os.makedirs(OUT_DIR, exist_ok=True)
    if not args.trace:
        print_metrics(record["end_to_end"])
        print(f"{'ops_failed_frac':<40} {record['ops_failed_frac']:.4g}  "
              f"({len(failures)} of {len(checked)} operations failed)")
        metrics = {m["name"]: record["end_to_end"][m["name"]] for m in spec["end_to_end"]}
    else:
        layer = layer_stats(tracer, run)
        record.update(trace_report(tracer, run, layer, wl))
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        tracer.dump(os.path.join(OUT_DIR, f"{wl.name}-spans.json"),
                    {o["id"]: [o["kind"], o["start"], o["end"]] for o in run.ops})
    with open(os.path.join(OUT_DIR, f"{wl.name}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures),
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))


def print_metrics(metrics):
    for name, m in metrics.items():
        note = f"  ({m['note']})" if m.get("note") else ""
        print(f"{name:<40} {m['value']:.6g} {m['unit']}{note}")


def layer_stats(tracer, run):
    """Per-layer stats `<module>.<function>.<stat>` over the traced ops.

    Layer functions are normalized per training sample or predict request of
    the traced work ops, set-up functions per traced set-up, evaluation per
    evaluated face.  Ratio stats are ratios of sums and carry no divisor.
    """
    import numpy as np

    a = tracer.arrays()
    kind = {o["id"]: o["kind"] for o in run.ops if o["traced"]}
    per = {"setup": len(run.of("setup", True)),
           "work": sum(o["units"] for o in run.of("work", True)),
           "eval": sum(o["units"] for o in run.of("eval", True))}

    def role(func):
        return "setup" if func in SETUP_FUNCS else "eval" if func in EVAL_FUNCS else "work"

    op_kind = np.array([kind.get(int(o), "") for o in a["op"]])
    dur = a["end"] - a["start"]
    stats = {}
    for nid, func in enumerate(tracer.names):
        mask = (a["name"] == nid) & (op_kind == role(func))
        if mask.any():
            den = per[role(func)]
            stats[f"{func}.s"] = float(dur[mask].sum()) / den
            stats[f"{func}.self_s"] = float(a["self"][mask].sum()) / den
            stats[f"{func}.calls"] = int(mask.sum()) / den
    sums = {}
    for (op_id, key), v in tracer.counts.items():
        func = key.rsplit(".", 1)[0]
        if kind.get(op_id) == role(func):
            sums[key] = sums.get(key, 0.0) + v
    for key, v in sums.items():
        func, stat = key.rsplit(".", 1)
        if stat in ("samples", "flops", "bytes", "scatter_bytes"):
            stats[key] = v / per[role(func)]
    if sums.get("params.subdict.scanned"):
        stats["params.subdict.hit_frac"] = sums["params.subdict.returned"] / sums["params.subdict.scanned"]
    if sums.get("attention.deform_core_fwd.corner_reads"):
        stats["attention.deform_core_fwd.inbounds_frac"] = (
            sums["attention.deform_core_fwd.inbounds"] / sums["attention.deform_core_fwd.corner_reads"])
    return stats


def trace_report(tracer, run, stats, wl):
    """Print per-layer stats, tracing overhead, span-tree check and the
    baseline comparison; return them for the run record."""
    target = {m: t for t, names in NAMED_LAYER_METRICS.items() for m in names}
    print(f"per-layer stats (seconds and counts per {wl.unit}; set-up functions per "
          f"set-up, evaluation per face; bytes and flops computed from tensor sizes)")
    for name in sorted(stats):
        tag = f"  -> {target[name]}" if target.get(name, "-") != "-" else ""
        print(f"  {name:<46} {stats[name]:.6g} {STAT_UNITS[name.rsplit('.', 1)[1]]}{tag}")

    def p50(ops):
        return statistics.median((o["end"] - o["start"]) * 1000.0 / o["div"] for o in ops)

    untraced, traced = p50(run.of("work", False)), p50(run.of("work", True))
    overhead = traced / untraced - 1.0
    print(f"tracing overhead: {overhead:+.1%} (p50 {traced:.4g} ms traced vs "
          f"{untraced:.4g} ms untraced, same process)")
    problems, remainder = tracer.check_tree(
        {o["id"]: (o["start"], o["end"]) for o in run.ops if o["traced"]})
    wall = sum(o["end"] - o["start"] for o in run.ops if o["traced"])
    print(f"span tree: {len(tracer.spans) // 5} spans, "
          + ("well formed" if not problems else "; ".join(problems))
          + f"; untraced remainder {remainder:.4g} s of {wall:.4g} s traced op time")
    baselines = []
    measured = {
        "tiny train step, batch 8 (ms)": untraced,
        "default basic forward per image (ms)": stats.get("decoder.forward.s", 0.0) * 1000.0,
        "value projection share of the default forward":
            stats.get("attention.project_value.s", 0.0) / stats.get("decoder.forward.s", 1.0),
    }
    for what, base in BASELINES.get(wl.name, []):
        ratio = measured[what] / base
        ok = 1.0 / BASELINE_FACTOR <= ratio <= BASELINE_FACTOR
        baselines.append({"what": what, "measured": measured[what], "baseline": base,
                          "ratio": ratio, "agrees": ok})
        print(f"baseline {what}: {measured[what]:.4g} vs re-anchor {base:g} "
              f"(x{ratio:.2f}, {'agrees' if ok else 'GAP'} within x{BASELINE_FACTOR})")
    return {"per_layer": stats, "tracing_overhead_frac": overhead,
            "span_tree_problems": problems, "untraced_remainder_s": remainder,
            "traced_op_wall_s": wall, "baselines": baselines}


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------

def run_all(args, spec):
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--references", args.references]
            if args.smoke:
                cmd.append("--smoke")
            print(f"== {name} trace {trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                ok = False
                print(f"== {name} trace {trace}: FAILED (exit code {proc.returncode})")
    print("== summary (untraced runs)")
    for name in WORKLOADS:
        path = os.path.join(OUT_DIR, f"{name}-trace0.json")
        if os.path.exists(path):
            with open(path) as f:
                rec = json.load(f)
            print(f"{name}: ops_failed_frac {rec['ops_failed_frac']:.4g} "
                  f"({rec['failed']} of {rec['attempted']})")
            print_metrics(rec["end_to_end"])
    return 0 if ok else 1


def main(argv=None):
    spec = load_benchmark_spec() if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")) else None
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float,
                    default=spec["run_seconds"] if spec else 20, help="measured time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up and one operation per phase, no warm-up")
    ap.add_argument("--references", default=REFERENCES,
                    help="recorded outputs to check against")
    args = ap.parse_args(argv)
    if spec is None:
        fail(f"no BENCHMARK.json in {ROOT}")
    pin_blas()
    import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run_workload(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
