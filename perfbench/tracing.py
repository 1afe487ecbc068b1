"""Span tracer that times facemark's layers from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
facemark module that binds it, so callers that imported the function by name
(`from .attention import deform_core_fwd`) are traced as well as callers that
look it up on its home module.  Each call records one span (function, start,
end, parent span, op id) in memory; some functions also record exact work
counts derived from tensor shapes.  `uninstall()` puts the originals back.

Counts are computed from shapes and file sizes, never measured: bytes and
flops are what the operation must touch by definition, not hardware counters.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

COUNT_SPAN = "perfbench.count"


def inbounds_corners(value_levels, locs):
    """Bilinear corner reads that land inside their level, summed over levels.

    A corner (dy, dx) is in bounds when both its row and its column are, so
    per sampling point the count is (#columns in bounds) * (#rows in bounds).
    """
    # (levels, 1, 2) as (w, h), broadcast against locs (R, heads, levels, points, 2)
    size = np.array([lev.shape[1::-1] for lev in value_levels], dtype=np.float64)[:, None]
    lo = np.floor(locs * size - 0.5)
    per_axis = np.clip(np.minimum(lo + 1, size - 1) - np.maximum(lo, 0) + 1, 0, 2)
    return int(per_axis.prod(axis=-1).sum())


def _count_subdict(args, result):
    return {"scanned": len(args[0]), "returned": len(result)}


def _count_project_value(args, result):
    rows, dim = args[0].shape
    return {"flops": 2 * rows * dim * args[2]["w_val"].shape[1]}


def _count_deform_fwd(args, result):
    value_levels, locs = args[0], args[1]
    samples = math.prod(locs.shape[:4])
    return {"samples": samples, "corner_reads": 4 * samples,
            "inbounds": inbounds_corners(value_levels, locs)}


def _count_deform_bwd(args, result):
    cache = args[1]
    head_dim = cache.value_levels[0].shape[3]
    inb = inbounds_corners(cache.value_levels, cache.locs)
    return {"scatter_bytes": inb * head_dim * 8}


def _count_load_checkpoint(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute) -> optional count hook.  "Adam.step" names a method.
TRACED = {
    ("backbone", "extract_memory"): None,
    ("backbone", "extract_memory_bwd"): None,
    ("backbone", "conv2d_fwd"): None,
    ("backbone", "conv2d_bwd"): None,
    ("attention", "project_value"): _count_project_value,
    ("attention", "project_value_bwd"): None,
    ("attention", "sampling_fields"): None,
    ("attention", "sampling_fields_bwd"): None,
    ("attention", "deform_core_fwd"): _count_deform_fwd,
    ("attention", "deform_core_bwd"): _count_deform_bwd,
    ("attention", "self_attention_fwd"): None,
    ("attention", "self_attention_bwd"): None,
    ("attention", "ffn_fwd"): None,
    ("attention", "ffn_bwd"): None,
    ("decoder", "forward"): None,
    ("decoder", "backward"): None,
    ("params", "subdict"): _count_subdict,
    ("params", "accumulate"): None,
    ("params", "add_grads"): None,
    ("params", "scale_grads"): None,
    ("params", "load_checkpoint"): _count_load_checkpoint,
    ("params", "save_checkpoint"): None,
    ("training", "train"): None,
    ("training", "batch_loss_and_grads"): None,
    ("training", "landmark_loss"): None,
    ("training", "Adam.step"): None,
    ("training", "augment"): None,
    ("training", "gen_synthetic"): None,
    ("geometry", "bilinear_sample_many"): None,
    ("geometry", "build_pixel_positions"): None,
    ("metrics", "evaluate"): None,
    ("io", "read_ppm"): None,
    ("io", "read_landmarks"): None,
    ("io", "write_landmarks"): None,
    ("io", "write_overlay"): None,
    ("io", "write_dataset"): None,
    ("io", "load_dataset"): None,
    ("config", "load_run_config"): None,
    ("cli", "main"): None,
}


class Tracer:
    """In-memory span recorder.  Set `op` before each operation so its spans
    carry the operation's id."""

    def __init__(self):
        self.names: list[str] = []
        # five doubles per span: name id, start, end, parent index, op id.
        # A flat array holds no Python objects, so a long run does not make
        # the garbage collector slower and slower.
        self.spans = array("d")
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, count):
        nid = self._name_id(name)
        count_nid = self._name_id(COUNT_SPAN) if count else None
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans) // 5
            spans.extend((nid, 0.0, 0.0, parent, self.op))
            stack.append(idx)
            spans[5 * idx + 1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[5 * idx + 2] = perf_counter()
                stack.pop()
            if count is not None:
                # the hook's own time is a sibling span, so no layer's self
                # time absorbs the cost of counting
                start = perf_counter()
                for stat, v in count(args, result).items():
                    counts[(self.op, f"{name}.{stat}")] += v
                spans.extend((count_nid, start, perf_counter(), parent, self.op))
            return result

        return traced

    @property
    def installed(self):
        return bool(self._restore)

    def install(self):
        """Wrap every TRACED function wherever a facemark module binds it.

        A function the program no longer has is skipped; its stats then read
        as absent (0 in the result line) instead of stopping the run.
        """
        if self._restore:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "facemark" or n.startswith("facemark."))]
        for (mod_name, attr), count in TRACED.items():
            home = sys.modules.get(f"facemark.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(home, cls_name, object)).get(meth)
                if original is not None:
                    self._patch(getattr(home, cls_name), meth, self._wrap(name, original, count))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns: name id, start, end, parent, op, self."""
        a = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 5)
        name, start, end = a[:, 0].astype(np.int64), a[:, 1], a[:, 2]
        parent, op = a[:, 3].astype(np.int64), a[:, 4].astype(np.int64)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": op, "self": dur - child}

    def check_tree(self, ops):
        """Validate the span tree against the op table.

        `ops` maps op id -> (start, end).  Returns (problems, remainder) where
        remainder is, summed over ops, the op's wall time not covered by any
        top-level span (the benchmark's own glue around the traced calls).
        Self times of an op's spans sum to its wall time minus that remainder.
        """
        a = self.arrays()
        problems = []
        tol = 1e-9
        has = a["parent"] >= 0
        p = a["parent"][has]
        if np.any(a["start"][has] < a["start"][p] - tol) or np.any(a["end"][has] > a["end"][p] + tol):
            problems.append("a child span lies outside its parent")
        if np.any(a["op"][has] != a["op"][p]):
            problems.append("a child span belongs to another op than its parent")
        if np.any(a["self"] < -tol):
            problems.append("a span has negative self time")
        remainder = 0.0
        for op_id, (start, end) in ops.items():
            mine = a["op"] == op_id
            if np.any(a["start"][mine] < start - tol) or np.any(a["end"][mine] > end + tol):
                problems.append(f"op {op_id} has a span outside its wall time")
            roots = mine & (a["parent"] < 0)
            covered = float((a["end"][roots] - a["start"][roots]).sum())
            left = (end - start) - covered
            if left < -tol:
                problems.append(f"op {op_id}: top-level spans overlap")
            if abs(float(a["self"][mine].sum()) - covered) > 1e-6:
                problems.append(f"op {op_id}: self times do not sum to the covered time")
            remainder += left
        return problems, remainder

    def dump(self, path, ops):
        """Write names, spans and the op table as one JSON document."""
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names,
                       "spans": np.frombuffer(self.spans).reshape(-1, 5).tolist(),
                       "ops": {str(k): v for k, v in ops.items()}}, f)
