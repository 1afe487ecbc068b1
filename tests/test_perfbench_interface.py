"""Guard for the interface the benchmark traces.

`perfbench/tracing.py` wraps facemark functions from outside the package
and derives work counts from their arguments by position: `project_value`'s
memory (args[0]) and parameters (args[2]), `deform_core_fwd`'s value levels
and locations (args[0], args[1]), and the `value_levels` and `locs` fields
of the cache that `deform_core_bwd` takes.  A refactor that moves one of
them breaks the benchmark's per-layer counts; these tests run the tracer,
loaded from its file unchanged, around one training batch of each read so
that tier-1 catches it.  The tracer skips a function the package no longer
has, so the last test checks that every traced name still resolves.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from facemark import attention, training
from facemark.decoder import TINY, DecoderState

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_counts(cfg, tiny_batch):
    """The tracer's counts of one training batch of `cfg`, by name."""
    state = DecoderState.init(cfg, seed=0)
    images = np.stack([s.image for s in tiny_batch])
    targets = np.stack([s.landmarks for s in tiny_batch])
    original = attention.project_value
    tracer = _load_tracing().Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert attention.project_value is not original
        training.batch_loss_and_grads(state.params, cfg, images, targets)
    finally:
        tracer.uninstall()
    assert attention.project_value is original
    return {name: v for (op, name), v in tracer.counts.items()}


def test_tracer_counts_the_deformable_layers_of_a_parallel_batch(tiny_batch):
    counts = _traced_counts(dataclasses.replace(TINY, parallel=True), tiny_batch)
    for name in ("attention.project_value.flops", "attention.deform_core_fwd.samples",
                 "attention.deform_core_bwd.scatter_bytes"):
        assert counts.get(name, 0) > 0, name


def test_tracer_counts_the_deformable_core_of_a_basic_batch(tiny_batch):
    # the basic read hands the core one output per level, as the parallel
    # read and rotation do; train-tiny and predict-default run only this read
    counts = _traced_counts(TINY, tiny_batch)
    for name in ("attention.deform_core_fwd.samples", "attention.deform_core_bwd.scatter_bytes"):
        assert counts.get(name, 0) > 0, name


# in TRACED, but deleted from the package: roadmap item 3 removes them
_DELETED = {("params", "subdict"), ("params", "accumulate"), ("params", "add_grads"),
            ("params", "scale_grads")}


def test_every_traced_function_is_in_the_package():
    # `Tracer.install` skips a name the package lacks, so a renamed or
    # folded function would read as absent in every run without an error
    missing = set()
    for mod_name, attr in _load_tracing().TRACED:
        owner = importlib.import_module(f"facemark.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add((mod_name, attr))
    assert missing <= _DELETED, sorted(missing - _DELETED)
