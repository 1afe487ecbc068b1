"""`training.batch_loss_and_grads` against the plain chunk loop it replaced.

A batch of several chunks runs chunk i + 1's forward on a worker thread
while the calling thread runs chunk i's loss and backward.  The loop that
ran every chunk's forward and backward in turn on one thread lives here
only, as a reference (`_serial_loss_and_grads`): the loss and the flat
gradient vector must keep its bits.  The other tests pin what the worker
must not change: the caller's numpy error state, the errors a call raises,
the threads left running, and the parameters, which nothing may write
during a step.
"""

import dataclasses
import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest

from facemark import training
from facemark.decoder import (TINY, DecoderState, ModelConfig, backward, chunk_slices, forward,
                              images_per_chunk)
from facemark.errors import ConfigError
from facemark.params import flat_views
from facemark.training import (
    SyntheticFaceSpec,
    TrainConfig,
    batch_loss_and_grads,
    gen_synthetic,
    landmark_loss,
    train,
)

from conftest import FLAVORS, TINY_SPEC, digests_at_one_and_two_blas_threads, jitter_params

TESTS = os.path.dirname(os.path.abspath(__file__))
TINY_PARALLEL = dataclasses.replace(TINY, parallel=True)


def _serial_loss_and_grads(params, cfg, images, targets):
    """The replaced loop: each chunk's forward, loss and backward in turn."""
    images, targets = np.asarray(images), np.asarray(targets)
    scale = 1.0 / len(images)
    total = 0.0
    flat, grads = flat_views({k: v.shape for k, v in params.items()})
    flat.fill(0.0)
    for sl in chunk_slices(len(images), cfg):
        ys, cache = forward(params, images[sl], cfg)
        loss, dys = landmark_loss(ys, targets[sl])
        total += loss
        backward([dy * scale for dy in dys], params, cfg, cache, grads)
    return total / len(images), flat


def _digest(loss, flat):
    return hashlib.sha256(np.float64(loss).tobytes() + flat.tobytes()).hexdigest()


# (config, face spec, batch size) of each multi-chunk batch
_CASES = {"tiny-parallel": (TINY_PARALLEL, TINY_SPEC, 8),
          "tiny-basic": (TINY, TINY_SPEC, 60),
          "parallel-64": (ModelConfig(image_side=64, parallel=True),
                          SyntheticFaceSpec(image_side=64), 4)}


def _case(name):
    """(params, cfg, images, targets) of a `_CASES` batch, with jittered
    parameters so that the zero-initialized heads carry gradients."""
    cfg, spec, count = _CASES[name]
    params = jitter_params(DecoderState.init(cfg, 0)).params
    faces = gen_synthetic(spec, count, 3)
    return (params, cfg, np.stack([f.image for f in faces]),
            np.stack([f.landmarks for f in faces]))


def _chunk_sizes(count, cfg):
    return [len(range(count)[sl]) for sl in chunk_slices(count, cfg)]


@pytest.mark.parametrize("name, sizes", [("tiny-parallel", [3, 3, 2]),
                                         ("tiny-basic", [51, 9])])
def test_overlapped_chunks_keep_the_serial_loops_bits(name, sizes):
    params, cfg, images, targets = _case(name)
    assert _chunk_sizes(len(images), cfg) == sizes
    # the two threads hand the interpreter lock over every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        loss, flat, _ = batch_loss_and_grads(params, cfg, images, targets)
    finally:
        sys.setswitchinterval(interval)
    assert _digest(loss, flat) == _digest(*_serial_loss_and_grads(params, cfg, images, targets))


# the serial and the overlapped digests of the 64 px parallel batch of four
_PARALLEL_64_DIGESTS = f"""
import sys
sys.path.insert(0, {TESTS!r})
from test_chunk_overlap import _case, _digest, _serial_loss_and_grads
from facemark.training import batch_loss_and_grads
params, cfg, images, targets = _case("parallel-64")
print(_digest(*_serial_loss_and_grads(params, cfg, images, targets)),
      _digest(*batch_loss_and_grads(params, cfg, images, targets)[:2]))
"""


def test_overlapped_chunks_keep_the_bits_at_one_and_two_blas_threads():
    # at 2 OpenBLAS threads the worker's forward and this thread's backward
    # call OpenBLAS at once; the gradients must still be the 1-thread bits
    assert _chunk_sizes(4, _case("parallel-64")[1]) == [1, 1, 1, 1]
    one, two = (line.split() for line in digests_at_one_and_two_blas_threads(_PARALLEL_64_DIGESTS))
    assert len(one[0]) == 64
    assert one[1] == one[0] and two == one


def _recording_forward(monkeypatch, on_call=None):
    """Patch the forward `batch_loss_and_grads` calls with one that records
    the thread of each call and whether it returned; `on_call(i, images)`
    may replace the images of call i."""
    calls = []

    def recording(params, images, cfg):
        entry = {"thread": threading.current_thread(), "done": False}
        calls.append(entry)
        if on_call is not None:
            images = on_call(len(calls) - 1, images)
        out = forward(params, images, cfg)
        entry["done"] = True
        return out

    monkeypatch.setattr(training, "forward", recording)
    return calls


def test_a_single_chunk_batch_starts_no_thread(monkeypatch):
    params, cfg, images, targets = _case("tiny-basic")
    calls = _recording_forward(monkeypatch)
    batch_loss_and_grads(params, cfg, images[:8], targets[:8])
    assert [c["thread"] for c in calls] == [threading.current_thread()]


def test_the_worker_keeps_the_callers_numpy_error_state():
    # NaN pixels in the second chunk reach the corner table's int cast in
    # the worker's forward; np.errstate(invalid="raise") must hold there as
    # it does in the serial loop
    params, cfg, images, targets = _case("tiny-parallel")
    images[4, :, 3:9, 3:9] = np.nan
    errors = []
    for run in (_serial_loss_and_grads, batch_loss_and_grads):
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError) as e:
            run(params, cfg, images, targets)
        errors.append(str(e.value))
    assert errors == ["invalid value encountered in cast"] * 2


def test_an_error_in_the_workers_forward_is_raised_as_it_is(monkeypatch):
    params, cfg, images, targets = _case("tiny-parallel")
    # the second chunk's images lose a row and a column
    calls = _recording_forward(monkeypatch,
                               lambda i, imgs: imgs[:, :, 1:, 1:] if i == 1 else imgs)
    before = threading.active_count()
    with pytest.raises(ConfigError) as e:
        batch_loss_and_grads(params, cfg, images, targets)
    assert str(e.value) == ("model expects a stack of 3-channel 32x32 images, "
                            "got shape (3, 3, 31, 31)")
    assert calls[1]["thread"] is not threading.current_thread()
    assert threading.active_count() == before


def test_an_error_in_the_backward_waits_for_the_forward_in_flight(monkeypatch):
    # a gradient buffer without `level_emb` fails the first chunk's backward
    # while the second chunk's forward, slowed down, is still running
    params, cfg, images, targets = _case("tiny-parallel")

    def slow(i, imgs):
        if i == 1:
            time.sleep(0.3)
        return imgs

    calls = _recording_forward(monkeypatch, slow)
    flat, grads = flat_views({k: v.shape for k, v in params.items()})
    del grads["level_emb"]
    before = threading.active_count()
    with pytest.raises(KeyError) as e:
        batch_loss_and_grads(params, cfg, images, targets, (flat, grads))
    assert e.value.args == ("level_emb",)
    assert all(c["done"] for c in calls) and len(calls) == 2
    assert threading.active_count() == before


def test_train_leaves_no_thread_running():
    state = DecoderState.init(TINY_PARALLEL, 0)
    faces = gen_synthetic(TINY_SPEC, 8, 7)
    before = threading.active_count()
    train(state, faces, TrainConfig(steps=2, lr_drop_step=2, batch_size=8))
    assert threading.active_count() == before


def _read_only(params):
    flat, views = flat_views({k: v.shape for k, v in params.items()})
    for k, v in params.items():
        views[k][...] = v
    for v in (flat, *views.values()):
        v.flags.writeable = False
    return views


@pytest.mark.parametrize("flavor", sorted(FLAVORS) + ["parallel-64"])
def test_a_step_only_reads_the_parameters(flavor):
    # the worker's forward reads the parameters while the backward runs, so
    # neither may write them; on read-only views any write would raise
    if flavor == "parallel-64":
        params, cfg, images, targets = _case("parallel-64")
        images, targets = images[:2], targets[:2]
    else:
        cfg = dataclasses.replace(TINY, **FLAVORS[flavor])
        params = jitter_params(DecoderState.init(cfg, 0)).params
        faces = gen_synthetic(TINY_SPEC, images_per_chunk(cfg) + 1, 3)
        images = np.stack([f.image for f in faces])
        targets = np.stack([f.landmarks for f in faces])
    assert len(chunk_slices(len(images), cfg)) >= 2
    loss, flat, _ = batch_loss_and_grads(_read_only(params), cfg, images, targets)
    assert np.isfinite(loss) and np.isfinite(flat).all()
