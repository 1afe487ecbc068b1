"""`training.batch_loss_and_grads` against the plain chunk loop it replaced.

A batch of several chunks holds the package's one worker
(`attention.worker`): it runs chunk i + 1's forward while the calling
thread runs chunk i's loss and backward, then the tasks that backward
defers (`attention.defer`): its weight-gradient products and, in `train`,
each layer's Adam update.
The loop that ran every chunk's forward and backward in turn on one thread
lives here only, as a reference (`_serial_loss_and_grads`): the loss and
the flat gradient vector must keep its bits.  The other tests pin what the
worker must not change: the caller's numpy error state, the errors a call
raises, the threads left running, and the parameters, which nothing may
write during a step.
"""

import dataclasses
import hashlib
import os
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from facemark import attention, backbone, training
from facemark.decoder import (TINY, DecoderState, ModelConfig, backward, chunk_slices, forward,
                              images_per_chunk)
from facemark.errors import ConfigError, NumericError
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
          "basic-64": (ModelConfig(image_side=64), SyntheticFaceSpec(image_side=64), 8),
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


# the serial and the overlapped digests of each case, one line per case
_BLAS_CASES = {"tiny-parallel": [3, 3, 2], "basic-64": [3, 3, 2], "parallel-64": [1, 1, 1, 1]}
_DIGESTS = f"""
import sys
sys.path.insert(0, {TESTS!r})
from test_chunk_overlap import _BLAS_CASES, _case, _digest, _serial_loss_and_grads
from facemark.training import batch_loss_and_grads
for name in _BLAS_CASES:
    params, cfg, images, targets = _case(name)
    print(_digest(*_serial_loss_and_grads(params, cfg, images, targets)),
          _digest(*batch_loss_and_grads(params, cfg, images, targets)[:2]))
"""


def test_overlapped_chunks_keep_the_bits_at_one_and_two_blas_threads():
    # at 2 OpenBLAS threads the worker's forwards and weight products and
    # this thread's backward call OpenBLAS at once; the gradients must still
    # be the 1-thread bits.  basic-64 is the basic read's case: its per-image
    # projection gradients (`dproj`) are read later in the backward, so
    # their products stay on this thread
    for name, sizes in _BLAS_CASES.items():
        cfg, _, count = _CASES[name]
        assert _chunk_sizes(count, cfg) == sizes
    one, two = ([line.split() for line in out.splitlines()]
                for out in digests_at_one_and_two_blas_threads(_DIGESTS))
    assert len(one) == len(_BLAS_CASES) and all(len(d) == 64 for d, _ in one)
    assert all(serial == overlapped for serial, overlapped in one)
    assert two == one


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


def _recording_weight_grads(monkeypatch, on_call=None):
    """Patch the linear and convolution weight-gradient products with ones
    that record, for each call, its thread, the weight-gradient hook it
    sees, numpy's error state and the address of the gradient it adds
    into, and list in `finished` the calls in the order they returned;
    `on_call(i)` runs first in call i."""
    calls, finished = [], []

    def wrap(product):
        def recording(gw, *args):
            i = len(calls)
            calls.append({"thread": threading.current_thread(),
                          "hook": attention.WORKER.get(), "errstate": np.geterr(),
                          "address": gw.__array_interface__["data"][0]})
            if on_call is not None:
                on_call(i)
            product(gw, *args)
            finished.append(i)
        return recording

    monkeypatch.setattr(attention, "_linear_weight_grad", wrap(attention._linear_weight_grad))
    monkeypatch.setattr(backbone, "_conv_weight_grad", wrap(backbone._conv_weight_grad))
    return calls, finished


def test_weight_products_run_on_the_worker_in_the_callers_error_state(monkeypatch):
    params, cfg, images, targets = _case("tiny-parallel")
    calls, _ = _recording_weight_grads(monkeypatch)
    with np.errstate(over="raise", divide="warn", invalid="call", under="ignore"):
        expected = np.geterr()
        batch_loss_and_grads(params, cfg, images, targets)
    assert calls and all(c["thread"] is not threading.current_thread() for c in calls)
    assert all(c["errstate"] == expected for c in calls)
    assert attention.WORKER.get() is None


def test_the_worker_adds_the_weight_gradients_in_the_serial_loops_order(monkeypatch):
    # every other product is slow: a second worker, or a task run out of
    # turn, would finish the next one first
    params, cfg, images, targets = _case("tiny-parallel")
    calls, finished = _recording_weight_grads(
        monkeypatch, lambda i: time.sleep(0.002) if i % 2 == 0 else None)
    orders = []
    for run in (_serial_loss_and_grads, batch_loss_and_grads):
        start = len(calls)
        flat = run(params, cfg, images, targets)[1]
        base = flat.__array_interface__["data"][0]
        orders.append([calls[i]["address"] - base for i in finished[start:]])
    assert orders[0] and orders[1] == orders[0]


def test_an_error_in_a_weight_product_is_raised_and_no_thread_is_left(monkeypatch):
    params, cfg, images, targets = _case("tiny-parallel")

    def fail(i):
        if i == 5:
            raise FloatingPointError("weight product 5")

    calls, _ = _recording_weight_grads(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="^weight product 5$"):
        batch_loss_and_grads(params, cfg, images, targets)
    assert calls[5]["thread"] is not threading.current_thread()
    assert threading.active_count() == before
    assert attention.WORKER.get() is None


def test_a_single_chunk_batch_starts_no_thread(monkeypatch):
    # and leaves the weight-gradient hook unset: its products run inline
    params, cfg, images, targets = _case("tiny-basic")
    calls = _recording_forward(monkeypatch)
    products, _ = _recording_weight_grads(monkeypatch)
    batch_loss_and_grads(params, cfg, images[:8], targets[:8])
    assert [c["thread"] for c in calls] == [threading.current_thread()]
    assert products
    assert all(c["hook"] is None and c["thread"] is threading.current_thread()
               for c in products)


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


def test_a_forward_on_the_worker_splits_no_product(monkeypatch):
    # the worker runs its tasks with `WORKER` unset: a forward there that
    # handed half a product to its own thread would wait for itself.  Here
    # a split runs both halves on the thread that asks for it, so such a
    # regression fails this test instead of hanging it
    params, cfg, images, targets = _case("parallel-64")
    images, targets = images[:2], targets[:2]
    splits = []

    def inline(submit, task, n):
        splits.append(threading.current_thread())
        return task(slice(0, n // 2)), task(slice(n // 2, n))

    monkeypatch.setattr(attention, "both_halves", inline)
    with attention.worker():  # the forward does split where `WORKER` is set
        forward(params, images[:1], cfg, keep_cache=False)
    assert splits and set(splits) == {threading.current_thread()}
    splits.clear()
    calls = _recording_forward(monkeypatch)
    loss, flat, _ = batch_loss_and_grads(params, cfg, images, targets)
    assert len(calls) == 2 and all(c["thread"] is not threading.current_thread() for c in calls)
    assert splits == []
    assert np.isfinite(loss) and np.isfinite(flat).all()


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


def test_a_finished_chunks_forward_cache_is_freed(monkeypatch):
    # a forward's future holds its (ys, cache) result: futures kept until
    # the call returned once kept every chunk's cache alive (64 px
    # parallel: tracemalloc peak 97 -> 160 MB)
    params, cfg, images, targets = _case("tiny-parallel")
    caches, alive = [], []

    def recording_forward(params, images, cfg):
        out = forward(params, images, cfg)
        caches.append(weakref.ref(out[1].ys[0]))
        return out

    def recording_backward(*args):
        alive.append([ref() is not None for ref in caches[:len(alive)]])
        backward(*args)

    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(training, "backward", recording_backward)
    batch_loss_and_grads(params, cfg, images, targets)
    # at chunk i's backward, no earlier chunk's cache is alive
    assert alive == [[], [False], [False, False]]


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


def _trained_by_hand(state, faces, cfg):
    """`train` without augmentation on a batch of the whole dataset, as
    `batch_loss_and_grads` followed by `Adam.step` on this thread."""
    shapes = {k: v.shape for k, v in state.params.items()}
    flat, params = flat_views(shapes)
    np.concatenate([state.params[k].ravel() for k in params], out=flat)
    slow = sum(v.size for k, v in params.items() if k.startswith("backbone."))
    opt = training.Adam(flat.size, slow, cfg.lr_backbone_scale)
    images = np.stack([f.image for f in faces])
    targets = np.stack([f.landmarks for f in faces])
    for step in range(1, cfg.steps + 1):
        _, gflat, _ = batch_loss_and_grads(params, state.config, images, targets)
        opt.step(flat, gflat, cfg.lr * (0.1 if step > cfg.lr_drop_step else 1.0))
    return flat


def _flat_digest(params):
    return hashlib.sha256(b"".join(params[k].tobytes() for k in sorted(params))).hexdigest()


@pytest.mark.parametrize("name, count", [("parallel-64", 2), ("tiny-parallel", 8)])
def test_layer_updates_behind_the_last_backward_keep_the_bits_of_a_step_after_it(name, count):
    # a 64 px default-width parallel batch of two runs as two chunks, TINY's
    # batch of eight as three; in the last, each layer's Adam update runs on
    # the worker behind its weight products, the other parameters' after the
    # backward.  The two threads hand the interpreter lock over every
    # microsecond
    params, cfg, _, _ = _case(name)
    faces = gen_synthetic(_CASES[name][1], count, 3)
    assert len(chunk_slices(len(faces), cfg)) == {"parallel-64": 2, "tiny-parallel": 3}[name]
    state = DecoderState(cfg, params)
    tcfg = TrainConfig(lr=1e-3, steps=3, lr_drop_step=2, batch_size=count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trained, _ = train(state, faces, tcfg)
    finally:
        sys.setswitchinterval(interval)
    by_hand = _trained_by_hand(state, faces, tcfg)
    assert _flat_digest(trained.params) == hashlib.sha256(by_hand.tobytes()).hexdigest()


def test_each_layers_update_runs_on_the_worker_after_its_last_gradient_add(monkeypatch):
    # one log, in the order things happen: each weight product as it
    # returns (the gradient entry it added into), each Adam update as it
    # starts and each step's end on this thread
    log = []

    def wrap(product):
        def recording(gw, *args):
            product(gw, *args)
            log.append(("product", gw.ctypes.data))
        return recording

    real_update, real_step = training.Adam.update, training.Adam.step

    def update(self, p, g, lr, start, stop, t):
        if start < stop:
            log.append(("update", threading.current_thread(), g.ctypes.data, start, stop))
        return real_update(self, p, g, lr, start, stop, t)

    def step(self, *args):
        real_step(self, *args)
        log.append(("step",))

    monkeypatch.setattr(attention, "_linear_weight_grad", wrap(attention._linear_weight_grad))
    monkeypatch.setattr(backbone, "_conv_weight_grad", wrap(backbone._conv_weight_grad))
    monkeypatch.setattr(training.Adam, "update", update)
    monkeypatch.setattr(training.Adam, "step", step)
    state = jitter_params(DecoderState.init(TINY_PARALLEL, 0))
    faces = gen_synthetic(TINY_SPEC, 8, 7)
    assert len(chunk_slices(len(faces), TINY_PARALLEL)) == 3
    train(state, faces, TrainConfig(steps=2, lr_drop_step=2, batch_size=8))
    main, size = threading.current_thread(), sum(v.size for v in state.params.values())
    ends = [i for i, entry in enumerate(log) if entry == ("step",)]
    assert len(ends) == 2
    for first, stop in zip([0] + ends, ends):
        steps_log = log[first:stop]
        updates = [(i, e) for i, e in enumerate(steps_log) if e[0] == "update"]
        on_worker = [(i, e) for i, e in updates if e[1] is not main]
        # the last chunk queues layer 1's update, then layer 0's, each after
        # every product into that layer's gradient
        assert len(on_worker) == TINY_PARALLEL.num_layers
        assert on_worker[0][1][3] > on_worker[1][1][3]
        for i, (_, _, base, lo, hi) in on_worker:
            later = [e[1] for e in steps_log[i:] if e[0] == "product"]
            assert not any(base + 8 * lo <= address < base + 8 * hi for address in later)
        # this thread updates the rest after the backward: every element once
        covered = sorted((e[3], e[4]) for _, e in updates)
        assert covered[0][0] == 0 and covered[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))


def test_a_nan_target_in_a_multi_chunk_batch_stops_training_as_before():
    # the loss is NaN, and so is every layer's gradient: no layer is updated
    # on the worker, train raises the loss error with no numpy warning, and
    # the caller's parameters and threads are as they were
    params, cfg, _, _ = _case("parallel-64")
    faces = gen_synthetic(_CASES["parallel-64"][1], 2, 3)
    faces[1] = faces[1]._replace(landmarks=faces[1].landmarks.copy())
    faces[1].landmarks[2, 0] = np.nan
    state = DecoderState(cfg, params)
    before = {k: v.copy() for k, v in params.items()}
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as e:
            train(state, faces, TrainConfig(lr=1e-3, steps=2, lr_drop_step=1, batch_size=2))
    assert str(e.value) == "training diverged at step 1: loss=nan"
    assert all(state.params[k].tobytes() == before[k].tobytes() for k in before)
    assert threading.active_count() == threads


def test_only_the_forward_runs_traced_functions_on_the_worker(monkeypatch):
    # perfbench's tracer keeps one span stack for all threads: of the
    # functions it wraps, only a chunk's forward and what it calls may run
    # on the training worker, and Adam.step runs on this thread
    from test_perfbench_interface import _load_tracing

    main, local = threading.current_thread(), threading.local()
    strays, ran_on = [], {}
    modules = [m for name, m in sys.modules.items() if name.startswith("facemark.")]
    for mod_name, attr in _load_tracing().TRACED:
        home = sys.modules.get(f"facemark.{mod_name}")
        owner, _, name = attr.rpartition(".")
        original = getattr(getattr(home, owner) if owner else home, name, None)
        if original is None:
            continue
        label = f"{mod_name}.{attr}"

        def record(*args, fn=original, label=label, **kwargs):
            in_forward = getattr(local, "forward", 0)
            ran_on.setdefault(label, set()).add(threading.current_thread())
            if threading.current_thread() is not main and not in_forward \
                    and label != "decoder.forward":
                strays.append(label)
            local.forward = in_forward + (label == "decoder.forward")
            try:
                return fn(*args, **kwargs)
            finally:
                local.forward = in_forward

        if owner:
            monkeypatch.setattr(getattr(home, owner), name, record)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, record)
    state = jitter_params(DecoderState.init(TINY_PARALLEL, 0))
    train(state, gen_synthetic(TINY_SPEC, 8, 7), TrainConfig(steps=2, lr_drop_step=2))
    assert strays == []
    assert ran_on["decoder.forward"] - {main} and ran_on["training.Adam.step"] == {main}
