"""The package's one worker (`attention.worker`) and the inference verbs
that hold it: a `predict` or `eval` request runs in one `worker()` block,
whose thread reads half the checkpoint payload and computes half the rows
of every large forward product.  Every output keeps the bits of the serial
path, the payload checks hold in either half, and the thread is gone when
the request returns.  The first tests pin the helper's contract, which
training relies on too: tasks run first in, first out with `WORKER` unset,
no finished task's future is kept, and a deferred task's error is raised
when the block ends."""

import contextlib
import dataclasses
import hashlib
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from facemark import attention, backbone, cli, decoder, params
from facemark.cli import build_parser, main
from facemark.config import ENV_CONFIG
from facemark.decoder import TINY, DecoderState, ModelConfig, forward
from facemark.errors import ConfigError
from facemark.io import write_dataset, write_ppm
from facemark.params import flat_views, load_checkpoint
from facemark.training import SyntheticFaceSpec, gen_synthetic

from conftest import TINY_SPEC, jitter_params
from test_cli import TINY_MODEL, _run_facemark
from test_perfbench_interface import _load_tracing

# TINY's geometry at dim 128: a payload of five read blocks, so the worker
# reads three of them; its products stay below the split's crossover
WIDE = dataclasses.replace(TINY, dim=128)


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


def _block_of(path, cfg):
    """Index of the read block that holds parameter `path`'s first value,
    and the number of blocks."""
    flat, views = flat_views(decoder.param_shapes(cfg))
    offset = views[path].__array_interface__["data"][0] - flat.ctypes.data
    return offset // params._READ_BLOCK, -(-flat.nbytes // params._READ_BLOCK)


def _wide_checkpoint(path, bad=()):
    state = DecoderState.init(WIDE)
    for name in bad:
        state.params[name].flat[0] = np.nan
    state.save(path)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The helper's contract
# ---------------------------------------------------------------------------

def test_a_task_runs_in_the_submitters_context_with_the_worker_unset():
    seen = []
    with np.errstate(over="raise", under="warn"), attention.worker() as lane:
        expected = np.geterr()
        lane.submit(lambda: seen.append((attention.WORKER.get(), np.geterr()))).result()
        assert attention.WORKER.get() is lane
    assert seen == [(None, expected)]
    assert attention.WORKER.get() is None


def test_the_worker_keeps_no_finished_tasks_future(monkeypatch):
    # a future holds its task's result, a forward's its cache: an eval over
    # many chunks must not pile up its split halves' futures
    refs, out = [], np.zeros(8)
    with attention.worker() as lane:
        submit = lane.submit

        def recording(fn, *args):
            future = submit(fn, *args)
            refs.append(weakref.ref(future))
            return future

        monkeypatch.setattr(lane, "submit", recording)
        attention.split_rows(lambda sl: out.__setitem__(sl, 1.0), len(out), attention.SPLIT_MACS)
        attention.defer(out.__setitem__, 0, 2.0)
        # once a task queued behind both has run, the worker holds neither
        submit(lambda: None).result()
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
    assert out.tolist() == [2.0] + [1.0] * 7


def test_a_deferred_error_is_raised_as_it_is_once_every_task_has_run():
    ran = []

    def fail(message):
        raise FloatingPointError(message)

    with pytest.raises(FloatingPointError, match="^first$"):
        with attention.worker():
            attention.defer(fail, "first")
            attention.defer(ran.append, "after")
            attention.defer(fail, "second")
    assert ran == ["after"]


def test_a_block_that_raises_cancels_the_queued_tasks():
    # the task in flight waits until the queued one is cancelled
    cancelled = threading.Event()
    before = threading.active_count()
    with pytest.raises(KeyError):
        with attention.worker() as lane:
            lane.submit(cancelled.wait, 10)
            queued = lane.submit(list)
            queued.add_done_callback(lambda f: cancelled.set())
            raise KeyError("block")
    assert queued.cancelled()
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# The checkpoint read
# ---------------------------------------------------------------------------

def test_the_worker_reads_the_upper_half_of_the_blocks(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    _wide_checkpoint(path)
    readers = []
    real = params._read_payload

    def read(fd, buf, offset, blocks):
        readers.append((threading.current_thread(), [sl.start for sl in blocks]))
        return real(fd, buf, offset, blocks)

    monkeypatch.setattr(params, "_read_payload", read)
    serial, _ = load_checkpoint(path)
    (_, every), = readers
    readers.clear()
    with attention.worker():
        split, _ = load_checkpoint(path)
    assert all(split[k].tobytes() == serial[k].tobytes() for k in serial)
    by_thread = dict(readers)
    here = by_thread.pop(threading.current_thread())
    (there,) = by_thread.values()
    assert len(every) == 5 and here == every[:2] and there == every[2:]


@pytest.mark.parametrize("names, named", [
    (("query_pos",), "query_pos"),
    (("landmark_init.w", "query_pos"), "landmark_init.w"),
    (("query_init.w", "query_pos"), "query_init.w"),
], ids=["worker_half", "both_halves", "two_in_the_worker_half"])
@pytest.mark.parametrize("verb", ["predict", "eval"])
def test_a_non_finite_value_in_either_half_is_a_config_error(tmp_path, verb, names, named):
    # the first non-finite path in sorted order is named, wherever it lies
    halves = {name: _block_of(name, WIDE) for name in names}
    assert halves["query_pos"][0] >= halves["query_pos"][1] // 2  # the worker's
    if "landmark_init.w" in halves:
        assert halves["landmark_init.w"][0] < halves["landmark_init.w"][1] // 2  # this thread's
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
    _wide_checkpoint(ckpt, names)
    if verb == "predict":
        image = tmp_path / "face.ppm"
        write_ppm(image, np.full((3, 32, 32), 0.5))
        args, artifacts = ["--image", str(image)], (".txt", ".ppm")
    else:
        data = tmp_path / "ds"
        main(["gen-data", "--out", str(data), *TINY_MODEL, "--set", "data.count=2"])
        args, artifacts = ["--data", str(data), *TINY_MODEL], (".txt", ".tsv")
    proc = _run_facemark(verb, "--ckpt", str(ckpt), *args, "--out", str(out))
    assert proc.returncode == 1
    assert f"{ckpt}: parameter {named} holds a non-finite value" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not any(os.path.exists(f"{out}{ext}") for ext in artifacts)


@pytest.mark.parametrize("cut", [16, 3 * params._READ_BLOCK], ids=["worker_half", "both_halves"])
@pytest.mark.parametrize("worker", [False, True], ids=["serial", "worker"])
def test_a_payload_that_shrinks_while_read_changed_while_reading(tmp_path, monkeypatch,
                                                                 cut, worker):
    # the file loses its last `cut` bytes after its size was taken
    path = tmp_path / "m.ckpt"
    _wide_checkpoint(path)
    size = path.stat().st_size
    os.truncate(path, size - cut)
    real = os.fstat
    monkeypatch.setattr(params.os, "fstat",
                        lambda fd: os.stat_result((*real(fd)[:6], size, *real(fd)[7:])))
    with attention.worker() if worker else contextlib.nullcontext():
        with pytest.raises(ConfigError, match=f"payload of {path} changed while reading"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Outputs keep their bits
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_request(tmp_path_factory):
    """A default-scale checkpoint whose heads move the landmarks, and a
    dataset of four faces for it."""
    root = tmp_path_factory.mktemp("default")
    state = jitter_params(DecoderState.init(ModelConfig()), scale=0.01)
    ckpt = root / "m.ckpt"
    state.save(ckpt, extra_meta={"config_hash": "c0ffee"})
    write_dataset(root / "ds", gen_synthetic(SyntheticFaceSpec(), 4, 0), "c0ffee", 0)
    return ckpt, root / "ds"


def _tiny_request(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    jitter_params(DecoderState.init(TINY)).save(ckpt)
    write_dataset(tmp_path / "ds", gen_synthetic(TINY_SPEC, 4, 0), "c0ffee", 0)
    return ckpt, tmp_path / "ds"


@pytest.mark.parametrize("scale", ["tiny", "default"])
def test_predict_and_eval_write_the_serial_paths_bytes(tmp_path, default_request, scale):
    ckpt, data = default_request if scale == "default" else _tiny_request(tmp_path)
    model = [] if scale == "default" else TINY_MODEL
    runs = {}
    for side in ("serial", "worker"):
        out = tmp_path / side
        predict = ["predict", "--ckpt", str(ckpt), "--image", str(data / "face_00001.ppm"),
                   "--gt", str(data / "face_00001.txt"), "--out", f"{out}.pred"]
        evaluate = ["eval", "--ckpt", str(ckpt), "--data", str(data), *model,
                    "--out", f"{out}.eval"]
        for argv in (predict, evaluate):
            args = build_parser().parse_args(argv)
            command = cli.COMMANDS[args.command]
            # the undecorated command runs with no worker
            assert (command.__wrapped__ if side == "serial" else command)(args) == 0
        runs[side] = [(tmp_path / f"{side}.{name}").read_bytes()
                      for name in ("pred.txt", "pred.ppm", "eval.txt", "eval.tsv")]
    assert runs["serial"] == runs["worker"]


@pytest.mark.parametrize("cfg", [TINY, ModelConfig()], ids=["tiny", "default"])
def test_the_forward_stages_keep_their_bits(cfg):
    state = jitter_params(DecoderState.init(cfg), scale=0.01)
    spec = TINY_SPEC if cfg is TINY else SyntheticFaceSpec()
    # one image, as predict runs, and three, one chunk of eval at default scale
    for count in (1, 3):
        images = np.stack([s.image for s in gen_synthetic(spec, count, 5)])
        serial = forward(state.params, images, cfg, keep_cache=False)[0]
        with attention.worker():
            split = forward(state.params, images, cfg, keep_cache=False)[0]
        assert [_digest([y]) for y in split] == [_digest([y]) for y in serial]


def test_every_split_product_keeps_its_bits(monkeypatch):
    # every call of a splitting function in a default-scale forward of one
    # and of three images, rerun alone with and without the worker
    calls, splits = [], []
    hooks = {(attention, "linear_fwd"): lambda out: [out[0]],
             (backbone, "conv2d_fwd"): lambda out: [out[0], out[1].cols],
             (attention, "_sample_project_fwd"): lambda out: [out[0], out[1].u]}
    for (module, name), keep in hooks.items():
        fn = getattr(module, name)

        def record(*args, fn=fn, keep=keep, **kwargs):
            calls.append((fn, keep, args))
            return fn(*args, **kwargs)

        for bound in (attention, backbone, decoder):
            if getattr(bound, name, None) is fn:
                monkeypatch.setattr(bound, name, record)
    state = jitter_params(DecoderState.init(ModelConfig()), scale=0.01)
    for count in (1, 3):
        images = np.stack([s.image for s in gen_synthetic(SyntheticFaceSpec(), count, 5)])
        forward(state.params, images, state.config, keep_cache=False)
    monkeypatch.undo()
    real_both = attention.both_halves

    def counted(submit, task, n):
        splits.append(n)
        return real_both(submit, task, n)

    monkeypatch.setattr(attention, "both_halves", counted)
    split_kinds = set()
    for fn, keep, args in calls:
        serial = _digest(keep(fn(*args)))
        before = len(splits)
        with attention.worker():
            assert _digest(keep(fn(*args))) == serial, (fn.__name__, [a.shape for a in args
                                                                     if hasattr(a, "shape")])
        if len(splits) > before:
            split_kinds.add(fn.__name__)
    assert split_kinds == {"linear_fwd", "conv2d_fwd", "_sample_project_fwd"}


# ---------------------------------------------------------------------------
# The thread's lifetime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [(), ("query_pos",)], ids=["finite", "non_finite"])
@pytest.mark.parametrize("verb", ["predict", "eval"])
def test_a_request_leaves_no_thread_behind(tmp_path, monkeypatch, verb, bad):
    ckpt = tmp_path / "m.ckpt"
    _wide_checkpoint(ckpt, bad)
    if verb == "predict":
        image = tmp_path / "face.ppm"
        write_ppm(image, np.full((3, 32, 32), 0.5))
        argv = ["predict", "--ckpt", str(ckpt), "--image", str(image),
                "--out", str(tmp_path / "p")]
    else:
        data = tmp_path / "ds"
        main(["gen-data", "--out", str(data), *TINY_MODEL, "--set", "data.count=2"])
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(data), *TINY_MODEL]
    readers = set()
    real = params._read_payload
    monkeypatch.setattr(params, "_read_payload",
                        lambda *a: readers.add(threading.current_thread()) or real(*a))
    before = threading.active_count()
    assert main(argv) == (1 if bad else 0)
    assert threading.active_count() == before
    assert len(readers) == 2  # the worker did start
    assert attention.WORKER.get() is None


def test_no_traced_function_runs_on_the_worker(tmp_path, monkeypatch, default_request):
    # perfbench's tracer keeps one span stack for all threads, so each
    # function it wraps must run on the thread that serves the request
    ckpt, data = default_request
    ran_on = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("facemark.")]
    for mod_name, attr in _load_tracing().TRACED:
        home = sys.modules.get(f"facemark.{mod_name}")
        owner, _, name = attr.rpartition(".")
        original = getattr(getattr(home, owner) if owner else home, name, None)
        if original is None:
            continue

        def record(*args, fn=original, label=f"{mod_name}.{attr}", **kwargs):
            ran_on.setdefault(label, set()).add(threading.current_thread())
            return fn(*args, **kwargs)

        if owner:
            monkeypatch.setattr(getattr(home, owner), name, record)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, record)
    readers = set()
    real = params._read_payload
    monkeypatch.setattr(params, "_read_payload",
                        lambda *a: readers.add(threading.current_thread()) or real(*a))
    assert cli.main(["predict", "--ckpt", str(ckpt), "--image", str(data / "face_00001.ppm"),
                     "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "e")]) == 0
    assert len(readers) == 3  # this thread and each request's worker
    assert {"backbone.conv2d_fwd", "attention.ffn_fwd", "params.load_checkpoint",
            "metrics.evaluate"} <= ran_on.keys()
    assert {t for threads in ran_on.values() for t in threads} == {threading.current_thread()}
