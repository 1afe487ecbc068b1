import numpy as np
import numpy.testing as npt
import pytest

from facemark.errors import ConfigError
from facemark.params import (
    accumulate,
    count_parameters,
    flat_views,
    glorot,
    load_checkpoint,
    save_checkpoint,
)


def test_glorot_bounds_and_shape():
    rng = np.random.default_rng(0)
    w = glorot(rng, 100, 50)
    assert w.shape == (100, 50)
    limit = np.sqrt(6.0 / 150)
    assert np.abs(w).max() <= limit
    w2 = glorot(rng, 9, 9, shape=(1, 3, 3))
    assert w2.shape == (1, 3, 3)


def test_accumulate_adds_into_the_buffer():
    flat, g = flat_views({"m.w": (2,), "m.b": (3,)})
    flat.fill(0.0)
    accumulate(g, "m.", {"w": np.ones(2)})
    accumulate(g, "m.", {"w": np.ones(2)})
    npt.assert_array_equal(g["m.w"], [2.0, 2.0])
    npt.assert_array_equal(flat, [0.0, 0.0, 0.0, 2.0, 2.0])  # m.b sorts first
    with pytest.raises(KeyError):  # the buffer holds every path up front
        accumulate(g, "m.", {"v": np.ones(2)})


def test_grad_buffer_helpers():
    shapes = {"w": (2, 2), "b": (3,), "a.s": ()}
    flat, z = flat_views(shapes)
    assert flat.dtype == np.float64 and flat.shape == (8,)
    flat.fill(0.0)
    # one contiguous view per path, in sorted-path order
    assert list(z) == ["a.s", "b", "w"]
    offsets = [v.__array_interface__["data"][0] - flat.ctypes.data for v in z.values()]
    assert offsets == [0, 8, 32]
    for k, v in z.items():
        assert v.shape == shapes[k] and v.flags.c_contiguous and v.base is flat, k
    # the views write through to the vector, and the vector to the views
    part = {"w": np.full((2, 2), 2.0), "b": np.arange(3.0)}
    accumulate(z, "", part)
    accumulate(z, "", part)
    npt.assert_array_equal(flat, [0.0, 0.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    npt.assert_array_equal(part["w"], np.full((2, 2), 2.0))  # parts are not aliased
    flat[0] = 7.0
    assert z["a.s"] == 7.0


def test_count_parameters_hand_case():
    p = {"b.w": np.zeros((2, 3)), "a.v": np.zeros(5)}
    per_path, total = count_parameters(p)
    assert per_path == {"a.v": 5, "b.w": 6}
    assert list(per_path) == ["a.v", "b.w"]  # sorted
    assert total == 11


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _sample_params():
    rng = np.random.default_rng(12)
    return {
        "layer.w": rng.normal(size=(3, 4)),
        "layer.b": rng.normal(size=4),
        "deep.nest.scale": rng.normal(size=(2, 2, 2)),
    }


def test_checkpoint_round_trip_bit_exact(tmp_path):
    p = _sample_params()
    meta = {"kind": "test", "steps": "17"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, meta)
    loaded, lmeta = load_checkpoint(path)
    assert lmeta == meta
    assert set(loaded) == set(p)
    for k in p:
        npt.assert_array_equal(loaded[k], p[k])
        assert loaded[k].dtype == np.float64


def test_checkpoint_bytes_deterministic(tmp_path):
    p = _sample_params()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, p, {"k": "v"})
    save_checkpoint(b, p, {"k": "v"})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_loaded_params_writable(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones(3)}, {})
    loaded, _ = load_checkpoint(path)
    loaded["w"] += 1.0  # must not raise


def test_checkpoint_params_are_views_of_one_buffer(tmp_path):
    p = _sample_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, p, {})
    loaded, _ = load_checkpoint(path)
    flat, views = flat_views({k: v.shape for k, v in p.items()})
    assert list(loaded) == list(views) == sorted(p)
    base = loaded["layer.w"].base
    assert base is not None and base.size == flat.size
    assert all(v.base is base for v in loaded.values())
    for k, v in loaded.items():
        views[k][...] = p[k]
        assert (v.__array_interface__["data"][0] - base.ctypes.data
                == views[k].__array_interface__["data"][0] - flat.ctypes.data), k
    npt.assert_array_equal(base, flat)


@pytest.mark.parametrize("entries", [b"w 1\nb 1", b"w 1\nw 1"])
def test_checkpoint_rejects_unsorted_or_repeated_paths(tmp_path, entries):
    # the payload is laid out in sorted-path order, so no other header is valid
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"facemark-ckpt v1\nparams 2\n" + entries + b"\ndata\n" + bytes(16))
    with pytest.raises(ConfigError, match=r"bad\.ckpt.*'\w' is out of sorted order"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones(8)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ConfigError):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [
    b"facemark-ckpt v1",                                # no params line
    b"facemark-ckpt v1\nmeta key",                      # meta without a value
    b"facemark-ckpt v1\nparams x",                      # non-integer count
    b"facemark-ckpt v1\nparams 2\nw 1",                 # fewer entries than promised
    b"facemark-ckpt v1\nparams 1\nfoo",                 # entry without a shape
    b"facemark-ckpt v1\nparams 1\nw 2,x",               # non-integer dim
    b"facemark-ckpt v1\nparams 1\nw -1,-1",             # negative dims
    b"facemark-ckpt v1\nmeta k \xff\nparams 0",         # not UTF-8
])
def test_checkpoint_header_errors_name_the_file(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(header + b"\ndata\n" + bytes(8))
    with pytest.raises(ConfigError, match="bad.ckpt"):
        load_checkpoint(path)
