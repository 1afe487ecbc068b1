import numpy as np
import numpy.testing as npt
import pytest

from facemark.errors import ConfigError
from facemark.params import (
    accumulate,
    count_parameters,
    glorot,
    load_checkpoint,
    save_checkpoint,
    zero_grads_like,
)


def test_glorot_bounds_and_shape():
    rng = np.random.default_rng(0)
    w = glorot(rng, 100, 50)
    assert w.shape == (100, 50)
    limit = np.sqrt(6.0 / 150)
    assert np.abs(w).max() <= limit
    w2 = glorot(rng, 9, 9, shape=(1, 3, 3))
    assert w2.shape == (1, 3, 3)


def test_accumulate_adds_and_creates():
    g = {}
    accumulate(g, "m.", {"w": np.ones(2)})
    accumulate(g, "m.", {"w": np.ones(2)})
    npt.assert_array_equal(g["m.w"], [2.0, 2.0])


def test_grad_buffer_helpers():
    p = {"w": np.ones((2, 2)), "b": np.ones(3)}
    z = zero_grads_like(p)
    assert all((v == 0).all() for v in z.values())
    accumulate(z, "", {"w": np.full((2, 2), 2.0), "b": np.ones(3)})
    npt.assert_array_equal(z["w"], np.full((2, 2), 2.0))
    # an empty buffer takes a copy of the first part
    part = {"w": np.full((2, 2), 2.0)}
    total = {}
    accumulate(total, "", part)
    accumulate(total, "", part)
    npt.assert_array_equal(total["w"], np.full((2, 2), 4.0))
    npt.assert_array_equal(part["w"], np.full((2, 2), 2.0))


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
