import warnings

import numpy as np
import numpy.testing as npt
import pytest

from facemark.attention import (
    _sample_project_bwd,
    _sample_project_fwd,
    deform_core_bwd,
    deform_core_fwd,
    deform_project_bwd,
    deform_project_fwd,
    ffn_bwd,
    ffn_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    level_views,
    linear_bwd,
    linear_fwd,
    self_attention_bwd,
    self_attention_fwd,
)
from facemark.backbone import (
    conv2d_bwd,
    conv2d_fwd,
    extract_memory,
    extract_memory_bwd,
)
from facemark.decoder import ModelConfig
from facemark.errors import ConfigError
from facemark.params import (
    count_parameters,
    draw,
    flat_views,
    load_checkpoint,
    save_checkpoint,
)

from conftest import backbone_params


def test_glorot_bounds_and_shape():
    rng = np.random.default_rng(0)
    w = draw(rng, (100, 50), "glorot")
    assert w.shape == (100, 50)
    limit = np.sqrt(6.0 / 150)
    assert np.abs(w).max() <= limit
    w2 = draw(rng, (1, 3, 3), "glorot")
    assert w2.shape == (1, 3, 3)
    # a conv kernel (cout, cin, kh, kw) counts its window in both fans
    w3 = draw(rng, (8, 4, 3, 3), "glorot")
    assert w3.shape == (8, 4, 3, 3)
    assert np.abs(w3).max() <= np.sqrt(6.0 / (4 * 9 + 8 * 9))


def _group(grads, prefix, params):
    """The views of `grads` under `prefix`, keyed like `params`."""
    return {k: grads[prefix + k] for k in params}


def _linear_case(rng):
    w, b = rng.normal(size=(3, 5)), rng.normal(size=5)
    _, cache = linear_fwd(rng.normal(size=(4, 2, 3)), w, b)
    dout = rng.normal(size=(4, 2, 5))
    return ({"lin.w": w, "lin.b": b},
            lambda g, _: linear_bwd(dout, cache, g["lin.w"], g["lin.b"]), [])


def _layer_norm_case(rng):
    gain, bias = rng.normal(size=6), rng.normal(size=6)
    _, cache = layer_norm_fwd(rng.normal(size=(4, 2, 6)), gain, bias)
    dout = rng.normal(size=(4, 2, 6))
    return ({"ln.g": gain, "ln.b": bias},
            lambda g, _: layer_norm_bwd(dout, cache, g["ln.g"], g["ln.b"]), [])


def _conv_case(rng):
    w, b = rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
    _, cache = conv2d_fwd(rng.normal(size=(2, 2, 4, 4)), w, b, 2)
    dout = rng.normal(size=(2, 3, 2, 2))
    return ({"conv.w": w, "conv.b": b},
            lambda g, _: conv2d_bwd(dout, cache, g["conv.w"], g["conv.b"]), [])


def _ffn_case(rng):
    p = {"w1": rng.normal(size=(6, 24)), "b1": rng.normal(size=24),
         "w2": rng.normal(size=(24, 6)), "b2": rng.normal(size=6),
         "ln_g": rng.normal(size=6), "ln_b": rng.normal(size=6)}
    _, cache = ffn_fwd(rng.normal(size=(4, 2, 6)), p)
    dout = rng.normal(size=(4, 2, 6))
    return ({f"ffn.{k}": v for k, v in p.items()},
            lambda g, _: ffn_bwd(dout, cache, _group(g, "ffn.", p)), [])


def _self_attention_case(rng):
    p = {k: rng.normal(size=(8, 8)) for k in ("wq", "wk", "wv", "wo")}
    p.update({k: rng.normal(size=8) for k in ("bq", "bk", "bv", "bo", "ln_g", "ln_b")})
    _, cache = self_attention_fwd(rng.normal(size=(4, 2, 8)), rng.normal(size=(4, 1, 8)),
                                  p, 2)
    dout = rng.normal(size=(4, 2, 8))
    return ({f"sa.{k}": v for k, v in p.items()},
            lambda g, _: self_attention_bwd(dout, cache, _group(g, "sa.", p)), [])


def _extract_memory_case(rng):
    cfg = ModelConfig(dim=8, heads=2, levels=2, image_side=16, stage_channels=(4, 8))
    params = backbone_params(rng, cfg)
    mem, cache = extract_memory(rng.uniform(0, 1, (2, 3, 16, 16)), params, cfg)
    dmem = rng.normal(size=mem.shape)
    # the caller's feature gradients and per-image projection gradients
    handed = [rng.normal(size=f.shape) for f in cache.feats] + [rng.normal(size=(2, 14, 8))]
    return params, lambda g, h: extract_memory_bwd(dmem, cache, g, h[:-1], h[-1]), handed


# The deformable cases read fewer query rows than one dense block of the
# kernel (64): a dense level of more rows adds one product per block, so
# into a running sum its bits are those of adding the blocks in order.
_READ = ModelConfig(dim=8, heads=2, levels=2, points=2, image_side=32, stage_channels=(4, 8))


def _read_params(rng, names):
    """The deformable read's parameters of _READ named in `names`."""
    k = _READ.heads * _READ.levels * _READ.points
    shapes = {"w_off": (8, 2 * k), "b_off": (2 * k,), "w_wgt": (8, k), "b_wgt": (k,),
              "w_val": (8, 8), "b_val": (8,), "w_out": (8, 8), "b_out": (8,)}
    return {n: rng.normal(size=shapes[n]) * 0.3 for n in names}


_FIELDS_AND_OUT = ("w_off", "b_off", "w_wgt", "b_wgt", "w_out", "b_out")


def _deform_core_case(rng):
    # a gathered 5 x 4 level and a dense 3 x 3 one
    levels = [rng.normal(size=(h, w, 2, 3)) for h, w in ((5, 4), (3, 3))]
    locs = rng.uniform(-0.1, 1.1, (6, 2, 2, 2, 2))
    weights = rng.uniform(0.1, 1.0, (6, 2, 2, 2))
    cache = deform_core_fwd(levels, locs, weights, [np.zeros((6, 2, 3))] * 2, dense_pixels=9)
    assert cache.table.dense == (False, True)
    douts = [rng.normal(size=(6, 2, 3)) for _ in levels]
    handed = [rng.normal(size=lev.shape) for lev in levels]
    return {}, lambda g, h: deform_core_bwd(douts, cache, h), handed


def _deform_project_case(rng):
    # the parallel read, whose levels are all dense at 32 px: the caller
    # hands the level views of one (M, B, C) value gradient
    p = _read_params(rng, _FIELDS_AND_OUT)
    value = rng.normal(size=(_READ.layout.total_len, 2, 8))
    _, cache = deform_project_fwd(rng.normal(size=(3, 2, 8)), rng.uniform(0, 1, (3, 2, 2)),
                                  level_views(value, _READ.layout, 4), p, _READ)
    dout = rng.normal(size=(3, 2, 8))
    return ({f"read.{k}": v for k, v in p.items()},
            lambda g, h: deform_project_bwd(dout, cache, _group(g, "read.", p),
                                            level_views(h[0], _READ.layout, 4)),
            [rng.normal(size=value.shape)])


def _sample_project_case(rng):
    # the basic read: the caller hands its feature gradients and per-image
    # projection gradients
    p = _read_params(rng, _FIELDS_AND_OUT + ("w_val", "b_val"))
    feats = [rng.normal(size=(h, w, 2, c))
             for (h, w), c in zip(_READ.layout.levels, _READ.stage_channels)]
    proj = rng.normal(size=(14, 8))
    _, cache = _sample_project_fwd(rng.normal(size=(3, 2, 8)), rng.uniform(0, 1, (3, 2, 2)),
                                   feats, proj, p, _READ)
    dout = rng.normal(size=(3, 2, 8))
    handed = [rng.normal(size=f.shape) for f in feats] + [rng.normal(size=(2, 14, 8))]
    return ({f"read.{k}": v for k, v in p.items()},
            lambda g, h: _sample_project_bwd(dout, cache, _group(g, "read.", p), h[:-1], h[-1]),
            handed)


@pytest.mark.parametrize("case", [_linear_case, _layer_norm_case, _conv_case, _ffn_case,
                                  _self_attention_case, _extract_memory_case,
                                  _deform_core_case, _deform_project_case,
                                  _sample_project_case],
                         ids=["linear_bwd", "layer_norm_bwd", "conv2d_bwd", "ffn_bwd",
                              "self_attention_bwd", "extract_memory_bwd", "deform_core_bwd",
                              "deform_project_bwd", "_sample_project_bwd"])
def test_backward_adds_into_the_views_it_is_handed(case):
    # a backward's one add per path: into a buffer that already holds a
    # running sum it lands exactly where the same call into zeros does,
    # plus that sum; a view it is not handed keeps its bits.  So do its
    # adds into the other gradient arrays the caller hands it.
    params, run, handed = case(np.random.default_rng(5))
    shapes = {k: v.shape for k, v in params.items()} | {"other": (3,)}
    fresh, fresh_views = flat_views(shapes)
    fresh.fill(0.0)
    run(fresh_views, [a.copy() for a in handed])
    flat, views = flat_views(shapes)
    flat[:] = np.random.default_rng(6).normal(size=flat.size)
    start = flat.copy()
    into = [a.copy() for a in handed]
    run(views, into)
    assert flat.tobytes() == (start + fresh).tobytes()
    assert not fresh_views["other"].any()
    assert all(fresh_views[k].any() for k in params)
    zeros = [np.zeros_like(a) for a in handed]
    run(fresh_views, zeros)
    assert all(z.any() for z in zeros)
    assert all(a.tobytes() == (h + z).tobytes() for a, h, z in zip(into, handed, zeros))


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
    for _ in range(2):
        for k, v in part.items():
            z[k] += v
    npt.assert_array_equal(flat, [0.0, 0.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    npt.assert_array_equal(part["w"], np.full((2, 2), 2.0))  # parts are not aliased
    assert all(v.base is flat for v in z.values())  # += keeps the views
    flat[0] = 7.0
    assert z["a.s"] == 7.0


def test_count_parameters_hand_case():
    per_path, total = count_parameters({"b.w": (2, 3), "a.v": (5,)})
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


def test_checkpoint_with_a_non_finite_value_names_the_first_path(tmp_path):
    path = tmp_path / "p.ckpt"
    p = _sample_params()
    p["layer.w"][1, 2], p["layer.b"][0] = np.inf, np.nan
    save_checkpoint(path, p)
    with pytest.raises(ConfigError, match=f"{path}: parameter layer.b holds a non-finite"):
        load_checkpoint(path)
    # a finite value whose square overflows the quick pass goes to the scan,
    # which accepts it
    p = _sample_params()
    p["deep.nest.scale"][1, 0, 1] = -1e200
    save_checkpoint(path, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, _ = load_checkpoint(path)
    assert all(loaded[k].tobytes() == v.tobytes() for k, v in p.items())


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
