import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from facemark.attention import relu_fwd
from facemark.backbone import (
    conv2d_bwd,
    conv2d_fwd,
    extract_memory,
    extract_memory_bwd,
)
from facemark.decoder import ModelConfig
from facemark.errors import ConfigError

from conftest import backbone_params


def _backbone_config(stage_channels, dim, image_side):
    return ModelConfig(dim=dim, levels=len(stage_channels), image_side=image_side,
                       stage_channels=stage_channels)


def _conv_reference(x, w, b, stride):
    """Scalar loop oracle: 3x3 convolution, padding 1, image by image."""
    bsz, cin, hi, wi = x.shape
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho = (hi + 2 - 3) // stride + 1
    wo = (wi + 2 - 3) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for n in range(bsz):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                    out[n, co, i, j] = (patch * w[co]).sum() + b[co]
    return out


def test_conv_matches_scalar_reference():
    rng = np.random.default_rng(0)
    for stride in (1, 2):
        x = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, _ = conv2d_fwd(x, w, b, stride)
        npt.assert_allclose(out, _conv_reference(x, w, b, stride), atol=1e-12)


def _conv_pad_windows(x, w, b, stride):
    """im2col through np.pad and sliding_window_view: (out, cols)."""
    bsz, cin = x.shape[:2]
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(bsz, ho * wo, cin * 9)
    out = np.matmul(cols, w.reshape(cout, -1).T) + b
    return out.reshape(bsz, ho, wo, cout).transpose(0, 3, 1, 2), cols


def test_conv_matches_pad_and_window_im2col_bit_for_bit():
    rng = np.random.default_rng(5)
    for bsz, cin, side, cout in ((3, 3, 16, 8), (2, 8, 7, 5), (1, 16, 4, 16)):
        w = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        plain = rng.normal(size=(bsz, cin, side, side))
        # the backbone passes each stage the channels-last output of the last
        channels_last = rng.normal(size=(bsz, side, side, cin)).transpose(0, 3, 1, 2)
        for x in (plain, channels_last):
            for stride in (1, 2):
                out, cache = conv2d_fwd(x, w, b, stride)
                want, cols = _conv_pad_windows(x, w, b, stride)
                assert cache.cols.flags.c_contiguous
                assert cache.cols.tobytes() == cols.tobytes()
                assert out.shape == want.shape and out.strides == want.strides
                assert out.tobytes() == want.tobytes()


def test_conv_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0  # centered delta passes the input through at stride 1
    out, _ = conv2d_fwd(x, w, np.zeros(1), 1)
    npt.assert_allclose(out, x, atol=1e-15)


def test_conv_output_sizes():
    x = np.zeros((2, 1, 8, 8))
    w = np.zeros((4, 1, 3, 3))
    b = np.zeros(4)
    assert conv2d_fwd(x, w, b, 1)[0].shape == (2, 4, 8, 8)
    assert conv2d_fwd(x, w, b, 2)[0].shape == (2, 4, 4, 4)


def test_conv_backward_matches_fd():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 4, 4))
    w = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=2)
    mix = rng.normal(size=(2, 2, 2, 2))
    out, cache = conv2d_fwd(x, w, b, 2)
    grads = {"w": np.zeros_like(w), "b": np.zeros_like(b)}
    dx = conv2d_bwd(mix, cache, grads["w"], grads["b"])
    h = 1e-6

    def loss(xx, ww, bb):
        return (conv2d_fwd(xx, ww, bb, 2)[0] * mix).sum()

    for arr, ana, name in ((x, dx, "x"), (w, grads["w"], "w"), (b, grads["b"], "b")):
        flat = arr.ravel()
        aflat = ana.ravel()
        idx = np.random.default_rng(7).choice(flat.size, min(6, flat.size), replace=False)
        for c in idx:
            keep = flat[c]
            flat[c] = keep + h
            up = loss(x, w, b)
            flat[c] = keep - h
            down = loss(x, w, b)
            flat[c] = keep
            fd = (up - down) / (2 * h)
            npt.assert_allclose(aflat[c], fd, rtol=1e-5, atol=1e-8, err_msg=name)


def test_conv_backward_without_input_grad_keeps_param_grads():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 2, 8, 8))
    w = rng.normal(size=(4, 2, 3, 3))
    mix = rng.normal(size=(3, 4, 4, 4))
    _, cache = conv2d_fwd(x, w, rng.normal(size=4), 2)
    full = {"w": np.zeros_like(w), "b": np.zeros(4)}
    conv2d_bwd(mix, cache, full["w"], full["b"])
    grads = {"w": np.zeros_like(w), "b": np.zeros(4)}
    dx = conv2d_bwd(mix, cache, grads["w"], grads["b"], input_grad=False)
    assert dx is None
    for k in ("w", "b"):
        npt.assert_array_equal(grads[k], full[k])


# ---------------------------------------------------------------------------
# full memory extraction
# ---------------------------------------------------------------------------

def test_memory_shape_tiny():
    cfg = _backbone_config((8, 16), 16, 32)
    params = backbone_params(np.random.default_rng(0), cfg)
    img = np.random.default_rng(1).uniform(0, 1, (2, 3, 32, 32))
    mem, _ = extract_memory(img, params, cfg)
    assert mem.shape == ((8 * 8 + 4 * 4) * 2, 16)
    assert cfg.layout.levels == ((8, 8), (4, 4))


def test_memory_shape_full_scale():
    cfg = ModelConfig()
    params = backbone_params(np.random.default_rng(0), cfg)
    img = np.random.default_rng(1).uniform(0, 1, (1, 3, 256, 256))
    mem, _ = extract_memory(img, params, cfg)
    assert mem.shape == (5440, 256)


def test_memory_input_validation():
    cfg = _backbone_config((8, 16), 16, 32)
    params = backbone_params(np.random.default_rng(0), cfg)
    for bad in ((1, 1, 32, 32),  # channels
                (1, 3, 32, 16),  # not square
                (1, 3, 36, 36),  # not divisible by the coarsest stride
                (1, 3, 64, 64),  # divisible, but not the config's side
                (3, 32, 32)):  # no batch axis
        with pytest.raises(ConfigError, match=r"3-channel 32x32 images, got shape"):
            extract_memory(np.zeros(bad), params, cfg)


def test_memory_backward_matches_fd():
    cfg = _backbone_config((4, 8), 8, 16)
    rng = np.random.default_rng(3)
    params = backbone_params(rng, cfg)
    for v in params.values():
        v += rng.normal(0, 0.05, v.shape)
    img = rng.uniform(0, 1, (2, 3, 16, 16))
    mix = rng.normal(size=((4 * 4 + 2 * 2) * 2, 8))
    mem, cache = extract_memory(img, params, cfg)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    extract_memory_bwd(mix, cache, grads, [np.zeros(f.shape) for f in cache.feats],
                       np.zeros((2, 4 + 8 + 2, 8)))
    assert set(grads) == set(params) and all(g.any() for g in grads.values())
    h = 1e-6
    rng_pick = np.random.default_rng(11)
    for path in sorted(params):
        flat = params[path].ravel()
        aflat = grads[path].ravel()
        for c in rng_pick.choice(flat.size, min(4, flat.size), replace=False):
            keep = flat[c]
            flat[c] = keep + h
            up = (extract_memory(img, params, cfg)[0] * mix).sum()
            flat[c] = keep - h
            down = (extract_memory(img, params, cfg)[0] * mix).sum()
            flat[c] = keep
            fd = (up - down) / (2 * h)
            npt.assert_allclose(aflat[c], fd, rtol=2e-4, atol=1e-7, err_msg=path)


def test_memory_deterministic():
    cfg = _backbone_config((8, 16), 16, 32)
    params = backbone_params(np.random.default_rng(0), cfg)
    img = np.random.default_rng(1).uniform(0, 1, (1, 3, 32, 32))
    a, _ = extract_memory(img, params, cfg)
    b, _ = extract_memory(img, params, cfg)
    npt.assert_array_equal(a, b)


def test_memory_rows_interleave_the_images():
    # row m of image b sits at m * B + b, and each image's rows equal a
    # single-image call's rows bit for bit
    cfg = _backbone_config((8, 16), 16, 32)
    params = backbone_params(np.random.default_rng(0), cfg)
    imgs = np.random.default_rng(1).uniform(0, 1, (3, 3, 32, 32))
    batch, _ = extract_memory(imgs, params, cfg)
    for b in range(3):
        one, _ = extract_memory(imgs[b:b + 1], params, cfg)
        npt.assert_array_equal(batch[b::3], one)


def test_memory_matches_concatenated_level_projections_bit_for_bit():
    # each level's projection writes its rows of the memory in place; the
    # result equals projecting each level with a GEMM plus a bias pass and
    # concatenating the levels
    cfg = _backbone_config((4, 8, 16), 24, 64)
    rng = np.random.default_rng(8)
    params = backbone_params(rng, cfg)
    for v in params.values():
        v += rng.normal(0, 0.05, v.shape)
    for bsz in (1, 3):
        imgs = rng.uniform(0, 1, (bsz, 3, 64, 64))
        mem, _ = extract_memory(imgs, params, cfg)
        blocks, x = [], imgs
        for i in range(cfg.levels):
            pre = f"backbone.s{i + 1}"
            x = relu_fwd(conv2d_fwd(x, params[f"{pre}.conva.w"],
                                    params[f"{pre}.conva.b"], 2)[0])[0]
            x = relu_fwd(conv2d_fwd(x, params[f"{pre}.convb.w"],
                                    params[f"{pre}.convb.b"], 2 if i == 0 else 1)[0])[0]
            _, ch, h, w = x.shape
            rows = x.transpose(0, 2, 3, 1).reshape(bsz, h * w, ch)
            proj = np.matmul(rows, params[f"project.l{i + 1}.w"]) + params[f"project.l{i + 1}.b"]
            blocks.append(proj.transpose(1, 0, 2).reshape(h * w * bsz, cfg.dim))
        want = np.concatenate(blocks)
        assert mem.flags.c_contiguous and mem.shape == want.shape
        assert mem.tobytes() == want.tobytes()
