import math

import numpy as np
import numpy.testing as npt
import pytest

from facemark.errors import ConfigError
from facemark.geometry import (
    PyramidLayout,
    bilinear_sample_many,
    bilinear_sample_many_backward,
    build_pixel_positions,
    inverse_sigmoid,
    level_of_row,
    pixel_centers,
    sigmoid,
    sinusoid_embed,
)


# ---------------------------------------------------------------------------
# sigmoid / inverse_sigmoid
# ---------------------------------------------------------------------------

def test_sigmoid_matches_reference_formula():
    xs = np.array([-5.0, -1.0, -0.25, 0.0, 0.25, 1.0, 5.0])
    ref = 1.0 / (1.0 + np.exp(-xs))
    npt.assert_allclose(sigmoid(xs), ref, rtol=0, atol=1e-15)


def test_sigmoid_extremes_stable():
    # harmless underflow to zero is fine; overflow or nan is not
    with np.errstate(over="raise", invalid="raise"):
        out = sigmoid(np.array([-800.0, 800.0]))
    npt.assert_allclose(out, [0.0, 1.0])


def test_sigmoid_scalar_input():
    assert sigmoid(0.0) == 0.5
    assert math.isclose(float(sigmoid(1.0)), 1.0 / (1.0 + math.exp(-1.0)))


def test_inverse_sigmoid_round_trip():
    p = np.linspace(0.001, 0.999, 41)
    npt.assert_allclose(sigmoid(inverse_sigmoid(p)), p, atol=1e-12)


def test_inverse_sigmoid_center_is_zero():
    assert inverse_sigmoid(np.array([0.5]))[0] == 0.0


def test_inverse_sigmoid_clamps_at_eps():
    # out-of-range inputs clamp to [eps, 1-eps] before the log
    eps = 1e-5
    lo = math.log(eps) - math.log1p(-eps)
    npt.assert_allclose(inverse_sigmoid(np.array([0.0, -3.0])), [lo, lo])
    npt.assert_allclose(inverse_sigmoid(np.array([1.0, 7.0])), [-lo, -lo])


def test_inverse_sigmoid_eps_validation():
    with pytest.raises(ConfigError):
        inverse_sigmoid(np.array([0.5]), eps=0.0)
    with pytest.raises(ConfigError):
        inverse_sigmoid(np.array([0.5]), eps=0.6)


def test_inverse_sigmoid_rejects_non_finite():
    with pytest.raises(ValueError):
        inverse_sigmoid(np.array([np.nan]))


# ---------------------------------------------------------------------------
# PyramidLayout
# ---------------------------------------------------------------------------

def test_layout_for_256_four_levels():
    layout = PyramidLayout.for_image(256, 4)
    assert layout.levels == ((64, 64, 4), (32, 32, 8), (16, 16, 16), (8, 8, 32))
    assert layout.total_len == 64 * 64 + 32 * 32 + 16 * 16 + 8 * 8
    assert layout.total_len == 5440


def test_layout_block_slices_partition_rows():
    layout = PyramidLayout.for_image(64, 3)
    slices = layout.block_slices()
    assert slices[0].start == 0
    for a, b in zip(slices, slices[1:]):
        assert a.stop == b.start
    assert slices[-1].stop == layout.total_len


def test_layout_rejects_bad_strides():
    with pytest.raises(ConfigError):
        PyramidLayout(((8, 8, 4), (4, 4, 4)))


def test_pixel_centers_first_level():
    layout = PyramidLayout.for_image(32, 2)
    centers = pixel_centers(layout)
    assert centers.shape == (layout.total_len, 2)
    npt.assert_allclose(centers[0], [0.5 / 8, 0.5 / 8])
    npt.assert_allclose(centers[1], [1.5 / 8, 0.5 / 8])  # row-major: x moves first
    # first row of the second level
    npt.assert_allclose(centers[64], [0.5 / 4, 0.5 / 4])


def test_level_of_row_counts():
    layout = PyramidLayout.for_image(32, 2)
    lv = level_of_row(layout)
    assert lv.shape == (80,)
    assert (lv[:64] == 0).all() and (lv[64:] == 1).all()


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------

def _sample_one(fmap, uv):
    return bilinear_sample_many(fmap, np.reshape(uv, (1, 2)))[0]


def _hand_map():
    # 2x2 single-channel map with distinct values
    return np.array([[[1.0], [2.0]], [[3.0], [4.0]]])


def test_bilinear_at_pixel_centers_exact():
    fmap = _hand_map()
    # pixel (0,0) center is (0.25, 0.25) in normalized coords of a 2x2 grid
    npt.assert_allclose(_sample_one(fmap, [0.25, 0.25]), [1.0])
    npt.assert_allclose(_sample_one(fmap, [0.75, 0.25]), [2.0])
    npt.assert_allclose(_sample_one(fmap, [0.25, 0.75]), [3.0])


def test_bilinear_midpoint_averages():
    fmap = _hand_map()
    npt.assert_allclose(_sample_one(fmap, [0.5, 0.5]), [2.5])
    npt.assert_allclose(_sample_one(fmap, [0.5, 0.25]), [1.5])


def test_bilinear_outside_zero_padded():
    fmap = _hand_map()
    npt.assert_allclose(_sample_one(fmap, [-0.5, 0.5]), [0.0])
    npt.assert_allclose(_sample_one(fmap, [0.5, 1.6]), [0.0])
    # at the very edge only the inside corner contributes
    npt.assert_allclose(_sample_one(fmap, [0.0, 0.25]), [0.5])


def test_bilinear_many_matches_single():
    rng = np.random.default_rng(3)
    fmap = rng.normal(size=(5, 4, 3))
    uvs = rng.uniform(-0.3, 1.3, (40, 2))
    batched = bilinear_sample_many(fmap, uvs)
    for i, uv in enumerate(uvs):
        npt.assert_allclose(batched[i], _sample_one(fmap, uv), atol=1e-14)


def test_bilinear_backward_matches_fd():
    rng = np.random.default_rng(4)
    fmap = rng.normal(size=(4, 3, 2))
    uvs = rng.uniform(0.1, 0.9, (6, 2))
    dout = rng.normal(size=(6, 2))
    dmap, duvs = bilinear_sample_many_backward(fmap, uvs, dout)
    h = 1e-6

    def loss(fm, uv):
        return (bilinear_sample_many(fm, uv) * dout).sum()

    for idx in [(0, 0, 0), (2, 1, 1), (3, 2, 0)]:
        up = fmap.copy(); up[idx] += h
        down = fmap.copy(); down[idx] -= h
        fd = (loss(up, uvs) - loss(down, uvs)) / (2 * h)
        npt.assert_allclose(dmap[idx], fd, rtol=1e-6, atol=1e-9)
    for i, j in [(0, 0), (3, 1), (5, 0)]:
        up = uvs.copy(); up[i, j] += h
        down = uvs.copy(); down[i, j] -= h
        fd = (loss(fmap, up) - loss(fmap, down)) / (2 * h)
        npt.assert_allclose(duvs[i, j], fd, rtol=1e-6, atol=1e-9)


def test_bilinear_head_index_reads_that_heads_slice():
    rng = np.random.default_rng(6)
    fmap = rng.normal(size=(4, 5, 3, 2))  # (h, w, heads, d)
    uvs = rng.uniform(-0.3, 1.3, (30, 2))
    heads = rng.integers(0, 3, 30)
    dout = rng.normal(size=(30, 2))
    out = bilinear_sample_many(fmap, uvs, heads)
    dmap, duvs = bilinear_sample_many_backward(fmap, uvs, dout, heads)
    for k in range(3):
        sel = heads == k
        npt.assert_array_equal(out[sel], bilinear_sample_many(fmap[:, :, k], uvs[sel]))
        dmap_k, duvs_k = bilinear_sample_many_backward(fmap[:, :, k], uvs[sel], dout[sel])
        npt.assert_array_equal(dmap[:, :, k], dmap_k)
        npt.assert_array_equal(duvs[sel], duvs_k)


# ---------------------------------------------------------------------------
# position embeddings
# ---------------------------------------------------------------------------

def test_sinusoid_embed_shape_and_zero_coord():
    out = sinusoid_embed(np.array([[0.0, 0.0]]), 8)
    assert out.shape == (1, 8)
    # even slots are sines of zero, odd slots cosines of zero
    npt.assert_allclose(out[0, 0::2], 0.0)
    npt.assert_allclose(out[0, 1::2], 1.0)


def test_sinusoid_embed_rejects_odd_dim():
    with pytest.raises(ConfigError):
        sinusoid_embed(np.array([[0.5, 0.5]]), 7)


def test_build_pixel_positions_shape():
    layout = PyramidLayout.for_image(32, 2)
    pos = build_pixel_positions(layout, 16)
    assert pos.shape == (80, 16)
    # deterministic: same call, same bytes
    npt.assert_array_equal(pos, build_pixel_positions(layout, 16))
