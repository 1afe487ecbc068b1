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

def _one_level(fmap):
    """(h, w, C) map as a one-level, one-head pyramid."""
    return [fmap[:, :, None, :]]


def _as_locs(uvs):
    """(P, 2) points as (P, 1 head, 1 level, 1 point, 2) sampling locations."""
    return np.reshape(uvs, (-1, 1, 1, 1, 2))


def _sample(fmap, uvs):
    return bilinear_sample_many(_one_level(fmap), _as_locs(uvs))[:, 0, 0, 0]


def _sample_backward(fmap, uvs, dout):
    dlevels, dlocs = bilinear_sample_many_backward(
        _one_level(fmap), _as_locs(uvs), dout[:, None, None, None, :]
    )
    return dlevels[0][:, :, 0, :], dlocs[:, 0, 0, 0]


def _sample_one(fmap, uv):
    return _sample(fmap, uv)[0]


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
    batched = _sample(fmap, uvs)
    for i, uv in enumerate(uvs):
        npt.assert_allclose(batched[i], _sample_one(fmap, uv), atol=1e-14)


def test_bilinear_backward_matches_fd():
    rng = np.random.default_rng(4)
    fmap = rng.normal(size=(4, 3, 2))
    uvs = rng.uniform(0.1, 0.9, (6, 2))
    dout = rng.normal(size=(6, 2))
    dmap, duvs = _sample_backward(fmap, uvs, dout)
    h = 1e-6

    def loss(fm, uv):
        return (_sample(fm, uv) * dout).sum()

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
    locs = rng.uniform(-0.3, 1.3, (10, 3, 1, 2, 2))
    dout = rng.normal(size=(10, 3, 1, 2, 2))
    out = bilinear_sample_many([fmap], locs)
    dlevels, dlocs = bilinear_sample_many_backward([fmap], locs, dout)
    for k in range(3):
        uvs = locs[:, k].reshape(-1, 2)
        g = dout[:, k].reshape(-1, 2)
        npt.assert_array_equal(out[:, k].reshape(-1, 2), _sample(fmap[:, :, k], uvs))
        dmap_k, duvs_k = _sample_backward(fmap[:, :, k], uvs, g)
        npt.assert_array_equal(dlevels[0][:, :, k], dmap_k)
        npt.assert_array_equal(dlocs[:, k].reshape(-1, 2), duvs_k)


def _scalar_oracle(fmap, u, v, g):
    """Single-point bilinear read of an (h, w, C) map and its gradients for
    an upstream gradient g, by explicit loops over the four corners."""
    h, w = fmap.shape[:2]
    gx = u * w - 0.5
    gy = v * h - 0.5
    x0 = math.floor(gx)
    y0 = math.floor(gy)
    tx = gx - x0
    ty = gy - y0
    out = np.zeros(fmap.shape[2])
    dmap = np.zeros_like(fmap)
    du = dv = 0.0
    for dy in (0, 1):
        for dx in (0, 1):
            yy, xx = y0 + dy, x0 + dx
            if not (0 <= yy < h and 0 <= xx < w):
                continue
            wy = ty if dy else 1 - ty
            wx = tx if dx else 1 - tx
            out += wy * wx * fmap[yy, xx]
            dmap[yy, xx] += wy * wx * g
            dot = float(fmap[yy, xx] @ g)
            du += (1 if dx else -1) * wy * dot * w
            dv += (1 if dy else -1) * wx * dot * h
    return out, dmap, np.array([du, dv])


def _awkward_points(h, w):
    """Points far outside, exactly on the 0 and 1 edges, and on cell
    boundaries (pixel centers and their midpoints, in x, y or both)."""
    far = [-1e3, 1e3]
    edges = [0.0, 1.0]
    grid_x = [j / (2 * w) for j in range(2 * w + 1)]
    grid_y = [i / (2 * h) for i in range(2 * h + 1)]
    pts = [(x, y) for x in far + edges for y in far + edges + [0.5]]
    pts += [(x, 0.5) for x in grid_x] + [(0.5, y) for y in grid_y]
    pts += [(x, y) for x in grid_x[::2] for y in grid_y[::2]]
    pts += [(x, y) for x in far for y in grid_y] + [(x, y) for x in grid_x for y in far]
    return np.array(pts, dtype=np.float64)


def test_bilinear_awkward_points_match_scalar_oracle():
    rng = np.random.default_rng(11)
    for h, w in [(1, 1), (2, 3), (4, 4)]:
        fmap = rng.normal(size=(h, w, 3))
        uvs = _awkward_points(h, w)
        dout = rng.normal(size=(uvs.shape[0], 3))
        out = _sample(fmap, uvs)
        dmap, duvs = _sample_backward(fmap, uvs, dout)
        dmap_ref = np.zeros_like(fmap)
        for i, (u, v) in enumerate(uvs):
            ref, dm, duv = _scalar_oracle(fmap, u, v, dout[i])
            npt.assert_allclose(out[i], ref, rtol=0, atol=1e-12)
            npt.assert_allclose(duvs[i], duv, rtol=0, atol=1e-9)
            dmap_ref += dm
        npt.assert_allclose(dmap, dmap_ref, rtol=0, atol=1e-12)


def test_bilinear_fully_outside_points_read_and_pass_back_exact_zero():
    rng = np.random.default_rng(12)
    fmap = rng.normal(size=(3, 4, 2))
    # every corner of these points lies outside the map
    uvs = np.array([[-1e3, 0.5], [1e3, 0.5], [0.5, -1e3], [0.5, 1e3],
                    [-1e3, -1e3], [1e3, 1e3], [-0.2, 0.5], [1.2, 0.5]])
    dout = rng.normal(size=(uvs.shape[0], 2))
    out = _sample(fmap, uvs)
    dmap, duvs = _sample_backward(fmap, uvs, dout)
    # compare bytes, so a -0.0 would show up as a difference
    assert out.tobytes() == np.zeros_like(out).tobytes()
    assert dmap.tobytes() == np.zeros_like(dmap).tobytes()
    assert duvs.tobytes() == np.zeros_like(duvs).tobytes()


def _masked_reference(fmap, uvs, dout):
    """Per-corner kernel with boolean masks and an `np.add.at` scatter, in
    corner order (0, 0), (0, 1), (1, 0), (1, 1); the kernel must match its
    bits."""
    h, w = fmap.shape[:2]
    gx = uvs[:, 0] * w - 0.5
    gy = uvs[:, 1] * h - 0.5
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    tx, ty = gx - x0, gy - y0
    out = np.zeros((uvs.shape[0], fmap.shape[2]))
    dmap = np.zeros_like(fmap)
    dgx = np.zeros(uvs.shape[0])
    dgy = np.zeros(uvs.shape[0])
    for dy, wy in ((0, 1 - ty), (1, ty)):
        for dx, wx in ((0, 1 - tx), (1, tx)):
            yy, xx = y0 + dy, x0 + dx
            ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            vals = fmap[yy[ok], xx[ok]]
            out[ok] += (wy * wx)[ok, None] * vals
            np.add.at(dmap, (yy[ok], xx[ok]), (wy * wx)[ok, None] * dout[ok])
            contrib = np.einsum("pc,pc->p", vals, dout[ok])
            dgx[ok] += (2 * dx - 1) * wy[ok] * contrib
            dgy[ok] += (2 * dy - 1) * wx[ok] * contrib
    return out, dmap, np.stack([dgx * w, dgy * h], axis=1)


def test_bilinear_matches_masked_add_at_kernel_bit_for_bit():
    rng = np.random.default_rng(14)
    for h, w, c in [(3, 4, 2), (6, 5, 8), (16, 16, 32)]:
        fmap = rng.normal(size=(h, w, c))
        # many points per cell, so the scatter order decides the low bits
        uvs = np.concatenate([rng.uniform(-0.2, 1.2, (400, 2)), _awkward_points(h, w)])
        dout = rng.normal(size=(uvs.shape[0], c))
        ref_out, ref_dmap, ref_duvs = _masked_reference(fmap, uvs, dout)
        dmap, duvs = _sample_backward(fmap, uvs, dout)
        assert _sample(fmap, uvs).tobytes() == ref_out.tobytes()
        assert dmap.tobytes() == ref_dmap.tobytes()
        assert duvs.tobytes() == ref_duvs.tobytes()


def test_bilinear_multi_level_call_equals_per_level_calls():
    rng = np.random.default_rng(13)
    heads, d, n_points, r = 3, 4, 2, 5
    levels = [rng.normal(size=(h, w, heads, d)) for h, w in [(6, 5), (3, 3), (1, 2)]]
    locs = rng.uniform(-0.3, 1.3, (r, heads, len(levels), n_points, 2))
    locs[0, 0, :, 0] = [-1e3, 1.0]  # far outside and on an edge, on every level
    dout = rng.normal(size=(r, heads, len(levels), n_points, d))
    out = bilinear_sample_many(levels, locs)
    dlevels, dlocs = bilinear_sample_many_backward(levels, locs, dout)
    for l, lev in enumerate(levels):
        sl = slice(l, l + 1)
        npt.assert_array_equal(out[:, :, sl], bilinear_sample_many([lev], locs[:, :, sl]))
        dlev, dloc = bilinear_sample_many_backward([lev], locs[:, :, sl], dout[:, :, sl])
        npt.assert_array_equal(dlevels[l], dlev[0])
        npt.assert_array_equal(dlocs[:, :, sl], dloc)


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
