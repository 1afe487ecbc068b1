import math

import numpy as np
import numpy.testing as npt
import pytest

from facemark.errors import ConfigError
from facemark.geometry import (
    DENSE_PIXELS,
    PyramidLayout,
    bilinear_sample_many,
    bilinear_sample_many_backward,
    build_pixel_positions,
    level_of_row,
    level_stride,
    pixel_centers,
    sigmoid,
    sinusoid_embed,
)


# ---------------------------------------------------------------------------
# sigmoid
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


def _masked_sigmoid(x):
    """The two-branch formula with boolean-mask gathers and scatters."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_masked_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0,
                      np.inf, -np.inf, 36.7, -36.7, 745.2, -745.2])
    for x in (edges, rng.normal(0.0, 4.0, 999), rng.normal(0.0, 40.0, (7, 5, 2)),
              rng.normal(0.0, 4.0, (6, 8)).T):
        got = sigmoid(x)
        assert got.shape == x.shape
        assert got.tobytes() == _masked_sigmoid(x).reshape(x.shape).tobytes()
    for v in edges:
        got = sigmoid(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == _masked_sigmoid(v).tobytes()


# ---------------------------------------------------------------------------
# PyramidLayout
# ---------------------------------------------------------------------------

def test_layout_for_256_four_levels():
    layout = PyramidLayout.for_image(256, 4)
    assert layout.levels == ((64, 64), (32, 32), (16, 16), (8, 8))
    assert [level_stride(l) for l in range(4)] == [4, 8, 16, 32]
    assert layout.total_len == 64 * 64 + 32 * 32 + 16 * 16 + 8 * 8
    assert layout.total_len == 5440


def test_layout_block_slices_partition_rows():
    layout = PyramidLayout.for_image(64, 3)
    slices = layout.block_slices()
    assert slices[0].start == 0
    for a, b in zip(slices, slices[1:]):
        assert a.stop == b.start
    assert slices[-1].stop == layout.total_len


def test_layout_rejects_empty_levels():
    with pytest.raises(ConfigError):
        PyramidLayout(())
    with pytest.raises(ConfigError, match=r"invalid level shape \(0, 0\)"):
        PyramidLayout.for_image(0, 2)


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


def _unit_weights(locs):
    return np.ones(np.shape(locs)[:-1])


def _read(levels, locs, weights, dense_pixels=0):
    """The kernel's forward with every level adding into one new output:
    (out (R, heads, d), corner table)."""
    out = np.zeros(np.shape(locs)[:2] + levels[0].shape[-1:])
    return out, bilinear_sample_many(levels, locs, weights, [out] * len(levels), dense_pixels)


def _sample(fmap, uvs, dense_pixels=0):
    """Single-point reads: one level, one head, one point of weight 1."""
    locs = _as_locs(uvs)
    return _read(_one_level(fmap), locs, _unit_weights(locs), dense_pixels)[0][:, 0]


def _sample_backward(fmap, uvs, dout, dense_pixels=0):
    levels, locs = _one_level(fmap), _as_locs(uvs)
    weights = _unit_weights(locs)
    _, table = _read(levels, locs, weights, dense_pixels)
    dlevels = [np.zeros_like(lev) for lev in levels]
    dlocs, _ = bilinear_sample_many_backward(
        levels, weights, table, [dout[:, None, :]], dlevels
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
    locs = rng.uniform(-0.3, 1.3, (20, 3, 1, 1, 2))
    weights = _unit_weights(locs)
    dout = rng.normal(size=(20, 3, 2))
    out, table = _read([fmap], locs, weights)
    dlevels = [np.zeros_like(fmap)]
    dlocs, _ = bilinear_sample_many_backward([fmap], weights, table, [dout], dlevels)
    for k in range(3):
        uvs = locs[:, k].reshape(-1, 2)
        g = dout[:, k]
        npt.assert_array_equal(out[:, k], _sample(fmap[:, :, k], uvs))
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
    # gathered and dense reads (every map here has at most DENSE_PIXELS pixels)
    for dense_pixels in (0, DENSE_PIXELS):
        rng = np.random.default_rng(11)
        for h, w in [(1, 1), (2, 3), (4, 4)]:
            fmap = rng.normal(size=(h, w, 3))
            uvs = _awkward_points(h, w)
            dout = rng.normal(size=(uvs.shape[0], 3))
            out = _sample(fmap, uvs, dense_pixels)
            dmap, duvs = _sample_backward(fmap, uvs, dout, dense_pixels)
            dmap_ref = np.zeros_like(fmap)
            for i, (u, v) in enumerate(uvs):
                ref, dm, duv = _scalar_oracle(fmap, u, v, dout[i])
                npt.assert_allclose(out[i], ref, rtol=0, atol=1e-12)
                npt.assert_allclose(duvs[i], duv, rtol=0, atol=1e-9)
                dmap_ref += dm
            npt.assert_allclose(dmap, dmap_ref, rtol=0, atol=1e-12)


def test_levels_of_unequal_width_match_scalar_oracle():
    # each level reads into its own output of its own width, and takes its
    # own upstream gradient; the 6 x 5 level is gathered, the 3 x 3 and
    # 1 x 2 levels are read densely, and some points lie far outside
    rng = np.random.default_rng(21)
    heads, n_points, r = 2, 2, 7
    shapes = [(6, 5, 3), (3, 3, 5), (1, 2, 2)]
    levels = [rng.normal(size=(h, w, heads, d)) for h, w, d in shapes]
    locs = rng.uniform(-0.3, 1.3, (r, heads, len(levels), n_points, 2))
    locs[0, :, :, 0] = [-1e3, 0.5]
    locs[1, :, :, 1] = [0.5, 1e3]
    weights = rng.uniform(0.1, 1.0, (r, heads, len(levels), n_points))
    douts = [rng.normal(size=(r, heads, d)) for _, _, d in shapes]
    outs = [np.zeros((r, heads, d)) for _, _, d in shapes]
    table = bilinear_sample_many(levels, locs, weights, outs, 9)
    # the 3 x 3 level sits at the threshold, which is inclusive
    assert table.dense == (False, True, True)
    dlevels = [np.zeros_like(lev) for lev in levels]
    dlocs, dweights = bilinear_sample_many_backward(levels, weights, table, douts, dlevels)
    for l, lev in enumerate(levels):
        out_ref = np.zeros(outs[l].shape)
        dlev_ref = np.zeros(lev.shape)
        for i, k, p in np.ndindex(r, heads, n_points):
            wgt = weights[i, k, l, p]
            read, dmap, duv = _scalar_oracle(lev[:, :, k], *locs[i, k, l, p], douts[l][i, k])
            out_ref[i, k] += wgt * read
            dlev_ref[:, :, k] += wgt * dmap
            npt.assert_allclose(dlocs[i, k, l, p], wgt * duv, rtol=0, atol=1e-9)
            npt.assert_allclose(dweights[i, k, l, p], read @ douts[l][i, k], rtol=0, atol=1e-12)
        npt.assert_allclose(outs[l], out_ref, rtol=0, atol=1e-12)
        npt.assert_allclose(dlevels[l], dlev_ref, rtol=0, atol=1e-12)
    # the far points pass nothing back
    assert not dlocs[0, :, :, 0].any() and not dlocs[1, :, :, 1].any()


def test_bilinear_fully_outside_points_read_and_pass_back_exact_zero():
    for dense_pixels in (0, DENSE_PIXELS):
        rng = np.random.default_rng(12)
        fmap = rng.normal(size=(3, 4, 2))
        # every corner of these points lies outside the map
        uvs = np.array([[-1e3, 0.5], [1e3, 0.5], [0.5, -1e3], [0.5, 1e3],
                        [-1e3, -1e3], [1e3, 1e3], [-0.2, 0.5], [1.2, 0.5]])
        dout = rng.normal(size=(uvs.shape[0], 2))
        out = _sample(fmap, uvs, dense_pixels)
        dmap, duvs = _sample_backward(fmap, uvs, dout, dense_pixels)
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


def _fused(levels, locs, weights, dout, dense_pixels=0):
    out, table = _read(levels, locs, weights, dense_pixels)
    dlevels = [np.zeros_like(lev) for lev in levels]
    return (out, dlevels) + bilinear_sample_many_backward(
        levels, weights, table, [dout] * len(levels), dlevels)


def test_bilinear_multi_level_call_equals_per_level_calls():
    # a multi-level call is the sum of per-level calls; each level's
    # gradients see only that level, so they match bit for bit.  Levels are
    # gathered, all dense (one run sharing one interpolation matrix), or
    # dense around a gathered one (two runs of one level)
    rng = np.random.default_rng(13)
    heads, d, n_points, r = 3, 4, 2, 5
    for shapes, dense_pixels in [([(6, 5), (3, 3), (1, 2)], 0),
                                 ([(6, 5), (3, 3), (1, 2)], DENSE_PIXELS),
                                 ([(1, 2), (6, 5), (3, 3)], 9)]:
        levels = [rng.normal(size=(h, w, heads, d)) for h, w in shapes]
        locs = rng.uniform(-0.3, 1.3, (r, heads, len(levels), n_points, 2))
        locs[0, 0, :, 0] = [-1e3, 1.0]  # far outside and on an edge, on every level
        weights = rng.uniform(0.1, 1.0, (r, heads, len(levels), n_points))
        dout = rng.normal(size=(r, heads, d))
        out, dlevels, dlocs, dweights = _fused(levels, locs, weights, dout, dense_pixels)
        total = np.zeros_like(out)
        for l, lev in enumerate(levels):
            sl = slice(l, l + 1)
            out_l, dlev, dloc, dwgt = _fused([lev], locs[:, :, sl], weights[:, :, sl], dout,
                                             dense_pixels)
            total += out_l
            assert dlevels[l].tobytes() == dlev[0].tobytes()
            assert dlocs[:, :, sl].tobytes() == dloc.tobytes()
            assert dweights[:, :, sl].tobytes() == dwgt.tobytes()
        assert np.abs(out - total).max() <= 1e-12 * np.abs(total).max()


def _unfused_reference(levels, locs, weights, dout):
    """The per-point path the fused kernel replaces: read every point into
    `sampled` (R, heads, L, points, d), contract it with the weights, and
    scatter `dsampled` = weight * dout back point by point, with the masked
    `np.add.at` kernel above for each head of each level."""
    r, heads, n_levels, n_points, _ = locs.shape
    d = levels[0].shape[-1]
    sampled = np.empty((r, heads, n_levels, n_points, d))
    dsampled = weights[..., None] * dout[:, :, None, None, :]
    dlevels = [np.zeros_like(lev) for lev in levels]
    dlocs = np.empty(locs.shape)
    for l, lev in enumerate(levels):
        for k in range(heads):
            uvs = locs[:, k, l].reshape(-1, 2)
            g = dsampled[:, k, l].reshape(-1, d)
            out, dmap, duvs = _masked_reference(lev[:, :, k], uvs, g)
            sampled[:, k, l] = out.reshape(r, n_points, d)
            dlevels[l][:, :, k] = dmap
            dlocs[:, k, l] = duvs.reshape(r, n_points, 2)
    out = np.einsum("rhlp,rhlpd->rhd", weights, sampled)
    dweights = np.einsum("rhd,rhlpd->rhlp", dout, sampled)
    return out, dlevels, dlocs, dweights


def _kernel_instance(side, n_levels, heads, d, n_points, r):
    """Levels of a square image's pyramid, points in and around [0, 1]^2
    with awkward ones first, softmaxed weights and an upstream gradient."""
    rng = np.random.default_rng(side)
    layout = PyramidLayout.for_image(side, n_levels)
    levels = [rng.normal(size=(h, w, heads, d)) for h, w in layout.levels]
    locs = rng.uniform(-0.2, 1.2, (r, heads, n_levels, n_points, 2))
    # far outside, on the edges and on cell boundaries of the finest level
    awkward = _awkward_points(*layout.levels[0])[: r * heads * n_levels * n_points]
    locs.reshape(-1, 2)[: len(awkward)] = awkward
    logits = rng.normal(size=(r, heads, n_levels * n_points))
    weights = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    weights = weights.reshape(r, heads, n_levels, n_points)
    dout = rng.normal(size=(r, heads, d))
    return levels, locs, weights, dout


def _assert_matches_reference(fused, ref):
    pairs = [(fused[0], ref[0]), *zip(fused[1], ref[1]), (fused[2], ref[2]), (fused[3], ref[3])]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("side,n_levels,heads,d,n_points,r", [
    (32, 2, 2, 8, 2, 5),      # TINY, basic decoder
    (64, 4, 8, 32, 4, 408),   # default width at 64 px, parallel decoder
])
def test_fused_core_matches_unfused_reference(side, n_levels, heads, d, n_points, r):
    args = _kernel_instance(side, n_levels, heads, d, n_points, r)
    ref = _unfused_reference(*args)
    # every level gathered; the levels of 16 pixels or fewer dense, the rest
    # gathered; every level dense
    for dense_pixels in (0, 16, DENSE_PIXELS):
        _assert_matches_reference(_fused(*args, dense_pixels), ref)


def test_dense_and_gathered_levels_in_one_call_match_the_reference():
    # at 128 px the 32 x 32 level is gathered and the 16 x 16 level and
    # smaller are dense; 70 rows make a full and a partial block of dense rows
    args = _kernel_instance(128, 4, 2, 4, 2, 70)
    assert [lev.shape[0] * lev.shape[1] <= DENSE_PIXELS for lev in args[0]] == [
        False, True, True, True]
    _assert_matches_reference(_fused(*args, DENSE_PIXELS), _unfused_reference(*args))


def test_a_chunk_of_images_reads_each_images_bits():
    # images fold into the head axis: a chunk of three must give each image
    # the bits of its own call, on dense and gathered levels alike
    heads, d, n_points, r, bsz = 2, 4, 2, 150, 3
    levels, locs, weights, dout = _kernel_instance(128, 4, heads * bsz, d, n_points, r)
    chunk = _fused(levels, locs, weights, dout, DENSE_PIXELS)
    for b in range(bsz):
        k = slice(b * heads, (b + 1) * heads)
        one = _fused([lev[:, :, k] for lev in levels], locs[:, k], weights[:, k],
                     dout[:, k], DENSE_PIXELS)
        assert chunk[0][:, k].tobytes() == one[0].tobytes()
        for got, want in zip(chunk[1], one[1]):
            assert np.ascontiguousarray(got[:, :, k]).tobytes() == want.tobytes()
        assert chunk[2][:, k].tobytes() == one[2].tobytes()
        assert chunk[3][:, k].tobytes() == one[3].tobytes()


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
