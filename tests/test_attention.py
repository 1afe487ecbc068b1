import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from facemark.attention import (
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
    project_value,
    project_value_bwd,
    sampling_fields,
    self_attention_bwd,
    self_attention_fwd,
    softmax,
    softmax_bwd,
)
from facemark.decoder import ModelConfig, _layer_bwd, _layer_fwd, _layer_params, param_shapes
from facemark.errors import ConfigError
from facemark.geometry import DENSE_PIXELS, PyramidLayout
from facemark.params import flat_views


def _fd_check(arrs, analytic, loss, n=6, h=1e-6, rtol=1e-5, atol=1e-8, seed=0):
    """Spot-check analytic grads for a list of arrays against central FD."""
    rng = np.random.default_rng(seed)
    for arr, ana, name in arrs_with_names(arrs, analytic):
        flat = arr.ravel()
        aflat = np.asarray(ana).ravel()
        for c in rng.choice(flat.size, min(n, flat.size), replace=False):
            keep = flat[c]
            flat[c] = keep + h
            up = loss()
            flat[c] = keep - h
            down = loss()
            flat[c] = keep
            fd = (up - down) / (2 * h)
            npt.assert_allclose(aflat[c], fd, rtol=rtol, atol=atol, err_msg=name)


def arrs_with_names(arrs, analytic):
    for (name, arr), ana in zip(arrs, analytic):
        yield arr, ana, name


def _zero_grads(p):
    """A zeroed gradient array for each parameter of `p`, keyed alike."""
    return {k: np.zeros_like(v) for k, v in p.items()}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_attention_config_validation():
    # ModelConfig holds the attention geometry: head_dim = dim / heads,
    # heads * levels * points sampling points per query
    cfg = ModelConfig(dim=16, heads=2, levels=2, points=2, image_side=32,
                      stage_channels=(8, 16))
    shapes = param_shapes(cfg)
    assert shapes["layers.0.deform.w_wgt"] == (16, 8)
    assert shapes["layers.0.deform.b_off"] == (16,)
    rng = np.random.default_rng(0)
    memory = rng.normal(size=(cfg.layout.total_len, 16))
    value = {"w_val": np.eye(16), "b_val": np.zeros(16)}
    levels, _ = project_value(memory, cfg.layout, value, cfg)
    assert {lev.shape[2:] for lev in levels} == {(2, 8)}
    with pytest.raises(ConfigError, match="dim 16 not divisible by heads 3"):
        ModelConfig(dim=16, heads=3, levels=2, points=2, stage_channels=(8, 16))
    with pytest.raises(ConfigError, match="levels must be >= 1, got 0"):
        ModelConfig(dim=16, heads=2, levels=0, points=2, stage_channels=())


def test_default_config_reads_128_points():
    # 8 heads x 4 levels x 4 points: one softmax weight per memory read
    shapes = param_shapes(ModelConfig())
    assert shapes["layers.0.deform.w_wgt"] == (256, 128)
    assert shapes["layers.0.deform.w_off"] == (256, 2 * 128)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_linear_forward_and_backward_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=5)
    out, cache = linear_fwd(x, w, b)
    npt.assert_allclose(out, x @ w + b, atol=1e-15)
    dout = rng.normal(size=out.shape)
    grads = _zero_grads({"w": w, "b": b})
    dx = linear_bwd(dout, cache, grads["w"], grads["b"])
    # linear map: gradients are exact matrix identities
    npt.assert_allclose(dx, dout @ w.T, atol=1e-15)
    npt.assert_allclose(grads["w"], x.T @ dout, atol=1e-15)
    npt.assert_allclose(grads["b"], dout.sum(0), atol=1e-15)


def _linear_two_pass(x, w, b):
    """linear_fwd as a GEMM into a temporary plus a second pass for the bias."""
    x3 = x.reshape(x.shape[0], -1, x.shape[-1])
    y = np.empty(x3.shape[:2] + w.shape[1:])
    np.add(np.matmul(x3.transpose(1, 0, 2), w), b, out=y.transpose(1, 0, 2))
    return y.reshape(x.shape[:-1] + w.shape[1:])


def _linear_bwd_reduced(dout, x, w):
    """linear_bwd with every weight gradient summed over the image axis by
    np.add.reduce, over row blocks of 256 added in order."""
    x3 = x.reshape(x.shape[0], -1, x.shape[-1])
    dout_b = dout.reshape(x3.shape[:2] + w.shape[1:]).transpose(1, 0, 2)
    dx = np.matmul(dout_b, w.T).transpose(1, 0, 2).reshape(x.shape)
    xt = x3.transpose(1, 2, 0)
    dws = np.matmul(xt[..., :256], dout_b[:, :256])
    for r0 in range(256, len(x3), 256):
        dws = dws + np.matmul(xt[..., r0:r0 + 256], dout_b[:, r0:r0 + 256])
    db = np.add.reduce(dout, axis=0)
    return dx, np.add.reduce(dws, axis=0), np.add.reduce(db, axis=0) if db.ndim == 2 else db


@pytest.mark.parametrize("rows", [200, 300])
def test_linear_matches_the_two_pass_formula_bit_for_bit(rows):
    # rows of one image, stacks of 1 and 3 images, at most and more than
    # the 256 rows of one weight-gradient block
    rng = np.random.default_rng(rows)
    w = rng.normal(size=(24, 40))
    b = rng.normal(size=40)
    for shape in ((rows, 24), (rows, 1, 24), (rows, 3, 24)):
        x = rng.normal(size=shape)
        y, cache = linear_fwd(x, w, b)
        want = _linear_two_pass(x, w, b)
        assert y.shape == want.shape and y.strides == want.strides
        assert y.tobytes() == want.tobytes()
        # out= writes the products into the caller's (R, B, K) rows and
        # nowhere else
        buf = np.full((y.size // 40 + 5, 40), np.nan)
        view = buf[3:-2].reshape(rows, -1, 40)
        y_out, _ = linear_fwd(x, w, b, out=view)
        assert np.shares_memory(y_out, view) and y_out.tobytes() == want.tobytes()
        assert view.tobytes() == want.tobytes()
        assert np.isnan(buf[:3]).all() and np.isnan(buf[-2:]).all()
        dout = rng.normal(size=y.shape)
        grads = _zero_grads({"w": w, "b": b})
        dx = linear_bwd(dout, cache, grads["w"], grads["b"])
        want_dx, want_dw, want_db = _linear_bwd_reduced(dout, x, w)
        for got, ref in ((dx, want_dx), (grads["w"], want_dw), (grads["b"], want_db)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_layer_norm_hand_case():
    x = np.array([[1.0, 2.0, 3.0]])
    out, _ = layer_norm_fwd(x, np.ones(3), np.zeros(3))
    std = math.sqrt(2.0 / 3.0 + 1e-5)
    npt.assert_allclose(out, [[-1.0 / std, 0.0, 1.0 / std]], atol=1e-12)


def test_layer_norm_backward_matches_fd():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 6))
    g = rng.normal(size=6)
    b = rng.normal(size=6)
    mix = rng.normal(size=(3, 6))
    out, cache = layer_norm_fwd(x, g, b)
    grads = _zero_grads({"g": g, "b": b})
    dx = layer_norm_bwd(mix, cache, grads["g"], grads["b"])

    def loss():
        return (layer_norm_fwd(x, g, b)[0] * mix).sum()

    _fd_check([("x", x), ("g", g), ("b", b)], [dx, grads["g"], grads["b"]], loss)


def _layer_norm_mean_var(x, gain, bias, eps=1e-5):
    """Layer norm through ndarray.mean and .var: (out, xhat, inv)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gain * xhat + bias, xhat, inv


def _layer_norm_mean_bwd(dout, xhat, inv, gain):
    dxhat = dout * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, (dout * xhat).sum(axis=0).sum(axis=0), dout.sum(axis=0).sum(axis=0)


def test_layer_norm_matches_mean_and_var_bit_for_bit():
    rng = np.random.default_rng(8)
    g, b = rng.normal(size=16), rng.normal(size=16)
    contiguous = rng.normal(3.0, 2.0, (7, 5, 16))
    channels_first = rng.normal(size=(16, 5, 7)).T  # the last axis is strided
    every_other = rng.normal(size=(7, 5, 32))[..., ::2]
    for x in (contiguous, channels_first, every_other):
        out, (xhat, inv, _) = layer_norm_fwd(x, g, b)
        want, want_xhat, want_inv = _layer_norm_mean_var(x, g, b)
        for got, ref in ((out, want), (xhat, want_xhat), (inv, want_inv)):
            assert got.strides == ref.strides and got.tobytes() == ref.tobytes()
        dout = rng.normal(size=x.shape)
        grads = _zero_grads({"g": g, "b": b})
        dx = layer_norm_bwd(dout, (xhat, inv, g), grads["g"], grads["b"])
        want_dx, want_g, want_b = _layer_norm_mean_bwd(dout, want_xhat, want_inv, g)
        assert dx.strides == want_dx.strides and dx.tobytes() == want_dx.tobytes()
        assert grads["g"].tobytes() == want_g.tobytes()
        assert grads["b"].tobytes() == want_b.tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 7)) * 30  # large logits must not overflow
    y = softmax(z)
    npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert (y > 0).all()


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 5))
    mix = rng.normal(size=(2, 5))
    y = softmax(z)
    dz = softmax_bwd(mix, y)

    def loss():
        return (softmax(z) * mix).sum()

    _fd_check([("z", z)], [dz], loss)


def test_ffn_backward_matches_fd():
    rng = np.random.default_rng(4)
    dim = 6
    p = {
        "w1": rng.normal(size=(dim, 4 * dim)) * 0.3,
        "b1": rng.normal(size=4 * dim) * 0.3,
        "w2": rng.normal(size=(4 * dim, dim)) * 0.3,
        "b2": rng.normal(size=dim) * 0.3,
        "ln_g": 1.0 + 0.1 * rng.normal(size=dim),
        "ln_b": 0.1 * rng.normal(size=dim),
    }
    x = rng.normal(size=(3, dim))
    mix = rng.normal(size=(3, dim))
    out, cache = ffn_fwd(x, p)
    grads = _zero_grads(p)
    dx = ffn_bwd(mix, cache, grads)
    assert set(grads) == set(p)

    def loss():
        return (ffn_fwd(x, p)[0] * mix).sum()

    names = [("x", x)] + [(k, p[k]) for k in sorted(p)]
    analytic = [dx] + [grads[k] for k in sorted(p)]
    _fd_check(names, analytic, loss)


# ---------------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------------

def _self_attn_params(rng, dim):
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = rng.normal(size=(dim, dim)) * 0.3
    for name in ("bq", "bk", "bv", "bo"):
        p[name] = rng.normal(size=dim) * 0.1
    p["ln_g"] = 1.0 + 0.1 * rng.normal(size=dim)
    p["ln_b"] = 0.1 * rng.normal(size=dim)
    return p


def test_self_attention_weights_are_distributions():
    rng = np.random.default_rng(5)
    dim, n, heads = 8, 5, 2
    p = _self_attn_params(rng, dim)
    q = rng.normal(size=(n, 3, dim))
    pos = rng.normal(size=(n, 1, dim))
    out, cache = self_attention_fwd(q, pos, p, heads)
    assert out.shape == (n, 3, dim)
    attn = cache.attn  # (images, heads, n, n)
    assert attn.shape == (3, heads, n, n)
    npt.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def test_self_attention_keeps_images_apart():
    rng = np.random.default_rng(14)
    dim, n, heads = 8, 5, 2
    p = _self_attn_params(rng, dim)
    q = rng.normal(size=(n, 3, dim))
    pos = rng.normal(size=(n, 1, dim))
    out, _ = self_attention_fwd(q, pos, p, heads)
    for b in range(3):
        one, _ = self_attention_fwd(q[:, b:b + 1], pos, p, heads)
        npt.assert_array_equal(out[:, b:b + 1], one)


def test_self_attention_permutation_equivariant():
    rng = np.random.default_rng(6)
    dim, n, heads = 8, 5, 2
    p = _self_attn_params(rng, dim)
    q = rng.normal(size=(n, 2, dim))
    pos = rng.normal(size=(n, 2, dim))
    perm = np.array([3, 1, 4, 0, 2])
    out, _ = self_attention_fwd(q, pos, p, heads)
    out_p, _ = self_attention_fwd(q[perm], pos[perm], p, heads)
    npt.assert_allclose(out_p, out[perm], atol=1e-12)


def test_self_attention_rejects_empty():
    rng = np.random.default_rng(7)
    p = _self_attn_params(rng, 4)
    with pytest.raises(ValueError):
        self_attention_fwd(np.zeros((0, 1, 4)), np.zeros((0, 1, 4)), p, 2)


def test_self_attention_backward_matches_fd():
    rng = np.random.default_rng(8)
    dim, n, heads = 8, 4, 2
    p = _self_attn_params(rng, dim)
    q = rng.normal(size=(n, 2, dim))
    pos = rng.normal(size=(n, 2, dim))
    mix = rng.normal(size=(n, 2, dim))
    out, cache = self_attention_fwd(q, pos, p, heads)
    grads = _zero_grads(p)
    dq, dpos = self_attention_bwd(mix, cache, grads)
    assert set(grads) == set(p)

    def loss():
        return (self_attention_fwd(q, pos, p, heads)[0] * mix).sum()

    names = [("q", q), ("pos", pos)] + [(k, p[k]) for k in sorted(p)]
    analytic = [dq, dpos] + [grads[k] for k in sorted(p)]
    _fd_check(names, analytic, loss)


# ---------------------------------------------------------------------------
# deformable attention: scalar reference oracle
# ---------------------------------------------------------------------------

def _scalar_bilinear(fmap, u, v):
    """Independent single-point bilinear read with zero padding."""
    h, w = fmap.shape[:2]
    gx = u * w - 0.5
    gy = v * h - 0.5
    x0 = math.floor(gx)
    y0 = math.floor(gy)
    tx = gx - x0
    ty = gy - y0
    out = np.zeros(fmap.shape[2])
    for yy, xx, wt in (
        (y0, x0, (1 - ty) * (1 - tx)),
        (y0, x0 + 1, (1 - ty) * tx),
        (y0 + 1, x0, ty * (1 - tx)),
        (y0 + 1, x0 + 1, ty * tx),
    ):
        if 0 <= yy < h and 0 <= xx < w:
            out += wt * fmap[yy, xx]
    return out


def _scalar_deform(value_levels, locs, weights):
    """Per-query, per-head, per-level, per-point reference loop."""
    r, heads, n_levels, n_points, _ = locs.shape
    d = value_levels[0].shape[3]
    out = np.zeros((r, heads * d))
    for i in range(r):
        for hh in range(heads):
            acc = np.zeros(d)
            for l in range(n_levels):
                lev = value_levels[l][:, :, hh, :]
                for pp in range(n_points):
                    u, v = locs[i, hh, l, pp]
                    acc += weights[i, hh, l, pp] * _scalar_bilinear(lev, u, v)
            out[i, hh * d:(hh + 1) * d] = acc
    return out


def _random_instance(rng):
    heads = int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    n_levels = int(rng.integers(1, 4))
    n_points = int(rng.integers(1, 4))
    r = int(rng.integers(1, 6))
    value_levels = [
        rng.normal(size=(int(rng.integers(2, 7)), int(rng.integers(2, 7)), heads, d))
        for _ in range(n_levels)
    ]
    # include out-of-bounds points so the zero padding is exercised
    locs = rng.uniform(-0.4, 1.4, (r, heads, n_levels, n_points, 2))
    weights = rng.dirichlet(np.ones(n_levels * n_points), (r, heads)).reshape(
        r, heads, n_levels, n_points
    )
    return value_levels, locs, weights


# Dense-read thresholds for the kernel tests: every level gathered, levels of
# up to 12 pixels dense and larger ones gathered (levels of 4 to 36 pixels
# make most instances mixed), every level dense.
DENSE_CHOICES = (0, 12, DENSE_PIXELS)


def _core_read(value_levels, locs, weights, dense_pixels):
    """`deform_core_fwd` with every level adding into one new output:
    ((R, heads * head_dim) output, cache)."""
    out = np.zeros(locs.shape[:2] + value_levels[0].shape[-1:])
    cache = deform_core_fwd(value_levels, locs, weights, [out] * len(value_levels), dense_pixels)
    return out.reshape(locs.shape[0], -1), cache


def _core_grads(dout, cache):
    """`deform_core_bwd` of an (R, heads * head_dim) gradient of `_core_read`:
    (dlevels, dlocs, dweights)."""
    dout = dout.reshape(cache.locs.shape[:2] + (-1,))
    dlevels = [np.zeros_like(lev) for lev in cache.value_levels]
    return (dlevels,) + deform_core_bwd([dout] * len(dlevels), cache, dlevels)


def test_deform_core_matches_scalar_reference_50_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        value_levels, locs, weights = _random_instance(rng)
        slow = _scalar_deform(value_levels, locs, weights)
        for dense_pixels in DENSE_CHOICES:
            fast, _ = _core_read(value_levels, locs, weights, dense_pixels)
            assert np.abs(fast - slow).max() <= 1e-10


def test_deform_core_backward_matches_fd():
    # 4 x 5 and 3 x 2 levels: gathered, the second dense (mixed), both dense
    for shapes, dense_pixels in (([(4, 5), (4, 5)], 0), ([(4, 5), (3, 2)], 6),
                                 ([(4, 5), (4, 5)], DENSE_PIXELS)):
        rng = np.random.default_rng(9)
        heads, d, n_levels, n_points, r = 2, 3, 2, 2, 3
        value_levels = [rng.normal(size=(h, w, heads, d)) for h, w in shapes]
        locs = rng.uniform(0.05, 0.95, (r, heads, n_levels, n_points, 2))
        weights = rng.dirichlet(np.ones(n_levels * n_points), (r, heads)).reshape(
            r, heads, n_levels, n_points
        )
        mix = rng.normal(size=(r, heads * d))
        out, cache = _core_read(value_levels, locs, weights, dense_pixels)
        dlevels, dlocs, dweights = _core_grads(mix, cache)

        def loss():
            return (_core_read(value_levels, locs, weights, dense_pixels)[0]
                    * mix).sum()

        names = [("lev0", value_levels[0]), ("lev1", value_levels[1]),
                 ("locs", locs), ("weights", weights)]
        analytic = [dlevels[0], dlevels[1], dlocs, dweights]
        _fd_check(names, analytic, loss)


def _arrays(obj):
    """Every numpy array inside nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def test_deform_core_keeps_no_per_point_samples():
    # default width at 64 px, parallel decoder: 340 memory rows + 68 queries
    rng = np.random.default_rng(10)
    heads, d, n_levels, n_points, r = 8, 32, 4, 4, 408
    layout = PyramidLayout.for_image(64, n_levels)
    value_levels = [rng.normal(size=(h, w, heads, d)) for h, w in layout.levels]
    locs = rng.uniform(-0.1, 1.1, (r, heads, n_levels, n_points, 2))
    weights = rng.dirichlet(np.ones(n_levels * n_points), (r, heads)).reshape(
        r, heads, n_levels, n_points
    )
    dout = rng.normal(size=(r, heads * d))
    per_point = r * heads * n_levels * n_points * d
    # every level gathered; 16 x 16 gathered and the rest dense; all dense
    for dense_pixels in (0, 64, DENSE_PIXELS):
        tracemalloc.start()
        try:
            _, cache = _core_read(value_levels, locs, weights, dense_pixels)
            _, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            live, _ = tracemalloc.get_traced_memory()
            _core_grads(dout, cache)
            _, bwd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not [a.shape for a in _arrays(cache) if a.size == per_point]
        # an array of per_point float64 values, cached or temporary, would
        # alone lift either pass's peak past this
        assert fwd_peak < per_point * 8
        assert bwd_peak - live < per_point * 8


# ---------------------------------------------------------------------------
# sampling fields and the full block
# ---------------------------------------------------------------------------

def _deform_params(rng, cfg):
    k = cfg.heads * cfg.levels * cfg.points
    return {
        "w_off": rng.normal(size=(cfg.dim, k * 2)) * 0.1,
        "b_off": rng.normal(size=k * 2) * 0.05,
        "w_wgt": rng.normal(size=(cfg.dim, k)) * 0.1,
        "b_wgt": rng.normal(size=k) * 0.05,
        "w_val": rng.normal(size=(cfg.dim, cfg.dim)) * 0.3,
        "b_val": rng.normal(size=cfg.dim) * 0.1,
        "w_out": rng.normal(size=(cfg.dim, cfg.dim)) * 0.3,
        "b_out": rng.normal(size=cfg.dim) * 0.1,
        "ln_g": 1.0 + 0.1 * rng.normal(size=cfg.dim),
        "ln_b": 0.1 * rng.normal(size=cfg.dim),
    }


def test_sampling_fields_weights_normalized_per_head():
    rng = np.random.default_rng(10)
    cfg = _block_config(points=3)
    p = _deform_params(rng, cfg)
    x = rng.normal(size=(4, 8))
    locs, weights, _ = sampling_fields(x, rng.uniform(0, 1, (4, 2)), p, cfg)
    assert locs.shape == (4, 2, 2, 3, 2)
    assert weights.shape == (4, 2, 2, 3)
    # each head's weights over its level*point slots form a distribution
    npt.assert_allclose(weights.sum(axis=(2, 3)), 1.0, atol=1e-12)


def test_sampling_fields_zero_projection_uniform():
    cfg = _block_config()
    p = {"w_off": np.zeros((8, 16)), "b_off": np.zeros(16),
         "w_wgt": np.zeros((8, 8)), "b_wgt": np.zeros(8)}
    x = np.random.default_rng(0).normal(size=(3, 8))
    refs = np.random.default_rng(1).uniform(0, 1, (3, 2))
    locs, weights, _ = sampling_fields(x, refs, p, cfg)
    # zero offsets: every point sits at its reference point
    npt.assert_array_equal(locs, np.broadcast_to(refs[:, None, None, None], locs.shape))
    npt.assert_allclose(weights, 1.0 / 4.0)


def _memory_fixture(rng, cfg, batch=1):
    return rng.normal(size=(cfg.layout.total_len * batch, cfg.dim))


def _ffn_params(rng, dim):
    return {
        "w1": rng.normal(size=(dim, 4 * dim)) * 0.3,
        "b1": rng.normal(size=4 * dim) * 0.1,
        "w2": rng.normal(size=(4 * dim, dim)) * 0.3,
        "b2": rng.normal(size=dim) * 0.1,
        "ln_g": 1.0 + 0.1 * rng.normal(size=dim),
        "ln_b": 0.1 * rng.normal(size=dim),
    }


def _block_config(points=2) -> ModelConfig:
    """A basic decoder of width 8, 2 heads and 2 levels of 4 and 8 channels
    over 32 px images, without self-attention: its layer is the deformable
    block, i.e. the sample-then-project read, residual + layer norm, FFN."""
    return ModelConfig(dim=8, heads=2, levels=2, points=points, image_side=32,
                       stage_channels=(4, 8), self_attention=False)


def _features_fixture(rng, cfg, batch=1):
    """The basic read's memory for `batch` images: one (h, w, B, ch_l)
    feature array per level and the stacked level projections, the rows of
    each W_l and then each b_l."""
    feats = [rng.normal(size=(h, w, batch, c))
             for (h, w), c in zip(cfg.layout.levels, cfg.stage_channels)]
    proj = rng.normal(size=(sum(cfg.stage_channels) + cfg.levels, cfg.dim)) * 0.3
    return feats, proj


def _projected_memory(feats, proj, cfg):
    """The (M * B, C) memory rows the basic read reads without building:
    feat_l @ W_l + b_l, level after level, row m of image b at m * B + b."""
    blocks, row = [], 0
    for l, f in enumerate(feats):
        c = f.shape[-1]
        blocks.append(f.reshape(-1, c) @ proj[row:row + c] + proj[l - cfg.levels])
        row += c
    return np.concatenate(blocks)


def _block_fwd(x, refs, state, p, ffn_p, cfg):
    """The decoder layer of `cfg`, a `_block_config`, on (N, B, C) queries x
    at reference points refs over the (feats, proj) memory `state`: its
    output and a cache for `_block_bwd`."""
    lp = {"deform": p, "ffn": ffn_p}
    out, mem_next, cache = _layer_fwd(x, refs, state, None, lp, None, cfg)
    assert mem_next is state  # the basic read passes the memory through
    return out, (cache, cfg, state)


def _block_bwd(dout, cache):
    """(dx, drefs, dfeats, dproj, dparams, dffn) of `_block_fwd`; dproj
    holds each image's gradient of the stacked projections."""
    layer_cache, block, (feats, proj) = cache
    flat, grads = flat_views(param_shapes(block))
    flat.fill(0.0)
    dstate = ([np.zeros(f.shape) for f in feats], np.zeros((feats[0].shape[2],) + proj.shape))
    # no self-attention and a basic read: no query_pos or level_emb gradient
    dx, drefs, dstate = _layer_bwd(dout, dstate, None, None,
                                   _layer_params(grads, 0, block), layer_cache, block)

    def group(name):
        pre = f"layers.0.{name}."
        return {k[len(pre):]: v for k, v in grads.items() if k.startswith(pre)}
    return (dx, drefs) + dstate + (group("deform"), group("ffn"))


def test_full_deformable_block_backward_matches_fd():
    rng = np.random.default_rng(11)
    cfg = _block_config()
    p = _deform_params(rng, cfg)
    ffn_p = _ffn_params(rng, 8)
    # two images: (rows, B, C) queries against their features
    feats, proj = state = _features_fixture(rng, cfg, batch=2)
    x = rng.normal(size=(4, 2, 8))
    refs = rng.uniform(0.2, 0.8, (4, 2, 2))
    mix = rng.normal(size=(4, 2, 8))
    out, cache = _block_fwd(x, refs, state, p, ffn_p, cfg)
    assert out.shape == (4, 2, 8)
    dx, drefs, dfeats, dproj, dp, dffn = _block_bwd(mix, cache)
    assert set(dp) == set(p)
    assert set(dffn) == set(ffn_p)

    def loss():
        out2, _ = _block_fwd(x, refs, state, p, ffn_p, cfg)
        return (out2 * mix).sum()

    names = [("x", x), ("refs", refs), ("proj", proj)]
    names += [(f"feats[{l}]", f) for l, f in enumerate(feats)]
    names += [(f"p.{k}", p[k]) for k in sorted(p)]
    names += [(f"ffn.{k}", ffn_p[k]) for k in sorted(ffn_p)]
    analytic = [dx, drefs, dproj.sum(axis=0)] + dfeats
    analytic += [dp[k] for k in sorted(p)]
    analytic += [dffn[k] for k in sorted(ffn_p)]
    _fd_check(names, analytic, loss, n=4)


def _project_first_block(x, refs, memory, p, ffn_p, cfg, dout):
    """The block with every memory row projected before the read: output
    and (dx, drefs, dmemory, dparams, dffn)."""
    levels, cv = project_value(memory, cfg.layout, p, cfg)
    attn, cp = deform_project_fwd(x, refs, levels, p, cfg)
    z, cln = layer_norm_fwd(x + attn, p["ln_g"], p["ln_b"])
    out, cffn = ffn_fwd(z, ffn_p)
    dp, dffn = _zero_grads(p), _zero_grads(ffn_p)
    dz = ffn_bwd(dout, cffn, dffn)
    dsum = layer_norm_bwd(dz, cln, dp["ln_g"], dp["ln_b"])
    dvalue = np.zeros((cfg.layout.total_len, x.shape[1], cfg.dim))
    dx, drefs = deform_project_bwd(
        dsum, cp, dp, level_views(dvalue, cfg.layout, cfg.dim // cfg.heads))
    dmem = project_value_bwd(dvalue, cv, dp)
    return out, (dx + dsum, drefs, dmem, dp, dffn)


def _assert_rel_close(a, b, name):
    scale = np.abs(b).max()
    npt.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def test_sample_then_project_matches_project_first():
    # 3 images of 5 queries; reference points inside, on the border and far
    # outside [0, 1] so that in-bounds corner masses run from 0 to 1.  The
    # read of the features through the composed maps equals projecting the
    # memory rows feat_l @ W_l + b_l and then every value row.
    rng = np.random.default_rng(16)
    cfg = _block_config(points=3)
    p = _deform_params(rng, cfg)
    ffn_p = _ffn_params(rng, 8)
    feats, proj = state = _features_fixture(rng, cfg, batch=3)
    x = rng.normal(size=(5, 3, 8))
    x[0] *= 0.1  # small offsets around the center
    refs = rng.uniform(-0.6, 1.6, (5, 3, 2))
    refs[0] = 0.5
    refs[1] = [-3.0, 0.5]
    dout = rng.normal(size=(5, 3, 8))
    out, cache = _block_fwd(x, refs, state, p, ffn_p, cfg)
    # each level's mass closes the read's stacked columns; sum over the levels
    masses = cache[0].read.agg[..., -cfg.levels:].sum(axis=-1)
    assert masses.min() < 1e-12 and masses.max() > 0.99
    assert ((masses > 0.05) & (masses < 0.95)).any()
    dx, drefs, dfeats, dproj, dp, dffn = _block_bwd(dout, cache)
    memory = _projected_memory(feats, proj, cfg)
    ref_out, (ref_dx, ref_drefs, dmem, ref_dp, ref_dffn) = _project_first_block(
        x, refs, memory, p, ffn_p, cfg, dout)
    # the memory gradient taken back through each level's projection
    ref_dfeats, ref_dproj, row = [], np.zeros(proj.shape), 0
    # level l's rows of the (M * 3, C) memory of three images
    slices = [slice(3 * sl.start, 3 * sl.stop) for sl in cfg.layout.block_slices()]
    for l, (f, sl) in enumerate(zip(feats, slices)):
        c = f.shape[-1]
        ref_dfeats.append((dmem[sl] @ proj[row:row + c].T).reshape(f.shape))
        ref_dproj[row:row + c] = f.reshape(-1, c).T @ dmem[sl]
        ref_dproj[l - cfg.levels] = dmem[sl].sum(axis=0)
        row += c
    _assert_rel_close(out, ref_out, "out")
    _assert_rel_close(dx, ref_dx, "dx")
    _assert_rel_close(drefs, ref_drefs, "drefs")
    _assert_rel_close(dproj.sum(axis=0), ref_dproj, "dproj")
    for l, (got, want) in enumerate(zip(dfeats, ref_dfeats)):
        _assert_rel_close(got, want, f"dfeats[{l}]")
    for got, want in ((dp, ref_dp), (dffn, ref_dffn)):
        assert set(got) == set(want)
        for k in want:
            _assert_rel_close(got[k], want[k], k)


def test_deformable_block_chunk_of_three_equals_single_images():
    # one GEMM per image, head and level, gradients summed per image and
    # then over the images in order: a chunk gives a per-image loop's bits
    rng = np.random.default_rng(17)
    cfg = _block_config()
    p = _deform_params(rng, cfg)
    ffn_p = _ffn_params(rng, 8)
    feats, proj = state = _features_fixture(rng, cfg, batch=3)
    x = rng.normal(size=(4, 3, 8))
    refs = rng.uniform(-0.2, 1.2, (4, 3, 2))
    dout = rng.normal(size=(4, 3, 8))
    out, cache = _block_fwd(x, refs, state, p, ffn_p, cfg)
    dx, drefs, dfeats, dproj, dp, dffn = _block_bwd(dout, cache)
    dp_sum = dffn_sum = None
    for b in range(3):
        sl = slice(b, b + 1)
        state_b = ([np.ascontiguousarray(f[:, :, sl]) for f in feats], proj)
        out_b, cache_b = _block_fwd(x[:, sl], refs[:, sl], state_b, p, ffn_p, cfg)
        npt.assert_array_equal(out[:, sl], out_b)
        dx_b, drefs_b, dfeats_b, dproj_b, dp_b, dffn_b = _block_bwd(dout[:, sl], cache_b)
        npt.assert_array_equal(dx[:, sl], dx_b)
        npt.assert_array_equal(drefs[:, sl], drefs_b)
        for got, want in zip(dfeats, dfeats_b):
            npt.assert_array_equal(got[:, :, sl], want)
        npt.assert_array_equal(dproj[sl], dproj_b)
        dp_sum = dp_b if dp_sum is None else {k: dp_sum[k] + dp_b[k] for k in dp_b}
        dffn_sum = dffn_b if dffn_sum is None else {k: dffn_sum[k] + dffn_b[k] for k in dffn_b}
    for got, want in ((dp, dp_sum), (dffn, dffn_sum)):
        for k in want:
            npt.assert_array_equal(got[k], want[k], err_msg=k)


def test_deform_project_row_mismatch_raises():
    rng = np.random.default_rng(12)
    cfg = _block_config()
    p = _deform_params(rng, cfg)
    memory = _memory_fixture(rng, cfg)
    value_levels, _ = project_value(memory, cfg.layout, p, cfg)
    with pytest.raises(ValueError):
        deform_project_fwd(
            rng.normal(size=(3, 8)), rng.uniform(0, 1, (2, 2)), value_levels, p, cfg
        )


def test_project_value_round_trip_gradient():
    rng = np.random.default_rng(13)
    cfg = _block_config()
    p = _deform_params(rng, cfg)
    memory = _memory_fixture(rng, cfg)
    value_levels, cache = project_value(memory, cfg.layout, p, cfg)
    assert [lev.shape for lev in value_levels] == [(8, 8, 2, 4), (4, 4, 2, 4)]
    dv = np.zeros((cfg.layout.total_len, 1, 8))
    dlevels = level_views(dv, cfg.layout, 4)
    for dlev in dlevels:
        dlev[...] = rng.normal(size=dlev.shape)
    grads = _zero_grads(p)
    dmem = project_value_bwd(dv, cache, grads)
    # value projection is linear, so the gradient identity is exact
    dvalue = np.concatenate([d.reshape(-1, 8) for d in dlevels], axis=0)
    npt.assert_allclose(dmem, dvalue @ p["w_val"].T, atol=1e-12)
    npt.assert_allclose(grads["w_val"], memory.T @ dvalue, atol=1e-12)


def test_value_levels_fold_images_into_heads():
    # memory row m of image b is row m * B + b; image b's head k is head
    # b * heads + k of the level view, and the view is no copy
    rng = np.random.default_rng(15)
    cfg = _block_config()
    p = _deform_params(rng, cfg)
    memory = _memory_fixture(rng, cfg, batch=3)
    levels, _ = project_value(memory, cfg.layout, p, cfg)
    assert [lev.shape for lev in levels] == [(8, 8, 6, 4), (4, 4, 6, 4)]
    assert all(lev.base is not None for lev in levels)
    for b in range(3):
        one, _ = project_value(memory[b::3], cfg.layout, p, cfg)
        for lev, lev_b in zip(levels, one):
            npt.assert_array_equal(lev[:, :, 2 * b:2 * b + 2], lev_b)
