"""The basic decoder's read of backbone features against the read it
replaced, which sampled the (M * B, dim) memory rows and projected what it
read.

The replaced read lives here only, as a reference: `_memory_read_fwd/_bwd`
and the whole-model pass around them (`_memory_model`).  The two reads
differ in summation order only, so every stage output and parameter
gradient agrees within 1e-12 relative.
"""

import dataclasses
from collections import namedtuple

import numpy as np
import pytest

from facemark.attention import (
    deform_core_bwd,
    deform_core_fwd,
    ffn_bwd,
    ffn_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    linear_bwd,
    linear_fwd,
    sampling_fields,
    sampling_fields_bwd,
    self_attention_bwd,
    self_attention_fwd,
)
from facemark.backbone import extract_memory, extract_memory_bwd
from facemark.decoder import (
    TINY,
    ModelConfig,
    _head_bwd,
    _head_fwd,
    _layer_params,
    backward,
    forward,
    init_params,
    param_shapes,
)
from facemark.geometry import sigmoid
from facemark.params import flat_views

# ---------------------------------------------------------------------------
# the replaced read: sample raw memory rows, then project
# ---------------------------------------------------------------------------

_MemoryReadCache = namedtuple("_MemoryReadCache", "fields core slices agg mass w_h b_h cout")


def _memory_mass(table, weights):
    sy, sx = np.add.reduce(table.wy, axis=0), np.add.reduce(table.wx, axis=0)
    return np.add.reduce(weights * sy * sx, axis=(-2, -1))


def _memory_mass_bwd(dmass, cache, dlocs, dweights):
    table = cache.table
    sy, sx = np.add.reduce(table.wy, axis=0), np.add.reduce(table.wx, axis=0)
    g = dmass[..., None, None]
    dweights += g * sy * sx
    g = g * cache.weights
    h, w = np.array([lev.shape[:2] for lev in cache.value_levels], dtype=np.float64).T
    dlocs[..., 0] += g * sy * (table.okx[1] * 1.0 - table.okx[0]) * w[:, None]
    dlocs[..., 1] += g * sx * (table.oky[1] * 1.0 - table.oky[0]) * h[:, None]


def _memory_read_fwd(x, refs, memory, p, cfg):
    n, bsz, dim = x.shape
    locs, weights, cf = sampling_fields(x, refs, p, cfg)
    locs = locs.swapaxes(1, 2).reshape((n * cfg.heads, bsz) + locs.shape[3:])
    weights = weights.swapaxes(1, 2).reshape(locs.shape[:-1])
    # level l's rows of the (M * bsz, dim) memory
    slices = [slice(bsz * sl.start, bsz * sl.stop) for sl in cfg.layout.block_slices()]
    levels = [memory[sl].reshape(h, w, bsz, dim) for (h, w), sl in zip(cfg.layout.levels, slices)]
    agg = np.zeros(locs.shape[:2] + (dim,))
    cc = deform_core_fwd(levels, locs, weights, [agg] * len(levels))
    agg = agg.reshape(n, cfg.heads, bsz, dim).transpose(2, 1, 0, 3)
    mass = _memory_mass(cc.table, weights).reshape(n, cfg.heads, bsz).T
    mass = np.ascontiguousarray(mass)[..., None]
    w_h = p["w_val"].reshape(dim, cfg.heads, -1).transpose(1, 0, 2)
    b_h = p["b_val"].reshape(cfg.heads, 1, -1)
    value = np.matmul(agg, w_h)
    value += mass * b_h
    merged = value.transpose(2, 0, 1, 3).reshape(n, bsz, dim)
    y, co = linear_fwd(merged, p["w_out"], p["b_out"])
    return y, _MemoryReadCache(cf, cc, slices, agg, mass, w_h, b_h, co)


def _memory_read_bwd(dout, cache, g, dmemory):
    dmerged = linear_bwd(dout, cache.cout, g["w_out"], g["b_out"])
    n, bsz, dim = dmerged.shape
    heads = cache.w_h.shape[0]
    dvalue = dmerged.reshape(n, bsz, heads, -1).transpose(1, 2, 0, 3)
    dw_h = np.add.reduce(np.matmul(cache.agg.swapaxes(-1, -2), dvalue), axis=0)
    db_h = np.add.reduce(np.matmul(cache.mass.swapaxes(-1, -2), dvalue), axis=0)
    g["w_val"] += dw_h.transpose(1, 0, 2).reshape(dim, dim)
    g["b_val"] += db_h.reshape(dim)
    dagg = np.matmul(dvalue, cache.w_h.swapaxes(-1, -2))
    dmass = np.matmul(dvalue, cache.b_h.swapaxes(-1, -2))
    dagg = dagg.transpose(2, 1, 0, 3).reshape(n * heads, bsz, dim)
    dlevels = [dmemory[sl].reshape(lev.shape)
               for sl, lev in zip(cache.slices, cache.core.value_levels)]
    dlocs, dweights = deform_core_bwd([dagg] * len(dlevels), cache.core, dlevels)
    dmass = dmass.reshape(bsz, heads, n).T.reshape(n * heads, bsz)
    _memory_mass_bwd(dmass, cache.core, dlocs, dweights)
    dlocs = dlocs.reshape((n, heads) + dlocs.shape[1:]).swapaxes(1, 2)
    dweights = dweights.reshape((n, heads) + dweights.shape[1:]).swapaxes(1, 2)
    return sampling_fields_bwd(
        np.ascontiguousarray(dlocs), np.ascontiguousarray(dweights), cache.fields, g)


def _memory_model(params, images, cfg, dys):
    """Stage outputs (B, N, 2) and parameter gradients of the basic model
    whose layers read the (M * B, dim) memory rows."""
    bsz = images.shape[0]
    mem, c_bb = extract_memory(images, params, cfg)
    h, w = cfg.layout.levels[-1]
    if cfg.learned_query_init:
        m_last = mem[len(mem) - h * w * bsz:].reshape(-1, bsz, cfg.dim)
        q = np.matmul(params["query_init.w"].T, m_last.transpose(1, 0, 2))
        q = (q + params["query_init.b"][:, None]).transpose(1, 0, 2)
    else:
        q = np.broadcast_to(params["query_embed"][:, None], (cfg.num_landmarks, bsz, cfg.dim))
    pos = params["query_pos"][:, None] if cfg.self_attention else None
    logits, c_init = linear_fwd(q, params["landmark_init.w"], params["landmark_init.b"])
    ys, caches = [sigmoid(logits)], []
    for t in range(cfg.num_layers):
        lp = _layer_params(params, t, cfg)
        c_sa = None
        if cfg.self_attention:
            q, c_sa = self_attention_fwd(q, pos, lp["self_attn"], cfg.heads)
        attn, c_r = _memory_read_fwd(q, ys[-1], mem, lp["deform"], cfg)
        z, c_ln = layer_norm_fwd(q + attn, lp["deform"]["ln_g"], lp["deform"]["ln_b"])
        q, c_f = ffn_fwd(z, lp["ffn"])
        delta, c_head = _head_fwd(q, lp["head"])
        logits = logits + delta
        ys.append(sigmoid(logits))
        caches.append((c_sa, c_r, c_ln, c_f, c_head))

    flat, grads = flat_views(param_shapes(cfg))
    flat.fill(0.0)
    dys = [dy.transpose(1, 0, 2) for dy in dys]
    drefs = np.zeros_like(ys[0])
    dlogits = np.zeros_like(ys[0])
    dq = np.zeros(ys[0].shape[:2] + (cfg.dim,))
    dmem = np.zeros(mem.shape)
    dpos = np.zeros_like(dq)
    for t in range(cfg.num_layers - 1, -1, -1):
        c_sa, c_r, c_ln, c_f, c_head = caches[t]
        dlogits = dlogits + (dys[t + 1] + drefs) * ys[t + 1] * (1.0 - ys[t + 1])
        lg = _layer_params(grads, t, cfg)
        dq = dq + _head_bwd(dlogits, c_head, lg["head"])
        dz = ffn_bwd(dq, c_f, lg["ffn"])
        dsum = layer_norm_bwd(dz, c_ln, lg["deform"]["ln_g"], lg["deform"]["ln_b"])
        dq, drefs = _memory_read_bwd(dsum, c_r, lg["deform"], dmem)
        dq = dsum + dq
        if c_sa is not None:
            dq, dpos_t = self_attention_bwd(dq, c_sa, lg["self_attn"])
            dpos += dpos_t
    dlogits = dlogits + (dys[0] + drefs) * ys[0] * (1.0 - ys[0])
    dq0 = dq + linear_bwd(dlogits, c_init, grads["landmark_init.w"], grads["landmark_init.b"])
    dq0 = np.ascontiguousarray(dq0.transpose(1, 0, 2))
    if cfg.learned_query_init:
        grads["query_init.w"] += np.matmul(
            m_last.transpose(1, 0, 2), dq0.transpose(0, 2, 1)).sum(axis=0)
        grads["query_init.b"] += dq0.sum(axis=2).sum(axis=0)
        dlast = dmem[len(dmem) - h * w * bsz:].reshape(m_last.shape)
        dlast += np.matmul(params["query_init.w"], dq0).transpose(1, 0, 2)
    else:
        grads["query_embed"] += dq0.sum(axis=0)
    if cfg.self_attention:
        grads["query_pos"] += dpos.sum(axis=1)
    extract_memory_bwd(dmem, c_bb, grads, [np.zeros(f.shape) for f in c_bb.feats],
                       np.zeros((bsz, sum(cfg.stage_channels) + cfg.levels, cfg.dim)))
    return [y.transpose(1, 0, 2) for y in ys], grads


# ---------------------------------------------------------------------------
# the feature read against it
# ---------------------------------------------------------------------------

def _jittered_params(cfg, seed):
    """Initial parameters with noise on the zero-initialized heads and
    sampling fields, so every stage moves and reads off the pixel grid."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    for path, v in params.items():
        v += rng.normal(0.0, 0.5 if path.endswith("w_wgt") else 0.02, v.shape)
    return params


def _assert_close_at_group_scale(got, want):
    """Each array within 1e-12 of its parameter group's largest entry.  A
    self-attention key bias has a gradient that is zero in exact arithmetic
    (the softmax ignores it), so its computed values are rounding noise and
    only its group gives it a scale."""
    scale = {}
    for path, v in want.items():
        group = path.rsplit(".", 1)[0]
        scale[group] = max(scale.get(group, 0.0), float(np.abs(v).max()))
    for path in want:
        diff = float(np.abs(got[path] - want[path]).max())
        assert diff <= 1e-12 * scale[path.rsplit(".", 1)[0]], path


@pytest.mark.parametrize("scale, bsz", [("tiny", 1), ("tiny", 3), ("default", 1), ("default", 3)])
def test_feature_read_matches_the_memory_read(scale, bsz):
    cfg = TINY if scale == "tiny" else ModelConfig()
    params = _jittered_params(cfg, seed=4)
    rng = np.random.default_rng(5)
    images = rng.uniform(0.0, 1.0, (bsz, 3, cfg.image_side, cfg.image_side))
    ys, cache = forward(params, images, cfg)
    dys = [rng.normal(size=y.shape) for y in ys]
    flat, grads = flat_views(param_shapes(cfg))
    flat.fill(0.0)
    backward(dys, params, cfg, cache, grads)
    ref_ys, ref_grads = _memory_model(params, images, cfg, dys)
    # the stages move, so the reads reach the outputs
    assert np.abs(ys[-1] - ys[0]).max() > 1e-3
    for y, ref in zip(ys, ref_ys):
        assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()
    assert set(grads) == set(ref_grads)
    assert all(ref_grads[f"project.l{l + 1}.w"].any() for l in range(cfg.levels))
    _assert_close_at_group_scale(grads, ref_grads)


def test_feature_read_matches_the_memory_read_for_every_tiny_flavor():
    for flags in ({"self_attention": False}, {"learned_query_init": False}):
        cfg = dataclasses.replace(TINY, **flags)
        params = _jittered_params(cfg, seed=6)
        rng = np.random.default_rng(7)
        images = rng.uniform(0.0, 1.0, (2, 3, 32, 32))
        ys, cache = forward(params, images, cfg)
        dys = [rng.normal(size=y.shape) for y in ys]
        flat, grads = flat_views(param_shapes(cfg))
        flat.fill(0.0)
        backward(dys, params, cfg, cache, grads)
        ref_ys, ref_grads = _memory_model(params, images, cfg, dys)
        for y, ref in zip(ys, ref_ys):
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()
        _assert_close_at_group_scale(grads, ref_grads)
