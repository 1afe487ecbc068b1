"""Multi-head self-attention over landmark queries and multi-scale
deformable attention over the flattened pyramid memory.

Every operation comes as a forward returning (output, cache) and a backward
consuming (dout, cache).  Backwards return input gradients plus a dict of
parameter gradients keyed like the local parameter dict, so callers can
re-prefix them into the flat model gradient buffer.

Shapes: queries are (N, C); the memory is (M, C) with a PyramidLayout; the
value tensor of level l is viewed as (h_l, w_l, heads, head_dim).  The
deformable read and its scatter-back are `geometry.bilinear_sample_many` and
its backward, each called once per pass with the list of value levels; this
module keeps the attention-weight contractions around them.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (
    PyramidLayout,
    bilinear_sample_many,
    bilinear_sample_many_backward,
)


@dataclass(frozen=True)
class AttentionConfig:
    """Head/level/point geometry shared by both attention flavors."""

    dim: int
    heads: int
    levels: int
    points: int  # sampling points per head per level

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if min(self.heads, self.levels, self.points) < 1:
            raise ConfigError("heads, levels and points must all be >= 1")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def total_points(self) -> int:
        """Memory reads per query per layer."""
        return self.heads * self.levels * self.points


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def linear_fwd(x, w, b):
    return x @ w + b, (x, w)


def linear_bwd(dout, cache):
    x, w = cache
    return dout @ w.T, {"w": x.T @ dout, "b": dout.sum(axis=0)}


def relu_fwd(x):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_bwd(dout, mask):
    return dout * mask


LN_EPS = 1e-5


def layer_norm_fwd(x, gain, bias, eps=LN_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv, gain)


def layer_norm_bwd(dout, cache):
    xhat, inv, gain = cache
    dxhat = dout * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, {"g": (dout * xhat).sum(axis=0), "b": dout.sum(axis=0)}


def softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_bwd(dout, y):
    return y * (dout - (dout * y).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Feed-forward block: linear -> rectifier -> linear, residual + layer norm
# ---------------------------------------------------------------------------

FfnCache = namedtuple("FfnCache", "lin1 mask lin2 ln")


def ffn_fwd(x, p):
    h, c1 = linear_fwd(x, p["w1"], p["b1"])
    a, mask = relu_fwd(h)
    y, c2 = linear_fwd(a, p["w2"], p["b2"])
    out, cln = layer_norm_fwd(x + y, p["ln_g"], p["ln_b"])
    return out, FfnCache(c1, mask, c2, cln)


def ffn_bwd(dout, cache):
    dsum, dln = layer_norm_bwd(dout, cache.ln)
    da, d2 = linear_bwd(dsum, cache.lin2)
    dh = relu_bwd(da, cache.mask)
    dx, d1 = linear_bwd(dh, cache.lin1)
    dparams = {
        "w1": d1["w"], "b1": d1["b"], "w2": d2["w"], "b2": d2["b"],
        "ln_g": dln["g"], "ln_b": dln["b"],
    }
    return dx + dsum, dparams


# ---------------------------------------------------------------------------
# Self-attention over landmark queries
# ---------------------------------------------------------------------------

SelfAttnCache = namedtuple(
    "SelfAttnCache", "cq ck cv co attn v_h q_h k_h heads head_dim ln"
)


def self_attention_fwd(q_in, query_pos, p, heads):
    """Scaled-dot-product multi-head attention with query = key = Q + P and
    value = Q, followed by residual addition and layer normalization.
    """
    n, dim = q_in.shape
    if n == 0:
        raise ValueError("self_attention: empty query matrix")
    d = dim // heads
    qk_in = q_in + query_pos
    q, cq = linear_fwd(qk_in, p["wq"], p["bq"])
    k, ck = linear_fwd(qk_in, p["wk"], p["bk"])
    v, cv = linear_fwd(q_in, p["wv"], p["bv"])
    # (N, C) -> (heads, N, head_dim)
    q_h = q.reshape(n, heads, d).transpose(1, 0, 2)
    k_h = k.reshape(n, heads, d).transpose(1, 0, 2)
    v_h = v.reshape(n, heads, d).transpose(1, 0, 2)
    scores = q_h @ k_h.transpose(0, 2, 1) / np.sqrt(d)
    attn = softmax(scores)
    merged = (attn @ v_h).transpose(1, 0, 2).reshape(n, dim)
    y, co = linear_fwd(merged, p["wo"], p["bo"])
    out, cln = layer_norm_fwd(q_in + y, p["ln_g"], p["ln_b"])
    return out, SelfAttnCache(cq, ck, cv, co, attn, v_h, q_h, k_h, heads, d, cln)


def self_attention_bwd(dout, cache):
    heads, d = cache.heads, cache.head_dim
    dsum, dln = layer_norm_bwd(dout, cache.ln)
    dmerged, do = linear_bwd(dsum, cache.co)
    n, dim = dmerged.shape
    dmerged_h = dmerged.reshape(n, heads, d).transpose(1, 0, 2)
    dattn = dmerged_h @ cache.v_h.transpose(0, 2, 1)
    dv_h = cache.attn.transpose(0, 2, 1) @ dmerged_h
    dscores = softmax_bwd(dattn, cache.attn) / np.sqrt(d)
    dq_h = dscores @ cache.k_h
    dk_h = dscores.transpose(0, 2, 1) @ cache.q_h
    dq = dq_h.transpose(1, 0, 2).reshape(n, dim)
    dk = dk_h.transpose(1, 0, 2).reshape(n, dim)
    dv = dv_h.transpose(1, 0, 2).reshape(n, dim)
    dqk1, dq_p = linear_bwd(dq, cache.cq)
    dqk2, dk_p = linear_bwd(dk, cache.ck)
    dvin, dv_p = linear_bwd(dv, cache.cv)
    dqk = dqk1 + dqk2
    dq_in = dqk + dvin + dsum
    dpos = dqk
    dparams = {
        "wq": dq_p["w"], "bq": dq_p["b"], "wk": dk_p["w"], "bk": dk_p["b"],
        "wv": dv_p["w"], "bv": dv_p["b"], "wo": do["w"], "bo": do["b"],
        "ln_g": dln["g"], "ln_b": dln["b"],
    }
    return dq_in, dpos, dparams


# ---------------------------------------------------------------------------
# Multi-scale deformable attention
# ---------------------------------------------------------------------------

ValueCache = namedtuple("ValueCache", "lin layout shapes")


def project_value(memory_data, layout: PyramidLayout, p, cfg: AttentionConfig):
    """Project the memory rows and view each level as (h, w, heads, head_dim)."""
    value, lin = linear_fwd(memory_data, p["w_val"], p["b_val"])
    levels = []
    shapes = []
    for (h, w, _), sl in zip(layout.levels, layout.block_slices()):
        levels.append(value[sl].reshape(h, w, cfg.heads, cfg.head_dim))
        shapes.append((h, w))
    return levels, ValueCache(lin, layout, shapes)


def project_value_bwd(dlevels, cache: ValueCache):
    m = cache.lin[0].shape[0]
    dvalue = np.empty((m, dlevels[0].shape[2] * dlevels[0].shape[3]))
    for dlev, (h, w), sl in zip(dlevels, cache.shapes, cache.layout.block_slices()):
        dvalue[sl] = dlev.reshape(h * w, -1)
    dmemory, dp = linear_bwd(dvalue, cache.lin)
    return dmemory, {"w_val": dp["w"], "b_val": dp["b"]}


FieldCache = namedtuple("FieldCache", "coff cwgt beta shape")


def sampling_fields(x, p, cfg: AttentionConfig):
    """Predict per-row sampling offsets and softmaxed attention weights.

    Offsets are normalized-image-coordinate displacements shared across the
    levels' common frame; weights are softmaxed per head over its
    levels*points slots.
    """
    r = x.shape[0]
    off_flat, coff = linear_fwd(x, p["w_off"], p["b_off"])
    offsets = off_flat.reshape(r, cfg.heads, cfg.levels, cfg.points, 2)
    wgt_flat, cwgt = linear_fwd(x, p["w_wgt"], p["b_wgt"])
    beta = softmax(wgt_flat.reshape(r, cfg.heads, cfg.levels * cfg.points))
    weights = beta.reshape(r, cfg.heads, cfg.levels, cfg.points)
    return offsets, weights, FieldCache(coff, cwgt, beta, (r, cfg))


def sampling_fields_bwd(doffsets, dweights, cache: FieldCache):
    r, cfg = cache.shape
    dbeta = dweights.reshape(r, cfg.heads, cfg.levels * cfg.points)
    dwgt_flat = softmax_bwd(dbeta, cache.beta).reshape(r, -1)
    dx_w, dwp = linear_bwd(dwgt_flat, cache.cwgt)
    dx_o, dop = linear_bwd(doffsets.reshape(r, -1), cache.coff)
    dparams = {
        "w_off": dop["w"], "b_off": dop["b"],
        "w_wgt": dwp["w"], "b_wgt": dwp["b"],
    }
    return dx_o + dx_w, dparams


CoreCache = namedtuple("CoreCache", "value_levels locs weights sampled")


def deform_core_fwd(value_levels, locs, weights):
    """Weighted sum of bilinear reads from the per-level value tensors.

    value_levels: per level (h, w, heads, head_dim)
    locs:         (R, heads, levels, points, 2) normalized sampling points
    weights:      (R, heads, levels, points), already softmaxed
    Returns (R, heads * head_dim).
    """
    sampled = bilinear_sample_many(value_levels, locs)
    out = np.einsum("rhlp,rhlpd->rhd", weights, sampled)
    return out.reshape(locs.shape[0], -1), CoreCache(value_levels, locs, weights, sampled)


def deform_core_bwd(dout, cache: CoreCache):
    value_levels, locs, weights, sampled = cache
    r, heads = locs.shape[:2]
    dout_h = dout.reshape(r, heads, -1)
    dweights = np.einsum("rhd,rhlpd->rhlp", dout_h, sampled)
    dsampled = np.einsum("rhlp,rhd->rhlpd", weights, dout_h)
    dlevels, dlocs = bilinear_sample_many_backward(value_levels, locs, dsampled)
    return dlevels, dlocs, dweights


DeformCache = namedtuple("DeformCache", "fields core cout nrows")


def deform_project_fwd(x_rows, refs_rows, value_levels, p, cfg: AttentionConfig):
    """Sampling-field prediction + deformable read + head merge + output
    projection for an arbitrary set of query rows (pre-residual output).
    """
    if x_rows.shape[0] != refs_rows.shape[0]:
        raise ValueError(
            f"deformable attention: {x_rows.shape[0]} query rows but "
            f"{refs_rows.shape[0]} reference points"
        )
    offsets, weights, cf = sampling_fields(x_rows, p, cfg)
    locs = refs_rows[:, None, None, None, :] + offsets
    merged, cc = deform_core_fwd(value_levels, locs, weights)
    y, co = linear_fwd(merged, p["w_out"], p["b_out"])
    return y, DeformCache(cf, cc, co, x_rows.shape[0])


def deform_project_bwd(dout, cache: DeformCache):
    dmerged, dop = linear_bwd(dout, cache.cout)
    dlevels, dlocs, dweights = deform_core_bwd(dmerged, cache.core)
    drefs = dlocs.sum(axis=(1, 2, 3))
    dx, dfp = sampling_fields_bwd(dlocs, dweights, cache.fields)
    dparams = {"w_out": dop["w"], "b_out": dop["b"], **dfp}
    return dx, drefs, dlevels, dparams


FullDeformCache = namedtuple("FullDeformCache", "value proj ln ffn")


def deformable_attention_fwd(x, refs, memory_data, layout, p, ffn_p, cfg):
    """Full deformable-attention block for landmark queries: sampling-field
    read of the projected memory, residual + layer norm, then the
    feed-forward block.  Returns the updated query matrix.
    """
    value_levels, cv = project_value(memory_data, layout, p, cfg)
    attn, cp = deform_project_fwd(x, refs, value_levels, p, cfg)
    z, cln = layer_norm_fwd(x + attn, p["ln_g"], p["ln_b"])
    out, cffn = ffn_fwd(z, ffn_p)
    return out, FullDeformCache(cv, cp, cln, cffn)


def deformable_attention_bwd(dout, cache: FullDeformCache):
    dz, dffn_p = ffn_bwd(dout, cache.ffn)
    dsum, dln = layer_norm_bwd(dz, cache.ln)
    dx_attn, drefs, dlevels, dp = deform_project_bwd(dsum, cache.proj)
    dmemory, dvp = project_value_bwd(dlevels, cache.value)
    dx = dx_attn + dsum
    dparams = {**dp, **dvp, "ln_g": dln["g"], "ln_b": dln["b"]}
    return dx, drefs, dmemory, dparams, dffn_p
