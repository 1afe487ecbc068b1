"""Multi-head self-attention over landmark queries and multi-scale
deformable attention over the image pyramid.

Every operation comes as a forward returning (output, cache) and a backward
consuming (dout, cache) and the gradient views of the parameters the forward
read: two views for a primitive, the block's {name: view} dict for a block,
keyed like its parameters.  A backward adds each parameter's gradient into
its view with one `+=` and returns only input gradients.

Shapes: B images run together.  Queries are (N, B, C), query row n of
image b; the parallel decoder's memory of all B images is one (M * B, C)
matrix with a PyramidLayout, memory row m of image b at row m * B + b.
Linear maps, layer norms and the FFN act on the last axis.  On an (R, B, C) stack a
linear map is one batched matmul holding one (R, C) product per image,
and every parameter gradient sums each image's rows first and then the
images in order.  So each image sees exactly the arithmetic it would see
alone, and a chunk of B images gives the bits of B single-image calls and
of their gradient sum.  (One GEMM over all B * R rows would not: BLAS may
sum a row in another order when the row count changes.)  A weight gradient
over more than _SUM_ROWS rows adds blocks of _SUM_ROWS rows in order, so
that its bits do not depend on the BLAS thread count either.
Self-attention mixes the N queries of each image only.  The deformable
functions take the decoder's `ModelConfig` for their head, level and point
counts.

A weight gradient that lands directly in the flat gradient buffer goes
through `add_weight_grad` (`linear_bwd`'s, and `backbone.conv2d_bwd`'s).
Nothing later in the backward reads it, so while `WEIGHT_GRADS` is set the
product runs as a task on the training worker (`training`), off the
backward's critical path; unset, the same helper runs inline.  The worker
runs its tasks in the order they were queued, so each parameter receives
its adds in the order of a serial loop.  `linear_bwd` takes no other kind
of view, so every product it forms is deferrable; a product into a
per-image intermediate that the backward reads later, such as the level
projections' in `backbone.extract_memory_bwd`, is formed where it is read,
inline.

The deformable core (bilinear reads weighted by the softmaxed attention
weights, summed per head) is the fused `geometry.bilinear_sample_many` and
its backward, each called once per pass through `deform_core_fwd`/`_bwd`.
Both reads hand the core arrays they own, one per level, to add into:
level l's reads in the forward, its map gradient in the backward.  The
core's cache holds the kernel's corner table, which records how each level
was read, rather than any per-point read.  The images fold into the
kernel's head axis.  The decoder layer's read comes in two orders.  The
parallel decoder projects every memory row first (`project_value`, then
`deform_project_fwd`) and views the value tensor of level l, without a
copy, as (h_l, w_l, B * heads, head_dim) (`level_views`): image b's head k
is head b * heads + k, and the sampling locations (R, B * heads, levels,
points, 2) follow the same fold.  Every level adds into one shared output,
and its gradient into the level views of one value gradient.  This read
asks the kernel for dense reads of the levels of at most DENSE_PIXELS
pixels (one GEMM per image and head instead of a gather/scatter).  The
basic decoder's read (`_sample_project_fwd`) keeps the gather on every
level and builds no memory: it samples each level's ch_l-wide backbone
features into that level's own output (and back into their gradient),
and maps what its queries read through the level projection composed with
the value projection; see the comment above `_bias_mass`.
"""

from __future__ import annotations

import contextvars
from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    DENSE_PIXELS,
    PyramidLayout,
    bilinear_sample_many,
    bilinear_sample_many_backward,
)

if TYPE_CHECKING:
    from .decoder import ModelConfig


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _sum_rows(a):
    """Sum an (R, C) array over its rows, or an (R, B, C) stack over each
    image's rows and then over the images in order."""
    a = np.add.reduce(a, axis=0)
    return np.add.reduce(a, axis=0) if a.ndim == 2 else a


# A product that sums over more rows than this adds blocks of this many
# rows, in order.  OpenBLAS may split a longer sum another way when the number
# of threads changes, which moves the last bits (seen for 388-412, 1224 and
# 5508 rows); blocks of 256 rows give the same bits at 1 and 2 threads.
# Measured on OpenBLAS's Haswell kernel only; other CPUs' are untested.
_SUM_ROWS = 256


def _matmul_rows(a, b):
    """a @ b over stacks (..., m, R) and (..., R, k), the sum over R taken in
    blocks of _SUM_ROWS rows, added in order."""
    if a.shape[-1] <= _SUM_ROWS:
        return np.matmul(a, b)
    out = np.matmul(a[..., :_SUM_ROWS], b[..., :_SUM_ROWS, :])
    for r0 in range(_SUM_ROWS, a.shape[-1], _SUM_ROWS):
        out += np.matmul(a[..., r0:r0 + _SUM_ROWS], b[..., r0:r0 + _SUM_ROWS, :])
    return out


# The function that queues a task on the training worker, while
# `training.batch_loss_and_grads` runs one beside its backward.
WEIGHT_GRADS = contextvars.ContextVar("WEIGHT_GRADS", default=None)


def add_weight_grad(product, gw, *args):
    """Run product(gw, *args), which adds a weight gradient into gw, a view
    of the flat gradient buffer: here, or queued on the training worker
    while `WEIGHT_GRADS` is set.  The arrays in args must not change
    afterwards."""
    submit = WEIGHT_GRADS.get()
    if submit is None:
        product(gw, *args)
    else:
        submit(product, gw, *args)


def _linear_weight_grad(gw, x3, dout_b):
    dws = _matmul_rows(x3.transpose(1, 2, 0), dout_b)
    gw += dws[0] if len(dws) == 1 else np.add.reduce(dws, axis=0)


def linear_fwd(x, w, b, out=None):
    """x @ w + b over the last axis of (R, C) rows or an (R, B, C) stack,
    as one matmul call holding one (R, C) @ (C, K) product per image.  The
    products land in `out`, an (R, B, K) array, if given, else in a new
    C-ordered one, and the bias is added there in place."""
    x3 = x.reshape(x.shape[0], -1, x.shape[-1])
    y = np.empty(x3.shape[:2] + w.shape[1:]) if out is None else out
    np.matmul(x3.transpose(1, 0, 2), w, out=y.transpose(1, 0, 2))
    y += b
    return y.reshape(x.shape[:-1] + w.shape[1:]), (x3, w)


def linear_bwd(dout, cache, gw, gb):
    """The input gradient; adds the weight and bias gradients, summed over
    the images, into gw (through `add_weight_grad`) and gb."""
    x3, w = cache
    dout_b = dout.reshape(x3.shape[:2] + w.shape[1:]).transpose(1, 0, 2)
    dx = np.matmul(dout_b, w.T).transpose(1, 0, 2)
    add_weight_grad(_linear_weight_grad, gw, x3, dout_b)
    gb += _sum_rows(dout)
    return dx.reshape(dout.shape[:-1] + w.shape[:1])


def relu_fwd(x):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_bwd(dout, mask):
    return dout * mask


LN_EPS = 1e-5


def layer_norm_fwd(x, gain, bias, eps=LN_EPS):
    # the sums, divisions and squares of ndarray.mean and .var, with the
    # centred rows computed once for both the variance and xhat
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return gain * xhat + bias, (xhat, inv, gain)


def layer_norm_bwd(dout, cache, gg, gb):
    xhat, inv, gain = cache
    n = xhat.shape[-1]
    dxhat = dout * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= n
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    m2 /= n
    gg += _sum_rows(dout * xhat)
    gb += _sum_rows(dout)
    return inv * (dxhat - m1 - xhat * m2)


def softmax(z):
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_bwd(dout, y):
    return y * (dout - np.add.reduce(dout * y, axis=-1, keepdims=True))


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


def ffn_bwd(dout, cache, g):
    dsum = layer_norm_bwd(dout, cache.ln, g["ln_g"], g["ln_b"])
    da = linear_bwd(dsum, cache.lin2, g["w2"], g["b2"])
    dh = relu_bwd(da, cache.mask)
    return linear_bwd(dh, cache.lin1, g["w1"], g["b1"]) + dsum


# ---------------------------------------------------------------------------
# Self-attention over landmark queries
# ---------------------------------------------------------------------------

SelfAttnCache = namedtuple(
    "SelfAttnCache", "cq ck cv co attn v_h q_h k_h heads head_dim ln"
)


def _split_heads(x, heads):
    """(N, B, C) -> (B, heads, N, head_dim), a view."""
    n, b, dim = x.shape
    return x.reshape(n, b, heads, dim // heads).transpose(1, 2, 0, 3)


def _merge_heads(x_h):
    """(B, heads, N, head_dim) -> (N, B, C)."""
    b, heads, n, d = x_h.shape
    return x_h.transpose(2, 0, 1, 3).reshape(n, b, heads * d)


def self_attention_fwd(q_in, query_pos, p, heads):
    """Scaled-dot-product multi-head attention with query = key = Q + P and
    value = Q, followed by residual addition and layer normalization.

    q_in is (N, B, C): each image's N queries attend to each other only.
    query_pos broadcasts against it, e.g. (N, 1, C).
    """
    n, _, dim = q_in.shape
    if n == 0:
        raise ValueError("self_attention: empty query matrix")
    d = dim // heads
    qk_in = q_in + query_pos
    q, cq = linear_fwd(qk_in, p["wq"], p["bq"])
    k, ck = linear_fwd(qk_in, p["wk"], p["bk"])
    v, cv = linear_fwd(q_in, p["wv"], p["bv"])
    q_h = _split_heads(q, heads)
    k_h = _split_heads(k, heads)
    v_h = _split_heads(v, heads)
    scores = q_h @ k_h.swapaxes(-1, -2) / np.sqrt(d)
    attn = softmax(scores)
    merged = _merge_heads(attn @ v_h)
    y, co = linear_fwd(merged, p["wo"], p["bo"])
    out, cln = layer_norm_fwd(q_in + y, p["ln_g"], p["ln_b"])
    return out, SelfAttnCache(cq, ck, cv, co, attn, v_h, q_h, k_h, heads, d, cln)


def self_attention_bwd(dout, cache, g):
    """Returns (dq_in, dpos); dpos is (N, B, C), the gradient of the
    query_pos term per image, for the caller to reduce to its shape."""
    heads, d = cache.heads, cache.head_dim
    dsum = layer_norm_bwd(dout, cache.ln, g["ln_g"], g["ln_b"])
    dmerged = linear_bwd(dsum, cache.co, g["wo"], g["bo"])
    dmerged_h = _split_heads(dmerged, heads)
    dattn = dmerged_h @ cache.v_h.swapaxes(-1, -2)
    dv_h = cache.attn.swapaxes(-1, -2) @ dmerged_h
    dscores = softmax_bwd(dattn, cache.attn) / np.sqrt(d)
    dq = _merge_heads(dscores @ cache.k_h)
    dk = _merge_heads(dscores.swapaxes(-1, -2) @ cache.q_h)
    dv = _merge_heads(dv_h)
    dqk = linear_bwd(dq, cache.cq, g["wq"], g["bq"]) + linear_bwd(dk, cache.ck, g["wk"], g["bk"])
    dvin = linear_bwd(dv, cache.cv, g["wv"], g["bv"])
    return dqk + dvin + dsum, dqk


# ---------------------------------------------------------------------------
# Multi-scale deformable attention
# ---------------------------------------------------------------------------

def level_views(rows, layout: PyramidLayout, head_dim):
    """Each level of an (M, B, C) array as an (h, w, B * heads, head_dim) view."""
    return [rows[sl].reshape(h, w, -1, head_dim)
            for (h, w), sl in zip(layout.levels, layout.block_slices())]


def project_value(memory_data, layout: PyramidLayout, p, cfg: ModelConfig):
    """Project the (M * B, C) memory rows of B images: the `level_views` of
    the (M, B, C) value, and the cache."""
    rows = memory_data.reshape(layout.total_len, -1, memory_data.shape[-1])
    value, lin = linear_fwd(rows, p["w_val"], p["b_val"])
    return level_views(value, layout, cfg.dim // cfg.heads), lin


def project_value_bwd(dvalue, cache, g):
    """The (M * B, C) memory rows' gradient, given the (M, B, C) value's."""
    return linear_bwd(dvalue, cache, g["w_val"], g["b_val"]).reshape(-1, dvalue.shape[-1])


FieldCache = namedtuple("FieldCache", "coff cwgt beta lead")


def sampling_fields(x, refs, p, cfg: ModelConfig):
    """Sampling locations and softmaxed attention weights of query rows x
    at reference points refs.

    x is (..., C) and refs (..., 2); the locations, refs plus predicted
    offsets, come out (..., heads, levels, points, 2) and the weights
    (..., heads, levels, points).  Offsets are normalized-image-coordinate
    displacements shared across the levels' common frame; weights are
    softmaxed per head over its levels*points slots.
    """
    if x.shape[:-1] != refs.shape[:-1]:
        raise ValueError(
            f"deformable attention: {x.shape[:-1]} query rows but "
            f"{refs.shape[:-1]} reference points"
        )
    lead = x.shape[:-1]
    off_flat, coff = linear_fwd(x, p["w_off"], p["b_off"])
    offsets = off_flat.reshape(lead + (cfg.heads, cfg.levels, cfg.points, 2))
    wgt_flat, cwgt = linear_fwd(x, p["w_wgt"], p["b_wgt"])
    beta = softmax(wgt_flat.reshape(lead + (cfg.heads, cfg.levels * cfg.points)))
    weights = beta.reshape(lead + (cfg.heads, cfg.levels, cfg.points))
    return refs[..., None, None, None, :] + offsets, weights, FieldCache(coff, cwgt, beta, lead)


def sampling_fields_bwd(dlocs, dweights, cache: FieldCache, g):
    """Returns (dx, drefs)."""
    drefs = np.add.reduce(dlocs, axis=(-4, -3, -2))
    dbeta = dweights.reshape(cache.beta.shape)
    dwgt_flat = softmax_bwd(dbeta, cache.beta).reshape(cache.lead + (-1,))
    dx_w = linear_bwd(dwgt_flat, cache.cwgt, g["w_wgt"], g["b_wgt"])
    dx_o = linear_bwd(dlocs.reshape(cache.lead + (-1,)), cache.coff, g["w_off"], g["b_off"])
    return dx_o + dx_w, drefs


CoreCache = namedtuple("CoreCache", "value_levels locs weights table")


def deform_core_fwd(value_levels, locs, weights, outs, dense_pixels=0):
    """Weighted sum of bilinear reads from the per-level value tensors.

    value_levels: per level (h, w, heads, d_l)
    locs:         (R, heads, levels, points, 2) normalized sampling points
    weights:      (R, heads, levels, points), already softmaxed
    outs:         per level an (R, heads, d_l) array that level l's reads
                  are added into; levels may share one array
    Returns the cache.  Levels of at most `dense_pixels` pixels are read by
    GEMM (see `bilinear_sample_many`).
    """
    table = bilinear_sample_many(value_levels, locs, weights, outs, dense_pixels)
    return CoreCache(value_levels, locs, weights, table)


def deform_core_bwd(douts, cache: CoreCache, dlevels):
    """douts holds the (R, heads, d_l) gradient of the forward's outs[l] at
    l.  Adds level l's map gradient into dlevels[l], shaped like the level;
    returns (dlocs, dweights)."""
    return bilinear_sample_many_backward(cache.value_levels, cache.weights, cache.table, douts,
                                         dlevels)


DeformCache = namedtuple("DeformCache", "fields core cout")


def deform_project_fwd(x_rows, refs_rows, value_levels, p, cfg: ModelConfig):
    """Sampling-field prediction + deformable read + head merge + output
    projection for an arbitrary set of query rows (pre-residual output).

    x_rows (R, B, C) and refs_rows (R, B, 2) read the (h, w, B * heads,
    head_dim) value levels of `project_value`; every level adds into one
    (R, B * heads, head_dim) output.
    """
    locs, weights, cf = sampling_fields(x_rows, refs_rows, p, cfg)
    # fold the images into the head axis: a reshape of a fresh array
    locs = locs.reshape((x_rows.shape[0], -1) + locs.shape[-3:])
    merged = np.zeros(locs.shape[:2] + value_levels[0].shape[-1:])
    cc = deform_core_fwd(value_levels, locs, weights.reshape(locs.shape[:-1]),
                         [merged] * len(value_levels), DENSE_PIXELS)
    y, co = linear_fwd(merged.reshape(x_rows.shape), p["w_out"], p["b_out"])
    return y, DeformCache(cf, cc, co)


def deform_project_bwd(dout, cache: DeformCache, g, dlevels):
    """Returns (dx, drefs); adds level l's value gradient into dlevels[l],
    e.g. the `level_views` of the value gradient."""
    dmerged = linear_bwd(dout, cache.cout, g["w_out"], g["b_out"])
    dmerged = dmerged.reshape(cache.core.locs.shape[:2] + (-1,))
    dlocs, dweights = deform_core_bwd([dmerged] * len(dlevels), cache.core, dlevels)
    dlocs = dlocs.reshape(cache.fields.lead + (-1,) + dlocs.shape[2:])
    return sampling_fields_bwd(dlocs, dweights, cache.fields, g)


# ---------------------------------------------------------------------------
# The basic decoder's read: sample backbone features, then project
# ---------------------------------------------------------------------------
# Memory row m of level l would be feat_l[m] @ W_l + b_l (the level
# projection `project.l{l+1}`), and in the basic decoder nothing but this read
# and the query init reads the memory.  The bilinear reads, the attention
# weights and both projections are linear, so head k reads level l's raw
# ch_l-wide backbone features and maps what it read once:
#
#     value_k = sum_l agg_lk @ U_lk + mass_lk * e_lk,
#     U_lk = W_l @ W_val[:, k],   e_lk = b_l @ W_val[:, k] + b_val[k],
#
# where W_val[:, k] are head k's value columns, agg_lk is the weighted sum of
# the features that head k reads on level l and mass_lk the sum of their
# in-bounds corner weights (zero padding applies to the projected value,
# biases included).  The U_lk and e_lk are one GEMM per layer over the
# stacked projections (`backbone.stack_projections`: the rows of every W_l,
# then every b_l); the memory is never built.  What a head read is laid out
# the same way, as one row [agg_1k, ..., agg_Lk, mass_1k, ..., mass_Lk], so
# its value is one GEMM per image and head.  The kernel reads level l as
# (h, w, B, ch_l), without a copy: its head b is image b, its query rows are
# the (query, head) pairs, (N * heads, B, ...), and each level adds into its
# own output, which the row joins.

def _bias_mass(table, weights):
    """Per kernel row, head and level, the sum over the level's points of
    point weight * in-bounds bilinear mass (wy0 + wy1) * (wx0 + wx1)."""
    sy, sx = np.add.reduce(table.wy, axis=0), np.add.reduce(table.wx, axis=0)
    return np.add.reduce(weights * sy * sx, axis=-1)


def _bias_mass_bwd(dmass, cache: CoreCache, dlocs, dweights):
    """Add the gradient of `_bias_mass` w.r.t. the points and the point
    weights into dlocs and dweights."""
    table = cache.table
    sy, sx = np.add.reduce(table.wy, axis=0), np.add.reduce(table.wx, axis=0)
    g = dmass[..., None]
    dweights += g * sy * sx
    g = g * cache.weights
    # d(wy0 + wy1)/dty = oky1 - oky0, and dty/dy = h (dtx/dx = w)
    h, w = np.array([lev.shape[:2] for lev in cache.value_levels], dtype=np.float64).T
    dlocs[..., 0] += g * sy * (table.okx[1] * 1.0 - table.okx[0]) * w[:, None]
    dlocs[..., 1] += g * sx * (table.oky[1] * 1.0 - table.oky[0]) * h[:, None]


SampleCache = namedtuple("SampleCache", "fields core agg u proj w_val cout")


def _sample_project_fwd(x, refs, feats, proj, p, cfg: ModelConfig):
    """Pre-residual deformable attention of (N, B, C) queries x at (N, B, 2)
    reference points over the backbone features of B images: `feats` holds
    each level's (h, w, B, ch_l) array and `proj` the stacked level
    projections."""
    n, bsz, dim = x.shape
    heads = cfg.heads
    locs, weights, cf = sampling_fields(x, refs, p, cfg)
    # (N, B, heads, ...) -> (N * heads, B, ...)
    locs = locs.swapaxes(1, 2).reshape((n * heads, bsz) + locs.shape[3:])
    weights = weights.swapaxes(1, 2).reshape(locs.shape[:-1])
    # what each (query, head) read, in the order of the stacked rows: every
    # level's features side by side, then each level's mass
    outs = [np.zeros(locs.shape[:2] + f.shape[-1:]) for f in feats]
    cc = deform_core_fwd(feats, locs, weights, outs)
    agg = np.concatenate(outs + [_bias_mass(cc.table, weights)], axis=-1)
    # (B, heads, N, rows) view: one GEMM per image and head
    agg = agg.reshape(n, heads, bsz, -1).transpose(2, 1, 0, 3)
    # the stacked rows mapped by w_val, b_val added to the bias rows, split
    # into heads: each U_l's rows, then each e_l, (heads, rows, head_dim)
    u = np.matmul(proj, p["w_val"])
    u[-len(feats):] += p["b_val"]
    u = u.reshape(len(proj), heads, -1).transpose(1, 0, 2)
    value = np.matmul(agg, u)
    merged = value.transpose(2, 0, 1, 3).reshape(n, bsz, dim)
    y, co = linear_fwd(merged, p["w_out"], p["b_out"])
    return y, SampleCache(cf, cc, agg, u, proj, p["w_val"], co)


def _sample_project_bwd(dout, cache: SampleCache, g, dfeats, dproj):
    """Returns (dx, drefs).  Adds each level's feature gradient into the
    (h, w, B, ch_l) array of dfeats, and each image's gradient of the
    stacked projections into dproj, (B, rows, dim)."""
    dmerged = linear_bwd(dout, cache.cout, g["w_out"], g["b_out"])
    n, bsz, dim = dmerged.shape
    heads = cache.u.shape[0]
    dvalue = dmerged.reshape(n, bsz, heads, -1).transpose(1, 2, 0, 3)
    # per image and head: the gradient of the mapped rows and of the read;
    # dagg is taken as (rows, N), whose bits held at 2 BLAS threads where
    # the (N, rows) product's did not
    du = np.matmul(cache.agg.swapaxes(-1, -2), dvalue)
    dagg = np.matmul(cache.u, dvalue.swapaxes(-1, -2)).swapaxes(-1, -2)
    # each image's (rows, dim) gradient back through the composition, then
    # the images in order
    du = du.transpose(0, 2, 1, 3).reshape(bsz, -1, dim)
    g["w_val"] += np.add.reduce(_matmul_rows(cache.proj.T, du), axis=0)
    g["b_val"] += np.add.reduce(np.add.reduce(du[:, -len(dfeats):], axis=1), axis=0)
    dproj += _matmul_rows(du, cache.w_val.T)
    dagg = dagg.transpose(2, 1, 0, 3).reshape(n * heads, bsz, -1)
    # each level's columns, then the masses'
    douts, row = [], 0
    for f in dfeats:
        douts.append(dagg[..., row:row + f.shape[-1]])
        row += f.shape[-1]
    dlocs, dweights = deform_core_bwd(douts, cache.core, dfeats)
    _bias_mass_bwd(dagg[..., row:], cache.core, dlocs, dweights)
    # (N * heads, B, ...) -> (N, B, heads, ...)
    dlocs = dlocs.reshape((n, heads) + dlocs.shape[1:]).swapaxes(1, 2)
    dweights = dweights.reshape((n, heads) + dweights.shape[1:]).swapaxes(1, 2)
    return sampling_fields_bwd(
        np.ascontiguousarray(dlocs), np.ascontiguousarray(dweights), cache.fields, g)
