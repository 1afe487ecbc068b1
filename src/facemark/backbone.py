"""Small strided CNN that turns an image into a multi-scale feature pyramid,
plus the per-level 1x1 projections that flatten the pyramid into the memory
matrix consumed by the attention layers.

Images come as a channel-first float stack (B, 3, side, side) with values
in [0, 1].  Stage i halves the grid once (the first stage twice), so level
l has stride `geometry.level_stride(l)` and the finest level sits first in
the flattened memory.  The memory of the B images is one (M * B, dim)
matrix whose row m * B + b is memory row m of image b.  `backbone_rows`
declares the parameters, as the rows that `decoder.param_rows` starts with.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .attention import linear_bwd, linear_fwd, relu_fwd
from .errors import ConfigError
from .params import Params, Row

if TYPE_CHECKING:
    from .decoder import ModelConfig


IN_CHANNELS = 3  # RGB


def backbone_rows(cfg: ModelConfig) -> list[Row]:
    """(path, shape, init) of each backbone and level-projection parameter,
    in draw order."""
    rows = []
    cin = IN_CHANNELS
    for i, cout in enumerate(cfg.stage_channels):
        pre = f"backbone.s{i + 1}"
        rows += [(f"{pre}.conva.w", (cout, cin, 3, 3), "glorot"),
                 (f"{pre}.conva.b", (cout,), "zeros"),
                 (f"{pre}.convb.w", (cout, cout, 3, 3), "glorot"),
                 (f"{pre}.convb.b", (cout,), "zeros")]
        cin = cout
    for i, c in enumerate(cfg.stage_channels):
        rows += [(f"project.l{i + 1}.w", (c, cfg.dim), "glorot"),
                 (f"project.l{i + 1}.b", (cfg.dim,), "zeros")]
    return rows


# ---------------------------------------------------------------------------
# 3x3 convolution, padding 1, via im2col
# ---------------------------------------------------------------------------

ConvCache = namedtuple("ConvCache", "cols w stride in_shape out_hw")


def conv2d_fwd(x, w, b, stride):
    """Convolve a (B, cin, h, w) stack: one zero-padded copy, one im2col and
    one batched matmul holding each image's GEMM.  Returns (B, cout, ho, wo),
    laid out channels-last in memory."""
    bsz, cin, hi, wi = x.shape
    cout = w.shape[0]
    # padded channels-last, the layout a previous conv's output has in memory
    xp = np.zeros((bsz, hi + 2, wi + 2, cin))
    xp[:, 1:-1, 1:-1] = x.transpose(0, 2, 3, 1)
    ho, wo = (hi - 1) // stride + 1, (wi - 1) // stride + 1
    sb, sy, sx, sc = xp.strides
    # every 3x3 window as one view, (B, ho, wo, cin, 3, 3); the reshape
    # copies it into rows of (cin, ky, kx) columns
    win = as_strided(xp, (bsz, ho, wo, cin, 3, 3),
                     (sb, sy * stride, sx * stride, sc, sy, sx), writeable=False)
    cols = win.reshape(bsz, ho * wo, cin * 9)
    out = np.matmul(cols, w.reshape(cout, -1).T)
    out += b
    out = out.reshape(bsz, ho, wo, cout).transpose(0, 3, 1, 2)
    return out, ConvCache(cols, w, stride, x.shape, (ho, wo))


def conv2d_bwd(dout, cache: ConvCache, gw, gb, input_grad=True):
    """The input gradient; the parameter gradients, which sum each image's
    positions and then the images in order, are added into gw and gb.
    With input_grad=False the input gradient is not computed and comes
    back as None."""
    cols, w, stride, (bsz, cin, hi, wi), (ho, wo) = cache
    cout = w.shape[0]
    dout3 = dout.reshape(bsz, cout, ho * wo)
    gw += np.add.reduce(np.matmul(dout3, cols), axis=0).reshape(w.shape)
    gb += np.add.reduce(np.add.reduce(dout3, axis=2), axis=0)
    if not input_grad:
        return None
    dcols = np.matmul(dout3.transpose(0, 2, 1), w.reshape(cout, -1))
    dcols = dcols.reshape(bsz, ho, wo, cin, 3, 3)
    dxp = np.zeros((bsz, cin, hi + 2, wi + 2))
    for ky in range(3):
        for kx in range(3):
            dxp[:, :, ky:ky + ho * stride:stride, kx:kx + wo * stride:stride] += (
                dcols[..., ky, kx].transpose(0, 3, 1, 2)
            )
    return dxp[:, :, 1:-1, 1:-1]


# ---------------------------------------------------------------------------
# Pyramid and memory assembly
# ---------------------------------------------------------------------------

StageCache = namedtuple("StageCache", "ca ma cb mb")
BackboneCache = namedtuple("BackboneCache", "stages projections layout batch")


def extract_memory(images, params: Params, cfg: ModelConfig):
    """Run the backbone and projections on a (B, 3, side, side) stack;
    return the (M * B, dim) memory and a cache.  Its rows follow
    `cfg.layout`.

    `params` is the full flat parameter dict; backbone entries live under
    the "backbone." and "project." prefixes.
    """
    side = cfg.image_side
    if images.ndim != 4 or images.shape[1:] != (IN_CHANNELS, side, side):
        raise ConfigError(
            f"model expects a stack of {IN_CHANNELS}-channel {side}x{side} images, "
            f"got shape {images.shape}"
        )
    bsz = images.shape[0]
    layout = cfg.layout
    # each level's projection writes its own rows of the memory, in
    # (row, col, image) order: memory row m of image b at m * B + b
    memory = np.empty((layout.total_len * bsz, cfg.dim))
    stages = []
    projections = []
    x = images
    for i, sl in enumerate(layout.block_slices(bsz)):
        pre = f"backbone.s{i + 1}"
        h1, ca = conv2d_fwd(x, params[f"{pre}.conva.w"], params[f"{pre}.conva.b"], 2)
        a1, ma = relu_fwd(h1)
        sb = 2 if i == 0 else 1
        h2, cb = conv2d_fwd(a1, params[f"{pre}.convb.w"], params[f"{pre}.convb.b"], sb)
        x, mb = relu_fwd(h2)
        stages.append(StageCache(ca, ma, cb, mb))
        _, ch, h, w = x.shape
        rows = x.transpose(2, 3, 0, 1).reshape(h * w, bsz, ch)
        _, lin = linear_fwd(rows, params[f"project.l{i + 1}.w"],
                            params[f"project.l{i + 1}.b"],
                            out=memory[sl].reshape(h * w, bsz, cfg.dim))
        projections.append((lin, (h, w)))
    return memory, BackboneCache(stages, projections, layout, bsz)


def extract_memory_bwd(ddata, cache: BackboneCache, grads: Params):
    """Backward through projections and stages.  Adds the parameter
    gradients, summed over the batch, into `grads` by full parameter path;
    the image gradient is never computed.
    """
    dfeats = []
    bsz = cache.batch
    for i, ((lin, (h, w)), sl) in enumerate(
        zip(cache.projections, cache.layout.block_slices(bsz))
    ):
        pre = f"project.l{i + 1}"
        drows = linear_bwd(ddata[sl].reshape(h * w, bsz, -1), lin,
                           grads[f"{pre}.w"], grads[f"{pre}.b"])
        dfeats.append(drows.reshape(h, w, bsz, -1).transpose(2, 3, 0, 1))
    dx = None
    for i in range(len(cache.stages) - 1, -1, -1):
        pre = f"backbone.s{i + 1}"
        st = cache.stages[i]
        d = dfeats[i] if dx is None else dfeats[i] + dx
        d = d * st.mb
        da1 = conv2d_bwd(d, st.cb, grads[f"{pre}.convb.w"], grads[f"{pre}.convb.b"])
        da1 = da1 * st.ma
        dx = conv2d_bwd(da1, st.ca, grads[f"{pre}.conva.w"], grads[f"{pre}.conva.b"],
                        input_grad=i > 0)
