"""Small strided CNN that turns an image into a multi-scale feature pyramid,
plus the per-level 1x1 projections that flatten the pyramid into memory
rows.

Images come as a channel-first float stack (B, 3, side, side) with values
in [0, 1].  Stage i halves the grid once (the first stage twice), so level
l has stride `geometry.level_stride(l)` and the finest level sits first in
the flattened memory.  The memory of the B images is one (M * B, dim)
matrix whose row m * B + b is memory row m of image b; the parallel decoder
reads it whole.  The basic decoder reads each level's features instead, as
an (h, w, B, ch) array, through `stack_projections`, and projects only the
last level's rows for its query init.  Both decoders' backward hands
`extract_memory_bwd` the features' gradients and each image's gradient of
that stack, which it adds the memory rows' gradients into.  `backbone_rows`
declares the parameters, as the rows that `decoder.param_rows` starts with.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .attention import _matmul_rows, add_weight_grad, linear_fwd, relu_fwd
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


def _conv_weight_grad(gw, dout3, cols):
    gw += np.add.reduce(np.matmul(dout3, cols), axis=0).reshape(gw.shape)


def conv2d_bwd(dout, cache: ConvCache, gw, gb, input_grad=True):
    """The input gradient; the parameter gradients, which sum each image's
    positions and then the images in order, are added into gw (through
    `attention.add_weight_grad`) and gb.
    With input_grad=False the input gradient is not computed and comes
    back as None."""
    cols, w, stride, (bsz, cin, hi, wi), (ho, wo) = cache
    cout = w.shape[0]
    dout3 = dout.reshape(bsz, cout, ho * wo)
    add_weight_grad(_conv_weight_grad, gw, dout3, cols)
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
BackboneCache = namedtuple("BackboneCache", "stages feats projections first")


def extract_memory(images, params: Params, cfg: ModelConfig, first: int = 0):
    """Run the backbone stages on a (B, 3, side, side) stack and project
    levels first, first + 1, ... into memory rows; return the (M' * B, dim)
    memory of those levels, laid out as `cfg.layout` lays them out, and a
    cache.  The cache's `feats` holds every level's features, each an
    (h, w, B, ch) array whose [i, j, b] is image b's pixel (i, j): the
    basic decoder reads these and asks only for the last level's rows.

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
    levels = cfg.layout.levels
    # each level's projection writes its own rows of the memory, in
    # (row, col, image) order: memory row m of image b at m * B + b
    memory = np.empty((sum(h * w for h, w in levels[first:]) * bsz, cfg.dim))
    stages, feats, projections = [], [], []
    x, row = images, 0
    for i, (h, w) in enumerate(levels):
        pre = f"backbone.s{i + 1}"
        h1, ca = conv2d_fwd(x, params[f"{pre}.conva.w"], params[f"{pre}.conva.b"], 2)
        a1, ma = relu_fwd(h1)
        sb = 2 if i == 0 else 1
        h2, cb = conv2d_fwd(a1, params[f"{pre}.convb.w"], params[f"{pre}.convb.b"], sb)
        x, mb = relu_fwd(h2)
        stages.append(StageCache(ca, ma, cb, mb))
        rows = x.transpose(2, 3, 0, 1).reshape(h * w, bsz, -1)
        feats.append(rows.reshape(h, w, bsz, -1))
        if i >= first:
            out = memory[row:row + h * w * bsz].reshape(h * w, bsz, cfg.dim)
            _, lin = linear_fwd(rows, params[f"project.l{i + 1}.w"],
                                params[f"project.l{i + 1}.b"], out=out)
            projections.append(lin)
            row += h * w * bsz
    return memory, BackboneCache(stages, feats, projections, first)


def extract_memory_bwd(ddata, cache: BackboneCache, grads: Params, dfeats, dproj):
    """Backward through projections and stages, given the gradient of the
    projected memory rows, `ddata`, and the caller's gradients of the
    features, `dfeats` (one (h, w, B, ch) array per level), and of
    `stack_projections`' matrix per image, `dproj` (B, rows, dim).  Each
    projected level's row gradient is added into its `dfeats` array and
    each image's projection gradient into `dproj`; then `dproj`'s sum over
    the images goes into `grads`, as do the stages' parameter gradients,
    one add per path.  The image gradient is never computed.
    """
    levels = len(cache.feats)
    row, first_row = 0, sum(f.shape[-1] for f in cache.feats[:cache.first])
    for i, (x3, wp) in enumerate(cache.projections, start=cache.first):
        h, w, bsz, ch = cache.feats[i].shape
        dout3 = ddata[row:row + h * w * bsz].reshape(h * w, bsz, -1)
        dout_b = dout3.transpose(1, 0, 2)
        # each image's product, which the sum over the images reads below
        dproj[:, first_row:first_row + ch] += _matmul_rows(x3.transpose(1, 2, 0), dout_b)
        dproj[:, i - levels] += np.add.reduce(dout3, axis=0)
        dfeats[i] += np.matmul(dout_b, wp.T).transpose(1, 0, 2).reshape(h, w, bsz, ch)
        row += h * w * bsz
        first_row += ch
    dstack, row = np.add.reduce(dproj, axis=0), 0
    for i, f in enumerate(cache.feats):
        ch = f.shape[-1]
        grads[f"project.l{i + 1}.w"] += dstack[row:row + ch]
        grads[f"project.l{i + 1}.b"] += dstack[i - levels]
        row += ch
    dx = None
    for i in range(len(cache.stages) - 1, -1, -1):
        pre = f"backbone.s{i + 1}"
        st = cache.stages[i]
        d = dfeats[i].transpose(2, 3, 0, 1)
        if dx is not None:
            d = d + dx
        d = d * st.mb
        da1 = conv2d_bwd(d, st.cb, grads[f"{pre}.convb.w"], grads[f"{pre}.convb.b"])
        da1 = da1 * st.ma
        dx = conv2d_bwd(da1, st.ca, grads[f"{pre}.conva.w"], grads[f"{pre}.conva.b"],
                        input_grad=i > 0)


def stack_projections(params: Params, cfg: ModelConfig):
    """Every level projection as one (sum of ch_l + levels, dim) matrix:
    the rows of each `project.l{l}.w`, then each `project.l{l}.b` as a row."""
    paths = [f"project.l{i + 1}" for i in range(cfg.levels)]
    return np.concatenate([params[f"{p}.w"] for p in paths]
                          + [params[f"{p}.b"][None] for p in paths])
