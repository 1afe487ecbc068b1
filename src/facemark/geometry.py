"""Coordinate transforms, bilinear sampling, and positional encodings.

`bilinear_sample_many` and its backward are the package's only bilinear
kernel: rotation augmentation and multi-scale deformable attention both
read through them.  They take a list of (h, w, heads, d_l) levels,
(R, heads, levels, points, 2) locations and (R, heads, levels, points)
point weights, so one call covers a whole deformable pass.  The kernel is
fused: it adds the weighted sum of level l's reads into the caller's
(R, heads, d_l) outs[l] and never stores a per-point read.  Levels may
differ in width; levels of one width may share one output.  The forward
returns a corner table that gives every corner its row and weight and
records how each level was read; the backward reads each level the way
that table says and adds level l's map gradient into the caller's
dlevels[l].  Out-of-bounds corners read a clamped row with weight zero
instead of being masked out.

Each level is read one of two ways.  By default it is gathered: the
forward gathers corner rows, and the backward scatters with one
`np.bincount` per block of channels, in corner order.  With one point of
weight 1 per row (rotation), both keep the summation order of a masked
kernel with a corner-by-corner scatter-add, so their bits match it.  A
level of at most `dense_pixels` pixels, a forward argument that only the
parallel decoder sets (to DENSE_PIXELS = 256), is read by GEMM instead:
each block of 64 query rows builds one interpolation matrix per run of
consecutive dense levels from the corner table, each level in its own
columns; the forward adds each level's A @ V and the backward adds
A^T @ dout block by block, in a fixed order that does not depend on the
BLAS thread count.  The two ways share the corner table, the corner
weights and the tail that turns per-corner dot products into location and
weight gradients, and agree within rounding.

Conventions used by every module in this package:

* Normalized points are (x, y) pairs in [0, 1]^2, x = column fraction,
  y = row fraction.
* Feature maps are (height, width, channels) float64 arrays; deformable
  attention's value levels are (height, width, heads, head_dim).
* Pixel centers sit at ((j + 0.5) / width, (i + 0.5) / height) in
  normalized coordinates (align-corners-false); reads outside the map
  use zero padding.

All functions here are pure and safe to call concurrently on shared
immutable inputs into distinct output arrays.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


# ---------------------------------------------------------------------------
# Logistic squashing
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Numerically stable logistic function, elementwise: 1 / (1 + e^-x)
    for x >= 0 and e^x / (1 + e^x) below, both from e^-|x|."""
    arr = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(arr))
    den = 1.0 + ex
    out = np.where(arr >= 0, 1.0 / den, ex / den)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Pyramid layout
# ---------------------------------------------------------------------------

def level_stride(level: int) -> int:
    """Image pixels per cell of pyramid level `level`: the backbone's first
    stage quarters the image side and every later stage halves it."""
    return 4 * 2 ** level


@dataclass(frozen=True)
class PyramidLayout:
    """Spatial layout of a flattened multi-level feature pyramid.

    `levels` is an ordered tuple of (height, width), finest level first.
    Row block l of the flattened memory occupies rows [sum of earlier h*w,
    ...) in row-major per-level order.
    """

    levels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("PyramidLayout needs at least one level")
        for h, w in self.levels:
            if h < 1 or w < 1:
                raise ConfigError(f"invalid level shape ({h}, {w})")

    @property
    def total_len(self) -> int:
        return sum(h * w for (h, w) in self.levels)

    def block_slices(self) -> list[slice]:
        """Row slice of each level inside the flattened memory."""
        out, start = [], 0
        for h, w in self.levels:
            out.append(slice(start, start + h * w))
            start += h * w
        return out

    @classmethod
    def for_image(cls, side: int, num_levels: int) -> "PyramidLayout":
        """Layout for a square image of the given side, one level per stride
        `level_stride(l)`: 4, 8, 16, ..."""
        levels = []
        for l in range(num_levels):
            h = -(-side // level_stride(l))  # ceil division
            levels.append((h, h))
        return cls(tuple(levels))


def pixel_centers(layout: PyramidLayout) -> np.ndarray:
    """Normalized (x, y) center of every row of the flattened pyramid, (M, 2)."""
    pieces = []
    for h, w in layout.levels:
        xs = (np.arange(w) + 0.5) / w
        ys = (np.arange(h) + 0.5) / h
        gx, gy = np.meshgrid(xs, ys)
        pieces.append(np.stack([gx.ravel(), gy.ravel()], axis=1))
    return np.concatenate(pieces, axis=0)


def level_of_row(layout: PyramidLayout) -> np.ndarray:
    """Level index of every row of the flattened pyramid, (M,) int."""
    return np.concatenate(
        [np.full(h * w, l, dtype=np.int64) for l, (h, w) in enumerate(layout.levels)]
    )


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------

CornerTable = namedtuple("CornerTable", "rows wy wx oky okx dense")

_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _level_extents(levels, shape, dtype):
    """Each level's height and width as two arrays of `shape`, a
    (heads, L, points) row of the point grid: as operands they keep numpy's
    inner loops a whole row long, where (L, 1) arrays would cut them to
    `points` values."""
    hw = np.array([lev.shape[:2] for lev in levels], dtype=dtype)
    return (np.ascontiguousarray(np.broadcast_to(hw[:, :1], shape)),
            np.ascontiguousarray(np.broadcast_to(hw[:, 1:], shape)))


def _corner_table(levels, locs, dense_pixels):
    """Row, axis weights and in-bounds flags of every bilinear corner read,
    and the read strategy of every level.

    `locs` is (R, heads, L, points, 2); point (r, k, l, p) reads head k of
    level l.  Returns, for all levels in one step, a CornerTable of

    * rows (4, R, heads, L, points) int64: corner (dy, dx) at index
      2 * dy + dx, as a row of its level's (h * w * heads, d) view, clamped
      into the level so that every row is a valid read;
    * wy, wx (2, R, heads, L, points): the row and column weight of corner
      offset 0 and 1, zero where that row or column lies outside the level;
    * oky, okx (2, R, heads, L, points) bool: whether it lies inside;
    * dense, one bool per level: whether the level, of at most
      `dense_pixels` pixels, is read by GEMM rather than gathered.

    A corner's weight is wy[dy] * wx[dx], which is exactly zero for a
    clamped read, so the read adds a zero term and changes no sum.  The
    arrays are filled in place; a weight outside the level is set to zero
    where its flag is false, whatever its value, as `np.where` would.
    """
    shape = locs.shape[:-1]
    heads = shape[1]
    h, w = _level_extents(levels, shape[1:], np.int64)
    rows = np.empty((4,) + shape, dtype=np.int64)
    ys, xs = (np.empty((2,) + shape, dtype=np.int64) for _ in range(2))
    wy, wx = np.empty((2,) + shape), np.empty((2,) + shape)
    flags = []
    for axis, size, ind, wgt in ((1, h, ys, wy), (0, w, xs, wx)):
        g = np.multiply(locs[..., axis], size.astype(np.float64))
        g -= 0.5
        g0 = np.floor(g)
        t = np.subtract(g, g0, out=g)
        ind[0] = g0  # a non-finite point warns here, as `astype` would
        np.add(ind[0], 1, out=ind[1])
        ok = ind >= 0
        ok &= ind < size
        np.subtract(1, t, out=wgt[0])
        wgt[1] = t
        np.copyto(wgt, 0.0, where=~ok)
        np.maximum(ind, 0, out=ind)  # np.clip, without its wrappers
        np.minimum(ind, size - 1, out=ind)
        flags.append(ok)
    # row (y * w + x) * heads + head, in exact integer arithmetic
    ys *= w * heads
    ys += np.arange(heads)[:, None, None] + np.zeros_like(w)
    xs *= heads
    for k, (dy, dx) in enumerate(_CORNERS):
        np.add(ys[dy], xs[dx], out=rows[k])
    dense = tuple(lev.shape[0] * lev.shape[1] <= dense_pixels for lev in levels)
    return CornerTable(rows, wy, wx, flags[0], flags[1], dense)


# Values per block of query rows (256 KB of float64): the gathers, products
# and sums of one block stay in the second-level cache.
_BLOCK = 1 << 15

# A level of at most this many pixels is read by GEMM when the caller asks
# for dense reads; larger levels are gathered.  Set from crossovers measured
# at default width (8 heads, head_dim 32, 4 points, 408 query rows, one level
# per call, forward / backward): 8 x 8 and smaller levels took 1.4-2.1 /
# 1.5-1.9 ms dense against 2.9-4.0 / 7.1-9.4 ms gathered, 16 x 16 took
# 2.9-3.1 / 5.6-5.7 against 2.9-3.7 / 7.7-9.2 ms, and 32 x 32 took 11 / 19-20
# against 3.3-4.3 / 7.9-9.9 ms.  So at 64 px every level of the parallel
# decoder is dense, and at 256 px the 64 x 64 and 32 x 32 levels are
# gathered.
DENSE_PIXELS = 256

# Query rows per block of a dense read.  Each block builds its own
# interpolation matrices, so no pass holds a level's matrices for all rows,
# and the map gradient adds the blocks' products in order: each product sums
# over 64 rows, so its bits do not depend on the number of BLAS threads.
_DENSE_ROWS = 64


def _row_blocks(shape, d):
    """Slices over the R axis of a (R, heads, L, points) point grid, each
    covering about _BLOCK values of one level's (R, heads, points, d) read."""
    r, heads, _, points = shape
    step = max(1, _BLOCK // (heads * points * d))
    return [slice(r0, r0 + step) for r0 in range(0, r, step)]


def _bilinear_weights(table):
    """Bilinear weight wy * wx of every corner, (4, R, heads, L, points):
    one product per corner and point."""
    wt = np.empty(table.rows.shape)
    np.multiply(table.wy[:, None], table.wx[None], out=wt.reshape((2,) + table.wx.shape))
    return wt


def _level_runs(dense):
    """The levels in order as (first, stop, dense) runs: each run of
    consecutive dense levels is one run, each gathered level a run alone."""
    runs = []
    for l, d in enumerate(dense):
        if d and runs and runs[-1][2] and runs[-1][1] == l:
            runs[-1][1] = l + 1
        else:
            runs.append([l, l + 1, d])
    return runs


def _dense_blocks(levels, rows, cw):
    """The interpolation matrices of `levels`, a run of consecutive dense
    levels, a block of _DENSE_ROWS query rows at a time.  `rows` (4, R,
    heads, levels of the run, points) are the run's table rows, which read
    pixel * heads + head of their level, and `cw` their corner weights.
    Yields (block, A, idx, cols): A (heads, rows of the
    block, pixels of the run) holds each head's matrix of every level of
    the run side by side, level j in columns cols[j], and adds the block's corner
    weights in corner order; idx is the flat index of every corner read
    into A, in the order of rows[:, block].  One index build, one fill and
    one `np.add.at` cover the whole run.  All blocks share one buffer, so A
    is valid until the next block is drawn and the caller may overwrite it.
    (A fresh array per block, as `np.bincount` returns, measured up to
    twice as slow in a 16 x 16 level's backward.)"""
    r, heads = rows.shape[1:3]
    sizes = [lev.shape[0] * lev.shape[1] for lev in levels]
    width = sum(sizes)
    first = np.cumsum([0] + sizes[:-1])
    cols = [slice(c, c + size) for c, size in zip(first, sizes)]
    buf = np.empty(heads * min(r, _DENSE_ROWS) * width)
    for r0 in range(0, r, _DENSE_ROWS):
        b = slice(r0, min(r, r0 + _DENSE_ROWS))
        n = b.stop - r0
        lead = np.arange(heads)[:, None, None] * n + np.arange(n)[:, None, None, None]
        idx = (lead * width + first[:, None] + rows[:, b] // heads).ravel()
        a = buf[:heads * n * width]
        a.fill(0.0)
        np.add.at(a, idx, cw[:, b].ravel())
        yield b, a.reshape(heads, n, width), idx, cols


def _heads_first(lev):
    """(h, w, heads, d) level as a (heads, h * w, d) view."""
    h, w, heads, d = lev.shape
    return lev.reshape(h * w, heads, d).transpose(1, 0, 2)


def bilinear_sample_many(levels, locs: np.ndarray, weights: np.ndarray, outs, dense_pixels=0):
    """Weighted sum of bilinear reads from a pyramid of maps, zero padding
    outside.

    `levels` holds L maps (h_l, w_l, heads, d_l); `locs` is
    (R, heads, L, points, 2) and point (r, k, l, p) reads head k of level
    l; `weights` (R, heads, L, points) scales each point's read.  Points may
    lie outside [0, 1]^2; out-of-range corners contribute zero.  Level l's
    reads, corner weight * point weight * corner row summed over its points
    and corners, are added into outs[l], an (R, heads, d_l) array that the
    caller owns; a gathered level adds its corners in corner order.  The
    same array may serve several levels, which then add into it in level
    order.  Returns the corner table, which the backward takes; no
    per-point read is kept.

    A level of at most `dense_pixels` pixels is read densely, a block of
    _DENSE_ROWS query rows at a time.  A run of consecutive dense levels
    shares one matrix per block: one `np.add.at` over the block's corners
    builds each head's (rows, pixels of the run) interpolation matrix A,
    and each level of the run adds A's columns of that level @ V, one
    batched matmul holding one GEMM per head, into its own output in level
    order.  With the images folded into the head axis each GEMM has one
    image's shape, so a chunk of images gets each image's bits.  Any other
    level is gathered, a corner at a time in corner order.
    """
    locs = np.asarray(locs, dtype=np.float64)
    table = _corner_table(levels, locs, dense_pixels)
    cw = _bilinear_weights(table)
    cw *= weights
    for first, stop, dense in _level_runs(table.dense):
        run = range(first, stop)
        if dense:
            vs = [_heads_first(levels[l]) for l in run]
            for b, a, _, cols in _dense_blocks(levels[first:stop], table.rows[:, :, :, first:stop],
                                               cw[:, :, :, first:stop]):
                for l, v, c in zip(run, vs, cols):
                    outs[l][b] += np.matmul(a[:, :, c], v).transpose(1, 0, 2)
            continue
        lev, out = levels[first], outs[first]
        flat = lev.reshape(-1, lev.shape[-1])
        for b in _row_blocks(weights.shape, lev.shape[-1]):
            for k in range(4):
                vals = flat.take(table.rows[k, b, :, first], axis=0)
                out[b] += np.einsum("rhpc,rhp->rhc", vals, cw[k, b, :, first])
    return table


def bilinear_sample_many_backward(levels, weights, table: CornerTable, douts, dlevels):
    """Gradients of `bilinear_sample_many` w.r.t. the maps, the points and
    the point weights.

    `weights` and `table` are the forward's weights and returned corner
    table; `douts` holds level l's (R, heads, d_l) upstream gradient at l,
    the gradient of the forward's outs[l].  Levels that shared one output
    share one gradient array, which is made contiguous once.  Adds level
    l's map gradient into the caller's dlevels[l], shaped like level l (a
    dense level's must reshape without a copy); returns (dlocs (R, heads,
    L, points, 2), dweights shaped like `weights`).  The interpolant has
    kinks on cell boundaries; gradients there follow the floor-based cell
    choice.

    Both strategies give each corner read's row dotted with the point's
    upstream gradient (`contrib`), from which `_point_grads` forms dweights
    and dlocs.  A gathered level takes one gather per corner.  Its map
    gradient is a `np.bincount` over that level's corner rows, concatenated
    in corner order, with weights corner weight * point weight * dout[c].
    One call covers a block of channels holding about _BLOCK weights:
    channel c's rows are offset by c * (rows of the level), so the channels'
    bins stay apart.  `bincount` adds its weights in input order, so every
    map entry receives its terms in the same order as an unbuffered
    scatter-add (`ufunc.at`) run corner by corner would.  A run of dense
    levels rebuilds each block's matrix A: each level's map gradient adds
    its columns' A^T @ dout, then each level's dA = dout @ V^T is written
    over its columns, and one read of A at the block's corners gives
    `contrib` for the whole run.  Each level is read the way the forward
    read it, as the table records.

    A dense level's map gradient is added into dlevels[l] one block of
    _DENSE_ROWS query rows at a time, so handing it an array that already
    holds values does not give the bits of adding a fresh call's result to
    that array: over more than _DENSE_ROWS rows the running sum takes each
    block's product in turn.  A gathered level adds its whole result once.
    """
    rows = table.rows
    wt = _bilinear_weights(table)
    cw = wt * weights
    contrib = np.empty(rows.shape)  # v . dout of every corner read
    dout = []
    for l, g in enumerate(douts):
        dout.append(dout[-1] if l and g is douts[l - 1] else np.ascontiguousarray(g))
    dout_t = None, None  # (source, channels-first copy) of the last gathered level
    for first, stop, dense in _level_runs(table.dense):
        run = range(first, stop)
        if dense:
            vs = [_heads_first(levels[l]) for l in run]
            dvs = [_heads_first(dlevels[l]) for l in run]
            for b, a, idx, cols in _dense_blocks(levels[first:stop], rows[:, :, :, first:stop],
                                                 cw[:, :, :, first:stop]):
                dout_h = [dout[l][b].transpose(1, 0, 2) for l in run]
                for dv, dh, c in zip(dvs, dout_h, cols):
                    dv += np.matmul(a[:, :, c].transpose(0, 2, 1), dh)
                for v, dh, c in zip(vs, dout_h, cols):  # A is spent: dA over it
                    np.matmul(dh, v.transpose(0, 2, 1), out=a[:, :, c])
                part = contrib[:, b, :, first:stop]
                part[...] = a.take(idx).reshape(part.shape)
            continue
        l, lev, dlev = first, levels[first], dlevels[first]
        d = lev.shape[-1]
        if dout_t[0] is not dout[l]:
            dout_t = dout[l], np.ascontiguousarray(dout[l].transpose(2, 0, 1)).reshape(d, -1)
        flat = lev.reshape(-1, d)
        for b in _row_blocks(weights.shape, d):
            for k in range(4):
                vals = flat.take(rows[k, b, :, l], axis=0)
                # both operands have contiguous channel rows, so the dot
                # product sums in the same order as on one (points, d) read
                contrib[k, b, :, l] = np.einsum("rhpc,rhc->rhp", vals, dout[l][b])
        # corners in (corner, point, row, head) order, so that each channel's
        # bincount weights are a contiguous product with dout_t[c]
        idx = rows[:, :, :, l].transpose(0, 3, 1, 2).ravel()
        cl = np.ascontiguousarray(cw[:, :, :, l].transpose(0, 3, 1, 2))
        cl = cl.reshape(4, -1, dout_t[1].shape[1])
        n = flat.shape[0]
        # one bincount per block of about _BLOCK weights: channel c of a
        # block adds into bins c * n + row, each bin in corner order.  The
        # weights go straight in, so that one block's temporary is freed
        # before the next is allocated.
        step = min(d, max(1, _BLOCK // idx.size))
        idx_block = (idx + n * np.arange(step)[:, None]).ravel()
        dflat = np.empty((d, n))
        for c0 in range(0, d, step):
            k = min(step, d - c0)
            dflat[c0:c0 + k] = np.bincount(
                idx_block[:k * idx.size],
                (cl * dout_t[1][c0:c0 + k, None, None]).ravel(), k * n).reshape(k, n)
        dlev += dflat.T.reshape(lev.shape)
    return _point_grads(levels, table, weights, wt, contrib)


def _point_grads(levels, table: CornerTable, weights, wt, contrib):
    """dlocs and dweights from `contrib`, each corner read's row dotted with
    the point's upstream gradient; `contrib` is overwritten.  Each term is
    formed in one scratch array, in the order of the products it stands
    for."""
    tmp = np.empty(weights.shape)
    dweights = np.zeros(weights.shape)
    for k in range(4):
        dweights += np.multiply(wt[k], contrib[k], out=tmp)
    contrib *= weights  # now point weight * v . dout, the dlocs terms
    dgx = np.zeros(weights.shape)
    dgy = np.zeros(weights.shape)
    for k, (dy, dx) in enumerate(_CORNERS):
        # d(wy * wx)/dtx = +-wy and d(wy * wx)/dty = +-wx; the sign is exact
        for dg, sign, wgt, ok in ((dgx, 2 * dx - 1, table.wy[dy], table.okx[dx]),
                                  (dgy, 2 * dy - 1, table.wx[dx], table.oky[dy])):
            np.multiply(sign, wgt, out=tmp)
            np.multiply(tmp, ok, out=tmp)
            dg += np.multiply(tmp, contrib[k], out=tmp)
    h, w = _level_extents(levels, weights.shape[1:], np.float64)
    dlocs = np.empty(weights.shape + (2,))
    np.multiply(dgx, w, out=dlocs[..., 0])
    np.multiply(dgy, h, out=dlocs[..., 1])
    return dlocs, dweights


# ---------------------------------------------------------------------------
# Positional embeddings
# ---------------------------------------------------------------------------

def sinusoid_embed(coords: np.ndarray, dim: int, temperature: float = 10000.0) -> np.ndarray:
    """Sinusoidal embedding of normalized (x, y) points, (P, dim).

    dim/2 channels per axis, sin/cos interleaved over geometrically spaced
    frequencies, input scaled by 2*pi.  Two equal points always map to
    identical rows.
    """
    if dim % 2 != 0:
        raise ConfigError(f"embedding dim must be even, got {dim}")
    half = dim // 2
    freq = temperature ** (2.0 * (np.arange(half) // 2) / half)
    ang = coords[:, :, None] * (2.0 * np.pi) / freq  # (P, 2, half)
    emb = np.empty((coords.shape[0], 2, half), dtype=np.float64)
    emb[:, :, 0::2] = np.sin(ang[:, :, 0::2])
    emb[:, :, 1::2] = np.cos(ang[:, :, 1::2])
    return emb.reshape(coords.shape[0], dim)


def build_pixel_positions(layout: PyramidLayout, dim: int) -> np.ndarray:
    """Sinusoidal position row for every pixel of the flattened pyramid.

    Rows for the same normalized location on different levels are
    identical; level identity is carried by a separate learnable
    embedding.  Returns (M, dim) with all entries in [-1, 1].
    """
    return sinusoid_embed(pixel_centers(layout), dim)
