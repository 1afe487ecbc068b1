"""Coordinate transforms, bilinear sampling, and positional encodings.

`bilinear_sample_many` and its backward are the package's only bilinear
gather/scatter kernel: rotation augmentation and multi-scale deformable
attention both read through them.  They take a list of (h, w, heads, d)
levels and (R, heads, levels, points, 2) locations, so one call covers a
whole deformable pass.  A corner table built once per call gives every
corner its row and weight; out-of-bounds corners read a clamped row with
weight zero instead of being masked out, and the backward scatters with
one `np.bincount` per channel in corner order.  Both keep the summation
order of a masked kernel with a corner-by-corner scatter-add, so their
bits match it.

Conventions used by every module in this package:

* Normalized points are (x, y) pairs in [0, 1]^2, x = column fraction,
  y = row fraction.
* Feature maps are (height, width, channels) float64 arrays; deformable
  attention's value levels are (height, width, heads, head_dim).
* Pixel centers sit at ((j + 0.5) / width, (i + 0.5) / height) in
  normalized coordinates (align-corners-false); reads outside the map
  use zero padding.

All functions here are pure and safe to call concurrently on shared
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_EPS = 1e-5


# ---------------------------------------------------------------------------
# Logistic squashing
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if scalar else out


def inverse_sigmoid(p, eps: float = DEFAULT_EPS):
    """Inverse of the logistic function with clamping near 0 and 1.

    Returns log(p' / (1 - p')) with p' = clamp(p, eps, 1 - eps).  Exact
    inverse of `sigmoid` on (eps, 1 - eps).
    """
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"eps must lie in (0, 0.5), got {eps}")
    arr = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("inverse_sigmoid: input contains non-finite values")
    scalar = arr.ndim == 0
    clamped = np.clip(np.atleast_1d(arr), eps, 1.0 - eps)
    out = np.log(clamped) - np.log1p(-clamped)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Pyramid layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PyramidLayout:
    """Spatial layout of a flattened multi-level feature pyramid.

    `levels` is an ordered tuple of (height, width, stride) with strictly
    increasing strides.  Row block l of the flattened memory occupies rows
    [sum of earlier h*w, ...) in row-major per-level order.
    """

    levels: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("PyramidLayout needs at least one level")
        strides = [s for (_, _, s) in self.levels]
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ConfigError(f"strides must be strictly increasing, got {strides}")
        for h, w, s in self.levels:
            if h < 1 or w < 1 or s < 1:
                raise ConfigError(f"invalid level shape ({h}, {w}, {s})")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def total_len(self) -> int:
        return sum(h * w for (h, w, _) in self.levels)

    def block_slices(self) -> list[slice]:
        """Row slice of each level inside the flattened memory."""
        out, start = [], 0
        for h, w, _ in self.levels:
            out.append(slice(start, start + h * w))
            start += h * w
        return out

    @classmethod
    def for_image(cls, side: int, num_levels: int, base_stride: int = 4) -> "PyramidLayout":
        """Layout for a square image of the given side, strides 4, 8, 16, ..."""
        levels = []
        for l in range(num_levels):
            stride = base_stride * (2 ** l)
            h = -(-side // stride)  # ceil division
            levels.append((h, h, stride))
        return cls(tuple(levels))


def pixel_centers(layout: PyramidLayout) -> np.ndarray:
    """Normalized (x, y) center of every row of the flattened pyramid, (M, 2)."""
    pieces = []
    for h, w, _ in layout.levels:
        xs = (np.arange(w) + 0.5) / w
        ys = (np.arange(h) + 0.5) / h
        gx, gy = np.meshgrid(xs, ys)
        pieces.append(np.stack([gx.ravel(), gy.ravel()], axis=1))
    return np.concatenate(pieces, axis=0)


def level_of_row(layout: PyramidLayout) -> np.ndarray:
    """Level index of every row of the flattened pyramid, (M,) int."""
    return np.concatenate(
        [np.full(h * w, l, dtype=np.int64) for l, (h, w, _) in enumerate(layout.levels)]
    )


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------

def _corner_table(levels, locs):
    """Row, axis weights and in-bounds flags of every bilinear corner read.

    `locs` is (R, heads, L, points, 2); point (r, k, l, p) reads head k of
    level l.  Returns, for all levels in one step:

    * rows (4, R, heads, L, points) int64: corner (dy, dx) at index
      2 * dy + dx, as a row of its level's (h * w * heads, d) view, clamped
      into the level so that every row is a valid read;
    * wy, wx (2, R, heads, L, points): the row and column weight of corner
      offset 0 and 1, zero where that row or column lies outside the level;
    * oky, okx (2, R, heads, L, points) bool: whether it lies inside.

    A corner's weight is wy[dy] * wx[dx], which is exactly zero for a
    clamped read, so the read adds a zero term and changes no sum.
    """
    heads = locs.shape[1]
    hw = np.array([lev.shape[:2] for lev in levels], dtype=np.int64)
    h, w = hw[:, :1], hw[:, 1:]  # (L, 1), broadcast over (L, points)
    gx = locs[..., 0] * w - 0.5
    gy = locs[..., 1] * h - 0.5
    x0 = np.floor(gx)
    y0 = np.floor(gy)
    tx = gx - x0
    ty = gy - y0
    step = np.arange(2).reshape(2, 1, 1, 1, 1)
    xs = x0.astype(np.int64) + step
    ys = y0.astype(np.int64) + step
    okx = (xs >= 0) & (xs < w)
    oky = (ys >= 0) & (ys < h)
    wx = np.where(okx, np.stack([1 - tx, tx]), 0.0)
    wy = np.where(oky, np.stack([1 - ty, ty]), 0.0)
    xs = np.clip(xs, 0, w - 1)
    ys = np.clip(ys, 0, h - 1)
    rows = ys[:, None] * w + xs[None]
    rows *= heads
    rows += np.arange(heads)[:, None, None]
    rows = rows.reshape((4,) + gx.shape)
    return rows, wy, wx, oky, okx


_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Values per block of query rows (256 KB of float64): the gathers, products
# and sums of one block stay in the second-level cache.
_BLOCK = 1 << 15


def _row_blocks(locs, d):
    """Slices over the R axis of `locs` (R, heads, L, points, 2), each
    covering about _BLOCK values of one level's (R, heads, points, d) read."""
    r, heads, _, points, _ = locs.shape
    step = max(1, _BLOCK // (heads * points * d))
    return [slice(r0, r0 + step) for r0 in range(0, r, step)]


def bilinear_sample_many(levels, locs: np.ndarray) -> np.ndarray:
    """Sample a pyramid of maps at normalized points, zero padding outside.

    `levels` holds L maps (h_l, w_l, heads, d); `locs` is
    (R, heads, L, points, 2) and point (r, k, l, p) reads head k of level l.
    Points may lie outside [0, 1]^2; out-of-range corners contribute zero.
    Returns (R, heads, L, points, d).  Each output is the sum of its four
    corner terms in corner order, starting from +0.0.
    """
    locs = np.asarray(locs, dtype=np.float64)
    d = levels[0].shape[-1]
    out = np.empty(locs.shape[:-1] + (d,))
    rows, wy, wx, _, _ = _corner_table(levels, locs)
    blocks = _row_blocks(locs, d)
    for l, lev in enumerate(levels):
        flat = lev.reshape(-1, d)
        for b in blocks:
            acc = np.zeros(rows[0, b, :, l].shape + (d,))
            for k, (dy, dx) in enumerate(_CORNERS):
                vals = np.take(flat, rows[k, b, :, l], axis=0)
                vals *= (wy[dy, b, :, l] * wx[dx, b, :, l])[..., None]
                acc += vals
            out[b, :, l] = acc
    return out


def bilinear_sample_many_backward(levels, locs: np.ndarray, dout: np.ndarray):
    """Gradients of `bilinear_sample_many` w.r.t. the maps and the points.

    `dout` is shaped like the forward's output.  Returns (dlevels, one array
    per level shaped like it; dlocs shaped like `locs`).  The interpolant has
    kinks on cell boundaries; gradients there follow the floor-based cell
    choice.

    Each level's map gradient is one `np.bincount` per channel over that
    level's corner rows, concatenated in corner order.  `bincount` adds its
    weights in input order, so every map entry receives its terms in the
    same order as an unbuffered scatter-add (`ufunc.at`) run corner by
    corner would.
    """
    locs = np.asarray(locs, dtype=np.float64)
    rows, wy, wx, oky, okx = _corner_table(levels, locs)
    wt = (wy[:, None] * wx[None]).reshape(rows.shape)
    d = dout.shape[-1]
    contrib = np.empty(rows.shape)
    dout_t = np.empty((d,) + rows.shape[1:3] + rows.shape[4:])
    dlevels = []
    for l, lev in enumerate(levels):
        flat = lev.reshape(-1, d)
        for b in _row_blocks(locs, d):
            # contiguous rows, so the einsum dot product sums in the same
            # order as on any other contiguous (points, d) read
            dl = np.ascontiguousarray(dout[b, :, l])
            for k in range(4):
                vals = np.take(flat, rows[k, b, :, l], axis=0)
                contrib[k, b, :, l] = np.einsum("rhpc,rhpc->rhp", vals, dl)
            dout_t[:, b] = dl.transpose(3, 0, 1, 2)
        # one bincount per channel, each writing a contiguous row of dflat
        idx = rows[:, :, :, l].ravel()
        wl = wt[:, :, :, l].reshape(4, -1)
        dflat = np.empty((d, flat.shape[0]))
        for c in range(d):
            dflat[c] = np.bincount(idx, (wl * dout_t[c].reshape(-1)).ravel(), flat.shape[0])
        dlevels.append(dflat.T.reshape(lev.shape))
    dgx = np.zeros(locs.shape[:-1])
    dgy = np.zeros(locs.shape[:-1])
    for k, (dy, dx) in enumerate(_CORNERS):
        # d(wy * wx)/dtx = +-wy and d(wy * wx)/dty = +-wx; the sign is exact
        dgx += (2 * dx - 1) * wy[dy] * okx[dx] * contrib[k]
        dgy += (2 * dy - 1) * wx[dx] * oky[dy] * contrib[k]
    hw = np.array([lev.shape[:2] for lev in levels], dtype=np.float64)
    dlocs = np.stack([dgx * hw[:, 1:], dgy * hw[:, :1]], axis=-1)
    return dlevels, dlocs


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
