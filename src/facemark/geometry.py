"""Coordinate transforms, bilinear sampling, and positional encodings.

`bilinear_sample_many` and its backward are the package's only bilinear
gather/scatter kernel: rotation augmentation and multi-scale deformable
attention both read through them.

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

def _corners(fmap, uvs, head_idx):
    """Yield (index, ok, wy, wx, dy, dx) for each bilinear corner that any
    point reads in bounds.

    `index` picks the corner's map entries for the points where `ok` holds;
    the corner weight is wy * wx over the full point set.  Corners come in
    the order (0, 0), (0, 1), (1, 0), (1, 1), which fixes the summation
    order of every caller.
    """
    h, w = fmap.shape[:2]
    gx = uvs[:, 0] * w - 0.5
    gy = uvs[:, 1] * h - 0.5
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    tx = gx - x0
    ty = gy - y0
    wys = (1 - ty, ty)
    wxs = (1 - tx, tx)
    for dy in (0, 1):
        for dx in (0, 1):
            yy = y0 + dy
            xx = x0 + dx
            ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            if not np.any(ok):
                continue
            index = (yy[ok], xx[ok]) if head_idx is None else (yy[ok], xx[ok], head_idx[ok])
            yield index, ok, wys[dy], wxs[dx], dy, dx


def bilinear_sample_many(fmap: np.ndarray, uvs: np.ndarray, head_idx=None) -> np.ndarray:
    """Sample a map at P normalized points, zero padding outside.

    `fmap` is (h, w, C), or (h, w, heads, d) with `head_idx` a (P,) int array
    naming the head each point reads.  Points may lie outside [0, 1]^2;
    out-of-range corners contribute zero.  Returns (P, C) or (P, d).
    """
    uvs = np.asarray(uvs, dtype=np.float64)
    out = np.zeros((uvs.shape[0], fmap.shape[-1]), dtype=np.float64)
    for index, ok, wy, wx, _, _ in _corners(fmap, uvs, head_idx):
        out[ok] += (wy * wx)[ok, None] * fmap[index]
    return out


def bilinear_sample_many_backward(
    fmap: np.ndarray, uvs: np.ndarray, dout: np.ndarray, head_idx=None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `bilinear_sample_many` w.r.t. the map and the points.

    Returns (dmap shaped like fmap, duvs (P, 2)).  The interpolant has kinks
    on cell boundaries; gradients there follow the floor-based cell choice.
    """
    h, w = fmap.shape[:2]
    uvs = np.asarray(uvs, dtype=np.float64)
    dmap = np.zeros_like(fmap)
    dgx = np.zeros(uvs.shape[0], dtype=np.float64)
    dgy = np.zeros(uvs.shape[0], dtype=np.float64)
    for index, ok, wy, wx, dy, dx in _corners(fmap, uvs, head_idx):
        np.add.at(dmap, index, (wy * wx)[ok, None] * dout[ok])
        contrib = np.einsum("pc,pc->p", fmap[index], dout[ok])
        # d(wy * wx)/dtx = +-wy and d(wy * wx)/dty = +-wx; the sign is exact
        dgx[ok] += (2 * dx - 1) * wy[ok] * contrib
        dgy[ok] += (2 * dy - 1) * wx[ok] * contrib
    duvs = np.stack([dgx * w, dgy * h], axis=1)
    return dmap, duvs


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
