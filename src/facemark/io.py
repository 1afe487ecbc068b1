"""File formats: binary portable pixmaps, landmark files, dataset
directories, and prediction overlays.

Everything here is byte-deterministic.  Images live on disk as 8-bit P6
pixmaps and in memory as float64 (3, h, w) arrays in [0, 1].  Landmark
files carry pixel coordinates (x = u * side); the model works in
normalized coordinates, so readers and writers scale by the image side.
Every reader turns a malformed file into a ConfigError naming the file.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ConfigError
from .training import Sample

LANDMARK_VERSION = "version 1"


# ---------------------------------------------------------------------------
# Portable pixmap (P6)
# ---------------------------------------------------------------------------

def write_ppm(path, image, comment: str | None = None):
    """Write a float (3, h, w) image in [0, 1] as a binary pixmap.

    An optional comment line (e.g. the config hash) goes after the magic;
    readers skip it.
    """
    _, h, w = image.shape
    # round, then clip, all in one scratch array
    scaled = np.multiply(image, 255.0)
    np.rint(scaled, out=scaled)
    np.maximum(scaled, 0, out=scaled)
    np.minimum(scaled, 255, out=scaled)
    data = scaled.transpose(1, 2, 0).astype(np.uint8, order="C")
    header = "P6\n"
    if comment:
        header += f"# {comment}\n"
    header += f"{w} {h}\n255\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(data)


def read_ppm(path):
    """Read a binary pixmap into a float64 (3, h, w) array in [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(b"P6"):
        raise ConfigError(f"not a binary pixmap: {path}")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with #-comments running to end of line
    tokens = []
    i = 2
    while len(tokens) < 3:
        if i >= len(blob):
            raise ConfigError(f"truncated pixmap header: {path}")
        c = blob[i:i + 1]
        if c == b"#":
            while i < len(blob) and blob[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace():
                j += 1
            tokens.append(blob[i:j])
            i = j
    w, h, maxval = _numbers(tokens, int, path, "pixmap header")
    if w < 1 or h < 1:
        raise ConfigError(f"invalid pixmap size {w}x{h}: {path}")
    if maxval != 255:
        raise ConfigError(f"unsupported pixmap depth {maxval}: {path}")
    i += 1  # single whitespace after maxval
    raster = blob[i:i + 3 * w * h]
    if len(raster) != 3 * w * h:
        raise ConfigError(f"truncated pixmap data: {path}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# Landmark files
# ---------------------------------------------------------------------------

def write_landmarks(path, points_px):
    """version line, count line, then one `x y` pair per landmark with six
    decimal places."""
    points_px = np.asarray(points_px)
    lines = [LANDMARK_VERSION, f"n_points {points_px.shape[0]}"]
    for x, y in points_px:
        lines.append(f"{x:.6f} {y:.6f}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_text(path):
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return blob.decode()
    except UnicodeDecodeError:
        raise ConfigError(f"not a text file: {path}") from None


def _numbers(tokens, kind, path, what):
    """Tokens parsed by `kind` (int or float); finite, or ConfigError."""
    try:
        vals = [kind(t) for t in tokens]
    except ValueError:
        raise ConfigError(f"non-numeric {what} in {path}") from None
    if kind is float and not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"non-finite {what} in {path}")
    return vals


def read_landmarks(path):
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != LANDMARK_VERSION:
        raise ConfigError(f"unsupported landmark file: {path}")
    count = lines[1].split() if len(lines) > 1 else []
    if len(count) != 2 or count[0] != "n_points":
        raise ConfigError(f"missing point count: {path}")
    (n,) = _numbers(count[1:], int, path, "point count")
    if len(lines) < 2 + n:
        raise ConfigError(f"landmark file lists {n} points but has fewer lines: {path}")
    rows = [line.split() for line in lines[2:2 + n]]
    if n < 0 or any(len(r) != 2 for r in rows):
        raise ConfigError(f"malformed landmark rows: {path}")
    return np.array([_numbers(r, float, path, "landmark coordinate") for r in rows]).reshape(n, 2)


def write_bbox(path, bbox):
    with open(path, "w") as f:
        f.write(" ".join(f"{v:.6f}" for v in bbox) + "\n")


def read_bbox(path):
    tokens = _read_text(path).split()
    if len(tokens) != 4:
        raise ConfigError(f"expected 4 box values in {path}, got {len(tokens)}")
    return np.array(_numbers(tokens, float, path, "box value"))


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

MANIFEST = "manifest.txt"
DATASET_INFO = "dataset.info"


def write_dataset(out_dir, samples, config_hash: str, seed: int):
    """Write samples as pixmap/landmark/bbox triples plus a manifest whose
    line count equals the sample count."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for i, s in enumerate(samples):
        stem = f"face_{i:05d}"
        write_ppm(os.path.join(out_dir, stem + ".ppm"), s.image,
                  comment=f"config {config_hash}")
        side = s.image.shape[1]
        write_landmarks(os.path.join(out_dir, stem + ".txt"), s.landmarks * side)
        write_bbox(os.path.join(out_dir, stem + ".bbox"), s.bbox)
        manifest.append(f"{stem}.ppm {stem}.txt")
    with open(os.path.join(out_dir, MANIFEST), "w") as f:
        f.write("\n".join(manifest) + "\n")
    with open(os.path.join(out_dir, DATASET_INFO), "w") as f:
        f.write(f"config {config_hash}\n")
        f.write(f"count {len(samples)}\n")
        f.write(f"seed {seed}\n")


def load_dataset(path):
    """Read a dataset directory back into a list of Samples."""
    manifest = os.path.join(path, MANIFEST)
    if not os.path.isdir(path) or not os.path.exists(manifest):
        raise ConfigError(f"dataset not found: {path}")
    samples = []
    for i, line in enumerate(_read_text(manifest).splitlines(), 1):
        names = line.split()
        if not names:
            continue
        try:
            if len(names) != 2:
                raise ValueError(f"expected '<image> <landmarks>', got {len(names)} names")
            image = read_ppm(os.path.join(path, names[0]))
            pts = read_landmarks(os.path.join(path, names[1])) / image.shape[1]
            bbox_path = os.path.join(path, os.path.splitext(names[1])[0] + ".bbox")
            bbox = read_bbox(bbox_path) if os.path.exists(bbox_path) else None
        except (OSError, ValueError) as e:  # ConfigError included
            raise ConfigError(f"{manifest} line {i}: {e}") from None
        samples.append(Sample(image, pts, bbox))
    if not samples:
        raise ConfigError(f"dataset manifest is empty: {manifest}")
    return samples


# ---------------------------------------------------------------------------
# Overlays
# ---------------------------------------------------------------------------

PRED_COLOR = (0.1, 1.0, 0.2)
GT_COLOR = (1.0, 0.15, 0.1)


def draw_markers(image, points_norm, color, radius=1):
    """Stamp a filled square marker at each normalized (finite) point, in
    place: every offset of the square for all points at once, clipped to
    the image."""
    _, h, w = image.shape
    size = np.array([w, h])
    # each marker's centre pixel; clamped to just past the border, which
    # keeps the int cast of a huge coordinate exact and draws the same pixels
    with np.errstate(over="ignore"):
        centre = np.floor(np.asarray(points_norm, dtype=np.float64).reshape(-1, 2) * size)
    cx, cy = np.clip(centre, -radius - 1, size + radius).astype(np.int64).T
    d = np.arange(-radius, radius + 1)
    xs, ys = np.broadcast_arrays((cx[:, None] + d)[:, None], (cy[:, None] + d)[:, :, None])
    inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    image[:, ys[inside], xs[inside]] = np.array(color)[:, None]
    return image


def write_overlay(path, image, pred_norm, gt_norm=None, comment=None):
    """Prediction overlay: green markers for predictions, red for ground
    truth when given.  Same dimensions as the input image."""
    canvas = image.copy()
    if gt_norm is not None:
        draw_markers(canvas, gt_norm, GT_COLOR, radius=2)
    draw_markers(canvas, pred_norm, PRED_COLOR, radius=1)
    write_ppm(path, canvas, comment=comment)
