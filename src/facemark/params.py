"""Flat parameter layout keyed by stable path strings, the initializer,
checkpoint I/O and the text parsers that config files and checkpoint
metadata share.

Parameters are a dict mapping path -> float64 ndarray.  The model modules
declare each parameter once, as a (path, shape, init) row; `draw` turns a
row's shape and init into an array.  `flat_views` lays out such a dict as
named views into one float64 vector in sorted-path order: the layout of
checkpoints, of training's parameters and gradients and of Adam's moments.  A gradient buffer is such a vector and its views;
each backward adds into the views of the parameters its forward read.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing

import numpy as np

from .errors import ConfigError

Params = dict[str, np.ndarray]
# (path, shape, init) of one parameter; `draw` reads the init
Row = tuple[str, tuple[int, ...], str]

CHECKPOINT_MAGIC = "facemark-ckpt v1"


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------

def draw(rng: np.random.Generator, shape: tuple[int, ...], init: str) -> np.ndarray:
    """A parameter of `shape` made by `init`.  Only "glorot" (uniform in
    +-sqrt(6 / (fan_in + fan_out)); a 2-D weight is (fan_in, fan_out), a
    conv kernel (cout, cin, *window) counts its window in both fans) and
    "normal" (std 0.02) draw from `rng`; "zeros", "ones" and "ring" (an
    offset bias: shape[0] / 2 (x, y) points on a circle of radius 0.01,
    flat) do not."""
    if init == "glorot":
        window = math.prod(shape[2:])
        fan_in, fan_out = (shape[1] * window, shape[0] * window) if len(shape) > 2 else shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)
    if init == "normal":
        return rng.normal(0.0, 0.02, shape)
    if init == "ring":
        k = shape[0] // 2
        angle = 2.0 * np.pi * np.arange(k) / k
        return 0.01 * np.stack([np.cos(angle), np.sin(angle)], axis=-1).ravel()
    return {"zeros": np.zeros, "ones": np.ones}[init](shape)


# ---------------------------------------------------------------------------
# Layout and counting
# ---------------------------------------------------------------------------

def flat_views(shapes: dict[str, tuple[int, ...]]) -> tuple[np.ndarray, Params]:
    """An uninitialized little-endian float64 vector and its {path: view}
    dict: one contiguous view per path, laid out in sorted-path order."""
    flat = np.empty(sum(math.prod(shape) for shape in shapes.values()), dtype="<f8")
    views, offset = {}, 0
    for k in sorted(shapes):
        n = math.prod(shapes[k])
        views[k] = flat[offset:offset + n].reshape(shapes[k])
        offset += n
    return flat, views


def count_parameters(shapes: dict[str, tuple[int, ...]]) -> tuple[dict[str, int], int]:
    """Exact element count per parameter path of {path: shape} and the total."""
    per_path = {k: math.prod(shape) for k, shape in sorted(shapes.items())}
    return per_path, sum(per_path.values())


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------
# Text header followed by raw little-endian float64 bytes:
#
#   facemark-ckpt v1
#   meta <key> <value>          (zero or more lines)
#   params <count>
#   <path> <dim0,dim1,...>      (count lines, sorted by path)
#   data
#   <raw bytes in header order>
#
# Bit-exact and byte-deterministic by construction.

def save_checkpoint(path: str, params: Params, meta: dict[str, str] | None = None) -> None:
    """One text header, then the `flat_views` vector of `params`, one path at a time."""
    lines = [CHECKPOINT_MAGIC]
    for k, v in sorted((meta or {}).items()):
        if any(c.isspace() for c in k) or "\n" in str(v):
            raise ConfigError(f"invalid checkpoint meta entry: {k!r}")
        lines.append(f"meta {k} {v}")
    keys = sorted(params)
    lines.append(f"params {len(keys)}")
    for k in keys:
        shape = params[k].shape
        lines.append(f"{k} {','.join(map(str, shape)) if shape else 'scalar'}")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines + ["data\n"]).encode())
        for k in keys:
            fh.write(np.ascontiguousarray(params[k], dtype="<f8").tobytes())


def _parse_header(lines: list[str]):
    """(meta, {path: shape}) from the header lines after the magic line.
    Raises ValueError naming the first malformed line."""
    meta: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("meta "):
        parts = lines[i].split(" ", 2)
        if len(parts) != 3:
            raise ValueError(f"meta line {lines[i]!r} has no value")
        meta[parts[1]] = parts[2]
        i += 1
    if i == len(lines) or not lines[i].startswith("params "):
        raise ValueError("no 'params <count>' line after the meta lines")
    count = int(lines[i][len("params "):])
    body = lines[i + 1:]
    if count != len(body):
        raise ValueError(f"params line promises {count} entries, the header lists {len(body)}")
    shapes: dict[str, tuple[int, ...]] = {}
    for line in body:
        name, _, dims = line.rpartition(" ")
        shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
        if not name or min(shape, default=0) < 0:
            raise ValueError(f"entry {line!r} is not '<path> <dim0,dim1,...>'")
        if shapes and name <= next(reversed(shapes)):  # the payload's order
            raise ValueError(f"entry {name!r} is out of sorted order or repeated")
        shapes[name] = shape
    return meta, shapes


def load_checkpoint(path: str) -> tuple[Params, dict[str, str]]:
    """(params, meta) of a checkpoint.  The payload is read once, into the
    vector of `flat_views`; every parameter is a writable view of it.  A
    payload with a non-finite value is a ConfigError naming the first such
    parameter in sorted order."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        lines = []
        for line in iter(fh.readline, b""):
            if line == b"data\n":
                break
            lines.append(line)
        else:
            raise ConfigError(f"not a checkpoint file: {path}")
        magic = magic[:-1]  # the line before the data line ends in "\n"
        if magic != CHECKPOINT_MAGIC.encode():
            magic = magic.decode(errors="replace")
            raise ConfigError(f"unsupported checkpoint header in {path}: {magic!r}")
        try:
            header = b"".join(lines)[:-1].decode()
            meta, shapes = _parse_header(header.split("\n"))
        except ValueError as e:  # UnicodeDecodeError included
            raise ConfigError(f"malformed checkpoint header in {path}: {e}") from None
        promised = 8 * sum(math.prod(shape) for shape in shapes.values())
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if promised != found:
            raise ConfigError(
                f"checkpoint payload size mismatch in {path}: header promises "
                f"{promised} bytes, found {found}"
            )
        buf, params = flat_views(shapes)
        if fh.readinto(buf) != found:
            raise ConfigError(f"checkpoint payload of {path} changed while reading")
    # one cheap pass: the dot is finite unless an entry is not, or a finite
    # entry's square (|x| > ~1e154) or the sum overflows; the scan decides
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.dot(buf, buf))
    if not finite:
        bad = next((k for k, v in params.items() if not np.isfinite(v).all()), None)
        if bad is not None:
            raise ConfigError(f"{path}: parameter {bad} holds a non-finite value")
    return params, meta


# ---------------------------------------------------------------------------
# Dataclass fields as text
# ---------------------------------------------------------------------------
# Config files and checkpoint metadata share these; each raises ValueError.

def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _finite(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _ints(s: str) -> tuple[int, ...]:
    if not s.strip():
        raise ValueError("empty list")
    return tuple(int(v) for v in s.split(","))


_PARSERS = {
    int: int, float: _finite, bool: _bool, str: str, tuple[int, ...]: _ints,
    tuple[int, ...] | None: lambda s: _ints(s) if s.strip() else None,
}


def field_parsers(cls) -> dict[str, typing.Callable[[str], typing.Any]]:
    """Name -> text parser of each field of dataclass `cls`, picked by its
    type annotation.  A field that holds a dataclass has none."""
    hints = typing.get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(hints[f.name])}


def field_text(v, bools=("false", "true")) -> str:
    """Text that the field's parser reads back as `v`; a bool is bools[v]."""
    if isinstance(v, bool):
        return bools[v]
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    return "" if v is None else str(v)
