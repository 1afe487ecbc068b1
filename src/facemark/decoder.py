"""Cascaded landmark decoder.

A stack of decoder layers refines landmark coordinates from an initial
estimate.  Each layer runs optional self-attention over the landmark
queries, a deformable read of the image pyramid anchored at the current
landmark positions, a residual layer norm and the FFN, then a small MLP head
that nudges the positions.  Positions are carried as logits between layers,
so a zero head leaves them bit-for-bit unchanged; sigmoid(logits) is what
the model reports.

Both flavors run this one layer; only the read (`_read_fwd`) differs.  The
basic read samples the backbone features and maps what it read through the
level and value projections composed, so the basic flavor never builds the
(M * B, C) memory; it projects only the last level's rows, which the query
init reads.  The parallel read projects the memory rows, treats every
memory row as a query of the same pass and rewrites the memory, both
branches reading the pre-update memory.  The
last layer's read skips the memory rows, since nothing reads the memory
after it.  The flavor's only added parameters are the per-layer norm over
the refreshed memory rows; the last layer's pair is kept but inert.

`forward` and `backward` run a chunk of B images at once: queries are
(N, B, C), the parallel memory (M * B, C) and the basic read's features
(h, w, B, ch) per level, laid out as `attention` describes.
Every image of a chunk gets the arithmetic it would get alone, and the
parameter gradients add the images in order, so a chunk gives the bits of
a loop over its images.  Callers split a larger stack into chunks of
`images_per_chunk` images, so that a deformable pass holds about
CHUNK_ROWS query rows.  `forward` and `backward` write into no parameter,
so training runs the next chunk's forward on the worker beside this
chunk's backward (`training`); each gradient entry is still added in chunk
order, so the overlap moves no bit.  `backward` calls its `layer_done`
argument once each layer is finished, which lets `train` queue that
layer's Adam update.

`ModelConfig` is the one model config: the attention and backbone
functions read their geometry from it, and it is validated in one place.
Its fields are the [model] config keys and, as text read by the config
file's parsers, a checkpoint's metadata.

`param_rows` declares every parameter once, as a (path, shape, init) row
in draw order: the backbone's rows, then the query init, `landmark_init`,
`query_pos`, `level_emb` and each layer's groups (`_layer_rows`).
`init_params` draws the rows with `params.draw`; `param_shapes` reads
their shapes and allocates nothing; `_layer_params` takes each group's
local names from them; `DecoderState.load` checks a checkpoint against
their shapes.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .attention import (
    deform_project_fwd,
    deform_project_bwd,
    ffn_fwd,
    ffn_bwd,
    layer_norm_fwd,
    layer_norm_bwd,
    level_views,
    linear_fwd,
    linear_bwd,
    project_value,
    project_value_bwd,
    relu_fwd,
    relu_bwd,
    self_attention_fwd,
    self_attention_bwd,
    _sample_project_fwd,
    _sample_project_bwd,
)
from .backbone import backbone_rows, extract_memory, extract_memory_bwd, stack_projections
from .errors import ConfigError
from .geometry import (
    PyramidLayout,
    build_pixel_positions,
    level_of_row,
    level_stride,
    pixel_centers,
    sigmoid,
)
from .params import (Params, Row, draw, field_parsers, field_text, load_checkpoint,
                     save_checkpoint)


@dataclass(frozen=True)
class ModelConfig:
    num_landmarks: int = 68
    dim: int = 256
    heads: int = 8
    levels: int = 4
    points: int = 4
    num_layers: int = 3
    image_side: int = 256
    stage_channels: tuple[int, ...] = (16, 32, 64, 128)
    parallel: bool = False
    self_attention: bool = True
    learned_query_init: bool = True

    def __post_init__(self):
        """The one check of the model's geometry: the attention, backbone
        and layout code trust these fields."""
        for name in ("num_landmarks", "num_layers", "dim", "heads", "levels", "points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if len(self.stage_channels) != self.levels:
            raise ConfigError(f"model.stage_channels has {len(self.stage_channels)} entries "
                              f"but model.levels is {self.levels}: one backbone stage per level")
        if min(self.stage_channels) < 1:
            raise ConfigError(f"model.stage_channels must all be >= 1, got {self.stage_channels}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"model.dim {self.dim} not divisible by heads {self.heads}: "
                              f"model.heads must divide model.dim")
        if self.parallel and self.dim % 2 != 0:
            raise ConfigError(
                f"model.dim {self.dim} must be even with model.parallel = true: the "
                f"memory rows' positional encoding splits dim into sin/cos pairs"
            )
        stride = level_stride(self.levels - 1)
        if self.image_side < stride or self.image_side % stride != 0:
            raise ConfigError(
                f"model.image_side {self.image_side} is not a positive multiple of "
                f"the coarsest pyramid stride {stride}"
            )

    @property
    def layout(self) -> PyramidLayout:
        return PyramidLayout.for_image(self.image_side, self.levels)

    def to_meta(self) -> dict[str, str]:
        """Every field as checkpoint metadata text: bools 1/0, tuples comma-joined."""
        return {k: field_text(getattr(self, k), bools=("0", "1")) for k in _META_PARSERS}

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelConfig":
        """Inverse of `to_meta`; each field is read by its type's text parser."""
        fields = {}
        for k, parse in _META_PARSERS.items():
            if k not in meta:
                raise ConfigError(f"checkpoint metadata missing {k!r}")
            try:
                fields[k] = parse(meta[k])
            except ValueError as e:
                raise ConfigError(f"bad checkpoint metadata {k}: {e}") from None
        return cls(**fields)


_META_PARSERS = field_parsers(ModelConfig)


TINY = ModelConfig(
    num_landmarks=5, dim=16, heads=2, levels=2, points=2, num_layers=2,
    image_side=32, stage_channels=(8, 16),
)


# Query rows per image of one deformable pass: the N landmark queries, plus
# the M memory rows in the parallel flavor.  A chunk holds
# max(1, CHUNK_ROWS // rows) images, which batches small models and keeps
# the parallel flavor's forward cache, which grows with B, to one image per
# chunk.  Training holds two chunks' caches at once: the one its backward
# reads and the next, which a worker's forward builds meanwhile.
CHUNK_ROWS = 256


def images_per_chunk(cfg: ModelConfig) -> int:
    rows = cfg.num_landmarks + (cfg.layout.total_len if cfg.parallel else 0)
    return max(1, CHUNK_ROWS // rows)


def chunk_slices(count: int, cfg: ModelConfig) -> list[slice]:
    """Slices of a stack of `count` images, one per forward/backward call."""
    k = images_per_chunk(cfg)
    return [slice(i, i + k) for i in range(0, count, k)]


# ---------------------------------------------------------------------------
# Parameters: one (path, shape, init) row each
# ---------------------------------------------------------------------------

def _layer_rows(cfg: ModelConfig) -> dict[str, tuple[tuple, ...]]:
    """{group: ((local name, shape, init), ...)} of one decoder layer, for
    the groups the model's flavor has, in draw order; layer t's paths are
    "layers.{t}.{group}.{name}"."""
    c = cfg.dim
    k = cfg.heads * cfg.levels * cfg.points  # memory reads per query
    # a square weight, a bias, and the norm that closes a group
    w, b, ln = (c, c), (c,), (("ln_g", (c,), "ones"), ("ln_b", (c,), "zeros"))
    groups = {}
    if cfg.self_attention:
        groups["self_attn"] = (
            ("wq", w, "glorot"), ("wk", w, "glorot"), ("wv", w, "glorot"), ("wo", w, "glorot"),
            ("bq", b, "zeros"), ("bk", b, "zeros"), ("bv", b, "zeros"), ("bo", b, "zeros"),
            *ln)
    groups["deform"] = (
        ("w_off", (c, k * 2), "zeros"), ("b_off", (k * 2,), "ring"),
        ("w_wgt", (c, k), "zeros"), ("b_wgt", (k,), "zeros"),
        ("w_val", w, "glorot"), ("b_val", b, "zeros"),
        ("w_out", w, "glorot"), ("b_out", b, "zeros"), *ln)
    if cfg.parallel:
        groups["ln_img"] = (("g", b, "ones"), ("b", b, "zeros"))
    groups["ffn"] = (("w1", (c, 4 * c), "glorot"), ("b1", (4 * c,), "zeros"),
                     ("w2", (4 * c, c), "glorot"), ("b2", b, "zeros"), *ln)
    # zero last layer: every layer initially reports the cascade's input
    groups["head"] = (("w1", w, "glorot"), ("b1", b, "zeros"),
                      ("w2", w, "glorot"), ("b2", b, "zeros"),
                      ("w3", (c, 2), "zeros"), ("b3", (2,), "zeros"))
    return groups


def param_rows(cfg: ModelConfig) -> list[Row]:
    """(path, shape, init) of every parameter of the model, in draw order:
    the one declaration that init, shapes, layer views and the checkpoint
    check read."""
    n, c = cfg.num_landmarks, cfg.dim
    h_last, w_last = cfg.layout.levels[-1]
    rows = backbone_rows(cfg)
    if cfg.learned_query_init:
        rows += [("query_init.w", (h_last * w_last, n), "glorot"),
                 ("query_init.b", (n,), "zeros")]
    else:
        rows.append(("query_embed", (n, c), "normal"))
    rows += [("landmark_init.w", (c, 2), "glorot"), ("landmark_init.b", (2,), "zeros")]
    if cfg.self_attention:
        rows.append(("query_pos", (n, c), "normal"))
    # scale-level embedding added to memory rows acting as queries; declared
    # for both decoder flavors so their parameter layouts differ only by the
    # parallel flavor's extra norms
    rows.append(("level_emb", (cfg.levels, c), "normal"))
    layer = _layer_rows(cfg)
    rows += [(f"layers.{t}.{g}.{name}", shape, init) for t in range(cfg.num_layers)
             for g, group in layer.items() for name, shape, init in group]
    return rows


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of `cfg`, without drawing a random
    number or allocating a parameter."""
    return {path: shape for path, shape, _ in param_rows(cfg)}


def init_params(cfg: ModelConfig, seed: int = 0) -> Params:
    rng = np.random.default_rng(seed)
    return {path: draw(rng, shape, init) for path, shape, init in param_rows(cfg)}


# ---------------------------------------------------------------------------
# Offset head: 3-layer MLP, final layer starts at zero
# ---------------------------------------------------------------------------

HeadCache = namedtuple("HeadCache", "c1 m1 c2 m2 c3")


def _head_fwd(q, p):
    h1, c1 = linear_fwd(q, p["w1"], p["b1"])
    a1, m1 = relu_fwd(h1)
    h2, c2 = linear_fwd(a1, p["w2"], p["b2"])
    a2, m2 = relu_fwd(h2)
    delta, c3 = linear_fwd(a2, p["w3"], p["b3"])
    return delta, HeadCache(c1, m1, c2, m2, c3)


def _head_bwd(ddelta, cache: HeadCache, g):
    da2 = linear_bwd(ddelta, cache.c3, g["w3"], g["b3"])
    dh2 = relu_bwd(da2, cache.m2)
    da1 = linear_bwd(dh2, cache.c2, g["w2"], g["b2"])
    dh1 = relu_bwd(da1, cache.m1)
    return linear_bwd(dh1, cache.c1, g["w1"], g["b1"])


# ---------------------------------------------------------------------------
# Decoder layers
# ---------------------------------------------------------------------------

def _layer_params(params: Params, t: int, cfg: ModelConfig):
    """Layer t's parameters, or their gradient views, as {group: {local
    name: array}}, for the groups the model's flavor has."""
    pre = f"layers.{t}."
    return {g: {n: params[f"{pre}{g}.{n}"] for n, _, _ in group}
            for g, group in _layer_rows(cfg).items()}


def _read_fwd(q, refs, mem_state, aux, lp, cfg):
    """Deformable read of queries q at reference points refs: (attention
    output of q, next memory, cache).  The basic read's memory is the
    backbone features and the stacked level projections, (feats, proj); it
    samples the features, projects what it read, and passes them through.
    The parallel read projects every memory row first.  Given `aux`, the
    memory rows' pixel centers and positions, each memory row is a query
    too and its outputs refresh the memory.  Without it (no later layer
    reads the memory) q alone reads, and the next memory is None."""
    deform_p = lp["deform"]
    if not cfg.parallel:
        attn, c_r = _sample_project_fwd(q, refs, *mem_state, deform_p, cfg)
        return attn, mem_state, c_r
    value_levels, c_v = project_value(mem_state, cfg.layout, deform_p, cfg)
    if aux is None:
        attn, c_p = deform_project_fwd(q, refs, value_levels, deform_p, cfg)
        return attn, None, (c_v, c_p, None)
    centers, pos_rows = aux
    n_mem, bsz = pos_rows.shape[0], q.shape[1]
    mem3 = mem_state.reshape(n_mem, bsz, cfg.dim)
    rows = np.concatenate([mem3 + pos_rows[:, None], q], axis=0)
    refs_all = np.concatenate(
        [np.broadcast_to(centers[:, None], (n_mem, bsz, 2)), refs], axis=0
    )
    attn, c_p = deform_project_fwd(rows, refs_all, value_levels, deform_p, cfg)
    mem_new, c_li = layer_norm_fwd(mem3 + attn[:n_mem], lp["ln_img"]["g"], lp["ln_img"]["b"])
    return attn[n_mem:], mem_new.reshape(mem_state.shape), (c_v, c_p, c_li)


def _read_bwd(dattn, dmem_next, dlevel, lg, cache, cfg):
    """Returns (dq, drefs, dmem) of the read, given the gradients of its
    output and of the next memory.  The basic read's memory gradient is
    (dfeats, dproj), which it adds into.  A parallel read ignores dmem_next
    if it refreshed no memory, else adds into dlevel.  Adds the parameter
    gradients into lg, the layer's `_layer_params` views."""
    g = lg["deform"]
    if not cfg.parallel:
        # the memory passed through; layers add in order
        dq, drefs = _sample_project_bwd(dattn, cache, g, *dmem_next)
        return dq, drefs, dmem_next
    c_v, c_p, c_li = cache
    n_mem = cfg.layout.total_len
    dvalue = np.zeros((n_mem, dattn.shape[1], cfg.dim))
    dlevels = level_views(dvalue, cfg.layout, cfg.dim // cfg.heads)
    if c_li is None:
        dq, drefs = deform_project_bwd(dattn, c_p, g, dlevels)
        return dq, drefs, project_value_bwd(dvalue, c_v, g)
    dsum_img = layer_norm_bwd(dmem_next.reshape(n_mem, -1, cfg.dim), c_li,
                              lg["ln_img"]["g"], lg["ln_img"]["b"])
    dattn = np.concatenate([dsum_img, dattn], axis=0)
    drows, drefs_all = deform_project_bwd(dattn, c_p, g, dlevels)
    dmem_value = project_value_bwd(dvalue, c_v, g)
    dmem = dsum_img.reshape(dmem_value.shape) + dmem_value
    dmem += drows[:n_mem].reshape(dmem.shape)
    dlevel += np.stack([drows[sl].sum(axis=0) for sl in cfg.layout.block_slices()])
    return drows[n_mem:], drefs_all[n_mem:], dmem


LayerCache = namedtuple("LayerCache", "self_attn read ln ffn")


def _layer_fwd(q, refs, mem_state, aux, lp, pos, cfg):
    """Optional self-attention, the read, LN(q + attn), then the FFN.
    Returns (q_out, next memory, cache)."""
    c_sa = None
    if cfg.self_attention:
        q, c_sa = self_attention_fwd(q, pos, lp["self_attn"], cfg.heads)
    attn, mem_next, c_r = _read_fwd(q, refs, mem_state, aux, lp, cfg)
    z, c_ln = layer_norm_fwd(q + attn, lp["deform"]["ln_g"], lp["deform"]["ln_b"])
    out, c_f = ffn_fwd(z, lp["ffn"])
    return out, mem_next, LayerCache(c_sa, c_r, c_ln, c_f)


def _layer_bwd(dout, dmem_next, dpos, dlevel, lg, cache: LayerCache, cfg):
    """Returns (dq, drefs, dmem) for the layer's input queries, reference
    points and memory; adds the parameter gradients into lg, the layer's
    `_layer_params` views, and the per-image query_pos and level_emb
    gradients into dpos and dlevel."""
    dz = ffn_bwd(dout, cache.ffn, lg["ffn"])
    dsum = layer_norm_bwd(dz, cache.ln, lg["deform"]["ln_g"], lg["deform"]["ln_b"])
    dq, drefs, dmem = _read_bwd(dsum, dmem_next, dlevel, lg, cache.read, cfg)
    dq = dsum + dq
    if cache.self_attn is not None:
        dq, dpos_t = self_attention_bwd(dq, cache.self_attn, lg["self_attn"])
        dpos += dpos_t
    return dq, drefs, dmem


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _memory_rows(layout: PyramidLayout, dim: int):
    """The parallel read's fixed inputs for each memory row: its pixel
    center, its sinusoidal position and its level.  Built once per layout
    and width and read-only, so that forwards on any thread share them."""
    arrays = (pixel_centers(layout), build_pixel_positions(layout, dim), level_of_row(layout))
    for a in arrays:
        a.flags.writeable = False
    return arrays


ForwardCache = namedtuple("ForwardCache", "backbone init_lin q0_source layer_caches ys")


def forward(params: Params, images, cfg: ModelConfig, keep_cache=True):
    """Run the whole model on a chunk of images, a (B, 3, side, side) stack.

    Returns (ys, cache) where ys is the list [Y_0, ..., Y_T] of (B, N, 2)
    landmark estimates in normalized [0, 1] image coordinates, one entry per
    supervision stage.  With keep_cache=False (inference) each stage's
    cache is dropped as soon as the stage is done and the returned cache is
    None, so memory does not grow with the layers.
    """
    # the basic read samples the features: only the query init reads
    # memory rows, those of the last level
    first = 0 if cfg.parallel else cfg.levels - 1
    mem, c_bb = extract_memory(images, params, cfg, first)  # checks the stack's shape
    bsz, layout = images.shape[0], cfg.layout
    mem_state = mem if cfg.parallel else (c_bb.feats, stack_projections(params, cfg))
    if not keep_cache:
        c_bb = None
    if cfg.learned_query_init:
        # one (N, M_last) @ (M_last, C) product per image
        h_last, w_last = layout.levels[-1]
        m_last = mem[len(mem) - h_last * w_last * bsz:].reshape(-1, bsz, cfg.dim)
        q = np.matmul(params["query_init.w"].T, m_last.transpose(1, 0, 2))
        q = (q + params["query_init.b"][:, None]).transpose(1, 0, 2)
        q0_source = m_last
    else:
        q = np.broadcast_to(params["query_embed"][:, None],
                            (cfg.num_landmarks, bsz, cfg.dim))
        q0_source = None
    pos = params["query_pos"][:, None] if cfg.self_attention else None
    logits, c_init = linear_fwd(q, params["landmark_init.w"], params["landmark_init.b"])
    ys = [sigmoid(logits)]  # each (N, B, 2)
    aux = None  # the parallel read's memory-row reference points and positions
    if cfg.parallel:
        centers, positions, row_level = _memory_rows(layout, cfg.dim)
        aux = (centers, positions + params["level_emb"][row_level])
    layer_caches = []
    for t in range(cfg.num_layers):
        lp = _layer_params(params, t, cfg)
        # the last layer's refreshed memory would be read by nothing
        aux_t = aux if t < cfg.num_layers - 1 else None
        q, mem_state, c_layer = _layer_fwd(q, ys[-1], mem_state, aux_t, lp, pos, cfg)
        delta, c_head = _head_fwd(q, lp["head"])
        logits = logits + delta
        ys.append(sigmoid(logits))
        if keep_cache:
            layer_caches.append((c_layer, c_head))
        del c_layer, c_head  # else freed here, not when the next layer rebinds them
    cache = ForwardCache(c_bb, c_init, q0_source, layer_caches, ys)
    return [y.transpose(1, 0, 2) for y in ys], cache if keep_cache else None


def backward(dys, params: Params, cfg: ModelConfig, cache: ForwardCache, grads: Params,
             layer_done=None):
    """Backpropagate per-stage landmark gradients dys (same layout as ys).

    Adds the parameter gradients, summed over the chunk's images, into the
    caller's buffer `grads`, which holds every parameter path.  Calls
    `layer_done`, if given, with t once layer t's backward has returned:
    after that this thread adds nothing more into the layers.{t}.*
    gradients.
    """
    ys = cache.ys
    dys = [dy.transpose(1, 0, 2) for dy in dys]
    # the reference points of layer t are stage t's estimate
    drefs = np.zeros_like(ys[0])
    dlogits = np.zeros_like(ys[0])
    dq = np.zeros(ys[0].shape[:2] + (cfg.dim,))
    bsz, (h_last, w_last) = dq.shape[1], cfg.layout.levels[-1]
    # the gradients of the backbone's features and, per image, of the
    # stacked projections; the layers' memory gradient is the memory rows',
    # or for the basic read this pair
    dfeats = [np.zeros(f.shape) for f in cache.backbone.feats]
    dproj = np.zeros((bsz, sum(cfg.stage_channels) + cfg.levels, cfg.dim))
    dstate = (np.zeros((cfg.layout.total_len * bsz, cfg.dim)) if cfg.parallel
              else (dfeats, dproj))
    # query_pos and level_emb gradients per image, summed over the layers
    dpos, dlevel = np.zeros_like(dq), np.zeros((cfg.levels,) + dq.shape[1:])
    for t in range(cfg.num_layers - 1, -1, -1):
        c_layer, c_head = cache.layer_caches[t]
        y_t1 = ys[t + 1]
        dlogits = dlogits + (dys[t + 1] + drefs) * y_t1 * (1.0 - y_t1)
        lg = _layer_params(grads, t, cfg)
        dq_head = _head_bwd(dlogits, c_head, lg["head"])
        dq, drefs, dstate = _layer_bwd(dq + dq_head, dstate, dpos, dlevel, lg, c_layer, cfg)
        if layer_done is not None:
            layer_done(t)
    dlogits = dlogits + (dys[0] + drefs) * ys[0] * (1.0 - ys[0])
    # the gradient of the projected memory rows; the basic read's are the
    # last level's, which only the query init reads
    dmem = dstate if cfg.parallel else np.zeros((h_last * w_last * bsz, cfg.dim))
    dq0_init = linear_bwd(dlogits, cache.init_lin, grads["landmark_init.w"],
                          grads["landmark_init.b"])
    # (B, N, C): sums over axis 0 add the images in order
    dq0 = np.ascontiguousarray((dq + dq0_init).transpose(1, 0, 2))
    if cfg.learned_query_init:
        m_last = cache.q0_source
        # per image (N, C) @ (C, M_last): the (M_last, C) @ (C, N) layout of
        # the same product read other bits at 2 BLAS threads than at 1
        grads["query_init.w"] += np.matmul(dq0, m_last.transpose(1, 2, 0)).sum(axis=0).T
        grads["query_init.b"] += dq0.sum(axis=2).sum(axis=0)
        dlast = dmem[len(dmem) - h_last * w_last * bsz:].reshape(m_last.shape)  # a view
        dlast += np.matmul(params["query_init.w"], dq0).transpose(1, 0, 2)
    else:
        grads["query_embed"] += dq0.sum(axis=0)
    if cfg.self_attention:
        grads["query_pos"] += dpos.sum(axis=1)
    grads["level_emb"] += dlevel.sum(axis=1)
    extract_memory_bwd(dmem, cache.backbone, grads, dfeats, dproj)


# ---------------------------------------------------------------------------
# Model bundle
# ---------------------------------------------------------------------------

@dataclass
class DecoderState:
    """A config plus its parameters; what checkpoints store."""

    config: ModelConfig
    params: Params

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "DecoderState":
        return cls(config, init_params(config, seed))

    def predict(self, images):
        """Stage estimates [Y_0, ..., Y_T], each (B, N, 2), for a
        (B, 3, side, side) stack, run one chunk at a time with numpy's
        overflow and invalid-value warnings off: `cli.cmd_predict` and
        `metrics.evaluate` turn a non-finite estimate into a NumericError."""
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [forward(self.params, images[sl], self.config, keep_cache=False)[0]
                     for sl in chunk_slices(len(images), self.config)]
        return [np.concatenate(stage) for stage in zip(*parts)]

    def save(self, path, extra_meta: dict[str, str] | None = None):
        meta = self.config.to_meta()
        if extra_meta:
            for k, v in extra_meta.items():
                if k in meta:
                    raise ConfigError(f"metadata key collides with config: {k}")
                meta[k] = v
        save_checkpoint(path, self.params, meta)

    @classmethod
    def load(cls, path) -> tuple["DecoderState", dict[str, str]]:
        params, meta = load_checkpoint(path)
        try:
            config = ModelConfig.from_meta(meta)
        except (ConfigError, ValueError) as e:
            raise ConfigError(f"{path}: {e}") from None
        # shapes up to the first claimed layer the checkpoint lacks: the
        # work is bounded by the checkpoint, not by its metadata
        present = {k.split(".")[1] for k in params if k.startswith("layers.")}
        first_absent = next(t for t in range(len(present) + 1) if str(t) not in present)
        checked = replace(config, num_layers=min(config.num_layers, first_absent + 1))
        _check_param_shapes(path, params, param_shapes(checked))
        extra = {k: v for k, v in meta.items() if k not in _META_PARSERS}
        return cls(config, params), extra


def _check_param_shapes(path, params: Params, expected: dict[str, tuple[int, ...]]):
    """Raise ConfigError naming the first parameter, in sorted order, that
    the checkpoint's config does not expect, lacks, or expects in another
    shape."""
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise ConfigError(f"{path}: parameter {name} missing for the checkpoint's config")
        if name not in expected:
            raise ConfigError(f"{path}: parameter {name} not expected by the checkpoint's config")
        if params[name].shape != expected[name]:
            raise ConfigError(
                f"{path}: parameter {name} has shape {params[name].shape}, "
                f"the checkpoint's config expects {expected[name]}"
            )
