"""Cascaded landmark decoder.

A stack of decoder layers refines landmark coordinates from an initial
estimate.  Each layer runs self-attention over the landmark queries, a
deformable read of the pyramid memory anchored at the current landmark
positions, and a small MLP head that nudges the positions.  Positions are
carried as logits between layers, so a layer whose head outputs zero leaves
them bit-for-bit unchanged; sigmoid(logits) is what the model reports.

The parallel flavor additionally treats every memory row as a query of the
same deformable pass and rewrites the memory each layer.  Both branches of
that pass read the pre-update memory, so queries and memory update
simultaneously.  The only parameters the parallel flavor adds are the
per-layer norm over the refreshed memory rows.

`forward` and `backward` run a chunk of B images at once: queries are
(N, B, C) and the memory (M * B, C), laid out as `attention` describes.
Every image of a chunk gets the arithmetic it would get alone, and the
parameter gradients add the images in order, so a chunk gives the bits of
a loop over its images.  Callers split a larger stack into chunks of
`images_per_chunk` images, so that a deformable pass holds about
CHUNK_ROWS query rows.

`ModelConfig`'s fields are the [model] config keys and, as text read by
the config file's parsers, a checkpoint's metadata.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionConfig,
    deform_project_fwd,
    deform_project_bwd,
    deformable_attention_fwd,
    deformable_attention_bwd,
    ffn_fwd,
    ffn_bwd,
    layer_norm_fwd,
    layer_norm_bwd,
    linear_fwd,
    linear_bwd,
    project_value,
    project_value_bwd,
    relu_fwd,
    relu_bwd,
    self_attention_fwd,
    self_attention_bwd,
)
from .backbone import (
    BackboneConfig,
    extract_memory,
    extract_memory_bwd,
    init_backbone_params,
)
from .errors import ConfigError
from .geometry import (
    PyramidLayout,
    build_pixel_positions,
    level_of_row,
    pixel_centers,
    sigmoid,
)
from .params import (Params, accumulate, field_parsers, field_text, glorot,
                     load_checkpoint, save_checkpoint)


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
        if self.num_landmarks < 1:
            raise ConfigError("need at least one landmark")
        if self.num_layers < 1:
            raise ConfigError("need at least one decoder layer")
        if len(self.stage_channels) != self.levels:
            raise ConfigError(
                f"{self.levels} pyramid levels need {self.levels} backbone "
                f"stages, got {len(self.stage_channels)}"
            )
        # AttentionConfig / BackboneConfig validate the rest
        self.attention_config
        side = self.image_side
        if side % self.backbone_config.last_stride != 0:
            raise ConfigError(
                f"image side {side} not divisible by the coarsest stride "
                f"{self.backbone_config.last_stride}"
            )

    @property
    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(self.dim, self.heads, self.levels, self.points)

    @property
    def backbone_config(self) -> BackboneConfig:
        return BackboneConfig(tuple(self.stage_channels), self.dim)

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
# the parallel flavor's forward cache, which grows with B, to one image.
CHUNK_ROWS = 256


def images_per_chunk(cfg: ModelConfig) -> int:
    rows = cfg.num_landmarks + (cfg.layout.total_len if cfg.parallel else 0)
    return max(1, CHUNK_ROWS // rows)


def chunk_slices(count: int, cfg: ModelConfig) -> list[slice]:
    """Slices of a stack of `count` images, one per forward/backward call."""
    k = images_per_chunk(cfg)
    return [slice(i, i + k) for i in range(0, count, k)]


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

class _NoDraws:
    """Stand-in for the generator `init_params` draws from that draws and
    allocates nothing: every draw, and every array of zeros or ones that
    the init asks it for, is a read-only broadcast scalar of the asked
    size.  So shapes cost no memory, whatever size they claim."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.broadcast_to(0.0, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.broadcast_to(0.0, size)

    def zeros(self, shape):
        return np.broadcast_to(0.0, shape)

    def ones(self, shape):
        return np.broadcast_to(1.0, shape)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter `init_params` creates for `cfg`,
    without drawing a random number or allocating a parameter."""
    return {k: v.shape for k, v in _build_params(cfg, _NoDraws()).items()}


def init_params(cfg: ModelConfig, seed: int = 0) -> Params:
    return _build_params(cfg, np.random.default_rng(seed))


def _build_params(cfg: ModelConfig, rng) -> Params:
    zeros = getattr(rng, "zeros", np.zeros)
    ones = getattr(rng, "ones", np.ones)
    p = init_backbone_params(rng, cfg.backbone_config)
    layout = cfg.layout
    n, c = cfg.num_landmarks, cfg.dim
    h_last, w_last, _ = layout.levels[-1]
    if cfg.learned_query_init:
        p["query_init.w"] = glorot(rng, h_last * w_last, n)
        p["query_init.b"] = zeros(n)
    else:
        p["query_embed"] = rng.normal(0.0, 0.02, (n, c))
    p["landmark_init.w"] = glorot(rng, c, 2)
    p["landmark_init.b"] = zeros(2)
    if cfg.self_attention:
        p["query_pos"] = rng.normal(0.0, 0.02, (n, c))
    # scale-level embedding added to memory rows acting as queries; allocated
    # for both decoder flavors so their parameter layouts differ only by the
    # parallel flavor's extra norms
    p["level_emb"] = rng.normal(0.0, 0.02, (cfg.levels, c))
    k = cfg.attention_config.total_points
    ring = 2.0 * np.pi * np.arange(k) / k
    offset_bias = 0.01 * np.stack([np.cos(ring), np.sin(ring)], axis=-1).ravel()
    for t in range(cfg.num_layers):
        pre = f"layers.{t}"
        if cfg.self_attention:
            for name in ("wq", "wk", "wv", "wo"):
                p[f"{pre}.self_attn.{name}"] = glorot(rng, c, c)
            for name in ("bq", "bk", "bv", "bo"):
                p[f"{pre}.self_attn.{name}"] = zeros(c)
            p[f"{pre}.self_attn.ln_g"] = ones(c)
            p[f"{pre}.self_attn.ln_b"] = zeros(c)
        p[f"{pre}.deform.w_off"] = zeros((c, k * 2))
        p[f"{pre}.deform.b_off"] = offset_bias.copy()
        p[f"{pre}.deform.w_wgt"] = zeros((c, k))
        p[f"{pre}.deform.b_wgt"] = zeros(k)
        p[f"{pre}.deform.w_val"] = glorot(rng, c, c)
        p[f"{pre}.deform.b_val"] = zeros(c)
        p[f"{pre}.deform.w_out"] = glorot(rng, c, c)
        p[f"{pre}.deform.b_out"] = zeros(c)
        p[f"{pre}.deform.ln_g"] = ones(c)
        p[f"{pre}.deform.ln_b"] = zeros(c)
        if cfg.parallel:
            p[f"{pre}.ln_img.g"] = ones(c)
            p[f"{pre}.ln_img.b"] = zeros(c)
        p[f"{pre}.ffn.w1"] = glorot(rng, c, 4 * c)
        p[f"{pre}.ffn.b1"] = zeros(4 * c)
        p[f"{pre}.ffn.w2"] = glorot(rng, 4 * c, c)
        p[f"{pre}.ffn.b2"] = zeros(c)
        p[f"{pre}.ffn.ln_g"] = ones(c)
        p[f"{pre}.ffn.ln_b"] = zeros(c)
        p[f"{pre}.head.w1"] = glorot(rng, c, c)
        p[f"{pre}.head.b1"] = zeros(c)
        p[f"{pre}.head.w2"] = glorot(rng, c, c)
        p[f"{pre}.head.b2"] = zeros(c)
        # zero start: every layer initially reports the cascade's input
        p[f"{pre}.head.w3"] = zeros((c, 2))
        p[f"{pre}.head.b3"] = zeros(2)
    return p


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


def _head_bwd(ddelta, cache: HeadCache):
    da2, g3 = linear_bwd(ddelta, cache.c3)
    dh2 = relu_bwd(da2, cache.m2)
    da1, g2 = linear_bwd(dh2, cache.c2)
    dh1 = relu_bwd(da1, cache.m1)
    dq, g1 = linear_bwd(dh1, cache.c1)
    return dq, {
        "w1": g1["w"], "b1": g1["b"], "w2": g2["w"], "b2": g2["b"],
        "w3": g3["w"], "b3": g3["b"],
    }


# ---------------------------------------------------------------------------
# Decoder layers
# ---------------------------------------------------------------------------

# Local parameter names of each per-layer group, "layers.{t}.{group}.{name}"
_LAYER_GROUPS = {
    "self_attn": ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln_g", "ln_b"),
    "deform": ("w_off", "b_off", "w_wgt", "b_wgt", "w_val", "b_val",
               "w_out", "b_out", "ln_g", "ln_b"),
    "ln_img": ("g", "b"),
    "ffn": ("w1", "b1", "w2", "b2", "ln_g", "ln_b"),
    "head": ("w1", "b1", "w2", "b2", "w3", "b3"),
}


def _layer_params(params: Params, t: int):
    """Layer t's parameters as {group: {local name: array}}, for the groups
    the model's flavor has."""
    pre = f"layers.{t}."
    return {g: {n: params[f"{pre}{g}.{n}"] for n in names}
            for g, names in _LAYER_GROUPS.items() if f"{pre}{g}.{names[0]}" in params}


def _self_attn_bwd(dq, grads, t, c_sa):
    dq, dpos, sg = self_attention_bwd(dq, c_sa)
    accumulate(grads, f"layers.{t}.self_attn.", sg)
    accumulate(grads, "", {"query_pos": dpos})  # per image, (N, B, C)
    return dq


ParallelCache = namedtuple(
    "ParallelCache", "self_attn value proj ln_img ln_q ffn n_mem"
)


def _basic_layer_fwd(q, refs, mem_data, layout, lp, pos, cfg):
    c_sa = None
    if cfg.self_attention:
        q, c_sa = self_attention_fwd(q, pos, lp["self_attn"], cfg.heads)
    out, c_d = deformable_attention_fwd(
        q, refs, mem_data, layout, lp["deform"], lp["ffn"], cfg.attention_config
    )
    return out, (c_sa, c_d)


def _basic_layer_bwd(dout, grads, t, cache):
    c_sa, c_d = cache
    dq, drefs, dmem, dg, dffn = deformable_attention_bwd(dout, c_d)
    accumulate(grads, f"layers.{t}.deform.", dg)
    accumulate(grads, f"layers.{t}.ffn.", dffn)
    if c_sa is not None:
        dq = _self_attn_bwd(dq, grads, t, c_sa)
    return dq, drefs, dmem


def _parallel_layer_fwd(q, refs, mem_state, aux, lp, pos, cfg):
    centers, pos_rows = aux
    c_sa = None
    if cfg.self_attention:
        q, c_sa = self_attention_fwd(q, pos, lp["self_attn"], cfg.heads)
    deform_p = lp["deform"]
    n_mem = pos_rows.shape[0]
    bsz = q.shape[1]
    mem3 = mem_state.reshape(n_mem, bsz, cfg.dim)
    rows = np.concatenate([mem3 + pos_rows[:, None], q], axis=0)
    refs_all = np.concatenate(
        [np.broadcast_to(centers[:, None], (n_mem, bsz, 2)), refs], axis=0
    )
    # both branches sample the pre-update memory
    value_levels, c_v = project_value(
        mem_state, cfg.layout, deform_p, cfg.attention_config
    )
    attn, c_p = deform_project_fwd(
        rows, refs_all, value_levels, deform_p, cfg.attention_config
    )
    mem_new, c_li = layer_norm_fwd(
        mem3 + attn[:n_mem], lp["ln_img"]["g"], lp["ln_img"]["b"]
    )
    zq, c_lq = layer_norm_fwd(
        q + attn[n_mem:], deform_p["ln_g"], deform_p["ln_b"]
    )
    q_out, c_f = ffn_fwd(zq, lp["ffn"])
    return (q_out, mem_new.reshape(mem_state.shape),
            ParallelCache(c_sa, c_v, c_p, c_li, c_lq, c_f, n_mem))


def _parallel_layer_bwd(dq_out, dmem_next, grads, layout, t, cache):
    n_mem = cache.n_mem
    dim = dq_out.shape[-1]
    dzq, dffn = ffn_bwd(dq_out, cache.ffn)
    accumulate(grads, f"layers.{t}.ffn.", dffn)
    dsum_q, g_lq = layer_norm_bwd(dzq, cache.ln_q)
    dsum_img, g_li = layer_norm_bwd(dmem_next.reshape(n_mem, -1, dim), cache.ln_img)
    accumulate(grads, f"layers.{t}.deform.", {"ln_g": g_lq["g"], "ln_b": g_lq["b"]})
    accumulate(grads, f"layers.{t}.ln_img.", g_li)
    dattn = np.concatenate([dsum_img, dsum_q], axis=0)
    drows, drefs_all, dlevels, dp = deform_project_bwd(dattn, cache.proj)
    dmem_value, dvp = project_value_bwd(dlevels, cache.value)
    accumulate(grads, f"layers.{t}.deform.", {**dp, **dvp})
    dmem = dsum_img.reshape(dmem_value.shape) + dmem_value
    dmem += drows[:n_mem].reshape(dmem.shape)
    dlevel = np.stack([drows[sl].sum(axis=0) for sl in layout.block_slices()])
    accumulate(grads, "", {"level_emb": dlevel})  # per image, (levels, B, C)
    dq = dsum_q + drows[n_mem:]
    drefs = drefs_all[n_mem:]
    if cache.self_attn is not None:
        dq = _self_attn_bwd(dq, grads, t, cache.self_attn)
    return dq, drefs, dmem


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------

ForwardCache = namedtuple(
    "ForwardCache",
    "backbone mem init_lin q0_source layer_caches ys aux",
)


def forward(params: Params, images, cfg: ModelConfig, keep_cache=True):
    """Run the whole model on a chunk of images, a (B, 3, side, side) stack.

    Returns (ys, cache) where ys is the list [Y_0, ..., Y_T] of (B, N, 2)
    landmark estimates in normalized [0, 1] image coordinates, one entry per
    supervision stage.  With keep_cache=False (inference) each stage's
    cache is dropped as soon as the stage is done and the returned cache is
    None, so memory does not grow with the layers.
    """
    if images.ndim != 4 or images.shape[2:] != (cfg.image_side, cfg.image_side):
        raise ConfigError(
            f"model expects a stack of {cfg.image_side}x{cfg.image_side} images, "
            f"got shape {images.shape}"
        )
    bsz = images.shape[0]
    mem, c_bb = extract_memory(images, params, cfg.backbone_config)
    if not keep_cache:
        c_bb = None
    layout = mem.layout
    if cfg.learned_query_init:
        # one (N, M_last) @ (M_last, C) product per image
        m_last = mem.data[layout.block_slices(bsz)[-1]].reshape(-1, bsz, cfg.dim)
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
    aux = None
    mem_state = mem.data
    if cfg.parallel:
        lv_idx = level_of_row(layout)
        pos_rows = build_pixel_positions(layout, cfg.dim) + params["level_emb"][lv_idx]
        aux = (pixel_centers(layout), pos_rows)
    layer_caches = []
    for t in range(cfg.num_layers):
        lp = _layer_params(params, t)
        if cfg.parallel:
            q, mem_state, c_layer = _parallel_layer_fwd(
                q, ys[-1], mem_state, aux, lp, pos, cfg
            )
        else:
            q, c_layer = _basic_layer_fwd(
                q, ys[-1], mem_state, layout, lp, pos, cfg
            )
        delta, c_head = _head_fwd(q, lp["head"])
        logits = logits + delta
        ys.append(sigmoid(logits))
        if keep_cache:
            layer_caches.append((c_layer, c_head))
        del c_layer, c_head  # else freed here, not when the next layer rebinds them
    cache = ForwardCache(c_bb, mem, c_init, q0_source, layer_caches, ys, aux)
    return [y.transpose(1, 0, 2) for y in ys], cache if keep_cache else None


def backward(dys, params: Params, cfg: ModelConfig, cache: ForwardCache):
    """Backpropagate per-stage landmark gradients dys (same layout as ys).

    Returns a grads dict covering every parameter path, zeros included,
    summed over the chunk's images.
    """
    ys = cache.ys
    dys = [dy.transpose(1, 0, 2) for dy in dys]
    n_layers = cfg.num_layers
    grads: Params = {}
    extra_dy = [np.zeros_like(ys[0]) for _ in range(n_layers + 1)]
    dlogits = np.zeros_like(ys[0])
    dq = np.zeros(ys[0].shape[:2] + (cfg.dim,))
    mem_rows = cache.mem.data.shape[0]
    dmem = np.zeros((mem_rows, cfg.dim))
    for t in range(n_layers - 1, -1, -1):
        c_layer, c_head = cache.layer_caches[t]
        y_t1 = ys[t + 1]
        dy_total = dys[t + 1] + extra_dy[t + 1]
        dlogits = dlogits + dy_total * y_t1 * (1.0 - y_t1)
        dq_head, hg = _head_bwd(dlogits, c_head)
        accumulate(grads, f"layers.{t}.head.", hg)
        dq_total = dq + dq_head
        if cfg.parallel:
            dq, drefs, dmem = _parallel_layer_bwd(
                dq_total, dmem, grads, cache.mem.layout, t, c_layer
            )
        else:
            dq, drefs, dmem_t = _basic_layer_bwd(dq_total, grads, t, c_layer)
            dmem += dmem_t
        extra_dy[t] += drefs
    dy0 = dys[0] + extra_dy[0]
    dlogits = dlogits + dy0 * ys[0] * (1.0 - ys[0])
    dq0_init, g_init = linear_bwd(dlogits, cache.init_lin)
    accumulate(grads, "landmark_init.", {"w": g_init["w"], "b": g_init["b"]})
    # (B, N, C): sums over axis 0 add the images in order
    dq0 = np.ascontiguousarray((dq + dq0_init).transpose(1, 0, 2))
    if cfg.learned_query_init:
        m_last = cache.q0_source
        grads["query_init.w"] = np.matmul(
            m_last.transpose(1, 0, 2), dq0.transpose(0, 2, 1)).sum(axis=0)
        grads["query_init.b"] = dq0.sum(axis=2).sum(axis=0)
        last_slice = cache.mem.layout.block_slices(dq0.shape[0])[-1]
        dlast = dmem[last_slice].reshape(m_last.shape)  # a view into dmem
        dlast += np.matmul(params["query_init.w"], dq0).transpose(1, 0, 2)
    else:
        grads["query_embed"] = dq0.sum(axis=0)
    # query_pos and level_emb were summed over the layers per image
    for k in ("query_pos", "level_emb"):
        if k in grads:
            grads[k] = grads[k].sum(axis=1)
    bb_grads = extract_memory_bwd(dmem, cache.backbone)
    grads.update(bb_grads)
    for k, v in params.items():
        if k not in grads:
            grads[k] = np.zeros_like(v)
    return grads


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
        (B, 3, side, side) stack, run one chunk at a time."""
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
        _check_param_shapes(path, params, param_shapes(config))
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
