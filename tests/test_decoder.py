import dataclasses
import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from facemark import decoder
from facemark.decoder import (
    TINY,
    DecoderState,
    ModelConfig,
    backward,
    chunk_slices,
    forward,
    images_per_chunk,
    init_params,
    param_shapes,
)
from facemark.errors import ConfigError
from facemark.geometry import sigmoid
from facemark.params import count_parameters, flat_views
from facemark.training import gen_synthetic

from conftest import FLAVORS, TINY_SPEC, jitter_params


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_rejects_stage_count_mismatch():
    with pytest.raises(ConfigError):
        ModelConfig(levels=2, stage_channels=(8, 16, 32))


def test_config_rejects_indivisible_image_side():
    with pytest.raises(ConfigError):
        dataclasses.replace(TINY, image_side=36)


def test_config_rejects_image_side_below_the_coarsest_stride():
    # 0 % 32 == 0, so divisibility alone let these through
    for side in (0, -32, 16):
        with pytest.raises(ConfigError, match=f"image_side {side} .* stride 32"):
            ModelConfig(image_side=side)
    assert ModelConfig(image_side=32).layout.levels[-1] == (1, 1)


def test_config_rejects_odd_dim_with_the_parallel_decoder():
    # the memory rows' sinusoidal positions need an even width
    odd = dataclasses.replace(TINY, dim=9, heads=3)
    with pytest.raises(ConfigError, match="dim 9 must be even"):
        dataclasses.replace(odd, parallel=True)
    with pytest.raises(ConfigError, match="dim 9 must be even"):
        ModelConfig.from_meta({**odd.to_meta(), "parallel": "1"})


def test_every_config_error_names_its_key():
    for key, fields in (
        ("num_landmarks", {"num_landmarks": 0}),
        ("num_layers", {"num_layers": 0}),
        ("dim", {"dim": 0}),
        ("heads", {"heads": 0}),
        ("levels", {"levels": 0, "stage_channels": ()}),
        ("points", {"points": 0}),
        ("stage_channels", {"stage_channels": (8, 16, 32)}),
        ("stage_channels", {"stage_channels": (8, 0)}),
        ("heads", {"heads": 3}),
    ):
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(TINY, **fields)


def test_config_rejects_bad_head_split():
    with pytest.raises(ConfigError):
        dataclasses.replace(TINY, heads=3)


def test_config_meta_round_trip():
    for parallel, self_attention, learned_query_init in itertools.product((False, True), repeat=3):
        cfg = dataclasses.replace(TINY, parallel=parallel, self_attention=self_attention,
                                  learned_query_init=learned_query_init)
        assert ModelConfig.from_meta(cfg.to_meta()) == cfg


def test_config_meta_text_is_pinned():
    # checkpoints written by earlier versions store exactly this text
    assert TINY.to_meta() == {
        "num_landmarks": "5", "dim": "16", "heads": "2", "levels": "2",
        "points": "2", "num_layers": "2", "image_side": "32",
        "stage_channels": "8,16", "parallel": "0", "self_attention": "1",
        "learned_query_init": "1",
    }


def test_config_meta_missing_key():
    meta = TINY.to_meta()
    del meta["heads"]
    with pytest.raises(ConfigError):
        ModelConfig.from_meta(meta)


# ---------------------------------------------------------------------------
# parameter inventory
# ---------------------------------------------------------------------------

def test_parallel_paths_extend_basic_by_image_norms():
    basic = init_params(TINY, seed=0)
    par = init_params(dataclasses.replace(TINY, parallel=True), seed=0)
    extra = set(par) - set(basic)
    want = set()
    for t in range(TINY.num_layers):
        want.add(f"layers.{t}.ln_img.g")
        want.add(f"layers.{t}.ln_img.b")
    assert extra == want
    assert set(basic) - set(par) == set()


def test_parameter_parity_is_layers_times_two_norms():
    for cfg in (TINY, dataclasses.replace(TINY, dim=32, stage_channels=(8, 32))):
        basic = count_parameters(param_shapes(cfg))[1]
        par = count_parameters(param_shapes(dataclasses.replace(cfg, parallel=True)))[1]
        assert par - basic == cfg.num_layers * 2 * cfg.dim


def test_parameter_parity_full_scale_value():
    cfg = ModelConfig()  # 68 points, C=256, T=3
    basic = count_parameters(param_shapes(cfg))[1]
    par = count_parameters(param_shapes(dataclasses.replace(cfg, parallel=True)))[1]
    assert par - basic == 3 * 2 * 256 == 1536


def test_query_variants_swap_one_path_pair():
    learned = init_params(TINY)
    embed = init_params(dataclasses.replace(TINY, learned_query_init=False))
    assert set(learned) - set(embed) == {"query_init.w", "query_init.b"}
    assert set(embed) - set(learned) == {"query_embed"}
    h, w = TINY.layout.levels[-1]
    assert learned["query_init.w"].shape == (h * w, TINY.num_landmarks)
    assert embed["query_embed"].shape == (TINY.num_landmarks, TINY.dim)


def test_offset_bias_starts_on_a_ring():
    p = init_params(TINY)
    k = TINY.heads * TINY.levels * TINY.points
    bias = p["layers.0.deform.b_off"].reshape(k, 2)
    npt.assert_allclose(np.hypot(bias[:, 0], bias[:, 1]), 0.01, atol=1e-15)
    # distinct directions, not all the same point
    assert len({tuple(np.round(row, 6)) for row in bias}) == k


def test_head_output_layer_starts_at_zero():
    p = init_params(TINY)
    for t in range(TINY.num_layers):
        npt.assert_array_equal(p[f"layers.{t}.head.w3"], 0.0)
        npt.assert_array_equal(p[f"layers.{t}.head.b3"], 0.0)


# ---------------------------------------------------------------------------
# cascade refinement: with head.w3 at zero, stage t adds head.b3 to the logits
# ---------------------------------------------------------------------------

def _stages_with_head_biases(state, image, deltas):
    params = dict(state.params)
    for t, delta in enumerate(deltas):
        params[f"layers.{t}.head.b3"] = np.asarray(delta, dtype=np.float64)
    return DecoderState(state.config, params).predict(image[None])


def test_refine_zero_delta_is_identity(tiny_state, tiny_batch):
    # a zero stage after a moving one passes its input through bit for bit
    deltas = [[0.4, -0.2], [0.0, 0.0]]
    ys = _stages_with_head_biases(tiny_state, tiny_batch[0].image, deltas)
    assert not np.array_equal(ys[1], ys[0])
    npt.assert_array_equal(ys[2], ys[1])


def test_refine_composes_in_logit_space(tiny_state, tiny_batch):
    rng = np.random.default_rng(0)
    deltas = rng.normal(size=(TINY.num_layers, 2))
    ys = _stages_with_head_biases(tiny_state, tiny_batch[0].image, deltas)
    logit0 = np.log(ys[0]) - np.log1p(-ys[0])
    one_step = sigmoid(logit0 + deltas.sum(axis=0))
    npt.assert_allclose(ys[-1], one_step, atol=1e-9)


def test_refine_moves_toward_delta_sign(tiny_state, tiny_batch):
    deltas = np.array([[0.3, -0.3], [-0.3, 0.3]])
    ys = _stages_with_head_biases(tiny_state, tiny_batch[0].image, deltas)
    for t, delta in enumerate(deltas):
        assert (np.sign(ys[t + 1] - ys[t]) == np.sign(delta)).all()


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_emits_one_estimate_per_stage(tiny_state, tiny_batch):
    ys = tiny_state.predict(tiny_batch[0].image[None])
    assert len(ys) == TINY.num_layers + 1
    for y in ys:
        assert y.shape == (1, TINY.num_landmarks, 2)
        assert (y > 0).all() and (y < 1).all()


def test_forward_rejects_wrong_image_size(tiny_state):
    with pytest.raises(ConfigError):
        tiny_state.predict(np.zeros((1, 3, 64, 64)))
    with pytest.raises(ConfigError):
        tiny_state.predict(np.zeros((3, 32, 32)))  # no batch axis


def test_zero_heads_pass_coordinates_through_unchanged(tiny_batch):
    # the offset heads start at zero, so every stage must repeat stage 0
    # down to the last bit, for any flavor of the model
    for flavor in (
        TINY,
        dataclasses.replace(TINY, parallel=True),
        dataclasses.replace(TINY, self_attention=False),
        dataclasses.replace(TINY, learned_query_init=False),
    ):
        state = DecoderState.init(flavor, seed=3)
        ys = state.predict(tiny_batch[0].image[None])
        for y in ys[1:]:
            npt.assert_array_equal(y, ys[0])


def test_stages_differ_once_heads_are_nonzero(tiny_state, tiny_batch):
    state = jitter_params(tiny_state, seed=5)
    ys = state.predict(tiny_batch[0].image[None])
    assert not np.array_equal(ys[0], ys[1])
    assert not np.array_equal(ys[1], ys[2])


def test_learned_init_reads_the_image(tiny_batch):
    state = DecoderState.init(TINY, seed=1)
    y0_a = state.predict(tiny_batch[0].image[None])[0]
    y0_b = state.predict(tiny_batch[1].image[None])[0]
    assert not np.array_equal(y0_a, y0_b)


def test_embed_init_ignores_the_image(tiny_batch):
    cfg = dataclasses.replace(TINY, learned_query_init=False)
    state = DecoderState.init(cfg, seed=1)
    y0_a = state.predict(tiny_batch[0].image[None])[0]
    y0_b = state.predict(tiny_batch[1].image[None])[0]
    npt.assert_array_equal(y0_a, y0_b)


def test_forward_deterministic(tiny_state, tiny_batch):
    a = tiny_state.predict(tiny_batch[0].image[None])
    b = tiny_state.predict(tiny_batch[0].image[None])
    for ya, yb in zip(a, b):
        npt.assert_array_equal(ya, yb)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _fake_dys(ys, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=y.shape) for y in ys]


def _backward(dys, params, cfg, cache):
    """backward's gradients, added into a zeroed buffer."""
    flat, grads = flat_views({k: v.shape for k, v in params.items()})
    flat.fill(0.0)
    backward(dys, params, cfg, cache, grads)
    return grads


def test_backward_covers_every_path(tiny_batch):
    # every path but the flavor's inert ones gets signal, each in a single
    # add into the caller's buffer: a chunk's sum reaches a running batch
    # total as one term per path
    inert = {False: {"level_emb"}, True: {"layers.1.ln_img.g", "layers.1.ln_img.b"}}
    for flavor in (TINY, dataclasses.replace(TINY, parallel=True)):
        state = jitter_params(DecoderState.init(flavor, seed=2))
        ys, cache = forward(state.params, tiny_batch[0].image[None], flavor)
        dys = _fake_dys(ys)
        fresh = _backward(dys, state.params, flavor, cache)
        assert {k for k, g in fresh.items() if not g.any()} == inert[flavor.parallel]
        flat, grads = flat_views({k: v.shape for k, v in state.params.items()})
        flat[:] = np.random.default_rng(1).normal(size=flat.size)
        start = {k: v.copy() for k, v in grads.items()}
        # layer_done gets T-1, ..., 0, each once layer t's gradients are final
        done = []
        backward(dys, state.params, flavor, cache, grads,
                 lambda t: done.append((t, {k: g.copy() for k, g in grads.items()
                                            if k.startswith(f"layers.{t}.")})))
        for k, g in grads.items():
            npt.assert_array_equal(g, start[k] + fresh[k], err_msg=k)
        assert [t for t, _ in done] == list(range(flavor.num_layers - 1, -1, -1))
        for _, seen in done:
            for k, g in seen.items():
                npt.assert_array_equal(g, grads[k], err_msg=k)


def test_basic_mode_leaves_level_embedding_untouched(tiny_batch):
    state = jitter_params(DecoderState.init(TINY, seed=2))
    ys, cache = forward(state.params, tiny_batch[0].image[None], TINY)
    grads = _backward(_fake_dys(ys), state.params, TINY, cache)
    npt.assert_array_equal(grads["level_emb"], 0.0)
    # while the backbone, attention and head paths all carry signal
    assert np.abs(grads["backbone.s1.conva.w"]).max() > 0
    assert np.abs(grads["layers.0.head.w3"]).max() > 0


def test_parallel_mode_trains_level_embedding(tiny_batch):
    cfg = dataclasses.replace(TINY, parallel=True)
    state = jitter_params(DecoderState.init(cfg, seed=2))
    ys, cache = forward(state.params, tiny_batch[0].image[None], cfg)
    grads = _backward(_fake_dys(ys), state.params, cfg, cache)
    assert np.abs(grads["level_emb"]).max() > 0
    assert np.abs(grads["layers.0.ln_img.g"]).max() > 0


def test_parallel_last_layer_reads_for_the_landmark_queries_only(monkeypatch, tiny_batch):
    # nothing reads the memory after the last layer, so its memory rows are
    # not queries: layers 0..T-2 read (M + N) rows per image, the last N
    rows = []
    project_fwd = decoder.deform_project_fwd

    def recording_project_fwd(x_rows, refs_rows, value_levels, p, acfg):
        rows.append(x_rows.shape[0] * x_rows.shape[1])  # (R, B, C) query rows
        return project_fwd(x_rows, refs_rows, value_levels, p, acfg)

    monkeypatch.setattr(decoder, "deform_project_fwd", recording_project_fwd)
    cfg = dataclasses.replace(TINY, parallel=True)
    state = jitter_params(DecoderState.init(cfg, seed=2))
    images = np.stack([s.image for s in tiny_batch])
    ys, cache = forward(state.params, images, cfg)
    m, n, b, t = cfg.layout.total_len, cfg.num_landmarks, len(images), cfg.num_layers
    assert rows == [(m + n) * b] * (t - 1) + [n * b]
    grads = _backward(_fake_dys(ys), state.params, cfg, cache)
    for name in ("g", "b"):
        assert np.abs(grads[f"layers.0.ln_img.{name}"]).max() > 0
        npt.assert_array_equal(grads[f"layers.{t - 1}.ln_img.{name}"], 0.0)


def test_stage_gradients_reach_earlier_layers_only(tiny_batch):
    # supervision on stage 1 cannot influence layer 1 (it runs later),
    # but must reach layer 0 and the backbone
    state = jitter_params(DecoderState.init(TINY, seed=4))
    ys, cache = forward(state.params, tiny_batch[0].image[None], TINY)
    dys = [np.zeros_like(y) for y in ys]
    dys[1] = np.ones_like(ys[1])
    grads = _backward(dys, state.params, TINY, cache)
    npt.assert_array_equal(grads["layers.1.head.w3"], 0.0)
    assert np.abs(grads["layers.0.head.w3"]).max() > 0
    assert np.abs(grads["backbone.s1.conva.w"]).max() > 0


# Recorded before the two decoder flavors shared one layer: per-stage sums
# of the estimates, and sums of |gradient| of a few paths.  A dropped
# residual or norm leaves the gradients self-consistent, so the
# finite-difference checks cannot see it; these numbers move.
_PINNED = {
    False: {
        "stages": [9.92492279131782, 9.942830115107958, 9.936342381999358],
        "grads": {
            "backbone.s1.conva.w": 2.8924165985995214,
            "query_init.w": 1.9762541565891194,
            "query_pos": 0.02684139378182454,
            "layers.0.deform.w_val": 0.11549157929589425,
            "layers.0.deform.ln_g": 0.23088269920685428,
            "layers.1.ffn.w1": 1.3221548872628637,
            "layers.1.self_attn.wq": 0.14793874654990735,
        },
    },
    True: {
        "stages": [9.92492279131782, 9.907664103958748, 10.058001844006672],
        "grads": {
            "backbone.s1.conva.w": 4.765788592911774,
            "query_init.w": 2.8256600298541104,
            "query_pos": 0.041213050292254874,
            "level_emb": 0.019148891852759496,
            "layers.0.deform.w_val": 0.7202436498110493,
            "layers.0.deform.ln_g": 0.116019201305163,
            "layers.0.ln_img.g": 0.0692945538504397,
            "layers.1.ffn.w1": 1.9995049451392988,
            "layers.1.self_attn.wq": 0.1721278086041594,
        },
    },
}


@pytest.mark.parametrize("parallel", [False, True])
def test_forward_and_gradients_are_pinned(tiny_batch, parallel):
    cfg = dataclasses.replace(TINY, parallel=parallel)
    state = jitter_params(DecoderState.init(cfg, seed=2))
    images = np.stack([s.image for s in tiny_batch])
    ys, cache = forward(state.params, images, cfg)
    grads = _backward(_fake_dys(ys), state.params, cfg, cache)
    pinned = _PINNED[parallel]
    npt.assert_allclose([y.sum() for y in ys], pinned["stages"], rtol=1e-12, atol=0)
    for k, want in pinned["grads"].items():
        npt.assert_allclose(np.abs(grads[k]).sum(), want, rtol=1e-12, atol=0, err_msg=k)


# ---------------------------------------------------------------------------
# batch axis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parallel", [False, True])
def test_chunk_of_three_equals_three_single_image_calls(parallel):
    # every GEMM runs per image and every gradient sums each image's rows,
    # then the images in order: the chunk reproduces a per-image loop that
    # adds its gradients image by image, bit for bit
    cfg = dataclasses.replace(TINY, parallel=parallel)
    assert images_per_chunk(cfg) >= 3
    state = jitter_params(DecoderState.init(cfg, seed=2))
    images = np.stack([s.image for s in gen_synthetic(TINY_SPEC, 3, 11)])
    ys, cache = forward(state.params, images, cfg)
    dys = _fake_dys(ys)
    grads = _backward(dys, state.params, cfg, cache)
    summed = None
    for b in range(3):
        ys_b, cache_b = forward(state.params, images[b:b + 1], cfg)
        for y, y_b in zip(ys, ys_b):
            npt.assert_array_equal(y[b:b + 1], y_b)
        g_b = _backward([dy[b:b + 1] for dy in dys], state.params, cfg, cache_b)
        summed = g_b if summed is None else {k: summed[k] + g_b[k] for k in summed}
    assert set(grads) == set(summed)
    for k in grads:
        npt.assert_array_equal(grads[k], summed[k], err_msg=k)


def test_inference_forward_keeps_no_cache(tiny_batch):
    for flavor in (TINY, dataclasses.replace(TINY, parallel=True)):
        state = jitter_params(DecoderState.init(flavor, seed=2))
        images = np.stack([s.image for s in tiny_batch])
        ys, cache = forward(state.params, images, flavor)
        ys_inf, none = forward(state.params, images, flavor, keep_cache=False)
        assert cache is not None and none is None
        for y, y_inf in zip(ys, ys_inf):
            npt.assert_array_equal(y, y_inf)


def test_chunk_rule():
    # TINY: 5 query rows per image, so a batch of 8 is one chunk
    assert images_per_chunk(TINY) == 51
    assert chunk_slices(8, TINY) == [slice(0, 51)]
    # default basic: 68 rows, three images per chunk
    assert images_per_chunk(ModelConfig()) == 3
    assert chunk_slices(7, ModelConfig()) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    # parallel at 64 px: 340 memory rows + 68 queries, one image per chunk
    assert images_per_chunk(ModelConfig(parallel=True, image_side=64)) == 1


def test_predict_stitches_its_chunks(tiny_batch):
    # 80 memory rows + 200 queries: one image per chunk
    cfg = dataclasses.replace(TINY, parallel=True, num_landmarks=200)
    assert images_per_chunk(cfg) == 1
    state = jitter_params(DecoderState.init(cfg))
    images = np.stack([s.image for s in tiny_batch])
    ys = state.predict(images)
    assert ys[-1].shape == (2, 200, 2)
    for b in range(2):
        npt.assert_array_equal(ys[-1][b], state.predict(images[b:b + 1])[-1][0])


# ---------------------------------------------------------------------------
# state save / load
# ---------------------------------------------------------------------------

def test_state_round_trip(tmp_path, tiny_state, tiny_batch):
    path = tmp_path / "model.ckpt"
    tiny_state.save(path, extra_meta={"note": "roundtrip"})
    loaded, extra = DecoderState.load(path)
    assert loaded.config == tiny_state.config
    assert extra == {"note": "roundtrip"}
    assert set(loaded.params) == set(tiny_state.params)
    for k in tiny_state.params:
        npt.assert_array_equal(loaded.params[k], tiny_state.params[k])
    for ya, yb in zip(tiny_state.predict(tiny_batch[0].image[None]),
                      loaded.predict(tiny_batch[0].image[None])):
        npt.assert_array_equal(ya, yb)


def test_state_meta_collision_rejected(tmp_path, tiny_state):
    with pytest.raises(ConfigError):
        tiny_state.save(tmp_path / "x.ckpt", extra_meta={"dim": "999"})


def _edit_meta(path, key, old, new):
    blob = path.read_bytes()
    line = f"meta {key} {old}\n".encode()
    assert line in blob
    path.write_bytes(blob.replace(line, f"meta {key} {new}\n".encode()))


def test_load_rejects_params_missing_for_the_meta_flavor(tmp_path, tiny_state):
    path = tmp_path / "model.ckpt"
    tiny_state.save(path)
    _edit_meta(path, "parallel", 0, 1)
    with pytest.raises(ConfigError, match="layers.0.ln_img.b missing") as err:
        DecoderState.load(path)
    assert str(path) in str(err.value)


def test_load_rejects_params_misshapen_for_the_meta_dim(tmp_path, tiny_state):
    path = tmp_path / "model.ckpt"
    tiny_state.save(path)
    _edit_meta(path, "dim", 16, 32)
    with pytest.raises(ConfigError, match=r"landmark_init\.w has shape \(16, 2\).*expects \(32, 2\)") as err:
        DecoderState.load(path)
    assert str(path) in str(err.value)


def test_load_allocates_nothing_for_a_claimed_dim(tmp_path, tiny_state):
    # the expected shapes of an 8e6-wide model, and its offset-bias ring,
    # are read from the parameter rows, and no array is drawn; shapes stop
    # at the first absent layer
    for key, old, new in (("dim", 16, 8000000), ("points", 2, 2000000),
                          ("num_layers", 2, 20000)):
        path = tmp_path / f"{key}.ckpt"
        tiny_state.save(path)
        _edit_meta(path, key, old, new)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ConfigError) as err:
                DecoderState.load(path)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(path) in str(err.value)
        assert peak < 5 * 2**20, key
        assert elapsed < 1.0, key


def test_default_inference_forward_peak_memory():
    # one 256 px image through the default model without caches: each
    # level's projection writes its rows of the memory in place, with no
    # GEMM temporary and no concatenated copy (26.2 MiB measured; 36.6 MiB
    # with them)
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    img = np.random.default_rng(0).uniform(0, 1, (1, 3, 256, 256))
    tracemalloc.start()
    try:
        forward(params, img, cfg, keep_cache=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def _arrays(obj):
    """Every numpy array inside nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


@pytest.mark.parametrize("scale", ["tiny", "default"])
def test_basic_forward_cache_holds_no_memory_rows(scale):
    # the basic read samples the backbone features: no array of the cache
    # has the (M * B) x dim values of the memory, while the parallel
    # decoder's cache does (at 64 px for the default width)
    base = TINY if scale == "tiny" else ModelConfig()
    bsz = 2
    for cfg in (base, dataclasses.replace(base, parallel=True,
                                          image_side=min(base.image_side, 64))):
        side = cfg.image_side
        images = np.random.default_rng(0).uniform(0, 1, (bsz, 3, side, side))
        _, cache = forward(init_params(cfg, seed=0), images, cfg)
        rows = cfg.layout.total_len * bsz
        memory_like = [a.shape for a in _arrays(cache)
                       if a.shape[-1:] == (cfg.dim,) and a.size == rows * cfg.dim]
        assert bool(memory_like) == cfg.parallel, memory_like


def test_load_rejects_extra_params(tmp_path, tiny_state):
    path = tmp_path / "model.ckpt"
    params = {**tiny_state.params, "layers.9.head.b3": np.zeros(2)}
    DecoderState(tiny_state.config, params).save(path)
    with pytest.raises(ConfigError, match="layers.9.head.b3 not expected") as err:
        DecoderState.load(path)
    assert str(path) in str(err.value)


def test_load_names_the_file_when_the_meta_is_invalid(tmp_path, tiny_state):
    # a bool reads as the config file reads it, so `parallel 2` is no basic
    # model; TINY's coarsest stride is 8, and 0 % 8 == 0
    for key, old, new in (("dim", 16, "abc"), ("heads", 2, 3), ("parallel", 0, 2),
                          ("image_side", 32, 0), ("image_side", 32, -32),
                          ("image_side", 32, 4)):
        path = tmp_path / f"{key}{new}.ckpt"
        tiny_state.save(path)
        _edit_meta(path, key, old, new)
        with pytest.raises(ConfigError) as err:
            DecoderState.load(path)
        assert str(path) in str(err.value) and key in str(err.value)


def test_param_shapes_match_init_for_every_flavor():
    for flags in [{}, {"parallel": True}, {"self_attention": False},
                  {"learned_query_init": False}]:
        cfg = dataclasses.replace(TINY, **flags)
        params = init_params(cfg, seed=3)
        shapes = param_shapes(cfg)
        assert list(shapes) == list(params)
        assert all(shapes[k] == params[k].shape for k in params)


# sha256 of the `flat_views` vector of init_params(cfg, seed), recorded
# before the parameters were declared as rows: the draw order, guarded by
# bytes rather than by sums
_INIT_SHA256 = {
    ("tiny", "basic", 0): "11912de1c2bd488f250488d592939314d09e4ab1d5d422606e9aa8381e41bd8a",
    ("tiny", "basic", 2): "6247d646f58b19b55c2826651ca48ce40cfd65f6bb30f837fe487145d006e300",
    ("tiny", "parallel", 0): "73d36a31d00af8fe529104890a49502067cbedf3b4109fb187254173688bb4e7",
    ("tiny", "parallel", 2): "765475b364cf187696c9c902622347a90a189d095aa4ea0db7fe44d40dfbcadb",
    ("tiny", "no_self_attention", 0):
        "355909d9c80eb28c3bcc5cbf9a8f18a5b4856770260355e07183dcb86e44d2d7",
    ("tiny", "no_self_attention", 2):
        "51bcbfcbc07b96b7a51b1992b931c90709f12eb5467cb7d410daaf2f9e5d438d",
    ("tiny", "embedded_query_init", 0):
        "db2b741ab143b5ff9d3e02eba4257fd142b8281d982929729ee015027f26bf9d",
    ("tiny", "embedded_query_init", 2):
        "96ea1559aff344620d33ff4ff4d85131c6a17dc060cd02ea4c200acad5b9f212",
    ("default", "basic", 0): "8ce0ac769073a17083387288ad6c56c1eeacfdfb2a9b658087ceba91da225074",
    ("default", "parallel", 0): "bf5f65fbdcafe558ae24f76a7eeaa23b694d4fdce166ea8d9c6ba0d9875ba7d0",
}
@pytest.mark.parametrize("scale, flavor, seed", sorted(_INIT_SHA256))
def test_initial_parameters_are_pinned(scale, flavor, seed):
    base = TINY if scale == "tiny" else ModelConfig()
    params = init_params(dataclasses.replace(base, **FLAVORS[flavor]), seed)
    flat, views = flat_views({k: v.shape for k, v in params.items()})
    for k, v in params.items():
        views[k][...] = v
    assert hashlib.sha256(flat.tobytes()).hexdigest() == _INIT_SHA256[scale, flavor, seed]


def test_loaded_state_preserves_flavor(tmp_path, tiny_batch):
    cfg = dataclasses.replace(TINY, parallel=True, self_attention=False)
    state = DecoderState.init(cfg, seed=6)
    path = tmp_path / "p.ckpt"
    state.save(path)
    loaded, _ = DecoderState.load(path)
    assert loaded.config.parallel
    assert not loaded.config.self_attention


def test_the_memory_rows_fixed_inputs_are_built_once_per_layout(monkeypatch):
    # the parallel read's pixel centers, positions and row levels depend on
    # the layout and width alone: repeated forwards share one read-only set
    from facemark.geometry import build_pixel_positions, level_of_row, pixel_centers

    calls = []
    monkeypatch.setattr(decoder, "build_pixel_positions",
                        lambda *args: calls.append(args) or build_pixel_positions(*args))
    decoder._memory_rows.cache_clear()
    cfg = dataclasses.replace(TINY, parallel=True)
    state = jitter_params(DecoderState.init(cfg, 0))
    images = np.stack([f.image for f in gen_synthetic(TINY_SPEC, 2, 3)])
    first = state.predict(images)
    second = state.predict(images)
    assert len(calls) == 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    arrays = decoder._memory_rows(cfg.layout, cfg.dim)
    want = (pixel_centers(cfg.layout), build_pixel_positions(cfg.layout, cfg.dim),
            level_of_row(cfg.layout))
    assert all(a.tobytes() == b.tobytes() and not a.flags.writeable
               for a, b in zip(arrays, want))
