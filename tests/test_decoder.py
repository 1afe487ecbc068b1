import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from facemark.decoder import (
    TINY,
    DecoderState,
    ModelConfig,
    backward,
    forward,
    init_params,
    param_shapes,
)
from facemark.errors import ConfigError
from facemark.geometry import inverse_sigmoid, sigmoid
from facemark.params import count_parameters

from conftest import jitter_params


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_rejects_stage_count_mismatch():
    with pytest.raises(ConfigError):
        ModelConfig(levels=2, stage_channels=(8, 16, 32))


def test_config_rejects_indivisible_image_side():
    with pytest.raises(ConfigError):
        dataclasses.replace(TINY, image_side=36)


def test_config_rejects_bad_head_split():
    with pytest.raises(ConfigError):
        dataclasses.replace(TINY, heads=3)


def test_config_meta_round_trip():
    for cfg in (TINY, dataclasses.replace(TINY, parallel=True),
                dataclasses.replace(TINY, self_attention=False,
                                    learned_query_init=False)):
        assert ModelConfig.from_meta(cfg.to_meta()) == cfg


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
        basic = count_parameters(init_params(cfg))[1]
        par = count_parameters(
            init_params(dataclasses.replace(cfg, parallel=True))
        )[1]
        assert par - basic == cfg.num_layers * 2 * cfg.dim


def test_parameter_parity_full_scale_value():
    cfg = ModelConfig()  # 68 points, C=256, T=3
    basic = count_parameters(init_params(cfg))[1]
    par = count_parameters(init_params(dataclasses.replace(cfg, parallel=True)))[1]
    assert par - basic == 3 * 2 * 256 == 1536


def test_query_variants_swap_one_path_pair():
    learned = init_params(TINY)
    embed = init_params(dataclasses.replace(TINY, learned_query_init=False))
    assert set(learned) - set(embed) == {"query_init.w", "query_init.b"}
    assert set(embed) - set(learned) == {"query_embed"}
    h, w, _ = TINY.layout.levels[-1]
    assert learned["query_init.w"].shape == (h * w, TINY.num_landmarks)
    assert embed["query_embed"].shape == (TINY.num_landmarks, TINY.dim)


def test_offset_bias_starts_on_a_ring():
    p = init_params(TINY)
    k = TINY.attention_config.total_points
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
    return DecoderState(state.config, params).predict(image)


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
    one_step = sigmoid(inverse_sigmoid(ys[0]) + deltas.sum(axis=0))
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
    ys = tiny_state.predict(tiny_batch[0].image)
    assert len(ys) == TINY.num_layers + 1
    for y in ys:
        assert y.shape == (TINY.num_landmarks, 2)
        assert (y > 0).all() and (y < 1).all()


def test_forward_rejects_wrong_image_size(tiny_state):
    with pytest.raises(ConfigError):
        tiny_state.predict(np.zeros((3, 64, 64)))


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
        ys = state.predict(tiny_batch[0].image)
        for y in ys[1:]:
            npt.assert_array_equal(y, ys[0])


def test_stages_differ_once_heads_are_nonzero(tiny_state, tiny_batch):
    state = jitter_params(tiny_state, seed=5)
    ys = state.predict(tiny_batch[0].image)
    assert not np.array_equal(ys[0], ys[1])
    assert not np.array_equal(ys[1], ys[2])


def test_learned_init_reads_the_image(tiny_batch):
    state = DecoderState.init(TINY, seed=1)
    y0_a = state.predict(tiny_batch[0].image)[0]
    y0_b = state.predict(tiny_batch[1].image)[0]
    assert not np.array_equal(y0_a, y0_b)


def test_embed_init_ignores_the_image(tiny_batch):
    cfg = dataclasses.replace(TINY, learned_query_init=False)
    state = DecoderState.init(cfg, seed=1)
    y0_a = state.predict(tiny_batch[0].image)[0]
    y0_b = state.predict(tiny_batch[1].image)[0]
    npt.assert_array_equal(y0_a, y0_b)


def test_forward_deterministic(tiny_state, tiny_batch):
    a = tiny_state.predict(tiny_batch[0].image)
    b = tiny_state.predict(tiny_batch[0].image)
    for ya, yb in zip(a, b):
        npt.assert_array_equal(ya, yb)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _fake_dys(ys, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=y.shape) for y in ys]


def test_backward_covers_every_path(tiny_batch):
    for flavor in (TINY, dataclasses.replace(TINY, parallel=True)):
        state = jitter_params(DecoderState.init(flavor, seed=2))
        ys, cache = forward(state.params, tiny_batch[0].image, flavor)
        grads = backward(_fake_dys(ys), state.params, flavor, cache)
        assert set(grads) == set(state.params)
        for k, g in grads.items():
            assert g.shape == state.params[k].shape, k


def test_basic_mode_leaves_level_embedding_untouched(tiny_batch):
    state = jitter_params(DecoderState.init(TINY, seed=2))
    ys, cache = forward(state.params, tiny_batch[0].image, TINY)
    grads = backward(_fake_dys(ys), state.params, TINY, cache)
    npt.assert_array_equal(grads["level_emb"], 0.0)
    # while the backbone, attention and head paths all carry signal
    assert np.abs(grads["backbone.s1.conva.w"]).max() > 0
    assert np.abs(grads["layers.0.head.w3"]).max() > 0


def test_parallel_mode_trains_level_embedding(tiny_batch):
    cfg = dataclasses.replace(TINY, parallel=True)
    state = jitter_params(DecoderState.init(cfg, seed=2))
    ys, cache = forward(state.params, tiny_batch[0].image, cfg)
    grads = backward(_fake_dys(ys), state.params, cfg, cache)
    assert np.abs(grads["level_emb"]).max() > 0
    assert np.abs(grads["layers.0.ln_img.g"]).max() > 0


def test_stage_gradients_reach_earlier_layers_only(tiny_batch):
    # supervision on stage 1 cannot influence layer 1 (it runs later),
    # but must reach layer 0 and the backbone
    state = jitter_params(DecoderState.init(TINY, seed=4))
    ys, cache = forward(state.params, tiny_batch[0].image, TINY)
    dys = [np.zeros_like(y) for y in ys]
    dys[1] = np.ones_like(ys[1])
    grads = backward(dys, state.params, TINY, cache)
    npt.assert_array_equal(grads["layers.1.head.w3"], 0.0)
    assert np.abs(grads["layers.0.head.w3"]).max() > 0
    assert np.abs(grads["backbone.s1.conva.w"]).max() > 0


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
    for ya, yb in zip(tiny_state.predict(tiny_batch[0].image),
                      loaded.predict(tiny_batch[0].image)):
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


def test_load_rejects_extra_params(tmp_path, tiny_state):
    path = tmp_path / "model.ckpt"
    params = {**tiny_state.params, "layers.9.head.b3": np.zeros(2)}
    DecoderState(tiny_state.config, params).save(path)
    with pytest.raises(ConfigError, match="layers.9.head.b3 not expected") as err:
        DecoderState.load(path)
    assert str(path) in str(err.value)


def test_load_names_the_file_when_the_meta_is_invalid(tmp_path, tiny_state):
    for key, old, new in (("dim", 16, "abc"), ("heads", 2, 3)):
        path = tmp_path / f"{key}.ckpt"
        tiny_state.save(path)
        _edit_meta(path, key, old, new)
        with pytest.raises(ConfigError) as err:
            DecoderState.load(path)
        assert str(path) in str(err.value)


def test_param_shapes_match_init_for_every_flavor():
    for flags in [{}, {"parallel": True}, {"self_attention": False},
                  {"learned_query_init": False}]:
        cfg = dataclasses.replace(TINY, **flags)
        params = init_params(cfg, seed=3)
        shapes = param_shapes(cfg)
        assert list(shapes) == list(params)
        assert all(shapes[k] == params[k].shape for k in params)


def test_loaded_state_preserves_flavor(tmp_path, tiny_batch):
    cfg = dataclasses.replace(TINY, parallel=True, self_attention=False)
    state = DecoderState.init(cfg, seed=6)
    path = tmp_path / "p.ckpt"
    state.save(path)
    loaded, _ = DecoderState.load(path)
    assert loaded.config.parallel
    assert not loaded.config.self_attention
