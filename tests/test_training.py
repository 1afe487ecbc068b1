import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import facemark
from facemark.decoder import TINY, DecoderState
from facemark.errors import ConfigError, NumericError
from facemark.params import flat_views
from facemark.training import (
    ADAM_BLOCK,
    Adam,
    AugmentConfig,
    Sample,
    SyntheticFaceSpec,
    TrainConfig,
    _box_blur,
    _rotate_image,
    _shift_image,
    augment,
    batch_loss_and_grads,
    canonical_layout,
    check_against_fd,
    gen_synthetic,
    grad_check,
    landmark_loss,
    render_face,
    self_train,
    tight_bbox,
    train,
)

from conftest import TINY_SPEC, digests_at_one_and_two_blas_threads, jitter_params

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_loss_single_stage_hand_value():
    pred = np.array([[0.5, 0.5]])
    gt = np.array([[0.25, 0.75]])
    loss, dys = landmark_loss([pred], gt)
    assert loss == 0.5
    npt.assert_array_equal(dys[0], [[1.0, -1.0]])


def test_loss_sums_over_stages():
    rng = np.random.default_rng(0)
    gt = rng.uniform(size=(5, 2))
    y0 = rng.uniform(size=(5, 2))
    y1 = rng.uniform(size=(5, 2))
    both, _ = landmark_loss([y0, y1], gt)
    a, _ = landmark_loss([y0], gt)
    b, _ = landmark_loss([y1], gt)
    npt.assert_allclose(both, a + b, atol=1e-12)


def test_loss_gradient_is_residual_sign():
    rng = np.random.default_rng(1)
    gt = rng.uniform(size=(4, 2))
    y = rng.uniform(size=(4, 2))
    _, dys = landmark_loss([y], gt)
    npt.assert_array_equal(dys[0], np.sign(y - gt))


def test_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        landmark_loss([np.zeros((3, 2))], np.zeros((4, 2)))


def test_batch_loss_matches_grad_version(tiny_state, tiny_batch):
    state = jitter_params(tiny_state)
    images = [s.image for s in tiny_batch]
    targets = [s.landmarks for s in tiny_batch]
    with_grads, flat, grads = batch_loss_and_grads(state.params, TINY, images, targets)
    # the finite-difference check's forward-only loss
    plain = landmark_loss(state.predict(np.stack(images)), np.stack(targets))[0] / len(images)
    npt.assert_allclose(with_grads, plain, atol=1e-12)
    # the gradients are the named views of the flat vector
    _, layout = flat_views({k: v.shape for k, v in state.params.items()})
    assert list(grads) == list(layout) == sorted(state.params)
    npt.assert_array_equal(np.concatenate([g.ravel() for g in grads.values()]), flat)
    assert all(g.base is flat for g in grads.values())


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_first_step_moves_by_lr_times_sign():
    params = np.array([1.0, -2.0, 3.0])
    grads = np.array([0.5, -0.25, 4.0])
    opt = Adam(3, 0, 0.1)
    opt.step(params, grads, lr=0.01)
    # bias-corrected m/v cancel on step one, leaving lr * g / (|g| + eps)
    npt.assert_allclose(params, [0.99, -1.99, 2.99], rtol=1e-6)


def test_adam_zero_gradient_stays_put():
    params = np.array([1.0, 2.0])
    opt = Adam(2, 1, 0.1)
    opt.step(params, np.zeros(2), lr=0.1)
    npt.assert_array_equal(params, [1.0, 2.0])


def test_adam_zero_lr_stays_put():
    params = np.array([1.0, 2.0])
    opt = Adam(2, 1, 0.1)
    opt.step(params, np.ones(2), lr=0.0)
    npt.assert_array_equal(params, [1.0, 2.0])


def test_adam_runs_the_leading_slice_at_the_scaled_lr():
    # train's layout: the backbone paths sort first
    flat, params = flat_views({"backbone.w": (1,), "head.w": (1,)})
    flat.fill(0.0)
    opt = Adam(flat.size, params["backbone.w"].size, 0.1)
    opt.step(flat, np.ones(2), lr=0.01)
    npt.assert_allclose(params["backbone.w"], -0.001, rtol=1e-6)
    npt.assert_allclose(params["head.w"], -0.01, rtol=1e-6)


def test_blocked_adam_matches_the_elementwise_formula_bit_for_bit():
    # several blocks, the backbone/decoder boundary inside one of them, and a
    # short tail; the reference applies the formula to one element at a time
    n, slow, lr, scale = 2 * ADAM_BLOCK + 777, ADAM_BLOCK + 12345, 3e-3, 0.1
    b1, b2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(4)
    p = rng.normal(size=n)
    want, m, v = [float(x) for x in p], [0.0] * n, [0.0] * n
    opt = Adam(n, slow, scale)
    for t in (1, 2, 3):
        g = rng.normal(size=n) * rng.uniform(0.0, 2.0, n)
        g[::97] = 0.0
        opt.step(p, g, lr)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        gl = g.tolist()
        for i in range(n):
            rate = lr * scale if i < slow else lr
            m[i] = m[i] * b1 + (1.0 - b1) * gl[i]
            v[i] = v[i] * b2 + (1.0 - b2) * gl[i] * gl[i]
            want[i] -= rate * (m[i] / c1) / (math.sqrt(v[i] / c2) + eps)
    npt.assert_array_equal(p, want)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_aborts_on_a_non_finite_gradient(tiny_state, tiny_batch, monkeypatch):
    import facemark.training as training

    def finite_loss_inf_grad(params, cfg, images, targets, buffer):
        flat, grads = flat_views({k: v.shape for k, v in params.items()})
        flat.fill(0.0)
        grads["layers.1.ffn.w2"][3, 1] = np.inf
        return 0.5, flat, grads

    monkeypatch.setattr(training, "batch_loss_and_grads", finite_loss_inf_grad)
    with pytest.raises(NumericError, match=r"step 1\b.*layers\.1\.ffn\.w2"):
        train(tiny_state, tiny_batch, TrainConfig(steps=3, lr_drop_step=0))


def _opposite_infs(grads):
    grads["layers.1.ffn.w2"][3, 1] = np.inf
    grads["layers.1.ffn.w2"][4, 0] = -np.inf


def _overflowing_sum(grads):
    for g in grads.values():
        g.fill(1e308)


@pytest.mark.parametrize("fill, bad", [(_opposite_infs, r"layers\.1\.ffn\.w2"),
                                       (_overflowing_sum, "the sum over all parameters")],
                         ids=["opposite-infs", "overflow"])
def test_train_aborts_on_a_nan_or_overflowing_gradient_sum_without_a_warning(
        tiny_state, tiny_batch, monkeypatch, fill, bad):
    # numpy would warn about inf - inf or an overflowing sum before train raises
    import facemark.training as training

    def stub(params, cfg, images, targets, buffer):
        flat, grads = flat_views({k: v.shape for k, v in params.items()})
        flat.fill(0.0)
        fill(grads)
        return 0.5, flat, grads

    monkeypatch.setattr(training, "batch_loss_and_grads", stub)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"step 1\b.*" + bad):
            train(tiny_state, tiny_batch, TrainConfig(steps=3, lr_drop_step=0))


_TINY_PARALLEL_TRAIN = [
    "-m", "facemark", "train", "--config", os.path.join(ROOT, "configs", "tiny.cfg"),
    "--set", "model.parallel=true", "--set", "train.steps=30",
    "--set", "train.lr_drop_step=20",
]


def test_parallel_training_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 30 steps of TINY's parallel decoder write the same checkpoint and log
    # at 1 and 2 BLAS threads
    from facemark.cli import main

    data = str(tmp_path / "ds")
    assert main(["gen-data", "--out", data, "--config",
                 os.path.join(ROOT, "configs", "tiny.cfg")]) == 0
    outputs = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"t{threads}.ckpt"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.path.dirname(os.path.dirname(facemark.__file__))}
        subprocess.run([sys.executable, *_TINY_PARALLEL_TRAIN, "--data", data,
                        "--out", str(ckpt)], env=env, capture_output=True, check=True)
        log = (tmp_path / f"t{threads}.ckpt.log").read_bytes()
        assert len(log.splitlines()) == 1 + 30
        outputs.append((hashlib.sha256(ckpt.read_bytes()).hexdigest(), log))
    assert outputs[0] == outputs[1]


# sha256 of every gradient array, in path order, of two 64 px faces through
# the default-width parallel decoder (jittered parameters)
_GRADIENT_DIGEST = """
import hashlib
import numpy as np
from facemark.decoder import DecoderState, ModelConfig
from facemark.training import SyntheticFaceSpec, batch_loss_and_grads, gen_synthetic
cfg = ModelConfig(image_side=64, parallel=True)
rng = np.random.default_rng(5)
params = {k: v + rng.normal(0.0, 0.02, v.shape)
          for k, v in DecoderState.init(cfg, 0).params.items()}
faces = gen_synthetic(SyntheticFaceSpec(image_side=64), 2, 3)
_, _, grads = batch_loss_and_grads(params, cfg, np.stack([f.image for f in faces]),
                                   np.stack([f.landmarks for f in faces]))
h = hashlib.sha256()
for k in sorted(grads):
    h.update(k.encode() + np.ascontiguousarray(grads[k]).tobytes())
print(h.hexdigest())
"""


def test_parallel_gradients_do_not_depend_on_the_blas_thread_count():
    # the parallel decoder's reads and weight gradients sum over 408 query
    # rows at 64 px, where a single BLAS call may sum in another order on
    # another thread count.  Two threads are the most a 2-core machine
    # tests; the kernels OpenBLAS picks on other CPUs are untested.
    digests = digests_at_one_and_two_blas_threads(_GRADIENT_DIGEST)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# the same digest for three 256 px faces through the default basic decoder,
# one chunk
_BASIC_GRADIENT_DIGEST = _GRADIENT_DIGEST.replace(
    "ModelConfig(image_side=64, parallel=True)", "ModelConfig()").replace(
    "SyntheticFaceSpec(image_side=64), 2, 3", "SyntheticFaceSpec(), 3, 3")


def test_basic_gradients_do_not_depend_on_the_blas_thread_count():
    # the basic read's composed maps sum over the stacked projection rows
    # (244 at the default width) and over dim, image by image; the query
    # init's weight gradient read other bits at 2 threads until its product
    # was taken as (N, C) @ (C, M_last)
    assert "ModelConfig()" in _BASIC_GRADIENT_DIGEST
    assert "SyntheticFaceSpec(), 3, 3" in _BASIC_GRADIENT_DIGEST
    digests = digests_at_one_and_two_blas_threads(_BASIC_GRADIENT_DIGEST)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_batch_loss_and_grads_is_the_mean_over_images(tiny_state):
    # scaling dys by 1/n before backward gives the mean gradient: two copies
    # of one image give that image's gradient
    state = jitter_params(tiny_state)
    faces = gen_synthetic(TINY_SPEC, 1, 3)
    one_img, one_tgt = [faces[0].image], [faces[0].landmarks]
    loss1, _, g1 = batch_loss_and_grads(state.params, TINY, one_img, one_tgt)
    loss2, _, g2 = batch_loss_and_grads(state.params, TINY, one_img * 2, one_tgt * 2)
    npt.assert_allclose(loss2, loss1, rtol=1e-12)
    for k in g1:
        npt.assert_allclose(g2[k], g1[k], rtol=1e-9, atol=1e-15, err_msg=k)


def test_batch_loss_and_grads_refills_a_given_buffer(tiny_state):
    # train passes one buffer to every step: it comes back zero-filled and
    # then holding this batch's gradients, bit for bit a fresh buffer's
    state = jitter_params(tiny_state)
    faces = gen_synthetic(TINY_SPEC, 3, 4)
    images, targets = [f.image for f in faces], [f.landmarks for f in faces]
    loss, fresh, _ = batch_loss_and_grads(state.params, TINY, images, targets)
    buffer = flat_views({k: v.shape for k, v in state.params.items()})
    buffer[0].fill(7.0)
    loss2, flat, grads = batch_loss_and_grads(state.params, TINY, images, targets, buffer)
    assert flat is buffer[0] and grads is buffer[1]
    assert loss2 == loss and flat.tobytes() == fresh.tobytes()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lr_drop_step=20)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="train.steps"):
        TrainConfig(steps=0, lr_drop_step=0)
    with pytest.raises(ConfigError, match="train.lr_drop_step"):
        TrainConfig(lr_drop_step=-1)
    for bad in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ConfigError, match="train.lr "):
            TrainConfig(lr=bad)
        with pytest.raises(ConfigError, match="train.lr_backbone_scale"):
            TrainConfig(lr_backbone_scale=bad)


def test_train_rejects_empty_dataset(tiny_state):
    with pytest.raises(ConfigError):
        train(tiny_state, [], TrainConfig(steps=1, lr_drop_step=0))


def test_train_loss_decreases(tiny_state, tiny_batch):
    cfg = TrainConfig(lr=1e-3, steps=25, lr_drop_step=0, batch_size=8, seed=0)
    _, losses = train(tiny_state, tiny_batch, cfg)
    assert len(losses) == 25
    assert losses[-1] < losses[0]


def test_train_deterministic(tiny_state, tiny_batch):
    cfg = TrainConfig(lr=1e-3, steps=6, lr_drop_step=0, batch_size=1, seed=3)
    s1, l1 = train(tiny_state, tiny_batch, cfg)
    s2, l2 = train(tiny_state, tiny_batch, cfg)
    npt.assert_array_equal(l1, l2)
    for k in s1.params:
        npt.assert_array_equal(s1.params[k], s2.params[k])


def test_train_zero_lr_keeps_weights(tiny_state, tiny_batch):
    cfg = TrainConfig(lr=0.0, steps=4, lr_drop_step=0, batch_size=8, seed=0)
    out, losses = train(tiny_state, tiny_batch, cfg)
    for k in tiny_state.params:
        npt.assert_array_equal(out.params[k], tiny_state.params[k])
    # full batch every step and frozen weights: the loss cannot move
    npt.assert_array_equal(losses, [losses[0]] * 4)


def test_train_does_not_mutate_input_state(tiny_state, tiny_batch):
    before = {k: v.copy() for k, v in tiny_state.params.items()}
    cfg = TrainConfig(lr=1e-3, steps=3, lr_drop_step=0, batch_size=8, seed=0)
    train(tiny_state, tiny_batch, cfg)
    for k in before:
        npt.assert_array_equal(tiny_state.params[k], before[k])


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_train_flags_divergence(tiny_state, tiny_batch):
    bad = DecoderState(
        tiny_state.config,
        {k: v.copy() for k, v in tiny_state.params.items()},
    )
    bad.params["landmark_init.w"][:] = np.nan
    with pytest.raises(NumericError):
        train(bad, tiny_batch, TrainConfig(steps=1, lr_drop_step=0))


def test_train_logs_progress(tiny_state, tiny_batch):
    lines = []
    cfg = TrainConfig(lr=1e-3, steps=2, lr_drop_step=0, batch_size=8, seed=0)
    train(tiny_state, tiny_batch, cfg, log=lines.append)
    assert lines and lines[0].startswith("step ")


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def _one_blob(side=64, at=(0.4, 0.6)):
    spec = SyntheticFaceSpec(
        num_landmarks=1, image_side=side, blob_sigma=0.04, noise_level=0.0
    )
    lm = np.array([at])
    img = render_face(lm, side, np.random.default_rng(0), spec)
    return img, lm


def _peak(img):
    flat = np.argmax(img[0])
    return np.array([flat % img.shape[2], flat // img.shape[2]])


def test_augment_nothing_enabled_is_identity():
    img, lm = _one_blob()
    out, lm2 = augment(img, lm, np.random.default_rng(0), AugmentConfig())
    npt.assert_array_equal(out, img)
    npt.assert_array_equal(lm2, lm)


def test_shift_image_moves_impulse_and_zero_fills():
    img = np.zeros((3, 8, 8))
    img[:, 4, 3] = 1.0
    out = _shift_image(img, 2, -1)
    assert out[0, 3, 5] == 1.0
    assert out.sum() == 3.0
    npt.assert_array_equal(out[:, 7, :], 0.0)  # rows vacated by the shift


def test_translate_keeps_blob_under_label():
    img, lm = _one_blob()
    cfg = AugmentConfig(translate=True, max_shift=3)
    for seed in range(5):
        out, lm2 = augment(img, lm, np.random.default_rng(seed), cfg)
        side = img.shape[1]
        shift_px = (lm2 - lm)[0] * side
        npt.assert_allclose(shift_px, np.round(shift_px), atol=1e-12)
        want = _peak(img) + shift_px
        npt.assert_allclose(_peak(out), want, atol=0.5)


def test_negative_max_shift_rejected():
    with pytest.raises(ConfigError, match="train.max_shift"):
        AugmentConfig(translate=True, max_shift=-1)


def test_max_shift_past_the_image_side_rejected():
    img, lm = _one_blob(side=32)
    # a shift of the whole side is the largest the image can take
    augment(img, lm, np.random.default_rng(0), AugmentConfig(translate=True, max_shift=32))
    with pytest.raises(ConfigError, match="train.max_shift"):
        augment(img, lm, np.random.default_rng(0), AugmentConfig(translate=True, max_shift=100))


def test_max_degrees_outside_half_turn_rejected():
    for bad in (-1.0, 180.5, 1e308):
        with pytest.raises(ConfigError, match="train.max_degrees"):
            AugmentConfig(rotate=True, max_degrees=bad)
    assert AugmentConfig(rotate=True, max_degrees=180.0).max_degrees == 180.0


def test_flip_mirrors_labels_exactly():
    img, _ = _one_blob()
    lm = np.array([[0.3, 0.4], [0.7, 0.4], [0.5, 0.6]])
    cfg = AugmentConfig(flip=True, flip_table=(1, 0, 2))
    out, lm2 = augment(img, lm, np.random.default_rng(0), cfg)
    npt.assert_allclose(lm2, [[0.3, 0.4], [0.7, 0.4], [0.5, 0.6]], atol=1e-12)
    npt.assert_array_equal(out, img[:, :, ::-1])


def test_flip_twice_with_involutive_table_restores():
    img, _ = _one_blob()
    lm = np.array([[0.2, 0.3], [0.8, 0.3], [0.5, 0.7]])
    cfg = AugmentConfig(flip=True, flip_table=(1, 0, 2))
    rng = np.random.default_rng(0)
    once = augment(img, lm, rng, cfg)
    twice = augment(once[0], once[1], rng, cfg)
    npt.assert_array_equal(twice[0], img)
    npt.assert_allclose(twice[1], lm, atol=1e-12)


def test_flip_without_table_rejected():
    img, lm = _one_blob()
    with pytest.raises(ConfigError):
        augment(img, lm, np.random.default_rng(0), AugmentConfig(flip=True))


def test_flip_with_bad_table_rejected():
    img, _ = _one_blob()
    lm = np.zeros((3, 2))
    cfg = AugmentConfig(flip=True, flip_table=(0, 0, 2))
    with pytest.raises(ConfigError):
        augment(img, lm, np.random.default_rng(0), cfg)


def test_rotate_keeps_blob_under_label():
    img, lm = _one_blob(at=(0.35, 0.55))
    cfg = AugmentConfig(rotate=True, max_degrees=15.0)
    for seed in range(3):
        out, lm2 = augment(img, lm, np.random.default_rng(seed), cfg)
        side = img.shape[1]
        want = lm2[0] * side - 0.5
        npt.assert_allclose(_peak(out), want, atol=1.0)


def test_rotate_output_is_pinned():
    # digests of the rotated bytes; a change to the bilinear kernel that
    # moves a single bit of the rotation shows here
    img = np.random.default_rng(21).uniform(0.0, 1.0, (3, 24, 20))
    digests = {
        0.0: "21e0a4f20afc09e6",
        0.3: "53ff1b86c2addb6c",
        -1.1: "2e61aad4e33f0693",
        np.pi / 2: "577aebbf479ab495",
        2.5: "e8d8ae0c7dc105a1",
    }
    for theta, digest in digests.items():
        out = _rotate_image(img, theta)
        assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == digest, theta


def test_occlude_paints_rectangle_and_keeps_labels():
    img, lm = _one_blob()
    cfg = AugmentConfig(occlude=True, max_occlusion=0.3)
    out, lm2 = augment(img, lm, np.random.default_rng(2), cfg)
    npt.assert_array_equal(lm2, lm)
    changed = (out != img).any(axis=0)
    ys, xs = np.nonzero(changed)
    assert len(ys) > 0
    # changed pixels fill one solid axis-aligned rectangle
    assert changed[ys.min():ys.max() + 1, xs.min():xs.max() + 1].all()
    assert changed.sum() == (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)


def test_blur_smooths_but_keeps_labels():
    img, lm = _one_blob()
    out, lm2 = augment(img, lm, np.random.default_rng(0), AugmentConfig(blur=True))
    npt.assert_array_equal(lm2, lm)
    assert out.var() < img.var()


def test_box_blur_preserves_constant_image():
    img = np.full((3, 6, 6), 0.37)
    npt.assert_allclose(_box_blur(img), img, atol=1e-12)


def test_box_blur_matches_convolve_bit_for_bit():
    img = np.random.default_rng(0).uniform(size=(3, 64, 64))
    k = np.ones(3) / 3.0
    ref = img
    for axis in (1, 2):
        pad = [(0, 0)] * 3
        pad[axis] = (1, 1)
        ref = np.apply_along_axis(
            lambda m: np.convolve(m, k, mode="valid"), axis, np.pad(ref, pad, mode="edge")
        )
    assert np.array_equal(_box_blur(img), ref)


# ---------------------------------------------------------------------------
# synthetic faces
# ---------------------------------------------------------------------------

def test_canonical_layout_five_points_are_eyes_nose_mouth():
    lm = canonical_layout(5)
    assert lm.shape == (5, 2)
    npt.assert_allclose(lm[0], [0.38, 0.42])
    # left/right symmetry of the base template
    npt.assert_allclose(lm[0, 0] + lm[1, 0], 1.0)
    npt.assert_allclose(lm[3, 0] + lm[4, 0], 1.0)


def test_canonical_layout_ring_for_larger_counts():
    lm = canonical_layout(12)
    assert lm.shape == (12, 2)
    ring = lm[5:]
    rel = ring - 0.5
    npt.assert_allclose(
        (rel[:, 0] / 0.32) ** 2 + (rel[:, 1] / 0.36) ** 2, 1.0, atol=1e-12
    )


def test_gen_synthetic_deterministic():
    a = gen_synthetic(TINY_SPEC, 3, 11)
    b = gen_synthetic(TINY_SPEC, 3, 11)
    for sa, sb in zip(a, b):
        npt.assert_array_equal(sa.image, sb.image)
        npt.assert_array_equal(sa.landmarks, sb.landmarks)
        npt.assert_array_equal(sa.bbox, sb.bbox)


def test_gen_synthetic_streams_are_per_sample():
    # sample i only depends on (seed, i), not on how many neighbors exist
    small = gen_synthetic(TINY_SPEC, 2, 11)
    large = gen_synthetic(TINY_SPEC, 4, 11)
    npt.assert_array_equal(small[1].image, large[1].image)


def test_gen_synthetic_zero_jitter_hits_canonical_layout():
    spec = dataclasses.replace(
        TINY_SPEC, scale_jitter=0.0, rotation_jitter=0.0, translation_jitter=0.0
    )
    sample = gen_synthetic(spec, 1, 0)[0]
    npt.assert_allclose(sample.landmarks, canonical_layout(5), atol=1e-12)


def _render_per_pixel(landmarks, side, rng, spec):
    """The blob renderer over a full (row, column) meshgrid."""
    img = spec.noise_level * rng.uniform(0.0, 1.0, (3, side, side))
    n = landmarks.shape[0]
    phase = 2.0 * np.pi * np.arange(n)[:, None] / max(n, 1)
    shifts = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])[None, :]
    colors = 0.55 + 0.45 * np.cos(phase + shifts)
    sigma = spec.blob_sigma * side
    jj, ii = np.meshgrid(np.arange(side), np.arange(side))
    for k in range(n):
        gx = landmarks[k, 0] * side - 0.5
        gy = landmarks[k, 1] * side - 0.5
        g = np.exp(-((jj - gx) ** 2 + (ii - gy) ** 2) / (2.0 * sigma * sigma))
        img += spec.blob_intensity * colors[k][:, None, None] * g[None]
    return np.clip(img, 0.0, 1.0)


@pytest.mark.parametrize("spec", [TINY_SPEC, SyntheticFaceSpec(num_landmarks=68, image_side=64)],
                         ids=["tiny", "64px"])
def test_gen_synthetic_matches_the_per_pixel_renderer_bit_for_bit(spec):
    for i, sample in enumerate(gen_synthetic(spec, 3, 4)):
        rng = np.random.default_rng((4, i))
        rng.uniform(size=4)  # scale, rotation and the 2-vector translation
        want = _render_per_pixel(sample.landmarks, spec.image_side, rng, spec)
        assert sample.image.tobytes() == want.tobytes()


def test_gen_synthetic_rejects_zero_count():
    with pytest.raises(ConfigError):
        gen_synthetic(TINY_SPEC, 0, 0)


def test_blobs_sit_on_labels():
    spec = SyntheticFaceSpec(
        num_landmarks=1, image_side=64, blob_sigma=0.03, noise_level=0.0,
        scale_jitter=0.0, rotation_jitter=0.0, translation_jitter=0.1,
    )
    for s in gen_synthetic(spec, 4, 5):
        peak = _peak(s.image)
        want = s.landmarks[0] * 64 - 0.5
        npt.assert_allclose(peak, want, atol=1.0)


def test_tight_bbox_hand_case():
    lm = np.array([[0.25, 0.25], [0.75, 0.75]])
    npt.assert_allclose(tight_bbox(lm, 100), [25, 25, 75, 75])
    npt.assert_allclose(tight_bbox(lm, 100, enlarge=0.2), [20, 20, 80, 80])


def test_tight_bbox_clamped_to_image():
    lm = np.array([[0.02, 0.5], [0.98, 0.5]])
    box = tight_bbox(lm, 100, enlarge=0.5)
    assert box[0] == 0.0 and box[2] == 100.0


def test_dataset_bboxes_inside_image():
    for s in gen_synthetic(TINY_SPEC, 6, 3):
        x0, y0, x1, y1 = s.bbox
        assert 0 <= x0 < x1 <= TINY_SPEC.image_side
        assert 0 <= y0 < y1 <= TINY_SPEC.image_side


# ---------------------------------------------------------------------------
# gradient checking harness
# ---------------------------------------------------------------------------

def _toy_problem():
    params = {"w": np.array([0.5, -1.5, 2.0]), "b": np.array([0.25])}
    x = np.array([1.0, 2.0, 3.0])

    def loss_fn(p):
        return float((p["w"] * x).sum() ** 2 + 3.0 * p["b"][0])

    s = (params["w"] * x).sum()
    analytic = {"w": 2.0 * s * x, "b": np.array([3.0])}
    return params, loss_fn, analytic


def test_fd_check_accepts_correct_gradients():
    params, loss_fn, analytic = _toy_problem()
    report = check_against_fd(params, loss_fn, analytic)
    assert report.ok
    assert report.worst.max_rel < 1e-7


def test_fd_check_catches_scaled_gradient():
    params, loss_fn, analytic = _toy_problem()
    report = check_against_fd(params, loss_fn, analytic, fault_path="w")
    assert not report.ok
    bad = {e.path for e in report.entries if not e.ok}
    assert bad == {"w"}


def test_fd_report_text_lists_paths():
    params, loss_fn, analytic = _toy_problem()
    text = check_against_fd(params, loss_fn, analytic).to_text()
    assert "w" in text and "b" in text
    assert "overall: PASS" in text


def test_model_grad_check_smoke(tiny_state, tiny_batch):
    state = jitter_params(tiny_state)
    report = grad_check(state, tiny_batch[:1], min_coords=1)
    assert report.ok
    assert len(report.entries) == len(state.params)


# ---------------------------------------------------------------------------
# self-training
# ---------------------------------------------------------------------------

def test_self_train_validates_arguments(tiny_state, tiny_batch):
    pool = [s.image for s in tiny_batch]
    cfg = TrainConfig(steps=1, lr_drop_step=0)
    with pytest.raises(ConfigError):
        self_train(tiny_state, tiny_batch, pool, 0, cfg)
    with pytest.raises(ConfigError):
        self_train(tiny_state, tiny_batch, [], 1, cfg)


def test_self_train_zero_lr_round_is_a_no_op(tiny_state, tiny_batch):
    pool = [s.image for s in tiny_batch]
    cfg = TrainConfig(lr=0.0, steps=2, lr_drop_step=0, batch_size=8)
    out, history = self_train(tiny_state, tiny_batch, pool, 1, cfg)
    for k in tiny_state.params:
        npt.assert_array_equal(out.params[k], tiny_state.params[k])
    assert [h["round"] for h in history] == [1]


def test_self_train_records_eval_per_round(tiny_state, tiny_batch):
    pool = [s.image for s in tiny_batch]
    cfg = TrainConfig(lr=1e-4, steps=2, lr_drop_step=0, batch_size=8)
    calls = []

    def eval_fn(st):
        calls.append(1)
        return float(len(calls))

    out, history = self_train(tiny_state, tiny_batch, pool, 2, cfg, eval_fn=eval_fn)
    assert [h["round"] for h in history] == [0, 1, 2]
    assert [h["eval"] for h in history] == [1.0, 2.0, 3.0]
    assert np.isnan(history[0]["loss"])
