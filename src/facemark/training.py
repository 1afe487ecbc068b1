"""Deep-supervised L1 objective, Adam loop with the two-group learning
rate, augmentation, synthetic face rendering, the finite-difference
gradient-check harness, and the self-training loop.

Sizes here are desk scale: datasets are lists of Sample tuples held in
memory, batches are plain index lists, and the schedule is counted in
optimizer steps (a step over the full batch stands in for an epoch).
"""

from __future__ import annotations

import dataclasses
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .decoder import DecoderState, ModelConfig, backward, forward
from .errors import ConfigError, NumericError
from .geometry import bilinear_sample_many
from .params import Params, add_grads, scale_grads, zero_grads_like

Sample = namedtuple("Sample", "image landmarks bbox")


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def landmark_loss(outputs, gt):
    """Sum over every supervision stage of the L1 distance to ground truth.

    Returns (loss, per-stage gradients).  Batch averaging is the caller's
    job; a single sample contributes sum_t ||Y_t - gt||_1.
    """
    gt = np.asarray(gt)
    loss = 0.0
    dys = []
    for y in outputs:
        if y.shape != gt.shape:
            raise ValueError(f"output shape {y.shape} != target {gt.shape}")
        r = y - gt
        loss += np.abs(r).sum()
        dys.append(np.sign(r))
    return loss, dys


def batch_loss_and_grads(params: Params, cfg: ModelConfig, images, targets):
    """Mean loss and mean parameter gradients over a batch."""
    n = len(images)
    total = 0.0
    acc = None
    for img, tgt in zip(images, targets):
        ys, cache = forward(params, img, cfg)
        li, dys = landmark_loss(ys, tgt)
        gi = backward(dys, params, cfg, cache)
        total += li
        acc = gi if acc is None else add_grads(acc, gi)
    scale_grads(acc, 1.0 / n)
    return total / n, acc


def batch_loss(params: Params, cfg: ModelConfig, images, targets):
    total = 0.0
    for img, tgt in zip(images, targets):
        ys, _ = forward(params, img, cfg)
        li, _ = landmark_loss(ys, tgt)
        total += li
    return total / len(images)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with per-path learning-rate factors (backbone runs slower)."""

    def __init__(self, params: Params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = zero_grads_like(params)
        self.v = zero_grads_like(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    def step(self, params: Params, grads: Params, lr: float, lr_factor):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= (lr * lr_factor(k)) * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentConfig:
    translate: bool = False
    max_shift: int = 3  # pixels
    flip: bool = False
    flip_table: tuple[int, ...] | None = None
    rotate: bool = False
    max_degrees: float = 10.0
    occlude: bool = False
    max_occlusion: float = 0.25  # fraction of the image side
    blur: bool = False

    def any_enabled(self) -> bool:
        return self.translate or self.flip or self.rotate or self.occlude or self.blur


def augment(image, landmarks, rng, cfg: AugmentConfig):
    """Apply the enabled augmentations; labels track the image exactly.

    Enabled augmentations always fire; only their magnitudes are random.
    Translation is whole pixels, so labels shift by exactly (dx/W, dy/H).
    """
    lm = np.array(landmarks)
    img = np.array(image)
    side = img.shape[1]
    if cfg.translate:
        dx, dy = rng.integers(-cfg.max_shift, cfg.max_shift + 1, 2)
        img = _shift_image(img, int(dx), int(dy))
        lm = lm + np.array([dx / side, dy / side])
    if cfg.flip:
        if cfg.flip_table is None:
            raise ConfigError("horizontal flip enabled without a flip table")
        table = np.asarray(cfg.flip_table)
        if sorted(table.tolist()) != list(range(lm.shape[0])):
            raise ConfigError("flip table is not a permutation of the landmarks")
        img = img[:, :, ::-1].copy()
        lm = np.stack([1.0 - lm[:, 0], lm[:, 1]], axis=1)[table]
    if cfg.rotate:
        theta = np.deg2rad(rng.uniform(-cfg.max_degrees, cfg.max_degrees))
        img = _rotate_image(img, theta)
        c, s = np.cos(theta), np.sin(theta)
        rel = lm - 0.5
        lm = np.stack(
            [c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1]], axis=1
        ) + 0.5
    if cfg.occlude:
        max_px = max(1, int(cfg.max_occlusion * side))
        w = int(rng.integers(1, max_px + 1))
        h = int(rng.integers(1, max_px + 1))
        x0 = int(rng.integers(0, side - w + 1))
        y0 = int(rng.integers(0, side - h + 1))
        img[:, y0:y0 + h, x0:x0 + w] = rng.uniform(0.0, 1.0)
    if cfg.blur:
        img = _box_blur(img)
    return img, lm


def _shift_image(img, dx, dy):
    out = np.zeros_like(img)
    _, h, w = img.shape
    xs0, xd0 = (0, dx) if dx >= 0 else (-dx, 0)
    ys0, yd0 = (0, dy) if dy >= 0 else (-dy, 0)
    cw, ch = w - abs(dx), h - abs(dy)
    out[:, yd0:yd0 + ch, xd0:xd0 + cw] = img[:, ys0:ys0 + ch, xs0:xs0 + cw]
    return out


def _rotate_image(img, theta):
    # inverse-map each output pixel center and sample the input bilinearly
    _, h, w = img.shape
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    u = (jj.ravel() + 0.5) / w - 0.5
    v = (ii.ravel() + 0.5) / h - 0.5
    c, s = np.cos(-theta), np.sin(-theta)
    src = np.stack([c * u - s * v + 0.5, s * u + c * v + 0.5], axis=1)
    fmap = img.transpose(1, 2, 0)[:, :, None, :]  # one level, one head
    out = bilinear_sample_many([fmap], src[:, None, None, None, :])
    return out.reshape(h, w, img.shape[0]).transpose(2, 0, 1)


def _box_blur(img):
    # 3-tap mean along the height axis, then the width axis, with edge
    # padding.  The sum runs in np.convolve's order, so the result matches
    # it bit for bit.
    k = 1.0 / 3.0
    p = np.pad(img, ((0, 0), (1, 1), (0, 0)), mode="edge")
    out = p[:, :-2] * k + p[:, 1:-1] * k + p[:, 2:] * k
    p = np.pad(out, ((0, 0), (0, 0), (1, 1)), mode="edge")
    return p[:, :, :-2] * k + p[:, :, 1:-1] * k + p[:, :, 2:] * k


# ---------------------------------------------------------------------------
# Synthetic faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticFaceSpec:
    num_landmarks: int = 68
    image_side: int = 256
    scale_jitter: float = 0.08
    rotation_jitter: float = 12.0  # degrees
    translation_jitter: float = 0.06
    blob_sigma: float = 0.04  # fraction of the side
    blob_intensity: float = 0.8
    noise_level: float = 0.1
    bbox_enlarge: float = 0.1

    def __post_init__(self):
        if self.num_landmarks < 1:
            raise ConfigError("need at least one landmark")
        if self.image_side < 4:
            raise ConfigError("image side too small")


def canonical_layout(n: int):
    """Eye/nose/mouth template plus an outline ring, in normalized coords."""
    base = np.array([
        (0.38, 0.42), (0.62, 0.42),  # eyes
        (0.50, 0.58),                # nose tip
        (0.40, 0.72), (0.60, 0.72),  # mouth corners
    ])
    if n <= 5:
        return base[:n].copy()
    extra = n - 5
    ang = -np.pi / 2 + 2.0 * np.pi * np.arange(extra) / extra
    ring = np.stack([0.5 + 0.32 * np.cos(ang), 0.5 + 0.36 * np.sin(ang)], axis=1)
    return np.concatenate([base, ring], axis=0)


def _landmark_colors(n: int):
    # fixed hue wheel so each landmark renders with its own tint
    phase = 2.0 * np.pi * np.arange(n)[:, None] / max(n, 1)
    shifts = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])[None, :]
    return 0.55 + 0.45 * np.cos(phase + shifts)


def render_face(landmarks, side, rng, spec: SyntheticFaceSpec):
    """Noise background plus one Gaussian blob per landmark, each with its
    own color.  Blob centers sit exactly at the labels.
    """
    n = landmarks.shape[0]
    img = spec.noise_level * rng.uniform(0.0, 1.0, (3, side, side))
    colors = _landmark_colors(n)
    sigma = spec.blob_sigma * side
    jj, ii = np.meshgrid(np.arange(side), np.arange(side))
    for k in range(n):
        gx = landmarks[k, 0] * side - 0.5
        gy = landmarks[k, 1] * side - 0.5
        g = np.exp(-((jj - gx) ** 2 + (ii - gy) ** 2) / (2.0 * sigma * sigma))
        img += spec.blob_intensity * colors[k][:, None, None] * g[None]
    return np.clip(img, 0.0, 1.0)


def tight_bbox(landmarks, side, enlarge=0.0):
    """Tight pixel box around the landmarks, sides scaled by (1 + enlarge),
    clamped to the image."""
    px = landmarks * side
    x0, y0 = px.min(axis=0)
    x1, y1 = px.max(axis=0)
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    hw = (x1 - x0) * (1.0 + enlarge) / 2.0
    hh = (y1 - y0) * (1.0 + enlarge) / 2.0
    return np.array([
        max(cx - hw, 0.0), max(cy - hh, 0.0),
        min(cx + hw, side), min(cy + hh, side),
    ])


def gen_synthetic(spec: SyntheticFaceSpec, count: int, seed: int):
    """Render `count` faces; sample i uses its own RNG stream (seed, i)."""
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    canon = canonical_layout(spec.num_landmarks)
    out = []
    for i in range(count):
        rng = np.random.default_rng((seed, i))
        s = 1.0 + rng.uniform(-spec.scale_jitter, spec.scale_jitter)
        theta = np.deg2rad(rng.uniform(-spec.rotation_jitter, spec.rotation_jitter))
        t = rng.uniform(-spec.translation_jitter, spec.translation_jitter, 2)
        c, sn = np.cos(theta), np.sin(theta)
        rel = (canon - 0.5) * s
        lm = np.stack(
            [c * rel[:, 0] - sn * rel[:, 1], sn * rel[:, 0] + c * rel[:, 1]],
            axis=1,
        ) + 0.5 + t
        img = render_face(lm, spec.image_side, rng, spec)
        bbox = tight_bbox(lm, spec.image_side, spec.bbox_enlarge)
        out.append(Sample(img, lm, bbox))
    return out


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    lr_backbone_scale: float = 0.1
    steps: int = 2000
    lr_drop_step: int = 1600
    batch_size: int = 8
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.steps < 1:
            raise ConfigError(f"train.steps must be >= 1, got {self.steps}")
        if self.lr_drop_step < 0:
            raise ConfigError(f"train.lr_drop_step must be >= 0, got {self.lr_drop_step}")
        if self.lr_drop_step > self.steps:
            raise ConfigError("lr_drop_step past the end of the schedule")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")


def train(state: DecoderState, dataset, cfg: TrainConfig, log=None):
    """Adam loop over the dataset.  Returns (new state, per-step mean loss).

    Backbone parameters run at lr * lr_backbone_scale; everything drops to
    a tenth after lr_drop_step.  Aborts on a non-finite loss.
    """
    if len(dataset) == 0:
        raise ConfigError("training dataset is empty")
    params = {k: v.copy() for k, v in state.params.items()}
    mcfg = state.config
    opt = Adam(params)
    rng_batch = np.random.default_rng((cfg.seed, 1))

    def lr_factor(path):
        return cfg.lr_backbone_scale if path.startswith("backbone.") else 1.0

    losses = []
    for step in range(1, cfg.steps + 1):
        if cfg.batch_size >= len(dataset):
            idx = range(len(dataset))
        else:
            idx = rng_batch.choice(len(dataset), cfg.batch_size, replace=False)
        images, targets = [], []
        for j, i in enumerate(idx):
            img, lm = dataset[i].image, dataset[i].landmarks
            if cfg.augment.any_enabled():
                rng_aug = np.random.default_rng((cfg.seed, step, int(i)))
                img, lm = augment(img, lm, rng_aug, cfg.augment)
            images.append(img)
            targets.append(lm)
        loss, grads = batch_loss_and_grads(params, mcfg, images, targets)
        if not np.isfinite(loss):
            raise NumericError(f"training diverged at step {step}: loss={loss}")
        lr = cfg.lr * (0.1 if step > cfg.lr_drop_step else 1.0)
        opt.step(params, grads, lr, lr_factor)
        losses.append(loss)
        if log is not None and (step % 100 == 0 or step == 1):
            log(f"step {step:5d}  loss {loss:.6f}  lr {lr:g}")
    return DecoderState(mcfg, params), losses


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

PathCheck = namedtuple("PathCheck", "path max_rel worst_index ok")


@dataclass
class GradCheckReport:
    entries: list
    threshold: float
    step: float

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def worst(self) -> PathCheck:
        return max(self.entries, key=lambda e: e.max_rel)

    def to_text(self) -> str:
        lines = [f"gradient check  step={self.step:g}  threshold={self.threshold:g}"]
        width = max(len(e.path) for e in self.entries)
        for e in self.entries:
            status = "ok" if e.ok else "FAIL"
            lines.append(f"{e.path:<{width}}  {e.max_rel:12.3e}  at {e.worst_index:<6d}  {status}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"overall: {verdict} ({len(self.entries)} paths)")
        return "\n".join(lines) + "\n"


def check_against_fd(params, loss_fn, analytic, step=1e-5, threshold=1e-4,
                     min_coords=8, seed=0, fault_path=None):
    """Compare analytic grads to central differences of loss_fn.

    Samples min_coords coordinates per path (all of them for small paths).
    The relative-error denominator is floored at 1e-5 so near-zero pairs
    compare absolutely.  fault_path doubles that path's analytic gradient,
    for exercising the failure branch.

    Central differences are only valid where the loss is smooth; a probe
    that straddles a rectifier or interpolation-cell kink reports a bogus
    mismatch.  A failing coordinate is therefore re-probed at shrinking
    steps: kink artifacts die off with the step, a wrong backward does not.
    """
    rng = np.random.default_rng(seed)

    def probe(flat, c, g_c, h):
        keep = flat[c]
        flat[c] = keep + h
        up = loss_fn(params)
        flat[c] = keep - h
        down = loss_fn(params)
        flat[c] = keep
        fd = (up - down) / (2.0 * h)
        return abs(g_c - fd) / max(abs(g_c), abs(fd), 1e-5)

    entries = []
    for path in sorted(params):
        p = params[path]
        g = analytic[path].ravel()
        if fault_path == path:
            g = g * 2.0
        flat = p.ravel()
        n = flat.size
        if n <= min_coords:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, min_coords, replace=False)
        max_rel = 0.0
        worst = 0
        for c in coords:
            rel = probe(flat, c, g[c], step)
            h = step
            while rel >= threshold and h > step / 32.0:
                h /= 4.0
                rel = probe(flat, c, g[c], h)
            if rel > max_rel:
                max_rel = rel
                worst = int(c)
        entries.append(PathCheck(path, max_rel, worst, max_rel < threshold))
    return GradCheckReport(entries, threshold, step)


def grad_check(state: DecoderState, batch, step=1e-5, threshold=1e-4,
               min_coords=8, seed=0, fault_path=None) -> GradCheckReport:
    """Finite-difference check of the full model loss on a batch of
    (image, landmarks) samples.  Covers every parameter path.
    """
    images = [s.image for s in batch]
    targets = [s.landmarks for s in batch]
    params = {k: v.copy() for k, v in state.params.items()}
    _, analytic = batch_loss_and_grads(params, state.config, images, targets)

    def loss_fn(p):
        return batch_loss(p, state.config, images, targets)

    return check_against_fd(
        params, loss_fn, analytic, step=step, threshold=threshold,
        min_coords=min_coords, seed=seed, fault_path=fault_path,
    )


# ---------------------------------------------------------------------------
# Self-training
# ---------------------------------------------------------------------------

def self_train(state: DecoderState, labeled, unlabeled_images, rounds,
               cfg: TrainConfig, eval_fn=None, log=None):
    """Classic self-training: predict pseudo-labels on the unlabeled pool,
    train on the union, repeat with the student as the next teacher.

    Each round fine-tunes from the previous round's weights.  eval_fn, if
    given, maps a DecoderState to a scalar recorded per round (plus once
    for the starting teacher).
    """
    if rounds < 1:
        raise ConfigError("self-training needs at least one round")
    if len(unlabeled_images) == 0:
        raise ConfigError("self-training needs a non-empty unlabeled pool")
    history = []
    if eval_fn is not None:
        history.append({"round": 0, "loss": float("nan"), "eval": eval_fn(state)})
    for r in range(1, rounds + 1):
        pseudo = []
        for img in unlabeled_images:
            ys = state.predict(img)
            lm = ys[-1].copy()
            pseudo.append(Sample(img, lm, tight_bbox(lm, img.shape[1])))
        union = list(labeled) + pseudo
        round_cfg = dataclasses.replace(cfg, seed=cfg.seed + r)
        state, losses = train(state, union, round_cfg, log=log)
        entry = {"round": r, "loss": losses[-1]}
        if eval_fn is not None:
            entry["eval"] = eval_fn(state)
        history.append(entry)
        if log is not None:
            log(f"round {r}: final loss {losses[-1]:.6f}"
                + (f"  eval {entry['eval']:.6f}" if eval_fn else ""))
    return state, history
