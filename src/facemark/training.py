"""Deep-supervised L1 objective, Adam loop with the two-group learning
rate, augmentation, synthetic face rendering, the finite-difference
gradient-check harness, and the self-training loop.

Sizes here are desk scale: datasets are lists of Sample tuples held in
memory, batches are plain index lists, and the schedule is counted in
optimizer steps (a step over the full batch stands in for an epoch).  A
batch runs through the model one chunk of images at a time
(`decoder.chunk_slices`), one forward and one backward per chunk.  A batch
of several chunks holds the package's one worker (`attention.worker`):
while the calling thread runs a chunk's loss and backward, the worker runs
the next chunk's forward and then the tasks that backward defers
(`attention.defer`): its weight-gradient products and, in `train`'s last
chunk, each layer's Adam update once that layer's backward has returned,
behind the layer's weight products, the last adds into its gradient.  The
worker runs its tasks in the order they were queued.  The forward only
reads the parameters, and a layer's update writes only that layer's
parameters, which no later part of the backward reads; each gradient
entry is added either only on the calling thread or only on the worker,
in chunk order either way.  So losses, gradients and checkpoints keep the
bits of a serial loop followed by one Adam step.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .attention import defer, worker
from .decoder import DecoderState, ModelConfig, backward, chunk_slices, forward
from .errors import ConfigError, NumericError
from .geometry import bilinear_sample_many
from .params import Params, flat_views

Sample = namedtuple("Sample", "image landmarks bbox")


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def landmark_loss(outputs, gt):
    """Sum over every supervision stage of the L1 distance to ground truth.

    Returns (loss, per-stage gradients).  Outputs and gt may carry a
    leading image axis, which the loss sums over; batch averaging is the
    caller's job.  A single sample contributes sum_t ||Y_t - gt||_1.
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


def batch_loss_and_grads(params: Params, cfg: ModelConfig, images, targets,
                         buffer=None, layer_update=None):
    """Mean loss and mean parameter gradients over a batch of images
    (B, 3, side, side) and targets (B, N, 2): (loss, flat gradient vector,
    its {path: view} dict), laid out by `flat_views`.  The gradients go
    into `buffer`, a (vector, views) pair from `flat_views`, if given, else
    into a new one; either is zero-filled first, while chunk 0's forward
    runs.

    A batch of several chunks runs inside one `attention.worker()` block:
    every chunk's forward runs on the worker, chunk i + 1's while this
    thread runs chunk i's loss and backward, whose weight-gradient products
    queue behind it (module docstring).  The call returns once every task
    has finished, and an error from either thread is raised as it is.  In
    such a batch, `layer_update` (`train` passes it), if given, is queued
    with each layer t in the last chunk's backward, once layer t's backward
    has returned.  A batch of one chunk runs here, with no thread."""
    images, targets = np.asarray(images), np.asarray(targets)
    scale = 1.0 / len(images)
    total = 0.0
    flat, grads = buffer or flat_views({k: v.shape for k, v in params.items()})
    slices = chunk_slices(len(images), cfg)
    # in the last chunk, each layer's update queues behind its last weight products
    update = functools.partial(defer, layer_update) if layer_update and len(slices) > 1 else None
    with worker() if len(slices) > 1 else contextlib.nullcontext() as lane:

        def ahead(i):
            return lane.submit(forward, params, images[slices[i]], cfg) if i < len(slices) else None

        # chunk 0's forward runs on the worker too: a cache built here would
        # sit in this thread's malloc arena, which the worker's forwards do
        # not reuse (64 px parallel peaked 28 MB higher).  The buffer is
        # zeroed meanwhile.
        pending = ahead(0) if lane else None
        flat.fill(0.0)
        for i, sl in enumerate(slices):
            ys, cache = forward(params, images[sl], cfg) if pending is None else pending.result()
            pending = ahead(i + 1)
            loss, dys = landmark_loss(ys, targets[sl])
            total += loss
            backward([dy * scale for dy in dys], params, cfg, cache, grads,
                     update if i == len(slices) - 1 else None)
    return total / len(images), flat, grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

# Elements per Adam update block.  A block's temporaries live in two scratch
# arrays of this size, which stay in cache; larger blocks measured slower.
ADAM_BLOCK = 16384


class Adam:
    """Adam over one flat parameter vector.  The leading `slow` elements (the
    backbone's, whose paths sort first) run at lr * slow_scale."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int, slow: int, slow_scale: float):
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.groups = ((0, slow, slow_scale), (slow, size, 1.0))
        self.t = 0

    def step(self, p: np.ndarray, g: np.ndarray, lr: float, done=()):
        """Count a step and update every element of p that `done`, a list
        of (start, stop) ranges that `update` has already moved at this
        step's count, leaves out."""
        self.t += 1
        start = 0
        for lo, hi in sorted(done) + [(len(p), len(p))]:
            self.update(p, g, lr, start, lo, self.t)
            start = hi

    def update(self, p: np.ndarray, g: np.ndarray, lr: float, start: int, stop: int, t: int):
        """Step t's update of p[start:stop], a block at a time:
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        p -= (lr scale) (m / c1) / (sqrt(v / c2) + eps), rounded in that order.
        Every operation is elementwise, so the blocks' bounds move no bit."""
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        t1, t2 = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
        for first, last, scale in self.groups:
            end = min(stop, last)
            for i in range(max(start, first), end, ADAM_BLOCK):
                sl = slice(i, min(i + ADAM_BLOCK, end))
                gb, m, v, pb = g[sl], self.m[sl], self.v[sl], p[sl]
                a, b = t1[:len(gb)], t2[:len(gb)]
                m *= b1
                m += np.multiply(1.0 - b1, gb, out=a)
                v *= b2
                v += np.multiply(np.multiply(1.0 - b2, gb, out=a), gb, out=a)
                np.multiply(lr * scale, np.divide(m, c1, out=a), out=a)
                np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
                pb -= np.divide(a, b, out=a)


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

    def __post_init__(self):
        if self.max_shift < 0:
            raise ConfigError(f"train.max_shift must be >= 0, got {self.max_shift}")
        if not 0.0 <= self.max_degrees <= 180.0:
            raise ConfigError(f"train.max_degrees must lie in [0, 180], got {self.max_degrees}")

    def any_enabled(self) -> bool:
        return self.translate or self.flip or self.rotate or self.occlude or self.blur

    def flip_permutation(self, num_landmarks: int):
        """The flip table as an index array; it must permute the landmarks."""
        if self.flip_table is None:
            raise ConfigError("train.flip is on but train.flip_table is not set")
        if sorted(self.flip_table) != list(range(num_landmarks)):
            raise ConfigError(
                f"train.flip_table must be a permutation of 0..{num_landmarks - 1}, "
                f"got {','.join(map(str, self.flip_table))}"
            )
        return np.asarray(self.flip_table)


def augment(image, landmarks, rng, cfg: AugmentConfig):
    """Apply the enabled augmentations; labels track the image exactly.

    Enabled augmentations always fire; only their magnitudes are random.
    Translation is whole pixels, so labels shift by exactly (dx/W, dy/H).
    """
    lm = np.array(landmarks)
    img = np.array(image)
    side = img.shape[1]
    if cfg.translate:
        if cfg.max_shift > side:
            raise ConfigError(f"train.max_shift {cfg.max_shift} exceeds the image side {side}")
        dx, dy = rng.integers(-cfg.max_shift, cfg.max_shift + 1, 2)
        img = _shift_image(img, int(dx), int(dy))
        lm = lm + np.array([dx / side, dy / side])
    if cfg.flip:
        table = cfg.flip_permutation(lm.shape[0])
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
    locs = src[:, None, None, None, :]  # one point of weight 1 per pixel
    out = np.zeros((h * w, 1, img.shape[0]))
    bilinear_sample_many([fmap], locs, np.ones(locs.shape[:-1]), [out])
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
        # a blob narrower than a quarter pixel falls between the pixel
        # centres (noise only), one wider than the image fills it (all white);
        # in between, render_face's squared distances over 2 sigma^2 (sigma in
        # pixels) stay finite and non-zero
        if not (0.25 <= self.blob_sigma * self.image_side and self.blob_sigma <= 1.0):
            raise ConfigError(f"data.blob_sigma = {self.blob_sigma} cannot be drawn at "
                              f"image side {self.image_side}: it must lie in "
                              f"[{0.25 / self.image_side:.3g}, 1], a quarter pixel to the "
                              "whole side")
        if not self.noise_level >= 0.0:
            raise ConfigError(f"data.noise_level must be >= 0, got {self.noise_level}")
        if not self.bbox_enlarge > -1.0:  # else the box's sides turn negative
            raise ConfigError(f"data.bbox_enlarge must be > -1, got {self.bbox_enlarge}")


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


@functools.lru_cache(maxsize=8)
def _landmark_colors(n: int):
    # fixed hue wheel so each landmark renders with its own tint; one
    # read-only table per landmark count
    phase = 2.0 * np.pi * np.arange(n)[:, None] / max(n, 1)
    shifts = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])[None, :]
    colors = 0.55 + 0.45 * np.cos(phase + shifts)
    colors.flags.writeable = False
    return colors


def render_face(landmarks, side, rng, spec: SyntheticFaceSpec):
    """Noise background plus one Gaussian blob per landmark, each with its
    own color.  Blob centers sit exactly at the labels.
    """
    n = landmarks.shape[0]
    img = spec.noise_level * rng.uniform(0.0, 1.0, (3, side, side))
    colors = _landmark_colors(n)
    sigma = spec.blob_sigma * side
    pix = np.arange(side)
    for k in range(n):
        gx = landmarks[k, 0] * side - 0.5
        gy = landmarks[k, 1] * side - 0.5
        # squared distance of pixel (row i, column j): (i - gy)^2 + (j - gx)^2
        d2 = (pix - gy)[:, None] ** 2 + (pix - gx)[None] ** 2
        g = np.exp(-d2 / (2.0 * sigma * sigma))
        img += spec.blob_intensity * colors[k][:, None, None] * g[None]
    return np.clip(img, 0.0, 1.0)


def tight_bbox(landmarks, side, enlarge=0.0):
    """Tight pixel box (x0, y0, x1, y1) around (..., N, 2) landmarks, sides
    scaled by (1 + enlarge), clamped to the image; (..., 4)."""
    px = landmarks * side
    lo = px.min(axis=-2)
    hi = px.max(axis=-2)
    center = (lo + hi) / 2.0
    half = (hi - lo) * (1.0 + enlarge) / 2.0
    return np.concatenate(
        [np.maximum(center - half, 0.0), np.minimum(center + half, side)], axis=-1
    )


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
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"train.lr must be finite and >= 0, got {self.lr}")
        scale = self.lr_backbone_scale
        if not (math.isfinite(scale) and scale >= 0):
            raise ConfigError(f"train.lr_backbone_scale must be finite and >= 0, got {scale}")
        if self.steps < 1:
            raise ConfigError(f"train.steps must be >= 1, got {self.steps}")
        if self.lr_drop_step < 0:
            raise ConfigError(f"train.lr_drop_step must be >= 0, got {self.lr_drop_step}")
        if self.lr_drop_step > self.steps:
            raise ConfigError(f"train.lr_drop_step {self.lr_drop_step} is past the end of the "
                              f"schedule: train.steps is {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")


def _layer_ranges(flat, views: Params, num_layers: int):
    """(start, stop) of each layer's layers.{t}.* views in `flat`, whose
    `flat_views` lays the paths out in sorted order: the paths that share a
    prefix sort next to each other, so each layer is one range."""
    ranges = []
    for t in range(num_layers):
        spans = [((v.ctypes.data - flat.ctypes.data) // flat.itemsize, v.size)
                 for k, v in views.items() if k.startswith(f"layers.{t}.")]
        ranges.append((min(lo for lo, _ in spans), max(lo + n for lo, n in spans)))
    return ranges


def train(state: DecoderState, dataset, cfg: TrainConfig, log=None):
    """Adam loop over the dataset.  Returns (new state, per-step mean loss).

    Backbone parameters run at lr * lr_backbone_scale; everything drops to
    a tenth after lr_drop_step.  Aborts on a non-finite loss or gradient.
    """
    if len(dataset) == 0:
        raise ConfigError("training dataset is empty")
    shapes = {k: v.shape for k, v in state.params.items()}
    flat, params = flat_views(shapes)
    np.concatenate([state.params[k].ravel() for k in params], out=flat)
    grad_buffer = flat_views(shapes)
    mcfg = state.config
    # every backbone.* path sorts first, so the backbone is a leading slice
    slow = sum(v.size for k, v in params.items() if k.startswith("backbone."))
    opt = Adam(flat.size, slow, cfg.lr_backbone_scale)
    layers = _layer_ranges(flat, params, mcfg.num_layers)
    rng_batch = np.random.default_rng((cfg.seed, 1))

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
        lr = cfg.lr * (0.1 if step > cfg.lr_drop_step else 1.0)
        done = []  # the ranges of flat that the worker moved at this step

        def update_layer(t):
            # on the worker, behind layer t's last gradient add; a layer whose
            # gradient is not finite keeps its parameters, and the checks
            # below then end the run
            lo, hi = layers[t]
            with np.errstate(invalid="ignore", over="ignore"):
                finite = math.isfinite(grad_buffer[0][lo:hi].sum())
            if finite:
                opt.update(flat, grad_buffer[0], lr, lo, hi, opt.t + 1)
                done.append((lo, hi))

        loss, gflat, grads = batch_loss_and_grads(params, mcfg, images, targets,
                                                  grad_buffer, update_layer)
        if not np.isfinite(loss):
            raise NumericError(f"training diverged at step {step}: loss={loss}")
        # one check over every entry: a sum is finite iff all its terms are,
        # unless finite terms overflow, which is divergence too; numpy's
        # warnings for inf - inf and overflow would only precede the error
        with np.errstate(invalid="ignore", over="ignore"):
            total = gflat.sum()
        if not math.isfinite(total):
            bad = next((k for k, g in grads.items() if not np.isfinite(g).all()),
                       "the sum over all parameters")
            raise NumericError(f"training diverged at step {step}: non-finite gradient in {bad}")
        opt.step(flat, gflat, lr, done)
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
    images = np.stack([s.image for s in batch])
    targets = np.stack([s.landmarks for s in batch])
    params = {k: v.copy() for k, v in state.params.items()}
    _, _, analytic = batch_loss_and_grads(params, state.config, images, targets)

    def loss_fn(p):
        ys = DecoderState(state.config, p).predict(images)
        return landmark_loss(ys, targets)[0] / len(images)

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
    pool = np.asarray(unlabeled_images)
    for r in range(1, rounds + 1):
        labels = state.predict(pool)[-1]
        boxes = tight_bbox(labels, pool.shape[-1])
        union = list(labeled) + list(map(Sample, unlabeled_images, labels, boxes))
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
