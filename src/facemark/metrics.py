"""Landmark error metrics: normalized mean error under three normalizers,
failure rate, AUC of the cumulative error curve, and report assembly.

Predictions and ground truth are (N, 2) arrays in normalized [0, 1] image
coordinates, or stacks (..., N, 2) of them; they are scaled to pixels
before measuring, so the normalizer D is always a pixel distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import DecoderState
from .errors import ConfigError, NumericError

FR_THRESHOLDS = (0.08, 0.10)
AUC_CUTOFF = 0.07

NORMALIZERS = ("inter_ocular", "image_size", "bbox_geometric_mean")


def _scalar(v):
    return float(v) if np.ndim(v) == 0 else v


def nme(pred, gt, d, pixel_scale):
    """Mean Euclidean pixel distance over landmarks, divided by d.

    For stacks (..., N, 2) the result is one error per sample, and d
    broadcasts against the leading axes."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth {gt.shape}")
    if np.any(np.asarray(d) <= 0):
        raise ValueError(f"normalizer must be positive, got {d}")
    w, h = pixel_scale
    diff = (pred - gt) * np.array([w, h])
    return _scalar(np.sqrt((diff ** 2).sum(axis=-1)).mean(axis=-1) / d)


def failure_rate(nmes, threshold):
    """Fraction of samples with error strictly above the threshold."""
    nmes = np.asarray(nmes, dtype=float)
    if nmes.size == 0:
        raise ValueError("failure rate of an empty result set")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return float((nmes > threshold).mean())


def auc(nmes, cutoff):
    """Exact area under the empirical CDF of the errors on [0, cutoff],
    divided by cutoff.

    The CDF is a staircase; each sample contributes the length of
    [nme_i, cutoff] clipped to the interval, so the integral needs no
    curve sampling.
    """
    nmes = np.asarray(nmes, dtype=float)
    if nmes.size == 0:
        raise ValueError("AUC of an empty result set")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    return float(np.clip(cutoff - nmes, 0.0, cutoff).mean() / cutoff)


def resolve_normalizer(kind, gt=None, pixel_scale=None, bbox=None,
                       eye_indices=(0, 1)):
    """Turn a normalizer kind plus sample metadata into the distance D.

    inter_ocular: pixel distance between two configured ground-truth
    landmarks; image_size: the image side; bbox_geometric_mean:
    sqrt(width * height) of the ground-truth box (x0, y0, x1, y1), which
    needs x0 < x1 and y0 < y1.  Stacks of ground truth
    (..., N, 2) or boxes (..., 4) give one distance per sample; an error
    names the first sample at fault, or the eval key.
    """
    if kind == "inter_ocular":
        if gt is None or pixel_scale is None:
            raise ConfigError("inter-ocular normalizer needs ground truth and image size")
        gt = np.asarray(gt)
        n = gt.shape[-2]
        for key, i in zip(("eval.left_eye", "eval.right_eye"), eye_indices):
            if not 0 <= i < n:
                raise ConfigError(f"{key} {i} is out of range for {n} landmarks")
        li, ri = eye_indices
        w, h = pixel_scale
        diff = (gt[..., li, :] - gt[..., ri, :]) * np.array([w, h])
        d = np.sqrt((diff ** 2).sum(axis=-1))
        if np.any(d == 0.0):
            i = np.flatnonzero(np.ravel(d) == 0.0)[0]
            raise ConfigError(f"sample {i} has eye landmarks {li} and {ri} at one point; "
                              f"the inter-ocular distance is zero")
        return _scalar(d)
    if kind == "image_size":
        if pixel_scale is None:
            raise ConfigError("image-size normalizer needs the image size")
        w, h = pixel_scale
        if w != h:
            raise ConfigError(f"image-size normalizer expects square images, got {w}x{h}")
        return float(w)
    if kind == "bbox_geometric_mean":
        if bbox is None:
            raise ConfigError("bbox normalizer needs a ground-truth box")
        box = np.asarray(bbox, dtype=float)
        # two negative sides would give a positive area: test each side
        ok = (box[..., 0] < box[..., 2]) & (box[..., 1] < box[..., 3])
        if not ok.all():
            i = np.flatnonzero(~np.ravel(ok))[0]
            corners = " ".join(f"{v:g}" for v in box.reshape(-1, 4)[i])
            raise ConfigError(f"sample {i} has a degenerate box {corners}; "
                              f"a box needs x0 < x1 and y0 < y1")
        return _scalar(np.sqrt((box[..., 2] - box[..., 0]) * (box[..., 3] - box[..., 1])))
    raise ConfigError(f"unknown normalizer: {kind} (choose from {NORMALIZERS})")


# ---------------------------------------------------------------------------
# Dataset-level evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    normalizer: str
    per_sample: np.ndarray        # last-stage NME per sample
    per_stage: np.ndarray         # mean NME per supervision stage [Y_0..Y_T]
    fr: dict                      # threshold -> failure rate
    auc: dict                     # cutoff -> area

    @property
    def aggregate(self) -> float:
        return float(self.per_sample.mean())


def evaluate(state: DecoderState, dataset, normalizer="image_size",
             eye_indices=(0, 1)) -> EvalResult:
    """Run the model over a dataset and score every supervision stage.

    Headline numbers (per-sample NME, FR, AUC) use the last stage, which is
    what the model reports at inference time.  A non-finite NME at any
    stage is a NumericError naming the first sample that has one: a NaN
    would otherwise count as a success in the failure rate.
    """
    if len(dataset) == 0:
        raise ConfigError("evaluation dataset is empty")
    side = state.config.image_side
    scale = (side, side)
    gt = np.stack([s.landmarks for s in dataset])
    boxes = None
    if normalizer == "bbox_geometric_mean":
        for i, s in enumerate(dataset):
            if s.bbox is None:
                raise ConfigError(f"sample {i} has no bounding box, which the "
                                  f"bbox_geometric_mean normalizer needs")
        boxes = np.stack([s.bbox for s in dataset])
    d = resolve_normalizer(
        normalizer, gt=gt, pixel_scale=scale, bbox=boxes, eye_indices=eye_indices,
    )
    pred = np.stack(state.predict(np.stack([s.image for s in dataset])), axis=1)
    # (samples, stages): summing over axis 0 adds the samples in order
    errs = nme(pred, np.broadcast_to(gt[:, None], pred.shape),
               np.reshape(d, (-1, 1)), scale)
    finite = np.isfinite(errs).all(axis=1)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        stage = np.flatnonzero(~np.isfinite(errs[i]))[0]
        raise NumericError(f"sample {i} has a non-finite NME ({errs[i, stage]}) "
                           f"at stage {stage}")
    per_sample = errs[:, -1]
    per_stage = errs.sum(axis=0) / len(dataset)
    return EvalResult(
        normalizer,
        per_sample,
        per_stage,
        {t: failure_rate(per_sample, t) for t in FR_THRESHOLDS},
        {AUC_CUTOFF: auc(per_sample, AUC_CUTOFF)},
    )


def report_text(result: EvalResult) -> str:
    lines = [
        f"normalizer: {result.normalizer}",
        f"samples:    {result.per_sample.size}",
        f"NME:        {result.aggregate:.6f}",
    ]
    for t in sorted(result.fr):
        lines.append(f"FR@{t:g}:    {result.fr[t]:.6f}")
    for c in sorted(result.auc):
        lines.append(f"AUC@{c:g}:   {result.auc[c]:.6f}")
    lines.append("per-stage NME (initial estimate first):")
    for i, v in enumerate(result.per_stage):
        lines.append(f"  stage {i}:  {v:.6f}")
    return "\n".join(lines) + "\n"


def report_machine(result: EvalResult, config_hash: str) -> str:
    """Delimited metric/value/hash triples, one per line."""
    rows = [("nme", result.aggregate)]
    for t in sorted(result.fr):
        rows.append((f"fr_{t:g}", result.fr[t]))
    for c in sorted(result.auc):
        rows.append((f"auc_{c:g}", result.auc[c]))
    for i, v in enumerate(result.per_stage):
        rows.append((f"nme_stage_{i}", v))
    return "".join(f"{k}\t{v:.12g}\t{config_hash}\n" for k, v in rows)
