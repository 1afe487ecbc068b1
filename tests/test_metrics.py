import math

import numpy as np
import numpy.testing as npt
import pytest

from facemark.errors import ConfigError
from facemark.metrics import (
    AUC_CUTOFF,
    FR_THRESHOLDS,
    auc,
    evaluate,
    failure_rate,
    nme,
    report_machine,
    report_text,
    resolve_normalizer,
)

from conftest import jitter_params


# ---------------------------------------------------------------------------
# hand-checked values
# ---------------------------------------------------------------------------

def test_nme_zero_when_prediction_is_exact():
    gt = np.array([[0.25, 0.5], [0.75, 0.5]])
    assert nme(gt, gt, 10.0, (100, 100)) == 0.0


def test_nme_hand_value():
    # two landmarks, pixel offsets (3,4) and (0,0): distances 5 and 0;
    # mean 2.5, normalizer 10 -> 0.25
    gt = np.array([[0.1, 0.1], [0.6, 0.6]])
    pred = gt + np.array([[0.03, 0.04], [0.0, 0.0]])
    npt.assert_allclose(nme(pred, gt, 10.0, (100, 100)), 0.25, atol=1e-12)


def test_nme_halves_when_normalizer_doubles():
    rng = np.random.default_rng(0)
    gt = rng.uniform(size=(5, 2))
    pred = gt + 0.01 * rng.normal(size=(5, 2))
    a = nme(pred, gt, 10.0, (64, 64))
    b = nme(pred, gt, 20.0, (64, 64))
    npt.assert_allclose(b, a / 2.0, atol=1e-15)


def test_failure_rate_hand_values():
    errs = [0.02, 0.05, 0.12]
    npt.assert_allclose(failure_rate(errs, 0.10), 1.0 / 3.0, atol=1e-15)
    assert failure_rate([0.0, 0.0], 0.10) == 0.0
    assert failure_rate(errs, 0.01) == 1.0


def test_failure_rate_threshold_is_strict():
    assert failure_rate([0.10, 0.10], 0.10) == 0.0


def test_auc_hand_values():
    assert auc([0.0, 0.0], 0.07) == 1.0
    assert auc([0.2, 0.5], 0.07) == 0.0
    npt.assert_allclose(auc([0.035], 0.07), 0.5, atol=1e-15)


def test_resolve_inter_ocular_hand_distance():
    # eye pixels (30,40) and (60,80): hypot(30,40) = 50
    gt = np.array([[0.3, 0.4], [0.6, 0.8], [0.5, 0.5]])
    d = resolve_normalizer("inter_ocular", gt=gt, pixel_scale=(100, 100))
    npt.assert_allclose(d, 50.0, atol=1e-12)


def test_resolve_image_size():
    assert resolve_normalizer("image_size", pixel_scale=(256, 256)) == 256.0


def test_resolve_bbox_geometric_mean():
    d = resolve_normalizer("bbox_geometric_mean", bbox=(10, 20, 110, 84))
    npt.assert_allclose(d, 80.0, atol=1e-12)  # sqrt(100 * 64)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_nme_rejects_bad_arguments():
    gt = np.zeros((3, 2))
    with pytest.raises(ValueError):
        nme(np.zeros((4, 2)), gt, 10.0, (64, 64))
    with pytest.raises(ValueError):
        nme(gt, gt, 0.0, (64, 64))


def test_rate_and_auc_reject_empty_and_nonpositive():
    with pytest.raises(ValueError):
        failure_rate([], 0.1)
    with pytest.raises(ValueError):
        failure_rate([0.1], 0.0)
    with pytest.raises(ValueError):
        auc([], 0.07)
    with pytest.raises(ValueError):
        auc([0.1], -1.0)


def test_resolve_normalizer_errors():
    gt = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        resolve_normalizer("inter_ocular", gt=gt, pixel_scale=(64, 64))
    with pytest.raises(ConfigError):
        resolve_normalizer("inter_ocular", gt=gt, pixel_scale=(64, 64),
                           eye_indices=(0, 5))
    with pytest.raises(ConfigError):
        resolve_normalizer("image_size", pixel_scale=(64, 32))
    with pytest.raises(ValueError):
        resolve_normalizer("bbox_geometric_mean", bbox=(10, 10, 10, 40))
    with pytest.raises(ConfigError):
        resolve_normalizer("mystery")


def test_bbox_normalizer_rejects_an_inverted_box_and_names_the_sample():
    # both sides negative: the product of the sides, 14.6 * 43.4, is positive
    boxes = np.array([[10.0, 20.0, 110.0, 84.0], [34.4, 38.8, -0.4, -4.5]])
    with pytest.raises(ConfigError, match=r"^sample 1 has a degenerate box "
                                          r"34\.4 38\.8 -0\.4 -4\.5"):
        resolve_normalizer("bbox_geometric_mean", bbox=boxes)
    for box in ([0.0, 0.0, -1.0, 5.0], [0.0, 0.0, 5.0, np.nan]):  # one side bad
        with pytest.raises(ConfigError, match="sample 0 has a degenerate box"):
            resolve_normalizer("bbox_geometric_mean", bbox=[box])


# ---------------------------------------------------------------------------
# brute-force reimplementation
# ---------------------------------------------------------------------------

def _nme_ref(pred, gt, d, pixel_scale):
    w, h = pixel_scale
    total = 0.0
    for (px, py), (gx, gy) in zip(pred, gt):
        total += math.hypot((px - gx) * w, (py - gy) * h)
    return total / len(gt) / d


def _fr_ref(errs, thr):
    return sum(1 for e in errs if e > thr) / len(errs)


def _auc_ref(errs, cutoff):
    # walk the sorted staircase and accumulate rectangle strips
    pts = sorted(errs)
    n = len(pts)
    area = 0.0
    prev = 0.0
    below = 0
    for i, p in enumerate(pts):
        if p > cutoff:
            break
        area += (p - prev) * (below / n)
        prev = p
        below = i + 1
    area += (cutoff - prev) * (below / n)
    return area / cutoff


def test_metrics_match_brute_force_on_100_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        gt = rng.uniform(0.1, 0.9, (n, 2))
        pred = gt + 0.05 * rng.normal(size=(n, 2))
        scale = (int(rng.integers(16, 200)), int(rng.integers(16, 200)))
        d = float(rng.uniform(5.0, 100.0))
        assert abs(nme(pred, gt, d, scale) - _nme_ref(pred, gt, d, scale)) <= 1e-12

        m = int(rng.integers(1, 40))
        errs = rng.uniform(0.0, 0.15, m)
        thr = float(rng.uniform(0.01, 0.12))
        assert abs(failure_rate(errs, thr) - _fr_ref(errs, thr)) <= 1e-12
        cut = float(rng.uniform(0.02, 0.12))
        assert abs(auc(errs, cut) - _auc_ref(errs, cut)) <= 1e-12


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_nme_translation_invariant():
    rng = np.random.default_rng(1)
    gt = rng.uniform(0.2, 0.6, (6, 2))
    pred = gt + 0.02 * rng.normal(size=(6, 2))
    shift = np.array([0.1, -0.05])
    a = nme(pred, gt, 33.0, (128, 128))
    b = nme(pred + shift, gt + shift, 33.0, (128, 128))
    npt.assert_allclose(a, b, atol=1e-12)


def test_failure_rate_monotone_in_threshold():
    rng = np.random.default_rng(2)
    errs = rng.uniform(0.0, 0.2, 30)
    rates = [failure_rate(errs, t) for t in np.linspace(0.01, 0.2, 15)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_auc_monotone_in_cutoff():
    rng = np.random.default_rng(3)
    errs = rng.uniform(0.0, 0.2, 30)
    areas = [auc(errs, c) for c in np.linspace(0.01, 0.2, 15)]
    assert all(a <= b for a, b in zip(areas, areas[1:]))
    assert all(0.0 <= a <= 1.0 for a in areas)


def test_default_operating_points():
    assert FR_THRESHOLDS == (0.08, 0.10)
    assert AUC_CUTOFF == 0.07


# ---------------------------------------------------------------------------
# dataset evaluation and reports
# ---------------------------------------------------------------------------

def test_evaluate_structure(tiny_state, tiny_batch):
    state = jitter_params(tiny_state)
    res = evaluate(state, tiny_batch)
    assert res.normalizer == "image_size"
    assert res.per_sample.shape == (len(tiny_batch),)
    assert res.per_stage.shape == (tiny_state.config.num_layers + 1,)
    assert set(res.fr) == set(FR_THRESHOLDS)
    assert set(res.auc) == {AUC_CUTOFF}
    npt.assert_allclose(res.aggregate, res.per_sample.mean(), atol=1e-15)


def test_evaluate_other_normalizers_run(tiny_state, tiny_batch):
    for kind in ("inter_ocular", "bbox_geometric_mean"):
        res = evaluate(tiny_state, tiny_batch, normalizer=kind)
        assert np.isfinite(res.aggregate)


def test_evaluate_rejects_empty(tiny_state):
    with pytest.raises(ConfigError):
        evaluate(tiny_state, [])


def test_report_text_lists_every_metric(tiny_state, tiny_batch):
    res = evaluate(tiny_state, tiny_batch)
    text = report_text(res)
    assert "NME:" in text and "FR@0.08:" in text and "AUC@0.07:" in text
    assert "stage 0" in text


def test_report_machine_is_parseable(tiny_state, tiny_batch):
    res = evaluate(tiny_state, tiny_batch)
    out = report_machine(res, "cafe012345ab")
    rows = [line.split("\t") for line in out.strip().split("\n")]
    keys = [r[0] for r in rows]
    assert "nme" in keys and "fr_0.08" in keys and "auc_0.07" in keys
    for r in rows:
        assert len(r) == 3
        float(r[1])
        assert r[2] == "cafe012345ab"
    by_key = {r[0]: float(r[1]) for r in rows}
    npt.assert_allclose(by_key["nme"], res.aggregate, rtol=1e-10)
