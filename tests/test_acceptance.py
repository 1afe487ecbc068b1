"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``ACCEPTANCE #k`` verdict line (run with ``-s``
to see them live; pytest shows them for failing tests regardless).  The
slow criteria share one overfit training run via a module fixture.  Every
test here carries the ``acceptance`` marker, so ``pytest -m "not
acceptance"`` runs the rest of the suite in seconds.
"""

import dataclasses
import filecmp
import multiprocessing
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from facemark.cli import main
from facemark.config import ENV_CONFIG
from facemark.decoder import TINY, DecoderState, ModelConfig, init_params
from facemark.geometry import DENSE_PIXELS
from facemark.metrics import auc, evaluate, failure_rate, nme, resolve_normalizer
from facemark.params import count_parameters
from facemark.training import (
    AugmentConfig,
    SyntheticFaceSpec,
    TrainConfig,
    gen_synthetic,
    grad_check,
    self_train,
    train,
)

from conftest import TINY_SPEC, jitter_params
from test_attention import DENSE_CHOICES, _core_read, _random_instance, _scalar_deform
from test_metrics import _auc_ref, _fr_ref, _nme_ref

pytestmark = pytest.mark.acceptance

OVERFIT_RECIPE = TrainConfig(
    lr=1e-3, steps=2000, lr_drop_step=1600, batch_size=8, seed=0
)
# #8 measures generalisation, while #2's recipe is built to memorise.
ABLATION_RECIPE = dataclasses.replace(
    OVERFIT_RECIPE, augment=AugmentConfig(translate=True)
)


def _verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE #{num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


@pytest.fixture(scope="module")
def overfit_run():
    faces = gen_synthetic(TINY_SPEC, 8, 7)
    t0 = time.time()
    state, _ = train(DecoderState.init(TINY, seed=0), faces, OVERFIT_RECIPE)
    elapsed = time.time() - t0
    result = evaluate(state, faces, normalizer="image_size")
    return state, faces, result, elapsed


def test_01_gradients_match_finite_differences(tiny_batch):
    t0 = time.time()
    reports = {}
    for label, cfg in (("basic", TINY),
                       ("parallel", dataclasses.replace(TINY, parallel=True))):
        state = jitter_params(DecoderState.init(cfg, seed=0))
        reports[label] = grad_check(state, tiny_batch, threshold=1e-4)
    elapsed = time.time() - t0
    ok = all(r.ok for r in reports.values()) and elapsed < 120.0
    detail = ", ".join(
        f"{label}: {len(r.entries)} paths, worst rel {r.worst.max_rel:.2e}"
        for label, r in reports.items()
    )
    assert _verdict(1, "gradient integrity", ok, f"{detail}, {elapsed:.1f}s")


def test_01_gathered_read_gradients_match_finite_differences():
    # TINY's basic read is dense on both levels at 32 px; at 128 px its
    # 32 x 32 level is gathered and its 16 x 16 level dense
    cfg = dataclasses.replace(TINY, image_side=128)
    assert [h * w > DENSE_PIXELS for h, w in cfg.layout.levels] == [True, False]
    batch = gen_synthetic(dataclasses.replace(TINY_SPEC, image_side=128), 2, 7)
    report = grad_check(jitter_params(DecoderState.init(cfg, seed=0)), batch, threshold=1e-4)
    assert report.ok, f"{len(report.entries)} paths, worst rel {report.worst.max_rel:.2e}"


def test_02_overfits_eight_faces(overfit_run):
    _, _, result, elapsed = overfit_run
    final = result.per_stage[-1]
    ok = final < 0.01 and elapsed < 600.0
    assert _verdict(
        2, "overfit capacity", ok,
        f"final-stage NME {final:.5f} on the training set, {elapsed:.0f}s"
    )


def test_03_cascade_refines_the_initial_estimate(overfit_run):
    _, _, result, _ = overfit_run
    stages = result.per_stage
    ok = stages[-1] < stages[0]
    detail = "per-stage NME " + " -> ".join(f"{v:.5f}" for v in stages)
    assert _verdict(3, "cascade refinement", ok, detail)


def test_04_zero_initialized_heads_are_an_identity_cascade(tiny_batch):
    rng = np.random.default_rng(0)
    inputs = [s.image for s in tiny_batch]
    inputs.append(rng.uniform(0.0, 1.0, (3, 32, 32)))
    flavors = (
        TINY,
        dataclasses.replace(TINY, parallel=True),
        dataclasses.replace(TINY, self_attention=False),
        dataclasses.replace(TINY, learned_query_init=False),
    )
    ok = True
    for cfg in flavors:
        state = DecoderState.init(cfg, seed=4)
        for img in inputs:
            ys = state.predict(img[None])
            ok = ok and all(np.array_equal(y, ys[0]) for y in ys[1:])
    assert _verdict(
        4, "identity at initialization", ok,
        f"{len(flavors)} model flavors x {len(inputs)} inputs, bit-exact"
    )


def test_05_batched_kernel_equals_scalar_reference():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        value_levels, locs, weights = _random_instance(rng)
        slow = _scalar_deform(value_levels, locs, weights)
        # gathered, mixed and dense reads of the same instance
        for dense_pixels in DENSE_CHOICES:
            fast, _ = _core_read(value_levels, locs, weights, dense_pixels)
            worst = max(worst, float(np.abs(fast - slow).max()))
    ok = worst <= 1e-10
    assert _verdict(
        5, "deformable-attention oracle", ok,
        f"50 instances x {len(DENSE_CHOICES)} read strategies, max abs diff {worst:.2e}"
    )


def test_06_parallel_mode_parameter_cost():
    tested = (
        TINY,
        dataclasses.replace(TINY, num_layers=1),
        dataclasses.replace(TINY, dim=32, stage_channels=(8, 32)),
        ModelConfig(),  # C=256, T=3 reporting config
    )
    deltas = []
    ok = True
    for cfg in tested:
        basic = count_parameters({k: v.shape for k, v in init_params(cfg).items()})[1]
        par = count_parameters(
            {k: v.shape for k, v in init_params(dataclasses.replace(cfg, parallel=True)).items()}
        )[1]
        delta = par - basic
        deltas.append(delta)
        # the only image-branch additions are one norm pair per layer
        ok = ok and delta == cfg.num_layers * 2 * cfg.dim
    ok = ok and deltas[-1] == 1536
    assert _verdict(
        6, "parameter parity", ok,
        f"deltas {deltas}; full-scale decoder pays {deltas[-1]} extra"
    )


def test_07_metrics_match_independent_reimplementation():
    gt = np.array([[0.1, 0.1], [0.6, 0.6]])
    pred = gt + np.array([[0.03, 0.04], [0.0, 0.0]])
    hand = (
        abs(nme(pred, gt, 10.0, (100, 100)) - 0.25) < 1e-12
        and abs(failure_rate([0.02, 0.05, 0.12], 0.10) - 1.0 / 3.0) < 1e-12
        and abs(auc([0.035], 0.07) - 0.5) < 1e-12
        and abs(resolve_normalizer(
            "inter_ocular",
            gt=np.array([[0.3, 0.4], [0.6, 0.8]]),
            pixel_scale=(100, 100),
        ) - 50.0) < 1e-12
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        g = rng.uniform(0.1, 0.9, (n, 2))
        p = g + 0.05 * rng.normal(size=(n, 2))
        scale = (int(rng.integers(16, 200)), int(rng.integers(16, 200)))
        d = float(rng.uniform(5.0, 100.0))
        worst = max(worst, abs(nme(p, g, d, scale) - _nme_ref(p, g, d, scale)))
        errs = rng.uniform(0.0, 0.15, int(rng.integers(1, 40)))
        thr = float(rng.uniform(0.01, 0.12))
        cut = float(rng.uniform(0.02, 0.12))
        worst = max(worst, abs(failure_rate(errs, thr) - _fr_ref(errs, thr)))
        worst = max(worst, abs(auc(errs, cut) - _auc_ref(errs, cut)))
    ok = hand and worst <= 1e-12
    assert _verdict(
        7, "metrics oracle", ok,
        f"hand examples exact, 100 instances max diff {worst:.2e}"
    )


def _ablation_run(train_set, held, seed, learned):
    """One #8 training run: NME of held-out stage 0, held-out final and
    training final."""
    cfg = dataclasses.replace(TINY, learned_query_init=learned)
    recipe = dataclasses.replace(ABLATION_RECIPE, seed=seed)
    state, _ = train(DecoderState.init(cfg, seed=seed), train_set, recipe)
    held_eval = evaluate(state, held, normalizer="image_size")
    fit = evaluate(state, train_set, normalizer="image_size").aggregate
    return held_eval.per_stage[0], held_eval.aggregate, fit


def test_08_learned_query_init_direction():
    spec = TINY_SPEC
    train_set = gen_synthetic(spec, 64, 7)
    held = gen_synthetic(spec, 16, 1007)
    # the six runs are independent: two worker processes run them, and the
    # results come back in seed x flavor order
    jobs = [(train_set, held, seed, learned) for seed in (0, 1, 2) for learned in (True, False)]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        results = iter(pool.starmap(_ablation_run, jobs))
    wins = 0
    rows = []
    for seed in (0, 1, 2):
        scores = {"learned": next(results), "embedding": next(results)}
        won = scores["learned"][1] <= scores["embedding"][1]
        wins += won
        cells = "   ".join(
            f"{scores['learned'][i]:.5f} / {scores['embedding'][i]:.5f}"
            for i in range(3)
        )
        rows.append(f"seed {seed}:  {cells}   {'<=' if won else '>'}")
    print("\nNME per seed, learned / embedding query initialization:")
    print(" " * 11 + "".join(
        f"{h:<20}" for h in ("held-out stage 0", "held-out final", "training final")
    ).rstrip())
    for row in rows:
        print("  " + row)
    ok = wins >= 2
    assert _verdict(
        8, "query-init ablation direction", ok, f"learned wins {wins}/3 seeds"
    )


def test_09_self_training_over_a_domain_shift(overfit_run):
    teacher, source_faces, _, _ = overfit_run
    shifted = dataclasses.replace(
        TINY_SPEC, noise_level=0.25, blob_intensity=0.55, blob_sigma=0.07
    )
    pool = [s.image for s in gen_synthetic(shifted, 8, 21)]
    held = gen_synthetic(shifted, 16, 2007)

    def eval_fn(st):
        return evaluate(st, held, normalizer="image_size").aggregate

    recipe = TrainConfig(lr=3e-4, steps=200, lr_drop_step=160, batch_size=8, seed=5)
    state, history = self_train(
        teacher, source_faces, pool, rounds=3, cfg=recipe, eval_fn=eval_fn
    )
    print("\nshifted-domain NME per round (round 0 is the starting teacher):")
    for h in history:
        print(f"  round {h['round']}: NME {h['eval']:.5f}")
    ok = (
        [h["round"] for h in history] == [0, 1, 2, 3]
        and all(np.isfinite(h["eval"]) for h in history)
        and all(np.isfinite(h["loss"]) for h in history[1:])
    )
    assert _verdict(
        9, "self-training pipeline", ok,
        f"3 rounds complete, NME {history[0]['eval']:.5f} -> {history[-1]['eval']:.5f}"
    )


def test_10_cli_outputs_are_byte_identical_on_rerun(tmp_path, capsys):
    tiny = [
        "--set", "model.num_landmarks=5", "--set", "model.dim=16",
        "--set", "model.heads=2", "--set", "model.levels=2",
        "--set", "model.points=2", "--set", "model.num_layers=2",
        "--set", "model.image_side=32", "--set", "model.stage_channels=8,16",
        "--set", "data.blob_sigma=0.05", "--set", "data.count=2",
        "--set", "train.steps=5", "--set", "train.lr_drop_step=0",
    ]
    micro = [
        "--set", "model.num_landmarks=2", "--set", "model.dim=8",
        "--set", "model.heads=2", "--set", "model.levels=2",
        "--set", "model.points=1", "--set", "model.num_layers=1",
        "--set", "model.image_side=16", "--set", "model.stage_channels=4,8",
        "--set", "data.count=1",
    ]
    mismatches = []
    param_outputs = []
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        data = str(root / "ds")
        ckpt = str(root / "model.ckpt")
        assert main(["gen-data", "--out", data, *tiny]) == 0
        assert main(["train", "--data", data, "--out", ckpt, *tiny]) == 0
        assert main(["eval", "--ckpt", ckpt, "--data", data,
                     "--out", str(root / "report"), *tiny]) == 0
        assert main(["predict", "--ckpt", ckpt,
                     "--image", os.path.join(data, "face_00000.ppm"),
                     "--out", str(root / "pred")]) == 0
        assert main(["gradcheck", "--out", str(root / "gc.txt"), *micro]) == 0
        capsys.readouterr()  # gradcheck's status line echoes the run's path
        assert main(["params", "--compare", *tiny]) == 0
        param_outputs.append(capsys.readouterr().out)
    a, b = tmp_path / "a", tmp_path / "b"
    targets = sorted(
        os.path.join(rel, f) if rel else f
        for rel, f in [("", "model.ckpt"), ("", "model.ckpt.log"),
                       ("", "report.txt"), ("", "report.tsv"),
                       ("", "pred.txt"), ("", "pred.ppm"), ("", "gc.txt")]
        + [("ds", f) for f in os.listdir(a / "ds")]
    )
    for rel in targets:
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            mismatches.append(rel)
    if param_outputs[0] != param_outputs[1]:
        mismatches.append("params stdout")
    ok = not mismatches
    assert _verdict(
        10, "deterministic command line", ok,
        f"{len(targets)} artifacts byte-compared"
        + (f"; mismatches: {mismatches}" if mismatches else "")
    )
