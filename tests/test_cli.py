import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import facemark
from facemark import cli
from facemark.cli import main
from facemark.config import ENV_CONFIG, load_run_config
from facemark.decoder import TINY, DecoderState
from facemark.io import read_landmarks, read_ppm, write_bbox, write_landmarks, write_ppm

from conftest import inverted_box, non_finite_checkpoint, overflow_checkpoint

TINY_MODEL = [
    "--set", "model.num_landmarks=5",
    "--set", "model.dim=16",
    "--set", "model.heads=2",
    "--set", "model.levels=2",
    "--set", "model.points=2",
    "--set", "model.num_layers=2",
    "--set", "model.image_side=32",
    "--set", "model.stage_channels=8,16",
    "--set", "data.blob_sigma=0.05",
]

# smallest model that still exercises every code path; keeps the
# finite-difference commands quick
MICRO_MODEL = [
    "--set", "model.num_landmarks=2",
    "--set", "model.dim=8",
    "--set", "model.heads=2",
    "--set", "model.levels=2",
    "--set", "model.points=1",
    "--set", "model.num_layers=1",
    "--set", "model.image_side=16",
    "--set", "model.stage_channels=4,8",
    "--set", "data.count=1",
]

SHORT_TRAIN = ["--set", "train.steps=3", "--set", "train.lr_drop_step=0"]

TINY_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "configs", "tiny.cfg")


def _run_facemark(*args):
    """Run the real entry point in a subprocess, so an uncaught exception
    shows as a traceback on stderr."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(facemark.__file__))}
    env.pop(ENV_CONFIG, None)
    return subprocess.run([sys.executable, "-m", "facemark", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


def test_full_pipeline(tmp_path, capsys):
    data = str(tmp_path / "ds")
    ckpt = str(tmp_path / "model.ckpt")

    rc = main(["gen-data", "--out", data, *TINY_MODEL, "--set", "data.count=2"])
    assert rc == 0
    assert (tmp_path / "ds" / "manifest.txt").exists()
    assert "wrote 2 samples" in capsys.readouterr().out

    rc = main(["train", "--data", data, "--out", ckpt,
               *TINY_MODEL, "--set", "data.count=2", *SHORT_TRAIN])
    assert rc == 0
    assert (tmp_path / "model.ckpt").exists()
    log = (tmp_path / "model.ckpt.log").read_text().splitlines()
    assert log[0].startswith("# config ")
    assert len(log) == 1 + 3  # hash line plus one row per step
    step, loss = log[1].split("\t")
    assert step == "1" and float(loss) > 0

    rc = main(["eval", "--ckpt", ckpt, "--data", data,
               "--out", str(tmp_path / "report"), *TINY_MODEL])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NME:" in out
    report = (tmp_path / "report.txt").read_text()
    assert report.startswith("config ")
    tsv = (tmp_path / "report.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 3 for line in tsv)

    image = str(tmp_path / "ds" / "face_00000.ppm")
    gt = str(tmp_path / "ds" / "face_00000.txt")
    rc = main(["predict", "--ckpt", ckpt, "--image", image,
               "--out", str(tmp_path / "pred"), "--gt", gt])
    assert rc == 0
    pts = read_landmarks(tmp_path / "pred.txt")
    assert pts.shape == (5, 2)
    assert (pts >= 0).all() and (pts <= 32).all()
    overlay = read_ppm(tmp_path / "pred.ppm")
    assert overlay.shape == (3, 32, 32)

    # re-running prediction reproduces the artifacts byte for byte
    first_txt = (tmp_path / "pred.txt").read_bytes()
    first_ppm = (tmp_path / "pred.ppm").read_bytes()
    main(["predict", "--ckpt", ckpt, "--image", image,
          "--out", str(tmp_path / "pred"), "--gt", gt])
    assert (tmp_path / "pred.txt").read_bytes() == first_txt
    assert (tmp_path / "pred.ppm").read_bytes() == first_ppm


def test_missing_dataset_is_a_config_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL, *SHORT_TRAIN])
    assert rc == 1
    assert "dataset not found" in capsys.readouterr().err


def test_landmark_count_mismatch_rejected(tmp_path, capsys):
    data = str(tmp_path / "ds")
    main(["gen-data", "--out", data, *TINY_MODEL, "--set", "data.count=1"])
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", str(tmp_path / "m.ckpt"),
               *TINY_MODEL, *SHORT_TRAIN, "--set", "model.num_landmarks=7"])
    assert rc == 1
    assert "landmarks" in capsys.readouterr().err


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


def test_train_into_a_missing_directory_fails_before_training(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "ds")
    main(["gen-data", "--out", data, *TINY_MODEL, "--set", "data.count=1"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "missing" / "m.ckpt"
    rc = main(["train", "--data", data, "--out", str(out), *TINY_MODEL, *SHORT_TRAIN])
    assert rc == 1
    assert str(out) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_odd_dim_with_the_parallel_decoder_fails_before_training(tmp_path, capsys, monkeypatch):
    # the config is rejected before the dataset is read or training starts
    data = str(tmp_path / "no-such-ds")
    monkeypatch.setattr(cli, "train", _no_training)
    rc = main(["train", "--data", data, "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL,
               "--set", "model.dim=9", "--set", "model.heads=3",
               "--set", "model.parallel=true"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "dim 9 must be even" in err and data not in err
    assert list(tmp_path.iterdir()) == []


def test_eval_reports_stamp_the_checkpoints_model(tmp_path, capsys):
    # the model scored comes from the checkpoint, so [model] keys that
    # disagree with it change neither report; other keys still do
    data = str(tmp_path / "ds")
    ckpt = str(tmp_path / "m.ckpt")
    main(["gen-data", "--out", data, *TINY_MODEL, "--set", "data.count=2"])
    DecoderState.init(TINY, seed=3).save(ckpt)
    runs = {"as_trained": TINY_MODEL,
            "model_keys": [*TINY_MODEL, "--set", "model.dim=64", "--set", "model.parallel=true"],
            "eval_key": [*TINY_MODEL, "--set", "eval.left_eye=2"]}
    reports = {}
    for name, sets in runs.items():
        prefix = str(tmp_path / name)
        assert main(["eval", "--ckpt", ckpt, "--data", data, "--out", prefix, *sets]) == 0
        reports[name] = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("txt", "tsv")]
    capsys.readouterr()
    assert reports["model_keys"] == reports["as_trained"]
    # the normalizer is image_size, so only the stamp differs
    assert reports["eval_key"][0].splitlines()[1:] == reports["as_trained"][0].splitlines()[1:]
    assert reports["eval_key"][0].splitlines()[0] != reports["as_trained"][0].splitlines()[0]


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_image_side_mismatch_names_the_dataset(tmp_path, capsys, monkeypatch, verb):
    # 64 px faces for a 32 px model
    data = str(tmp_path / "ds")
    main(["gen-data", "--out", data, *TINY_MODEL, "--set", "data.count=1",
          "--set", "model.image_side=64"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "train", _no_training)
    ckpt = str(tmp_path / "m.ckpt")
    if verb == "train":
        rc = main(["train", "--data", data, "--out", ckpt, *TINY_MODEL, *SHORT_TRAIN])
    else:
        DecoderState.init(TINY).save(ckpt)
        rc = main(["eval", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "r"),
                   *TINY_MODEL])
    assert rc == 1
    err = capsys.readouterr().err
    assert data in err and "64x64" in err and "32x32" in err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_a_later_sample_with_another_landmark_count_names_the_sample(tmp_path, verb):
    # face_00003.txt lists 4 of the model's 5 points; only the first sample
    # was once checked, and stacking the batch then failed naming no file
    data = tmp_path / "ds"
    main(["gen-data", "--out", str(data), *TINY_MODEL, "--set", "data.count=5"])
    short = data / "face_00003.txt"
    write_landmarks(short, read_landmarks(short)[:4])
    ckpt = str(tmp_path / "m.ckpt")
    if verb == "train":
        args = ["train", "--data", str(data), "--out", ckpt, *TINY_MODEL, *SHORT_TRAIN]
    else:
        DecoderState.init(TINY).save(ckpt)
        args = ["eval", "--ckpt", ckpt, "--data", str(data), "--out", str(tmp_path / "r"),
                *TINY_MODEL]
    proc = _run_facemark(*args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"{data}: sample 3 has 4 landmarks" in proc.stderr
    assert not os.path.exists(ckpt + ".log") and not (tmp_path / "r.txt").exists()


def _no_box(data):
    (data / "face_00001.bbox").unlink()


def _flat_box(data):
    write_bbox(data / "face_00001.bbox", (10.0, 12.0, 10.0, 30.0))


def _shared_eyes(data):
    pts = read_landmarks(data / "face_00001.txt")
    pts[1] = pts[0]
    write_landmarks(data / "face_00001.txt", pts)


@pytest.mark.parametrize("normalizer, edit, extra, named", [
    ("bbox_geometric_mean", _no_box, [], "sample 1 has no bounding box"),
    ("bbox_geometric_mean", _flat_box, [], "sample 1 has a degenerate box 10 12 10 30"),
    ("bbox_geometric_mean", inverted_box, [],
     "sample 1 has a degenerate box 34.4091 38.8364 -0.404867 -4.54839"),
    ("inter_ocular", _shared_eyes, [], "sample 1 has eye landmarks 0 and 1 at one point"),
    ("inter_ocular", None, ["--set", "eval.left_eye=5"], "eval.left_eye 5 is out of range"),
    ("inter_ocular", None, ["--set", "eval.right_eye=-1"], "eval.right_eye -1 is out of range"),
], ids=["no_box", "degenerate_box", "inverted_box", "coinciding_eyes", "left_eye",
        "right_eye"])
def test_eval_normalizer_errors_name_the_dataset_and_the_fault(
        tmp_path, capsys, normalizer, edit, extra, named):
    data = tmp_path / "ds"
    main(["gen-data", "--out", str(data), *TINY_MODEL, "--set", "data.count=3"])
    if edit is not None:
        edit(data)
    ckpt = str(tmp_path / "m.ckpt")
    DecoderState.init(TINY).save(ckpt)
    capsys.readouterr()
    rc = main(["eval", "--ckpt", ckpt, "--data", str(data), "--out", str(tmp_path / "r"),
               *TINY_MODEL, "--set", f"eval.normalizer={normalizer}", *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line
    assert f"{data}: {named}" in err
    assert not (tmp_path / "r.txt").exists()


def test_gen_data_rejects_a_box_enlargement_that_inverts_boxes(tmp_path):
    data = tmp_path / "ds"
    proc = _run_facemark("gen-data", "--out", str(data), *TINY_MODEL,
                         "--set", "data.bbox_enlarge=-5")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "data.bbox_enlarge must be > -1, got -5.0" in proc.stderr
    assert not data.exists()


@pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
def test_gen_data_rejects_a_blob_sigma_it_cannot_draw(tmp_path, sigma):
    # once: numpy's divide-by-zero warning and images of noise only, or
    # all-white images, both with exit 0
    data = tmp_path / "ds"
    proc = _run_facemark("gen-data", "--out", str(data), *TINY_MODEL,
                         "--set", f"data.blob_sigma={sigma}")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "data.blob_sigma" in proc.stderr
    assert not data.exists()


@pytest.mark.parametrize("name, value", [("layers.0.deform.b_off", np.inf),
                                         ("layers.0.head.w3", np.nan)],
                         ids=["inf_offset_bias", "nan_head_weight"])
@pytest.mark.parametrize("verb", ["predict", "eval"])
def test_a_non_finite_checkpoint_payload_is_a_config_error(tmp_path, verb, name, value):
    # both once ran on: the inf to exit 0 with a report, the NaN to a
    # NumericError naming no parameter, each after numpy's warnings
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
    non_finite_checkpoint(ckpt, name, value)
    if verb == "predict":
        image = tmp_path / "face.ppm"
        write_ppm(image, np.full((3, 32, 32), 0.5))
        args, artifacts = ["--image", str(image)], (".txt", ".ppm")
    else:
        data = tmp_path / "ds"
        main(["gen-data", "--out", str(data), *TINY_MODEL, "--set", "data.count=2"])
        args, artifacts = ["--data", str(data), *TINY_MODEL], (".txt", ".tsv")
    proc = _run_facemark(verb, "--ckpt", str(ckpt), *args, "--out", str(out))
    assert proc.returncode == 1
    assert f"{ckpt}: parameter {name} holds a non-finite value" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not any(os.path.exists(f"{out}{ext}") for ext in artifacts)


def test_eval_of_a_non_finite_prediction_is_a_numeric_error(tmp_path):
    # a NaN NME once counted as a success in the failure rate: exit 0 with
    # "NME: nan" and "FR@0.1: 0.000000"
    data = tmp_path / "ds"
    main(["gen-data", "--out", str(data), *TINY_MODEL, "--set", "data.count=3"])
    ckpt = tmp_path / "m.ckpt"
    overflow_checkpoint(ckpt)
    prefix = tmp_path / "r"
    proc = _run_facemark("eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--out", str(prefix), *TINY_MODEL)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert f"error: {ckpt} on {data}: sample 0 has a non-finite NME (nan) at stage 1" \
        in proc.stderr
    assert not os.path.exists(f"{prefix}.txt") and not os.path.exists(f"{prefix}.tsv")


def test_predict_of_a_non_finite_point_writes_nothing(tmp_path):
    # the .txt of NaN coordinates was once written before the overlay's
    # integer cast failed naming no file
    image = tmp_path / "face.ppm"
    write_ppm(image, np.full((3, 32, 32), 0.5))
    ckpt = tmp_path / "m.ckpt"
    overflow_checkpoint(ckpt)
    out = tmp_path / "pred"
    proc = _run_facemark("predict", "--ckpt", str(ckpt), "--image", str(image),
                         "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert f"error: {ckpt} on {image}: landmark 0 is predicted at nan" in proc.stderr
    assert not os.path.exists(f"{out}.txt") and not os.path.exists(f"{out}.ppm")


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"[model]\ndim = 16\xff\n"),
], ids=["directory", "not_utf8"])
@pytest.mark.parametrize("via_env", [False, True], ids=["option", "env"])
def test_unreadable_config_is_a_config_error_naming_it(tmp_path, make, via_env):
    # ConfigParser.read skips a file it cannot open, so a directory once
    # gave the defaults and exit 0, and bytes that are not UTF-8 gave a
    # codec message that named no file
    path = tmp_path / "facemark.cfg"
    make(path)
    if via_env:
        proc = subprocess.run(
            [sys.executable, "-m", "facemark", "params"], capture_output=True, text=True,
            env={**os.environ, ENV_CONFIG: str(path),
                 "PYTHONPATH": os.path.dirname(os.path.dirname(facemark.__file__))})
    else:
        proc = _run_facemark("params", "--config", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"cannot read config {path}" in proc.stderr


def test_bad_train_schedule_is_a_config_error(tmp_path, capsys):
    for override, key in ((["--set", "train.steps=0", "--set", "train.lr_drop_step=0"],
                           "train.steps"),
                          (["--set", "train.lr_drop_step=-1"], "train.lr_drop_step")):
        rc = main(["train", "--data", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL, *override])
        assert rc == 1
        assert key in capsys.readouterr().err


def test_checkpoint_disagreeing_with_its_meta_is_a_config_error(tmp_path):
    image = tmp_path / "face.ppm"
    write_ppm(image, np.zeros((3, 32, 32)))
    for key, old, new, named in (("parallel", 0, 1, "layers.0.ln_img.b"),
                                 ("dim", 16, 32, "landmark_init.w")):
        ckpt = tmp_path / f"{key}.ckpt"
        DecoderState.init(TINY).save(ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob.replace(f"meta {key} {old}\n".encode(),
                                      f"meta {key} {new}\n".encode()))
        proc = _run_facemark("predict", "--ckpt", str(ckpt), "--image", str(image),
                             "--out", str(tmp_path / "pred"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(ckpt) in proc.stderr and named in proc.stderr


def test_predict_on_malformed_inputs_names_the_file(tmp_path):
    # a checkpoint header with no params line, and a landmark file whose
    # count line has a trailing space but no count: both once ended in an
    # IndexError traceback
    image = tmp_path / "face.ppm"
    write_ppm(image, np.zeros((3, 32, 32)))
    bad_ckpt = tmp_path / "a.ckpt"
    bad_ckpt.write_bytes(b"facemark-ckpt v1\ndata\n")
    good_ckpt = tmp_path / "good.ckpt"
    DecoderState.init(TINY).save(good_ckpt)
    bad_gt = tmp_path / "gt.txt"
    bad_gt.write_text("version 1\nn_points \n1 2\n")
    for ckpt, extra, named in ((bad_ckpt, [], bad_ckpt),
                               (good_ckpt, ["--gt", str(bad_gt)], bad_gt)):
        proc = _run_facemark("predict", "--ckpt", str(ckpt), "--image", str(image),
                             "--out", str(tmp_path / "pred"), *extra)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(named) in proc.stderr
    assert not (tmp_path / "pred.txt").exists()


def test_predict_rejects_gt_with_another_point_count(tmp_path, capsys):
    image = tmp_path / "face.ppm"
    write_ppm(image, np.zeros((3, 32, 32)))
    ckpt = tmp_path / "m.ckpt"
    DecoderState.init(TINY).save(ckpt)
    gt = tmp_path / "gt.txt"
    write_landmarks(gt, np.full((3, 2), 16.0))  # TINY predicts 5 points
    rc = main(["predict", "--ckpt", str(ckpt), "--image", str(image),
               "--out", str(tmp_path / "pred"), "--gt", str(gt)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(gt) in err and "3 points" in err and "predicts 5" in err
    assert not (tmp_path / "pred.txt").exists()
    assert not (tmp_path / "pred.ppm").exists()


def test_predict_names_an_image_of_another_side(tmp_path, capsys):
    image = tmp_path / "small.ppm"
    write_ppm(image, np.zeros((3, 16, 16)))
    ckpt = tmp_path / "m.ckpt"
    DecoderState.init(TINY).save(ckpt)
    rc = main(["predict", "--ckpt", str(ckpt), "--image", str(image),
               "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(image) in err and "16x16" in err and "32x32" in err
    assert not (tmp_path / "pred.txt").exists()


@pytest.mark.parametrize("override, named", [
    ("model.heads=0", "heads"),
    ("model.dim=0", "dim"),
    ("model.dim=-16", "dim"),
    ("model.stage_channels=8,0", "stage_channels"),
    ("model.stage_channels=", "model.stage_channels"),
])
def test_bad_model_shape_is_a_config_error(override, named):
    proc = _run_facemark("params", "--config", TINY_CFG, "--set", override)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


def test_bad_learning_rate_writes_no_checkpoint(tmp_path, capsys):
    data = str(tmp_path / "ds")
    assert main(["gen-data", "--out", data, "--config", TINY_CFG, "--set", "data.count=1"]) == 0
    ckpt = tmp_path / "m.ckpt"
    for override, key in (("train.lr=nan", "train.lr"),
                          ("train.lr_backbone_scale=-5", "train.lr_backbone_scale")):
        capsys.readouterr()
        rc = main(["train", "--data", data, "--out", str(ckpt), "--config", TINY_CFG,
                   "--set", "train.steps=1", "--set", "train.lr_drop_step=1",
                   "--set", override])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not ckpt.exists()


def test_huge_max_degrees_is_a_config_error(tmp_path):
    data = str(tmp_path / "ds")
    assert main(["gen-data", "--out", data, "--config", TINY_CFG, "--set", "data.count=1"]) == 0
    ckpt = tmp_path / "m.ckpt"
    proc = _run_facemark("train", "--data", data, "--out", str(ckpt), "--config", TINY_CFG,
                         "--set", "train.steps=1", "--set", "train.lr_drop_step=1",
                         "--set", "train.rotate=true", "--set", "train.max_degrees=1e308")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "train.max_degrees" in proc.stderr
    assert not ckpt.exists()


def test_bad_override_is_a_config_error(capsys):
    rc = main(["params", "--set", "model.dim=big"])
    assert rc == 1
    assert "bad value" in capsys.readouterr().err


def test_gradcheck_passes_and_writes_report(tmp_path, capsys):
    out = str(tmp_path / "gc.txt")
    rc = main(["gradcheck", "--out", out, *MICRO_MODEL])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    text = (tmp_path / "gc.txt").read_text()
    assert text.startswith("config ")
    assert "overall: PASS" in text


def test_gradcheck_fault_injection_fails_with_code_2(tmp_path, capsys):
    out = str(tmp_path / "gc.txt")
    rc = main(["gradcheck", "--out", out, "--inject-fault", *MICRO_MODEL])
    assert rc == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "overall: FAIL" in (tmp_path / "gc.txt").read_text()


@pytest.mark.parametrize("scale", ["tiny", "default"])
def test_params_counts_match_the_initialized_parameters(capsys, scale):
    # the counts come from the declared shapes; they are those of the
    # arrays that init draws, for both flavors
    model = TINY_MODEL if scale == "tiny" else []
    for parallel in ("false", "true"):
        rc = main(["params", "--compare", *model, "--set", f"model.parallel={parallel}"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        counts = {}
        for flag in ("false", "true"):
            sets = [*model, "--set", f"model.parallel={flag}"][1::2]  # the --set values
            cfg = load_run_config(None, sets).model
            counts[flag] = {k: v.size for k, v in DecoderState.init(cfg).params.items()}
        own = counts[parallel]
        width = max(len(k) for k in own)
        want = [f"{k:<{width}}  {n}" for k, n in sorted(own.items())]
        want.append(f"{'total':<{width}}  {sum(own.values())}")
        par, basic = sum(counts["true"].values()), sum(counts["false"].values())
        want.append(f"parallel total {par}; basic total {basic}; delta {par - basic}")
        assert lines == want


def test_params_reports_totals_and_delta(capsys):
    rc = main(["params", "--compare", *TINY_MODEL])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total" in out
    delta = [line for line in out.splitlines() if "delta" in line]
    assert len(delta) == 1
    # parallel adds one norm pair per layer: 2 layers * 2 * dim 16
    assert delta[0].endswith("delta 64")
