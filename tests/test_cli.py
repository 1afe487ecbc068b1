import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import facemark
from facemark.cli import main
from facemark.config import ENV_CONFIG
from facemark.decoder import TINY, DecoderState
from facemark.io import read_landmarks, read_ppm, write_ppm

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


def test_bad_train_schedule_is_a_config_error(tmp_path, capsys):
    for override, key in ((["--set", "train.steps=0", "--set", "train.lr_drop_step=0"],
                           "train.steps"),
                          (["--set", "train.lr_drop_step=-1"], "train.lr_drop_step")):
        rc = main(["train", "--data", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL, *override])
        assert rc == 1
        assert key in capsys.readouterr().err


def test_checkpoint_disagreeing_with_its_meta_is_a_config_error(tmp_path):
    # run the real entry point, so an uncaught exception would show as a
    # traceback on stderr
    image = tmp_path / "face.ppm"
    write_ppm(image, np.zeros((3, 32, 32)))
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(facemark.__file__))}
    env.pop(ENV_CONFIG, None)
    for key, old, new, named in (("parallel", 0, 1, "layers.0.ln_img.b"),
                                 ("dim", 16, 32, "landmark_init.w")):
        ckpt = tmp_path / f"{key}.ckpt"
        DecoderState.init(TINY).save(ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob.replace(f"meta {key} {old}\n".encode(),
                                      f"meta {key} {new}\n".encode()))
        proc = subprocess.run(
            [sys.executable, "-m", "facemark", "predict", "--ckpt", str(ckpt),
             "--image", str(image), "--out", str(tmp_path / "pred")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(ckpt) in proc.stderr and named in proc.stderr


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


def test_params_reports_totals_and_delta(capsys):
    rc = main(["params", "--compare", *TINY_MODEL])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total" in out
    delta = [line for line in out.splitlines() if "delta" in line]
    assert len(delta) == 1
    # parallel adds one norm pair per layer: 2 layers * 2 * dim 16
    assert delta[0].endswith("delta 64")
