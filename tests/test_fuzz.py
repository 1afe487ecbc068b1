"""Seeded byte-mutation fuzzing of the file readers, and every verb of the
command line on bad input.

Each reader case flips, replaces, deletes or truncates a few bytes of a
valid file, mostly inside its text header, and reads the result back.  A
reader may return or raise ConfigError, which names the file; any other
exception is a bug, because the command line would show it as a traceback.
A dataset's file is its manifest, read with the files it lists.

Each verb case runs `cli.main` on valid inputs with one fault: a config
value, a checkpoint or a box file.  The verb must exit 1 or 2 with a
message naming the fault's key or file, raise nothing, warn nothing and
write nothing.
"""

import dataclasses
import shutil
import warnings

import numpy as np
import pytest

from facemark import cli
from facemark.config import ENV_CONFIG
from facemark.decoder import TINY, DecoderState
from facemark.errors import ConfigError
from facemark.io import (load_dataset, read_bbox, read_landmarks, read_ppm, write_bbox,
                         write_dataset, write_landmarks, write_ppm)
from facemark.params import load_checkpoint
from facemark.training import SyntheticFaceSpec, gen_synthetic

from conftest import TINY_SPEC, inverted_box, non_finite_checkpoint, overflow_checkpoint

CASES = 300
# bytes that make a mutated token still look like a number or a separator
TOKEN_BYTES = b"0123456789-+.,eE \n\tnax#\xff"

# smallest model that writes every kind of header line
MICRO = dataclasses.replace(
    TINY, num_landmarks=2, dim=8, points=1, num_layers=1, image_side=16,
    stage_channels=(4, 8),
)


def _mutate(blob, hot, rng):
    """A copy of `blob` with one to three edits, each inside its first `hot`
    bytes with probability 0.9."""
    data = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        if not data:
            break
        span = min(hot, len(data)) if rng.random() < 0.9 else len(data)
        i = int(rng.integers(span))
        op = int(rng.integers(4))
        if op == 0:
            data[i] ^= 1 << int(rng.integers(8))
        elif op == 1:
            data[i] = TOKEN_BYTES[int(rng.integers(len(TOKEN_BYTES)))]
        elif op == 2:
            del data[i]
        else:
            del data[i:]
    return bytes(data)


def _valid_files(tmp_path):
    """{reader name: (reader, path of a valid file, length of its text
    header)}.  The reader takes the file's path."""
    rng = np.random.default_rng(0)
    files = tmp_path / "files"
    files.mkdir()
    ppm = files / "img.ppm"
    write_ppm(ppm, rng.uniform(0, 1, (3, 4, 4)), comment="config abc")
    lmk = files / "img.txt"
    write_landmarks(lmk, rng.uniform(0, 32, (3, 2)))
    box = files / "img.bbox"
    write_bbox(box, (1.5, 2.0, 30.25, 28.0))
    ckpt = files / "model.ckpt"
    DecoderState.init(MICRO, seed=0).save(ckpt, extra_meta={"config_hash": "abc"})
    header = ckpt.read_bytes().index(b"\ndata\n") + 6
    data = tmp_path / "data"
    faces = gen_synthetic(SyntheticFaceSpec(num_landmarks=2, image_side=8), 3, 0)
    write_dataset(data, faces, "abc", 0)
    manifest = data / "manifest.txt"
    return {
        "read_ppm": (read_ppm, ppm, ppm.read_bytes().index(b"255\n") + 4),
        "read_landmarks": (read_landmarks, lmk, lmk.stat().st_size),
        "read_bbox": (read_bbox, box, box.stat().st_size),
        "load_checkpoint": (load_checkpoint, ckpt, header),
        "DecoderState.load": (DecoderState.load, ckpt, header),
        "load_dataset": (lambda m: load_dataset(m.parent), manifest, manifest.stat().st_size),
    }


READERS = ["read_ppm", "read_landmarks", "read_bbox", "load_checkpoint",
           "DecoderState.load", "load_dataset"]


@pytest.mark.parametrize("which", READERS)
def test_mutated_files_raise_only_config_errors(tmp_path, which):
    reader, path, hot = _valid_files(tmp_path)[which]
    blob = path.read_bytes()
    reader(path)  # the unmutated file reads
    rng = np.random.default_rng(READERS.index(which))
    # the mutated copy sits among copies of its neighbours
    target = tmp_path / "mutated" / path.name
    shutil.copytree(path.parent, target.parent)
    rejected = 0
    for case in range(CASES):
        mutated = _mutate(blob, hot, rng)
        target.write_bytes(mutated)
        try:
            reader(target)
        except ConfigError as e:
            assert str(target) in str(e), (case, mutated[:hot], e)
            rejected += 1
        except Exception as e:  # noqa: BLE001 - the point of the test
            pytest.fail(f"case {case}: {type(e).__name__}: {e}\n{mutated[:hot]!r}")
    # the mutations reach the parsers' error paths, not just the payload
    assert rejected > CASES // 4


# each verb's arguments besides the faulty one, on the valid inputs of
# `_verb_inputs`; every output path lies in a directory of its own
VERB_ARGS = {
    "gen-data": ["--out", "{out}/ds"],
    "train": ["--data", "{data}", "--out", "{out}/m.ckpt"],
    "eval": ["--ckpt", "{ckpt}", "--data", "{data}", "--out", "{out}/r"],
    "predict": ["--ckpt", "{ckpt}", "--image", "{image}", "--out", "{out}/p"],
    "gradcheck": ["--out", "{out}/gradcheck.txt"],
    "params": [],
}


def _bad_setting(setting):
    def fault(paths):
        return ["--set", setting], setting.split("=")[0]
    return fault


def _bad_checkpoint(write):
    def fault(paths):
        write(paths["ckpt"])
        return [], str(paths["ckpt"])
    return fault


def _inverted_box(paths):
    inverted_box(paths["data"])
    return ["--set", "eval.normalizer=bbox_geometric_mean"], str(paths["data"])


FAULTS = {
    "tiny_blob_sigma": _bad_setting("data.blob_sigma=1e-300"),
    "huge_blob_sigma": _bad_setting("data.blob_sigma=1e300"),
    "inverting_bbox_enlarge": _bad_setting("data.bbox_enlarge=-5"),
    "nan_head_weight": _bad_checkpoint(
        lambda path: non_finite_checkpoint(path, "layers.0.head.w3", np.nan)),
    "inf_offset_bias": _bad_checkpoint(
        lambda path: non_finite_checkpoint(path, "layers.0.deform.b_off", np.inf)),
    "overflowing_head": _bad_checkpoint(overflow_checkpoint),
    "inverted_box": _inverted_box,
}

VERB_CASES = (
    [(verb, fault) for fault in ("tiny_blob_sigma", "huge_blob_sigma", "inverting_bbox_enlarge")
     for verb in ("gen-data", "train", "eval", "gradcheck", "params")]
    + [(verb, fault) for fault in ("nan_head_weight", "inf_offset_bias", "overflowing_head")
       for verb in ("predict", "eval")]
    + [("eval", "inverted_box")]
)


def _verb_inputs(tmp_path):
    """Valid inputs for every verb: a TINY dataset, checkpoint and image."""
    paths = {"data": tmp_path / "ds", "ckpt": tmp_path / "m.ckpt",
             "image": tmp_path / "face.ppm", "out": tmp_path / "out"}
    faces = gen_synthetic(TINY_SPEC, 2, 7)
    write_dataset(paths["data"], faces, "abc", 7)
    DecoderState.init(TINY).save(paths["ckpt"])
    write_ppm(paths["image"], faces[0].image)
    paths["out"].mkdir()
    return paths


@pytest.mark.parametrize("verb, fault", VERB_CASES, ids=[f"{v}-{f}" for v, f in VERB_CASES])
def test_every_verb_on_bad_input_names_the_fault(tmp_path, capsys, monkeypatch, verb, fault):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    paths = _verb_inputs(tmp_path)
    extra, named = FAULTS[fault](paths)
    args = [a.format(**paths) for a in VERB_ARGS[verb]]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([verb, *args, *extra])
    err = capsys.readouterr().err
    assert rc in (1, 2), err
    assert named in err
    assert "Traceback" not in err and "Warning" not in err
    assert sorted(tmp_path.rglob("*")) == before
