import dataclasses
import os
import re

import pytest

from facemark.config import DEFAULTS, ENV_CONFIG, SCHEMA, config_hash, load_run_config
from facemark.decoder import ModelConfig
from facemark.errors import ConfigError
from facemark.training import AugmentConfig, SyntheticFaceSpec, TrainConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_defaults_build_the_full_scale_model():
    rc = load_run_config()
    assert rc.model.num_landmarks == 68
    assert rc.model.dim == 256
    assert rc.model.num_layers == 3
    assert rc.train.steps == 2000
    assert rc.data_count == 8
    assert rc.eval_normalizer == "image_size"
    assert rc.face_spec.num_landmarks == rc.model.num_landmarks
    assert rc.face_spec.image_side == rc.model.image_side
    assert len(rc.hash) == 12


def test_file_values_override_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nnum_landmarks = 5\ndim = 16\nheads = 2\nlevels = 2\n"
        "points = 2\nnum_layers = 2\nimage_side = 32\nstage_channels = 8,16\n"
        "[train]\nlr = 0.001\n"
    )
    rc = load_run_config(str(cfg))
    assert rc.model.num_landmarks == 5
    assert rc.model.stage_channels == (8, 16)
    assert rc.train.lr == 0.001
    # untouched keys keep their defaults
    assert rc.train.batch_size == 8


def test_set_overrides_beat_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nlr = 0.001\n")
    rc = load_run_config(str(cfg), overrides=("train.lr=0.5", "data.count=3"))
    assert rc.train.lr == 0.5
    assert rc.data_count == 3


def test_augment_keys_reach_train_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\ntranslate = yes\nmax_shift = 2\nblur = on\n")
    rc = load_run_config(str(cfg))
    assert rc.train.augment.translate
    assert rc.train.augment.max_shift == 2
    assert rc.train.augment.blur
    assert not rc.train.augment.flip


def test_unknown_key_lists_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="lr"):
        load_run_config(str(cfg))


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[serving]\nport = 80\n")
    with pytest.raises(ConfigError, match="valid sections"):
        load_run_config(str(cfg))


def test_bad_value_and_bad_override_shape():
    for bad in ("model.dim=huge", "train.lr=nan", "data.blob_sigma=-inf",
                "model.stage_channels=", "model.parallel=2"):
        with pytest.raises(ConfigError, match=f"bad value for {bad.split('=')[0]}"):
            load_run_config(overrides=(bad,))
    with pytest.raises(ConfigError, match="section.key=value"):
        load_run_config(overrides=("dim=16",))


@pytest.mark.parametrize("override, key", [
    ("data.blob_sigma=0", "data.blob_sigma"),
    ("data.blob_sigma=1e-300", "data.blob_sigma"),  # 2 sigma^2 is zero
    ("data.blob_sigma=1e300", "data.blob_sigma"),  # 2 sigma^2 overflows
    # a blob narrower than a quarter pixel (noise only), one wider than the
    # image (all white)
    ("data.blob_sigma=0.0009", "data.blob_sigma = 0.0009 cannot be drawn at image side 256"),
    ("data.blob_sigma=1.5", "data.blob_sigma = 1.5 cannot be drawn at image side 256"),
    ("data.noise_level=-3", "data.noise_level"),
    ("data.bbox_enlarge=-5", "data.bbox_enlarge"),
    ("data.bbox_enlarge=-1", "data.bbox_enlarge"),
])
def test_face_spec_values_checked_at_load(override, key):
    with pytest.raises(ConfigError, match=key):
        load_run_config(overrides=(override,))


@pytest.mark.parametrize("override, message", [
    ("train.batch_size=0", "train.batch_size must be >= 1, got 0"),
    ("train.lr_drop_step=5000", "train.lr_drop_step 5000 is past the end of the schedule: "
                                "train.steps is 2000"),
    ("model.points=0", "model.points must be >= 1, got 0"),
    ("model.num_layers=0", "model.num_layers must be >= 1, got 0"),
    ("model.heads=3", "model.dim 16 not divisible by heads 3: model.heads must divide model.dim"),
    ("model.stage_channels=8", "model.stage_channels has 1 entries but model.levels is 2"),
    ("model.seed=-1", "model.seed must be >= 0, got -1"),
    ("train.seed=-1", "train.seed must be >= 0, got -1"),
    ("data.seed=-1", "data.seed must be >= 0, got -1"),
    ("data.count=0", "data.count must be >= 1, got 0"),
])
def test_model_and_train_values_checked_at_load_name_their_key(override, message):
    tiny = os.path.join(REPO, "configs", "tiny.cfg")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(tiny, overrides=(override,))


def test_a_checkpoints_config_error_names_the_file_and_the_key(tmp_path):
    from facemark.decoder import TINY, DecoderState

    path = tmp_path / "model.ckpt"
    DecoderState.init(TINY).save(path)
    blob = path.read_bytes()
    assert b"meta points 2\n" in blob
    path.write_bytes(blob.replace(b"meta points 2\n", b"meta points 0\n"))
    with pytest.raises(ConfigError) as err:
        DecoderState.load(path)
    assert str(err.value) == f"{path}: model.points must be >= 1, got 0"


def test_flip_without_table_rejected_at_load():
    with pytest.raises(ConfigError, match="train.flip_table"):
        load_run_config(overrides=("train.flip=true",))


def test_flip_table_not_a_permutation_rejected_at_load():
    base = ("model.num_landmarks=5", "train.flip=true")
    for table in ("0,0,1,2,3", "1,0,2", "1,0,2,3,4,5"):
        with pytest.raises(ConfigError, match="train.flip_table"):
            load_run_config(overrides=base + (f"train.flip_table={table}",))
    rc = load_run_config(overrides=base + ("train.flip_table=1,0,2,4,3",))
    assert rc.train.augment.flip_table == (1, 0, 2, 4, 3)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="config not found"):
        load_run_config(str(tmp_path / "gone.cfg"))


def test_unknown_normalizer_rejected():
    with pytest.raises(ConfigError, match="normalizer"):
        load_run_config(overrides=("eval.normalizer=feet",))


def test_env_var_supplies_the_config(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("[data]\ncount = 4\n")
    monkeypatch.setenv(ENV_CONFIG, str(cfg))
    assert load_run_config().data_count == 4
    # an explicit path still wins over the environment
    other = tmp_path / "other.cfg"
    other.write_text("[data]\ncount = 6\n")
    assert load_run_config(str(other)).data_count == 6


def test_hash_tracks_content_not_origin(tmp_path):
    base = load_run_config()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\ncount = 8\n")  # same value as the default
    assert load_run_config(str(cfg)).hash == base.hash
    changed = load_run_config(overrides=("data.count=9",))
    assert changed.hash != base.hash
    assert config_hash(changed.values) == changed.hash


def test_repo_configs_parse():
    tiny = load_run_config(os.path.join(REPO, "configs", "tiny.cfg"))
    assert tiny.model.dim == 16
    big = load_run_config(os.path.join(REPO, "configs", "default.cfg"))
    assert big.model.dim == 256


def test_hashes_are_pinned():
    # artifacts and checkpoints carry these; a change here breaks comparisons
    # with every earlier run
    def cfg(name):
        return os.path.join(REPO, "configs", name)

    assert load_run_config().hash == "2b93d6c108a3"
    assert load_run_config(cfg("tiny.cfg")).hash == "1ef0982f9df7"
    assert load_run_config(cfg("default.cfg")).hash == "9becb85db7d8"
    parallel_64 = ("model.parallel=true", "model.image_side=64", "train.batch_size=4",
                   "train.translate=true", "train.rotate=true", "train.occlude=true",
                   "train.blur=true")
    assert load_run_config(cfg("default.cfg"), parallel_64).hash == "dfe4ce4c82ca"


def test_keys_and_defaults_derive_from_the_dataclasses():
    assert set(SCHEMA["model"]) == {f.name for f in dataclasses.fields(ModelConfig)} | {"seed"}
    assert {(s, k) for s in SCHEMA for k in SCHEMA[s]} == set(DEFAULTS)
    assert len(DEFAULTS) == 39
    sections = {ModelConfig: "model", TrainConfig: "train", AugmentConfig: "train",
                SyntheticFaceSpec: "data"}
    for cls, section in sections.items():
        for f in dataclasses.fields(cls):
            if (section, f.name) in DEFAULTS:
                assert DEFAULTS[(section, f.name)] == f.default, f.name
    assert [f.name for f in dataclasses.fields(SyntheticFaceSpec)
            if ("data", f.name) not in DEFAULTS] == ["num_landmarks", "image_side"]


def _readme_tables():
    """(section, key) -> default text from the README's configuration tables."""
    with open(os.path.join(REPO, "README.md")) as fh:
        text = fh.read()
    text = text[text.index("## Configuration"):]
    text = text[:text.index("\n## ", 1)]
    listed = {}
    for section, body in re.findall(r"### `\[(\w+)\]`\n(.*?)(?=\n###|\Z)", text, re.S):
        for key, default in re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \|", body, re.M):
            listed[(section, key)] = default.strip()
    return listed


def test_readme_tables_match_the_schema():
    listed = _readme_tables()
    assert set(listed) == set(DEFAULTS)
    for (section, key), text in listed.items():
        value = None if text == "(none)" else SCHEMA[section][key](text)
        assert value == DEFAULTS[(section, key)], f"{section}.{key}"
