"""Run configuration: an INI file with [model], [train], [data] and [eval]
sections, plus command-line overrides and a content hash stamped into
every output artifact.

A key is declared once, as a field of a config dataclass: its name, type
annotation and default.  The schema, the defaults, the builder and the
hashed text are derived from those fields at import, and the field's type
picks its parser (`params.field_parsers`).  Unknown sections or keys are
rejected with the valid choices listed, so a typo fails loudly instead of
silently using a default.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import os
from dataclasses import dataclass

from .decoder import ModelConfig
from .errors import ConfigError
from .metrics import NORMALIZERS
from .params import field_parsers, field_text
from .training import AugmentConfig, SyntheticFaceSpec, TrainConfig

ENV_CONFIG = "FACEMARK_CONFIG"


@dataclass(frozen=True)
class _ModelKeys:
    """[model] keys that ModelConfig does not hold."""

    seed: int = 0  # parameter init seed


@dataclass(frozen=True)
class _DataKeys:
    """[data] keys that SyntheticFaceSpec does not hold."""

    count: int = 8
    seed: int = 7

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("data.count must be >= 1")


@dataclass(frozen=True)
class _EvalKeys:
    normalizer: str = "image_size"
    left_eye: int = 0
    right_eye: int = 1

    def __post_init__(self):
        if self.normalizer not in NORMALIZERS:
            raise ConfigError(f"unknown normalizer {self.normalizer!r}; "
                              f"choose from {', '.join(NORMALIZERS)}")


# Section -> the dataclasses whose fields are its keys.  A field that holds
# a dataclass (TrainConfig.augment) has no parser and is no key; the
# fields of its dataclass are.
_SECTIONS = {
    "model": (ModelConfig, _ModelKeys),
    "train": (TrainConfig, AugmentConfig),
    "data": (_DataKeys, SyntheticFaceSpec),
    "eval": (_EvalKeys,),
}
# Fields filled from [model]: faces are drawn at the model's size.
_INHERITED = {SyntheticFaceSpec: ("num_landmarks", "image_side")}

_SECTION_OF = {cls: s for s, classes in _SECTIONS.items() for cls in classes}
# dataclass -> {key: parser} over the fields that are keys
_KEYS = {
    cls: {k: p for k, p in field_parsers(cls).items() if k not in _INHERITED.get(cls, ())}
    for cls in _SECTION_OF
}
SCHEMA = {s: {k: p for c in classes for k, p in _KEYS[c].items()}
          for s, classes in _SECTIONS.items()}
DEFAULTS = {(s, f.name): f.default for s, classes in _SECTIONS.items()
            for c in classes for f in dataclasses.fields(c) if f.name in _KEYS[c]}
_HASH_ORDER = sorted(DEFAULTS)


@dataclass
class RunConfig:
    model: ModelConfig
    model_seed: int
    train: TrainConfig
    data_count: int
    data_seed: int
    face_spec: SyntheticFaceSpec
    eval_normalizer: str
    eye_indices: tuple[int, int]
    values: dict  # effective (section, key) -> value map
    hash: str


def config_hash(values: dict) -> str:
    canon = "".join(f"{s}.{k} = {field_text(values[(s, k)])}\n" for s, k in _HASH_ORDER)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def model_hash(rc: RunConfig, model: ModelConfig) -> str:
    """The hash of `rc` with its [model] keys that ModelConfig holds taken
    from `model`."""
    values = {**rc.values, **{("model", k): getattr(model, k) for k in _KEYS[ModelConfig]}}
    return config_hash(values)


def load_run_config(path: str | None = None, overrides=()) -> RunConfig:
    """Build the effective configuration from defaults, an optional INI
    file (falling back to $FACEMARK_CONFIG), and --set overrides."""
    values = dict(DEFAULTS)
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config not found: {path}")
        # read here, not by ConfigParser.read, which skips a file it cannot open
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"cannot read config {path}: not UTF-8 text "
                              f"(byte {e.start}: {e.reason})") from None
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            cp.read_string(text, source=path)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse {path}: {e}") from None
        for section in cp.sections():
            if section not in SCHEMA:
                raise ConfigError(
                    f"unknown config section [{section}] in {path}; "
                    f"valid sections: {', '.join(sorted(SCHEMA))}"
                )
            for key, raw in cp.items(section):
                _apply(values, section, key, raw, origin=path)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _apply(values, section.strip(), key.strip(), raw.strip(), origin="--set")
    return _build(values)


def _apply(values, section, key, raw, origin):
    if section not in SCHEMA:
        raise ConfigError(
            f"unknown config section [{section}] ({origin}); "
            f"valid sections: {', '.join(sorted(SCHEMA))}"
        )
    if key not in SCHEMA[section]:
        raise ConfigError(
            f"unknown key {section}.{key} ({origin}); valid keys: "
            f"{', '.join(sorted(SCHEMA[section]))}"
        )
    try:
        values[(section, key)] = SCHEMA[section][key](raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {section}.{key}: {e}") from None


def _make(cls, values, **given):
    """An instance of `cls` from its keys' values plus the given fields."""
    section = _SECTION_OF[cls]
    return cls(**given, **{k: values[(section, k)] for k in _KEYS[cls]})


def _build(values) -> RunConfig:
    model = _make(ModelConfig, values)
    train = _make(TrainConfig, values, augment=_make(AugmentConfig, values))
    if train.augment.flip:
        train.augment.flip_permutation(model.num_landmarks)
    spec = _make(SyntheticFaceSpec, values,
                 num_landmarks=model.num_landmarks, image_side=model.image_side)
    ev = _make(_EvalKeys, values)
    data = _make(_DataKeys, values)
    return RunConfig(
        model=model,
        model_seed=_make(_ModelKeys, values).seed,
        train=train,
        data_count=data.count,
        data_seed=data.seed,
        face_spec=spec,
        eval_normalizer=ev.normalizer,
        eye_indices=(ev.left_eye, ev.right_eye),
        values=values,
        hash=config_hash(values),
    )
