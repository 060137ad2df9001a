"""Experiment configuration: flat dotted-key text files, model/dataset builders.

Config files hold one `section.key = value` pair per line, `#` comments
allowed. `model.layers` lists the architecture in the layer DSL, one
comma-separated string per layer; `layers` defines the DSL, and each kind
reads its own string (`from_spec`) and writes it back (`spec`). The loss
layer is appended from `model.loss`. Every numeric range is validated at
load time, before any compute starts; a float key must also be finite.

`build_layers` looks each string's head up in `layers.DSL_KINDS` and checks
the layer against the shape of the layers before it (by the layer's own
`out_shape`), so a bad architecture fails naming its spec; `model_to_specs`
writes layers back through each kind's `spec()`.

Datasets follow one table, `data.KINDS`, of each kind's reader and keys: the
dataset keys, their checks and `build_dataset`'s one reader call come from it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import layers as L
from .errors import ConfigError, InvalidModelError, ParameterError
from .hspg import TrainConfig
from .model import ModelGraph, infer_shapes

DATASET_KINDS = tuple(D.KINDS)
# a synthetic kind's samples are flat vectors, as wide as the product of these keys
_SAMPLE_WIDTH = {"synthetic-classify": ("features",), "synthetic-glasso": ("groups", "group_size")}


@dataclass
class ExperimentConfig:
    input_shape: tuple
    layer_specs: list[str]
    loss: str = "softmax_ce"
    init: str = "he"
    model_seed: int = 1
    penalize_output: bool = False
    dataset: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    verify_inputs: int = 100
    keep_one: bool = False
    output_dir: str = "out"


def _parse_value(raw: str, key: str, kind):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        value = kind(raw)
        if kind is float and not np.isfinite(value):
            raise ValueError(f"not finite: {raw!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        pairs[key] = value.strip()
    return pairs


def _default(entry):
    """A `data.KINDS` entry's default: the first of a tuple's values, else the entry."""
    return entry[0] if isinstance(entry, tuple) else entry


def _key_type(entry) -> type:
    """The type a dataset key parses to: a required key's entry, else its default's."""
    if entry is D.FILE:
        return str
    return entry if isinstance(entry, type) else type(_default(entry))


# key -> (type, the field it fills): an `ExperimentConfig` field, a `TrainConfig`
# field as "train.<name>", or None for a `dataset` entry named after the key
_KNOWN_KEYS = {
    "model.input_shape": (str, "input_shape"),
    "model.layers": (str, "layer_specs"),
    "model.loss": (str, "loss"),
    "model.init": (str, "init"),
    "model.seed": (int, "model_seed"),
    "model.penalize_output": (bool, "penalize_output"),
    "dataset.kind": (str, None),
    **{f"dataset.{key}": (_key_type(entry), None)
       for _, keys in D.KINDS.values() for key, entry in keys.items()},
    "optimizer.kind": (str, "train.optimizer"),
    "optimizer.alpha0": (float, "train.alpha0"),
    "optimizer.decay": (float, "train.decay"),
    "optimizer.lambda": (float, "train.lam"),
    "optimizer.epsilon": (float, "train.epsilon"),
    "optimizer.np_epochs": (int, "train.np_epochs"),
    "optimizer.batch": (int, "train.batch_size"),
    "optimizer.epochs": (int, "train.epochs"),
    "optimizer.seed": (int, "train.seed"),
    "prune.verify_inputs": (int, "verify_inputs"),
    "prune.keep_one": (bool, "keep_one"),
    "output.dir": (str, "output_dir"),
}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; keys it leaves out take the dataclass defaults."""
    with open(path) as fh:
        pairs = parse_config_text(fh.read())
    unknown = set(pairs) - set(_KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    typed = {key: _parse_value(raw, key, _KNOWN_KEYS[key][0]) for key, raw in pairs.items()}
    for key in ("model.seed", "dataset.seed", "optimizer.seed"):
        check_seed(key, typed.get(key, 0))
    given = {_KNOWN_KEYS[key][1]: value for key, value in typed.items() if _KNOWN_KEYS[key][1]}

    def need(key):
        if key not in typed:
            raise ConfigError(f"missing required key {key}")
        return typed[key]

    shape_raw = str(need("model.input_shape"))
    try:
        input_shape = tuple(int(part) for part in shape_raw.split("x"))
    except ValueError as exc:
        raise ConfigError(f"model.input_shape: {exc}") from exc
    if any(s < 1 for s in input_shape) or len(input_shape) not in (1, 3):
        raise ConfigError(
            f"model.input_shape must be F or CxHxW with positive extents, got {shape_raw}"
        )
    given["input_shape"] = input_shape
    given["layer_specs"] = [s.strip() for s in str(need("model.layers")).split(",") if s.strip()]
    # the defaults are valid, so only given values need checking
    if "loss" in given and given["loss"] not in L.LOSS_KINDS:
        raise ConfigError(f"model.loss must be one of {L.LOSS_KINDS}, got {given['loss']!r}")
    if "init" in given:
        L.weight_init(given["init"])

    kind = need("dataset.kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {kind!r}")
    dataset = {k.split(".", 1)[1]: v for k, v in typed.items() if k.startswith("dataset.")}
    _validate_dataset(dataset)

    train_fields = {f[len("train.") :]: given.pop(f) for f in list(given) if f.startswith("train.")}
    try:
        train = TrainConfig(**train_fields)
    except ParameterError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc

    if "verify_inputs" in given and given["verify_inputs"] < 1:
        raise ConfigError(f"prune.verify_inputs must be >= 1, got {given['verify_inputs']}")

    cfg = ExperimentConfig(dataset=dataset, train=train, **given)
    # fail early on an inconsistent architecture; its shapes need no initialized weights
    layers = build_layers(cfg.layer_specs, cfg.input_shape, cfg.loss, "zeros", 0)
    if kind in _SAMPLE_WIDTH:
        width = math.prod(dataset[key] for key in _SAMPLE_WIDTH[kind])
        if cfg.input_shape != (width,):
            raise ConfigError(
                f"{kind} expects model.input_shape = {width} "
                f"({' x '.join(_SAMPLE_WIDTH[kind])}), got {cfg.input_shape}"
            )
    # glasso's groups are flat positions 0 .. groups * group_size - 1: one unit's input weights
    first = next((i for i, layer in enumerate(layers) if layer.units()), None)
    if kind == "synthetic-glasso" and (first is None or len(layers[first].units()) != 1):
        where = "model.layers" if first is None else f"layer {cfg.layer_specs[first]!r}"
        raise ConfigError(f"{where}: synthetic-glasso needs a first weighted layer of one unit")
    return cfg


def check_seed(what: str, seed: int):
    """Seeds feed numpy's generators, which take only non-negative integers."""
    if seed < 0:
        raise ConfigError(f"{what} must be >= 0, got {seed}")


def _validate_dataset(ds: dict):
    kind = ds["kind"]
    keys = D.KINDS[kind][1]
    stray = [f"dataset.{key}" for key in ds if key != "kind" and key not in keys]
    if stray:
        raise ConfigError(f"{kind} datasets read no {', '.join(stray)}")
    minimums = {"samples": 1, "test_samples": 0, "classes": 2, "features": 1, "groups": 1,
                "group_size": 1, "separation": 0, "noise": 0, "coef_scale": 0}
    for key, minimum in minimums.items():
        if key in ds and ds[key] < minimum:
            raise ConfigError(f"dataset.{key} must be >= {minimum}, got {ds[key]}")
    for key, entry in keys.items():
        if (entry is D.FILE or isinstance(entry, type)) and key not in ds:
            raise ConfigError(f"dataset.{key} is required for {kind} datasets")
        if entry is D.FILE and not os.path.exists(ds[key]):
            raise ConfigError(f"dataset.{key}: no such file {ds[key]!r}")
        if isinstance(entry, tuple) and key in ds and ds[key] not in entry:
            raise ConfigError(f"dataset.{key} must be {' or '.join(map(repr, entry))}")
    if kind == "synthetic-glasso" and ds.get("support", keys["support"]) > ds["groups"]:
        raise ConfigError("dataset.support cannot exceed dataset.groups")


# ---------------------------------------------------------------------------
# model building


def build_layers(layer_specs, input_shape, loss: str | None, init: str, seed: int):
    """Materialize a DSL layer list into layer objects with initialized tensors."""
    rng = np.random.default_rng(seed)
    draw = L.weight_init(init)
    layers: list = []
    shape = tuple(input_shape)
    for spec in layer_specs:
        head, *args = spec.split(":")
        if head not in L.DSL_KINDS:
            raise ConfigError(f"unknown layer spec {spec!r}")
        layer = L.DSL_KINDS[head].from_spec(spec, args, shape, rng, draw)
        try:
            (shape,) = infer_shapes([layer], shape)
        except InvalidModelError as exc:  # name the spec, not its index in a one-layer list
            raise ConfigError(f"layer {spec!r}: {exc.__cause__ or exc}") from exc
        layers.append(layer)
    if loss:
        layers.append(L.Loss(loss))
    return layers


def build_model(cfg: ExperimentConfig) -> ModelGraph:
    layers = build_layers(cfg.layer_specs, cfg.input_shape, cfg.loss, cfg.init, cfg.model_seed)
    return ModelGraph(layers, cfg.input_shape)


def model_to_specs(model: ModelGraph) -> list[str]:
    return [s for s in (layer.spec() for layer in model.layers) if s]


def build_dataset(cfg: ExperimentConfig):
    reader, keys = D.KINDS[cfg.dataset["kind"]]
    return reader(*(cfg.dataset.get(key, _default(entry)) for key, entry in keys.items()))
