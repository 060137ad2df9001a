import collections
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import zigprune
import zigprune.cli
import zigprune.data
import zigprune.model
from zigprune.cli import main
from zigprune.config import (
    _KNOWN_KEYS,
    DATASET_KINDS,
    ExperimentConfig,
    build_dataset,
    build_layers,
    build_model,
    load_config,
    model_to_specs,
    parse_config_text,
)
from zigprune.data import write_idx_images, write_idx_labels
from zigprune.errors import ConfigError
from zigprune.layers import Layer
from zigprune.model import ModelGraph
from zigprune.prune import PruneReport
from zigprune.tensor import CHECKPOINT_MAGIC, load_arrays, save_arrays


BASE_CONFIG = """
# toy classification experiment
model.input_shape = 8
model.layers = linear:12, relu, linear:6, relu, linear:3
model.loss = softmax_ce
model.init = he
model.seed = 3

dataset.kind = synthetic-classify
dataset.samples = 120
dataset.test_samples = 60
dataset.classes = 3
dataset.features = 8
dataset.separation = 5.0
dataset.seed = 9

optimizer.kind = hspg
optimizer.alpha0 = 0.1
optimizer.lambda = 0.02
optimizer.epsilon = 0.0
optimizer.np_epochs = 3
optimizer.batch = 32
optimizer.epochs = 10
optimizer.seed = 4

prune.verify_inputs = 50
output.dir = {out}
"""


# overrides that drop BASE_CONFIG's synthetic-classify dataset keys a csv or a
# synthetic-glasso dataset does not read
NOT_CSV = dict.fromkeys(["dataset.samples", "dataset.test_samples", "dataset.classes",
                         "dataset.features", "dataset.separation", "dataset.seed"])
NOT_GLASSO = dict.fromkeys(["dataset.test_samples", "dataset.classes", "dataset.features",
                            "dataset.separation"])


def write_config(tmp_path, text=None, **overrides):
    """BASE_CONFIG (or `text`) with each override's line set; a None value drops the key."""
    text = text if text is not None else BASE_CONFIG.format(out=tmp_path / "out")
    for key, value in overrides.items():
        lines = []
        replaced = False
        for line in text.splitlines():
            if line.strip().startswith(key + " "):
                replaced = True
                if value is not None:
                    lines.append(f"{key} = {value}")
            else:
                lines.append(line)
        if not replaced and value is not None:
            lines.append(f"{key} = {value}")
        text = "\n".join(lines)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_comments_and_pairs(self):
        pairs = parse_config_text("# hi\n a.b = 1 # trailing\n\n c.d = x\n")
        assert pairs == {"a.b": "1", "c.d": "x"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, **{"model.wat": "1"})
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    @pytest.mark.parametrize(
        "key,value,fragment",
        [
            ("optimizer.epsilon", "1.0", "epsilon"),
            ("optimizer.lambda", "-0.5", ">= 0"),
            ("optimizer.alpha0", "0.0", "> 0"),
            ("optimizer.batch", "0", "batch"),
            ("optimizer.kind", "adam", "optimizer"),
            ("dataset.kind", "imagenet", "dataset.kind"),
            ("model.input_shape", "0", "positive"),
            ("model.init", "uniform", "model.init"),
            ("prune.verify_inputs", "0", "verify_inputs"),
        ],
    )
    def test_out_of_range_values_rejected_before_compute(
        self, tmp_path, key, value, fragment
    ):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_missing_dataset_file_rejected_at_load(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path / "out")
        text = text.replace("dataset.kind = synthetic-classify", "dataset.kind = csv")
        path = write_config(
            tmp_path, text=text, **NOT_CSV, **{"dataset.path": str(tmp_path / "no.csv")}
        )
        with pytest.raises(ConfigError, match="no such file"):
            load_config(path)

    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.input_shape == (8,)
        assert cfg.train.optimizer == "hspg"
        assert cfg.train.lam == 0.02
        assert cfg.verify_inputs == 50
        assert cfg.penalize_output is False

    def test_left_out_keys_take_the_dataclass_defaults(self, tmp_path):
        text = "\n".join([
            "model.input_shape = 4", "model.layers = linear:2",
            "dataset.kind = synthetic-classify", "dataset.samples = 10",
            "dataset.classes = 2", "dataset.features = 4",
        ])
        cfg = load_config(write_config(tmp_path, text=text))
        dataset = {"kind": "synthetic-classify", "samples": 10, "classes": 2, "features": 4}
        assert cfg == ExperimentConfig(input_shape=(4,), layer_specs=["linear:2"], dataset=dataset)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"model.loss": "hinge"},
             "model.loss must be one of ('softmax_ce', 'mse'), got 'hinge'"),
            ({"model.loss": "hinge", "dataset.kind": "imagenet"},  # checked in this order
             "model.loss must be one of ('softmax_ce', 'mse'), got 'hinge'"),
            ({"optimizer.decay": "0", "prune.verify_inputs": "0"},
             "optimizer: decay factor must be > 0, got 0.0"),
            ({"prune.verify_inputs": "0"}, "prune.verify_inputs must be >= 1, got 0"),
            ({"model.init": "uniform"},
             "model.init must be he, zeros or normal:SIGMA, got 'uniform'"),
            ({"model.init": "normal:x"},
             "model.init: could not convert string to float: 'x'"),
            ({"model.init": "normal:-1"}, "model.init: normal scale must be >= 0, got -1.0"),
            ({"model.init": "normal:nan"}, "model.init: normal scale must be finite, got nan"),
            ({"model.init": "normal:inf"}, "model.init: normal scale must be finite, got inf"),
            ({"optimizer.alpha0": "nan"}, "optimizer.alpha0: not finite: 'nan'"),
            ({"optimizer.alpha0": "inf"}, "optimizer.alpha0: not finite: 'inf'"),
            ({"optimizer.lambda": "nan"}, "optimizer.lambda: not finite: 'nan'"),
            ({"optimizer.decay": "nan"}, "optimizer.decay: not finite: 'nan'"),
            ({"dataset.separation": "nan"}, "dataset.separation: not finite: 'nan'"),
            ({"dataset.noise": "nan"}, "dataset.noise: not finite: 'nan'"),
            ({"model.penalize_output": "maybe"}, "model.penalize_output: not a boolean: 'maybe'"),
            ({"model.layers": None}, "missing required key model.layers"),
            ({"model.input_shape": "4xa"},
             "model.input_shape: invalid literal for int() with base 10: 'a'"),
            ({"dataset.samples": "0"}, "dataset.samples must be >= 1, got 0"),
            ({**NOT_CSV, "dataset.kind": "csv", "dataset.path": __file__,
              "dataset.target": "label"},
             "dataset.target must be 'class' or 'value'"),
            ({**NOT_GLASSO, "dataset.kind": "synthetic-glasso", "dataset.groups": "2",
              "dataset.group_size": "4", "dataset.support": "3"},
             "dataset.support cannot exceed dataset.groups"),
            ({"dataset.kind": "idx"},  # before the required keys and the minimums
             "idx datasets read no dataset.samples, dataset.test_samples, dataset.classes, "
             "dataset.features, dataset.separation, dataset.seed"),
            ({**NOT_GLASSO, "dataset.kind": "synthetic-glasso", "dataset.groups": "2",
              "dataset.group_size": "4", "dataset.target": "class"},
             "synthetic-glasso datasets read no dataset.target"),
        ],
    )
    def test_messages_and_their_order(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, **overrides))
        assert str(err.value) == message

    @pytest.mark.parametrize("key", [k for k, (kind, _) in _KNOWN_KEYS.items() if kind is float])
    def test_float_keys_must_be_finite(self, tmp_path, key):
        for raw in ("nan", "-nan", "inf", "-Infinity", "1e999"):
            with pytest.raises(ConfigError) as err:
                load_config(write_config(tmp_path, **{key: raw}))
            assert str(err.value) == f"{key}: not finite: {raw!r}"

    def test_penalize_output_key(self, tmp_path):
        from zigprune.config import build_model
        from zigprune.zig import partition_zig

        cfg = load_config(write_config(tmp_path, **{"model.penalize_output": "true"}))
        assert cfg.penalize_output is True
        model = build_model(cfg)
        partition = partition_zig(model, penalize_output=cfg.penalize_output)
        assert all(g.penalized for g in partition.groups)

INVALID_INT = "invalid literal for int() with base 10:"
FLAT, IMAGE = (4,), (2, 6, 6)
# (spec, input sample shape, the exact ConfigError message), one or more per DSL error
BAD_SPECS = [
    ("linear", FLAT, "layer 'linear': expected linear:OUT"),
    ("linear:4:5", FLAT, "layer 'linear:4:5': expected linear:OUT"),
    ("linear:", FLAT, f"layer 'linear:': {INVALID_INT} ''"),
    ("linear:x", FLAT, f"layer 'linear:x': {INVALID_INT} 'x'"),
    ("linear:0", FLAT, "layer 'linear:0': width must be positive"),
    ("linear:-1", FLAT, "layer 'linear:-1': width must be positive"),
    ("convbn:3:3x3", FLAT, "layer 'convbn:3:3x3': needs a CxHxW input, have (4,)"),
    ("residual:3:3x3", FLAT, "layer 'residual:3:3x3': needs a CxHxW input, have (4,)"),
    ("convbn", IMAGE, "layer 'convbn': expected OUT and KHxKW"),
    ("convbn:3", IMAGE, "layer 'convbn:3': expected OUT and KHxKW"),
    ("convbn:3:33", IMAGE, "layer 'convbn:3:33': expected OUT and KHxKW"),
    ("convbn:x:3x3", IMAGE, f"layer 'convbn:x:3x3': {INVALID_INT} 'x'"),
    ("convbn:3:3xq", IMAGE, f"layer 'convbn:3:3xq': {INVALID_INT} 'q'"),
    ("convbn:3:3x3xq", IMAGE, f"layer 'convbn:3:3x3xq': {INVALID_INT} 'q'"),
    ("convbn:0:3x3", IMAGE, "layer 'convbn:0:3x3': extents must be positive"),
    ("convbn:3:3x0", IMAGE, "layer 'convbn:3:3x0': extents must be positive"),
    ("convbn:3:3x3:s0", IMAGE, "layer 'convbn:3:3x3:s0': extents must be positive"),
    ("convbn:3:3x3:q1", IMAGE, "layer 'convbn:3:3x3:q1': unknown option 'q1'"),
    ("residual:3:3x3:p", IMAGE, "layer 'residual:3:3x3:p': unknown option 'p'"),
    ("residual:2:9x9", IMAGE, "layer 'residual:2:9x9': empty conv output for input (2, 6, 6)"),
    ("mha", FLAT, "layer 'mha': expected mha:HxM or mha:m0,m1,..."),
    ("mha:2x3:4", FLAT, "layer 'mha:2x3:4': expected mha:HxM or mha:m0,m1,..."),
    ("mha:", FLAT, f"layer 'mha:': {INVALID_INT} ''"),
    ("mha:2x", FLAT, f"layer 'mha:2x': {INVALID_INT} ''"),
    ("mha:2,", FLAT, f"layer 'mha:2,': {INVALID_INT} ''"),
    ("mha:2x3xq", FLAT, f"layer 'mha:2x3xq': {INVALID_INT} 'q'"),
    ("mha:0x2", FLAT, "layer 'mha:0x2': head widths must be positive"),
    ("mha:2x0", FLAT, "layer 'mha:2x0': head widths must be positive"),
    ("mha:2,0", FLAT, "layer 'mha:2,0': head widths must be positive"),
    ("dense:4", FLAT, "unknown layer spec 'dense:4'"),
]

EVERY_KIND = [
    "convbn:3:3x3:s1:p1:relu",
    "residual:3:3x3:s1:p1:gelu",
    "leaky_relu",
    "mha:2x3",
    "prelu",
    "mha:4,2",
    "relu",
    "linear:4",
]
DRAW_DIGESTS = {
    "he": "1c4716ba5c063bbc86871220356741f3779ee8cf6bc99c9f88d9d84b9189f236",
    "normal:0.5": "6fd1c77aaf7b9f6235c3e481ccba76913e1dabb66d0363989c11c56864f03480",
}


def required_dataset_keys(kind, tmp_path):
    """Values for only the dataset keys a `kind` config must give, and an input shape they fit."""
    if kind == "synthetic-classify":
        return {"samples": 10, "classes": 2, "features": 4}, "4"
    if kind == "synthetic-glasso":
        return {"groups": 3, "group_size": 2, "samples": 12}, "6"
    if kind == "idx":
        write_idx_images(tmp_path / "img.idx", np.arange(36).reshape(4, 3, 3))
        write_idx_labels(tmp_path / "lbl.idx", [0, 1, 0, 1])
        return {"images": str(tmp_path / "img.idx"), "labels": str(tmp_path / "lbl.idx")}, "1x3x3"
    (tmp_path / "d.csv").write_text("0.5,1.5,0\n2.0,-1.0,1\n")
    return {"path": str(tmp_path / "d.csv")}, "2"


def dataset_config(tmp_path, kind, dataset, shape):
    lines = [f"model.input_shape = {shape}", "model.layers = linear:1", f"dataset.kind = {kind}"]
    lines += [f"dataset.{key} = {value}" for key, value in dataset.items()]
    return write_config(tmp_path, text="\n".join(lines))


# each kind's reader, and its arguments when the config gives only the required keys
READER_CALLS = {
    "synthetic-classify": ("generate_blobs",
                           lambda ds: (ds["classes"], ds["features"], ds["samples"], 0, 3.0, 0)),
    "synthetic-glasso": ("generate_group_lasso",
                         lambda ds: (ds["groups"], ds["group_size"], 0, ds["samples"], 0.0, 0, 1.0)),
    "idx": ("load_idx", lambda ds: (ds["images"], ds["labels"])),
    "csv": ("load_csv", lambda ds: (ds["path"], "class")),
}


@pytest.mark.parametrize("kind", DATASET_KINDS)
class TestDatasetKinds:
    def test_each_required_key_is_checked(self, tmp_path, kind):
        dataset, shape = required_dataset_keys(kind, tmp_path)
        load_config(dataset_config(tmp_path, kind, dataset, shape))
        for key in dataset:
            rest = {k: v for k, v in dataset.items() if k != key}
            with pytest.raises(ConfigError, match=rf"^dataset\.{key} is required"):
                load_config(dataset_config(tmp_path, kind, rest, shape))

    def test_left_out_keys_take_the_kind_defaults(self, tmp_path, monkeypatch, kind):
        dataset, shape = required_dataset_keys(kind, tmp_path)
        name, args = READER_CALLS[kind]
        reader = getattr(zigprune.data, name)
        direct = reader(*args(dataset))
        direct = direct[0] if kind == "synthetic-glasso" else direct
        calls = []
        monkeypatch.setattr(zigprune.data, name, lambda *a: calls.append(a) or reader(*a))
        built = build_dataset(load_config(dataset_config(tmp_path, kind, dataset, shape)))
        assert calls == [args(dataset)]  # the reader is looked up at call time
        assert built.task == direct.task
        for field in ("inputs", "targets", "splits"):
            got, want = getattr(built, field), getattr(direct, field)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_dataset_keys_and_their_types():
    types = {"kind": str, "samples": int, "test_samples": int, "classes": int, "features": int,
             "separation": float, "groups": int, "group_size": int, "support": int,
             "noise": float, "coef_scale": float, "seed": int, "images": str, "labels": str,
             "path": str, "target": str}
    found = {k[len("dataset."):]: t for k, (t, _) in _KNOWN_KEYS.items() if k.startswith("dataset.")}
    assert found == types


class TestLayerDsl:
    def test_build_and_format_roundtrip(self):
        specs = [
            "convbn:4:3x3:s1:p1:gelu",
            "residual:5:3x3:s1:p1:leaky_relu",
            "mha:2x3",
            "prelu",
            "linear:4",
        ]
        layers = build_layers(specs, (2, 6, 6), "mse", "normal:0.1", 0)
        m = ModelGraph(layers, (2, 6, 6))
        assert model_to_specs(m) == [
            "convbn:4:3x3:s1:p1:gelu",
            "residual:5:3x3:s1:p1:leaky_relu",
            "mha:3,3",
            "prelu",
            "linear:4",
        ]

    def test_mha_per_head_list(self):
        layers = build_layers(["mha:4,2"], (3,), None, "zeros", 0)
        assert layers[0].head_dims == [4, 2]
        assert layers[0].spec() == "mha:4,2"

    @pytest.mark.parametrize("spec,shape,message", BAD_SPECS, ids=[s for s, _, _ in BAD_SPECS])
    def test_bad_specs(self, spec, shape, message):
        with pytest.raises(ConfigError) as err:
            build_layers([spec], shape, None, "zeros", 0)
        assert str(err.value) == message

    @pytest.mark.parametrize("spec", ["mha:2x3x4", "convbn:3:3x3x3", "relu:5", "gelu:x:y"])
    def test_malformed_spec_is_a_config_error(self, tmp_path, capsys, spec):
        with pytest.raises(ConfigError, match=f"^layer '{spec}': "):
            build_layers([spec], (2, 6, 6), None, "zeros", 0)
        layers = f"{spec}, linear:3"
        cfgp = write_config(tmp_path, **{"model.input_shape": "2x6x6", "model.layers": layers})
        assert main(["partition", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"[config] layer '{spec}': ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("init", ["he", "normal:0.5"])
    def test_draw_order(self, init):
        # every kind draws its weights from the one seeded generator in a fixed
        # order, so a config and seed keep giving the same weights, byte for byte
        layers = build_layers(EVERY_KIND, (2, 5, 5), "softmax_ce", init, 7)
        digest = hashlib.sha256()
        for layer in layers:
            for name, tensor, _ in layer.params():
                digest.update(name.encode())
                digest.update(tensor.data.tobytes())
        assert digest.hexdigest() == DRAW_DIGESTS[init]

    def test_conv_needs_spatial_input(self):
        with pytest.raises(ConfigError, match="CxHxW"):
            build_layers(["convbn:3:3x3"], (4,), None, "zeros", 0)

    def test_empty_conv_output_names_the_spec(self):
        with pytest.raises(ConfigError, match=r"^layer 'residual:2:5x5': empty .*\(2, 4, 4\)$"):
            build_layers(["convbn:2:3x3:p1", "residual:2:5x5"], (1, 4, 4), None, "zeros", 0)

    def test_kind_without_a_dsl_form_is_not_dropped(self):
        class Identity(Layer):
            pass

        m = ModelGraph([Identity()], (3,))
        with pytest.raises(ConfigError, match="Identity has no DSL form"):
            model_to_specs(m)


REPORT_LACKS = ("prune report summary lacks zero_groups, retained_groups, params_before, "
                "params_after, bn_stats_before, bn_stats_after, flops_before, flops_after, "
                "slim_layers, input_shape")


def without_slim_layers(lines):
    """report.jsonl's lines with the summary's slim_layers left out."""
    summary = json.loads(lines[0])
    del summary["slim_layers"]
    return [json.dumps(summary)] + lines[1:]


def with_summary(**values):
    """An edit of report.jsonl's lines that sets `values` in the summary."""
    return lambda lines: [json.dumps({**json.loads(lines[0]), **values})] + lines[1:]


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_full_pipeline_run(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert self.run("run", "--config", str(cfgp)) == 0
        out = tmp_path / "out"
        for name in ("partition.txt", "metrics.jsonl", "full.ckpt", "slim.ckpt", "report.jsonl"):
            assert (out / name).exists(), name
        report = PruneReport.from_jsonl((out / "report.jsonl").read_text())
        assert report.max_deviation is not None and report.max_deviation <= 1e-5
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 10
        assert set(json.loads(lines[0])) == {
            "alpha", "epoch", "group_sparsity", "loss", "objective", "stage", "zero_groups",
        }

    def test_zero_epochs_keeps_model_intact(self, tmp_path):
        cfgp = write_config(tmp_path, **{"optimizer.epochs": "0"})
        assert self.run("run", "--config", str(cfgp)) == 0
        report = PruneReport.from_jsonl((tmp_path / "out" / "report.jsonl").read_text())
        assert report.zero_groups == []
        assert report.params_after == report.params_before
        assert report.flops_after == report.flops_before
        assert (tmp_path / "out" / "metrics.jsonl").read_text() == ""

    def test_diverging_run_fails_typed_without_numpy_warnings(self, tmp_path, capsys):
        cfgp = write_config(
            tmp_path, **{"model.layers": "linear:64, relu, linear:10", "optimizer.alpha0": "1e6"}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("run", "--config", str(cfgp)) == 1
        err = capsys.readouterr().err
        assert err.startswith("[train] epoch ")
        assert "non-finite" in err

    def test_same_seed_bitwise_identical_artifacts(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert self.run("run", "--config", str(cfgp)) == 0
        out = tmp_path / "out"
        first = {
            name: (out / name).read_bytes()
            for name in ("metrics.jsonl", "full.ckpt", "slim.ckpt", "report.jsonl")
        }
        assert self.run("run", "--config", str(cfgp)) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_seed_override_changes_trace(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert self.run("train", "--config", str(cfgp)) == 0
        base = (tmp_path / "out" / "metrics.jsonl").read_bytes()
        assert self.run("train", "--config", str(cfgp), "--seed", "99") == 0
        assert (tmp_path / "out" / "metrics.jsonl").read_bytes() != base

    def test_stagewise_invocation(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        for stage in ("partition", "train", "prune", "verify", "flops"):
            assert self.run(stage, "--config", str(cfgp)) == 0, stage
        captured = capsys.readouterr()
        assert "verify: max output deviation" in captured.out
        assert "slim model" in captured.out

    def test_prune_without_train_fails_cleanly(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert self.run("prune", "--config", str(cfgp)) == 1
        assert "train stage" in capsys.readouterr().err

    def test_verify_before_prune_fails_cleanly(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert self.run("train", "--config", str(cfgp)) == 0
        capsys.readouterr()
        assert self.run("verify", "--config", str(cfgp)) == 1
        report = tmp_path / "out" / "report.jsonl"
        assert capsys.readouterr().err == (
            f"[verify] no prune report at {report}; run the prune stage first\n"
        )

    @pytest.mark.parametrize("command", ["verify", "flops"])
    def test_missing_slim_checkpoint_fails_cleanly(self, tmp_path, capsys, command):
        cfgp = write_config(tmp_path)
        for stage in ("train", "prune"):
            assert self.run(stage, "--config", str(cfgp)) == 0
        ckpt = tmp_path / "out" / "slim.ckpt"
        ckpt.unlink()
        capsys.readouterr()
        assert self.run(command, "--config", str(cfgp)) == 1
        assert capsys.readouterr().err == (
            f"[{command}] no slim checkpoint at {ckpt}; run the prune stage first\n"
        )

    @pytest.mark.parametrize("command", ["verify", "flops"])
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: ["not json"],
             "prune report is not JSON lines: Expecting value: line 1 column 1 (char 0)"),
            (lambda lines: lines + ["3"], "prune report has a line that is not a JSON object"),
            (lambda lines: ['{"type": "summary"}'], REPORT_LACKS),
            (lambda lines: lines[1:], REPORT_LACKS),
            (without_slim_layers, "prune report summary lacks slim_layers"),
            (with_summary(max_deviation="abc"),
             "prune report summary field max_deviation must be a number"),
            (with_summary(params_before=1.5),
             "prune report summary field params_before must be an integer"),
            (with_summary(zero_groups=3),
             "prune report summary field zero_groups must be a list of integers"),
        ],
        ids=["not-json", "not-an-object", "empty-summary", "layer-lines-only", "no-slim-layers",
             "string-deviation", "float-count", "number-for-list"],
    )
    def test_malformed_report_fails_typed(self, tmp_path, capsys, command, edit, message):
        cfgp = write_config(tmp_path)
        for stage in ("train", "prune"):
            assert self.run(stage, "--config", str(cfgp)) == 0
        report = tmp_path / "out" / "report.jsonl"
        lines = report.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "summary"
        report.write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        assert self.run(command, "--config", str(cfgp)) == 1
        assert capsys.readouterr().err == f"[{command}] {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1\n2\n", "line 1: need at least one feature and a target"),
            ("# a comment\n\n# another\n", "csv file holds no samples"),
        ],
    )
    def test_malformed_csv_fails_at_train(self, tmp_path, capsys, text, message):
        (tmp_path / "d.csv").write_text(text)
        cfgp = write_config(tmp_path, **NOT_CSV, **{
            "model.input_shape": "2", "model.layers": "linear:2",
            "dataset.kind": "csv", "dataset.path": str(tmp_path / "d.csv"),
        })
        assert self.run("run", "--config", str(cfgp)) == 1
        assert capsys.readouterr().err == f"[train] {message}\n"

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"csv": "0.5,1.0,0\n1e39,2.0,1\n"}, "line 2"),
            ({"csv": "0.5,nan,0\n1.0,2.0,1\n"}, "line 1"),
            ({"csv": "0.5,1.0,0\n1.0,-inf,1\n"}, "line 2"),
            ({"csv": "0.5,1.0,0.25\n1.0,2.0,1e39\n", "dataset.target": "value",
              "model.layers": "linear:1", "model.loss": "mse"}, "line 2"),
            ({"dataset.separation": "1e300"}, "separation = 1e+300"),
            ({**NOT_GLASSO, "model.input_shape": "6", "model.layers": "linear:1",
              "model.loss": "mse", "dataset.kind": "synthetic-glasso", "dataset.groups": "3",
              "dataset.group_size": "2", "dataset.noise": "1e300"},
             "coef_scale = 1.0, noise = 1e+300"),
        ],
        ids=["csv-feature-1e39", "csv-feature-nan", "csv-feature-inf", "csv-value-1e39",
             "blobs-separation", "glasso-noise"],
    )
    def test_value_float32_cannot_hold_fails_at_train(self, tmp_path, capsys, overrides, message):
        overrides = dict(overrides)
        if "csv" in overrides:
            (tmp_path / "d.csv").write_text(overrides.pop("csv"))
            overrides = {**NOT_CSV, "model.input_shape": "2", "model.layers": "linear:2",
                         "dataset.kind": "csv", "dataset.path": str(tmp_path / "d.csv"),
                         **overrides}
        cfgp = write_config(tmp_path, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("run", "--config", str(cfgp)) == 1
        assert capsys.readouterr().err == (
            f"[train] {message}: a value float32 cannot hold (nan, inf, or past +-3.4e38)\n"
        )
        assert not (tmp_path / "out" / "full.ckpt").exists()

    def test_library_prune_report_is_what_verify_and_flops_read(self, tmp_path, capsys):
        cfg = load_config(write_config(tmp_path))
        model = build_model(cfg)
        partition = zigprune.partition_zig(model)
        zeroed = [g.gid for g in partition.groups_of_layer(0)[:5]]
        x = model.get_flat()
        partition.zero_groups_inplace(x, zeroed)
        model.set_flat(x)
        slim, report = zigprune.prune(model, partition)
        os.makedirs(cfg.output_dir)
        (tmp_path / "out" / "report.jsonl").write_text(report.to_jsonl())
        model.save_checkpoint(tmp_path / "out" / "full.ckpt")
        slim.save_checkpoint(tmp_path / "out" / "slim.ckpt")
        for command in ("verify", "flops"):
            assert self.run(command, "--config", str(tmp_path / "exp.cfg")) == 0, command
        out = capsys.readouterr().out
        assert "verify: max output deviation 0.000e+00" in out
        assert f"flops: slim model {report.flops_after} MACs/sample" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, **{"optimizer.epsilon": "2.0"})
        assert self.run("run", "--config", str(cfgp)) == 2
        assert "[config]" in capsys.readouterr().err

    def test_non_finite_float_is_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, **{
            "model.input_shape": "6", "model.layers": "linear:1", "model.loss": "mse",
            "dataset.kind": "synthetic-glasso", "dataset.groups": "3",
            "dataset.group_size": "2", "dataset.noise": "nan",
        })
        assert self.run("run", "--config", str(cfgp)) == 2
        assert capsys.readouterr().err == "[config] dataset.noise: not finite: 'nan'\n"
        assert not (tmp_path / "out" / "partition.txt").exists()

    @pytest.mark.parametrize("key", ["model.seed", "dataset.seed", "optimizer.seed"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, key):
        cfgp = write_config(tmp_path, **{key: "-1"})
        assert self.run("run", "--config", str(cfgp)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"[config] {key} must be >= 0")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "partition.txt").exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert self.run("run", "--config", str(cfgp), "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert err.startswith("[config] --seed must be >= 0")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "partition.txt").exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_init_scale_is_config_error(self, tmp_path, capsys, sigma):
        cfgp = write_config(tmp_path, **{"model.init": f"normal:{sigma}"})
        assert self.run("run", "--config", str(cfgp)) == 2
        assert capsys.readouterr().err.startswith("[config] model.init: normal scale must be finite")
        assert not (tmp_path / "out" / "partition.txt").exists()

    @pytest.mark.parametrize("poison", ["scaled L4.weight", "NaN in L0.weight"])
    def test_verify_fails_on_a_poisoned_slim_checkpoint(self, tmp_path, capsys, poison):
        cfgp = write_config(tmp_path)
        assert self.run("run", "--config", str(cfgp)) == 0
        ckpt = tmp_path / "out" / "slim.ckpt"
        arrays = load_arrays(ckpt)
        if poison.startswith("scaled"):
            arrays["L4.weight"] *= 1.5
        else:
            arrays["L0.weight"][0, 0] = np.nan
        save_arrays(ckpt, arrays)
        capsys.readouterr()
        assert self.run("verify", "--config", str(cfgp)) == 1
        err = capsys.readouterr().err
        assert err.startswith("[verify] slim model deviates from the full model by ")
        assert err.rstrip().endswith("; the bound is 1e-05")
        # the report is written before the check, so the failing number is on disk
        text = (tmp_path / "out" / "report.jsonl").read_text()
        deviation = PruneReport.from_jsonl(text).max_deviation
        assert np.isnan(deviation) if poison.startswith("NaN") else deviation > 1e-5

        def no_constant(name):  # strict JSON has no NaN or Infinity
            raise ValueError(f"non-standard JSON constant {name}")

        for line in text.splitlines():
            json.loads(line, parse_constant=no_constant)

    @pytest.mark.parametrize(
        "deviation,status",
        [(0.0, 0), (1e-5, 0), (float(np.nextafter(1e-5, 1.0)), 1), (float("nan"), 1)],
    )
    def test_run_enforces_the_equivalence_bound(self, tmp_path, capsys, monkeypatch, deviation, status):
        monkeypatch.setattr(zigprune.cli, "equivalence_check", lambda *args, **kw: deviation)
        assert self.run("run", "--config", str(write_config(tmp_path))) == status
        err = capsys.readouterr().err
        assert err.startswith("[verify] slim model deviates") if status else err == ""

    def test_missing_config_file(self, tmp_path, capsys):
        assert self.run("run", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_prune_fails_typed_on_a_payload_past_int64(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert self.run("train", "--config", str(cfgp)) == 0
        header = CHECKPOINT_MAGIC + struct.pack("<II", 1, 9) + b"L0.weight"
        (tmp_path / "out" / "full.ckpt").write_bytes(header + struct.pack("<5I", 4, *[65536] * 4))
        capsys.readouterr()
        assert self.run("prune", "--config", str(cfgp)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"[prune] truncated checkpoint: wanted {4 * 2**64} bytes for payload")
        assert "Traceback" not in err

    def test_checkpoint_contents_match_model_arrays(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert self.run("train", "--config", str(cfgp)) == 0
        arrays = load_arrays(tmp_path / "out" / "full.ckpt")
        assert any(k.endswith("weight") for k in arrays)

    def test_toy_cnn_pipeline_on_idx_data(self, tmp_path):
        from zigprune.data import write_idx_images, write_idx_labels

        rng = np.random.default_rng(0)
        labels = (np.arange(80) % 4).astype(np.uint8)
        images = (
            rng.integers(0, 60, size=(80, 6, 6)) + labels[:, None, None] * 60
        ).astype(np.uint8)
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lbl.idx", labels)
        text = """
model.input_shape = 1x6x6
model.layers = convbn:6:3x3:s1:p1:relu, linear:8, relu, linear:4
model.loss = softmax_ce
model.init = he
model.seed = 2
dataset.kind = idx
dataset.images = {img}
dataset.labels = {lbl}
optimizer.kind = hspg
optimizer.alpha0 = 0.1
optimizer.lambda = 0.05
optimizer.np_epochs = 15
optimizer.batch = 20
optimizer.epochs = 120
optimizer.seed = 3
prune.verify_inputs = 50
prune.keep_one = true
output.dir = {out}
""".format(img=tmp_path / "img.idx", lbl=tmp_path / "lbl.idx", out=tmp_path / "cnn")
        cfgp = tmp_path / "cnn.cfg"
        cfgp.write_text(text)
        assert self.run("run", "--config", str(cfgp)) == 0
        lines = (tmp_path / "cnn" / "metrics.jsonl").read_text().strip().splitlines()
        last = json.loads(lines[-1])
        assert last["group_sparsity"] > 0
        report = PruneReport.from_jsonl((tmp_path / "cnn" / "report.jsonl").read_text())
        assert report.max_deviation <= 1e-5
        assert report.flops_after < report.flops_before

    def test_csv_pipeline(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(60):
            label = int(rng.integers(0, 2))
            features = rng.standard_normal(3) + 4.0 * label
            rows.append(",".join(f"{v:.5f}" for v in features) + f",{label}")
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
        text = """
model.input_shape = 3
model.layers = linear:6, relu, linear:2
model.loss = softmax_ce
model.seed = 1
dataset.kind = csv
dataset.path = {path}
dataset.target = class
optimizer.kind = hspg
optimizer.alpha0 = 0.1
optimizer.lambda = 0.01
optimizer.np_epochs = 2
optimizer.batch = 20
optimizer.epochs = 8
optimizer.seed = 5
prune.verify_inputs = 20
output.dir = {out}
""".format(path=tmp_path / "d.csv", out=tmp_path / "csvout")
        cfgp = tmp_path / "csv.cfg"
        cfgp.write_text(text)
        assert self.run("run", "--config", str(cfgp)) == 0
        report = PruneReport.from_jsonl((tmp_path / "csvout" / "report.jsonl").read_text())
        assert report.max_deviation <= 1e-5

    def test_glasso_input_shape_is_checked_at_load(self, tmp_path, capsys):
        text = """
model.input_shape = 7
model.layers = linear:1
model.loss = mse
dataset.kind = synthetic-glasso
dataset.groups = 4
dataset.group_size = 2
dataset.samples = 20
output.dir = {out}
""".format(out=tmp_path / "gl")
        cfgp = tmp_path / "gl.cfg"
        cfgp.write_text(text)
        message = (
            "synthetic-glasso expects model.input_shape = 8 (groups x group_size), got (7,)"
        )
        with pytest.raises(ConfigError) as err:
            load_config(cfgp)
        assert str(err.value) == message
        assert self.run("run", "--config", str(cfgp)) == 2
        assert capsys.readouterr().err == f"[config] {message}\n"
        assert not (tmp_path / "gl").exists()

    @pytest.mark.parametrize(
        "layers,refused",
        [("linear:4, linear:1", "layer 'linear:4'"), ("mha:2x1", "layer 'mha:2x1'"),
         ("relu", "model.layers"), ("linear:1", None), ("mha:1x1", None),
         ("relu, linear:1", None)],
    )
    def test_glasso_needs_one_unit_in_the_first_weighted_layer(self, tmp_path, capsys, layers, refused):
        cfgp = tmp_path / "gl.cfg"
        cfgp.write_text(f"""
model.input_shape = 8
model.layers = {layers}
model.loss = mse
dataset.kind = synthetic-glasso
dataset.groups = 4
dataset.group_size = 2
dataset.samples = 20
output.dir = {tmp_path / "gl"}
""")
        if refused is None:
            load_config(cfgp)
            return
        assert self.run("partition", "--config", str(cfgp)) == 2
        assert capsys.readouterr().err == (
            f"[config] {refused}: synthetic-glasso needs a first weighted layer of one unit\n"
        )
        assert not (tmp_path / "gl").exists()

    def test_glasso_pipeline_reports_without_surgery(self, tmp_path, capsys):
        text = """
model.input_shape = 40
model.layers = linear:1
model.loss = mse
model.init = zeros
dataset.kind = synthetic-glasso
dataset.groups = 10
dataset.group_size = 4
dataset.support = 3
dataset.samples = 150
dataset.noise = 0.01
dataset.seed = 6
optimizer.kind = hspg
optimizer.alpha0 = 0.05
optimizer.lambda = 0.3
optimizer.np_epochs = 10
optimizer.batch = 150
optimizer.epochs = 120
optimizer.seed = 1
prune.verify_inputs = 20
output.dir = {out}
""".format(out=tmp_path / "gl")
        cfgp = tmp_path / "gl.cfg"
        cfgp.write_text(text)
        assert self.run("run", "--config", str(cfgp)) == 0
        # the prune line counts the units prune removed, not the zero hand-laid groups
        assert "prune: removed 0 zero groups; params 41 -> 41, flops 40 -> 40\n" in (
            capsys.readouterr().out
        )
        report = PruneReport.from_jsonl((tmp_path / "gl" / "report.jsonl").read_text())
        assert len(report.zero_groups) > 0
        # hand-laid groups describe no model structure, so nothing is removed
        assert report.params_after == report.params_before
        assert report.max_deviation == 0.0


ARTIFACTS = ("partition.txt", "metrics.jsonl", "full.ckpt", "slim.ckpt", "report.jsonl")


def write_conv_config(tmp_path, out):
    """A conv/residual experiment on seeded 1x6x6 IDX digits."""
    from zigprune.data import write_idx_images, write_idx_labels

    rng = np.random.default_rng(0)
    labels = (np.arange(60) % 3).astype(np.uint8)
    images = (rng.integers(0, 80, size=(60, 6, 6)) + labels[:, None, None] * 80).astype(np.uint8)
    write_idx_images(tmp_path / "img.idx", images)
    write_idx_labels(tmp_path / "lbl.idx", labels)
    text = f"""
model.input_shape = 1x6x6
model.layers = convbn:4:3x3:s1:p1:relu, residual:4:3x3:s1:p1:relu, linear:3
model.loss = softmax_ce
model.seed = 2
dataset.kind = idx
dataset.images = {tmp_path / "img.idx"}
dataset.labels = {tmp_path / "lbl.idx"}
optimizer.kind = hspg
optimizer.alpha0 = 0.1
optimizer.lambda = 0.5
optimizer.np_epochs = 3
optimizer.batch = 20
optimizer.epochs = 10
optimizer.seed = 3
prune.verify_inputs = 300
prune.keep_one = true
output.dir = {out}
"""
    path = tmp_path / "conv.cfg"
    path.write_text(text)
    return path


class TestInMemoryRun:
    """`run` hands objects between stages; the single-stage commands read files."""

    @pytest.mark.parametrize("kind", ["mlp", "conv"])
    def test_staged_commands_match_run_byte_for_byte(self, tmp_path, kind):
        def config(out):
            if kind == "conv":
                return write_conv_config(tmp_path, tmp_path / out)
            return write_config(tmp_path, **{"output.dir": str(tmp_path / out)})

        assert main(["run", "--config", str(config("run"))]) == 0
        staged = str(config("staged"))
        for stage in ("partition", "train", "prune", "verify", "flops"):
            assert main([stage, "--config", staged]) == 0, stage
        for name in ARTIFACTS:
            run_bytes = (tmp_path / "run" / name).read_bytes()
            assert (tmp_path / "staged" / name).read_bytes() == run_bytes, name
        if kind == "conv":  # the check spans several EVAL_CHUNK slices and HSPG pruned
            report = PruneReport.from_jsonl((tmp_path / "run" / "report.jsonl").read_text())
            assert report.flops_after < report.flops_before

    def test_run_builds_each_object_once(self, tmp_path, monkeypatch, capsys):
        calls = collections.Counter()
        seen = {}

        def count(owner, name, keep=None):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                result = original(*args, **kwargs)
                if keep is not None:
                    seen[name] = keep(args, result)
                return result

            monkeypatch.setattr(owner, name, counted)

        cli = zigprune.cli
        count(cli, "build_model")
        count(cli, "partition_zig")
        count(cli, "build_dataset")
        count(cli, "prune", keep=lambda args, result: result[0])
        count(cli, "equivalence_check", keep=lambda args, result: args[1])
        count(cli, "classification_accuracy", keep=lambda args, result: args[0])
        count(zigprune.model, "load_arrays")
        cfgp = write_config(tmp_path)
        assert main(["run", "--config", str(cfgp)]) == 0
        assert calls == {
            "build_model": 1,
            "partition_zig": 1,
            "build_dataset": 1,
            "prune": 1,
            "equivalence_check": 1,
            "classification_accuracy": 1,
            "load_arrays": 1,  # the slim model, read back from slim.ckpt
        }
        # verify and the accuracy line measure the slim model as loaded from disk
        assert seen["equivalence_check"] is seen["classification_accuracy"]
        assert seen["equivalence_check"] is not seen["prune"]
        assert "run: slim test accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("gelu", [False, True])
    def test_run_never_imports_scipy(self, tmp_path, gelu):
        layers = "linear:12, gelu, linear:3" if gelu else "linear:12, relu, linear:3"
        cfgp = write_config(tmp_path, **{"model.layers": layers})
        code = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None  # every import of scipy now raises ImportError",
            "import zigprune, zigprune.cli",
            f"assert zigprune.cli.main(['run', '--config', {str(cfgp)!r}]) == 0",
            "assert sys.modules['scipy'] is None",
            "assert not [name for name in sys.modules if name.startswith('scipy.')]",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(zigprune.__file__)))
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr


class TestClassTargets:
    """Class targets must index the model's output: integers in [0, width)."""

    def csv_config(self, tmp_path, last_label):
        rows = [f"{i % 3}.5,{i % 2}.0,{i % 2}" for i in range(19)] + [f"0.1,0.2,{last_label}"]
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
        return write_config(
            tmp_path,
            **NOT_CSV,
            **{
                "model.input_shape": "2",
                "model.layers": "linear:4, relu, linear:2",
                "dataset.kind": "csv",
                "dataset.path": str(tmp_path / "d.csv"),
            },
        )

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_more_classes_than_outputs(self, tmp_path, capsys, command):
        cfgp = write_config(tmp_path, **{"dataset.classes": "5"})
        assert main([command, "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[train] sample ")
        assert "is not an integer in [0, 3), the model's output width" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "full.ckpt").exists()

    def test_negative_csv_label(self, tmp_path, capsys):
        cfgp = self.csv_config(tmp_path, "-1")
        assert main(["run", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[train] sample 19: class target -1 is not an integer in [0, 2)")

    def test_fractional_csv_label(self, tmp_path, capsys):
        cfgp = self.csv_config(tmp_path, "1.5")
        assert main(["run", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[train] line 20: class label '1.5' is not an integer")

    def test_csv_label_outside_int64(self, tmp_path, capsys):
        cfgp = self.csv_config(tmp_path, "9223372036854775808")
        assert main(["run", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[train] line 20: class label '9223372036854775808' is not an integer")
        assert "Traceback" not in err

    def test_valid_csv_labels_train(self, tmp_path):
        assert main(["run", "--config", str(self.csv_config(tmp_path, "1"))]) == 0
