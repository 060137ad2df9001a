"""Seeded fuzz: every config given to `zigprune run` either runs or fails typed.

Each case writes a small random config (and, for file datasets, its data
files) covering every dataset kind, optimizer and layer kind, then runs the
whole pipeline through `cli.main`. The property: `main` returns 0, or it
returns 1 (2 for a config error) after printing the error tagged with the
stage that raised it. Any other exception escapes `main` and fails the test.

A second fuzz builds single layers from random DSL strings: a well-formed
spec of each head (or of an unknown one) after up to two typo-like edits,
such as an integer 0, -1 or empty, an extra field or `x` part, a dropped
field or a doubled separator. Each either builds, and writes itself back
as a spec that builds the same, or raises ConfigError.
"""

import re

import numpy as np
import pytest

from zigprune.cli import main
from zigprune.config import DATASET_KINDS, build_layers
from zigprune.data import write_idx_images, write_idx_labels
from zigprune.errors import ConfigError
from zigprune.hspg import OPTIMIZER_KINDS
from zigprune.model import infer_shapes

ACTS = ("relu", "leaky_relu", "prelu", "gelu")
CASES_PER_KIND = 15
TAGGED = re.compile(r"^\[(config|partition|train|prune|verify|flops)\] \S")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _flat_layers(rng, out):
    specs = []
    if rng.random() < 0.4:
        specs += [f"mha:{int(rng.integers(1, 3))}x{int(rng.integers(1, 4))}", _pick(rng, ACTS)]
    for _ in range(int(rng.integers(0, 3))):
        specs += [f"linear:{int(rng.integers(1, 7))}", _pick(rng, ACTS)]
    return specs + [f"linear:{out}"]


def _conv_layers(rng, out):
    specs = []
    for _ in range(int(rng.integers(1, 3))):
        k = _pick(rng, (1, 3))
        kind = _pick(rng, ("convbn", "residual"))
        stride = _pick(rng, (1, 1, 2))
        specs.append(f"{kind}:{int(rng.integers(1, 5))}:{k}x{k}:s{stride}:p{k // 2}:{_pick(rng, ACTS)}")
    return specs + _flat_layers(rng, out)


def _dataset(rng, kind, workdir):
    """Dataset keys, input shape, output width and loss for one case."""
    n = int(rng.integers(6, 40))
    classes = int(rng.integers(2, 5))
    if kind == "idx":
        h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        images, labels = workdir / "images.idx", workdir / "labels.idx"
        write_idx_images(images, rng.integers(0, 256, size=(n, h, w)))
        write_idx_labels(labels, rng.integers(0, classes, size=n))
        return {"images": images, "labels": labels}, (1, h, w), classes, "softmax_ce"
    features = int(rng.integers(1, 7))
    if kind == "csv":
        target = _pick(rng, ("class", "value"))
        rows = rng.standard_normal((n, features + 1))
        if target == "class":
            rows[:, -1] = rng.integers(0, classes, size=n)
        path = workdir / "data.csv"
        path.write_text("\n".join(",".join(f"{v:.6g}" for v in row) for row in rows) + "\n")
        if target == "class":
            return {"path": path, "target": target}, (features,), classes, "softmax_ce"
        return {"path": path, "target": target}, (features,), 1, "mse"
    if kind == "synthetic-classify":
        keys = {"samples": n, "test_samples": int(rng.integers(0, 10)), "classes": classes,
                "features": features, "separation": float(rng.uniform(0, 6)),
                "seed": int(rng.integers(100))}
        return keys, (features,), classes, "softmax_ce"
    groups, size = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    keys = {"samples": n, "groups": groups, "group_size": size,
            "support": int(rng.integers(0, groups + 1)), "noise": float(rng.uniform(0, 0.1)),
            "seed": int(rng.integers(100))}
    return keys, (groups * size,), 1, "mse"


def random_config(rng, kind, optimizer, workdir) -> str:
    dataset, shape, out, loss = _dataset(rng, kind, workdir)
    if rng.random() < 0.1:  # a loss that does not fit the targets
        loss = "mse" if loss == "softmax_ce" else "softmax_ce"
    layers = _conv_layers(rng, out) if len(shape) == 3 else _flat_layers(rng, out)
    pairs = {
        "model.input_shape": "x".join(str(s) for s in shape),
        "model.layers": ", ".join(layers),
        "model.loss": loss,
        "model.init": _pick(rng, ("he", "zeros", "normal:0.5")),
        "model.seed": int(rng.integers(100)),
        "model.penalize_output": bool(rng.random() < 0.2),
        "dataset.kind": kind,
        **{f"dataset.{k}": v for k, v in dataset.items()},
        "optimizer.kind": optimizer,
        # now and then a step size that diverges
        "optimizer.alpha0": float(rng.uniform(0.01, 0.5)) if rng.random() < 0.9 else 1e6,
        "optimizer.decay": _pick(rng, (1.0, 0.5)),
        "optimizer.lambda": _pick(rng, (0.0, 0.05, 0.5, 5.0)),
        "optimizer.epsilon": _pick(rng, (0.0, 0.2)),
        "optimizer.np_epochs": int(rng.integers(0, 3)),
        "optimizer.batch": int(rng.integers(1, 17)),
        "optimizer.epochs": int(rng.integers(0, 4)),
        "optimizer.seed": int(rng.integers(100)),
        "prune.verify_inputs": int(rng.integers(1, 20)),
        "prune.keep_one": bool(rng.random() < 0.5),
        "output.dir": workdir / "out",
    }
    path = workdir / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging cases overflow on purpose
def test_every_config_runs_or_fails_typed(tmp_path, capsys):
    rng = np.random.default_rng(2107)
    ran = []  # (dataset kind, optimizer, layer specs) of every run that completed
    for case in range(CASES_PER_KIND * len(DATASET_KINDS)):
        workdir = tmp_path / f"case{case}"
        workdir.mkdir()
        kind = DATASET_KINDS[case % len(DATASET_KINDS)]
        optimizer = OPTIMIZER_KINDS[case % len(OPTIMIZER_KINDS)]
        config = random_config(rng, kind, optimizer, workdir)
        code = main(["run", "--config", config])
        err = capsys.readouterr().err.strip().splitlines()
        if code == 0:
            ran.append((kind, optimizer, open(config).read()))
            continue
        context = f"case {case}: {open(config).read()}"
        assert code in (1, 2), context
        assert err and TAGGED.match(err[-1]), context
        assert (code == 2) == err[-1].startswith("[config]"), context
    # the completed runs still cover every dataset kind, optimizer and layer kind
    assert {k for k, _, _ in ran} == set(DATASET_KINDS)
    assert {o for _, o, _ in ran} == set(OPTIMIZER_KINDS)
    for layer in ("linear:", "convbn:", "residual:", "mha:", *ACTS):
        assert any(layer in text for _, _, text in ran), layer


DSL_HEADS = ("linear", "convbn", "residual", "mha", *ACTS, "dense", "")
DSL_BAD_ATOMS = ("", "0", "-1", "q", "s", "p-1", "relu")
DSL_CASES = 2000


def _dsl_fields(rng, head) -> list:
    """The well-formed fields of a `head` spec, each a (separator, atoms) pair."""
    ints = lambda n: [str(int(v)) for v in rng.integers(1, 4, size=n)]
    if head == "linear":
        return [("x", ints(1))]
    if head in ("convbn", "residual"):
        options = [o for o in ("s1", "s2", "p0", "p1", _pick(rng, ACTS)) if rng.random() < 0.4]
        return [("x", ints(1)), ("x", ints(2))] + [("x", [o]) for o in options]
    if head == "mha":
        return [("x", ints(2)) if rng.random() < 0.5 else (",", ints(int(rng.integers(1, 4))))]
    return []


def _mutate(rng, fields):
    """One edit of the kinds a typo makes: a bad atom, an extra atom or field,
    a dropped field, or a doubled separator."""
    what = int(rng.integers(5))
    if fields and what == 0:
        _, atoms = fields[int(rng.integers(len(fields)))]
        atoms[int(rng.integers(len(atoms)))] = _pick(rng, DSL_BAD_ATOMS)
    elif fields and what == 1:
        fields[int(rng.integers(len(fields)))][1].append(_pick(rng, ("1", "2", *DSL_BAD_ATOMS)))
    elif what == 2:
        field = ("x", [_pick(rng, ("3", *DSL_BAD_ATOMS))])
        fields.insert(int(rng.integers(len(fields) + 1)), field)
    elif fields and what == 3:
        del fields[int(rng.integers(len(fields)))]
    elif fields:
        k = int(rng.integers(len(fields)))
        fields[k] = (fields[k][0] * 2, fields[k][1])


def random_spec(rng) -> str:
    """A well-formed spec of a random head (or an unknown head), after 0-2 random edits."""
    head = _pick(rng, DSL_HEADS)
    fields = _dsl_fields(rng, head)
    for _ in range(int(rng.integers(3))):
        _mutate(rng, fields)
    return ":".join([head] + [sep.join(atoms) for sep, atoms in fields])


def test_every_layer_spec_builds_and_round_trips_or_fails_typed():
    rng = np.random.default_rng(4021)
    built, failed = set(), set()  # the heads of the specs that built and that failed
    for _ in range(DSL_CASES):
        spec = random_spec(rng)
        shape = _pick(rng, ((5,), (2, 5, 5)))
        try:
            (layer,) = build_layers([spec], shape, None, "normal:0.5", 0)
        except ConfigError:
            failed.add(spec.split(":")[0])
            continue
        written = layer.spec()
        (again,) = build_layers([written], shape, None, "normal:0.5", 0)
        assert again.spec() == written, spec
        assert infer_shapes([again], shape) == infer_shapes([layer], shape), spec
        built.add(spec.split(":")[0])
    kinds = {"linear", "convbn", "residual", "mha", *ACTS}
    assert built == kinds
    assert failed == kinds | {"dense", ""}
