"""Datasets: synthetic generators, IDX binary files, CSV, split handling, and `KINDS`.

IDX files (big-endian) hold a u32 magic, one u32 per extent and the uint8
payload; one reader, `_read_idx`, parses both kinds: images (count, rows,
cols) and labels (count).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, ShapeError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray
    task: str  # classify | regress
    splits: np.ndarray | None = None  # per-sample tags such as "train"/"test"

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ShapeError(
                f"inputs have {len(self.inputs)} samples but targets have {len(self.targets)}"
            )
        if self.splits is not None and len(self.splits) != len(self.inputs):
            raise ShapeError("split tags must cover every sample")

    @property
    def n(self) -> int:
        return len(self.inputs)

    def subset(self, tag: str) -> "Dataset":
        if self.splits is None:
            return self
        mask = self.splits == tag
        return Dataset(self.inputs[mask], self.targets[mask], self.task)


def _float32(values, error, name) -> np.ndarray:
    """`values` in float32 for the csv and synthetic readers: the first sample `i` with a
    value float32 cannot hold finitely raises `error` naming `name(i)`, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(values, dtype=np.float32)
    bad = np.argwhere(~np.isfinite(out))  # bad[0, 0] is the first such sample
    if bad.size:
        raise error(f"{name(bad[0, 0])}: a value float32 cannot hold (nan, inf, or past +-3.4e38)")
    return out


# a huge argument may overflow float64 before `_float32` reports the result
@np.errstate(over="ignore", invalid="ignore")
def generate_group_lasso(
    n_groups: int,
    group_size: int,
    support: int,
    samples: int,
    noise: float,
    seed: int,
    coef_scale: float = 1.0,
):
    """Planted group-sparse regression: returns (dataset, true coefficients).

    Design entries are standard normal; the planted coefficient vector is
    nonzero on `support` randomly chosen groups, each a random direction of
    norm `coef_scale`; targets are the noisy linear responses.
    """
    if support > n_groups:
        raise ShapeError(f"support size {support} exceeds group count {n_groups}")
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    design = rng.standard_normal((samples, n))
    x_true = np.zeros(n, dtype=np.float64)
    chosen = rng.choice(n_groups, size=support, replace=False) if support else []
    for g in chosen:
        v = rng.standard_normal(group_size)
        x_true[g * group_size : (g + 1) * group_size] = coef_scale * v / np.linalg.norm(v)
    y = design @ x_true
    if noise > 0:
        y = y + noise * rng.standard_normal(samples)
    targets = _float32(y, ParameterError, lambda i: f"coef_scale = {coef_scale}, noise = {noise}")
    return Dataset(inputs=design.astype(np.float32), targets=targets, task="regress"), x_true


@np.errstate(over="ignore", invalid="ignore")
def generate_blobs(
    classes: int,
    features: int,
    train_samples: int,
    test_samples: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Gaussian class blobs with unit within-class spread and tagged splits."""
    rng = np.random.default_rng(seed)
    means = separation * rng.standard_normal((classes, features)) / np.sqrt(features)
    total = train_samples + test_samples
    labels = np.arange(total, dtype=np.int64) % classes
    labels = labels[rng.permutation(total)]
    inputs = means[labels] + rng.standard_normal((total, features))
    splits = np.array(["train"] * train_samples + ["test"] * test_samples)
    inputs = _float32(inputs, ParameterError, lambda i: f"separation = {separation}")
    return Dataset(inputs=inputs, targets=labels, task="classify", splits=splits)


# ---------------------------------------------------------------------------
# IDX binary format (big-endian)


def _read_u32be(blob: bytes, offset: int, what: str) -> tuple[int, int]:
    if offset + 4 > len(blob):
        raise FormatError(f"truncated IDX file: wanted {what} at offset {offset}", offset=offset)
    return struct.unpack(">I", blob[offset : offset + 4])[0], offset + 4


def _read_idx(path, magic: int, what: str, extents: tuple[str, ...]) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by the u32 `extents` after its magic.

    `what` names the content ("image" or "label") in every FormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    found, pos = _read_u32be(blob, 0, "magic")
    if found != magic:
        raise FormatError(f"bad IDX {what} magic 0x{found:08x}", offset=0)
    shape = []
    for name in extents:
        extent, pos = _read_u32be(blob, pos, name)
        shape.append(extent)
    need = math.prod(shape)  # Python ints: three u32 extents can overflow int64
    if len(blob) - pos != need:
        raise FormatError(
            f"IDX {what} payload has {len(blob) - pos} bytes, expected {need}", offset=pos
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Load image/label IDX files; pixels scale to [0, 1] floats, shape (n, 1, h, w)."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "image", ("count", "rows", "cols"))
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", ("count",)).astype(np.int64)
    if len(images) != len(labels):
        raise FormatError(
            f"image count {len(images)} does not match label count {len(labels)}"
        )
    inputs = images.astype(np.float32)
    inputs /= 255.0  # in place: one float32 copy of the images, not two
    return Dataset(inputs=inputs[:, None, :, :], targets=labels, task="classify")


def write_idx_images(path, images: np.ndarray):
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ShapeError(f"IDX images must be (n, h, w) bytes, got rank {images.ndim}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.size))
        fh.write(labels.tobytes())


# ---------------------------------------------------------------------------
# CSV: one sample per line, features then target in the last column


def load_csv(path, target: str = "class") -> Dataset:
    if target not in ("class", "value"):
        raise FormatError(f"csv target must be 'class' or 'value', got {target!r}")
    features = []
    targets = []
    linenos = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: need at least one feature and a target")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            label = values[-1]  # a class label must convert to int64 exactly
            if target == "class" and not (label.is_integer() and -(2**63) <= label < 2**63):
                raise FormatError(
                    f"line {lineno}: class label {parts[-1].strip()!r} is not an integer "
                    f"in int64's range"
                )
            features.append(values[:-1])
            targets.append(label)
            linenos.append(lineno)
    if not features:
        raise FormatError("csv file holds no samples")
    widths = {len(row) for row in features}
    if len(widths) != 1:
        raise FormatError(f"inconsistent csv feature counts: {sorted(widths)}")
    inputs = _float32(features, FormatError, lambda i: f"line {linenos[i]}")
    if target == "class":
        return Dataset(inputs=inputs, targets=np.asarray(targets, dtype=np.int64), task="classify")
    targets = _float32(targets, FormatError, lambda i: f"line {linenos[i]}")
    return Dataset(inputs=inputs, targets=targets, task="regress")


# ---------------------------------------------------------------------------
# dataset kinds

# kind -> (reader, {config key: entry}), the keys in the reader's argument order.
# An entry is the key's default, or the type of a key the config must give; FILE
# marks a required path that must name a file, and a tuple the values a key may
# take, its default first. Each lambda looks its reader up at call time, so a
# patched reader sees every call.
FILE = object()
KINDS = {
    "synthetic-classify": (lambda *a: generate_blobs(*a), {
        "classes": int, "features": int, "samples": int,
        "test_samples": 0, "separation": 3.0, "seed": 0}),
    "synthetic-glasso": (lambda *a: generate_group_lasso(*a)[0], {
        "groups": int, "group_size": int, "support": 0, "samples": int,
        "noise": 0.0, "seed": 0, "coef_scale": 1.0}),
    "idx": (lambda *a: load_idx(*a), {"images": FILE, "labels": FILE}),
    "csv": (lambda *a: load_csv(*a), {"path": FILE, "target": ("class", "value")}),
}


def classification_accuracy(model, dataset: Dataset) -> float:
    out = model.predict(dataset.inputs)
    pred = out.argmax(axis=1)
    return float((pred == dataset.targets).mean())
