"""Datasets: synthetic generators, IDX binary files, CSV, and split handling."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError

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
    ds = Dataset(
        inputs=design.astype(np.float32), targets=y.astype(np.float32), task="regress"
    )
    return ds, x_true


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
    return Dataset(
        inputs=inputs.astype(np.float32), targets=labels, task="classify", splits=splits
    )


# ---------------------------------------------------------------------------
# IDX binary format (big-endian)


def _read_u32be(blob: bytes, offset: int, what: str) -> tuple[int, int]:
    if offset + 4 > len(blob):
        raise FormatError(f"truncated IDX file: wanted {what} at offset {offset}", offset=offset)
    return struct.unpack(">I", blob[offset : offset + 4])[0], offset + 4


def _load_idx_images(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, pos = _read_u32be(blob, 0, "magic")
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"bad IDX image magic 0x{magic:08x}", offset=0)
    count, pos = _read_u32be(blob, pos, "count")
    rows, pos = _read_u32be(blob, pos, "rows")
    cols, pos = _read_u32be(blob, pos, "cols")
    need = count * rows * cols
    if len(blob) - pos != need:
        raise FormatError(
            f"IDX image payload has {len(blob) - pos} bytes, expected {need}", offset=pos
        )
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(count, rows, cols)
    return pixels


def _load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, pos = _read_u32be(blob, 0, "magic")
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"bad IDX label magic 0x{magic:08x}", offset=0)
    count, pos = _read_u32be(blob, pos, "count")
    if len(blob) - pos != count:
        raise FormatError(
            f"IDX label payload has {len(blob) - pos} bytes, expected {count}", offset=pos
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """Load image/label IDX files; pixels scale to [0, 1] floats, shape (n, 1, h, w)."""
    images = _load_idx_images(images_path)
    labels = _load_idx_labels(labels_path)
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
            if target == "class" and not values[-1].is_integer():
                raise FormatError(
                    f"line {lineno}: class label {parts[-1].strip()!r} is not an integer"
                )
            features.append(values[:-1])
            targets.append(values[-1])
    if not features:
        raise FormatError("csv file holds no samples")
    widths = {len(row) for row in features}
    if len(widths) != 1:
        raise FormatError(f"inconsistent csv feature counts: {sorted(widths)}")
    inputs = np.asarray(features, dtype=np.float32)
    if target == "class":
        return Dataset(inputs=inputs, targets=np.asarray(targets, dtype=np.int64), task="classify")
    return Dataset(inputs=inputs, targets=np.asarray(targets, dtype=np.float32), task="regress")


def classification_accuracy(model, dataset: Dataset) -> float:
    out = model.predict(dataset.inputs)
    pred = out.argmax(axis=1)
    return float((pred == dataset.targets).mean())
