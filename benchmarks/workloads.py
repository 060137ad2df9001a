"""Benchmark workloads: every input the pipeline reads, generated from one seed.

A run of one workload cycles through several variants. `variant_seeds`
derives their seeds from the run's seed; each variant seed both generates
that variant's inputs and is passed to `zigprune run --seed` as the training
seed. `write_inputs` writes a variant's config copy (and, for `cnn_idx`, its
IDX image and label files) into a directory. The pipeline receives only
those files, so the same seed always gives the same bytes. Sizes are chosen
so one warm `zigprune run` takes one to three seconds on 2 cores;
`smoke=True` shrinks each workload to the least that still runs every stage.

  mlp_blobs  the checked-in configs/mlp_blobs.cfg, only output.dir replaced
  cnn_idx    seeded 1x8x8 IDX block-pattern digits, conv/residual model, HSPG
  attn_prox  seeded flat blobs, gelu/attention/leaky_relu/prelu model, prox-sg
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from zigprune.config import parse_config_text
from zigprune.data import write_idx_images, write_idx_labels

WORKLOADS = ("mlp_blobs", "cnn_idx", "attn_prox")
# workloads trained with the half-space optimizer, which must zero some groups
HSPG_WORKLOADS = ("mlp_blobs", "cnn_idx")

CNN_HW = 8
CNN_CLASSES = 10
CNN_INK = 0.5  # peak pixel value / 255; full-range pixels make SGD at this step diverge
# the ten digit shapes are fixed, like a real digit set; the seed draws the
# samples (noise, shifts, order)
CNN_TEMPLATE_SEED = 0


@dataclass
class Inputs:
    config: str  # config copy the pipeline reads
    out_dir: str  # its output.dir
    heldout: tuple[str, str] | None  # held-out IDX (images, labels), cnn_idx only


def _sub_seeds(seed: int, stream: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(n) % (2**31)]


def variant_seeds(seed: int, n: int) -> list[int]:
    """Seeds of the n variants a run cycles through: inputs and training seed."""
    return _sub_seeds(seed, 1, n)


def _write_config(path: str, pairs: dict):
    with open(path, "w") as fh:
        for key, value in pairs.items():
            fh.write(f"{key} = {value}\n")


def _digit_templates(rng, classes: int, hw: int) -> np.ndarray:
    """One coarse 4x4 on/off block pattern per class, upsampled to hw x hw."""
    coarse = (rng.random((classes, 4, 4)) < 0.5).astype(np.float64)
    return np.kron(coarse, np.ones((hw // 4, hw // 4)))


def _digits(rng, templates: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n noisy, randomly shifted copies of the class templates as uint8 images."""
    classes, hw, _ = templates.shape
    labels = rng.permutation(np.arange(n) % classes)
    shifts = rng.integers(-1, 2, size=(n, 2))
    images = np.empty((n, hw, hw))
    for i, (label, (dy, dx)) in enumerate(zip(labels, shifts)):
        images[i] = np.roll(templates[label], (dy, dx), axis=(0, 1))
    images = images * rng.uniform(0.7, 1.0, size=(n, 1, 1)) + 0.1 * rng.standard_normal(images.shape)
    return np.clip(images * (255.0 * CNN_INK), 0, 255).astype(np.uint8), labels.astype(np.uint8)


def write_inputs(name: str, seed: int, workdir: str, repo_root: str, smoke: bool = False) -> Inputs:
    """Write the inputs of workload `name` for variant seed `seed` into `workdir`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    data_seed, model_seed, image_seed = _sub_seeds(seed, 0, 3)
    out_dir = os.path.join(workdir, "out")
    config = os.path.join(workdir, f"{name}.cfg")
    heldout = None

    if name == "mlp_blobs":
        # the ROADMAP's reference run as checked in: its data and init stay
        # fixed, so a variant differs only in its training seed
        with open(os.path.join(repo_root, "configs", "mlp_blobs.cfg")) as fh:
            pairs = parse_config_text(fh.read())
        if smoke:
            # few steps zero nothing at the checked-in lambda
            pairs.update({"dataset.samples": 500, "dataset.test_samples": 100, "optimizer.lambda": 0.1,
                          "optimizer.np_epochs": 6, "optimizer.epochs": 16})
    elif name == "cnn_idx":
        n_train, n_test = (128, 64) if smoke else (256, 256)
        templates = _digit_templates(np.random.default_rng(CNN_TEMPLATE_SEED), CNN_CLASSES, CNN_HW)
        rng = np.random.default_rng(image_seed)
        paths = {}
        for split, n in (("train", n_train), ("test", n_test)):
            images, labels = _digits(rng, templates, n)
            paths[split] = (os.path.join(workdir, f"{split}-images.idx"),
                            os.path.join(workdir, f"{split}-labels.idx"))
            write_idx_images(paths[split][0], images)
            write_idx_labels(paths[split][1], labels)
        heldout = paths["test"]
        pairs = {
            "model.input_shape": f"1x{CNN_HW}x{CNN_HW}",
            "model.layers": "convbn:8:3x3:s1:p1:relu, residual:8:3x3:s1:p1:relu, "
            "convbn:16:3x3:s2:p1:relu, residual:16:3x3:s1:p1:relu, linear:32, linear:10",
            "model.loss": "softmax_ce",
            "model.seed": model_seed,
            "dataset.kind": "idx",
            "dataset.images": paths["train"][0],
            "dataset.labels": paths["train"][1],
            "optimizer.kind": "hspg",
            # a long subgradient stage lets unneeded channels shrink far enough
            # for the half-space stage to zero them; larger lambda zeroes whole layers
            "optimizer.alpha0": 0.05,
            "optimizer.lambda": 0.2 if smoke else 0.1,  # smoke: half the steps
            "optimizer.np_epochs": 14,
            "optimizer.batch": 16,
            "optimizer.epochs": 24,
            # the equivalence check pushes all of these through one forward,
            # so the full-batch evaluation sets the peak memory
            "prune.verify_inputs": 256 if smoke else 1024,
        }
    else:  # attn_prox
        n_train, n_test, epochs = (128, 64, 2) if smoke else (3000, 1000, 20)
        pairs = {
            "model.input_shape": 32,
            "model.layers": "linear:48, gelu, mha:4x12, leaky_relu, linear:32, prelu, linear:10",
            "model.loss": "softmax_ce",
            "model.seed": model_seed,
            "dataset.kind": "synthetic-classify",
            "dataset.samples": n_train,
            "dataset.test_samples": n_test,
            "dataset.classes": 10,
            "dataset.features": 32,
            "dataset.separation": 6.0,
            "dataset.seed": data_seed,
            # prox-sg's zero region (radius alpha * lambda) is too small to
            # zero a group here, as the paper predicts; prune keeps every unit
            "optimizer.kind": "prox-sg",
            "optimizer.alpha0": 0.1,
            "optimizer.lambda": 0.005,
            "optimizer.batch": 64,
            "optimizer.epochs": epochs,
            "prune.verify_inputs": 100,
        }
    pairs["output.dir"] = out_dir
    _write_config(config, pairs)
    return Inputs(config=config, out_dir=out_dir, heldout=heldout)
