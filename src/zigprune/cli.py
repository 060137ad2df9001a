"""Command-line pipeline: partition, train, prune, verify, flops, run.

Every subcommand takes `--config PATH` plus an optional `--seed` override for
the training seed. Artifacts land in the config's output directory:

    partition.txt    one group per line (id, structure tag, member spans)
    metrics.jsonl    one JSON object per epoch
    full.ckpt        trained full model parameters
    slim.ckpt        pruned model parameters
    report.jsonl     prune summary plus per-layer kept-unit maps

`run` chains the five stages in memory: it builds the model, the partition
and the dataset once, and hands each stage what the one before it made. It
reads back only the slim model, from `report.jsonl` and `slim.ckpt`, so that
verify and the accuracy line check what a user would load. A single-stage
command reads what it needs from the files the earlier stages wrote.

One writer, `_write`, writes every text artifact; one rule, `_stage_input`,
checks every file a single-stage command reads. A missing or malformed input
is a typed failure, tagged with the stage that read it.

Exit status is 0 on success; failures print a message tagged with the stage
that failed and return nonzero. verify is such a failure when the slim
model's outputs deviate from the full model's by more than `MAX_DEVIATION`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .config import (
    ExperimentConfig,
    build_dataset,
    build_layers,
    build_model,
    check_seed,
    load_config,
)
from .data import classification_accuracy
from .errors import EquivalenceError, StateError, ZigPruneError
from .hspg import train
from .model import ModelGraph
from .prune import PruneReport, count_flops_params, equivalence_check, prune
from .zig import GroupPartition, partition_zig, sparsity_metrics


def _path(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _write(cfg: ExperimentConfig, name: str, text: str):
    """Write one text artifact, creating the output directory first."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(_path(cfg, name), "w") as fh:
        fh.write(text)


def _stage_input(cfg: ExperimentConfig, name: str, what: str, stage: str) -> str:
    """The path of a file an earlier stage writes; raises StateError if it is not there."""
    path = _path(cfg, name)
    if not os.path.exists(path):
        raise StateError(f"no {what} at {path}; run the {stage} stage first")
    return path


def make_partition(cfg: ExperimentConfig, model: ModelGraph) -> GroupPartition:
    """The ZIG partition, or hand-laid groups for the planted regression bed."""
    if cfg.dataset.get("kind") == "synthetic-glasso":
        n_groups = cfg.dataset["groups"]
        size = cfg.dataset["group_size"]  # load_config checked the input is n_groups * size wide
        index_lists = [np.arange(g * size, (g + 1) * size) for g in range(n_groups)]
        penalized = [True] * n_groups
        # remaining trainable scalars (the bias) form one unpenalized group
        rest = np.arange(n_groups * size, model.n_flat)
        if rest.size:
            index_lists.append(rest)
            penalized.append(False)
        return GroupPartition.from_indices(model.n_flat, index_lists, penalized)
    return partition_zig(model, penalize_output=cfg.penalize_output)


def _load_full(cfg: ExperimentConfig) -> ModelGraph:
    ckpt = _stage_input(cfg, "full.ckpt", "trained checkpoint", "train")
    model = build_model(cfg)
    model.load_checkpoint(ckpt)
    return model


def _read_report(cfg: ExperimentConfig) -> PruneReport:
    with open(_stage_input(cfg, "report.jsonl", "prune report", "prune")) as fh:
        return PruneReport.from_jsonl(fh.read())


def _load_slim(cfg: ExperimentConfig, report: PruneReport) -> ModelGraph:
    layers = build_layers(report.slim_layers, cfg.input_shape, cfg.loss, "zeros", 0)
    slim = ModelGraph(layers, cfg.input_shape)
    slim.load_checkpoint(_stage_input(cfg, "slim.ckpt", "slim checkpoint", "prune"))
    return slim


# Each stage builds or loads from the output directory whatever it is not
# handed; `stage_run` hands every stage the objects made by the one before.


def stage_partition(cfg: ExperimentConfig):
    """Write partition.txt; returns (fresh model, partition)."""
    model = build_model(cfg)
    partition = make_partition(cfg, model)
    _write(cfg, "partition.txt", partition.export_text())
    print(
        f"partition: {partition.n_groups} groups "
        f"({partition.n_penalized} penalized) over {partition.n_flat} parameters"
    )
    return model, partition


def stage_train(cfg: ExperimentConfig, model=None, partition=None, dataset=None):
    """Train and write metrics.jsonl and full.ckpt; returns (model, partition, trace).

    `dataset` is the whole dataset; training uses its train split.
    """
    if model is None:
        model = build_model(cfg)
    if partition is None:
        partition = make_partition(cfg, model)
        _write(cfg, "partition.txt", partition.export_text())
    if dataset is None:
        dataset = build_dataset(cfg)
    x_final, trace = train(model, partition, dataset.subset("train"), cfg.train)
    _write(cfg, "metrics.jsonl", "".join(json.dumps(e, sort_keys=True) + "\n" for e in trace))
    model.save_checkpoint(_path(cfg, "full.ckpt"))
    metrics = sparsity_metrics(x_final, partition)
    last_loss = trace[-1]["loss"] if trace else float("nan")
    print(
        f"train: {cfg.train.epochs} epochs, final loss {last_loss:.6g}, "
        f"group sparsity {metrics.group_sparsity:.3f} "
        f"({metrics.zero_groups}/{partition.n_penalized} zero groups)"
    )
    return model, partition, trace


def stage_prune(cfg: ExperimentConfig, model=None, partition=None):
    """Write slim.ckpt and report.jsonl; returns (trained model, slim model, report)."""
    if model is None:
        model = _load_full(cfg)
    if partition is None:
        partition = make_partition(cfg, model)
    slim, report = prune(model, partition, keep_one=cfg.keep_one)
    slim.save_checkpoint(_path(cfg, "slim.ckpt"))
    _write(cfg, "report.jsonl", report.to_jsonl())
    removed = sum(m.get("width_before", 0) - m.get("width_after", 0) for m in report.layer_maps)
    print(
        f"prune: removed {removed} zero groups; "
        f"params {report.params_before} -> {report.params_after}, "
        f"flops {report.flops_before} -> {report.flops_after}"
    )
    return model, slim, report


# the one-shot equivalence bound: verify fails above it, and on a NaN deviation
MAX_DEVIATION = 1e-5


def stage_verify(cfg: ExperimentConfig, model=None):
    """Record the full-vs-slim output deviation in report.jsonl; returns (deviation, slim).

    The slim model is always rebuilt from report.jsonl and slim.ckpt, as a
    user would load it, never taken from the prune stage's memory. Raises
    EquivalenceError, after writing the report, unless the deviation is at
    most `MAX_DEVIATION`.
    """
    if model is None:
        model = _load_full(cfg)
    report = _read_report(cfg)
    slim = _load_slim(cfg, report)
    deviation = equivalence_check(model, slim, cfg.verify_inputs, seed=cfg.train.seed)
    report.max_deviation = deviation
    _write(cfg, "report.jsonl", report.to_jsonl())
    print(f"verify: max output deviation {deviation:.3e} over {cfg.verify_inputs} inputs")
    if not deviation <= MAX_DEVIATION:
        raise EquivalenceError(
            f"slim model deviates from the full model by {deviation:.3e}; "
            f"the bound is {MAX_DEVIATION:.0e}"
        )
    return deviation, slim


def stage_flops(cfg: ExperimentConfig, model=None, slim=None):
    """Print the MAC and parameter counts of the full and, once pruned, the slim model."""
    if model is None:
        model = build_model(cfg)
    flops, params = count_flops_params(model)
    print(f"flops: full model {flops} MACs/sample, {params} trainable parameters")
    if slim is None and os.path.exists(_path(cfg, "report.jsonl")):
        slim = _load_slim(cfg, _read_report(cfg))
    if slim is not None:
        sflops, sparams = count_flops_params(slim)
        ratio = sflops / flops if flops else 1.0
        print(
            f"flops: slim model {sflops} MACs/sample ({ratio:.1%} remaining), "
            f"{sparams} trainable parameters"
        )
    return flops, params


@contextlib.contextmanager
def _stage(name: str):
    """Tag a package error raised inside with the stage it came from."""
    try:
        yield
    except ZigPruneError as exc:
        exc.stage = name
        raise


def stage_run(cfg: ExperimentConfig):
    """All five stages in one process, building the model, partition and dataset once."""
    with _stage("partition"):
        model, partition = stage_partition(cfg)
    with _stage("train"):
        dataset = build_dataset(cfg)
        model, _, _ = stage_train(cfg, model, partition, dataset)
    with _stage("prune"):
        stage_prune(cfg, model, partition)
    with _stage("verify"):
        deviation, slim = stage_verify(cfg, model)
    with _stage("flops"):
        stage_flops(cfg, model, slim)
    if dataset.task == "classify" and dataset.splits is not None:
        test = dataset.subset("test")
        if test.n:
            acc = classification_accuracy(slim, test)
            print(f"run: slim test accuracy {acc:.4f}")
    print(f"run: complete, max deviation {deviation:.3e}")


_STAGES = {
    "partition": stage_partition,
    "train": stage_train,
    "prune": stage_prune,
    "verify": stage_verify,
    "flops": stage_flops,
    "run": stage_run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zigprune",
        description="Group-sparse training and one-shot structured pruning pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override optimizer.seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            check_seed("--seed", args.seed)
            cfg.train.seed = args.seed
    except (OSError, ZigPruneError) as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 2
    try:
        _STAGES[args.command](cfg)
    except ZigPruneError as exc:
        print(f"[{exc.stage or args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
