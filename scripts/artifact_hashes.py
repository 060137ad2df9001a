"""Print the SHA-256 of every artifact `zigprune run` writes on the benchmark workloads.

    python scripts/artifact_hashes.py --src DIR [--full]

Imports `zigprune` from DIR/src and the workload generator from
DIR/benchmarks, writes each workload's inputs into a temporary directory,
runs the whole pipeline on them in this process, and prints one line per
artifact: ``<workload>-<seed> <artifact> <sha256>``. Run it on two source
trees and diff the outputs to check that a change keeps every artifact
byte-identical; run it twice on one tree and diff the outputs to check that
repeat runs are.

After each `run`, the five single-stage commands (partition, train, prune,
verify, flops) run as `python -m zigprune.cli <stage>` subprocesses into a
second output directory, each reading the files of the one before. The
script exits 1 unless they write the same bytes as `run`.

Each workload runs at seeds 7 and 11. mlp_blobs runs the checked-in config;
cnn_idx and attn_prox run at the benchmark's smoke size unless `--full` is
given. Two more workloads are mlp_blobs with one optimizer key changed,
written here because no benchmark workload reaches their code:
mlp_blobs_eps (`optimizer.epsilon = 0.5`, the half-space test with
epsilon > 0) and mlp_blobs_sgd (`optimizer.kind = sgd`, the plain step).
Two more are written here whole, for the dataset kinds no benchmark
workload reads: glasso (a `linear:1` mse model on a planted
synthetic-glasso regression) and csv_blobs (seeded class blobs written to a
csv file). Both leave some dataset keys out, so they also run the kinds'
defaults. BLAS runs one thread unless the environment already says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import random
import subprocess
import sys
import tempfile

ARTIFACTS = ("partition.txt", "metrics.jsonl", "full.ckpt", "slim.ckpt", "report.jsonl")
# workloads outside the benchmark: (the benchmark workload each starts from, the keys it replaces)
VARIANTS = {
    "mlp_blobs_eps": ("mlp_blobs", {"optimizer.epsilon": "0.5"}),
    "mlp_blobs_sgd": ("mlp_blobs", {"optimizer.kind": "sgd"}),
}
# workloads whose whole config is written here; the seed draws the glasso
# data and the csv file's samples
BEDS = {
    "glasso": {
        "model.input_shape": 40, "model.layers": "linear:1", "model.loss": "mse",
        "dataset.kind": "synthetic-glasso", "dataset.groups": 10, "dataset.group_size": 4,
        "dataset.support": 3, "dataset.samples": 150, "dataset.noise": 0.01,
        "optimizer.kind": "hspg", "optimizer.alpha0": 0.05, "optimizer.lambda": 0.3,
        "optimizer.np_epochs": 10, "optimizer.batch": 30, "optimizer.epochs": 40,
        "prune.verify_inputs": 20,
    },
    "csv_blobs": {
        "model.input_shape": 6, "model.layers": "linear:16, relu, linear:3",
        "model.loss": "softmax_ce", "dataset.kind": "csv",
        "optimizer.kind": "hspg", "optimizer.alpha0": 0.1, "optimizer.lambda": 0.1,
        "optimizer.np_epochs": 4, "optimizer.batch": 32, "optimizer.epochs": 12,
        "prune.verify_inputs": 50,
    },
}
CSV_SAMPLES, CSV_CLASSES, CSV_FEATURES = 240, 3, 6
WORKLOADS = ("mlp_blobs", "cnn_idx", "attn_prox", *VARIANTS, *BEDS)
SEEDS = (7, 11)
STAGES = ("partition", "train", "prune", "verify", "flops")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rewrite_config(src: str, dst: str, values: dict[str, str]):
    """Write config `src` to `dst` with the value of every key in `values` replaced."""
    with open(src) as fh:
        lines = fh.read().splitlines()
    missing = set(values)
    for i, line in enumerate(lines):
        key = line.split("=", 1)[0].strip()
        if key in values:
            lines[i] = f"{key} = {values[key]}"
            missing.discard(key)
    if missing:
        raise KeyError(f"{src} sets no {', '.join(sorted(missing))}")
    with open(dst, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_bed(name: str, seed: int, workdir: str) -> tuple[str, str]:
    """Write bed `name`'s config, and csv_blobs' data file, into `workdir`; returns (config, output dir)."""
    os.makedirs(workdir)
    pairs = dict(BEDS[name], **{"output.dir": os.path.join(workdir, "out")})
    if name == "glasso":
        pairs["dataset.seed"] = seed
    else:
        rng = random.Random(seed)
        means = [[3.0 * rng.gauss(0, 1) for _ in range(CSV_FEATURES)] for _ in range(CSV_CLASSES)]
        rows = [[m + rng.gauss(0, 1) for m in means[i % CSV_CLASSES]] + [i % CSV_CLASSES]
                for i in range(CSV_SAMPLES)]
        pairs["dataset.path"] = os.path.join(workdir, "data.csv")
        with open(pairs["dataset.path"], "w") as fh:
            fh.writelines(",".join(f"{v:.6f}" for v in row[:-1]) + f",{row[-1]}\n" for row in rows)
    config = os.path.join(workdir, f"{name}.cfg")
    with open(config, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in pairs.items())
    return config, pairs["output.dir"]


def _run_stages(root: str, config: str, seed: int, out_dir: str) -> str | None:
    """Run the single-stage commands into `out_dir`; returns the first mismatch, if any."""
    staged_dir = out_dir + "-staged"
    staged = config + ".staged"
    _rewrite_config(config, staged, {"output.dir": staged_dir})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
    for stage in STAGES:
        cmd = [sys.executable, "-m", "zigprune.cli", stage, "--config", staged, "--seed", str(seed)]
        status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if status != 0:
            return f"zigprune {stage} exited {status}"
    for artifact in ARTIFACTS:
        if _sha256(os.path.join(staged_dir, artifact)) != _sha256(os.path.join(out_dir, artifact)):
            return f"{artifact} from the single-stage commands differs from run's"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="source tree to run (holds src/ and benchmarks/)")
    parser.add_argument("--full", action="store_true", help="cnn_idx and attn_prox at benchmark size")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads BLAS
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks")]
    from workloads import write_inputs
    from zigprune.cli import main as zigprune_main

    with tempfile.TemporaryDirectory(prefix="artifact_hashes_") as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                workdir = os.path.join(tmp, f"{name}-{seed}")
                if name in BEDS:
                    config, out_dir = _write_bed(name, seed, workdir)
                else:
                    base, values = VARIANTS.get(name, (name, {}))
                    smoke = base != "mlp_blobs" and not args.full
                    inputs = write_inputs(base, seed, workdir, root, smoke=smoke)
                    _rewrite_config(inputs.config, inputs.config, values)
                    config, out_dir = inputs.config, inputs.out_dir
                with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the hashes
                    status = zigprune_main(["run", "--config", config, "--seed", str(seed)])
                if status != 0:
                    print(f"{name}-{seed}: zigprune run exited {status}", file=sys.stderr)
                    return 1
                for artifact in ARTIFACTS:
                    print(f"{name}-{seed} {artifact} {_sha256(os.path.join(out_dir, artifact))}")
                mismatch = _run_stages(root, config, seed, out_dir)
                if mismatch:
                    print(f"{name}-{seed}: {mismatch}", file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
