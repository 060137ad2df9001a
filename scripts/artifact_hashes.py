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
BLAS runs one thread unless the environment already says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile

ARTIFACTS = ("partition.txt", "metrics.jsonl", "full.ckpt", "slim.ckpt", "report.jsonl")
# workloads outside the benchmark: (the benchmark workload each starts from, the keys it replaces)
VARIANTS = {
    "mlp_blobs_eps": ("mlp_blobs", {"optimizer.epsilon": "0.5"}),
    "mlp_blobs_sgd": ("mlp_blobs", {"optimizer.kind": "sgd"}),
}
WORKLOADS = ("mlp_blobs", "cnn_idx", "attn_prox", *VARIANTS)
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
                base, values = VARIANTS.get(name, (name, {}))
                smoke = base != "mlp_blobs" and not args.full
                inputs = write_inputs(base, seed, os.path.join(tmp, f"{name}-{seed}"), root, smoke=smoke)
                _rewrite_config(inputs.config, inputs.config, values)
                with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the hashes
                    status = zigprune_main(["run", "--config", inputs.config, "--seed", str(seed)])
                if status != 0:
                    print(f"{name}-{seed}: zigprune run exited {status}", file=sys.stderr)
                    return 1
                for artifact in ARTIFACTS:
                    print(f"{name}-{seed} {artifact} {_sha256(os.path.join(inputs.out_dir, artifact))}")
                mismatch = _run_stages(root, inputs.config, seed, inputs.out_dir)
                if mismatch:
                    print(f"{name}-{seed}: {mismatch}", file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
