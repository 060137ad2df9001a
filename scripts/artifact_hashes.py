"""Print the SHA-256 of every artifact `zigprune run` writes on the benchmark workloads.

    python scripts/artifact_hashes.py --src DIR [--full]

Imports `zigprune` from DIR/src and the workload generator from
DIR/benchmarks, writes each workload's inputs into a temporary directory,
runs the whole pipeline on them in this process, and prints one line per
artifact: ``<workload>-<seed> <artifact> <sha256>``. Run it on two source
trees and diff the outputs to check that a change keeps every artifact
byte-identical.

Each workload runs at seeds 7 and 11. mlp_blobs runs the checked-in config;
cnn_idx and attn_prox run at the benchmark's smoke size unless `--full` is
given. BLAS runs one thread unless the environment already says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

ARTIFACTS = ("partition.txt", "metrics.jsonl", "full.ckpt", "slim.ckpt", "report.jsonl")
WORKLOADS = ("mlp_blobs", "cnn_idx", "attn_prox")
SEEDS = (7, 11)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
                smoke = name != "mlp_blobs" and not args.full
                inputs = write_inputs(name, seed, os.path.join(tmp, f"{name}-{seed}"), root, smoke=smoke)
                with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the hashes
                    status = zigprune_main(["run", "--config", inputs.config, "--seed", str(seed)])
                if status != 0:
                    print(f"{name}-{seed}: zigprune run exited {status}", file=sys.stderr)
                    return 1
                for artifact in ARTIFACTS:
                    print(f"{name}-{seed} {artifact} {_sha256(os.path.join(inputs.out_dir, artifact))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
