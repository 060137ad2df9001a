"""Run the pipeline on a seeded MNIST-size IDX file under a peak-RSS ceiling.

    python scripts/mnist_scale.py [--max-rss-mb 300] [--workdir DIR]

Writes 60,000 seeded 28x28 images and their labels as IDX files, then runs
`zigprune run` on them twice, each in its own child process:

  linear  `linear:64, relu, linear:10`, one epoch, the whole pipeline
          through verify;
  conv    `convbn:16, residual:16, linear:10` (3x3 kernels), no training
          epoch and a 1,024-input equivalence check, so the chunked conv
          evaluation of verify sets the peak.

Prints each run's wall time and its child's peak resident set size, and
exits 1 if a run fails or its peak RSS is above the ceiling. The dataset
alone is 188 MB as float32, so the ceiling also bounds what the pipeline
holds besides it: the forward record of a training step, the chunked
evaluation, the equivalence check. At 28x28 a 256-sample chunk would hold
231 MB of float64 patches in the residual block; `predict` sizes its chunk
so that its patches stay under `zigprune.model.PATCH_BYTES` (1 MiB), which
here is one sample.

The check takes a few seconds and writes about 50 MB, so it runs as its own
CI step, not in the tier-1 tests. It runs the `zigprune` of this checkout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES, HW, CLASSES, SEED = 60_000, 28, 10, 0

CONFIG = """\
model.input_shape = 1x{hw}x{hw}
model.layers = {layers}
model.loss = softmax_ce
model.init = he
model.seed = 1
dataset.kind = idx
dataset.images = {images}
dataset.labels = {labels}
optimizer.kind = hspg
optimizer.alpha0 = 0.01
optimizer.lambda = 0.001
optimizer.np_epochs = {epochs}
optimizer.batch = 64
optimizer.epochs = {epochs}
optimizer.seed = 7
prune.verify_inputs = {verify_inputs}
output.dir = {out}
"""

# run name -> the config values that differ between runs
RUNS = {
    "linear": {"layers": "linear:64, relu, linear:10", "epochs": 1, "verify_inputs": 100},
    "conv": {
        "layers": "convbn:16:3x3:s1:p1:relu, residual:16:3x3:s1:p1:relu, linear:10",
        "epochs": 0,
        "verify_inputs": 1024,
    },
}


def write_dataset(workdir: str) -> tuple[str, str]:
    """Seeded uniform uint8 images and labels as IDX files; their paths."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from zigprune.data import write_idx_images, write_idx_labels

    rng = np.random.default_rng(SEED)
    paths = os.path.join(workdir, "images.idx"), os.path.join(workdir, "labels.idx")
    write_idx_images(paths[0], rng.integers(0, 256, size=(SAMPLES, HW, HW), dtype=np.uint8))
    write_idx_labels(paths[1], rng.integers(0, CLASSES, size=SAMPLES, dtype=np.uint8))
    return paths


def run_child(config: str, env: dict) -> tuple[int, float, float]:
    """`zigprune run` on `config` in a child process: (exit code, wall s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "zigprune.cli", "run", "--config", config], env=env)
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak, not the largest so far
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
    return proc.returncode, wall, usage.ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rss-mb", type=float, default=300.0, help="peak-RSS ceiling (default 300)")
    parser.add_argument("--workdir", help="where to write the data and the runs (default: a temporary dir)")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    failed = False
    with tempfile.TemporaryDirectory(prefix="mnist_scale_") as tmp:
        workdir = args.workdir or tmp
        os.makedirs(workdir, exist_ok=True)
        images, labels = write_dataset(workdir)
        for name, values in RUNS.items():
            config = os.path.join(workdir, f"mnist_scale_{name}.cfg")
            with open(config, "w") as fh:
                fh.write(CONFIG.format(hw=HW, images=images, labels=labels,
                                       out=os.path.join(workdir, f"out_{name}"), **values))
            code, wall, peak_mb = run_child(config, env)
            print(f"mnist_scale {name}: {SAMPLES} samples, run {wall:.2f} s, peak RSS {peak_mb:.1f} MB "
                  f"(ceiling {args.max_rss_mb:g} MB)")
            if code != 0:
                print(f"mnist_scale {name}: zigprune run exited {code}", file=sys.stderr)
                failed = True
            elif peak_mb > args.max_rss_mb:
                print(f"mnist_scale {name}: peak RSS {peak_mb:.1f} MB is above the ceiling", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
