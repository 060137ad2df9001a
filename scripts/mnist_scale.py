"""Run the pipeline on a seeded MNIST-size IDX file under a peak-RSS ceiling.

    python scripts/mnist_scale.py [--max-rss-mb 300] [--workdir DIR]

Writes 60,000 seeded 28x28 images and their labels as IDX files, then runs
`zigprune run` on them in a child process: `linear:64, relu, linear:10`,
one epoch, the whole pipeline through verify. Prints the run's wall time and
the child's peak resident set size, and exits 1 if the run fails or its peak
RSS is above the ceiling. The dataset alone is 188 MB as float32, so the
ceiling also bounds what the pipeline holds besides it: the forward record
of a training step, the chunked evaluation, the equivalence check.

The check takes a few seconds and writes about 50 MB, so it runs as its own
CI step, not in the tier-1 tests. It runs the `zigprune` of this checkout.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES, HW, CLASSES, SEED = 60_000, 28, 10, 0

CONFIG = """\
model.input_shape = 1x{hw}x{hw}
model.layers = linear:64, relu, linear:10
model.loss = softmax_ce
model.init = he
model.seed = 1
dataset.kind = idx
dataset.images = {images}
dataset.labels = {labels}
optimizer.kind = hspg
optimizer.alpha0 = 0.01
optimizer.lambda = 0.001
optimizer.np_epochs = 1
optimizer.batch = 64
optimizer.epochs = 1
optimizer.seed = 7
prune.verify_inputs = 100
output.dir = {out}
"""


def write_dataset(workdir: str) -> tuple[str, str]:
    """Seeded uniform uint8 images and labels as IDX files; their paths."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from zigprune.data import write_idx_images, write_idx_labels

    rng = np.random.default_rng(SEED)
    paths = os.path.join(workdir, "images.idx"), os.path.join(workdir, "labels.idx")
    write_idx_images(paths[0], rng.integers(0, 256, size=(SAMPLES, HW, HW), dtype=np.uint8))
    write_idx_labels(paths[1], rng.integers(0, CLASSES, size=SAMPLES, dtype=np.uint8))
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rss-mb", type=float, default=300.0, help="peak-RSS ceiling (default 300)")
    parser.add_argument("--workdir", help="where to write the data and the run (default: a temporary dir)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mnist_scale_") as tmp:
        workdir = args.workdir or tmp
        os.makedirs(workdir, exist_ok=True)
        images, labels = write_dataset(workdir)
        config = os.path.join(workdir, "mnist_scale.cfg")
        with open(config, "w") as fh:
            fh.write(CONFIG.format(hw=HW, images=images, labels=labels, out=os.path.join(workdir, "out")))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setdefault(var, "1")
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "zigprune.cli", "run", "--config", config], env=env)
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"mnist_scale: {SAMPLES} samples, run {wall:.2f} s, peak RSS {peak_mb:.1f} MB "
          f"(ceiling {args.max_rss_mb:g} MB)")
    if run.returncode != 0:
        print(f"mnist_scale: zigprune run exited {run.returncode}", file=sys.stderr)
        return 1
    if peak_mb > args.max_rss_mb:
        print(f"mnist_scale: peak RSS {peak_mb:.1f} MB is above the ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
