"""Benchmark of the `zigprune run` pipeline, end to end or traced per module.

Run from the repository root:

    python3 benchmarks/run.py --workload mlp_blobs --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke        # every workload at minimal size

One run is a closed loop of back-to-back `zigprune.cli.main(["run", ...])`
calls in this process. Each run cycles through VARIANTS variants whose
seeds derive from `--seed`; a variant's seed generates its inputs and is
its training seed (the CLI's `--seed`). Every variant runs at least twice
so its artifacts can be compared byte for byte. The first pipeline of the
process is a warm-up and is not timed.

With `--trace 0` the only hook is a wrapper around `zigprune.cli.train` that
passes train()'s public `callback` and times the call; it yields the
end-to-end metrics. With `--trace 1` the pipelines alternate between
untraced and traced (see spans.py), and the traced ones give the per-module
metrics; the difference of the two medians is the tracing overhead.

The host this runs on is shared, and its CPU speed drifts by up to half over
seconds to minutes. A fixed NumPy computation (SpeedProbe) is timed right
before and after every pipeline run and every set-up process, and the
end-to-end timings are those runs' times divided by the slowdown the probe
saw: seconds at one fixed reference speed. The unscaled medians stay in the
result file. BLAS runs on one thread, so a run's speed hangs on one CPU.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller result file, with
provenance (CPU count, Python, numpy and BLAS build, thread settings, git
sha), per-run records and, for traced runs, the spans, is written to
`.bench_out/` in the repository root. Scratch files live in `.bench_tmp/`
and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

VARIANTS = 5  # variants per run; quality metrics are their mean
SETUP_REPEATS = 7  # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 120
# Timings are reported at a fixed reference speed of the machine: the speed at
# which SpeedProbe's fixed computation takes REFERENCE_PROBE_S seconds.
REFERENCE_PROBE_S = 0.005
MAX_DEVIATION = 1e-5  # one-shot equivalence bound of the pipeline's verify stage
ARTIFACTS = ("metrics.jsonl", "full.ckpt", "slim.ckpt")  # byte-identical across repeats

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "group_density": "ratio",
    "slim_macs_ratio": "ratio",
    "test_accuracy": "ratio",
    "pass_frac": "ratio",
}


def _fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "zigprune", "__init__.py")):
    _fail(f"no zigprune sources under {SRC}; run from a full checkout of the repository")
sys.path.insert(0, SRC)

# one BLAS thread: the loop runs in one process, and a pipeline's speed then
# hangs on one CPU, whose speed SpeedProbe measures
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import zigprune  # noqa: E402
import zigprune.cli  # noqa: E402
from zigprune.config import build_dataset, build_layers, load_config  # noqa: E402
from zigprune.data import classification_accuracy, load_idx  # noqa: E402
from zigprune.model import ModelGraph  # noqa: E402
from zigprune.prune import PruneReport  # noqa: E402

from spans import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import HSPG_WORKLOADS, WORKLOADS, variant_seeds, write_inputs  # noqa: E402

if not os.path.abspath(zigprune.__file__).startswith(SRC + os.sep):
    _fail(f"imported zigprune from {zigprune.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# provenance


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "zigprune")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """Times a fixed NumPy computation that does not touch zigprune.

    On a shared host the CPU's speed drifts by up to half between phases that
    last seconds to minutes. Timing this probe right before and after a
    pipeline run gives the machine's speed during that run; dividing the run's
    timings by `factor` rescales them to the reference speed.
    """

    REPEATS = 7

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 64))
        self.w1 = rng.standard_normal((64, 64))
        self.w2 = rng.standard_normal((64, 10))
        self.cols = rng.standard_normal((1024, 72))
        self.kernel = rng.standard_normal((72, 16))

    def _once(self) -> float:
        """One small forward/backward step, an im2col-sized GEMM and a Python loop."""
        start = time.perf_counter()
        for _ in range(20):
            h = np.maximum(self.x @ self.w1, 0.0)
            z = h @ self.w2
            e = np.exp(z - z.max(axis=1, keepdims=True))
            g = (e / e.sum(axis=1, keepdims=True)) @ self.w2.T
            _ = (g * (h > 0)).T @ self.x
            _ = self.cols @ self.kernel
            _ = sum(i * i for i in range(300))
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Median probe time in seconds now."""
        return statistics.median(self._once() for _ in range(self.REPEATS))

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Slowdown against the reference speed over a run bracketed by two probes."""
        return (before + after) / (2 * REFERENCE_PROBE_S)


# ---------------------------------------------------------------------------
# the one hook of the untraced run


class StepClock:
    """Wraps zigprune.cli.train: passes a step callback and times the call.

    Step latency is the gap between consecutive callbacks of one epoch; the
    first step of each epoch is skipped, since its gap also holds the
    previous epoch's full-data evaluation.
    """

    def __init__(self, on_step=None):
        self.on_step = on_step
        self.train_s: list[float] = []
        self.samples: list[int] = []
        self.step_ms: list[list[float]] = []  # one list per train() call
        self.original = zigprune.cli.train
        zigprune.cli.train = self.train

    def train(self, model, partition, dataset, config, callback=None):
        last = None
        steps: list[float] = []
        self.step_ms.append(steps)

        def step(state, info):
            nonlocal last
            now = time.perf_counter()
            if last is not None and info["k"] % state.steps_per_epoch:
                steps.append(1e3 * (now - last))
            last = now
            if self.on_step is not None:
                self.on_step(state, info)
            if callback is not None:
                callback(state, info)

        start = time.perf_counter()
        result = self.original(model, partition, dataset, config, callback=step)
        self.train_s.append(time.perf_counter() - start)
        self.samples.append(config.epochs * dataset.n)
        return result

    def remove(self):
        zigprune.cli.train = self.original


# ---------------------------------------------------------------------------
# one pipeline run and its checks


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _slim_accuracy(config_path: str, out_dir: str, heldout) -> float:
    """Accuracy of the slim model on held-out data, rebuilt from the run's artifacts."""
    cfg = load_config(config_path)
    with open(os.path.join(out_dir, "report.jsonl")) as fh:
        report = PruneReport.from_jsonl(fh.read())
    layers = build_layers(report.slim_layers, cfg.input_shape, cfg.loss, "zeros", 0)
    slim = ModelGraph(layers, cfg.input_shape)
    slim.load_checkpoint(os.path.join(out_dir, "slim.ckpt"))
    test = load_idx(*heldout) if heldout else build_dataset(cfg).subset("test")
    return classification_accuracy(slim, test)


def run_pipeline(workload: str, inputs, cli_seed: int) -> dict:
    """One `zigprune run`, then its correctness gates; returns the run record."""
    shutil.rmtree(inputs.out_dir, ignore_errors=True)
    log = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = zigprune.cli.main(["run", "--config", inputs.config, "--seed", str(cli_seed)])
    except Exception:  # a crash is a failed run, not a failed benchmark
        rc = None
        log.write(traceback.format_exc())
    wall = time.perf_counter() - start
    record = {"seed": cli_seed, "wall_s": wall, "rc": rc, "errors": []}
    if rc != 0:
        record["errors"].append(f"exit status {rc}: {log.getvalue()[-2000:]}")
        return record
    out = inputs.out_dir
    with open(os.path.join(out, "report.jsonl")) as fh:
        summary = json.loads(fh.readline())
    with open(os.path.join(out, "metrics.jsonl")) as fh:
        final = json.loads(fh.read().splitlines()[-1])
    record["max_deviation"] = summary["max_deviation"]
    record["group_sparsity"] = final["group_sparsity"]
    record["slim_macs_ratio"] = summary["flops_after"] / summary["flops_before"]
    record["hashes"] = {name: _sha256(os.path.join(out, name)) for name in ARTIFACTS}
    record["printed_accuracy"] = next(
        (line.split()[-1] for line in log.getvalue().splitlines() if "slim test accuracy" in line),
        None,
    )
    if not summary["max_deviation"] <= MAX_DEVIATION:
        record["errors"].append(f"max_deviation {summary['max_deviation']} > {MAX_DEVIATION}")
    if workload in HSPG_WORKLOADS and not final["group_sparsity"] > 0:
        record["errors"].append("half-space training zeroed no group")
    return record


def check_against_reference(record: dict, reference: dict):
    """Gates that compare a repeat with the first run of its training seed."""
    for name in ARTIFACTS:
        if record["hashes"][name] != reference["hashes"][name]:
            record["errors"].append(f"{name} differs from the first run of seed {record['seed']}")


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, seed: int, workdir: str, smoke: bool):
    """What a user pays before training: imports (done above), inputs, load_config."""
    inputs = write_inputs(workload, variant_seeds(seed, 1)[0], workdir, ROOT, smoke=smoke)
    load_config(inputs.config)


def measure_setup(workload: str, seed: int, tmp: str, smoke: bool, probe: SpeedProbe) -> list[dict]:
    """Wall time of SETUP_REPEATS fresh processes that import, write inputs and load the config."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", os.path.join(tmp, f"setup{i}"),
               "--workload", workload, "--seed", str(seed)]
        if smoke:
            cmd.append("--smoke-size")
        before = probe()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls every
        # 50 ms, which would round every set-up time to that step
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        times.append({"wall_s": wall, "speed": SpeedProbe.factor(before, probe())})
    return times


# ---------------------------------------------------------------------------
# the measurement loop


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 when every run failed."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, tmp: str) -> dict:
    probe = SpeedProbe()
    setup = [] if trace else measure_setup(workload, seed, tmp, smoke, probe)
    seeds = variant_seeds(seed, VARIANTS)
    inputs = {s: write_inputs(workload, s, os.path.join(tmp, f"v{k}"), ROOT, smoke=smoke) for k, s in enumerate(seeds)}
    tracer = Tracer() if trace else None
    clock = StepClock(on_step=tracer.on_step if tracer else None)
    runs: list[dict] = []
    first_of: dict[int, dict] = {}
    accuracy: dict[int, float] = {}
    start = time.perf_counter()
    try:
        # repeat 0 is the untimed warm-up; every variant must run twice
        while (
            len(runs) < 2 * VARIANTS + 1 or time.perf_counter() - start < seconds
        ) and time.perf_counter() - start < seconds + 90:
            i = len(runs)
            cli_seed = seeds[i % VARIANTS]
            traced = trace and i > 0 and i % 2 == 0
            if traced:
                tracer.run_id = i
                tracer.install()
            before = probe()
            try:
                record = run_pipeline(workload, inputs[cli_seed], cli_seed)
            finally:
                if traced:
                    tracer.uninstall()
            record.update(index=i, traced=traced, timed=i > 0, speed=SpeedProbe.factor(before, probe()))
            if record["rc"] == 0:
                record["train_s"], record["samples"] = clock.train_s[-1], clock.samples[-1]
                record["step_ms"] = clock.step_ms[-1]
                if cli_seed in first_of:
                    check_against_reference(record, first_of[cli_seed])
                else:
                    first_of[cli_seed] = record
                    variant = inputs[cli_seed]
                    accuracy[cli_seed] = _slim_accuracy(variant.config, variant.out_dir, variant.heldout)
                    record["test_accuracy"] = accuracy[cli_seed]
                    printed = record["printed_accuracy"]
                    if printed is not None and printed != f"{accuracy[cli_seed]:.4f}":
                        record["errors"].append(
                            f"printed accuracy {printed} != recomputed {accuracy[cli_seed]:.4f}"
                        )
            runs.append(record)
    finally:
        clock.remove()
    elapsed = time.perf_counter() - start

    failed = [r for r in runs if r["errors"]]
    ok = [r for r in runs if not r["errors"]]
    timed = [r for r in ok if r["timed"] and not r["traced"]]
    result = {"runs": runs, "measure_s": elapsed, "setup_runs_s": setup, "seeds": seeds}
    if trace:
        traced = [r for r in ok if r["traced"]]
        per_run = [tracer.per_layer_metrics(r["index"]) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]} if per_run else {}
        traced_wall = _quantile((r["wall_s"] for r in traced), 50)
        untraced_wall = _quantile((r["wall_s"] for r in timed), 50)
        metrics["trace.pipeline_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        result["per_run_layers"] = per_run
        result["spans"] = tracer.span_arrays()
        result["metrics"] = {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in PER_LAYER_UNITS.items()}
    else:
        # timings at the reference speed: each run's divided by its speed factor
        walls = [r["wall_s"] / r["speed"] for r in timed]
        steps = [ms / r["speed"] for r in timed for ms in r["step_ms"]]
        variants = [first_of[s] for s in seeds if s in first_of]
        metrics = {
            "setup_s": _quantile((r["wall_s"] / r["speed"] for r in setup), 50),
            "pipeline_s": _quantile(walls, 50),
            "train_samples_per_s": sum(r["samples"] for r in timed)
            / sum(r["train_s"] / r["speed"] for r in timed)
            if timed else 0.0,
            "step_ms_p50": _quantile(steps, 50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "group_density": _mean(1.0 - r["group_sparsity"] for r in variants),
            "slim_macs_ratio": _mean(r["slim_macs_ratio"] for r in variants),
            "test_accuracy": _mean(accuracy.values()),
            "pass_frac": len(ok) / len(runs),
        }
        result["samples"] = {"pipeline_s": len(walls), "step_ms": len(steps)}
        result["pipeline_s_quantiles"] = {q: _quantile(walls, q) for q in (10, 25, 50, 75, 90)}
        result["step_ms_quantiles"] = {q: _quantile(steps, q) for q in (10, 25, 50, 75, 90)}
        result["unscaled"] = {
            "speed_factor": _quantile((r["speed"] for r in timed), 50),
            "setup_s": _quantile((r["wall_s"] for r in setup), 50),
            "pipeline_s": _quantile((r["wall_s"] for r in timed), 50),
            "step_ms_p50": _quantile((ms for r in timed for ms in r["step_ms"]), 50),
        }
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in E2E_UNITS.items()}
    result["attempted"], result["failed"] = len(runs), len(failed)
    return result


def write_result(workload: str, seed: int, trace: bool, result: dict, prov: dict) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    spans = result.pop("spans", None)
    if spans is not None:
        np.savez_compressed(stem + "-spans.npz", **spans)
        result["spans_file"] = os.path.relpath(stem + "-spans.npz", ROOT)
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "provenance": prov, **result}, fh, indent=1)
    return stem + ".json"


# ---------------------------------------------------------------------------
# self-test


def smoke_test() -> int:
    """Run every workload at minimal size, traced and untraced, in fresh processes.

    Checks that each prints a passing result line whose metric names and
    units are exactly those declared in BENCHMARK.json.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from E2E_UNITS")
    if declared[1] != PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from the tracer's metrics")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "1",
                   "--seconds", "0", "--trace", str(trace), "--smoke-size"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{tag}: {line['failed']} of {line['attempted']} runs failed")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(declared[trace]))} differ")
            print(f"smoke {tag}: {line['attempted']} runs, {len(got)} metrics ok", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload at minimal size")
    parser.add_argument("--smoke-size", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe, args.smoke_size)
        return 0

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke_size, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)
    prov = provenance()
    path = write_result(args.workload, args.seed, bool(args.trace), result, prov)
    print(json.dumps({"provenance": prov, "result_file": os.path.relpath(path, ROOT)}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
