"""Wall-clock benchmark of APA products, training and serving.

Run from the repository root::

    python3 perfbench/run.py --workload matmul-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 4

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time, then with the layer probe and the
``repro.obs`` tracer installed for the other half, and prints the
per-layer metrics (``trace.overhead_frac`` compares the halves).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it give each
metric with its unit and notes, the host fingerprint and any failure.
The exit code is non-zero when any output failed its correctness check.

``setup_s`` is the median of cold set-ups, each in a fresh interpreter
with empty plan, coefficient and pool state: from before numpy and
``repro`` are first imported to the end of the workload's set-up
(inputs, tables, servers, worker pools and the warm-up calls).

BLAS is pinned to one thread before numpy loads, so the thread and
process executors supply the two-way parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

WORKLOADS = {
    "matmul-small": "wl_matmul_small",
    "matmul-large": "wl_matmul_large",
    "train-mlp": "wl_train_mlp",
    "serve-open": "wl_serve_open",
}

#: Cold set-ups per benchmark run, each in its own interpreter (the
#: run's own set-up is one of them); ``setup_s`` is their median.
SETUP_REPS = 3
#: A set-up interpreter that has not finished after this long failed.
SETUP_TIMEOUT_S = 60

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up once, print the set-up time and exit.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name}")
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# FAILED {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def stop_helpers() -> None:
    """Stop every worker process the run started, and wait for them."""
    from repro.parallel.procpool import shutdown_process_pool
    from repro.parallel.shm import shutdown_segments

    shutdown_process_pool(wait=True)
    shutdown_segments()
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


@contextmanager
def scratch_dir(root: Path) -> Iterator[Path]:
    """A private directory under the checkout, removed afterwards."""
    scratch = root / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def cold_setup(args: argparse.Namespace, scratch: Path) -> tuple[Any, float]:
    """Import the workload (numpy and ``repro`` with it) and set it up in
    this so far numpy-free interpreter; returns it with the seconds
    taken."""
    import importlib

    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed, scratch)
    workload.setup()
    return workload, time.perf_counter() - t0


def setup_only(args: argparse.Namespace, root: Path) -> int:
    with scratch_dir(root) as scratch:
        try:
            workload, seconds = cold_setup(args, scratch)
            workload.close()
        finally:
            stop_helpers()
    print(json.dumps({"setup_s": seconds}))
    return 0


def fresh_setups(args: argparse.Namespace, count: int) -> list[float | None]:
    """``count`` cold set-ups, each in a fresh interpreter; ``None`` for
    one that failed."""
    times: list[float | None] = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                stdout=subprocess.PIPE, text=True, check=False,
                timeout=SETUP_TIMEOUT_S)
            times.append(float(json.loads(
                proc.stdout.splitlines()[-1])["setup_s"]))
        except (subprocess.TimeoutExpired, IndexError, KeyError,
                TypeError, ValueError):
            times.append(None)
    return times


def run_one(args: argparse.Namespace, root: Path) -> int:
    # The other set-ups run first, while this interpreter holds neither
    # numpy nor operands nor worker processes.
    setups = fresh_setups(args, SETUP_REPS - 1) if args.trace == 0 else []
    with scratch_dir(root) as scratch:
        try:
            workload, seconds = cold_setup(args, scratch)
            setups.append(seconds)

            import harness
            from repro.obs.tracer import use_tracer

            out = harness.Outcome()
            workload.prepare_oracle()
            if args.trace == 0:
                stats = workload.run(args.seconds, out, None)
                workload.end_to_end(stats, out)
                measured = [s for s in setups if s is not None]
                if len(measured) < len(setups):
                    out.fail(f"{len(setups) - len(measured)} of "
                             f"{len(setups)} cold set-ups failed",
                             len(setups) - len(measured))
                out.metrics["setup_s"] = harness.median(measured)
                out.notes["setup_s"] = (
                    f"median of {len(measured)} cold set-ups in fresh "
                    "interpreters: "
                    + ", ".join(f"{s:.3f}" for s in measured))
                out.metrics["peak_rss_mb"] = harness.peak_rss_mb()
                names = harness.END_TO_END
            else:
                base = workload.run(args.seconds / 2, out, None)
                probe = harness.LayerProbe()
                plans = harness.PlanCacheDelta()
                probe.install()
                try:
                    with use_tracer() as tracer:
                        traced = workload.run(args.seconds / 2, out, probe)
                finally:
                    probe.uninstall()
                plans.fill(out)
                harness.fill_probe_metrics(out, probe)
                workload.per_layer(traced, probe, out)
                untraced_p50 = harness.median(base["lat"])
                if untraced_p50:
                    out.metrics["trace.overhead_frac"] = (
                        harness.median(traced["lat"]) / untraced_p50 - 1.0)
                out.notes["trace.overhead_frac"] = (
                    f"median op time, {len(traced['lat'])} traced vs "
                    f"{len(base['lat'])} untraced ops, "
                    f"{len(tracer.spans)} spans")
                names = harness.PER_LAYER
            workload.close()
        finally:
            stop_helpers()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    correct = harness.emit(names, out, {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": harness.host_info()})
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {root / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Fix the BLAS thread count before numpy is first imported; spawned
    # worker processes inherit the environment.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    if args.setup_only:
        return setup_only(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
