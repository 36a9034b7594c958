"""Shard/process-executor benchmark: thread vs process, in-core vs out.

Guards the PR-8 execution paths: times the thread and process
executors on one schedule, the sharded path in memory and streaming
through ``.npy`` memmaps, checks the NUMA cost model still reproduces
its pinned thread-vs-process crossover, and gates on shard
**bit-identity** (the sharded and process results must equal the
sequential plan exactly).  Writes
``benchmarks/out/BENCH_shard.json``.

Run directly::

    python benchmarks/bench_shard.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).parent / "out"


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="strassen222")
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--tile", type=int, default=256)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="smaller problem, fewer repeats (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=OUT_DIR / "BENCH_shard.json")
    args = parser.parse_args(argv)

    if args.quick:
        args.n = min(args.n, 192)
        args.tile = min(args.tile, 96)
        args.repeats = min(args.repeats, 2)

    from repro.algorithms.catalog import get_algorithm
    from repro.core.apa_matmul import apa_matmul
    from repro.core.engine import default_engine
    from repro.machine import default_cost_model
    from repro.parallel.procpool import shutdown_process_pool
    from repro.shard import ShardSpec, shard_matmul

    alg = get_algorithm(args.algorithm)
    engine = default_engine()
    rng = np.random.default_rng(0)
    A = rng.random((args.n, args.n)).astype(np.float32)
    B = rng.random((args.n, args.n)).astype(np.float32)
    spec = ShardSpec(args.tile, args.tile, args.tile)

    reference = apa_matmul(A, B, alg)

    # --- executors on one schedule -----------------------------------
    t_thread = _best_of(args.repeats, lambda: engine.matmul(
        A, B, alg, threads=args.workers))
    # Warm the pool once so the fork cost is not in the measurement.
    C_proc = engine.matmul(A, B, alg, executor="process",
                           threads=args.workers)
    t_process = _best_of(args.repeats, lambda: engine.matmul(
        A, B, alg, executor="process", threads=args.workers))

    # --- sharded, in memory and out of core --------------------------
    C_shard = shard_matmul(A, B, alg, shard=spec)
    t_shard = _best_of(args.repeats,
                       lambda: shard_matmul(A, B, alg, shard=spec))
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        np.save(tmp_path / "A.npy", A)
        np.save(tmp_path / "B.npy", B)
        t0 = time.perf_counter()
        C_stream = shard_matmul(tmp_path / "A.npy", tmp_path / "B.npy",
                                alg, shard=spec, out=tmp_path / "C.npy")
        t_stream = time.perf_counter() - t0
        stream_identical = bool(np.array_equal(np.asarray(C_stream),
                                               C_shard))
        del C_stream

    # --- gates --------------------------------------------------------
    process_identical = bool(np.array_equal(C_proc, reference))
    shard_trivial_identical = bool(np.array_equal(
        shard_matmul(A, B, alg, shard=max(args.n, args.tile)), reference))

    # The cost model's decision must stay deterministic: the pinned
    # crossover from the tests, reproduced here at bench time.
    model = default_cost_model()
    crossover_heavy = model.crossover_dim("smirnov444", workers=12)
    crossover_light = model.crossover_dim("strassen222", workers=12)
    decision_parity = (crossover_heavy == 1024 and crossover_light is None)

    shutdown_process_pool()

    gbytes = 2 * args.n * args.n * args.n / 1e9  # classical flops/2
    result = {
        "algorithm": args.algorithm,
        "n": args.n,
        "tile": args.tile,
        "workers": args.workers,
        "thread_s": t_thread,
        "process_s": t_process,
        "shard_s": t_shard,
        "stream_s": t_stream,
        "thread_gflops": gbytes / t_thread,
        "process_gflops": gbytes / t_process,
        "stream_gflops": gbytes / t_stream,
        "process_bit_identical": process_identical,
        "shard_trivial_bit_identical": shard_trivial_identical,
        "stream_bit_identical": stream_identical,
        "cost_model": {
            "crossover_smirnov444_w12": crossover_heavy,
            "crossover_strassen222_w12": crossover_light,
            "decision_parity": decision_parity,
        },
    }

    print(f"{args.algorithm} n={args.n} tile={args.tile} "
          f"workers={args.workers}")
    print(f"  thread   {t_thread * 1e3:8.2f} ms")
    print(f"  process  {t_process * 1e3:8.2f} ms")
    print(f"  shard    {t_shard * 1e3:8.2f} ms (in memory)")
    print(f"  stream   {t_stream * 1e3:8.2f} ms (.npy -> .npy)")
    print(f"  bit-identity: process={process_identical} "
          f"shard={shard_trivial_identical} stream={stream_identical}")
    print(f"  cost model: smirnov444@12 -> {crossover_heavy}, "
          f"strassen222@12 -> {crossover_light} "
          f"(parity={decision_parity})")

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = []
    if not process_identical:
        failed.append("process result diverged from the sequential plan")
    if not shard_trivial_identical:
        failed.append("trivial shard geometry diverged from apa_matmul")
    if not stream_identical:
        failed.append("streamed result diverged from the in-memory shard")
    if not decision_parity:
        failed.append("cost-model crossover drifted from the pinned value")
    for reason in failed:
        print(f"FAIL: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
