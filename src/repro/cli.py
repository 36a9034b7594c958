"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``          — the algorithm catalog with Table-1 properties
``verify NAME``   — symbolically verify a (real) catalog algorithm
``info NAME``     — full analytics report (adds, CSE, workspace, crossover)
``table1``        — regenerate Table 1
``fig N``         — regenerate a figure (1-7)
``matmul``        — run one APA product and report the error
``shard-matmul``  — out-of-core sharded APA product over .npy memmaps
``save/load``     — algorithm file round-trip
``guard-study``   — guarded-vs-unguarded mid-training fault recovery
``guard-overhead``— wall-clock cost of the guarded backend's checks
``hotpath``       — plan-cached vs cold-path throughput comparison
``lint``          — static verification & lint (no gemms executed)
``trace``         — traced guarded run, Chrome/JSONL trace export
``metrics``       — process metrics (Prometheus text or JSON)
``obs-overhead``  — cost of dormant/live tracing on the warm hot path
``tune``          — offline autotuner: run / show / explain dispatch tables
``serve``         — demo APA server with a live Prometheus endpoint
``loadtest``      — saturate the server; write BENCH_serve.json
``soak``          — chaos soak: injected faults, zero-silent-wrong gate
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APA fast matrix multiplication (ICPP'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog with Table-1 properties")

    p = sub.add_parser("verify", help="symbolically verify an algorithm")
    p.add_argument("name")

    p = sub.add_parser("info", help="full analytics report for an algorithm")
    p.add_argument("name")
    p.add_argument("--crossover", action="store_true",
                   help="also compute the sequential crossover dimension")

    sub.add_parser("table1", help="regenerate Table 1")

    p = sub.add_parser("fig", help="regenerate a figure")
    p.add_argument("number", type=int, choices=[1, 2, 3, 4, 5, 6, 7])
    p.add_argument("--threads", type=int, default=1,
                   help="thread count for the performance figures")

    p = sub.add_parser("matmul", help="one APA product, error report")
    p.add_argument("name",
                   help="catalog name, or comma-separated names for a "
                        "non-stationary per-level schedule")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--dtype", choices=["float32", "float64"],
                   default="float32")
    p.add_argument("--guarded", action="store_true",
                   help="run through GuardedBackend (health checks + "
                        "escalation) and report guard events")
    p.add_argument("--executor", choices=["thread", "process"],
                   default=None,
                   help="scheduled executor: 'process' stages blocks in "
                        "shared memory and runs real worker processes")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count for the scheduled executor")

    p = sub.add_parser(
        "shard-matmul",
        help="out-of-core sharded APA product over .npy memmaps")
    p.add_argument("name", nargs="?", default="strassen222")
    p.add_argument("--a", default=None,
                   help=".npy path for A (default: generate)")
    p.add_argument("--b", default=None,
                   help=".npy path for B (default: generate)")
    p.add_argument("--n", type=int, default=256,
                   help="square dim when generating operands")
    p.add_argument("--dtype", choices=["float32", "float64"],
                   default="float32")
    p.add_argument("--tile", type=int, default=None,
                   help="cube tile edge (default: from --memory-budget)")
    p.add_argument("--memory-budget", type=int, default=64 * 1024 * 1024,
                   help="in-flight byte budget when --tile is unset "
                        "(default: 64 MiB)")
    p.add_argument("--out", default=None,
                   help="stream the result into this .npy memmap")
    p.add_argument("--executor", choices=["thread", "process"],
                   default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="full in-memory float64 reference check (can "
                        "dwarf the sharded path's memory bound; the "
                        "default samples a few output tiles instead)")

    p = sub.add_parser("guard-study",
                       help="guarded-vs-unguarded fault recovery study")
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--fault-epoch", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("guard-overhead",
                       help="wall-clock overhead of the guarded backend")
    p.add_argument("name", nargs="?", default="bini322")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("hotpath",
                       help="plan-cached vs cold-path throughput")
    p.add_argument("name", nargs="?", default="bini322")
    p.add_argument("--n", type=int, default=96)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--no-train", action="store_true",
                   help="skip the MLP train-step comparison")

    p = sub.add_parser(
        "lint",
        help="static verification & lint (catalog, plans, executor)")
    p.add_argument("--families", default=None,
                   help="comma-separated subset of "
                        "algorithms,plans,concurrency,engine,flow "
                        "(default: all)")
    p.add_argument("--algorithms", nargs="*", default=None,
                   help="catalog names to check (default: whole catalog)")
    p.add_argument("--paths", nargs="*", default=None,
                   help="files/dirs for the source-tree linters "
                        "(default: parallel/robustness/serve for "
                        "concurrency, the whole package for engine/flow)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to keep")
    p.add_argument("--ignore", default=None,
                   help="comma-separated rule ids to drop")
    p.add_argument("--fail-on", choices=["error", "warning", "never"],
                   default="error", help="gate threshold (default: error)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--seed-defect",
                   choices=["bini322-m10-ocr", "gen-dropped-product",
                            "asy-blocking-coroutine",
                            "lck-two-lock-cycle", "own-escaping-arena",
                            "shm-escaping-view", "num-silent-narrowing"],
                   default=None,
                   help="self-test: lint a known-bad input (corrupted "
                        "catalog entry or compiled program, or synthetic "
                        "defective package); must exit non-zero")
    p.add_argument("--baseline", default=None,
                   help="committed baseline file; fingerprinted findings "
                        "are reported but no longer gate")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline from this run's findings "
                        "and exit 0")

    p = sub.add_parser(
        "trace",
        help="run a traced guarded matmul and export the timeline")
    p.add_argument("name", nargs="?", default="strassen444")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event JSON output path "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--jsonl", default=None,
                   help="also write the raw JSONL event stream here")
    p.add_argument("--fault", default="perturb",
                   choices=["perturb", "nan", "inf", "raise", "none"],
                   help="fault injected into worker gemms so the guard "
                        "rails fire on the timeline (default: perturb)")
    p.add_argument("--gantt", action="store_true",
                   help="also print the ASCII span/instant summary")

    p = sub.add_parser("metrics",
                       help="dump the unified process metrics view")
    p.add_argument("--format", choices=["prom", "json"], default="prom")
    p.add_argument("--demo", action="store_true",
                   help="run the traced demo workload first so the "
                        "counters are non-trivial")

    p = sub.add_parser(
        "obs-overhead",
        help="tracing cost on the warm plan-cached hot path")
    p.add_argument("name", nargs="?", default="bini322")
    p.add_argument("--n", type=int, default=96)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--repeats", type=int, default=25)
    p.add_argument("--max-overhead", type=float, default=0.02,
                   help="fail (exit 1) if the disabled-tracer overhead "
                        "exceeds this fraction (default: 0.02)")

    p = sub.add_parser(
        "serve",
        help="run the APA server demo with a metrics endpoint")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of self-driving demo traffic "
                        "(default: 2.0)")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--port", type=int, default=0,
                   help="metrics endpoint port (0 = ephemeral)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "loadtest",
        help="saturate the server; per-class p50/p99 + BENCH_serve.json")
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--clients", type=int, default=12)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gold-fraction", type=float, default=0.25)
    p.add_argument("--out", default="benchmarks/out/BENCH_serve.json",
                   help="JSON output path (default: "
                        "benchmarks/out/BENCH_serve.json)")
    p.add_argument("--min-gold-hit-rate", type=float, default=0.0,
                   help="exit 1 if gold's deadline hit rate is below "
                        "this (0 disables; the bench gate uses 0.99)")

    p = sub.add_parser(
        "soak",
        help="chaos soak: injected gemm faults, concurrent clients, "
             "zero-silent-wrong gate")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--armed-fraction", type=float, default=0.5,
                   help="fraction of the run with the injector armed "
                        "(the rest exercises breaker recovery)")

    p = sub.add_parser(
        "tune",
        help="offline autotuner: build / inspect / explain dispatch tables")
    tune_sub = p.add_subparsers(dest="tune_command", required=True)
    q = tune_sub.add_parser(
        "run", help="measure the grid and persist a dispatch table")
    q.add_argument("--simulate", action="store_true",
                   help="deterministic machine-model costs (the CI path) "
                        "instead of wall-clock timings on this host")
    q.add_argument("--dims", type=int, nargs="+", default=None,
                   help="square product sizes (default: the TuneGrid grid)")
    q.add_argument("--dtypes", nargs="+", default=None,
                   help="numpy dtype names (default: float32)")
    q.add_argument("--threads-list", type=int, nargs="+", default=None,
                   dest="threads_list", help="thread counts (default: 1)")
    q.add_argument("--steps-list", type=int, nargs="+", default=None,
                   dest="steps_list", help="recursion steps (default: 1)")
    q.add_argument("--max-error", type=float, default=None,
                   help="exclude candidates above this §2.3 error floor")
    q.add_argument("--repeats", type=int, default=3,
                   help="wall-clock best-of repeats (ignored with "
                        "--simulate)")
    q.add_argument("--out", default="benchmarks/out/dispatch_table.json",
                   help="table path (default: "
                        "benchmarks/out/dispatch_table.json)")
    q = tune_sub.add_parser(
        "show", help="validate a table file and print its decisions")
    q.add_argument("path", nargs="?",
                   default="benchmarks/out/dispatch_table.json")
    q = tune_sub.add_parser(
        "explain", help="why does a tuned product of this shape run "
                        "what it runs?")
    q.add_argument("M", type=int)
    q.add_argument("K", type=int)
    q.add_argument("N", type=int)
    q.add_argument("--dtype", default="float32")
    q.add_argument("--threads", type=int, default=1)
    q.add_argument("--table", default=None,
                   help="table file (default: the installed table / "
                        "$REPRO_DISPATCH_TABLE)")

    p = sub.add_parser("save", help="write an algorithm file")
    p.add_argument("name")
    p.add_argument("path")

    p = sub.add_parser("load", help="read + verify an algorithm file")
    p.add_argument("path")
    return parser


def _cmd_list(out) -> int:
    from repro.algorithms.catalog import get_algorithm, list_algorithms

    print(f"{'name':18s} {'dims:rank':12s} {'speedup':>8s} {'sigma':>5s} "
          f"{'phi':>3s} {'error@23':>9s}  kind", file=out)
    for name in list_algorithms("all"):
        alg = get_algorithm(name)
        kind = "surrogate" if alg.is_surrogate else (
            "exact" if alg.is_exact else "APA"
        )
        print(f"{name:18s} {alg.signature():12s} "
              f"{alg.speedup_percent:7.0f}% {alg.sigma:5d} {alg.phi:3d} "
              f"{alg.error_bound(23):9.1e}  {kind}", file=out)
    return 0


def _cmd_verify(name: str, out) -> int:
    from repro.algorithms.catalog import get_algorithm
    from repro.algorithms.verify import verify_algorithm

    alg = get_algorithm(name)
    if alg.is_surrogate:
        print(f"{name} is a metadata surrogate — nothing to verify "
              "(see DESIGN.md)", file=out)
        return 1
    report = verify_algorithm(alg)
    print(f"{name} {alg.signature()}: {report.summary()}", file=out)
    return 0 if report.valid else 1


def _cmd_fig(number: int, threads: int, out) -> int:
    from repro import experiments as ex

    if number == 1:
        print(ex.format_fig1(ex.run_fig1()), file=out)
    elif number == 2:
        print(ex.format_fig2(ex.run_fig2()), file=out)
    elif number == 3:
        print(ex.format_fig3(ex.run_fig3(threads=threads)), file=out)
    elif number == 4:
        print(ex.format_fig4(), file=out)
    elif number == 5:
        print(ex.format_fig5(ex.run_fig5(
            algorithms=("bini322", "schonhage333", "smirnov444"))), file=out)
    elif number == 6:
        print(ex.format_fig6(ex.run_fig6(threads=threads)), file=out)
    else:
        print(ex.format_fig7(ex.run_fig7()), file=out)
    return 0


def _cmd_matmul(args, out) -> int:
    from repro.algorithms.catalog import get_algorithm
    from repro.core.engine import ExecutionEngine
    from repro.core.lam import optimal_lambda, precision_bits

    names = [part.strip() for part in args.name.split(",") if part.strip()]
    algs = [get_algorithm(name) for name in names]
    dtype = np.dtype(args.dtype)
    rng = np.random.default_rng(0)
    A = rng.random((args.n, args.n)).astype(dtype)
    B = rng.random((args.n, args.n)).astype(dtype)
    # A private engine: the guard report covers this command's call only.
    backend = ExecutionEngine().backend(
        algorithm=tuple(algs) if len(algs) > 1 else algs[0],
        steps=args.steps, guarded=args.guarded, executor=args.executor,
        threads=args.threads)
    C = backend.matmul(A, B)
    ref = A.astype(np.float64) @ B.astype(np.float64)
    err = float(np.linalg.norm(C - ref) / np.linalg.norm(ref))
    d = precision_bits(dtype)
    if len(algs) > 1:
        levels = " ".join(f"{a.name}{a.signature()}" for a in algs)
        print(f"non-stationary [{levels}] n={args.n} {args.dtype}",
              file=out)
        print(f"rel_error={err:.2e}", file=out)
    else:
        alg = algs[0]
        print(f"{args.name} {alg.signature()} n={args.n} "
              f"steps={args.steps} {args.dtype}", file=out)
        print(f"lambda*={optimal_lambda(alg, d=d, steps=args.steps):.2e} "
              f"rel_error={err:.2e} "
              f"bound={alg.error_bound(d=d, steps=args.steps):.2e}",
              file=out)
    if args.guarded:
        print(f"guard: {backend.calls} call(s), {backend.violations} "
              f"violation(s), {backend.fallback_calls} fallback(s)", file=out)
        for event in backend.log:
            print(f"  {event}", file=out)
    return 0


def _sampled_shard_error(A, B, C, spec, max_tiles: int = 4):
    """Relative error over a deterministic sample of output tiles.

    Stages at most one ``(tile_m, tile_n) @ (tile_n, tile_k)`` product
    at a time, so the check obeys the same memory discipline as the
    sharded product itself — a full in-memory reference would OOM on
    exactly the out-of-core inputs this subcommand exists for.
    """
    import math

    M, N = A.shape
    K = B.shape[1]
    ti, _, tp = spec.tiles(M, N, K)
    coords = [(i, p) for i in range(ti) for p in range(tp)]
    if len(coords) > max_tiles:
        rng = np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_tiles, replace=False)
        coords = [coords[int(q)] for q in sorted(picks)]
    num = 0.0
    den = 0.0
    for i, p in coords:
        r0, r1 = i * spec.tile_m, min((i + 1) * spec.tile_m, M)
        c0, c1 = p * spec.tile_k, min((p + 1) * spec.tile_k, K)
        ref = np.zeros((r1 - r0, c1 - c0), dtype=np.float64)
        for n0 in range(0, N, spec.tile_n):
            n1 = min(n0 + spec.tile_n, N)
            ref += (np.asarray(A[r0:r1, n0:n1], dtype=np.float64)
                    @ np.asarray(B[n0:n1, c0:c1], dtype=np.float64))
        diff = np.asarray(C[r0:r1, c0:c1], dtype=np.float64) - ref
        num += float(np.sum(diff * diff))
        den += float(np.sum(ref * ref))
    err = math.sqrt(num / den) if den > 0 else math.sqrt(num)
    return err, len(coords)


def _cmd_shard_matmul(args, out) -> int:
    from repro.algorithms.catalog import get_algorithm
    from repro.shard import ShardSpec, recommend_shard_spec, shard_matmul

    alg = get_algorithm(args.name)
    dtype = np.dtype(args.dtype)
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            print("shard-matmul: --a and --b must be given together",
                  file=out)
            return 2
        A = np.load(args.a, mmap_mode="r")
        B = np.load(args.b, mmap_mode="r")
    else:
        rng = np.random.default_rng(0)
        A = rng.random((args.n, args.n)).astype(dtype)
        B = rng.random((args.n, args.n)).astype(dtype)
    M, N = A.shape
    K = B.shape[1]
    if args.tile is not None:
        spec = ShardSpec.coerce(args.tile)
    else:
        spec = recommend_shard_spec(M, N, K, args.memory_budget,
                                    itemsize=A.dtype.itemsize)
    overrides = {}
    if args.executor is not None:
        overrides["executor"] = args.executor
    if args.threads is not None:
        overrides["threads"] = args.threads
    C = shard_matmul(A, B, args.name, shard=spec, out=args.out,
                     **overrides)
    ti, tj, tp = spec.tiles(M, N, K)
    if args.check:
        ref = (np.asarray(A, dtype=np.float64)
               @ np.asarray(B, dtype=np.float64))
        err = float(np.linalg.norm(np.asarray(C, dtype=np.float64) - ref)
                    / np.linalg.norm(ref))
        checked = "full"
    else:
        err, n_tiles = _sampled_shard_error(A, B, C, spec)
        checked = f"sampled {n_tiles}/{ti * tp} tiles"
    print(f"{args.name} {alg.signature()} "
          f"{M}x{N} @ {N}x{K} {A.dtype.name}", file=out)
    print(f"shard=({spec.tile_m},{spec.tile_n},{spec.tile_k}) "
          f"tiles={ti}x{tj}x{tp} "
          f"in_flight={spec.in_flight_bytes(A.dtype.itemsize)}B "
          f"executor={args.executor or 'thread'}", file=out)
    print(f"rel_error={err:.2e} ({checked})", file=out)
    if args.out is not None:
        print(f"wrote {args.out}", file=out)
    return 0


def _cmd_guard_study(args, out) -> int:
    from repro.experiments.robustness import (
        format_guarded_recovery_study,
        run_guarded_recovery_study,
    )

    result = run_guarded_recovery_study(
        fault_epoch=args.fault_epoch, epochs=args.epochs, seed=args.seed)
    print(format_guarded_recovery_study(result), file=out)
    return 0


def _cmd_guard_overhead(args, out) -> int:
    from repro.bench.guard_overhead import measure_guard_overhead

    result = measure_guard_overhead(args.name, n=args.n,
                                    repeats=args.repeats)
    print(result.describe(), file=out)
    return 0


def _cmd_hotpath(args, out) -> int:
    from repro.bench.hotpath import format_hotpath, run_hotpath

    result = run_hotpath(args.name, n=args.n, iters=args.iters,
                         steps=args.steps, repeats=args.repeats,
                         train=not args.no_train)
    print(format_hotpath(result), file=out)
    return 0


def _cmd_lint(args, out) -> int:
    from repro.staticcheck import (LintConfig, render_json, render_sarif,
                                   render_text, run_lint)
    from repro.staticcheck.rules import describe_rules
    from repro.staticcheck.runner import FAMILIES

    if args.rules:
        print(describe_rules(), file=out)
        return 0
    if args.update_baseline and not args.baseline:
        print("--update-baseline requires --baseline", file=out)
        return 2

    def _split(text):
        return tuple(part.strip() for part in text.split(",") if part.strip())

    config = LintConfig(
        families=_split(args.families) if args.families else FAMILIES,
        algorithms=tuple(args.algorithms or ()),
        paths=tuple(args.paths or ()),
        select=_split(args.select) if args.select else (),
        ignore=_split(args.ignore) if args.ignore else (),
        fail_on=args.fail_on,
        seed_defect=args.seed_defect,
        # --update-baseline must refingerprint from scratch, not
        # through the old baseline's filter.
        baseline=None if args.update_baseline else args.baseline,
    )
    result = run_lint(config)
    if args.update_baseline:
        from repro.staticcheck.baseline import write_baseline

        count = write_baseline(args.baseline, result.findings)
        print(f"wrote {args.baseline} ({count} grandfathered "
              f"finding(s))", file=out)
        return 0
    if args.format == "json":
        print(render_json(result.findings), file=out)
    elif args.format == "sarif":
        print(render_sarif(result.findings), file=out)
    else:
        if result.findings:
            print(render_text(result.findings), file=out)
        for finding in result.baselined:
            print(f"{finding.render()} [baselined]", file=out)
        print(result.summary(), file=out)
    return result.exit_code()


def _cmd_trace(args, out) -> int:
    from repro.obs.demo import run_traced_demo
    from repro.obs.export import write_chrome_trace, write_jsonl

    demo = run_traced_demo(
        args.name, n=args.n, threads=args.threads, steps=args.steps,
        fault=None if args.fault == "none" else args.fault)
    # The demo's EventLog events were forwarded to the tracer live, so
    # the export reads everything from the tracer alone.
    write_chrome_trace(args.out, demo.tracer)
    print(demo.summary(), file=out)
    print(f"wrote {args.out} (load in chrome://tracing or "
          f"https://ui.perfetto.dev)", file=out)
    if args.jsonl:
        write_jsonl(args.jsonl, demo.tracer)
        print(f"wrote {args.jsonl}", file=out)
    if args.gantt:
        for span in demo.tracer.spans:
            print(f"  span {span.name} [{span.cat}] "
                  f"{span.duration * 1e3:8.3f}ms tid={span.tid}", file=out)
        for inst in demo.tracer.instants:
            print(f"  instant {inst.name} [{inst.cat}]", file=out)
    return 0


def _cmd_metrics(args, out) -> int:
    import json

    from repro.obs import metrics
    from repro.obs.export import render_prometheus

    if args.demo:
        from repro.obs.demo import run_traced_demo

        run_traced_demo()
    unified = metrics()
    if args.format == "json":
        print(json.dumps(unified, indent=2, sort_keys=True), file=out)
    else:
        print(render_prometheus(unified), file=out, end="")
    return 0


def _cmd_obs_overhead(args, out) -> int:
    from repro.bench.obs_overhead import measure_obs_overhead

    result = measure_obs_overhead(args.name, n=args.n, iters=args.iters,
                                  repeats=args.repeats)
    print(result.describe(), file=out)
    if result.disabled_overhead > args.max_overhead:
        print(f"FAIL: disabled-tracer overhead "
              f"{result.disabled_overhead * 100:.2f}% exceeds "
              f"{args.max_overhead * 100:.2f}% budget", file=out)
        return 1
    print(f"OK: disabled-tracer overhead within "
          f"{args.max_overhead * 100:.2f}% budget", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.serve import APAServer

    async def demo() -> tuple[dict, int]:
        import time

        async with APAServer() as server:
            port = await server.start_metrics_endpoint(port=args.port)
            print(f"serving; metrics at http://127.0.0.1:{port}/metrics "
                  f"(scrape with: curl or 'repro metrics')", file=out)
            rng = np.random.default_rng(args.seed)
            pairs = [(rng.standard_normal((args.n, args.n)),
                      rng.standard_normal((args.n, args.n)))
                     for _ in range(3)]
            t_end = time.monotonic() + args.duration

            async def client(cid: int) -> None:
                qos = "gold" if cid == 0 else "silver"
                i = 0
                while time.monotonic() < t_end:
                    A, B = pairs[i % len(pairs)]
                    i += 1
                    await server.submit(A, B, qos=qos)

            await asyncio.gather(*(client(c)
                                   for c in range(args.clients)))
            return dict(server.stats), port

    stats, _ = asyncio.run(demo())
    print(f"done: {stats['submitted']} submitted, "
          f"{stats['completed']} completed, {stats['shed']} shed, "
          f"{stats['coalesced_items']} coalesced into "
          f"{stats['coalesced_batches']} batches", file=out)
    return 0


def _cmd_loadtest(args, out) -> int:
    import json
    from pathlib import Path

    from repro.serve import run_loadtest

    result = run_loadtest(duration_s=args.duration, clients=args.clients,
                          n=args.n, seed=args.seed,
                          gold_fraction=args.gold_fraction)
    print(result.summary(), file=out)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    print(f"wrote {path}", file=out)
    if args.min_gold_hit_rate > 0:
        rate = result.per_class.get("gold", {}).get("deadline_hit_rate",
                                                    0.0)
        if rate < args.min_gold_hit_rate:
            print(f"FAIL: gold deadline hit rate {rate:.3f} < "
                  f"{args.min_gold_hit_rate:.2f}", file=out)
            return 1
    return 0


def _cmd_tune(args, out) -> int:
    from repro.tune import (
        TuneGrid,
        explain,
        install_dispatch_table,
        load_dispatch_table,
        tune_dispatch_table,
    )

    if args.tune_command == "run":
        grid_kwargs = {}
        if args.dims is not None:
            grid_kwargs["dims"] = tuple(args.dims)
        if args.dtypes is not None:
            grid_kwargs["dtypes"] = tuple(args.dtypes)
        if args.threads_list is not None:
            grid_kwargs["threads"] = tuple(args.threads_list)
        if args.steps_list is not None:
            grid_kwargs["steps"] = tuple(args.steps_list)
        if args.max_error is not None:
            grid_kwargs["max_error"] = args.max_error
        table = tune_dispatch_table(
            TuneGrid(**grid_kwargs), simulate=args.simulate,
            repeats=args.repeats,
            progress=lambda line: print(f"  {line}", file=out))
        path = table.save(args.out)
        print(f"wrote {path} ({len(table)} cells, {table.source})", file=out)
        return 0
    if args.tune_command == "show":
        from repro.tune.table import DispatchTableError

        try:
            table = load_dispatch_table(args.path)
        except DispatchTableError as exc:
            print(f"invalid dispatch table: {exc}", file=out)
            return 1
        print(table.summary(), file=out)
        return 0
    # explain
    if args.table is not None:
        install_dispatch_table(args.table)
    print(explain(args.M, args.K, args.N, dtype=args.dtype,
                  threads=args.threads), file=out)
    return 0


def _cmd_soak(args, out) -> int:
    from repro.serve import run_chaos_soak

    report = run_chaos_soak(duration_s=args.duration, clients=args.clients,
                            n=args.n, seed=args.seed,
                            armed_fraction=args.armed_fraction)
    print(report.summary(), file=out)
    for problem in report.problems:
        print(f"  problem: {problem}", file=out)
    return 1 if report.problems else 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.command == "list":
        return _cmd_list(out)
    if args.command == "verify":
        return _cmd_verify(args.name, out)
    if args.command == "info":
        from repro.algorithms.analysis import analyze_algorithm

        print(analyze_algorithm(args.name, crossover=args.crossover).describe(),
              file=out)
        return 0
    if args.command == "table1":
        from repro.experiments.table1_properties import format_table1

        print(format_table1(), file=out)
        return 0
    if args.command == "fig":
        return _cmd_fig(args.number, args.threads, out)
    if args.command == "matmul":
        return _cmd_matmul(args, out)
    if args.command == "shard-matmul":
        return _cmd_shard_matmul(args, out)
    if args.command == "guard-study":
        return _cmd_guard_study(args, out)
    if args.command == "guard-overhead":
        return _cmd_guard_overhead(args, out)
    if args.command == "hotpath":
        return _cmd_hotpath(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "metrics":
        return _cmd_metrics(args, out)
    if args.command == "obs-overhead":
        return _cmd_obs_overhead(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "loadtest":
        return _cmd_loadtest(args, out)
    if args.command == "tune":
        return _cmd_tune(args, out)
    if args.command == "soak":
        return _cmd_soak(args, out)
    if args.command == "save":
        from repro.algorithms.catalog import get_algorithm
        from repro.algorithms.io import save_algorithm

        path = save_algorithm(get_algorithm(args.name), args.path)
        print(f"wrote {path}", file=out)
        return 0
    if args.command == "load":
        from repro.algorithms.io import load_algorithm

        alg = load_algorithm(args.path)
        print(f"loaded {alg.name} {alg.signature()} (verified)", file=out)
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
