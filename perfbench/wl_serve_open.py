"""serve-open: Poisson arrivals from one asyncio process to ``APAServer``.

The server runs two worker threads.  Its classes are the stock
load-test mix (``default_loadtest_classes``): a non-sheddable ``gold``
class on strassen222 and a sheddable, coalescible ``bulk`` class, here
on bini322, plus ``ref``, a copy of ``bulk`` on plain gemm that prices
the same traffic classically, for the speedup.  No traffic data exists,
so each request draws its class and its n in {32, 64, 128} uniformly.
A fixed ladder of offered rates runs below and above saturation; the
first two rungs give the latency figures.  Each request is timed from
when it was due, so a stalled generator charges the wait to the
requests behind it, and the generator's own lateness is reported.  The
seed draws the arrival times, the request mix and the operand values.

This is the only workload that reaches admission, coalescing, the
degradation ladder and shedding; latency rises here before throughput
stops.  Shed and degraded requests are the designed response to
overload: they count against the latency limit of their rung, not as
failed operations.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

import numpy as np

from harness import LayerProbe, Outcome, error_bound, latency_metrics, \
    median, plan_adds, rel_err


SIZES = (32, 64, 128)
#: Offered rates (requests/s); the first LATENCY_RUNGS are below saturation.
LADDER = (1000.0, 2000.0, 4000.0, 8000.0)
LATENCY_RUNGS = 2
#: The p99 latency limit a rung must meet, shed requests counting as
#: misses; a rung whose requests take over DRAIN_LIMIT_S to finish after
#: its last arrival has a growing backlog.
SLO_P99_S = 0.010
DRAIN_LIMIT_S = 0.050
#: Highest tail percentile reported (see ``harness.tail``).  Over six
#: seeds p99 spread 17% between runs (thread wake-ups and interpreter
#: lock hand-offs); p90 over every request of the latency rungs spread
#: 9% over ten seeds.
TAIL_TOP = 90.0
#: The median latency is a median over windows of this length (by due
#: time): a burst of load from another tenant delays thread wake-ups,
#: and with them every request in flight.
WINDOW_S = 0.5
POOL = 16
WORKERS = 2


def _classes() -> dict[str, Any]:
    """The stock load-test mix with bulk on bini322, plus the ``ref``
    slice: bulk's QoS on plain gemm."""
    from dataclasses import replace

    from repro.core.config import ExecutionConfig
    from repro.serve.loadtest import default_loadtest_classes

    classes = default_loadtest_classes()
    bulk = classes["bulk"]
    classes["bulk"] = replace(bulk,
                              execution=ExecutionConfig(algorithm="bini322"))
    classes["ref"] = replace(bulk, name="ref", execution=ExecutionConfig())
    return classes


def _server_config() -> Any:
    from repro.serve.server import ServeConfig

    return ServeConfig(max_queue=64, workers=WORKERS, max_batch=8,
                       retries=1, log_cap=512)


class Workload:
    def __init__(self, seed: int, scratch: Any) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.operands = {
            n: [(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
                for _ in range(POOL)]
            for n in SIZES}
        self.schedule_rng = np.random.default_rng((self.seed, 7))
        self.classes = _classes()
        asyncio.run(self._warm())

    async def _warm(self) -> None:
        from repro.serve.server import APAServer

        async with APAServer(classes=self.classes,
                             config=_server_config()) as server:
            for n in SIZES:
                A, B = self.operands[n][0]
                for qos in self.classes:
                    await server.submit(A, B, qos=qos)

    def close(self) -> None:
        pass

    def prepare_oracle(self) -> None:
        self.refs = {n: [A @ B for A, B in pairs]
                     for n, pairs in self.operands.items()}
        self.bounds = {(qos, n): error_bound(cls.execution.algorithm,
                                             np.float64, 1, n)
                       for qos, cls in self.classes.items() for n in SIZES}

    def _arrivals(self, rate: float, duration: float) -> list[tuple]:
        rng = self.schedule_rng
        count = rng.poisson(rate * duration)
        times = np.sort(rng.uniform(0.0, duration, size=count))
        sizes = rng.integers(0, len(SIZES), size=count)
        names = list(self.classes)
        kinds = rng.integers(0, len(names), size=count)
        pairs = rng.integers(0, POOL, size=count)
        return [(float(t), SIZES[s], names[k], int(p))
                for t, s, k, p in zip(times, sizes, kinds, pairs)]

    def run(self, seconds: float, out: Outcome,
            probe: LayerProbe | None) -> dict[str, Any]:
        rung_s = seconds / len(LADDER)
        return asyncio.run(self._drive(rung_s, out))

    async def _drive(self, rung_s: float, out: Outcome) -> dict[str, Any]:
        from repro.serve.server import APAServer

        rungs = []
        async with APAServer(classes=self.classes,
                             config=_server_config()) as server:
            t_start = time.perf_counter()
            for rate in LADDER:
                rungs.append(await self._rung(server, rate, rung_s, out))
            wall = time.perf_counter() - t_start
            stats = dict(server.stats)
        low = [r for rung in rungs[:LATENCY_RUNGS] for r in rung["done"]]
        return {"rungs": rungs, "wall": wall, "server": stats,
                "lat": [r["latency"] for r in low],
                "stamps": [r["due"] for r in low]}

    async def _rung(self, server: Any, rate: float, duration: float,
                    out: Outcome) -> dict[str, Any]:
        loop_start = time.perf_counter()
        done: list[dict[str, Any]] = []
        shed = 0
        lags: list[float] = []

        async def request(due: float, n: int, qos: str, pair: int) -> None:
            nonlocal shed
            A, B = self.operands[n][pair]
            try:
                resp = await server.submit(A, B, qos=qos)
            except Exception as exc:  # a benchmark boundary: count it
                out.fail(f"{qos} n={n}: {type(exc).__name__}: {exc}")
                return
            finished = time.perf_counter()
            if resp.status == "shed":
                shed += 1
                return
            err = rel_err(resp.result, self.refs[n][pair])
            out.check_error(f"{qos} n={n} ({resp.status})", err,
                            self.bounds[(qos, n)])
            done.append({"latency": finished - due, "due": due,
                         "server": resp.latency_s,
                         "qos": qos, "n": n, "err": err,
                         "status": resp.status,
                         "missed": resp.deadline_missed})

        tasks = []
        for offset, n, qos, pair in self._arrivals(rate, duration):
            due = loop_start + offset
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            lags.append(now - due)
            out.attempted += 1
            tasks.append(asyncio.create_task(request(due, n, qos, pair)))
        await asyncio.gather(*tasks)
        drain = time.perf_counter() - loop_start - duration
        return {"rate": rate, "done": done, "shed": shed, "lags": lags,
                "attempted": len(tasks), "drain": drain}

    def _meets_slo(self, rung: dict[str, Any]) -> bool:
        """p99 within the limit (at most 1% of attempts late or shed) and
        no growing backlog."""
        late = sum(r["latency"] > SLO_P99_S for r in rung["done"])
        return (rung["attempted"] > 0
                and late + rung["shed"] <= 0.01 * rung["attempted"]
                and rung["drain"] <= DRAIN_LIMIT_S)

    def end_to_end(self, stats: dict[str, Any], out: Outcome) -> None:
        latency_metrics(out, stats["lat"], TAIL_TOP, stats["stamps"],
                        WINDOW_S)
        rates = "/".join(f"{r:g}" for r in LADDER[:LATENCY_RUNGS])
        out.notes["latency_p50_ms"] += f", rungs {rates} req/s"
        done = [r for rung in stats["rungs"] for r in rung["done"]]
        flops = sum(2.0 * r["n"] ** 3 for r in done)
        out.metrics["gflops_eff"] = flops / stats["wall"] / 1e9
        out.notes["gflops_eff"] = (
            f"{len(done) / stats['wall']:.0f} completed req/s over the "
            f"ladder; max rate at p99<={SLO_P99_S * 1e3:g} ms: "
            f"{self._max_rate(stats):g} req/s")
        # Both classes draw sizes from the same mix, so their pooled
        # medians compare like with like.
        low = [r for rung in stats["rungs"][:LATENCY_RUNGS]
               for r in rung["done"]]
        ref = median(r["server"] for r in low if r["qos"] == "ref")
        apa = median(r["server"] for r in low if r["qos"] == "bulk")
        out.metrics["apa_speedup"] = ref / apa if apa else 0.0
        out.notes["apa_speedup"] = ("classical/bini322 median server "
                                    f"latency, rungs {rates} req/s")
        out.metrics["rel_err_max"] = max((r["err"] for r in done),
                                         default=0.0)

    def _max_rate(self, stats: dict[str, Any]) -> float:
        best = 0.0
        for rung in stats["rungs"]:
            if self._meets_slo(rung):
                best = rung["rate"]
        return best

    def per_layer(self, stats: dict[str, Any], probe: LayerProbe,
                  out: Outcome) -> None:
        rungs = stats["rungs"]
        attempted = sum(r["attempted"] for r in rungs)
        done = [r for rung in rungs for r in rung["done"]]
        server = stats["server"]
        out.metrics["serve.queue_ms"] = median(
            (r["latency"] - r["server"]) * 1e3 for r in done)
        coalesced = server["coalesced_items"]
        calls = server["coalesced_batches"] + len(done) - coalesced
        out.metrics["serve.batch_size_mean"] = len(done) / calls if calls else 0
        if attempted:
            out.metrics["serve.degraded_frac"] = sum(
                r["status"] == "degraded" for r in done) / attempted
            out.metrics["serve.shed_frac"] = sum(
                r["shed"] for r in rungs) / attempted
            out.metrics["serve.deadline_miss_frac"] = sum(
                r["missed"] for r in done) / attempted
        lags = [lag * 1e3 for rung in rungs for lag in rung["lags"]]
        if lags:
            out.metrics["serve.gen_lag_ms"] = float(np.percentile(lags, 99))
            out.notes["serve.gen_lag_ms"] = "p99 of generator lateness"
        out.metrics["serve.max_rate_at_slo"] = self._max_rate(stats)
        out.notes["serve.max_rate_at_slo"] = (
            f"p99 <= {SLO_P99_S * 1e3:g} ms incl. shed, no growing backlog")
        plans = probe.take_plans()
        if plans:
            out.metrics["plan.adds_per_call"] = (
                sum(plan_adds(p) for p in plans) / len(plans))
