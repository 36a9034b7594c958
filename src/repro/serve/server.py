"""Fault-tolerant asyncio front-end over the :class:`ExecutionEngine`.

``APAServer`` accepts concurrent matmul requests and answers every one
of them *explicitly*: a response is either a completed product (at the
admitted config, or on a declared degraded rung) or an explicit shed —
never a silent hang and never a silently-wrong array.  The moving
parts, front to back:

- **Admission** (:meth:`APAServer.submit`, event-loop thread): the
  request's :class:`~repro.serve.qos.QoSClass` is resolved into one
  :class:`~repro.core.config.ExecutionConfig` via the engine's normal
  layering, then checked against the admission circuit breaker (open
  breaker → classical route or shed), the degradation ladder (SHED rung
  → sheddable requests refused), and the bounded priority queue (full
  queue → shed, with non-sheddable requests allowed to evict the worst
  queued sheddable one).
- **Coalescing**: queued requests whose admitted config and operand
  shape/dtype allow the engine's batched lane share a *coalesce key*;
  the dispatcher stacks them into one batched (3-D) engine call in
  stacked mode, bit-identical to per-request execution (pinned by test).
- **Execution** (private thread pool — deliberately *not*
  :mod:`repro.parallel.pool`, whose workers the engine's threaded path
  itself uses): per-request deadline enforcement, retries with
  decorrelated-jitter backoff, and a final trusted ``np.matmul``
  fallback so exhausted retries degrade instead of failing.
- **Degradation** (:class:`~repro.serve.degrade.DegradationLadder`):
  sustained queue/latency pressure steps all traffic down the
  full APA → reduced steps → classical → shed ladder, with hysteresis.
- **Observability**: queue depth, shed/degraded counters, breaker
  state, and per-class latency histograms in the process registry
  (``repro_serve_*``), served as Prometheus text by
  :meth:`APAServer.start_metrics_endpoint`; robustness events land in
  a bounded ring-buffer :class:`~repro.robustness.events.EventLog`.

Threading contract (PAR001 is enforced on this package): all mutable
server state — the queue heap, stats, ladder, breaker bookkeeping — is
touched only from the event-loop thread.  Worker-thread closures handed
to ``run_in_executor`` return values and never write closed-over state;
the only cross-thread objects they touch (EventLog, CircuitBreaker
internals via GuardedBackend) carry their own locks.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ExecutionConfig
from repro.core.engine import ExecutionEngine, default_engine
from repro.obs import metrics as obs_metrics
from repro.obs.export import render_prometheus
from repro.obs.registry import default_registry
from repro.parallel.backoff import BackoffPolicy
from repro.robustness.events import EventLog
from repro.robustness.guard import GuardedBackend
from repro.robustness.policy import CircuitBreaker, shape_class
from repro.serve.degrade import (DegradationLadder, DegradationLevel,
                                 LadderConfig)
from repro.serve.qos import QoSClass, default_qos_classes

__all__ = ["ServeConfig", "MatmulResponse", "APAServer"]


@dataclass(frozen=True)
class ServeConfig:
    """Server-wide knobs (per-request knobs live on the QoS class)."""

    #: Admission queue bound; beyond it requests are shed or evict.
    max_queue: int = 128
    #: Size of the private execution thread pool = max concurrent
    #: batches in flight.
    workers: int = 4
    #: Most requests one stacked batched call may carry.
    max_batch: int = 8
    #: Extra wait after popping a coalescible request to let same-key
    #: work accumulate (0 = take only what is already queued).
    coalesce_window_s: float = 0.0
    #: Re-execution attempts after a failed one (server-level; engine
    #: ``retries`` inside a config are a separate per-job knob).
    retries: int = 1
    #: Pacing between those attempts.
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.002, cap=0.050))
    #: Admission breaker: strikes to open / denials before a probe.
    breaker_strikes: int = 3
    breaker_cooldown: int = 8
    #: Open breaker at admission: shed sheddable requests instead of
    #: routing them to the classical rung.
    shed_on_open_breaker: bool = False
    ladder: LadderConfig = field(default_factory=LadderConfig)
    #: Ring capacity of the server's EventLog.
    log_cap: int = EventLog.DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")


@dataclass
class MatmulResponse:
    """What the server owes every submitted request.

    ``status`` is the explicit contract of the acceptance criteria:

    - ``'ok'`` — computed with the admitted config (guard interventions
      included: the guard preserves the class's error budget, and its
      actions are visible in ``detail``/the event log);
    - ``'degraded'`` — computed on a lower rung (reduced steps or the
      trusted classical baseline) and says so in ``detail``;
    - ``'shed'`` — refused; ``result`` is ``None``.
    """

    status: str
    result: np.ndarray | None
    qos: str
    level: DegradationLevel
    latency_s: float
    detail: str = ""
    attempts: int = 1
    coalesced: int = 0
    deadline_missed: bool = False

    @property
    def completed(self) -> bool:
        return self.result is not None


@dataclass
class _Pending:
    """One admitted request waiting in the priority heap."""

    seq: int
    A: np.ndarray
    B: np.ndarray
    qos: QoSClass
    cfg: ExecutionConfig
    deadline: float
    t_admit: float
    future: asyncio.Future
    coalesce_key: tuple | None = None
    guard: GuardedBackend | None = None
    breaker_key: tuple[str, str] | None = None
    probe: bool = False
    force_classical: str = ""


def _alg_name(cfg: ExecutionConfig) -> str:
    alg = cfg.algorithm
    if alg is None:
        return "classical"
    if isinstance(alg, (tuple, list)):
        return "+".join(getattr(a, "name", str(a)) for a in alg)
    return getattr(alg, "name", str(alg))


def _coalesce_key(cfg: ExecutionConfig, A: np.ndarray,
                  B: np.ndarray) -> tuple | None:
    """Key under which requests may share one stacked batched call.

    ``None`` marks the request non-coalescible.  The conditions mirror
    the engine's batched-lane contract *plus* bit-identity with the
    per-request path: the 2-D request must take the sequential lane
    (no retries/timeout/check_finite, which force the threaded path)
    and ``min_dim`` must be unset (the batched lane has no classical
    small-product shortcut).
    """
    if (cfg.guarded or cfg.randomized or cfg.stages
            or cfg.fault is not None or cfg.gemm is not None
            or cfg.schedule is not None or (cfg.threads or 1) > 1
            or (cfg.steps or 1) > 1
            or cfg.batch_mode not in (None, "stacked")
            or cfg.retries or cfg.timeout is not None or cfg.check_finite
            or cfg.min_dim
            or cfg.algorithm is None
            or isinstance(cfg.algorithm, (tuple, list))
            or A.ndim != 2 or B.ndim != 2
            or A.dtype != B.dtype or A.dtype.kind != "f"):
        return None
    return (_alg_name(cfg), A.shape, B.shape, A.dtype.str, cfg.lam, cfg.d,
            cfg.plan_cache is None)


class APAServer:
    """Bounded-queue, deadline-aware matmul server over one engine."""

    def __init__(self, classes: dict[str, QoSClass] | None = None,
                 config: ServeConfig | None = None,
                 engine: ExecutionEngine | None = None) -> None:
        self.classes = dict(classes) if classes else default_qos_classes()
        self.config = config or ServeConfig()
        self._engine = engine or default_engine()
        self.log = EventLog(cap=self.config.log_cap)
        self.breaker = CircuitBreaker(
            strikes_to_open=self.config.breaker_strikes,
            cooldown_calls=self.config.breaker_cooldown)
        self.ladder = DegradationLadder(self.config.ladder, log=self.log)
        self.stats: dict[str, int] = {
            "submitted": 0, "admitted": 0, "shed": 0, "degraded": 0,
            "completed": 0, "coalesced_batches": 0, "coalesced_items": 0,
            "max_batch": 0, "probes": 0, "evicted": 0,
        }
        self._heap: list[tuple[int, int, _Pending]] = []
        self._seq = itertools.count()
        self._guards: dict[tuple[str, str], GuardedBackend] = {}
        self._running = False
        self._pool: ThreadPoolExecutor | None = None
        self._wakeup: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._dispatcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._metrics_server: asyncio.AbstractServer | None = None
        self._last_ratio = 0.0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.workers)
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch")

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        assert self._wakeup is not None and self._dispatcher is not None
        self._wakeup.set()
        await self._dispatcher
        if self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        while self._heap:
            _, _, item = heapq.heappop(self._heap)
            self._resolve_shed(item, "server shutdown")
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        assert self._pool is not None
        # shutdown(wait=True) joins worker threads — off the loop thread,
        # or every other coroutine stalls behind the drain.
        pool, self._pool = self._pool, None
        await asyncio.get_running_loop().run_in_executor(None, pool.shutdown)

    async def __aenter__(self) -> "APAServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- admission -----------------------------------------------------

    async def submit(self, A: np.ndarray, B: np.ndarray, *,
                     qos: str = "silver", deadline_s: float | None = None,
                     algorithm: str | None = None) -> MatmulResponse:
        """Admit one product request and await its response.

        ``deadline_s`` may tighten (never loosen) the class deadline;
        ``algorithm`` overrides the class's algorithm choice.  Raises
        ``ValueError`` for malformed requests, ``RuntimeError`` when the
        server is not running; every *admitted* request resolves to a
        :class:`MatmulResponse`, never an exception.
        """
        if not self._running:
            raise RuntimeError("server is not running (use 'async with' "
                               "or await start())")
        if qos not in self.classes:
            raise ValueError(f"unknown QoS class {qos!r}; "
                             f"known: {sorted(self.classes)}")
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"bad operand shapes {A.shape} @ {B.shape}")
        cls = self.classes[qos]
        self.stats["submitted"] += 1
        self._counter("repro_serve_requests_total",
                      "Requests submitted to the APA server.").inc()
        now = time.monotonic()
        budget = cls.deadline_s
        if deadline_s is not None:
            budget = min(budget, deadline_s)
        cfg = self._engine.resolve(
            cls.config(), **({"algorithm": algorithm} if algorithm else {}))

        item = _Pending(
            seq=next(self._seq), A=A, B=B, qos=cls, cfg=cfg,
            deadline=now + budget, t_admit=now,
            future=asyncio.get_running_loop().create_future())

        # Ladder gate: at the SHED rung, sheddable traffic is refused
        # outright; non-sheddable traffic rides through (execution will
        # classicalize it).
        if self.ladder.level >= DegradationLevel.SHED and cls.sheddable:
            self._resolve_shed(item, "degradation ladder at SHED")
            return await self._await_shed(item)

        # Admission breaker: keyed like the guard's breaker, by
        # (algorithm, shape class).  An open breaker routes to the
        # trusted classical rung (or sheds, when configured) without
        # spending fast-path work; every cooldown_calls-th denial is
        # admitted as the half-open probe.
        if cfg.algorithm is not None:
            key = (_alg_name(cfg),
                   shape_class(A.shape[0], A.shape[1], B.shape[1]))
            item.breaker_key = key
            was_open = self.breaker.is_open(key)
            if not self.breaker.allow(key):
                if self.config.shed_on_open_breaker and cls.sheddable:
                    self._resolve_shed(item, f"breaker open for {key}")
                    return await self._await_shed(item)
                item.force_classical = (
                    f"admission breaker open for {key[0]}/{key[1]}")
                item.breaker_key = None  # classical route: no verdict
            elif was_open:
                item.probe = True
                self.stats["probes"] += 1
                self.log.emit("breaker-probe", "serve",
                              f"half-open probe for {key[0]}/{key[1]}")

        if not item.force_classical:
            if cfg.guarded:
                item.guard = self._guard_for(qos, cfg)
            else:
                item.coalesce_key = _coalesce_key(cfg, A, B)

        if len(self._heap) >= self.config.max_queue \
                and not self._evict_for(item):
            self._resolve_shed(item, "admission queue full")
            return await self._await_shed(item)

        heapq.heappush(self._heap, (cls.priority, item.seq, item))
        self.stats["admitted"] += 1
        self._counter(f"repro_serve_admitted_total_{qos}",
                      f"Requests admitted for QoS class {qos}.").inc()
        self._update_gauges()
        assert self._wakeup is not None
        self._wakeup.set()
        return await item.future

    async def _await_shed(self, item: _Pending) -> MatmulResponse:
        """Return a synchronously-shed response, yielding the loop once.

        ``submit`` sheds some requests before ever suspending, which
        leaves an *already-done* future — and awaiting a done future
        does not yield.  A caller retrying sheds in a tight loop would
        then monopolize the event loop and starve the dispatcher (and
        every other client), turning transient overload into permanent
        shedding.  The explicit ``sleep(0)`` makes every submit call a
        scheduling point.
        """
        await asyncio.sleep(0)
        return item.future.result()

    def _evict_for(self, incoming: _Pending) -> bool:
        """Full queue: evict the worst queued sheddable request, maybe.

        Only a non-sheddable incoming request may evict, and only
        strictly lower-priority sheddable victims qualify — shedding
        like-for-like would just churn the queue.
        """
        if incoming.qos.sheddable:
            return False
        victim_idx = -1
        for idx, (prio, seq, item) in enumerate(self._heap):
            if not item.qos.sheddable or prio <= incoming.qos.priority:
                continue
            if victim_idx < 0 or (prio, seq) > self._heap[victim_idx][:2]:
                victim_idx = idx
        if victim_idx < 0:
            return False
        _, _, victim = self._heap.pop(victim_idx)
        heapq.heapify(self._heap)
        self.stats["evicted"] += 1
        self._resolve_shed(victim, "evicted by non-sheddable arrival")
        return True

    def _guard_for(self, qos: str, cfg: ExecutionConfig) -> GuardedBackend:
        """Server-owned guard per (class, algorithm): its escalation
        events and breaker land in *this* server's ring buffer.

        Built through the backend-stack subsystem so every stage the
        config activates below the guard (randomized, trace) is in
        place — the ``stabilized`` error budget's signed-permutation
        transform runs *inside* the guard's residual probe.
        """
        key = (qos, _alg_name(cfg))
        guard = self._guards.get(key)
        if guard is None:
            from repro.backends.stack import BackendStack

            stack = BackendStack.from_config(
                cfg, engine=self._engine, log=self.log)
            guard = stack.guard
            if guard is None:  # pragma: no cover - guarded cfg guaranteed
                raise ValueError("config has no guard stage")
            self._guards[key] = guard
        return guard

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None and self._slots is not None
        while self._running:
            if not self._heap:
                self._wakeup.clear()
                if self._heap or not self._running:
                    continue
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=0.05)
                except TimeoutError:
                    pass
                continue
            await self._slots.acquire()
            if not self._heap or not self._running:
                self._slots.release()
                continue
            batch = await self._take_batch()
            task = asyncio.get_running_loop().create_task(
                self._execute_batch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        assert self._slots is not None
        self._slots.release()

    async def _take_batch(self) -> list[_Pending]:
        _, _, first = heapq.heappop(self._heap)
        batch = [first]
        if first.coalesce_key is None or self.config.max_batch < 2:
            self._update_gauges()
            return batch
        if (self.config.coalesce_window_s > 0
                and len(self._heap) < self.config.max_batch - 1):
            # Give a burst a moment to pile up behind the first request
            # (bounded by its deadline slack).
            slack = first.deadline - time.monotonic()
            await asyncio.sleep(
                min(self.config.coalesce_window_s, max(0.0, slack * 0.25)))
        keep: list[tuple[int, int, _Pending]] = []
        for entry in self._heap:
            if (len(batch) < self.config.max_batch
                    and entry[2].coalesce_key == first.coalesce_key):
                batch.append(entry[2])
            else:
                keep.append(entry)
        if len(batch) > 1:
            self._heap = keep
            heapq.heapify(self._heap)
            batch.sort(key=lambda it: it.seq)
        self._update_gauges()
        return batch

    # -- execution -----------------------------------------------------

    async def _execute_batch(self, batch: list[_Pending]) -> None:
        try:
            await self._execute_batch_inner(batch)
        except Exception as exc:  # never let a dispatch task die silently
            for item in batch:
                if not item.future.done():
                    self._resolve(item, "shed", None,
                                  DegradationLevel.SHED,
                                  f"internal error: {exc!r}")

    async def _execute_batch_inner(self, batch: list[_Pending]) -> None:
        now = time.monotonic()
        level = self.ladder.observe(
            len(self._heap) / self.config.max_queue, self._last_ratio)
        self._update_gauges()

        live: list[_Pending] = []
        for item in batch:
            if now >= item.deadline:
                if item.qos.sheddable:
                    self._resolve_shed(
                        item, "deadline expired before dispatch")
                    continue
                item.force_classical = (item.force_classical
                                        or "deadline expired before "
                                           "dispatch")
            live.append(item)
        if not live:
            return

        coalescible = (len(live) > 1
                       and live[0].coalesce_key is not None
                       and level < DegradationLevel.CLASSICAL
                       and not any(it.force_classical for it in live))
        if coalescible:
            await self._run_coalesced(live, level)
        else:
            for item in live:
                await self._run_single(item, level)

        ratios = [(time.monotonic() - it.t_admit) / it.qos.deadline_s
                  for it in live]
        self._last_ratio = max(ratios)

    async def _run_coalesced(self, items: list[_Pending],
                             level: DegradationLevel) -> None:
        loop = asyncio.get_running_loop()
        cfg = self.ladder.apply(items[0].cfg, level)
        engine = self._engine

        def work() -> np.ndarray:
            A3 = np.stack([it.A for it in items])
            B3 = np.stack([it.B for it in items])
            return engine.execute(A3, B3, cfg)

        result, attempts, error = await self._attempt(loop, work,
                                                      key=items[0].seq)
        self.stats["coalesced_batches"] += 1
        self.stats["coalesced_items"] += len(items)
        self.stats["max_batch"] = max(self.stats["max_batch"], len(items))
        self._counter("repro_serve_coalesced_total",
                      "Requests executed inside a stacked batched call."
                      ).inc(len(items))
        if result is not None:
            for idx, item in enumerate(items):
                self._note_breaker(item, ok=True)
                self._resolve(item, "ok", result[idx],
                              DegradationLevel.FULL, "", attempts=attempts,
                              coalesced=len(items))
            return
        # Batch exhausted its retries: trusted classical rung, per item.
        A_list = [it.A for it in items]
        B_list = [it.B for it in items]

        def rescue() -> list[np.ndarray]:
            return [np.matmul(a, b) for a, b in zip(A_list, B_list)]

        products = await loop.run_in_executor(self._pool, rescue)
        for item, C in zip(items, products):
            self._note_breaker(item, ok=False)
            self._resolve(item, "degraded", C, DegradationLevel.CLASSICAL,
                          f"retries exhausted ({error}); classical rung",
                          attempts=attempts, coalesced=len(items))

    async def _run_single(self, item: _Pending,
                          level: DegradationLevel) -> None:
        loop = asyncio.get_running_loop()
        if item.force_classical:
            cfg = ExecutionConfig()
            eff_level = DegradationLevel.CLASSICAL
            detail = item.force_classical
        elif item.guard is not None:
            # Guarded requests own their error budget end to end; the
            # ladder either leaves them alone or classicalizes them.
            if level < DegradationLevel.CLASSICAL:
                await self._run_guarded(loop, item)
                return
            cfg = ExecutionConfig()
            eff_level = DegradationLevel.CLASSICAL
            detail = f"ladder at {level.name}"
        else:
            cfg = self.ladder.apply(item.cfg, level)
            if cfg is item.cfg:
                eff_level = DegradationLevel.FULL
                detail = ""
            else:
                eff_level = min(level, DegradationLevel.CLASSICAL)
                detail = f"ladder at {level.name}"

        engine = self._engine
        A, B = item.A, item.B

        def work() -> np.ndarray:
            return engine.execute(A, B, cfg)

        result, attempts, error = await self._attempt(loop, work,
                                                      key=item.seq)
        if result is not None:
            if eff_level == DegradationLevel.FULL:
                self._note_breaker(item, ok=True)
                self._resolve(item, "ok", result, eff_level, detail,
                              attempts=attempts)
            else:
                self._resolve(item, "degraded", result, eff_level, detail,
                              attempts=attempts)
            return

        def rescue() -> np.ndarray:
            return np.matmul(A, B)

        C = await loop.run_in_executor(self._pool, rescue)
        self._note_breaker(item, ok=False)
        self._resolve(item, "degraded", C, DegradationLevel.CLASSICAL,
                      f"retries exhausted ({error}); classical rung",
                      attempts=attempts)

    async def _run_guarded(self, loop: asyncio.AbstractEventLoop,
                           item: _Pending) -> None:
        guard = item.guard
        assert guard is not None
        v0, d0 = guard.violations, guard.denied_calls
        A, B = item.A, item.B

        def work() -> np.ndarray:
            return guard.matmul(A, B)

        result, attempts, error = await self._attempt(loop, work,
                                                      key=item.seq)
        if result is None:
            def rescue() -> np.ndarray:
                return np.matmul(A, B)

            C = await loop.run_in_executor(self._pool, rescue)
            self._note_breaker(item, ok=False)
            self._resolve(item, "degraded", C, DegradationLevel.CLASSICAL,
                          f"retries exhausted ({error}); classical rung",
                          attempts=attempts)
            return
        # Counter deltas are attribution, not accounting: concurrent
        # requests on one guard may mis-attribute a violation to their
        # neighbor.  That only shifts *which* request feeds the breaker
        # and colors the detail string — the response contract is
        # unaffected, because whatever the guard answered (fast path,
        # escalated recompute, or its own classical fallback) is within
        # the class's error budget by the guard's construction.  Only
        # server-executed classical rungs claim CLASSICAL.
        violated = guard.violations > v0
        denied = guard.denied_calls > d0
        self._note_breaker(item, ok=not (violated or denied))
        detail = ("guard intervened within error budget"
                  if violated or denied else "")
        self._resolve(item, "ok", result, DegradationLevel.FULL,
                      detail, attempts=attempts)

    async def _attempt(self, loop: asyncio.AbstractEventLoop, work,
                       key: int) -> tuple[np.ndarray | None, int, str]:
        """Run ``work`` in the pool with retry + async jittered backoff."""
        seq = self.config.backoff.sequence(key=key)
        error = ""
        for attempt in range(1, self.config.retries + 2):
            try:
                result = await loop.run_in_executor(self._pool, work)
                return result, attempt, ""
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                self.log.emit("worker-error", "serve", error,
                              attempt=attempt)
                if attempt <= self.config.retries:
                    delay = seq.next_delay()
                    self.log.emit("backoff", "serve",
                                  f"slept {delay * 1e3:.3f} ms before "
                                  "retry", attempt=attempt)
                    await asyncio.sleep(delay)
        return None, self.config.retries + 1, error

    # -- bookkeeping (event-loop thread only) --------------------------

    def _note_breaker(self, item: _Pending, ok: bool) -> None:
        key = item.breaker_key
        if key is None:
            return
        if ok:
            if self.breaker.record_success(key):
                self.log.emit("breaker-close", "serve",
                              f"probe healthy; re-enabling "
                              f"{key[0]}/{key[1]}")
        elif self.breaker.record_failure(key):
            self.log.emit("breaker-open", "serve",
                          f"{self.config.breaker_strikes} strikes on "
                          f"{key[0]}/{key[1]}; admitting to classical "
                          f"for {self.config.breaker_cooldown} requests")

    def _resolve_shed(self, item: _Pending, reason: str) -> None:
        self._resolve(item, "shed", None, DegradationLevel.SHED, reason)

    def _resolve(self, item: _Pending, status: str,
                 result: np.ndarray | None, level: DegradationLevel,
                 detail: str, attempts: int = 1,
                 coalesced: int = 0) -> None:
        if item.future.done():  # caller went away (cancelled/timed out)
            return
        now = time.monotonic()
        latency = now - item.t_admit
        missed = status != "shed" and now > item.deadline
        name = item.qos.name
        if status == "shed":
            self.stats["shed"] += 1
            self._counter(f"repro_serve_shed_total_{name}",
                          f"Requests shed for QoS class {name}.").inc()
            self.log.emit("shed", "serve", f"{name}: {detail}")
        else:
            self.stats["completed"] += 1
            if status == "degraded":
                self.stats["degraded"] += 1
                self._counter("repro_serve_degraded_total",
                              "Requests answered on a degraded rung.").inc()
                self.log.emit("degrade", "serve", f"{name}: {detail}")
            default_registry().histogram(
                f"repro_serve_latency_seconds_{name}",
                f"Admission-to-response latency for QoS class {name}.",
            ).observe(latency)
            if missed:
                self._counter(f"repro_serve_deadline_miss_total_{name}",
                              f"Completed past deadline, class {name}."
                              ).inc()
        item.future.set_result(MatmulResponse(
            status=status, result=result, qos=name, level=level,
            latency_s=latency, detail=detail, attempts=attempts,
            coalesced=coalesced, deadline_missed=missed))

    def _counter(self, name: str, help: str):
        return default_registry().counter(name, help)

    def _update_gauges(self) -> None:
        reg = default_registry()
        reg.gauge("repro_serve_queue_depth",
                  "Requests waiting in the admission queue."
                  ).set(len(self._heap))
        reg.gauge("repro_serve_level",
                  "Degradation ladder rung (0=FULL .. 3=SHED)."
                  ).set(int(self.ladder.level))
        reg.gauge("repro_serve_breaker_open",
                  "Admission-breaker keys currently open."
                  ).set(len(self.breaker.open_keys()))

    # -- metrics endpoint ----------------------------------------------

    async def start_metrics_endpoint(self, host: str = "127.0.0.1",
                                     port: int = 0) -> int:
        """Serve ``repro.obs`` metrics as Prometheus text over HTTP.

        Returns the bound port (pass ``port=0`` for an ephemeral one).
        Any request path answers with the full exposition — the
        endpoint is a scrape target, not a router.
        """
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics, host, port)
        return self._metrics_server.sockets[0].getsockname()[1]

    async def _handle_metrics(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if line in (b"", b"\r\n", b"\n"):
                    break
            self._update_gauges()
            body = render_prometheus(obs_metrics()).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body)
            await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()
