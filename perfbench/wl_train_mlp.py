"""train-mlp: the Fig 6 ParaDnn MLP trained with ``Trainer.fit``.

Four hidden layers of width 512 at batch 512, bini322 on the hidden
products through an engine backend, classical gemm on the input and
output layers (paper §4.3).  Data is synthetic MNIST-shaped from
``repro.data``, drawn from the seed.  A trial trains a fixed number
of steps from the same initial weights; a classical twin model takes
each step right next to the APA model, for the paired speedup and the
loss check.  Trials repeat until the time is up, and every trial
must end on the same loss.

Every plan lookup hits a few fixed keys here (unlike matmul-small), the
backward products take transposed operands, and the elementwise and
optimizer work shows how much of a matmul gain survives in training.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from harness import LayerProbe, Outcome, closed_loop_metrics, error_bound, \
    median, plan_adds, rel_err


WIDTH = 512
BATCH = 512
HIDDEN_LAYERS = 4
STEPS = 6
LR = 0.05
ALGORITHM = "bini322"
#: The APA loss must stay this close (relative) to the classical twin's.
LOSS_RTOL = 0.02
#: Highest tail percentile reported (see ``harness.tail``): a 15 s run
#: makes ~290 APA steps; p95 has the samples but spread 10% between runs
#: on a loaded host.
TAIL_TOP = 90.0


class TimingBackend:
    """A ``MatmulBackend`` proxy that times one Dense layer's products
    and sorts them into forward, weight-gradient and input-gradient."""

    def __init__(self, inner: Any, layer: Any, sink: dict[str, float]) -> None:
        self.inner = inner
        self.layer = layer
        self.sink = sink
        self.name = f"timed:{inner.name}"

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        C = self.inner.matmul(A, B)
        dt = time.perf_counter() - t0
        if B is self.layer.W.value:
            kind = "fwd"
        elif A.shape[0] == self.layer.in_features and \
                C.shape == self.layer.W.value.shape:
            kind = "grad_weight"
        else:
            kind = "grad_input"
        self.sink[kind] += dt
        if self.inner.name != "classical":
            self.sink["apa_s"] += dt
            self.sink["apa_calls"] += 1
        return C


class Workload:
    def __init__(self, seed: int, scratch: Any) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.algorithms.catalog import get_algorithm
        from repro.core.backend import ClassicalBackend
        from repro.core.engine import default_engine
        from repro.data import load_synth_mnist
        from repro.nn.mlp import build_paradnn_mlp, hidden_dense_layers
        from repro.nn.train import ConstantLR, Trainer

        (self.x, self.y), _ = load_synth_mnist(
            n_train=STEPS * BATCH, n_test=0, seed=self.seed)
        self.engine = default_engine()
        self.trainers = {}
        for kind in ("apa", "classical"):
            backend = (self.engine.backend(algorithm=ALGORITHM)
                       if kind == "apa" else ClassicalBackend())
            model = build_paradnn_mlp(
                WIDTH, hidden_layers=HIDDEN_LAYERS, hidden_backend=backend,
                rng=np.random.default_rng(self.seed))
            self.trainers[kind] = Trainer(model, schedule=ConstantLR(LR))
        self.initial = {kind: t.checkpoint()
                        for kind, t in self.trainers.items()}
        self.hidden = hidden_dense_layers(self.trainers["apa"].model)
        self.rank = get_algorithm(ALGORITHM).rank
        for trainer in self.trainers.values():  # plans, BLAS buffers
            self._step(trainer, 0)
        for kind, trainer in self.trainers.items():
            trainer.restore(self.initial[kind])

    def close(self) -> None:
        pass

    def prepare_oracle(self) -> None:
        rng = np.random.default_rng((self.seed, 1))
        self.probe_x = np.maximum(
            rng.standard_normal((BATCH, WIDTH)), 0).astype(np.float32)
        self.ref_loss: float | None = None

    def _step(self, trainer: Any, step: int) -> float:
        lo = step * BATCH
        history = trainer.fit(self.x[lo:lo + BATCH], self.y[lo:lo + BATCH],
                              epochs=1, batch_size=BATCH,
                              rng=np.random.default_rng((self.seed, step)))
        return history.train_loss[-1]

    def _flops_per_step(self) -> float:
        dims = [(784, WIDTH)] + [(WIDTH, WIDTH)] * (HIDDEN_LAYERS - 1) + [
            (WIDTH, 10)]
        return sum(6.0 * BATCH * i * o for i, o in dims)

    def run(self, seconds: float, out: Outcome,
            probe: LayerProbe | None) -> dict[str, Any]:
        from repro.nn.layers import Dense

        sink = {"fwd": 0.0, "grad_weight": 0.0, "grad_input": 0.0,
                "apa_s": 0.0, "apa_calls": 0}
        apa = self.trainers["apa"]
        restore = []
        if probe is not None:
            traced = self.engine.backend(algorithm=ALGORITHM, gemm=probe.gemm)
            for layer in apa.model.layers:
                if isinstance(layer, Dense):
                    restore.append((layer, layer.backend))
                    inner = traced if layer in self.hidden else layer.backend
                    layer.backend = TimingBackend(inner, layer, sink)
        lat: list[float] = []
        ratios: list[float] = []
        errs: list[float] = []
        losses: list[float] = []
        layer_stats = {"gemm_s": 0.0, "gemm_calls": 0, "lookup_s": 0.0,
                       "adds": 0, "plans": 0}
        trials = 0
        t_end = time.perf_counter() + seconds
        try:
            while time.perf_counter() < t_end:
                trials += 1
                for kind, trainer in self.trainers.items():
                    trainer.restore(self.initial[kind])
                loss = {}
                for step in range(STEPS):
                    out.attempted += 1
                    order = ("apa", "classical") if step % 2 else (
                        "classical", "apa")
                    times = {}
                    if probe is not None:
                        probe.take_plans()
                        calls0, gemm_s0 = probe.gemm_snapshot()
                        lookup0 = probe.seconds("plan_for")
                    for kind in order:
                        t0 = time.perf_counter()
                        loss[kind] = self._step(self.trainers[kind], step)
                        times[kind] = time.perf_counter() - t0
                    lat.append(times["apa"])
                    ratios.append(times["classical"] / times["apa"])
                    if probe is not None:
                        calls1, gemm_s1 = probe.gemm_snapshot()
                        expected = self.rank * 3 * len(self.hidden)
                        if calls1 - calls0 != expected:
                            out.fail(f"step {step}: {calls1 - calls0} gemm "
                                     f"calls, expected {expected}")
                        layer_stats["gemm_calls"] += calls1 - calls0
                        layer_stats["gemm_s"] += gemm_s1 - gemm_s0
                        layer_stats["lookup_s"] += (probe.seconds("plan_for")
                                                    - lookup0)
                        plans = probe.take_plans()
                        layer_stats["adds"] += sum(plan_adds(p) for p in plans)
                        layer_stats["plans"] += len(plans)
                losses.append(loss["apa"])
                self._check_trial(loss, out)
                errs.extend(self._check_products(out))
        finally:
            for layer, backend in restore:
                layer.backend = backend
        return {"lat": lat, "ratios": ratios, "errs": errs, "losses": losses,
                "flops": len(lat) * self._flops_per_step(),
                "trials": trials, "sink": sink, "layer": layer_stats}

    def _check_trial(self, loss: dict[str, float], out: Outcome) -> None:
        """Every trial ends on the first trial's loss, and the APA
        loss tracks the classical twin's."""
        if self.ref_loss is None:
            self.ref_loss = loss["apa"]
        elif abs(loss["apa"] - self.ref_loss) > 1e-6 * abs(self.ref_loss):
            out.fail(f"trial loss {loss['apa']:.8f} differs from the "
                     f"recorded {self.ref_loss:.8f} for seed {self.seed}")
        gap = abs(loss["apa"] - loss["classical"])
        if not gap <= LOSS_RTOL * abs(loss["classical"]):
            out.fail(f"APA loss {loss['apa']:.5f} vs classical "
                     f"{loss['classical']:.5f}")

    def _check_products(self, out: Outcome) -> list[float]:
        """The hidden layers' APA product on trained weights, against a
        float64 reference (outside the timed steps)."""
        errs = []
        bound = error_bound(ALGORITHM, np.float32, 1, WIDTH)
        for idx, layer in enumerate(self.hidden):
            W = layer.W.value
            backend = getattr(layer.backend, "inner", layer.backend)
            C = backend.matmul(self.probe_x, W)
            err = rel_err(C, self.probe_x.astype(np.float64)
                          @ W.astype(np.float64))
            out.check_error(f"hidden layer {idx} product", err, bound)
            errs.append(err)
        return errs

    def end_to_end(self, stats: dict[str, Any], out: Outcome) -> None:
        closed_loop_metrics(out, stats, TAIL_TOP)
        out.notes["apa_speedup"] += f" of steps, {stats['trials']} trials"
        if stats["lat"]:
            out.notes["gflops_eff"] = (
                f"{BATCH / median(stats['lat']):.0f} samples/s, loss after "
                f"{STEPS} steps {stats['losses'][0]:.6f}")

    def per_layer(self, stats: dict[str, Any], probe: LayerProbe,
                  out: Outcome) -> None:
        steps = len(stats["lat"])
        sink = stats["sink"]
        if steps:
            for kind in ("fwd", "grad_weight", "grad_input"):
                out.metrics[f"nn.{kind}_ms"] = sink[kind] / steps * 1e3
            matmul_s = sink["fwd"] + sink["grad_weight"] + sink["grad_input"]
            out.metrics["nn.matmul_frac"] = matmul_s / sum(stats["lat"])
            out.metrics["nn.samples_per_s"] = BATCH / median(stats["lat"])
        out.metrics["nn.loss_final"] = stats["losses"][0] if stats[
            "losses"] else 0.0
        layer = stats["layer"]
        if sink["apa_calls"]:
            out.metrics["gemm.calls_per_op"] = (layer["gemm_calls"]
                                                / sink["apa_calls"])
            out.metrics["gemm.busy_frac"] = layer["gemm_s"] / sink["apa_s"]
            out.metrics["plan.combine_frac"] = (
                sink["apa_s"] - layer["gemm_s"] - layer["lookup_s"]
            ) / sink["apa_s"]
        if layer["plans"]:
            out.metrics["plan.adds_per_call"] = layer["adds"] / layer["plans"]
