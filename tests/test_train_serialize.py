"""Tests for the Trainer (schedules, clipping, early stopping) and
model checkpointing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.nn.layers import Dense, Parameter, ReLU
from repro.nn.model import Sequential
from repro.nn.serialize import load_weights, model_signature, save_weights
from repro.nn.train import (
    ConstantLR,
    CosineLR,
    EarlyStopping,
    StepLR,
    Trainer,
    clip_gradients,
)


def blobs(n=160, rng=None):
    rng = rng or np.random.default_rng(0)
    half = n // 2
    x = np.vstack([
        rng.normal(-2, 0.5, (half, 4)),
        rng.normal(+2, 0.5, (n - half, 4)),
    ]).astype(np.float32)
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return x[order], y[order]


def small_model(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(0.3).rate(0) == ConstantLR(0.3).rate(99) == 0.3
        with pytest.raises(ValueError):
            ConstantLR(0.0)

    def test_step(self):
        s = StepLR(1.0, step=2, gamma=0.5)
        assert [s.rate(e) for e in range(5)] == [1.0, 1.0, 0.5, 0.5, 0.25]
        with pytest.raises(ValueError):
            StepLR(1.0, step=0)

    def test_cosine_endpoints(self):
        s = CosineLR(1.0, total=10, lr_min=0.1)
        assert s.rate(0) == pytest.approx(1.0)
        assert s.rate(10) == pytest.approx(0.1)
        assert s.rate(5) == pytest.approx(0.55)
        assert s.rate(20) == pytest.approx(0.1)  # clamped past total

    def test_cosine_monotone_decreasing(self):
        s = CosineLR(1.0, total=8)
        rates = [s.rate(e) for e in range(9)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestClip:
    def test_norm_reduced(self):
        p = Parameter(np.zeros(4))
        p.grad[:] = [3.0, 4.0, 0.0, 0.0]
        pre = clip_gradients([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert math.sqrt(float((p.grad**2).sum())) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        p = Parameter(np.zeros(2))
        p.grad[:] = [0.1, 0.1]
        clip_gradients([p], max_norm=10.0)
        assert np.allclose(p.grad, [0.1, 0.1])

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_gradients([], max_norm=0.0)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        es = EarlyStopping(patience=2)
        assert not es.update(0.5)
        assert not es.update(0.4)   # stale 1
        assert es.update(0.4)        # stale 2 -> stop

    def test_improvement_resets(self):
        es = EarlyStopping(patience=2)
        es.update(0.5)
        es.update(0.4)
        assert not es.update(0.6)   # improvement
        assert not es.update(0.5)
        assert es.update(0.5)

    def test_min_delta(self):
        es = EarlyStopping(patience=1, min_delta=0.1)
        es.update(0.5)
        assert es.update(0.55)  # below min_delta -> counts as stale


class TestTrainer:
    def test_learns_with_cosine_schedule(self, rng):
        x, y = blobs(rng=rng)
        trainer = Trainer(small_model(rng), schedule=CosineLR(0.2, total=8))
        hist = trainer.fit(x, y, epochs=8, batch_size=16,
                           rng=np.random.default_rng(1))
        assert hist.train_accuracy[-1] > 0.95

    def test_early_stopping_cuts_epochs(self, rng):
        x, y = blobs(rng=rng)
        trainer = Trainer(small_model(rng), schedule=ConstantLR(0.2),
                          early_stopping=EarlyStopping(patience=2))
        hist = trainer.fit(x[:120], y[:120], epochs=50, batch_size=16,
                           x_test=x[120:], y_test=y[120:],
                           rng=np.random.default_rng(1))
        assert hist.epochs < 50

    def test_grad_clip_path_trains(self, rng):
        x, y = blobs(rng=rng)
        trainer = Trainer(small_model(rng), schedule=ConstantLR(0.2),
                          grad_clip=1.0)
        hist = trainer.fit(x, y, epochs=6, batch_size=16,
                           rng=np.random.default_rng(1))
        assert hist.train_accuracy[-1] > 0.9

    def test_epoch_callback_invoked(self, rng):
        x, y = blobs(rng=rng)
        seen = []
        trainer = Trainer(small_model(rng),
                          epoch_callback=lambda e, h: seen.append(e))
        trainer.fit(x, y, epochs=3, batch_size=32,
                    rng=np.random.default_rng(1))
        assert seen == [0, 1, 2]

    def test_schedule_drives_optimizer_lr(self, rng):
        x, y = blobs(rng=rng)
        rates = []
        trainer = Trainer(small_model(rng), schedule=StepLR(0.4, step=1,
                                                            gamma=0.5))
        trainer.epoch_callback = lambda e, h: rates.append(trainer.optimizer.lr)
        trainer.fit(x, y, epochs=3, batch_size=32,
                    rng=np.random.default_rng(1))
        assert rates == [0.4, 0.2, 0.1]

    def test_validation(self, rng):
        x, y = blobs(rng=rng)
        trainer = Trainer(small_model(rng))
        with pytest.raises(ValueError):
            trainer.fit(x, y, epochs=0, batch_size=8)
        with pytest.raises(ValueError):
            trainer.fit(x, y[:-1], epochs=1, batch_size=8)


class TestSerialization:
    def test_roundtrip_restores_exact_weights(self, rng, tmp_path):
        model = small_model(rng)
        path = save_weights(model, tmp_path / "ckpt.npz")
        clone = small_model(np.random.default_rng(99))  # different init
        load_weights(clone, path)
        x = rng.random((5, 4)).astype(np.float32)
        assert np.array_equal(model.forward(x, training=False),
                              clone.forward(x, training=False))

    def test_signature_detects_architecture_change(self, rng, tmp_path):
        model = small_model(rng)
        path = save_weights(model, tmp_path / "ckpt.npz")
        other = Sequential([Dense(4, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng)])
        with pytest.raises(ValueError, match="architecture mismatch"):
            load_weights(other, path)

    def test_non_strict_still_checks_shapes(self, rng, tmp_path):
        model = small_model(rng)
        path = save_weights(model, tmp_path / "ckpt.npz")
        other = Sequential([Dense(4, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng)])
        with pytest.raises(ValueError, match="shape"):
            load_weights(other, path, strict=False)

    def test_signature_format(self, rng):
        sig = model_signature(small_model(rng))
        assert "Dense" in sig and "ReLU" in sig
        assert "(4, 8)" in sig

    def test_checkpointing_via_trainer_callback(self, rng, tmp_path):
        x, y = blobs(rng=rng)
        model = small_model(rng)
        trainer = Trainer(model, epoch_callback=lambda e, h: save_weights(
            model, tmp_path / f"epoch{e}.npz"))
        trainer.fit(x, y, epochs=2, batch_size=32,
                    rng=np.random.default_rng(1))
        assert (tmp_path / "epoch0.npz").exists()
        assert (tmp_path / "epoch1.npz").exists()


class TestTrainerCheckpointRestore:
    def test_roundtrip_restores_parameters_exactly(self, rng):
        x, y = blobs(rng=rng)
        trainer = Trainer(small_model(rng), schedule=ConstantLR(0.2))
        trainer.fit(x, y, epochs=2, batch_size=16,
                    rng=np.random.default_rng(1))
        ckpt = trainer.checkpoint(epoch=1)
        saved = [np.copy(p.value) for p in trainer.model.parameters()]
        trainer.fit(x, y, epochs=2, batch_size=16,
                    rng=np.random.default_rng(2))  # drift the weights
        trainer.restore(ckpt)
        for p, ref in zip(trainer.model.parameters(), saved):
            np.testing.assert_array_equal(p.value, ref)
            assert not p.grad.any()  # gradients zeroed on restore

    def test_checkpoint_is_a_deep_copy(self, rng):
        trainer = Trainer(small_model(rng))
        ckpt = trainer.checkpoint()
        before = np.copy(ckpt.params[0])
        trainer.model.parameters()[0].value += 1.0
        np.testing.assert_array_equal(ckpt.params[0], before)

    @pytest.mark.parametrize("optimizer_name", ["momentum", "adam"])
    def test_optimizer_slot_state_roundtrips(self, optimizer_name, rng):
        from repro.nn.optim import Adam, Momentum

        x, y = blobs(rng=rng)
        model = small_model(rng)
        opt = (Momentum(model.parameters(), lr=0.1)
               if optimizer_name == "momentum"
               else Adam(model.parameters(), lr=0.01))
        trainer = Trainer(model, optimizer=opt, schedule=ConstantLR(0.1))
        trainer.fit(x, y, epochs=1, batch_size=16,
                    rng=np.random.default_rng(1))
        ckpt = trainer.checkpoint(epoch=0)
        assert ckpt.opt_arrays  # slot buffers captured
        trainer.fit(x, y, epochs=1, batch_size=16,
                    rng=np.random.default_rng(2))
        trainer.restore(ckpt)
        for slot, arrays in ckpt.opt_arrays.items():
            for live, saved in zip(getattr(opt, slot), arrays):
                np.testing.assert_array_equal(live, saved)
        for slot, value in ckpt.opt_scalars.items():
            assert getattr(opt, slot) == value

    def test_restored_trajectory_is_deterministic(self, rng):
        """Restore + identical data order reproduces identical weights."""
        x, y = blobs(rng=rng)
        trainer = Trainer(small_model(rng), schedule=ConstantLR(0.2))
        ckpt = trainer.checkpoint()
        hist1 = trainer.fit(x, y, epochs=2, batch_size=16,
                            rng=np.random.default_rng(7))
        after1 = [np.copy(p.value) for p in trainer.model.parameters()]
        trainer.restore(ckpt)
        hist2 = trainer.fit(x, y, epochs=2, batch_size=16,
                            rng=np.random.default_rng(7))
        assert hist1.train_loss == hist2.train_loss
        for p, ref in zip(trainer.model.parameters(), after1):
            np.testing.assert_array_equal(p.value, ref)

    def test_restore_rejects_mismatched_model(self, rng):
        trainer = Trainer(small_model(rng))
        other = Trainer(Sequential([Dense(4, 16, rng=rng), ReLU(),
                                    Dense(16, 2, rng=rng)]))
        with pytest.raises(ValueError, match="shape"):
            other.restore(trainer.checkpoint())


class TestDivergenceGuard:
    def _trainer(self, rng):
        return Trainer(small_model(rng), schedule=ConstantLR(0.1))

    def test_validation(self):
        from repro.robustness.divergence import DivergenceGuard

        with pytest.raises(ValueError):
            DivergenceGuard(loss_factor=1.0)
        with pytest.raises(ValueError):
            DivergenceGuard(max_rollbacks=0)

    def test_healthy_epochs_are_ok_and_snapshotted(self, rng):
        from repro.robustness.divergence import DivergenceGuard

        guard = DivergenceGuard()
        trainer = self._trainer(rng)
        guard.on_train_begin(trainer)
        assert guard.check(trainer, 0, 0.5) == "ok"
        assert guard.check(trainer, 1, 0.4) == "ok"
        assert guard.rollbacks == 0 and len(guard.log) == 0

    @pytest.mark.parametrize("bad_loss", [float("nan"), float("inf")])
    def test_nonfinite_loss_triggers_rollback(self, bad_loss, rng):
        from repro.robustness.divergence import DivergenceGuard

        guard = DivergenceGuard()
        trainer = self._trainer(rng)
        guard.on_train_begin(trainer)
        guard.check(trainer, 0, 0.5)
        assert guard.check(trainer, 1, bad_loss) == "rollback"
        assert guard.rollbacks == 1
        assert guard.log.count("divergence") == 1
        assert guard.log.count("rollback") == 1

    def test_exploding_loss_triggers_rollback(self, rng):
        from repro.robustness.divergence import DivergenceGuard

        guard = DivergenceGuard(loss_factor=10.0)
        trainer = self._trainer(rng)
        guard.on_train_begin(trainer)
        guard.check(trainer, 0, 0.5)
        assert guard.check(trainer, 1, 4.9) == "ok"  # within 10x of 0.5
        assert guard.check(trainer, 2, 50.1) == "rollback"

    def test_nonfinite_parameters_trigger_rollback(self, rng):
        from repro.robustness.divergence import DivergenceGuard

        guard = DivergenceGuard()
        trainer = self._trainer(rng)
        guard.on_train_begin(trainer)
        good = np.copy(trainer.model.parameters()[0].value)
        trainer.model.parameters()[0].value[0, 0] = np.nan
        assert guard.check(trainer, 0, 0.5) == "rollback"
        # the rollback restored the pre-training snapshot
        np.testing.assert_array_equal(trainer.model.parameters()[0].value,
                                      good)

    def test_budget_exhaustion_aborts(self, rng):
        from repro.robustness.divergence import DivergenceGuard

        guard = DivergenceGuard(max_rollbacks=1)
        trainer = self._trainer(rng)
        guard.on_train_begin(trainer)
        assert guard.check(trainer, 0, float("nan")) == "rollback"
        assert guard.check(trainer, 0, float("nan")) == "abort"
        assert guard.log.count("divergence-unrecovered") == 1

    def test_downgrade_walks_steps_then_classical(self, rng):
        from repro.algorithms.catalog import get_algorithm
        from repro.core.backend import ClassicalBackend
        from repro.core.engine import default_engine
        from repro.robustness.divergence import downgrade_backends

        model = small_model(rng)
        model.layers[0].backend = default_engine().backend(
            algorithm=get_algorithm("bini322"), steps=2)
        assert downgrade_backends(model) == 1
        assert model.layers[0].backend.steps == 1  # rung 1: depth
        assert downgrade_backends(model) == 1
        assert isinstance(model.layers[0].backend, ClassicalBackend)
        assert downgrade_backends(model) == 0  # nothing left to downgrade

    def test_downgrade_unwraps_faulty_backend(self, rng):
        from repro.core.backend import ClassicalBackend
        from repro.core.engine import default_engine
        from repro.robustness.divergence import downgrade_backends
        from repro.robustness.inject import FaultSpec

        model = small_model(rng)
        model.layers[0].backend = default_engine().backend(
            fault=FaultSpec(kind="nan"))
        assert downgrade_backends(model) == 1
        assert isinstance(model.layers[0].backend, ClassicalBackend)

    def test_fit_with_guard_recovers_midtraining_nan(self, rng):
        """End-to-end: a NaN-poisoning backend armed mid-training is
        detected, rolled back, and replaced; training finishes healthy."""
        from repro.core.backend import ClassicalBackend
        from repro.core.engine import default_engine
        from repro.robustness.divergence import DivergenceGuard
        from repro.robustness.inject import FaultSpec

        x, y = blobs(rng=rng)
        model = small_model(rng)
        backend = default_engine().backend(
            fault=FaultSpec(kind="nan", probability=1.0))
        backend.gemm.active = False
        model.layers[0].backend = backend

        def arm(epoch, history):
            if epoch == 1:
                backend.gemm.active = True

        guard = DivergenceGuard(max_rollbacks=2)
        trainer = Trainer(model, schedule=ConstantLR(0.2),
                          epoch_callback=arm, divergence_guard=guard)
        hist = trainer.fit(x, y, epochs=5, batch_size=16,
                           rng=np.random.default_rng(1))
        assert guard.rollbacks >= 1
        assert hist.epochs == 5  # recovered, did not abort
        assert all(math.isfinite(l) for l in hist.train_loss)
        assert isinstance(model.layers[0].backend, ClassicalBackend)
        assert hist.train_accuracy[-1] > 0.9
