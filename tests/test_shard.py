"""Tests for the sharded out-of-core APA matmul path.

Determinism contract: the sharded result is bit-identical to the
reference tiled loop (fixed ascending panel order), and a trivial
geometry (tiles at least as large as the dims) is bit-identical to the
plain in-memory ``apa_matmul``.  Out-of-core operands and outputs
(memory-mapped ``.npy`` files) change where bytes live, never their
values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.analysis import predicted_error_bound
from repro.algorithms.catalog import get_algorithm
from repro.core.apa_matmul import apa_matmul
from repro.core.engine import default_engine
from repro.linalg import create_matrix, open_matrix, save_matrix
from repro.shard import ShardSpec, recommend_shard_spec, shard_matmul


def _tiled_reference(A, B, algorithm, spec):
    """The pinned semantics: ascending output tiles, ascending panels,
    each panel product through the sequential plan."""
    M, N = A.shape
    K = B.shape[1]
    dtype = np.result_type(A.dtype, B.dtype)
    C = np.zeros((M, K), dtype=dtype)
    for i0 in range(0, M, spec.tile_m):
        i1 = min(i0 + spec.tile_m, M)
        for j0 in range(0, K, spec.tile_k):
            j1 = min(j0 + spec.tile_k, K)
            acc = None
            for p0 in range(0, N, spec.tile_n):
                p1 = min(p0 + spec.tile_n, N)
                At = np.ascontiguousarray(A[i0:i1, p0:p1], dtype=dtype)
                Bt = np.ascontiguousarray(B[p0:p1, j0:j1], dtype=dtype)
                P = apa_matmul(At, Bt, algorithm)
                acc = P.copy() if acc is None else acc + P
            C[i0:i1, j0:j1] = acc
    return C


class TestBitIdentity:
    def test_matches_tiled_reference(self, rng):
        alg = get_algorithm("strassen222")
        A = rng.random((70, 50)).astype(np.float32)
        B = rng.random((50, 44)).astype(np.float32)
        spec = ShardSpec(32, 24, 20)
        C = shard_matmul(A, B, alg, shard=spec)
        assert np.array_equal(C, _tiled_reference(A, B, alg, spec))

    def test_every_real_algorithm_trivial_geometry(self, real_algorithm,
                                                   rng):
        """Tiles >= dims: exactly one tile — must equal apa_matmul
        bit-for-bit."""
        A = rng.random((13, 11))
        B = rng.random((11, 9))
        C = shard_matmul(A, B, real_algorithm, shard=64)
        assert np.array_equal(C, apa_matmul(A, B, real_algorithm))

    def test_engine_shard_knob(self, rng):
        alg = get_algorithm("bini322")
        A = rng.random((48, 48)).astype(np.float32)
        B = rng.random((48, 48)).astype(np.float32)
        spec = ShardSpec(24, 24, 24)
        C = default_engine().matmul(A, B, alg, shard=spec)
        assert np.array_equal(C, _tiled_reference(A, B, alg, spec))

    def test_process_executor_through_shard(self, rng):
        alg = get_algorithm("strassen222")
        A = rng.random((48, 48))
        B = rng.random((48, 48))
        spec = ShardSpec(24, 24, 24)
        Ct = shard_matmul(A, B, alg, shard=spec)
        Cp = shard_matmul(A, B, alg, shard=spec, executor="process",
                          threads=2)
        assert np.array_equal(Cp, Ct)

    def test_out_of_core_operands_and_output(self, rng, tmp_path):
        alg = get_algorithm("strassen222")
        A = rng.random((60, 40)).astype(np.float32)
        B = rng.random((40, 36)).astype(np.float32)
        save_matrix(tmp_path / "A.npy", A)
        save_matrix(tmp_path / "B.npy", B)
        Am = open_matrix(tmp_path / "A.npy")
        Bm = open_matrix(tmp_path / "B.npy")
        assert isinstance(Am, np.memmap)
        spec = ShardSpec(24, 16, 20)
        in_memory = shard_matmul(A, B, alg, shard=spec)
        Cm = shard_matmul(Am, Bm, alg, shard=spec,
                          out=tmp_path / "C.npy")
        assert isinstance(Cm, np.memmap)
        assert np.array_equal(np.asarray(Cm), in_memory)
        # The streamed file round-trips bit-identically.
        assert np.array_equal(np.load(tmp_path / "C.npy"), in_memory)

    def test_path_operands_accepted(self, rng, tmp_path):
        alg = get_algorithm("strassen222")
        A = rng.random((20, 20))
        B = rng.random((20, 20))
        save_matrix(tmp_path / "A.npy", A)
        save_matrix(tmp_path / "B.npy", B)
        C = shard_matmul(tmp_path / "A.npy", tmp_path / "B.npy", alg,
                         shard=16)
        assert np.array_equal(C, shard_matmul(A, B, alg, shard=16))

    def test_single_panel_is_writeback_not_copy(self, rng):
        """tile_n >= N: each output tile is one engine product — still
        identical to the reference."""
        alg = get_algorithm("strassen222")
        A = rng.random((40, 24))
        B = rng.random((24, 40))
        spec = ShardSpec(16, 24, 16)
        C = shard_matmul(A, B, alg, shard=spec)
        assert np.array_equal(C, _tiled_reference(A, B, alg, spec))


class TestGeometry:
    def test_coerce_forms(self):
        spec = ShardSpec(8, 16, 24)
        assert ShardSpec.coerce(spec) is spec
        assert ShardSpec.coerce(32) == ShardSpec(32, 32, 32)
        assert ShardSpec.coerce((8, 16, 24)) == spec

        class Duck:
            tile_m, tile_n, tile_k = 8, 16, 24

        assert ShardSpec.coerce(Duck()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(0, 8, 8)
        with pytest.raises(TypeError):
            ShardSpec(8.0, 8, 8)
        with pytest.raises(TypeError):
            ShardSpec.coerce(True)
        with pytest.raises(ValueError):
            ShardSpec.coerce((8, 8))
        with pytest.raises(TypeError):
            ShardSpec.coerce("large")

    def test_tiles_and_bytes(self):
        spec = ShardSpec(32, 32, 32)
        assert spec.tiles(64, 64, 64) == (2, 2, 2)
        assert spec.tiles(65, 64, 1) == (3, 2, 1)
        assert spec.staged_bytes(8) == 3 * 32 * 32 * 8
        assert spec.in_flight_bytes(8) == 4 * spec.staged_bytes(8)

    def test_recommend_is_deterministic_and_clamped(self):
        a = recommend_shard_spec(10_000, 10_000, 10_000, 64 * 1024 * 1024)
        b = recommend_shard_spec(10_000, 10_000, 10_000, 64 * 1024 * 1024)
        assert a == b
        # A starvation budget still yields the floor tile.
        small = recommend_shard_spec(1000, 1000, 1000, 1)
        assert small == ShardSpec(16, 16, 16)
        # Tiles never exceed the problem dims.
        clamped = recommend_shard_spec(8, 9, 10, 1 << 40)
        assert clamped == ShardSpec(8, 9, 10)
        with pytest.raises(ValueError):
            recommend_shard_spec(8, 8, 8, 0)

    def test_budget_bounds_in_flight_bytes(self):
        budget = 8 * 1024 * 1024
        spec = recommend_shard_spec(10_000, 10_000, 10_000, budget)
        assert spec.in_flight_bytes(8) <= budget


class TestIntegerOperands:
    """A plan computes integer operands in float64; the sharded output
    must be allocated at that dtype, not truncated to the integer one."""

    @staticmethod
    def _int_operands():
        A = np.arange(64).reshape(8, 8)
        B = (np.arange(64).reshape(8, 8) * 7) % 13 - 6
        return A, B

    @pytest.mark.parametrize("name", ["bini322", "strassen222"])
    def test_apa_product_is_float64_within_bound(self, name, tmp_path):
        A, B = self._int_operands()
        exact = A @ B
        bound = predicted_error_bound(name, d=52, inner_dim=A.shape[1])
        C = shard_matmul(A, B, name, shard=4)
        out = shard_matmul(A, B, name, shard=4, out=tmp_path / "C.npy")
        unsharded = default_engine().matmul(A, B, name)
        assert C.dtype == out.dtype == unsharded.dtype == np.float64
        assert np.array_equal(np.asarray(out), C)
        # The guard's normwise yardstick: ||C - AB|| / (||A|| ||B||).
        rel = np.linalg.norm(C - exact) / (np.linalg.norm(A)
                                           * np.linalg.norm(B))
        assert rel <= bound

    def test_classical_keeps_integer_dtype(self):
        A, B = self._int_operands()
        C = shard_matmul(A, B, None, shard=4)
        assert C.dtype == np.result_type(A, B)
        assert np.array_equal(C, A @ B)


class TestPlumbing:
    def test_batched_rejects_shard(self, rng):
        alg = get_algorithm("strassen222")
        with pytest.raises(ValueError, match="2-D"):
            default_engine().matmul(rng.random((2, 8, 8)),
                                    rng.random((2, 8, 8)), alg,
                                    shard=8, batch_mode="loop")

    def test_storage_roundtrip(self, rng, tmp_path):
        A = rng.random((6, 7)).astype(np.float32)
        save_matrix(tmp_path / "m.npy", A)
        back = open_matrix(tmp_path / "m.npy")
        assert np.array_equal(np.asarray(back), A)
        mm = create_matrix(tmp_path / "new.npy", (4, 5), np.float64)
        mm[...] = 2.5
        mm.flush()
        assert np.array_equal(np.load(tmp_path / "new.npy"),
                              np.full((4, 5), 2.5))

    def test_default_budget_recommendation(self, rng):
        """shard_matmul with no geometry derives one from the default
        budget and still matches the sequential path (single tile here)."""
        alg = get_algorithm("strassen222")
        A, B = rng.random((20, 20)), rng.random((20, 20))
        C = shard_matmul(A, B, alg)
        assert np.array_equal(C, apa_matmul(A, B, alg))
