import numpy as np
import pytest

from repro.core.square_lut import SquareLut
from repro.pim import PimSystem, PimSystemConfig
from repro.pim.memory import CapacityError
from repro.pim.system import ShardData


@pytest.fixture()
def sys4(rng):
    cfg = PimSystemConfig(num_dpus=4)
    s = PimSystem(cfg)
    books = rng.integers(-100, 100, size=(8, 16, 4)).astype(np.int16)
    s.load_codebooks(books)
    s.load_square_lut(SquareLut.for_bit_width(8, levels=3))
    for i in range(4):
        s.place_shard(
            i,
            ShardData(
                shard_key=f"s{i}",
                centroid=rng.integers(0, 255, size=32).astype(np.uint8),
                ids=np.arange(i * 20, i * 20 + 20, dtype=np.int64),
                codes=rng.integers(0, 16, size=(20, 8)).astype(np.uint8),
            ),
        )
    return s


class TestPlacement:
    def test_shard_location(self, sys4):
        assert sys4.shard_location("s2") == 2
        assert sys4.num_shards() == 4

    def test_duplicate_key_rejected(self, sys4, rng):
        with pytest.raises(ValueError, match="already placed"):
            sys4.place_shard(
                0,
                ShardData(
                    shard_key="s0",
                    centroid=np.zeros(32, dtype=np.uint8),
                    ids=np.zeros(1, dtype=np.int64),
                    codes=np.zeros((1, 8), dtype=np.uint8),
                ),
            )

    def test_bad_dpu_id(self, sys4):
        with pytest.raises(ValueError, match="out of range"):
            sys4.place_shard(
                9,
                ShardData(
                    shard_key="x",
                    centroid=np.zeros(32, dtype=np.uint8),
                    ids=np.zeros(1, dtype=np.int64),
                    codes=np.zeros((1, 8), dtype=np.uint8),
                ),
            )

    def test_mram_capacity_enforced(self):
        from repro.pim.config import DpuConfig

        cfg = PimSystemConfig(num_dpus=1, dpu=DpuConfig(mram_bytes=1024))
        s = PimSystem(cfg)
        with pytest.raises(CapacityError):
            s.place_shard(
                0,
                ShardData(
                    shard_key="big",
                    centroid=np.zeros(32, dtype=np.uint8),
                    ids=np.zeros(100, dtype=np.int64),
                    codes=np.zeros((100, 8), dtype=np.uint8),
                ),
            )

    def test_mram_usage_reported(self, sys4):
        usage = sys4.mram_usage()
        assert usage.shape == (4,)
        assert (usage > 0).all()


class TestRunBatch:
    def test_results_match_manual_math(self, sys4, rng):
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        partials, timing = sys4.run_batch(
            {0: [(0, "s0")], 1: [(1, "s1")]}, queries, k=5
        )
        assert len(partials) == 2
        books = sys4.codebooks.astype(np.int64)
        for p in partials:
            skey = "s0" if p.query_index == 0 else "s1"
            shard = sys4.get_shard(skey)
            r = queries[p.query_index].astype(np.int64) - shard.centroid.astype(np.int64)
            lut = ((r.reshape(8, 1, 4) - books) ** 2).sum(-1)
            d = lut[np.arange(8)[None, :], shard.codes.astype(int)].sum(1)
            want = np.sort(d)[:5]
            np.testing.assert_array_equal(np.sort(p.distances), want)

    def test_requires_codebooks(self, rng):
        s = PimSystem(PimSystemConfig(num_dpus=1))
        with pytest.raises(RuntimeError, match="codebooks"):
            s.run_batch({}, np.zeros((1, 8), dtype=np.uint8), k=1)

    def test_requires_square_lut_when_multiplier_less(self, rng):
        s = PimSystem(PimSystemConfig(num_dpus=1))
        s.load_codebooks(rng.integers(-5, 5, size=(2, 4, 4)).astype(np.int16))
        with pytest.raises(RuntimeError, match="square LUT"):
            s.run_batch({}, np.zeros((1, 8), dtype=np.uint8), k=1)

    def test_wrong_dpu_task_rejected(self, sys4, rng):
        queries = rng.integers(0, 255, size=(1, 32)).astype(np.uint8)
        with pytest.raises(ValueError, match="assigned to DPU"):
            sys4.run_batch({0: [(0, "s1")]}, queries, k=3)

    def test_timing_max_semantics(self, sys4, rng):
        """Batch time equals the busiest DPU's cycles / frequency."""
        queries = rng.integers(0, 255, size=(4, 32)).astype(np.uint8)
        assignments = {0: [(0, "s0"), (1, "s0"), (2, "s0"), (3, "s0")]}
        _, timing = sys4.run_batch(assignments, queries, k=3)
        freq = sys4.config.dpu.frequency_hz
        assert timing.pim_seconds == pytest.approx(
            timing.per_dpu_cycles.max() / freq
        )
        # only DPU 0 worked
        assert timing.per_dpu_cycles[1:].sum() == 0
        assert timing.busy_fraction < 0.5

    def test_kernel_cycles_recorded(self, sys4, rng):
        queries = rng.integers(0, 255, size=(1, 32)).astype(np.uint8)
        _, timing = sys4.run_batch({0: [(0, "s0")]}, queries, k=3)
        assert set(timing.kernel_cycles) >= {"RC", "LC", "DC", "TS"}
        assert all(v >= 0 for v in timing.kernel_cycles.values())

    def test_multiplier_toggle_changes_time(self, sys4, rng):
        queries = rng.integers(0, 255, size=(2, 32)).astype(np.uint8)
        assignments = {0: [(0, "s0"), (1, "s0")]}
        _, t_ml = sys4.run_batch(assignments, queries, k=3, multiplier_less=True)
        sys4.reset_ledgers()
        _, t_mul = sys4.run_batch(assignments, queries, k=3, multiplier_less=False)
        assert t_mul.kernel_cycles["LC"] > t_ml.kernel_cycles["LC"]

    def test_reset_ledgers(self, sys4, rng):
        queries = rng.integers(0, 255, size=(1, 32)).astype(np.uint8)
        sys4.run_batch({0: [(0, "s0")]}, queries, k=3)
        sys4.reset_ledgers()
        assert all(d.total_cycles == 0 for d in sys4.dpus)


class TestRoundLutChunking:
    """The round's LUT build streams pairs in chunks; chunking (even one
    pair per chunk, splitting every centroid) must be byte-invisible."""

    def _run(self, monkeypatch, small_ds, small_quantized, small_params,
             chunk_pairs, window):
        import repro.pim.system as system_mod
        from repro.core import DrimAnnEngine, EngineConfig, SearchParams
        from repro.core.layout import LayoutConfig

        if chunk_pairs is not None:
            d = small_quantized.dim
            cb = small_params.codebook_size
            monkeypatch.setattr(
                system_mod, "_LUT_CHUNK_BYTES", chunk_pairs * d * cb * 8
            )
        engine = DrimAnnEngine.from_config(
            small_ds.base,
            EngineConfig(
                index=small_params,
                search=SearchParams(batch_size=16),
                system=PimSystemConfig(num_dpus=16),
                layout=LayoutConfig(min_split_size=400, max_copies=2),
            ),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        if window is not None:
            engine.system.load_square_lut(
                SquareLut.for_bit_width(8, levels=3).partial(window)
            )
        misses = []
        charge = PimSystem._charge_shard_group

        def spy(self, dpu, shard, g, k, sq, m, *args, **kwargs):
            misses.append(m)
            return charge(self, dpu, shard, g, k, sq, m, *args, **kwargs)

        monkeypatch.setattr(PimSystem, "_charge_shard_group", spy)
        res, _ = engine.search(small_ds.queries[:40], execution="batched")
        ledger = [dict(d.cycles_by_kernel) for d in engine.system.dpus]
        monkeypatch.undo()
        return res.ids, res.distances, ledger, misses

    @pytest.mark.parametrize("window", [None, 10])
    @pytest.mark.parametrize("chunk_pairs", [1, 3])
    def test_chunked_build_is_byte_equal(
        self, monkeypatch, small_ds, small_quantized, small_params,
        chunk_pairs, window,
    ):
        args = (monkeypatch, small_ds, small_quantized, small_params)
        ids, dists, ledger, misses = self._run(*args, None, window)
        c_ids, c_dists, c_ledger, c_misses = self._run(
            *args, chunk_pairs, window
        )
        assert np.array_equal(c_ids, ids)
        assert np.array_equal(c_dists, dists)
        assert c_ledger == ledger
        assert c_misses == misses
        assert (sum(misses) > 0) == (window is not None)

    @pytest.mark.parametrize("chunk_pairs", [None, 1, 2])
    def test_window_misses_match_reference(self, monkeypatch, sys4, rng, chunk_pairs):
        """Against the brute-force count: every group's misses are the
        operands beyond the resident window over its own pairs, and the
        partial window's results equal the full table's."""
        import repro.pim.system as system_mod

        if chunk_pairs is not None:
            monkeypatch.setattr(
                system_mod, "_LUT_CHUNK_BYTES", chunk_pairs * 32 * 16 * 8
            )
        queries = rng.integers(0, 255, size=(5, 32)).astype(np.uint8)
        assignments = {
            d: [(q, f"s{d}") for q in range(5) if (q + d) % 3] for d in range(4)
        }
        full, _ = sys4.run_batch(assignments, queries, k=4)
        window = SquareLut.for_bit_width(8, levels=3).partial(10)
        sys4.load_square_lut(window)
        misses = {}
        charge = PimSystem._charge_shard_group

        def spy(self, dpu, shard, g, k, sq, m, detail, **kwargs):
            misses[detail] = m
            return charge(self, dpu, shard, g, k, sq, m, detail, **kwargs)

        monkeypatch.setattr(PimSystem, "_charge_shard_group", spy)
        part, _ = sys4.run_batch(assignments, queries, k=4)
        books = sys4.codebooks.astype(np.int64)
        for d, tasks in assignments.items():
            cent = sys4.get_shard(f"s{d}").centroid.astype(np.int64)
            r = queries[[q for q, _ in tasks]].astype(np.int64) - cent
            diff = r.reshape(len(tasks), 8, 1, 4) - books
            assert misses[f"s{d}"] == np.count_nonzero(np.abs(diff) > 10)
        assert sum(misses.values()) > 0
        for a, b in zip(full, part):
            assert a.query_index == b.query_index
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
