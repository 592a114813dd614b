"""Kernel-backend registry: dispatch, bit-exactness, fallback, planner.

The acceptance contract of ``repro.pim.backend``: every backend is
bit-identical to the staged reference kernels, selection follows the
per-call > SearchParams > PimSystemConfig > auto precedence, a missing
or mid-flight-failing compiled backend degrades to numpy with a
recorded (never silent) fallback, and none of it can move a cycle
ledger.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pim.backend as kb
from repro.core import DrimAnnEngine, LayoutConfig, SearchParams
from repro.core.config import EngineConfig
from repro.obs import ObsConfig
from repro.pim.backend import (
    KERNEL_BACKEND_MODES,
    SCAN_TOPK_N_CHUNK,
    KernelBackend,
    available_backends,
    resolve_backend,
    take_fallback_events,
)
from repro.pim.backend import _GuardedBackend, _scan_topk_chunked
from repro.pim.backend.numpy_backend import FUSED_MIN_CELLS, NumpyBackend
from repro.pim.config import PimSystemConfig
from repro.pim.kernels import scan_distances, scan_distances_stacked, topk_rows
from repro.pim.parallel import (
    COMPILED_POOL_FACTOR,
    POOL_MIN_POINTS,
    ExecutionPlanner,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _scan_case(rng, g, n, m, cb, code_dtype=np.uint8):
    luts = rng.integers(0, 1 << 20, size=(g, m, cb)).astype(np.int64)
    codes = rng.integers(0, cb, size=(n, m)).astype(code_dtype)
    return luts, codes


def _counter(metrics_dict, name):
    return [c for c in metrics_dict["counters"] if c["name"] == name]


@pytest.fixture(autouse=True)
def _drain_fallback_events():
    """Keep the module-global fallback queue from leaking across tests."""
    take_fallback_events()
    yield
    take_fallback_events()


class TestRegistry:
    def test_numpy_always_listed_first(self):
        names = available_backends()
        assert names and names[0] == "numpy"

    def test_modes_cover_registered_backends(self):
        assert KERNEL_BACKEND_MODES == ("auto", "numpy", "numba")
        for name in available_backends():
            assert name in KERNEL_BACKEND_MODES

    def test_mode_literals_agree_everywhere(self):
        """The literal mode tuples (kept separate to avoid an import
        cycle) must never drift from the registry's canonical one."""
        from repro.core import params as core_params

        assert core_params.KERNEL_BACKEND_MODES == KERNEL_BACKEND_MODES
        with pytest.raises(ValueError, match="kernel_backend"):
            SearchParams(kernel_backend="not-a-backend")
        with pytest.raises(ValueError, match="kernel_backend"):
            PimSystemConfig(kernel_backend="not-a-backend")
        for mode in KERNEL_BACKEND_MODES:
            SearchParams(kernel_backend=mode)
            PimSystemConfig(kernel_backend=mode)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            resolve_backend("cuda")

    def test_explicit_numpy_resolves_numpy(self):
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_resolves_silently(self):
        backend = resolve_backend("auto")
        assert backend.name in ("numpy", "numba")
        assert take_fallback_events() == []

    def test_missing_numba_degrades_with_event(self, monkeypatch):
        from repro.pim.backend import numba_backend

        def _no_numba():
            raise ImportError("no module named numba (test)")

        monkeypatch.setattr(numba_backend, "_import_numba", _no_numba)
        kb._clear_instances()
        try:
            backend = resolve_backend("numba")
            assert backend.name == "numpy"
            assert take_fallback_events() == ["numba-unavailable"]
            # auto makes no promise, so no event.
            assert resolve_backend("auto").name == "numpy"
            assert take_fallback_events() == []
        finally:
            kb._clear_instances()


class TestBitExactness:
    @pytest.mark.parametrize("code_dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("name", available_backends())
    def test_scan_matches_reference(self, name, code_dtype):
        backend = resolve_backend(name)
        rng = _rng(1)
        for g, n in [(1, 1), (3, 40), (32, 2000)]:
            luts, codes = _scan_case(rng, g, n, 8, 64, code_dtype)
            got = backend.scan(luts, codes)
            want = scan_distances(luts, codes)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", available_backends())
    def test_scan_stacked_matches_reference(self, name):
        backend = resolve_backend(name)
        rng = _rng(2)
        for j, g, n in [(1, 2, 10), (4, 16, 500), (8, 32, 2000)]:
            luts = rng.integers(0, 1 << 20, size=(j, g, 8, 64)).astype(
                np.int64
            )
            codes = rng.integers(0, 64, size=(j, n, 8)).astype(np.uint8)
            got = backend.scan_stacked(luts, codes)
            want = scan_distances_stacked(luts, codes)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", available_backends())
    def test_build_luts_matches_reference(self, name):
        backend = resolve_backend(name)
        rng = _rng(3)
        m, cb, dsub = 8, 32, 4
        residuals = rng.integers(-500, 500, size=(12, m * dsub)).astype(
            np.int32
        )
        codebooks = rng.integers(-255, 255, size=(m, cb, dsub)).astype(
            np.int16
        )
        got = backend.build_luts(residuals, codebooks)
        r = residuals.astype(np.int64).reshape(12, m, 1, dsub)
        want = ((r - codebooks.astype(np.int64)) ** 2).sum(axis=3)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        dsub=st.sampled_from([1, 4, 8, 128]),
        cb=st.sampled_from([4, 256, 300]),
        m=st.integers(1, 3),
        g=st.integers(1, 5),
        lim=st.sampled_from([765, (1 << 16) - 1, (1 << 17) - 1]),
        seed=st.integers(0, 2**16),
    )
    def test_build_luts_exact_at_corner_operands(
        self, dsub, cb, m, g, lim, seed
    ):
        """Every backend's LUT build equals the int64 reference when the
        operands sit at the domain corners: ±765 for 8-bit data, the
        16-bit extremes below 2^17 (the GEMM's exactness bound)."""
        rng = _rng(seed)
        corners = np.array([-lim, lim, 0, -1, 1, -(lim // 2), lim // 2])
        residuals = rng.choice(corners, size=(g, m * dsub))
        codebooks = rng.choice(corners, size=(m, cb, dsub))
        r = residuals.reshape(g, m, 1, dsub)
        want = ((r - codebooks[None]) ** 2).sum(axis=3)
        for name in available_backends():
            got = resolve_backend(name).build_luts(
                residuals.astype(np.int32), codebooks.astype(np.int32)
            )
            assert got.dtype == np.int64
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", available_backends())
    def test_build_luts_exact_beyond_float_bound(self, name):
        """Operands too wide for exact float64 GEMM take the int64 path."""
        rng = _rng(5)
        residuals = rng.integers(-(1 << 26), 1 << 26, size=(3, 16))
        codebooks = rng.integers(-(1 << 26), 1 << 26, size=(2, 4, 8))
        r = residuals.reshape(3, 2, 1, 8)
        want = ((r - codebooks[None]) ** 2).sum(axis=3)
        got = resolve_backend(name).build_luts(residuals, codebooks)
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.integers(1, 6),
        n=st.integers(1, 300),
        m=st.integers(1, 8),
        cb=st.sampled_from([4, 32, 256, 300]),
        seed=st.integers(0, 2**16),
    )
    def test_fused_scan_property(self, g, n, m, cb, seed):
        """Fused == staged for arbitrary shapes, incl. uint16 codes
        (CB > 256) and LUT values spanning the int32 gather limit."""
        rng = _rng(seed)
        code_dtype = np.uint8 if cb <= 256 else np.uint16
        high = (1 << 31) if seed % 2 else (1 << 10)
        luts = rng.integers(0, high, size=(g, m, cb)).astype(np.int64)
        codes = rng.integers(0, cb, size=(n, m)).astype(code_dtype)
        backend = NumpyBackend()
        assert np.array_equal(
            backend.scan(luts, codes), scan_distances(luts, codes)
        )

    def test_small_cases_use_staged_kernels_bit_equal(self):
        """Below FUSED_MIN_CELLS the numpy backend delegates to the
        staged kernels; either way the contract is equality."""
        rng = _rng(4)
        g, n = 2, 3
        assert g * n < FUSED_MIN_CELLS
        luts, codes = _scan_case(rng, g, n, 4, 16)
        assert np.array_equal(
            NumpyBackend().scan(luts, codes), scan_distances(luts, codes)
        )


class TestScanTopk:
    def test_small_n_equals_topk_rows(self):
        rng = _rng(5)
        luts, codes = _scan_case(rng, 4, 100, 8, 64)
        ids = rng.permutation(100).astype(np.int64)
        backend = resolve_backend("numpy")
        got = backend.scan_topk(luts, codes, ids, 10)
        want = topk_rows(scan_distances(luts, codes), ids, 10)
        for (gi, gd), (wi, wd) in zip(got, want):
            assert np.array_equal(gi, wi)
            assert np.array_equal(gd, wd)

    def test_chunked_equals_unchunked_unique_distances(self):
        """The chunked merge must equal the full-matrix path exactly,
        for any chunk size — with untied distances and with heavy ties
        (both rank by the canonical (distance, id) order)."""
        rng = _rng(6)
        g, n, k = 3, 700, 16
        # One subspace, codes a permutation of the codebook. Distinct
        # LUT values make every row's distances a permutation (untied);
        # LUT values drawn from a small range tie at every rank.
        untied = rng.permutation(g * n).reshape(g, 1, n).astype(np.int64)
        tied = rng.integers(0, 8, size=(g, 1, n)).astype(np.int64)
        codes = rng.permutation(n).astype(np.uint16).reshape(n, 1)
        ids = rng.permutation(n).astype(np.int64)
        backend = resolve_backend("numpy")
        for luts in (untied, tied):
            want = topk_rows(scan_distances(luts, codes), ids, k)
            for n_chunk in (64, 128, 699, 700):
                got = _scan_topk_chunked(backend, luts, codes, ids, k, n_chunk)
                for (gi, gd), (wi, wd) in zip(got, want):
                    assert np.array_equal(gi, wi)
                    assert np.array_equal(gd, wd)

    def test_threshold_routes_to_chunked(self):
        assert SCAN_TOPK_N_CHUNK == 1 << 16
        rng = _rng(7)
        luts, codes = _scan_case(rng, 1, 50, 2, 8)
        ids = np.arange(50, dtype=np.int64)
        backend = resolve_backend("numpy")
        # Force the chunked path with a tiny threshold override; the
        # distances here are heavily tied, so compare sets by the
        # canonical rule instead of raw equality with topk_rows.
        got = backend.scan_topk(luts, codes, ids, 5, n_chunk=16)
        assert len(got) == 1
        ids_k, dists_k = got[0]
        full = scan_distances(luts, codes)[0]
        assert np.array_equal(np.sort(dists_k), dists_k)  # ascending
        assert dists_k[-1] <= np.partition(full, 4)[4]


class TestGuardedFallback:
    class _Exploding(KernelBackend):
        name = "exploding"
        compiled = True

        def scan(self, luts, codes):
            raise RuntimeError("jit blew up")

        def scan_stacked(self, luts, codes):
            raise RuntimeError("jit blew up")

        def build_luts(self, residuals, codebooks):
            raise RuntimeError("jit blew up")

    def test_degrades_once_and_records_reason(self):
        guarded = _GuardedBackend(self._Exploding(), NumpyBackend())
        rng = _rng(8)
        luts, codes = _scan_case(rng, 2, 20, 4, 16)
        got = guarded.scan(luts, codes)
        assert np.array_equal(got, scan_distances(luts, codes))
        assert take_fallback_events() == ["exploding-scan-failed"]
        # Permanently degraded: numpy from here on, no more events.
        assert guarded.name == "numpy"
        assert guarded.compiled is False
        guarded.scan(luts, codes)
        assert take_fallback_events() == []

    def test_warmup_failure_degrades(self):
        class _BadWarmup(self._Exploding):
            name = "badwarmup"

            def warmup(self):
                raise RuntimeError("compile failed")

        guarded = _GuardedBackend(_BadWarmup(), NumpyBackend())
        guarded.warmup()
        assert guarded.name == "numpy"
        assert take_fallback_events() == ["badwarmup-warmup-failed"]


class TestPlannerBackendAwareness:
    def _executor(self, ready=True):
        class _Pool:
            parallel = True

            def ready(self):
                return ready

            def ensure_started(self):
                pass

        return _Pool()

    def test_compiled_label_for_inprocess_path(self):
        planner = ExecutionPlanner()
        compiled = self._Compiled()
        path = planner.choose(
            "auto", num_jobs=8, scan_points=100, backend=compiled
        )
        assert path == "compiled"
        # Forced vectorized keeps its own label (same dispatch).
        assert (
            planner.choose(
                "vectorized", num_jobs=8, scan_points=100, backend=compiled
            )
            == "vectorized"
        )

    class _Compiled(KernelBackend):
        name = "fake-compiled"
        compiled = True

    def test_compiled_backend_raises_pool_floor(self):
        planner = ExecutionPlanner()
        executor = self._executor(ready=True)
        points = POOL_MIN_POINTS * 2
        assert points < POOL_MIN_POINTS * COMPILED_POOL_FACTOR
        assert (
            planner.choose(
                "auto", num_jobs=8, scan_points=points, executor=executor
            )
            == "pool"
        )
        assert (
            planner.choose(
                "auto",
                num_jobs=8,
                scan_points=points,
                executor=executor,
                backend=self._Compiled(),
            )
            == "compiled"
        )

    def test_measured_throughput_arbitrates(self):
        planner = ExecutionPlanner()
        executor = self._executor(ready=True)
        backend = self._Compiled()
        planner.note_round("compiled", 10_000_000, 1.0)
        planner.note_round("pool", 1_000_000, 1.0)
        assert (
            planner.choose(
                "auto",
                num_jobs=8,
                scan_points=POOL_MIN_POINTS * COMPILED_POOL_FACTOR * 2,
                executor=executor,
                backend=backend,
            )
            == "compiled"
        )
        # Flip the measured rates: the pool wins the same round.
        planner.throughput["pool"] = 100_000_000.0
        assert (
            planner.choose(
                "auto",
                num_jobs=8,
                scan_points=POOL_MIN_POINTS * COMPILED_POOL_FACTOR * 2,
                executor=executor,
                backend=backend,
            )
            == "pool"
        )

    def test_note_round_ignores_degenerate_samples(self):
        planner = ExecutionPlanner()
        planner.note_round("pool", 0, 1.0)
        planner.note_round("pool", 100, 0.0)
        assert planner.throughput == {}


def _obs_engine(small_ds, small_quantized, small_params, **search_kw):
    config = EngineConfig(
        index=small_params,
        search=SearchParams(batch_size=64, **search_kw),
        system=PimSystemConfig(num_dpus=8),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
        obs=ObsConfig(enabled=True),
    )
    return DrimAnnEngine.from_config(
        small_ds.base,
        config,
        heat_queries=small_ds.queries[:50],
        prebuilt_quantized=small_quantized,
        seed=0,
    )


class TestEngineThreading:
    def test_search_rejects_bad_backend(
        self, small_ds, small_quantized, small_params
    ):
        engine = _obs_engine(small_ds, small_quantized, small_params)
        try:
            with pytest.raises(ValueError, match="kernel_backend"):
                engine.search(small_ds.queries[:8], kernel_backend="cuda")
        finally:
            engine.close()

    def test_backend_counter_in_metrics(
        self, small_ds, small_quantized, small_params
    ):
        engine = _obs_engine(small_ds, small_quantized, small_params)
        try:
            out = engine.search(
                small_ds.queries[:32], kernel_backend="numpy"
            )
        finally:
            engine.close()
        snap = out.metrics.to_dict()
        rows = _counter(snap, "drimann_kernel_backend_total")
        assert rows and all(
            row["labels"]["backend"] == "numpy" for row in rows
        )
        assert sum(row["value"] for row in rows) >= 1

    def test_explicit_numba_on_bare_install_falls_back_visibly(
        self, small_ds, small_quantized, small_params, monkeypatch
    ):
        """Requesting numba where it cannot import must produce numpy's
        exact results plus a numba-unavailable fallback counter."""
        from repro.pim.backend import numba_backend

        def _no_numba():
            raise ImportError("no module named numba (test)")

        monkeypatch.setattr(numba_backend, "_import_numba", _no_numba)
        kb._clear_instances()
        try:
            engine = _obs_engine(small_ds, small_quantized, small_params)
            try:
                base = engine.search(
                    small_ds.queries[:32], kernel_backend="numpy"
                )
                out = engine.search(
                    small_ds.queries[:32], kernel_backend="numba"
                )
            finally:
                engine.close()
        finally:
            kb._clear_instances()
        assert np.array_equal(out.results.ids, base.results.ids)
        assert np.array_equal(
            out.results.distances, base.results.distances
        )
        rows = _counter(out.metrics.to_dict(), "drimann_kernel_fallbacks_total")
        reasons = {row["labels"]["reason"] for row in rows}
        assert "numba-unavailable" in reasons

    def test_jit_failure_mid_flight_degrades_not_crashes(
        self, small_ds, small_quantized, small_params, monkeypatch
    ):
        """A compiled backend whose kernels raise mid-batch must fall
        back to numpy results and surface the degradation counter."""
        import repro.pim.system as pim_system

        def _guarded(mode="auto"):
            return _GuardedBackend(
                TestGuardedFallback._Exploding(), NumpyBackend()
            )

        engine = _obs_engine(small_ds, small_quantized, small_params)
        monkeypatch.setattr(pim_system, "resolve_backend", _guarded)
        try:
            out = engine.search(small_ds.queries[:32])
        finally:
            monkeypatch.undo()
            engine.close()
        base_engine = _obs_engine(small_ds, small_quantized, small_params)
        try:
            base = base_engine.search(small_ds.queries[:32])
        finally:
            base_engine.close()
        assert np.array_equal(out.results.ids, base.results.ids)
        assert np.array_equal(
            out.results.distances, base.results.distances
        )
        assert out.breakdown.kernel_cycles == base.breakdown.kernel_cycles
        rows = _counter(out.metrics.to_dict(), "drimann_kernel_fallbacks_total")
        reasons = {row["labels"]["reason"] for row in rows}
        assert "exploding-scan-failed" in reasons or any(
            r.startswith("exploding-") for r in reasons
        )

    def test_search_params_default_flows_through(
        self, small_ds, small_quantized, small_params
    ):
        engine = _obs_engine(
            small_ds, small_quantized, small_params, kernel_backend="numpy"
        )
        try:
            out = engine.search(small_ds.queries[:16])
        finally:
            engine.close()
        rows = _counter(out.metrics.to_dict(), "drimann_kernel_backend_total")
        assert rows and all(
            row["labels"]["backend"] == "numpy" for row in rows
        )


class TestMicrobench:
    def test_record_shape_and_gate(self):
        from repro.pim.backend.microbench import format_record, run_microbench

        record = run_microbench(repeats=1, seed=0)
        assert set(record["backends"]) == set(available_backends())
        for entry in record["backends"].values():
            assert entry["bit_identical"] is True
        assert record["best_backend"] in record["backends"]
        text = format_record(record)
        assert "stacked scan" in text and "best:" in text
