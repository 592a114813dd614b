"""Differential exactness: engine vs brute-force oracle, mode vs mode.

Two layers of differential testing on seeded synthetic data:

* the engine's recall@10 against the *exact* int64 brute-force oracle
  must equal the stored golden exactly for every canonical config —
  any change to quantization, layout, scheduling, or merging that
  moves accuracy by even one hit fails;
* batched, chunked, and per-query execution must return bit-identical
  ids *and* distances (the canonical (distance, id) merge makes the
  result independent of round structure).
"""

import json
import os

import numpy as np
import pytest

from repro.testing import (
    CANONICAL_CONFIGS,
    brute_force_topk,
    build_canonical_engine,
    canonical_dataset,
    oracle_recall,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_cycles.json"
)


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _run(name, execution=None):
    ds = canonical_dataset()
    engine = build_canonical_engine(name, execution=execution)
    queries = ds.queries[: CANONICAL_CONFIGS[name]["num_queries"]]
    res, bd = engine.search(queries)
    return res, bd, queries


class TestOracleRecall:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_recall_matches_golden_exactly(self, name, goldens):
        ds = canonical_dataset()
        res, _, queries = _run(name)
        oracle = brute_force_topk(ds.base, queries, 10)
        recall = oracle_recall(res.ids, oracle)
        assert recall == goldens[name]["recall_at_10"], (
            f"recall@10 drifted for {name!r}: got {recall}, golden "
            f"{goldens[name]['recall_at_10']} — if the change is an "
            "intentional accuracy change, regenerate via "
            "tools/update_goldens.py"
        )

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    def test_results_match_host_reference_bitwise(self, name):
        """The engine must agree with the host gold standard exactly
        (same integer math, canonical merge) for every config."""
        res, _, queries = _run(name)
        engine = build_canonical_engine(name)
        ref = engine.reference_search(queries)
        np.testing.assert_array_equal(res.ids, ref.ids)
        np.testing.assert_array_equal(res.distances, ref.distances)


class TestExecutionModeEquivalence:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    @pytest.mark.parametrize("execution", ["chunked", "per_query"])
    def test_bit_identical_to_batched(self, name, execution):
        res_b, _, _ = _run(name, execution="batched")
        res_o, _, _ = _run(name, execution=execution)
        np.testing.assert_array_equal(res_b.ids, res_o.ids)
        np.testing.assert_array_equal(res_b.distances, res_o.distances)

    def test_execution_override_rejects_unknown_mode(self):
        ds = canonical_dataset()
        engine = build_canonical_engine("split-replicated")
        with pytest.raises(ValueError, match="execution"):
            engine.search(ds.queries[:4], execution="warp-speed")

    def test_search_params_execution_validated(self):
        from repro.core.params import SearchParams

        with pytest.raises(ValueError, match="execution"):
            SearchParams(execution="bogus")


class TestPlanEquivalence:
    """Data-plane strategies are pure wall-clock knobs: every plan
    returns bit-identical ids and distances."""

    @pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
    @pytest.mark.parametrize("plan", ["vectorized", "pool", "auto"])
    def test_bit_identical_to_serial(self, name, plan):
        queries = canonical_dataset().queries[
            : CANONICAL_CONFIGS[name]["num_queries"]
        ]
        base_engine = build_canonical_engine(name, plan="serial")
        res_s, _ = base_engine.search(queries)
        workers = 2 if plan in ("pool", "auto") else 0
        engine = build_canonical_engine(
            name, plan=plan, shard_workers=workers
        )
        try:
            res_p, _ = engine.search(queries)
        finally:
            engine.close()
        np.testing.assert_array_equal(res_s.ids, res_p.ids)
        np.testing.assert_array_equal(res_s.distances, res_p.distances)

    def test_search_call_override_beats_params(self):
        """A per-call plan= override applies without mutating params."""
        ds = canonical_dataset()
        engine = build_canonical_engine("split-replicated", plan="serial")
        res_a, _ = engine.search(ds.queries[:8])
        res_b, _ = engine.search(ds.queries[:8], plan="vectorized")
        np.testing.assert_array_equal(res_a.ids, res_b.ids)
        np.testing.assert_array_equal(res_a.distances, res_b.distances)
        assert engine.search_params.plan == "serial"

    def test_unknown_plan_rejected(self):
        ds = canonical_dataset()
        engine = build_canonical_engine("split-replicated")
        with pytest.raises(ValueError, match="plan"):
            engine.search(ds.queries[:4], plan="warp-speed")

    def test_search_params_plan_validated(self):
        from repro.core.params import SearchParams

        with pytest.raises(ValueError, match="plan"):
            SearchParams(plan="bogus")


class TestDuplicateVectorTies:
    """Exact duplicates tie at the k-th distance inside a shard; the
    per-shard top-k must keep the canonical (distance, id) members, or
    the merged result differs from the host reference by id."""

    @pytest.fixture(scope="class")
    def dup_engine(self, small_ds):
        from repro.core import (
            DrimAnnEngine,
            EngineConfig,
            IndexParams,
            LayoutConfig,
        )
        from repro.pim.config import PimSystemConfig

        rng = np.random.default_rng(0)
        base = np.tile(small_ds.base[:2000], (7, 1))
        base = base[rng.permutation(len(base))]
        config = EngineConfig(
            index=IndexParams(
                nlist=32, nprobe=4, k=10, num_subspaces=16, codebook_size=64
            ),
            system=PimSystemConfig(num_dpus=8),
            layout=LayoutConfig(min_split_size=200, max_copies=2),
        )
        return DrimAnnEngine.from_config(base, config, seed=0)

    @pytest.mark.parametrize(
        "execution, adaptive",
        [
            ("batched", "off"),
            ("chunked", "off"),
            ("per_query", "off"),
            ("batched", "bound"),
        ],
    )
    def test_matches_reference_ids(
        self, dup_engine, small_ds, execution, adaptive
    ):
        queries = small_ds.queries[:60]
        ref = dup_engine.reference_search(queries)
        res, _ = dup_engine.search(
            queries, execution=execution, adaptive=adaptive
        )
        np.testing.assert_array_equal(res.distances, ref.distances)
        mismatched = int((res.ids != ref.ids).any(axis=1).sum())
        assert mismatched == 0, f"{mismatched} of 60 rows differ by id"
